"""Closed-loop simulation.

With its local controller, every agent's chain xi and controller state phi
stack into one r-vector xihat_i that is exactly linear,

    xihat_i' = M_i xihat_i + Bv_i v_i,   v = -(L feedback) K,

where (M_i, Bv_i) = assemble_stacked(target, controller_i), which equals
the target's (A, B) when the controller is correct, and the feedback is
xihat itself or the observer estimates xcheck of it,

    xcheck_i' = A xcheck_i + B v_i + M_o C (xihat_i - xcheck_i),

M_o being the observer's injection gain.  So for each graph mode m the
vector z = [xihat; xcheck] (agent-major, N r entries each; xcheck only
with an observer) moves by one fixed matrix, z' = Phi[m] z, built once at
set-up from the assemble_stacked blocks, the mode's Laplacian, K and the
observer gain (see _mode_matrices).  Being linear, one RK4 step of z is
one product: the four stage derivatives K_s = Phi T_s z (T_1 = I, T_2 =
I + (h/2) Phi, T_3 = I + (h/2) Phi T_2, T_4 = I + h Phi T_3) are the rows
of one (4 nz, nz) matrix per mode, D[m] = [Phi T_1; 2 Phi T_2; 2 Phi T_3;
Phi T_4], built at set-up (_stage_products), and a step is K = D[mode] @ z
followed by z + (h/6) (((K_1 + 2 K_2) + 2 K_3) + K_4).  Everything linear
is read off K: the chain, controller and observer derivatives, and the new
chain input of agent i, u_hat_i = entry i r + r_i - 1 of each K_s.

Every agent, agent 3 included, is carried as its chain xi: under the
linearizing input u = (u_hat - alpha) / beta the chain is exact, so no
agent is integrated in its original coordinates.  An agent stated in them
(builtin agent 3) enters through its map xi_of: a random start draws x and
maps it, and an explicit x0 is mapped by with_initial.  Its u is evaluated
from alpha and beta in chain form, only to record it.

What is not linear is eta' = theta(xi, eta), the physical input of
augmented agents (u' = (u_hat - alpha) / beta), and the read-out u =
(u_hat - alpha) / beta with its beta guard.  The first two form a cascade
driven by z that never feeds back into it.  Their maps are term tables:
the theta rows of all agents and the alpha and beta rows of the augmented
agents are written out as Python source into one function that runs RK4
on the cascade over a whole block of steps in Python floats and local
names (_System._compile_cascade), each stage reading z at that stage (z +
(h/2) K_1, z + (h/2) K_2, z + h K_3) and u_hat from the same K.  Its
source holds no coefficient, so its code is compiled once per shape of
cascade and shared by every run of that shape (_code).  A run goes in
blocks of _STEPS steps: the linear block first, then the cascade it
drives.  alpha and beta of every agent are evaluated over all recorded
states at once after the run.  The flat state is [z | eta | u]:

* z itself, so the linear block is state[:len(z)];
* eta of every agent, in agent order;
* u of each augmented agent, in agent order.

Every run follows a mode schedule: a fixed graph is the one-mode schedule
[L] with mode 0 throughout; under switching each sample looks its mode up
in the sampled path, so a jump takes effect at the first step boundary at
or after the jump time and the graph is frozen over each step.

Each sample is recorded as one row of a state matrix, and the Trajectory
is built from those rows once, after the loop (_trajectory).  Two runtime
guards: |beta| is checked against the configured floor after the run over
all recorded states, before a FiniteEscape is raised (BetaNearZero), and
any state leaving the max-norm ball of radius ``settings.finite_escape_norm``
aborts the run with FiniteEscape at the first step whose z or cascade is
outside it, carrying the trajectory recorded up to the step before.  A
Python OverflowError or ZeroDivisionError in the cascade counts as leaving
the ball, as numpy gives inf there.

Reproducibility: trajectories are a pure function of (scenario, seed, run
index).  Random initial conditions and switching paths are drawn from
separate keyed streams, so a one-mode switching run is bit-identical to the
corresponding fixed-topology run.
"""

import functools
import linecache
import types
import warnings
import weakref
import zlib
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .agents import AUGMENTED_GENERAL, NormalFormAgent, TermTable
from .errors import BetaNearZero, FiniteEscape, ValidationError
from .graph import DiGraph, laplacian
from .rng import STREAM_INIT, rng_for
from .settings import settings
from .switching import MarkovTopology, check_A4, sample_path
from .synthesis import (
    CompanionSystem,
    ConsensusGain,
    LocalController,
    ObserverGain,
    assemble_stacked,
    local_controller,
)

__all__ = [
    "SimScenario", "Trajectory", "MonteCarloResult", "build_scenario",
    "simulate_fixed", "simulate_switching", "simulate_with_observer",
    "monte_carlo_ms",
]


@dataclass
class SimScenario:
    agents: List[NormalFormAgent]
    cs: CompanionSystem
    gain: ConsensusGain
    controllers: List[LocalController]
    topology: Union[DiGraph, MarkovTopology]
    observer: Optional[ObserverGain] = None
    t_end: float = 10.0
    dt: float = 1e-3
    seed: int = 0
    init: str = "explicit"
    observer_init: str = "zero"
    output: Optional[dict] = None
    raw: Optional[dict] = None

    def validate(self):
        if not self.agents:
            raise ValidationError("scenario has no agents")
        if self.topology.n != len(self.agents):
            raise ValidationError(
                f"{len(self.agents)} agents on a {self.topology.n}-node topology")
        if len(self.controllers) != len(self.agents):
            raise ValidationError("one local controller per agent is required")
        for ag, ctl in zip(self.agents, self.controllers):
            if ag.r > self.cs.r:
                raise ValidationError(
                    f"agent {ag.agent_id} degree {ag.r} exceeds target {self.cs.r}")
            if ctl.r != self.cs.r or ctl.r_agent != ag.r:
                raise ValidationError(
                    f"controller for agent {ag.agent_id} does not match")
        if self.gain.K.shape != (self.cs.r,):
            raise ValidationError("gain dimension does not match the target")
        if self.observer is not None and self.observer.C.shape != (self.cs.r,):
            raise ValidationError("observer row dimension does not match")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValidationError(f"dt must be positive, got {self.dt!r}")
        if not (self.t_end >= self.dt and np.isfinite(self.t_end)):
            raise ValidationError("t_end must be finite and at least one step")
        if self.init not in ("explicit", "random"):
            raise ValidationError(f"unknown init mode {self.init!r}")
        if self.observer_init not in ("zero", "match"):
            raise ValidationError(f"unknown observer init {self.observer_init!r}")


def build_scenario(agents, cs, gain, topology, observer=None, **kwargs):
    """Convenience constructor that synthesizes the local controllers."""
    controllers = [local_controller(cs, ag) for ag in agents]
    scen = SimScenario(agents=list(agents), cs=cs, gain=gain,
                       controllers=controllers, topology=topology,
                       observer=observer, **kwargs)
    scen.validate()
    return scen


@dataclass
class Trajectory:
    times: np.ndarray                      # (n,)
    y: np.ndarray                          # (n, N) outputs
    xi_hat: np.ndarray                     # (n, N, r) stacked chain states
    eta: List[np.ndarray]                  # per agent (n, n_eta_i)
    u: np.ndarray                          # (n, N) physical inputs
    err: Optional[np.ndarray] = None       # (n, N, r) observer errors
    mode: Optional[np.ndarray] = None      # (n,) active mode index
    mode_path: Optional[list] = None       # (mode, t0, t1) intervals
    diverged: bool = False


@dataclass
class MonteCarloResult:
    times: np.ndarray
    mean_square: np.ndarray
    runs_used: int
    runs_diverged: int


class _AgentRuntime:
    """Where one agent's parts sit in the flat state."""

    __slots__ = ("i", "agent", "augmented", "sl_xi", "sl_eta")

    def __init__(self, i, agent, r):
        self.i = i
        self.agent = agent
        self.augmented = agent.kind == AUGMENTED_GENERAL
        self.sl_xi = slice(i * r, i * r + agent.r)  # the chain, inside z

    def places(self):
        """Flat-state index of each variable (xi, eta) of the agent."""
        return np.r_[self.sl_xi, self.sl_eta]


def _stack(rts, name):
    """Map `name` of the agents `rts` as one table over the flat state."""
    return TermTable.stack([getattr(rt.agent, name) for rt in rts],
                           [rt.places() for rt in rts])


def _mode_matrices(scen, laps, use_observer):
    """One matrix Phi[m] per mode with z' = Phi[m] z on the linear block.

    Full information: Phi = blockdiag(M_i) - C with C[(i, a), (j, c)] =
    Bv_i[a] L[i, j] K[c], the cooperative input v = -(L xihat) K entering
    agent i through Bv_i.  With an observer, z = [xihat; xcheck], v is fed
    back from xcheck and

        Phi = [[blockdiag(M_i), -C],
               [I (x) M_o C,    I (x) (A - M_o C) - L (x) B K]].
    """
    cs, n, r = scen.cs, len(scen.agents), scen.cs.r
    stacked = [assemble_stacked(cs, ctl) for ctl in scen.controllers]
    bv = np.array([b for _, b in stacked])
    diag = np.zeros((n, r, n, r))  # block (i, i) is M_i
    diag[np.arange(n), :, np.arange(n), :] = [m for m, _ in stacked]
    diag = diag.reshape(n * r, n * r)
    K = scen.gain.K
    if use_observer:
        inj = np.outer(scen.observer.M, scen.observer.C)
        eye = np.eye(n)
    phis = []
    for lap in laps:
        coupling = np.einsum("ia,ij,c->iajc", bv, lap, K).reshape(n * r, n * r)
        if not use_observer:
            phis.append(diag - coupling)
            continue
        phis.append(np.block([
            [diag, -coupling],
            [np.kron(eye, inj),
             np.kron(eye, cs.A - inj) - np.kron(lap, np.outer(cs.B, K))]]))
    return np.array(phis)


class _System:
    def __init__(self, scen, laps, use_observer):
        self.scen = scen
        r = scen.cs.r
        self.shape = (len(scen.agents), r)
        self.rts = [_AgentRuntime(i, ag, r) for i, ag in enumerate(scen.agents)]
        self.Phi = _mode_matrices(scen, laps, use_observer)
        self.use_observer = use_observer
        self.nz = pos = self.Phi.shape[1]
        for rt in self.rts:
            rt.sl_eta = slice(pos, pos + rt.agent.n_eta)
            pos += rt.agent.n_eta
        self.aug = [rt for rt in self.rts if rt.augmented]
        self.dim = pos + len(self.aug)
        self.sl_u = slice(pos, self.dim)
        self.u_idx = np.array([rt.sl_xi.stop - 1 for rt in self.rts])
        self.aug_u_hat = self.u_idx[[rt.i for rt in self.aug]]
        self.tables = (_stack(self.rts, "theta"), _stack(self.aug, "alpha"),
                       _stack(self.aug, "beta"))
        self.cols = sorted({int(j) for table in self.tables
                            for j in table.variables if j < self.nz})
        self.block = (self._compile_cascade(scen.dt)
                      if self.dim > self.nz else None)

    def derivative_source(self, inputs, state, coefs):
        """The derivative of the cascade [eta | u] as Python expressions:
        theta of every agent, then u' = (u_hat - alpha) / beta of each
        augmented agent.  z at `cols`, then u_hat of each augmented agent,
        are the names `inputs`, and [eta | u] the names `state`; the
        coefficients go to `coefs` as in TermTable._source."""
        names = dict(zip(self.cols, inputs))
        names.update(zip(range(self.nz, self.dim), state))
        theta, alpha, beta = (t._source(names, coefs) for t in self.tables)
        return theta + [f"({u} - ({a})) / ({b})" for u, a, b in
                        zip(inputs[len(self.cols):], alpha, beta)]

    def _compile_cascade(self, h):
        """The cascade [eta | u] as one function block(x, y, out) that makes
        RK4 steps of length h in Python floats, in local names only.

        Row i of the list x holds the inputs of step i, stage after stage:
        z at `cols`, then u_hat of each augmented agent.  From the state y,
        block writes the state after step i to out[i], as a tuple.  Each
        stage is written out in full: stages 2, 3 and 4 read the states
        y + (h/2) k_1, y + (h/2) k_2 and y + h k_3, and the step is y +
        (h/6) (((k_1 + 2 k_2) + 2 k_3) + k_4).  The source holds no float;
        the coefficients, h/2, h, h/6 and 2.0 are default arguments, so one
        code object serves every cascade of its shape.
        """
        n_in, n = len(self.cols) + len(self.aug), self.dim - self.nz
        y, w = ([f"{a}{q}" for q in range(n)] for a in "yw")
        x = [[f"x{s}_{i}" for i in range(n_in)] for s in range(1, 5)]
        body, coefs = [], []
        for s, step in enumerate((None, "h2", "h2", "h"), 1):
            if step:
                body += [f"{w[q]} = {y[q]} + {step} * k{s - 1}_{q}"
                         for q in range(n)]
            # every stage appends the same coefficients: keep the first
            rows = self.derivative_source(x[s - 1], w if step else y,
                                          coefs if s == 1 else [])
            body += [f"k{s}_{q} = {row}" for q, row in enumerate(rows)]
        body += [f"{y[q]} = {y[q]} + h6 * (((k1_{q} + two * k2_{q}) "
                 f"+ two * k3_{q}) + k4_{q})" for q in range(n)]
        body += [f"out[i] = ({', '.join(y)},)", "i = i + 1"]
        target = ", ".join(sum(x, [])) + "," if n_in else "_"
        source = "\n".join(
            ["def block(x, y, out, c, h2, h, h6, two):",
             f"    {', '.join(f'c{t}' for t in range(len(coefs)))}, = c",
             f"    {', '.join(y)}, = y",
             "    i = 0",
             f"    for {target} in x:"]
            + ["        " + line for line in body]) + "\n"
        return _function(source, (tuple(coefs), 0.5 * h, h, h / 6.0, 2.0))

    def initial_state(self, run_index):
        scen = self.scen
        rng = (rng_for(scen.seed, run_index, STREAM_INIT)
               if scen.init == "random" else None)
        state = np.zeros(self.dim)
        for rt in self.rts:
            ag = rt.agent
            if rng is None:
                state[rt.sl_xi] = ag.xi0
                state[rt.sl_eta] = ag.eta0
            elif ag.native is not None:
                # drawn in the coordinates the agent is stated in
                state[rt.sl_xi] = ag.native.xi_of(
                    rng.uniform(-1.0, 1.0, ag.native.dim))
            else:
                state[rt.sl_xi] = rng.uniform(-1.0, 1.0, ag.r)
                if ag.n_eta:
                    state[rt.sl_eta] = rng.uniform(-1.0, 1.0, ag.n_eta)
        state[self.sl_u] = [rt.agent.u0 for rt in self.aug]
        if self.use_observer and scen.observer_init == "match":
            # controller states start at zero, so xihat is the true chain
            n_r = self.nz // 2
            state[n_r:self.nz] = state[:n_r]
        return state


def _function(source, defaults):
    """The function that `source` defines, its last parameters bound to
    `defaults`; its code is compiled once per distinct source."""
    code = _code(source)
    return types.FunctionType(code, {}, code.co_name, tuple(defaults))


@functools.lru_cache(maxsize=32)
def _code(source):
    """The code of the one function `source` defines, compiled under the
    file name <cascade:CRC-32 of the source>.  While that code lives, its
    source is in linecache, so tracebacks and profilers show its lines."""
    name = f"<cascade:{zlib.crc32(source.encode()):08x}>"
    entry = linecache.cache[name] = (len(source), None,
                                     source.splitlines(True), name)
    code = compile(source, name, "exec").co_consts[0]
    weakref.finalize(code, _forget, name, entry)
    return code


def _forget(name, entry):
    # unless the same source was compiled again and registered anew
    if linecache.cache.get(name) is entry:
        del linecache.cache[name]


def _grid(scen):
    try:
        return np.arange(int(round(scen.t_end / scen.dt)) + 1) * scen.dt
    except (ValueError, MemoryError) as exc:
        raise ValidationError(
            f"t_end / dt = {scen.t_end / scen.dt:.3g} steps: the time grid "
            f"cannot be allocated", field="sim.t_end") from exc


_STEPS = 256  # RK4 steps per block: bounds the cascade inputs built at once


def _stage_products(phi, h):
    """D[m] of the module docstring for every mode: the four RK4 stage
    derivatives of z as rows of one matrix, those of stages 2 and 3, which
    count twice in a step, doubled (exactly)."""
    eye = np.eye(phi.shape[1])
    d = [phi]
    for w in (0.5 * h, 0.5 * h, h):
        d.append(phi @ (eye + w * d[-1]))
    return np.concatenate((d[0], 2.0 * d[1], 2.0 * d[2], d[3]), axis=1)


def _integrate(scen, laps, modes, mode_path=None, run_index=0,
               use_observer=False):
    """RK4 over the mode schedule: sample k and the step after it use the
    graph ``laps[modes[k]]``.  ``modes`` is one index per sample, or 0 for
    the one-mode schedule of a fixed graph; the modes are reported only
    with a ``mode_path``."""
    sys = _System(scen, laps, use_observer)
    times = _grid(scen)
    modes = np.broadcast_to(modes, times.shape)
    rows = np.empty((times.shape[0], sys.dim))  # the state at times[k]
    rows[0] = sys.initial_state(run_index)
    with np.errstate(over="ignore", invalid="ignore"):
        # past an escape a block runs on to its end; the guard reads it
        escape = _run(sys, rows, modes.tolist(), scen.dt)
    if escape is not None:
        k, peak = escape
        traj = _trajectory(sys, rows[:k], times, modes, mode_path)
        raise FiniteEscape(
            f"state norm {peak:.3e} left the guard ball at t = "
            f"{times[k]:.6g}", trajectory=traj, t=float(times[k]))
    return _trajectory(sys, rows, times, modes, mode_path)


def _run(sys, rows, modes, h):
    """Fill rows[1:] from rows[0] block by block: the linear block z first,
    then the cascade [eta | u] it drives.  Returns (k, peak) for the first
    sample k outside the guard ball, or None."""
    nz = sys.nz
    stage = list(_stage_products(sys.Phi, h))
    k = np.empty((_STEPS, 4, nz))  # the stage derivatives of each step
    flat = k.reshape(_STEPS, 4 * nz)
    s = np.empty(nz)
    h6 = h / 6.0
    guard = settings.finite_escape_norm
    n = rows.shape[0]
    for a in range(0, n - 1, _STEPS):
        b = min(a + _STEPS, n - 1)
        z = rows[a:b + 1, :nz]
        for zk, zn, kk, kf, m in zip(z, z[1:], k, flat, modes[a:b]):
            np.matmul(stage[m], zk, out=kf)
            np.add.reduce(kk, 0, None, s)
            s *= h6
            np.add(zk, s, out=zn)
        done = b - a
        if sys.dim > nz:
            done = _cascade_steps(sys, rows[a:b + 1], k[:b - a], h)
        peak = np.abs(rows[a + 1:a + 1 + done]).max(axis=1)
        out = np.flatnonzero(~(peak <= guard))  # NaN fails too
        if out.size:
            return a + 1 + int(out[0]), float(peak[out[0]])
        if done < b - a:
            return a + 1 + done, float("inf")
    return None


def _cascade_steps(sys, rows, k, h):
    """RK4 on the cascade [eta | u] in Python floats over the steps of one
    block, whose z is already in rows[:, :nz] and whose stage derivatives
    are k (stages 2 and 3 doubled).  Each stage reads z at that stage and
    u_hat from k, as the linear block's RK4 took them.  Returns how many
    steps it made: a Python OverflowError or ZeroDivisionError, where numpy
    gives inf, stops it."""
    nz, n_cols = sys.nz, len(sys.cols)
    zc = rows[:-1, sys.cols]
    x = np.empty((k.shape[0], 4, n_cols + len(sys.aug)))
    x[:, 0, :n_cols] = zc
    # z + (h/2) K_1, z + (h/2) K_2 and z + h K_3 with K_2, K_3 doubled
    x[:, 1:, :n_cols] = (zc[:, None]
                         + np.array([0.5 * h, 0.25 * h, 0.5 * h])[:, None]
                         * k[:, :3, sys.cols])
    x[:, :, n_cols:] = (k[:, :, sys.aug_u_hat]
                        * np.array([1.0, 0.5, 0.5, 1.0])[:, None])
    out = [None] * k.shape[0]
    try:
        sys.block(x.reshape(k.shape[0], -1).tolist(), rows[0, nz:].tolist(),
                  out)
    except (OverflowError, ZeroDivisionError):
        del out[out.index(None):]
    if out:
        rows[1:1 + len(out), nz:] = out
    return len(out)


_BLOCK = 1024  # recorded states per evaluation of a stacked table


def _map_rows(sys, name, rows, rts):
    """Map `name` ("alpha" or "beta") of the agents `rts` at every recorded
    state, in column rt.i of an (n, N) array that is zero elsewhere.
    Constant maps are filled in; the others are stacked into one table and
    evaluated _BLOCK states at a time."""
    out = np.zeros((rows.shape[0], sys.shape[0]))
    varying = []
    for rt in rts:
        constant = getattr(rt.agent, name).constant
        if constant is None:
            varying.append(rt)
        else:
            out[:, rt.i] = constant
    if varying:
        table = _stack(varying, name)
        cols = [rt.i for rt in varying]
        for a in range(0, rows.shape[0], _BLOCK):
            out[a:a + _BLOCK, cols] = table.at(rows[a:a + _BLOCK])
    return out


def _trajectory(sys, rows, times, modes, mode_path):
    """The Trajectory of the recorded states rows[k] (at times[k]), cut
    short of the grid when the run diverged.  Raises BetaNearZero at the
    earliest sample, and there at the lowest agent index, with |beta|
    below the floor."""
    n = rows.shape[0]
    n_ag, r = sys.shape
    betas = _map_rows(sys, "beta", rows, sys.rts)
    low = np.abs(betas) < settings.beta_floor
    if low.any():
        k = int(low.any(axis=1).argmax())
        rt = sys.rts[int(low[k].argmax())]
        raise BetaNearZero(
            f"beta = {betas[k, rt.i]:.3e} below floor "
            f"{settings.beta_floor:.1e} for agent {rt.agent.agent_id}",
            agent_id=rt.agent.agent_id, state=rows[k].copy())
    z = rows[:, :sys.nz]
    xi_hat = z[:, :n_ag * r].reshape(n, n_ag, r)
    # u starts as u_hat, entry u_idx[i] of Phi[mode] z (every mode at once)
    u = np.matmul(z, sys.Phi[:, sys.u_idx].transpose(0, 2, 1))[
        modes[:n], np.arange(n)]
    u -= _map_rows(sys, "alpha", rows,
                   [rt for rt in sys.rts if not rt.augmented])
    u /= betas
    u[:, [rt.i for rt in sys.aug]] = rows[:, sys.sl_u]
    return Trajectory(
        times=times[:n], y=xi_hat[:, :, 0], xi_hat=xi_hat,
        eta=[rows[:, rt.sl_eta] for rt in sys.rts], u=u,
        err=(xi_hat - z[:, n_ag * r:].reshape(n, n_ag, r)
             if sys.use_observer else None),
        mode=modes[:n].copy() if mode_path is not None else None,
        mode_path=mode_path, diverged=n < times.shape[0])


def _require_fixed(scen):
    if not isinstance(scen.topology, DiGraph):
        raise ValidationError("scenario topology is not a fixed graph")


def simulate_fixed(scen):
    """Simulate on the fixed graph with full-information feedback."""
    scen.validate()
    _require_fixed(scen)
    return _integrate(scen, [laplacian(scen.topology)], 0)


def simulate_with_observer(scen):
    """Simulate on the fixed graph with observer-based feedback.

    The cooperative input of every agent is computed from its observer
    estimate; the measurement theta = C xihat is taken from the true state.
    The scenario's ``observer_init`` picks the start of the estimates:
    "zero" at the origin, "match" at the true initial state.
    """
    scen.validate()
    _require_fixed(scen)
    if scen.observer is None:
        raise ValidationError("scenario has no observer section")
    return _integrate(scen, [laplacian(scen.topology)], 0, use_observer=True)


def simulate_switching(scen, allow_a4_violation=False, run_index=0):
    """Simulate under the Markov-switching topology.

    The mode path is sampled first (stream separate from the initial
    conditions), then the trajectory is integrated with the graph frozen
    over each step.  With a single mode this is bit-identical to
    :func:`simulate_fixed` on that mode's graph.
    """
    scen.validate()
    if not isinstance(scen.topology, MarkovTopology):
        raise ValidationError("scenario topology is not a switching topology")
    if scen.observer is not None:
        raise ValidationError("observer feedback is only supported on fixed graphs")
    mt = scen.topology
    if not allow_a4_violation and not check_A4(mt).passes:
        raise ValidationError(
            "union graph fails the spanning-tree/balance assumption "
            "(pass allow_a4_violation=True to simulate anyway)")
    times = _grid(scen)  # first: no path is sampled for a grid too long
    path = sample_path(mt, scen.t_end, scen.seed, run_index)
    # sample k runs in the interval holding t_k: count the ends at or before it
    ends = [t1 for _, _, t1 in path[:-1]]
    modes = np.array([m for m, _, _ in path])[
        np.searchsorted(ends, times, side="right")]
    return _integrate(scen, [laplacian(g) for g in mt.graphs], modes, path,
                      run_index)


def _max_pairwise_sq(xi_hat):
    n_ag = xi_hat.shape[1]
    best = np.zeros(xi_hat.shape[0])
    for i in range(n_ag):
        for j in range(i + 1, n_ag):
            d = xi_hat[:, i, :] - xi_hat[:, j, :]
            np.maximum(best, np.einsum("nk,nk->n", d, d), out=best)
    return best


def monte_carlo_ms(scen, runs):
    """Mean over runs of the worst squared pairwise chain disagreement.

    Run k draws its initial conditions and switching path from streams
    keyed by (seed, k), so the estimate is reproducible and independent of
    execution order.  Runs that hit the divergence guard are excluded and
    counted; a warning reports the exclusions.
    """
    if runs < 1:
        raise ValidationError("need at least one run")
    total = None
    times = None
    used = 0
    diverged = 0
    for k in range(runs):
        try:
            traj = simulate_switching(scen, run_index=k)
        except FiniteEscape:
            diverged += 1
            continue
        d = _max_pairwise_sq(traj.xi_hat)
        if total is None:
            total = d
            times = traj.times
        else:
            total += d
        used += 1
    if used == 0:
        raise FiniteEscape(f"all {runs} Monte Carlo runs diverged")
    if diverged:
        warnings.warn(f"{diverged} of {runs} Monte Carlo runs diverged "
                      "and were excluded")
    return MonteCarloResult(times=times, mean_square=total / used,
                            runs_used=used, runs_diverged=diverged)
