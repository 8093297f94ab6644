"""Closed-loop simulation.

Every agent's local controller (synthesis.local_controller) lifts its
chain xi to the target's degree, and the stacked chain and controller
state xihat_i = (xi_i, phi_i) obeys the target's (A, B) exactly.  So the
whole group moves by one linear system,

    xihat' = (I (x) A - L (x) B K) xihat,

its feedback xihat itself or the observer estimates xcheck of it,

    xcheck_i' = A xcheck_i + B v_i + M_o C (xihat_i - xcheck_i),

M_o being the observer's injection gain.  So for each graph mode m the
vector z = [xihat; xcheck] (agent-major, N r entries each; xcheck only
with an observer) moves by one fixed matrix, z' = Phi[m] z, built from
the target, the gain, the observer and the mode's Laplacian alone
(_mode_matrices).  RK4 on z is then linear too: with the stage matrices
K_s = Phi T_s (T_1 = I, T_2 = I + (h/2) K_1, T_3 = I + (h/2) K_2, T_4 = I
+ h K_3) a step is z -> S[m] z, S = I + (h/6) (((K_1 + 2 K_2) + 2 K_3) +
K_4), so z_{a+j} = S[m]^j z_a between mode jumps.  Every agent is carried
as its chain xi, which the linearizing input u = (u_hat - alpha) / beta
makes exact; agent 3, stated in other coordinates, enters through its map
xi_of.

What is not linear is eta' = theta(xi, eta) and the physical input of
augmented agents, u' = (u_hat - alpha) / beta: a cascade driven by z that
never feeds back into it.  Its term tables are written out as the source
of one function that runs RK4 on it over many steps in Python floats
(_System._compile_cascade).  The source reads every coefficient as an
argument but those that are exactly +-1, each such term being its bare
product added or subtracted, which IEEE makes exact (TermTable._source).
So its code is compiled once per shape of cascade and set of unit
coefficients (agents._code).  Its inputs at each
step, z at the columns the tables read at each stage state T_s z and
u_hat (entry i r + r_i - 1 of K_s z) of each augmented agent, are the
product z @ G[m] (_step_matrices).  The flat state is [z | eta | d], d = u
- xi_last per augmented agent: xi_last, its last chain state, has the
derivative u_hat, so d' = (u_hat - alpha) / beta - u_hat, and u = xi_last
+ d keeps the rounding of z (d stays 0 if alpha = 0, beta = 1 and u0 =
xi_last(0)).  After the run the trajectory turns d into u, u(0) = u0
exactly, and evaluates beta of every agent and alpha of the agents that
are not augmented over the recorded states, 1,024 at a time, by the same
expressions run on numpy columns (TermTable.at); like theta, each is one
stacked table.

Plan and run.  All of the above depends on the scenario and the kind of
feedback, not on the run: it is the plan (_System), which holds the
layout, Phi, the stacked tables and the compiled cascade, S, G and the
powers S[m]^1 .. S[m]^B, B taken from the size of z so that the powers of
all modes fit in 512 KB (_powers, by doubling).  A scenario object keeps
one plan per feedback kind, built by its first simulation (_plan), so the
runs of a Monte Carlo share one.  A scenario is checked once, when built,
and frozen throughout (tuples, read-only arrays), so no plan disagrees with
its scenario; dataclasses.replace makes and checks a new one, which builds
its own plan.  The plan holds no reference to its scenario, so a scenario
is freed as soon as it is dropped.  A run holds the initial state, the
mode path and two passes over them (_run).  The linear pass goes in
segments of at most B steps under one mode: the z of a segment is one
product with the powers of its S, and its cascade inputs one product
with its G.  The cascade goes in chunks of whole consecutive
segments of at most 256 steps: one call of the compiled function, its
inputs read as per-step tuples off a flat memoryview of the chunk's input
matrix, its steps appended to one list and converted back at once, and one
guard check per chunk.

Every run follows a mode schedule: a fixed graph is the one-mode schedule
[L] with mode 0 throughout; under switching each sample looks its mode up
in the sampled path, so a jump takes effect at the first step boundary at
or after the jump time and the graph is frozen over each step.

Each sample is one row of a state matrix, whose size is checked against a
fixed limit before anything is allocated (_grid), and the Trajectory is
built from those rows once, after the loop (_trajectory): its y, xi_hat
and eta are views of them, and u is derived a block of states at a time,
so a run's memory peaks near its record plus u (plus the observer error,
with an observer).  Two runtime guards: |beta| is checked against the
floor 1e-9 (agents._BETA_FLOOR) after the run, block by block over the
recorded states, before a FiniteEscape is raised (BetaNearZero), and any
state leaving the max-norm ball of radius 1e6 (_FINITE_ESCAPE_NORM)
aborts the run with FiniteEscape at the first step whose z or cascade is
outside it, carrying the trajectory recorded up to the step before.  The
cascade's products and sums overflow to inf as numpy's do; a Python
ZeroDivisionError there (a beta of 0, where numpy gives inf) counts as
leaving the ball.

Reproducibility: trajectories are a pure function of (scenario, seed, run
index).  Random initial conditions and switching paths are drawn from
separate keyed streams, so a one-mode switching run is bit-identical to the
corresponding fixed-topology run.
"""

import itertools
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .agents import (
    _BETA_FLOOR,
    AUGMENTED_GENERAL,
    NormalFormAgent,
    TermTable,
    _function,
)
from .errors import BetaNearZero, FiniteEscape, ValidationError
from .graph import DiGraph, laplacian
from .rng import STREAM_INIT, check_seed, is_integer, rng_for
from .switching import MarkovTopology, check_A4, sample_path
from .synthesis import CompanionSystem, ConsensusGain, ObserverGain

__all__ = [
    "SimScenario", "Trajectory", "MonteCarloResult", "simulate_fixed",
    "simulate_switching", "simulate_with_observer", "monte_carlo_ms",
]


@dataclass(frozen=True)
class SimScenario:
    """A closed-loop design and its run settings, checked once, when built."""

    agents: Tuple[NormalFormAgent, ...]
    cs: CompanionSystem
    gain: ConsensusGain
    topology: Union[DiGraph, MarkovTopology]
    observer: Optional[ObserverGain] = None
    t_end: float = 10.0
    dt: float = 1e-3
    seed: int = 0
    init: str = "explicit"
    observer_init: str = "zero"
    output: Optional[dict] = None
    # the plan of its simulations per feedback kind (_plan)
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise ValidationError("scenario has no agents")
        if self.topology.n != len(self.agents):
            raise ValidationError(
                f"{len(self.agents)} agents on a {self.topology.n}-node topology")
        for k, ag in enumerate(self.agents):
            if ag.r > self.cs.r:
                raise ValidationError(
                    f"agent {ag.agent_id} degree {ag.r} exceeds target "
                    f"{self.cs.r}", field=f"agents[{k}]")
        if self.gain.K.shape != (self.cs.r,):
            raise ValidationError("gain dimension does not match the target")
        if self.observer is not None and self.observer.C.shape != (self.cs.r,):
            raise ValidationError("observer row dimension does not match")
        if not self.dt > 0:  # NaN fails here, an infinite dt the next test
            raise ValidationError("dt must be positive", field="sim.dt")
        if not self.dt <= self.t_end < np.inf:
            raise ValidationError("t_end must be finite and cover at least "
                                  "one step", field="sim.t_end")
        check_seed(self.seed, "sim.seed")
        if self.init not in ("explicit", "random"):
            raise ValidationError("init must be 'explicit' or 'random'",
                                  field="sim.init")
        if self.observer_init not in ("zero", "match"):
            raise ValidationError("init must be 'zero' or 'match'",
                                  field="observer.init")


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


def _mode_matrices(scen, laps, use_observer):
    """One matrix Phi[m] per mode with z' = Phi[m] z on the linear block.

    Full information: Phi = I (x) A - C with C[(i, a), (j, c)] = B[a]
    L[i, j] K[c], the cooperative input v = -(L xihat) K entering every
    agent through B.  With an observer, z = [xihat; xcheck], v is fed back
    from xcheck and

        Phi = [[I (x) A,     -C],
               [I (x) M_o C, I (x) (A - M_o C) - L (x) B K]].
    """
    cs, K, r = scen.cs, scen.gain.K, scen.cs.r
    n = laps[0].shape[0]
    diag = np.zeros((n, r, n, r))  # block (i, i) is A
    diag[np.arange(n), :, np.arange(n), :] = cs.A
    diag = diag.reshape(n * r, n * r)
    if use_observer:
        inj = np.outer(scen.observer.M, scen.observer.C)
        eye = np.eye(n)
    phis = []
    for lap in laps:
        coupling = np.einsum("a,ij,c->iajc", cs.B, lap, K).reshape(n * r, n * r)
        if not use_observer:
            phis.append(diag - coupling)
            continue
        phis.append(np.block([
            [diag, -coupling],
            [np.kron(eye, inj),
             np.kron(eye, cs.A - inj) - np.kron(lap, np.outer(cs.B, K))]]))
    return np.array(phis)


def _layout(agents, r, use_observer):
    """The flat state [z | eta | u]: z = [xihat; xcheck] is n r wide (the
    xcheck half only with an observer), then the eta of every agent, then
    u of each augmented agent.  Returns the bounds of z and each eta, the
    indices of the augmented agents and the state's width."""
    ends = np.cumsum([len(agents) * r * (1 + use_observer)]
                     + [ag.n_eta for ag in agents]).tolist()
    aug = [i for i, ag in enumerate(agents) if ag.kind == AUGMENTED_GENERAL]
    return ends, aug, ends[-1] + len(aug)


class _System:
    """The plan of one scenario's simulations under one kind of feedback:
    everything a run needs that does not depend on the run (see the module
    docstring).  It reads the scenario while it is built and keeps no
    reference to it."""

    def __init__(self, scen, use_observer):
        agents, r = scen.agents, scen.cs.r
        self.shape = (len(agents), r)
        self.Phi = _mode_matrices(
            scen, [laplacian(g) for g in scen.topology.graphs], use_observer)
        self.use_observer = use_observer
        ends, self.aug, self.dim = _layout(agents, r, use_observer)
        self.nz = ends[0]
        self.sl_xi = [slice(i * r, i * r + ag.r) for i, ag in enumerate(agents)]
        self.sl_eta = [slice(a, b) for a, b in zip(ends, ends[1:])]
        every = range(len(agents))
        self.plain = [i for i in every if i not in self.aug]
        self.sl_u = slice(ends[-1], self.dim)
        self.u_idx = np.array([sl.stop - 1 for sl in self.sl_xi])
        self.aug_u_hat = self.u_idx[self.aug]
        self.u0 = np.array([agents[i].u0 for i in self.aug])
        places = [np.r_[a, b] for a, b in zip(self.sl_xi, self.sl_eta)]

        def stack(name, which):
            # map `name` of the agents `which` as one table over the state
            return TermTable.stack([getattr(agents[i], name) for i in which],
                                   [places[i] for i in which])

        # the cascade's maps, and those _trajectory evaluates over the
        # recorded states
        self.tables = (stack("theta", every), stack("alpha", self.aug),
                       stack("beta", self.aug))
        self.alpha, self.beta = stack("alpha", self.plain), stack("beta", every)
        self.cols = sorted({int(j) for table in self.tables
                            for j in table.variables if j < self.nz})
        self.block = (self._compile_cascade(scen.dt)
                      if self.dim > self.nz else None)
        self.S, self.G = _step_matrices(self, scen.dt)
        # B steps at most, and no more than the run has
        size = max(1, min(_STEPS, _POWERS_BYTES // self.S.nbytes))
        self.powers = _powers(self.S, int(min(size, _steps(scen))))
        # u_hat of every agent is z @ u_rows[mode]
        self.u_rows = self.Phi[:, self.u_idx].transpose(0, 2, 1)

    def derivative_source(self, inputs, state, coefs, squares):
        """The derivative of the cascade [eta | u] as Python expressions:
        theta of every agent, then u' = (u_hat - alpha) / beta of each
        augmented agent.  z at `cols`, then u_hat of each augmented agent,
        are the names `inputs`, and [eta | u] the names `state`; the
        coefficients go to `coefs` and the lines that make the squares the
        rows read to `squares`, as in TermTable._source."""
        names = dict(zip(self.cols, inputs))
        names.update(zip(range(self.nz, self.dim), state))
        theta, alpha, beta = (t._source(names, coefs, squares)
                              for t in self.tables)
        return theta + [f"({u} - ({a})) / ({b})" for u, a, b in
                        zip(inputs[len(self.cols):], alpha, beta)]

    def _compile_cascade(self, h):
        """The cascade [eta | d] as one function block(x, y, out) that makes
        RK4 steps of length h in Python floats, in local names only; d' is
        the derivative_source row of u' less u_hat (see the module
        docstring).

        x is an iterable of per-step tuples: tuple i holds the inputs of
        step i, stage after stage, z at `cols`, then u_hat of each augmented
        agent (an empty tuple when the cascade reads none).  From the state y,
        block appends the state after each step to the flat list out.  Each
        stage is written out in full: stages 2, 3 and 4 read the states
        y + (h/2) k_1, y + (h/2) k_2 and y + h k_3, each stage first makes
        the squares its rows read, and the step is y + (h/6) (((k_1 + 2 k_2)
        + 2 k_3) + k_4).  The source holds no float and no power;
        the coefficients, h/2, h, h/6 and 2.0 are default arguments, so one
        code object serves every cascade of its shape whose coefficients
        are +-1 at the same terms (those terms read none, as
        TermTable._source writes them).
        """
        n_aug, n = len(self.aug), self.dim - self.nz
        n_in = len(self.cols) + n_aug
        y, w = ([f"{a}{q}" for q in range(n)] for a in "yw")
        x = [[f"x{s}_{i}" for i in range(n_in)] for s in range(1, 5)]
        body, coefs = [], []
        for s, step in enumerate((None, "h2", "h2", "h"), 1):
            if step:
                body += [f"{w[q]} = {y[q]} + {step} * k{s - 1}_{q}"
                         for q in range(n)]
            squares = {}
            # every stage appends the same coefficients: keep the first
            rows = self.derivative_source(x[s - 1], w if step else y,
                                          coefs if s == 1 else [], squares)
            for q, u_hat in enumerate(x[s - 1][n_in - n_aug:], n - n_aug):
                rows[q] += f" - {u_hat}"
            body += squares.values()
            body += [f"k{s}_{q} = {row}" for q, row in enumerate(rows)]
        body += [f"{y[q]} = {y[q]} + h6 * (((k1_{q} + two * k2_{q}) "
                 f"+ two * k3_{q}) + k4_{q})" for q in range(n)]
        body += [f"out += ({', '.join(y)},)"]
        target = ", ".join(sum(x, [])) + "," if n_in else "_"
        source = "\n".join(
            ["def block(x, y, out, c, h2, h, h6, two):",
             f"    {', '.join(f'c{t}' for t in range(len(coefs)))}, = c",
             f"    {', '.join(y)}, = y",
             f"    for {target} in x:"]
            + ["        " + line for line in body]) + "\n"
        return _function(source, (tuple(coefs), 0.5 * h, h, h / 6.0, 2.0))

    def initial_state(self, scen, run_index):
        rng = (rng_for(scen.seed, run_index, STREAM_INIT)
               if scen.init == "random" else None)
        state = np.zeros(self.dim)
        for ag, sl_xi, sl_eta in zip(scen.agents, self.sl_xi, self.sl_eta):
            if rng is None:
                state[sl_xi] = ag.xi0
                state[sl_eta] = ag.eta0
            elif ag.native is not None:
                # drawn in the coordinates the agent is stated in
                state[sl_xi] = ag.native.xi_of(
                    rng.uniform(-1.0, 1.0, ag.native.dim))
            else:
                state[sl_xi] = rng.uniform(-1.0, 1.0, ag.r)
                if ag.n_eta:
                    state[sl_eta] = rng.uniform(-1.0, 1.0, ag.n_eta)
        state[self.sl_u] = self.u0 - state[self.aug_u_hat]
        if self.use_observer and scen.observer_init == "match":
            # controller states start at zero, so xihat is the true chain
            n_r = self.nz // 2
            state[n_r:self.nz] = state[:n_r]
        return state


_ROWS_BYTES = 1 << 30      # the largest state record a run may allocate
_POWERS_BYTES = 1 << 19    # the step-matrix powers of a plan, all modes
_STEPS = 256               # the longest chunk: bounds the cascade inputs
_FINITE_ESCAPE_NORM = 1e6  # the max-norm radius of the guard ball


def _plan(scen, use_observer):
    """The plan of scen's simulations with this feedback: built by the
    first and kept on scen for the others."""
    plan = scen._plans.get(use_observer)
    if plan is None:
        plan = scen._plans[use_observer] = _System(scen, use_observer)
    return plan


def _steps(scen):
    """t_end / dt, the number of steps of a run, as a float."""
    return np.rint(scen.t_end / scen.dt)


def _grid(scen, use_observer=False):
    """The time grid, once the run's state rows are known to fit."""
    dim = _layout(scen.agents, scen.cs.r, use_observer)[2]
    samples = _steps(scen) + 1.0
    size = samples * dim * 8.0
    if not size <= _ROWS_BYTES:
        raise ValidationError(
            f"t_end / dt = {samples - 1.0:.3g} steps of {dim} states take "
            f"{size:.4g} bytes, over the limit of {_ROWS_BYTES}",
            field="sim.t_end")
    return np.arange(int(samples)) * scen.dt


def _step_matrices(sys, h):
    """S[m] and G[m] of the module docstring for every mode m."""
    eye = np.eye(sys.nz)
    t, k = [np.broadcast_to(eye, sys.Phi.shape)], [sys.Phi]
    for w in (0.5 * h, 0.5 * h, h):
        t.append(eye + w * k[-1])
        k.append(sys.Phi @ t[-1])
    step = eye + (h / 6.0) * (((k[0] + 2.0 * k[1]) + 2.0 * k[2]) + k[3])
    g = np.concatenate([np.concatenate((ts[:, sys.cols], ks[:, sys.aug_u_hat]),
                                       axis=1) for ts, ks in zip(t, k)], axis=1)
    return step, np.ascontiguousarray(g.transpose(0, 2, 1))


def _powers(step, count):
    """P[m, j] = step[m] ** (j + 1) for j < count, by doubling."""
    p = np.empty((step.shape[0], count) + step.shape[1:])
    p[:, 0] = step
    for k in (1 << i for i in range((count - 1).bit_length())):
        np.matmul(p[:, k - 1:k], p[:, :min(k, count - k)], out=p[:, k:2 * k])
    return p


def _integrate(scen, modes, mode_path=None, run_index=0, use_observer=False):
    """RK4 over the mode schedule: sample k and the step after it use the
    graph of mode ``modes[k]`` of the scenario's topology.  ``modes`` is
    one index per sample, or 0 for the one-mode schedule of a fixed graph;
    the modes are reported only with a ``mode_path``."""
    times = _grid(scen, use_observer)
    modes = np.broadcast_to(modes, times.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        # a stiff design's step matrices overflow, and past an escape a
        # chunk runs on to its end: the guard reads both
        plan = _plan(scen, use_observer)
        rows = np.empty((times.shape[0], plan.dim))  # the state at times[k]
        rows[0] = plan.initial_state(scen, run_index)
        escape = _run(plan, rows, modes)
    if escape is not None:
        k, peak = escape
        traj = _trajectory(plan, scen, rows[:k], times, modes, mode_path)
        raise FiniteEscape(
            f"state norm {peak:.3e} left the guard ball at t = "
            f"{times[k]:.6g}", trajectory=traj, t=float(times[k]))
    return _trajectory(plan, scen, rows, times, modes, mode_path)


def _chunks(modes, size):
    """The steps of a run as segments (a, b) of at most `size` steps under
    one mode, cut at every mode jump, grouped into chunks: lists of whole
    consecutive segments of at most _STEPS steps in all."""
    cuts = [0, *(np.flatnonzero(np.diff(modes[:-1])) + 1).tolist(),
            modes.shape[0] - 1]
    chunks = []
    for start, end in zip(cuts, cuts[1:]):
        for a in range(start, end, size):
            segment = (a, min(a + size, end))
            if chunks and segment[1] - chunks[-1][0][0] <= _STEPS:
                chunks[-1].append(segment)
            else:
                chunks.append([segment])
    return chunks


def _run(plan, rows, modes):
    """Fill rows[1:] from rows[0] chunk by chunk: z segment by segment, by
    one product with the powers of S, and the cascade inputs by one
    product with G; then the cascade [eta | d] over the whole chunk.
    Returns (k, peak) for the first sample k outside the guard ball, or
    None."""
    nz, powers, g = plan.nz, plan.powers, plan.G
    guard = _FINITE_ESCAPE_NORM
    for chunk in _chunks(modes, powers.shape[1]):
        a0, b0 = chunk[0][0], chunk[-1][1]
        inputs = np.empty((b0 - a0, g.shape[2]))
        for a, b in chunk:
            np.matmul(powers[modes[a], :b - a], rows[a, :nz],
                      out=rows[a + 1:b + 1, :nz])
            np.matmul(rows[a:b, :nz], g[modes[a]], out=inputs[a - a0:b - a0])
        done = b0 - a0
        if plan.block is not None:
            done = _cascade_steps(plan, rows[a0:b0 + 1], inputs)
        peak = np.abs(rows[a0 + 1:a0 + 1 + done]).max(axis=1)
        out = np.flatnonzero(~(peak <= guard))  # NaN fails too
        if out.size:
            return a0 + 1 + int(out[0]), float(peak[out[0]])
        if done < b0 - a0:
            return a0 + 1 + done, float("inf")
    return None


def _cascade_steps(plan, rows, inputs):
    """RK4 on the cascade [eta | d] over the steps of one chunk, whose z
    is in rows[:, :nz], from the inputs of its steps, a row each, handed
    to the block as one tuple per step read off a flat memoryview of them
    (empty tuples, one per step, when the cascade reads no input).
    Returns how many steps it made: a Python ZeroDivisionError, where
    numpy gives inf, stops it."""
    steps, width = inputs.shape
    flat = iter(memoryview(inputs.reshape(-1)))
    x = zip(*[flat] * width) if width else itertools.repeat((), steps)
    out = []
    try:
        plan.block(x, rows[0, plan.nz:].tolist(), out)
    except ZeroDivisionError:
        pass  # out holds the steps made before it, each one whole
    done = len(out) // (plan.dim - plan.nz)
    if done:
        flat = np.fromiter(out, float, len(out))
        rows[1:1 + done, plan.nz:] = flat.reshape(done, -1)
    return done


_BLOCK = 1024  # recorded states per block of _trajectory


def _trajectory(plan, scen, rows, times, modes, mode_path):
    """The Trajectory of the recorded states rows[k] (at times[k]), cut
    short of the grid when the run diverged.  u is derived one block of
    _BLOCK states at a time into one (n, N) array: the block's u = xi_last
    + d of the augmented agents, its beta of every agent, then its u_hat,
    alpha and u = (u_hat - alpha) / beta of the others.  So no temporary
    outgrows a block.  Raises BetaNearZero from the first block with
    |beta| below the floor, at its earliest such sample and there at the
    lowest agent index."""
    n = rows.shape[0]
    n_ag, r = plan.shape
    u = np.empty((n, n_ag))
    # a lone last state joins the block before it: numpy multiplies a
    # single row through gemv, whose sums round unlike gemm's
    starts = range(0, max(n - 1, 1), _BLOCK)
    for a, b in zip(starts, [*starts[1:], n]):
        blk, ub = rows[a:b], u[a:b]
        blk[:, plan.sl_u] += blk[:, plan.aug_u_hat]  # u = xi_last + d
        if a == 0:
            blk[0, plan.sl_u] = plan.u0  # exactly, whatever that sum rounds to
        beta = plan.beta.at(blk)
        low = np.abs(beta) < _BETA_FLOOR
        if low.any():
            k = int(low.any(axis=1).argmax())
            i = int(low[k].argmax())
            agent_id = scen.agents[i].agent_id
            raise BetaNearZero(
                f"beta = {beta[k, i]:.3e} below floor "
                f"{_BETA_FLOOR:.1e} for agent {agent_id}",
                agent_id=agent_id, state=blk[k].copy())
        # u starts as u_hat (every mode at once)
        ub[:] = np.matmul(blk[:, :plan.nz], plan.u_rows)[
            modes[a:b], np.arange(b - a)]
        alpha = plan.alpha.at(blk)
        for k, i in enumerate(plan.plain):  # in place: ub[:, plain] would copy
            ub[:, i] -= alpha[:, k]
        ub /= beta
        ub[:, plan.aug] = blk[:, plan.sl_u]
    z = rows[:, :plan.nz]
    xi_hat = z[:, :n_ag * r].reshape(n, n_ag, r)
    return Trajectory(
        times=times[:n], y=xi_hat[:, :, 0], xi_hat=xi_hat,
        eta=[rows[:, sl] for sl in plan.sl_eta], u=u,
        err=(xi_hat - z[:, n_ag * r:].reshape(n, n_ag, r)
             if plan.use_observer else None),
        mode=modes[:n].copy() if mode_path is not None else None,
        mode_path=mode_path, diverged=n < times.shape[0])


def _require_fixed(scen):
    if not isinstance(scen.topology, DiGraph):
        raise ValidationError("scenario topology is not a fixed graph",
                              field="switching")


def simulate_fixed(scen):
    """Simulate on the fixed graph with full-information feedback."""
    _require_fixed(scen)
    return _integrate(scen, 0)


def simulate_with_observer(scen):
    """Simulate on the fixed graph with observer-based feedback.

    The cooperative input of every agent is computed from its observer
    estimate; the measurement theta = C xihat is taken from the true state.
    The scenario's ``observer_init`` picks the start of the estimates:
    "zero" at the origin, "match" at the true initial state.
    """
    _require_fixed(scen)
    if scen.observer is None:
        raise ValidationError("scenario has no observer section",
                              field="observer")
    return _integrate(scen, 0, use_observer=True)


def simulate_switching(scen, allow_a4_violation=False, run_index=0):
    """Simulate under the Markov-switching topology.

    The mode path is sampled first (stream separate from the initial
    conditions), then the trajectory is integrated with the graph frozen
    over each step.  With a single mode this is bit-identical to
    :func:`simulate_fixed` on that mode's graph.  A scenario with an
    observer runs its observer-based feedback, as
    :func:`simulate_with_observer` does on a fixed graph: the observer
    error obeys e' = (A - M_o C) e in every mode.
    """
    if not isinstance(scen.topology, MarkovTopology):
        raise ValidationError("scenario topology is not a switching topology",
                              field="graph")
    mt = scen.topology
    if not allow_a4_violation:
        check_A4(mt).require()
    use_observer = scen.observer is not None
    # first: no path is sampled for a run too long
    times = _grid(scen, use_observer)
    path = sample_path(mt, scen.t_end, scen.seed, run_index)
    # sample k runs in the interval holding t_k: count the ends at or before it
    ends = [t1 for _, _, t1 in path[:-1]]
    modes = np.array([m for m, _, _ in path])[
        np.searchsorted(ends, times, side="right")]
    return _integrate(scen, modes, path, run_index, use_observer)


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
    if not is_integer(runs):
        raise ValidationError(f"runs must be an integer, got {runs!r}",
                              field="runs")
    if runs < 1:
        raise ValidationError("need at least one run", field="runs")
    total = times = None
    used = diverged = 0
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
