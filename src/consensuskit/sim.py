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
observer gain (see _mode_matrices).  Each RK4 stage makes the one product
Phi[mode] @ z and reads everything linear off it: the chain, controller
and observer derivatives, and the new chain input of agent i, u_hat_i =
entry i r + r_i - 1.

Every agent, agent 3 included, is carried as its chain xi: under the
linearizing input u = (u_hat - alpha) / beta the chain is exact, so no
agent is integrated in its original coordinates.  An agent stated in them
(builtin agent 3) enters through its map xi_of: a random start draws x and
maps it, and an explicit x0 is mapped by with_initial.  Its u is evaluated
from alpha and beta in chain form, only to record it.  What stays per
agent is what is not linear: the internal dynamics eta' = theta(xi, eta),
the integrated physical input of augmented agents (u' = w), and the beta
guard.  The flat state is [z | nonlinear block]:

* z itself, so the linear block is state[:len(z)];
* the nonlinear block: per agent eta and, for an augmented agent, u.

Every run follows a mode schedule: a fixed graph is the one-mode schedule
[L] with mode 0 throughout; under switching each sample looks its mode up
in the sampled path, so a jump takes effect at the first step boundary at
or after the jump time and the graph is frozen over each step.

Two runtime guards: |beta| is checked against the configured floor at every
recorded state (BetaNearZero), and any state leaving the max-norm ball of
radius ``settings.finite_escape_norm`` aborts the run with FiniteEscape,
which carries the trajectory recorded up to the abort time.

Reproducibility: trajectories are a pure function of (scenario, seed, run
index).  Random initial conditions and switching paths are drawn from
separate keyed streams, so a one-mode switching run is bit-identical to the
corresponding fixed-topology run.
"""

import warnings
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .agents import AUGMENTED_GENERAL, NormalFormAgent
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
        if not (self.t_end >= self.dt):
            raise ValidationError("t_end must be at least one step")
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

    __slots__ = ("i", "agent", "augmented", "sl_xi", "sl_eta", "i_u")

    def __init__(self, i, agent, r):
        self.i = i
        self.agent = agent
        self.augmented = agent.kind == AUGMENTED_GENERAL
        self.sl_xi = slice(i * r, i * r + agent.r)  # the chain, inside z


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
            if rt.augmented:
                rt.i_u = pos
                pos += 1
        self.dim = pos
        self.nonlinear = [rt for rt in self.rts
                          if rt.augmented or rt.agent.n_eta]
        self.u_idx = np.array([rt.sl_xi.stop - 1 for rt in self.rts])
        self.u_hat = None

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
            if rt.augmented:
                state[rt.i_u] = ag.u0
        if self.use_observer and scen.observer_init == "match":
            # controller states start at zero, so xihat is the true chain
            n_r = self.nz // 2
            state[n_r:self.nz] = state[:n_r]
        return state

    def deriv(self, state, mode, out):
        """Stacked derivative into `out`; leaves u_hat behind."""
        dz = np.matmul(self.Phi[mode], state[:self.nz], out=out[:self.nz])
        self.u_hat = u_hat = dz.take(self.u_idx)
        for rt in self.nonlinear:
            ag = rt.agent
            xi, eta = state[rt.sl_xi], state[rt.sl_eta]
            if ag.n_eta:
                out[rt.sl_eta] = ag.theta(xi, eta)
            if rt.augmented:
                out[rt.i_u] = ((u_hat[rt.i] - ag.alpha(xi, eta))
                               / ag.beta(xi, eta))


class _Record:
    def __init__(self, sys, n_samples):
        n_ag, r = sys.shape
        self.y = np.zeros((n_samples, n_ag))
        self.xi_hat = np.zeros((n_samples, n_ag, r))
        self.eta = [np.zeros((n_samples, rt.agent.n_eta)) for rt in sys.rts]
        self.u = np.zeros((n_samples, n_ag))
        self.err = (np.zeros((n_samples, n_ag, r))
                    if sys.use_observer else None)

    def to_trajectory(self, times, upto, modes, mode_path, diverged):
        sl = slice(0, upto)
        return Trajectory(
            times=times[sl], y=self.y[sl], xi_hat=self.xi_hat[sl],
            eta=[e[sl] for e in self.eta], u=self.u[sl],
            err=self.err[sl] if self.err is not None else None,
            mode=modes[sl].copy() if mode_path is not None else None,
            mode_path=mode_path, diverged=diverged)


def _grid(scen):
    return np.arange(int(round(scen.t_end / scen.dt)) + 1) * scen.dt


def _integrate(scen, laps, modes, mode_path=None, run_index=0,
               use_observer=False):
    """RK4 over the mode schedule: sample k and the step after it use the
    graph ``laps[modes[k]]``.  ``modes`` is one index per sample, or 0 for
    the one-mode schedule of a fixed graph; the modes are reported only
    with a ``mode_path``."""
    sys = _System(scen, laps, use_observer)
    dt = scen.dt
    times = _grid(scen)
    modes = np.broadcast_to(modes, times.shape)
    n_steps = times.shape[0] - 1
    rec = _Record(sys, n_steps + 1)

    state = sys.initial_state(run_index)
    k1 = np.zeros(sys.dim)
    k2 = np.zeros(sys.dim)
    k3 = np.zeros(sys.dim)
    k4 = np.zeros(sys.dim)

    guard = settings.finite_escape_norm
    for k in range(n_steps + 1):
        mode = modes[k]
        sys.deriv(state, mode, k1)
        _record_row(sys, rec, k, state)
        if k == n_steps:
            break
        sys.deriv(state + (0.5 * dt) * k1, mode, k2)
        sys.deriv(state + (0.5 * dt) * k2, mode, k3)
        sys.deriv(state + dt * k3, mode, k4)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        peak = float(np.abs(state).max())
        if not np.isfinite(peak) or peak > guard:
            traj = rec.to_trajectory(times, k + 1, modes, mode_path, True)
            raise FiniteEscape(
                f"state norm {peak:.3e} left the guard ball at t = "
                f"{times[k + 1]:.6g}", trajectory=traj, t=float(times[k + 1]))
    return rec.to_trajectory(times, n_steps + 1, modes, mode_path, False)


def _record_row(sys, rec, k, state):
    """Record one sample; deriv() has just been evaluated at `state`."""
    n_ag, r = sys.shape
    xhat = state[:n_ag * r].reshape(n_ag, r)
    rec.y[k] = xhat[:, 0]
    rec.xi_hat[k] = xhat
    if sys.use_observer:
        rec.err[k] = xhat - state[n_ag * r:sys.nz].reshape(n_ag, r)
    for rt in sys.rts:
        ag = rt.agent
        xi, eta = state[rt.sl_xi], state[rt.sl_eta]
        rec.eta[rt.i][k] = eta
        beta = ag.beta(xi, eta)
        _guard_beta(beta, rt, state)
        if rt.augmented:
            rec.u[k, rt.i] = state[rt.i_u]
        else:
            rec.u[k, rt.i] = (sys.u_hat[rt.i] - ag.alpha(xi, eta)) / beta


def _guard_beta(beta, rt, state):
    if abs(beta) < settings.beta_floor:
        raise BetaNearZero(
            f"beta = {beta:.3e} below floor {settings.beta_floor:.1e} "
            f"for agent {rt.agent.agent_id}",
            agent_id=rt.agent.agent_id, state=state.copy())


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
    path = sample_path(mt, scen.t_end, scen.seed, run_index)
    # sample k runs in the interval holding t_k: count the ends at or before it
    ends = [t1 for _, _, t1 in path[:-1]]
    modes = np.array([m for m, _, _ in path])[
        np.searchsorted(ends, _grid(scen), side="right")]
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
