from dataclasses import replace

import linecache
import re
import struct
import traceback

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import consensuskit as ck
from consensuskit.agents import NormalFormAgent, TermTable, augment, builtin
from consensuskit.graph import directed_cycle, empty_graph
from consensuskit.scenario import parse_scenario
from consensuskit import sim
from consensuskit.sim import (
    build_scenario, monte_carlo_ms, simulate_fixed, simulate_switching,
    simulate_with_observer,
)
from consensuskit.switching import MarkovTopology, default_switching_pair

FLIP_FLOP = np.array([[-1.0, 1.0], [1.0, -1.0]])
ZERO = TermTable([[]], scalar=True)
ONE = TermTable([[(1.0, ())]], scalar=True)
XI_1 = TermTable([[(1.0, (1,))]], scalar=True)  # beta = xi_1
NO_INTERNAL = TermTable([])


def _chain_agent(agent_id, r, xi0):
    """Linear full-information chain of degree r (alpha = 0, beta = 1)."""
    return NormalFormAgent(
        agent_id=agent_id, r=r, n_eta=0,
        alpha=ZERO, beta=ONE, theta=NO_INTERNAL,
        xi0=np.asarray(xi0, dtype=float), eta0=np.empty(0))


def _five_agent_scenario(target, unit_gain, five_agents, five_cycle, **kwargs):
    return build_scenario(five_agents, target, unit_gain, five_cycle, **kwargs)


def _switching_scenario(target, unit_gain, five_agents, **kwargs):
    g1, g2 = default_switching_pair(5)
    mt = MarkovTopology(graphs=[g1, g2], generator=FLIP_FLOP)
    return build_scenario(five_agents, target, unit_gain, mt, **kwargs)


def test_time_grid_and_shapes(target, unit_gain, five_agents, five_cycle):
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                t_end=0.5, dt=0.01, init="random", seed=3)
    traj = simulate_fixed(scen)
    assert traj.times.shape == (51,)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.5)
    assert traj.y.shape == (51, 5)
    assert traj.xi_hat.shape == (51, 5, 3)
    assert traj.u.shape == (51, 5)
    assert len(traj.eta) == 5
    for i, ag in enumerate(five_agents):
        assert traj.eta[i].shape == (51, ag.n_eta)
    assert np.array_equal(traj.y, traj.xi_hat[:, :, 0])
    assert traj.err is None
    assert traj.mode is None
    assert not traj.diverged


def test_fixed_run_is_deterministic(target, unit_gain, five_agents, five_cycle):
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                t_end=1.0, dt=0.005, init="random", seed=9)
    t1 = simulate_fixed(scen)
    t2 = simulate_fixed(scen)
    assert np.array_equal(t1.y, t2.y)
    assert np.array_equal(t1.xi_hat, t2.xi_hat)
    assert np.array_equal(t1.u, t2.u)
    # a different seed draws different initial conditions
    other = simulate_fixed(
        _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                             t_end=1.0, dt=0.005, init="random", seed=10))
    assert not np.array_equal(other.y, t1.y)


def test_single_mode_switching_matches_fixed(target, unit_gain, five_agents,
                                             five_cycle):
    kwargs = dict(t_end=1.0, dt=0.005, init="random", seed=21)
    fixed = simulate_fixed(
        _five_agent_scenario(target, unit_gain, five_agents, five_cycle, **kwargs))
    mt = MarkovTopology(graphs=[five_cycle], generator=np.array([[0.0]]))
    switched = simulate_switching(
        build_scenario(five_agents, target, unit_gain, mt, **kwargs))
    assert np.array_equal(switched.y, fixed.y)
    assert np.array_equal(switched.xi_hat, fixed.xi_hat)
    assert np.array_equal(switched.u, fixed.u)
    assert np.array_equal(switched.mode, np.zeros(201, dtype=int))
    assert switched.mode_path == [(0, 0.0, 1.0)]


def _manifold_agents():
    """All five builtins placed on one shared stacked chain state."""
    a, b = 0.4, -0.3
    agents = []
    for name in ("agent1", "agent2", "agent4", "agent5"):
        agents.append(builtin(name).with_initial(xi0=[a, b], eta0=[0.2]))
    # the degree-3 agent needs the raw coordinates matching xi = (a, b, 0)
    x2 = a
    x3 = b - a ** 2
    x1 = 0.0 - 3.0 * a * b + a ** 3
    agents.append(builtin("agent3").with_initial(x0=[x1, x2, x3]))
    return agents


def test_consensus_manifold_is_invariant_fixed(target, unit_gain, five_cycle):
    scen = build_scenario(_manifold_agents(), target, unit_gain, five_cycle,
                          t_end=5.0, dt=1e-3)
    traj = simulate_fixed(scen)
    spread = traj.xi_hat.max(axis=1) - traj.xi_hat.min(axis=1)
    assert spread.max() <= 1e-8
    # and the shared chain actually moves
    assert np.abs(traj.y[0] - traj.y[-1]).max() > 1e-3


def test_consensus_manifold_is_invariant_switching(target, unit_gain):
    g1, g2 = default_switching_pair(5)
    mt = MarkovTopology(graphs=[g1, g2], generator=FLIP_FLOP)
    scen = build_scenario(_manifold_agents(), target, unit_gain, mt,
                          t_end=5.0, dt=1e-3, seed=5)
    traj = simulate_switching(scen)
    spread = traj.xi_hat.max(axis=1) - traj.xi_hat.min(axis=1)
    assert spread.max() <= 1e-8


def test_disagreement_decays_on_fixed_cycle(target, unit_gain, five_agents,
                                            five_cycle):
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                t_end=20.0, dt=2e-3, init="random", seed=42)
    traj = simulate_fixed(scen)
    d = ck.disagreement(traj)
    assert d[0] > 0.1
    assert d[-1] < 1e-4 * d[0]


def test_rate_matches_linear_spectrum(target, unit_gain):
    # three identical pure chains: the loop is exactly linear, so the
    # disagreement must decay at the slowest stable mode of the target
    inits = ([0.9, -0.4, 0.1], [-0.6, 0.3, 0.0], [0.1, 0.8, -0.5])
    agents = [_chain_agent(i + 1, 3, xi) for i, xi in enumerate(inits)]
    scen = build_scenario(agents, target, unit_gain, directed_cycle(3),
                          t_end=12.0, dt=1e-3)
    traj = simulate_fixed(scen)
    fit = ck.empirical_rate(traj.times, ck.disagreement(traj), window=(5.0, 11.0))
    check = ck.closed_loop_spectrum(target, unit_gain, ck.laplacian(directed_cycle(3)))
    nonzero = check.values[np.abs(check.values) > 1e-9]
    slowest = float(-nonzero.real.max())
    assert fit.rate == pytest.approx(slowest, rel=0.2)


def test_mixed_degree_chains_match_exact_linear_propagation(target, unit_gain):
    # pure chains of degree 1, 2 and 3 need local controllers with 2, 1 and
    # 0 states; with them the stacked (xi, phi) of every agent is exactly
    # linear, xihat' = (I (x) A - L (x) B K) xihat, so the recorded chain
    # must follow the matrix exponential up to the RK4 error (measured
    # 3.3e-13 at dt = 1e-3 over t in [0, 4], 5.2e-12 at dt = 2e-3).  Two
    # more cases on the same chains, with the matrices built here from the
    # target's (A, B) and not from the simulator's:
    # * observer feedback from zero estimates: [xihat; xcheck] follows
    #   [[I (x) A, -L (x) B K], [I (x) M C, I (x) (A - M C) - L (x) B K]];
    #   the injection gain M = (9, 18, -12) makes the start stiffer, so
    #   the RK4 error is larger (measured 3.6e-11 on xihat and 2.2e-11 on
    #   err, both near t = 0.16; 5.8e-10 at dt = 2e-3 and 2.2e-12 at
    #   dt = 5e-4, the fourth-order ratio 16);
    # * a two-mode schedule: the exponential of each mode's matrix over the
    #   step-aligned intervals in which the recorded mode is constant
    #   (measured 2.4e-13 over 11 switches).
    agents = [_chain_agent(1, 1, [0.9]), _chain_agent(2, 2, [-0.6, 0.3]),
              _chain_agent(3, 3, [0.1, 0.8, -0.5])]
    cycle = directed_cycle(3)
    scen = build_scenario(agents, target, unit_gain, cycle, t_end=4.0, dt=1e-3)
    assert [ctl.n_phi for ctl in scen.controllers] == [2, 1, 0]
    traj = simulate_fixed(scen)
    eye = np.eye(3)
    bk = np.outer(target.B, unit_gain.K)

    def closed(lap):
        return np.kron(eye, target.A) - np.kron(lap, bk)

    lap = ck.laplacian(cycle)
    x0 = np.array([[0.9, 0.0, 0.0], [-0.6, 0.3, 0.0], [0.1, 0.8, -0.5]])
    assert np.array_equal(traj.xi_hat[0], x0)
    for k in range(0, traj.times.shape[0], 40):
        exact = scipy.linalg.expm(traj.times[k] * closed(lap)) @ x0.ravel()
        assert np.allclose(traj.xi_hat[k].ravel(), exact, rtol=0.0, atol=1e-11)
    assert np.abs(traj.xi_hat[-1] - traj.xi_hat[0]).max() > 0.1

    obs = ck.observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
    traj = simulate_with_observer(replace(scen, observer=obs))
    inj = np.outer(obs.M, obs.C)
    joint = np.block([[np.kron(eye, target.A), -np.kron(lap, bk)],
                      [np.kron(eye, inj),
                       np.kron(eye, target.A - inj) - np.kron(lap, bk)]])
    z0 = np.concatenate([x0.ravel(), np.zeros(9)])
    for k in range(0, traj.times.shape[0], 40):
        z = scipy.linalg.expm(traj.times[k] * joint) @ z0
        assert np.allclose(traj.xi_hat[k].ravel(), z[:9], rtol=0.0, atol=1e-10)
        assert np.allclose(traj.err[k].ravel(), z[:9] - z[9:], rtol=0.0,
                           atol=1e-10)
    assert np.abs(traj.err[0]).max() > 0.1

    g1, g2 = default_switching_pair(3)
    mt = MarkovTopology(graphs=[g1, g2], generator=2.0 * FLIP_FLOP)
    traj = simulate_switching(build_scenario(agents, target, unit_gain, mt,
                                             t_end=4.0, dt=1e-3, seed=6))
    # sample k and the step after it run under mode[k]
    starts = np.flatnonzero(np.diff(traj.mode)) + 1
    assert len(starts) >= 2
    laps = [ck.laplacian(g) for g in (g1, g2)]
    x = x0.ravel()
    for a, b in zip([0, *starts], [*starts, traj.times.shape[0] - 1]):
        phi = closed(laps[traj.mode[a]])
        for k in [*range(a, b, 40), b]:
            exact = scipy.linalg.expm((traj.times[k] - traj.times[a]) * phi) @ x
            assert np.allclose(traj.xi_hat[k].ravel(), exact, rtol=0.0,
                               atol=1e-11)
        x = exact


def test_agent3_chain_matches_its_native_model(target, unit_gain, five_agents,
                                               five_cycle):
    # agent 3 is simulated as its chain; its model in the original
    # coordinates, driven by the same u_hat = (Phi expm(t Phi) z0) entry
    # through u = (u_hat - alpha(x)) / beta(x) and integrated by DOP853,
    # must map back onto the recorded chain and input (measured at dt =
    # 2e-3: 3.0e-12 on the chain, 8.9e-12 on u; 1.8e-9 and 2.7e-9 at dt =
    # 1e-2, the RK4 error)
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                t_end=10.0, dt=2e-3, init="random", seed=42)
    traj = simulate_fixed(scen)
    # the draws of the random start, in the simulator's order: a chain and
    # eta per agent, agent 3's three values in its native coordinates
    rng = ck.rng_for(42, 0, ck.STREAM_INIT)
    z0 = np.zeros((5, 3))
    for i, ag in enumerate(five_agents):
        if ag.native is not None:
            x0 = rng.uniform(-1.0, 1.0, ag.native.dim)
            z0[i] = ag.native.xi_of(x0)
        else:
            z0[i, :ag.r] = rng.uniform(-1.0, 1.0, ag.r)
            rng.uniform(-1.0, 1.0, ag.n_eta)
    native = five_agents[2].native
    assert np.array_equal(traj.xi_hat[0, 2], native.xi_of(x0))
    assert np.array_equal(traj.xi_hat[0], z0)

    phi = (np.kron(np.eye(5), target.A)
           - np.kron(ck.laplacian(five_cycle), np.outer(target.B, unit_gain.K)))

    def u_of(t, x):
        u_hat = (phi @ scipy.linalg.expm(t * phi) @ z0.ravel())[2 * 3 + 2]
        return (u_hat - native.alpha_of(x)) / native.beta_of(x)

    idx = np.arange(0, traj.times.shape[0], 50)
    sol = scipy.integrate.solve_ivp(
        lambda t, x: native.deriv(x, u_of(t, x)), (0.0, 10.0), x0,
        method="DOP853", rtol=1e-12, atol=1e-14, t_eval=traj.times[idx])
    assert sol.success
    xi = np.array([native.xi_of(x) for x in sol.y.T])
    u = np.array([u_of(t, x) for t, x in zip(sol.t, sol.y.T)])
    assert np.allclose(xi, traj.xi_hat[idx, 2], rtol=0.0, atol=1e-11)
    assert np.allclose(u, traj.u[idx, 2], rtol=0.0, atol=3e-11)
    assert np.abs(xi).max() > 1.0


def test_observer_match_init_reproduces_full_information(target, unit_gain,
                                                         five_agents, five_cycle):
    obs = ck.observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                observer=obs, t_end=2.0, dt=2e-3,
                                init="random", seed=13)
    with_obs = simulate_with_observer(replace(scen, observer_init="match"))
    plain = simulate_fixed(scen)
    assert np.abs(with_obs.err).max() <= 1e-9
    assert np.allclose(with_obs.y, plain.y, atol=1e-9)
    assert np.allclose(with_obs.xi_hat, plain.xi_hat, atol=1e-9)


def test_observer_zero_init_error_decays(target, unit_gain, five_agents,
                                         five_cycle):
    obs = ck.observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                observer=obs, t_end=8.0, dt=2e-3,
                                init="random", seed=13, observer_init="zero")
    traj = simulate_with_observer(scen)
    err0 = np.linalg.norm(traj.err[0])
    err_end = np.linalg.norm(traj.err[-1])
    assert err0 > 0.5
    assert err_end < 1e-8
    # the error norm is monotone-ish: compare a few decades
    mid = np.linalg.norm(traj.err[len(traj.times) // 2])
    assert err_end < mid < err0


def test_observer_requires_observer_section(target, unit_gain, five_agents,
                                            five_cycle):
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                t_end=1.0, dt=0.01)
    with pytest.raises(ck.ValidationError):
        simulate_with_observer(scen)
    with pytest.raises(ck.ValidationError):
        simulate_with_observer(replace(
            _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                 observer=ck.observer_gain(
                                     target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0]),
                                 t_end=1.0, dt=0.01),
            observer_init="banana"))


def test_augmented_agent_tracks_physical_input(target, unit_gain):
    def make(agent_id, xi0):
        return augment(r=2, alpha_tilde=ZERO, beta_tilde=ONE, theta_tilde=None,
                       xi0=xi0, u0=xi0[-1], agent_id=agent_id)
    agents = [make(1, [0.5, 0.0, -0.2]), make(2, [-0.3, 0.2, 0.1]),
              make(3, [0.0, -0.1, 0.4])]
    scen = build_scenario(agents, target, unit_gain, directed_cycle(3),
                          t_end=2.0, dt=2e-3)
    traj = simulate_fixed(scen)
    # with alpha = 0, beta = 1 and u(0) = xi3(0), the integrated physical
    # input coincides with the last chain state sample for sample
    for i in range(3):
        assert np.array_equal(traj.u[:, i], traj.xi_hat[:, i, 2])


def test_linear_block_escape_matches_iterated_step_matrix(target, unit_gain):
    # with K negated the chains alone diverge (rightmost eigenvalue 1.5):
    # the run must stop at the first step at which z_{k+1} = P z_k with
    # the RK4 step matrix P = sum_{j <= 4} (h Phi)^j / j!, built here from
    # the target, leaves the guard ball (step 977, inside the fourth
    # block; the norm there crosses 1e6 by 0.5%, far beyond rounding)
    agents = [_chain_agent(1, 3, [0.9, -0.4, 0.1]),
              _chain_agent(2, 3, [-0.6, 0.3, 0.0]),
              _chain_agent(3, 3, [0.1, 0.8, -0.5])]
    unstable = replace(unit_gain, K=-unit_gain.K)
    dt = 0.01
    scen = build_scenario(agents, target, unstable, directed_cycle(3),
                          t_end=30.0, dt=dt)
    hphi = dt * (np.kron(np.eye(3), target.A)
                 - np.kron(ck.laplacian(directed_cycle(3)),
                           np.outer(target.B, unstable.K)))
    step = np.eye(9)
    term = np.eye(9)
    for j in range(1, 5):
        term = term @ hphi / j
        step = step + term
    z = np.array([ag.xi0 for ag in agents]).ravel()
    k = 0
    while np.abs(z).max() <= 1e6:
        before = np.abs(z).max()
        z = step @ z
        k += 1
    assert before < 0.999e6 and np.abs(z).max() > 1.001e6
    with pytest.raises(ck.FiniteEscape) as exc:
        simulate_fixed(scen)
    assert exc.value.t == pytest.approx(k * dt)
    traj = exc.value.trajectory
    assert traj.times.shape[0] == k
    assert traj.times[-1] == pytest.approx(exc.value.t - dt)
    assert np.abs(traj.xi_hat).max() <= 1e6


def test_cascade_overflow_is_a_finite_escape(target, unit_gain):
    # eta' = eta ** 62 from 1.01 blows up within ten steps; the power of a
    # Python float raises OverflowError where numpy gives inf.  Run without
    # np.errstate, so a numpy RuntimeWarning would fail the test, the run
    # must end in FiniteEscape at the step at which a scalar RK4 in numpy
    # floats leaves the guard ball
    blower = NormalFormAgent(
        agent_id=1, r=2, n_eta=1,
        alpha=ZERO, beta=ONE, theta=TermTable([[(1.0, (0, 0, 62))]]),
        xi0=np.zeros(2), eta0=np.array([1.01]))
    agents = [blower, builtin("agent1").with_initial(xi0=[0.1, 0.0]),
              builtin("agent3")]
    dt = 1e-3
    scen = build_scenario(agents, target, unit_gain, directed_cycle(3),
                          t_end=1.0, dt=dt)
    eta, k = np.float64(1.01), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while abs(eta) <= 1e6:
            k1 = eta ** 62
            k2 = (eta + 0.5 * dt * k1) ** 62
            k3 = (eta + 0.5 * dt * k2) ** 62
            k4 = (eta + dt * k3) ** 62
            eta = eta + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            k += 1
    assert k > 1
    with pytest.raises(ck.FiniteEscape) as exc:
        simulate_fixed(scen)
    assert exc.value.t == pytest.approx(k * dt)
    traj = exc.value.trajectory
    assert traj.times.shape[0] == k
    assert traj.times[-1] == pytest.approx(exc.value.t - dt)
    assert np.all(np.isfinite(traj.eta[0]))
    assert np.all(np.isfinite(traj.u))


def test_compiled_cascade_agrees_with_term_tables(target, unit_gain):
    # the cascade [eta | u] runs as one compiled Python function; on 200
    # seeded states it must give what the term tables give through numpy:
    # theta of agent 1 (damped), of a parsed custom agent with multi-factor
    # terms and an empty row, and u' = (u_hat - alpha) / beta of an
    # augmented agent; agent 3's chain alpha is compiled alone (measured
    # 2.1e-16 and 2.0e-16 of the largest value)
    custom = {"custom": {
        "r": 2, "n_eta": 2,
        "alpha": [{"c": 0.1, "e": [0, 0, 0, 0]}],
        "beta": [{"c": 1.0, "e": [0, 0, 0, 0]}],
        "theta": [[{"c": -2.0, "e": [0, 0, 1, 0]},
                   {"c": 0.5, "e": [0, 1, 1, 0]},
                   {"c": 0.3, "e": [0, 0, 0, 0]},
                   {"c": 1.0 / 3.0, "e": [2, 1, 0, 3]}],
                  []],
        "xi0": [1.0, -0.8], "eta0": [0.6, -0.7]}}
    doc = {"agents": [{"builtin": "agent1"}, custom, {"builtin": "agent3"}],
           "controller": {"poles": [-1.0, -2.0], "mu": 1.0, "q1": 1.0,
                          "r_hat": 1.0, "rank": "one"},
           "graph": {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0]]},
           "sim": {"t_end": 1.0, "dt": 0.01}}
    augmented = augment(
        r=2, alpha_tilde=TermTable([[(0.3, (1, 0, 1))]], scalar=True),
        beta_tilde=TermTable([[(2.0, ()), (1.0, (0, 2))]], scalar=True),
        theta_tilde=None, xi0=[-0.4, 0.2, 0.5], u0=0.5, agent_id=4)
    scen = build_scenario(parse_scenario(doc).agents + [augmented], target,
                          unit_gain, directed_cycle(4))
    system = sim._System(scen, [ck.laplacian(directed_cycle(4))], False)
    n_in = len(system.cols) + len(system.aug)
    v = [f"v{j}" for j in range(n_in + system.dim - system.nz)]
    coefs = []
    f = _rows_function(
        system.derivative_source(v[:n_in], v[n_in:], coefs), coefs, len(v))
    rng = np.random.default_rng(14)
    states = rng.uniform(-2.0, 2.0, (200, system.dim))
    u_hat = rng.uniform(-2.0, 2.0, (200, 1))
    alpha, beta = (sim._stack(system.aug, name).at(states)
                   for name in ("alpha", "beta"))
    want = np.hstack([sim._stack(system.rts, "theta").at(states),
                      (u_hat - alpha) / beta])
    got = [f([*state[system.cols], *u, *state[system.nz:]])
           for state, u in zip(states, u_hat)]
    assert np.allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(want).max())
    assert np.all(want[:, 2] == 0.0)  # the empty theta row

    alpha3 = builtin("agent3").alpha
    coefs = []
    f3 = _rows_function(alpha3._source(v[:3], coefs), coefs, 3)
    x = rng.uniform(-2.0, 2.0, (200, 3))
    want = alpha3.at(x)[:, 0]
    got = [f3(list(row))[0] for row in x]
    assert np.allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(want).max())
    for code in (system.block.__code__, f.__code__, f3.__code__):
        assert code.co_names == ()
        assert all(type(k) is int for k in code.co_consts if k is not None)


def _rows_function(rows, coefs, n):
    """The expressions `rows` over the names v0 .. v<n-1> as one function
    f(v) -> [row, ...], compiled the way the simulator compiles."""
    return sim._function(
        f"def f(v, c):\n    {''.join(f'v{j}, ' for j in range(n))}= v\n"
        f"    {''.join(f'c{t}, ' for t in range(len(coefs)))}= c\n"
        f"    return [{', '.join(rows)}]\n", (tuple(coefs),))


def test_compiled_maps_keep_every_coefficient_bit():
    coefficients = [-0.0, 5e-324, 1.0 / 3.0, float("inf"), -float("inf")]
    table = TermTable([[(c, ())] for c in coefficients]
                      + [[(c, (1,))] for c in coefficients])
    coefs = []
    f = _rows_function(table._source(["v0"], coefs), coefs, 1)
    assert f.__code__.co_names == ()
    bits = [struct.pack("<d", c) for c in coefficients]
    assert [struct.pack("<d", v) for v in f([1.0])] == bits + bits
    # a row of 5,000 terms compiles, summed in groups the compiler can nest
    long = TermTable([[(1.0, (1,))] * 5000])
    coefs = []
    assert _rows_function(long._source(["v0"], coefs), coefs, 1)([0.5]) \
        == [2500.0]


def test_cascade_without_z_input_is_exact_rk4(target, unit_gain):
    # eta' = -2 eta reads no column of z and no agent is augmented, so the
    # compiled block has no step inputs; RK4 on it is the recurrence
    # eta_k = R(-2h)^k eta_0, R(s) = 1 + s + s^2/2 + s^3/6 + s^4/24, over
    # two blocks (measured 1.4e-16 of eta_0 at most; asserted at 1e-15)
    decay = NormalFormAgent(
        agent_id=1, r=2, n_eta=1, alpha=ZERO, beta=ONE,
        theta=TermTable([[(-2.0, (0, 0, 1))]]),
        xi0=np.array([0.3, -0.1]), eta0=np.array([0.8]))
    agents = [decay, _chain_agent(2, 3, [0.5, 0.0, -0.2]),
              _chain_agent(3, 2, [-0.4, 0.1])]
    dt = 0.01
    scen = build_scenario(agents, target, unit_gain, directed_cycle(3),
                          t_end=3.0, dt=dt)
    system = sim._System(scen, [ck.laplacian(directed_cycle(3))], False)
    assert system.cols == [] and system.aug == []
    eta = simulate_fixed(scen).eta[0][:, 0]
    s = -2.0 * dt
    want = 0.8 * (1.0 + s + s * s / 2.0 + s ** 3 / 6.0 + s ** 4 / 24.0) \
        ** np.arange(301)
    assert np.allclose(eta, want, rtol=0.0, atol=1e-15 * 0.8)


def _damped(c):
    """A scenario agent eta' = c eta - eta^5 + xi_1, shaped like agent1."""
    return {"custom": {
        "r": 2, "n_eta": 1, "alpha": [], "beta": [{"c": 1.0, "e": [0, 0, 0]}],
        "theta": [[{"c": c, "e": [0, 0, 1]}, {"c": -1.0, "e": [0, 0, 5]},
                   {"c": 1.0, "e": [1, 0, 0]}]],
        "xi0": [0.5, -0.2], "eta0": [0.3]}}


def test_compiled_cascade_is_shared_across_coefficients(monkeypatch):
    # agent1 (eta' = -eta - eta^5 + xi_1) and the custom agents of
    # _damped(c) compile to one code object, yet each run integrates its
    # own coefficients
    def scenario(first):
        agents = [first, {"builtin": "agent2"}, {"builtin": "agent3"}]
        return parse_scenario({
            "agents": agents,
            "controller": {"poles": [-1.0, -2.0], "mu": 1.0, "q1": 1.0,
                           "r_hat": 1.0, "rank": "one"},
            "graph": {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0],
                                        [3, 1, 1.0]]},
            "sim": {"t_end": 1.0, "dt": 0.01}})

    builtin1 = {"builtin": "agent1", "xi0": [0.5, -0.2], "eta0": [0.3]}
    scens = [scenario(a) for a in (builtin1, _damped(-1.0), _damped(-3.0))]
    lap = [ck.laplacian(scens[0].topology)]
    blocks = [sim._System(sc, lap, False).block for sc in scens]
    assert all(b.__code__ is blocks[0].__code__ for b in blocks)
    assert blocks[0].__defaults__[0] != blocks[2].__defaults__[0]
    eta = [simulate_fixed(sc).eta[0] for sc in scens]
    assert np.array_equal(eta[1], eta[0])
    assert not np.allclose(eta[2], eta[0], rtol=1e-3)

    # a Monte Carlo run builds its system anew: every run takes its code
    # from the cache instead of compiling it
    hits = sim._code.cache_info().hits
    made = []

    def record(source, defaults):
        made.append(real(source, defaults))
        return made[-1]

    real = sim._function
    monkeypatch.setattr(sim, "_function", record)
    mc = scenario(builtin1)
    monte_carlo_ms(replace(mc, topology=MarkovTopology(
        graphs=[mc.topology, mc.topology], generator=FLIP_FLOP)), runs=3)
    assert len(made) == 3
    assert all(f.__code__ is blocks[0].__code__ for f in made)
    assert sim._code.cache_info().hits == hits + 3


def test_compiled_cascade_is_visible_to_tracebacks(target, unit_gain,
                                                   five_agents, five_cycle):
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle)
    block = sim._System(scen, [ck.laplacian(five_cycle)], False).block
    name = block.__code__.co_filename
    assert re.fullmatch(r"<cascade:[0-9a-f]{8}>", name)
    assert linecache.getline(name, 1).startswith("def block(x, y, out,")
    with pytest.raises(ValueError) as exc:
        block([], [1.0], [])  # four eta expected
    frame = traceback.extract_tb(exc.value.__traceback__)[-1]
    assert (frame.filename, frame.line) == (name, "y0, y1, y2, y3, = y")
    # the cache is bounded, and the source of code it dropped is forgotten
    first = sim._function("def f(c):\n    return c\n", (0,)).__code__
    first = first.co_filename
    assert first in linecache.cache
    for k in range(sim._code.cache_info().maxsize):
        sim._function(f"def f(c):\n    return c + {k}\n", (0,))
    assert first not in linecache.cache


def test_finite_escape_truncates_trajectory(target, unit_gain):
    blower = NormalFormAgent(
        agent_id=1, r=2, n_eta=1,
        alpha=ZERO, beta=ONE, theta=TermTable([[(1.0, (0, 0, 3))]]),
        xi0=np.zeros(2), eta0=np.array([2.0]))
    others = [builtin("agent1"), builtin("agent2")]
    others = [ag.with_initial(xi0=[0.1, 0.0]) for ag in others]
    scen = build_scenario([blower] + others, target, unit_gain,
                          directed_cycle(3), t_end=3.0, dt=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ck.FiniteEscape) as exc:
            simulate_fixed(scen)
    err = exc.value
    assert err.t is not None and err.t < 0.5
    traj = err.trajectory
    assert traj is not None
    assert traj.diverged
    assert traj.times.shape[0] < int(round(3.0 / 1e-3)) + 1
    # the guard fires one step past the last recorded sample
    assert traj.times[-1] == pytest.approx(err.t - 1e-3)
    assert np.all(np.isfinite(traj.y))


def test_beta_floor_aborts_run(target, unit_gain):
    degenerate = NormalFormAgent(
        agent_id=1, r=2, n_eta=0,
        alpha=ZERO, beta=XI_1, theta=NO_INTERNAL,
        xi0=np.array([0.0, 1.0]), eta0=np.empty(0))
    others = [builtin("agent1"), builtin("agent2")]
    scen = build_scenario([degenerate] + others, target, unit_gain,
                          directed_cycle(3), t_end=1.0, dt=0.01)
    with pytest.raises(ck.BetaNearZero) as exc:
        simulate_fixed(scen)
    assert exc.value.agent_id == 1
    assert exc.value.state is not None


def test_beta_floor_is_reported_before_the_escape_it_causes(target,
                                                             unit_gain):
    # beta = xi_1 = 0 at t = 0 for the agents at indices 1 and 2.  Index 1
    # is augmented, so its u' = (u_hat - alpha) / beta is infinite and the
    # first step leaves the guard ball; the beta floor at sample 0 must
    # still win, and at that sample the lower agent index.
    zero_beta = augment(r=2, alpha_tilde=ZERO, beta_tilde=XI_1, theta_tilde=None,
                        xi0=[0.0, 0.5, -0.2], agent_id=11)
    plain = NormalFormAgent(
        agent_id=12, r=2, n_eta=0,
        alpha=ZERO, beta=XI_1, theta=NO_INTERNAL,
        xi0=np.array([0.0, 1.0]), eta0=np.empty(0))
    agents = [builtin("agent3"), zero_beta, plain]
    scen = build_scenario(agents, target, unit_gain, directed_cycle(3),
                          t_end=1.0, dt=0.01)
    with np.errstate(all="ignore"):
        with pytest.raises(ck.BetaNearZero) as exc:
            simulate_fixed(scen)
    assert exc.value.agent_id == 11
    assert exc.value.state.shape == (10,)


def test_monte_carlo_single_run_matches_direct(target, unit_gain, five_agents):
    scen = _switching_scenario(target, unit_gain, five_agents,
                               t_end=2.0, dt=0.01, init="random", seed=31)
    mc = monte_carlo_ms(scen, runs=1)
    traj = simulate_switching(scen, run_index=0)
    worst = np.zeros(traj.times.shape[0])
    for i in range(5):
        for j in range(i + 1, 5):
            d = traj.xi_hat[:, i, :] - traj.xi_hat[:, j, :]
            worst = np.maximum(worst, np.sum(d * d, axis=1))
    assert mc.runs_used == 1
    assert mc.runs_diverged == 0
    assert np.array_equal(mc.times, traj.times)
    assert np.allclose(mc.mean_square, worst, atol=1e-14)


def test_monte_carlo_mean_over_runs(target, unit_gain, five_agents):
    scen = _switching_scenario(target, unit_gain, five_agents,
                               t_end=1.0, dt=0.01, init="random", seed=8)
    mc3 = monte_carlo_ms(scen, runs=3)
    singles = []
    for k in range(3):
        traj = simulate_switching(scen, run_index=k)
        worst = np.zeros(traj.times.shape[0])
        for i in range(5):
            for j in range(i + 1, 5):
                d = traj.xi_hat[:, i, :] - traj.xi_hat[:, j, :]
                worst = np.maximum(worst, np.sum(d * d, axis=1))
        singles.append(worst)
    assert np.allclose(mc3.mean_square, np.mean(singles, axis=0), atol=1e-14)
    # runs differ, so the curve is not any single realization
    assert not np.allclose(mc3.mean_square, singles[0], atol=1e-12)


def test_monte_carlo_on_identical_explicit_states_is_zero(target, unit_gain,
                                                          five_agents):
    scen = _switching_scenario(target, unit_gain, five_agents,
                               t_end=1.0, dt=0.01, init="explicit", seed=8)
    mc = monte_carlo_ms(scen, runs=2)
    assert mc.mean_square.max() <= 1e-12
    with pytest.raises(ck.ValidationError):
        monte_carlo_ms(scen, runs=0)


def test_benchmark_reaches_the_package_through_these_names(
        target, unit_gain, five_agents, monkeypatch):
    """The calls the benchmark in ``bench/`` depends on.

    ``bench/tracing.py`` wraps ``sim.simulate_switching`` by its module
    name and counts Monte Carlo runs and RK4 steps from those spans;
    ``bench/run.py`` divides the traced time by that step count, so a
    ``monte_carlo_ms`` that stopped calling ``simulate_switching`` once
    per run would make the traced switching workload fail with
    ZeroDivisionError.  ``bench/workloads.agent_timings`` calls agent 3's
    native maps on length-3 arrays and reports them as
    ``agents.native_deriv_us``: the simulator carries agent 3 as its chain,
    so outside that timing these maps serve only to map a scenario's x0
    and as the reference model of
    ``test_agent3_chain_matches_its_native_model``.
    """
    calls = []
    real = ck.sim.simulate_switching

    def counting(*args, **kwargs):
        calls.append(kwargs.get("run_index"))
        return real(*args, **kwargs)

    monkeypatch.setattr(ck.sim, "simulate_switching", counting)
    scen = _switching_scenario(target, unit_gain, five_agents,
                               t_end=0.5, dt=0.01, init="random", seed=4)
    assert monte_carlo_ms(scen, runs=3).runs_used == 3
    assert calls == [0, 1, 2]

    native = builtin("agent3").native
    x = np.array([0.3, -0.2, 0.5])
    assert native.deriv(x, 0.1).shape == (3,)
    assert native.xi_of(x).shape == (3,)
    assert np.isfinite(native.alpha_of(x))
    assert np.isfinite(native.beta_of(x))


def test_topology_kind_is_enforced(target, unit_gain, five_agents, five_cycle):
    fixed = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                 t_end=1.0, dt=0.01)
    with pytest.raises(ck.ValidationError):
        simulate_switching(fixed)
    switching = _switching_scenario(target, unit_gain, five_agents,
                                    t_end=1.0, dt=0.01)
    with pytest.raises(ck.ValidationError):
        simulate_fixed(switching)
    obs = ck.observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
    with_obs = _switching_scenario(target, unit_gain, five_agents,
                                   observer=obs, t_end=1.0, dt=0.01)
    with pytest.raises(ck.ValidationError):
        simulate_switching(with_obs)


def test_switching_assumption_gate(target, unit_gain, five_agents):
    mt = MarkovTopology(graphs=[empty_graph(5), empty_graph(5)],
                        generator=FLIP_FLOP)
    scen = build_scenario(five_agents, target, unit_gain, mt,
                          t_end=0.5, dt=0.01, init="random", seed=2)
    with pytest.raises(ck.ValidationError):
        simulate_switching(scen)
    traj = simulate_switching(scen, allow_a4_violation=True)
    # no coupling: disagreement cannot vanish
    assert ck.disagreement(traj)[-1] > 1e-3


def test_scenario_validation_messages(target, unit_gain, five_agents):
    with pytest.raises(ck.ValidationError):
        build_scenario(five_agents, target, unit_gain, directed_cycle(3))
    with pytest.raises(ck.ValidationError):
        build_scenario(five_agents, target, unit_gain, directed_cycle(5),
                       dt=-0.1)
    with pytest.raises(ck.ValidationError):
        build_scenario(five_agents, target, unit_gain, directed_cycle(5),
                       t_end=0.001, dt=0.01)
    with pytest.raises(ck.ValidationError):
        build_scenario(five_agents, target, unit_gain, directed_cycle(5),
                       init="sampled")
    with pytest.raises(ck.ValidationError):
        build_scenario([], target, unit_gain, directed_cycle(5))
    with pytest.raises(ck.ValidationError):
        build_scenario(five_agents, target, unit_gain, directed_cycle(5),
                       t_end=float("inf"))


def test_custom_agent_matches_independent_oracles(target, unit_gain):
    # a custom agent over (xi_1, xi_2, eta_1, eta_2) with a constant term,
    # the two-factor monomial xi_2 eta_1, an empty theta row, nonzero alpha
    # and non-constant beta, among agent 1, agent 3 and an augmented agent
    # with non-constant alpha and beta, checked against references that
    # share no code with the simulator: xi_hat against expm(t Phi) z0 with
    # Phi = I (x) A - L (x) B K; eta of agents 1 and 2 and u of agent 4
    # against DOP853 on their theta and u' written here, driven by that
    # xi_hat; u of agent 2 against alpha and beta written here, at the
    # reference eta (measured at dt = 0.005: 7.1e-11 on xi_hat, 2.6e-11 on
    # eta, 4.6e-11 and 4.7e-12 on the two u, the RK4 error)
    custom = {"custom": {
        "r": 2, "n_eta": 2,
        "alpha": [{"c": 0.5, "e": [1, 0, 1, 0]}, {"c": -0.2, "e": [0, 2, 0, 0]},
                  {"c": 0.1, "e": [0, 0, 0, 0]}],
        "beta": [{"c": 1.5, "e": [0, 0, 0, 0]}, {"c": 0.25, "e": [2, 0, 0, 0]}],
        "theta": [[{"c": -2.0, "e": [0, 0, 1, 0]}, {"c": 0.5, "e": [0, 1, 1, 0]},
                   {"c": 0.3, "e": [0, 0, 0, 0]}],
                  []],
        "xi0": [1.0, -0.8], "eta0": [0.6, -0.7]}}
    doc = {"agents": [{"builtin": "agent1"}, custom,
                      {"builtin": "agent3", "x0": [0.1, -0.2, 0.3]}],
           "controller": {"poles": [-1.0, -2.0], "mu": 1.0, "q1": 1.0,
                          "r_hat": 1.0, "rank": "one"},
           "graph": {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0]]},
           "sim": {"t_end": 5.0, "dt": 0.005}}
    # u' = (u_hat - 0.3 xi_1 xi_3) / (2 + xi_2 ** 2)
    augmented = augment(
        r=2, alpha_tilde=TermTable([[(0.3, (1, 0, 1))]], scalar=True),
        beta_tilde=TermTable([[(2.0, ()), (1.0, (0, 2))]], scalar=True),
        theta_tilde=None, xi0=[-0.4, 0.2, 0.5], u0=0.5, agent_id=4)
    agents = parse_scenario(doc).agents + [augmented]
    traj = simulate_fixed(build_scenario(agents, target, unit_gain,
                                         directed_cycle(4), t_end=5.0,
                                         dt=0.005))
    assert np.array_equal(traj.eta[1][:, 1], np.full(traj.times.shape, -0.7))

    phi = (np.kron(np.eye(4), target.A)
           - np.kron(ck.laplacian(directed_cycle(4)),
                     np.outer(target.B, unit_gain.K)))
    z0 = np.concatenate([[0.0, 0.0, 0.0], [1.0, -0.8, 0.0],
                         agents[2].native.xi_of(np.array([0.1, -0.2, 0.3])),
                         [-0.4, 0.2, 0.5]])

    def xi_hat(t):
        return (scipy.linalg.expm(t * phi) @ z0).reshape(4, 3)

    def u_hat(xi):
        return phi @ xi.ravel()

    def nonlinear(t, w):
        xi = xi_hat(t)
        return [-w[0] - w[0] ** 5 + xi[0, 0],
                -2.0 * w[1] + 0.5 * xi[1, 1] * w[1] + 0.3,
                ((u_hat(xi)[3 * 3 + 2] - 0.3 * xi[3, 0] * xi[3, 2])
                 / (2.0 + xi[3, 1] ** 2))]

    idx = np.arange(0, traj.times.shape[0], 50)
    sol = scipy.integrate.solve_ivp(
        nonlinear, (0.0, 5.0), [0.0, 0.6, 0.5], method="DOP853", rtol=1e-12,
        atol=1e-12, t_eval=traj.times[idx])
    assert sol.success
    for k, t, w in zip(idx, sol.t, sol.y.T):
        xi = xi_hat(t)
        assert np.allclose(traj.xi_hat[k], xi, rtol=0.0, atol=1e-9)
        assert np.allclose([traj.eta[0][k, 0], traj.eta[1][k, 0]], w[:2],
                           rtol=0.0, atol=1e-9)
        x1, x2, e1 = xi[1, 0], xi[1, 1], w[1]
        alpha = 0.5 * x1 * e1 - 0.2 * x2 ** 2 + 0.1
        beta = 1.5 + 0.25 * x1 ** 2
        assert np.allclose(traj.u[k, [1, 3]],
                           [(u_hat(xi)[3 + 1] - alpha) / beta, w[2]],
                           rtol=0.0, atol=1e-9)
    assert np.abs(traj.eta[1][:, 0] - 0.6).max() > 0.1
    assert np.abs(traj.u[:, 3] - 0.5).max() > 0.1
