from dataclasses import FrozenInstanceError, replace

import gc
import importlib
import inspect
import linecache
import re
import struct
import traceback
import weakref

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import consensuskit as ck
from consensuskit.agents import (
    AUGMENTED_GENERAL, NormalFormAgent, TermTable, augment, builtin,
)
from consensuskit.graph import directed_cycle, empty_graph
from consensuskit.scenario import parse_scenario
from consensuskit import agents, sim
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
    assert [ctl.E.shape[0] for ctl in scen.controllers] == [2, 1, 0]
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
    # eta' = eta ** 62 from 1.01 blows up within ten steps; the cascade
    # makes the power by squaring in Python floats, whose products give inf
    # as numpy's do, so the escape is seen at the same step.  Run without
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
    # seeded states it must give what numpy's ** gives from the terms:
    # theta of agent 1 (damped), of a parsed custom agent with multi-factor
    # terms and an empty row, and u' = (u_hat - alpha) / beta of an
    # augmented agent; agent 3's chain alpha is compiled alone (measured
    # 2.1e-16 and 1.0e-16 of the largest value)
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
    system = sim._System(scen, False)
    n_in = len(system.cols) + len(system.aug)
    v = [f"v{j}" for j in range(n_in + system.dim - system.nz)]
    coefs, squares = [], {}
    f = _rows_function(
        squares, system.derivative_source(v[:n_in], v[n_in:], coefs, squares),
        coefs, len(v))
    rng = np.random.default_rng(14)
    states = rng.uniform(-2.0, 2.0, (200, system.dim))
    u_hat = rng.uniform(-2.0, 2.0, (200, 1))
    theta, alpha, beta = (_numpy_powers(table, states)
                          for table in system.tables)
    want = np.hstack([theta, (u_hat - alpha) / beta])
    got = [f([*state[system.cols], *u, *state[system.nz:]])
           for state, u in zip(states, u_hat)]
    assert np.allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(want).max())
    assert np.all(want[:, 2] == 0.0)  # the empty theta row

    alpha3 = builtin("agent3").alpha
    coefs, squares = [], {}
    f3 = _rows_function(squares, alpha3._source(v[:3], coefs, squares),
                        coefs, 3)
    x = rng.uniform(-2.0, 2.0, (200, 3))
    want = _numpy_powers(alpha3, x)[:, 0]
    got = [f3(list(row))[0] for row in x]
    assert np.allclose(got, want, rtol=0.0, atol=1e-15 * np.abs(want).max())
    for code in (system.block.__code__, f.__code__, f3.__code__):
        assert code.co_names == ()
        assert all(type(k) is int for k in code.co_consts if k is not None)


def _rows_function(squares, rows, coefs, n):
    """The expressions `rows` over the names v0 .. v<n-1>, after the lines
    of `squares`, as one function f(v) -> [row, ...], compiled the way the
    simulator compiles."""
    return sim._function(
        f"def f(v, c):\n    {''.join(f'v{j}, ' for j in range(n))}= v\n"
        f"    {''.join(f'c{t}, ' for t in range(len(coefs)))}= c\n"
        + "".join(f"    {line}\n" for line in squares.values())
        + f"    return [{', '.join(rows)}]\n", (tuple(coefs),))


def _numpy_powers(table, z, terms=None):
    """The rows of `table` at one state z or at every row of a matrix z, as
    numpy's ** to float exponents gives them from its terms (or from
    `terms`, (row, c, [(variable, exponent), ...]) each): an evaluator that
    shares no code with the table's generated source."""
    out = np.zeros(z.shape[:-1] + (table.n_rows,))
    for k, c, factors in table._terms if terms is None else terms:
        mono = np.ones(z.shape[:-1])
        for j, p in factors:
            mono = mono * z[..., j] ** float(p)
        out[..., k] += c * mono
    return out


def test_compiled_maps_keep_every_coefficient_bit():
    coefficients = [-0.0, 5e-324, 1.0 / 3.0, float("inf"), -float("inf")]
    table = TermTable([[(c, ())] for c in coefficients]
                      + [[(c, (1,))] for c in coefficients])
    coefs, squares = [], {}
    f = _rows_function(squares, table._source(["v0"], coefs, squares),
                       coefs, 1)
    assert f.__code__.co_names == ()
    bits = [struct.pack("<d", c) for c in coefficients]
    assert [struct.pack("<d", v) for v in f([1.0])] == bits + bits
    # a row of 5,000 terms compiles, summed in groups the compiler can nest
    long = TermTable([[(1.0, (1,))] * 5000])
    coefs, squares = [], {}
    assert _rows_function(squares, long._source(["v0"], coefs, squares),
                          coefs, 1)([0.5]) == [2500.0]


def test_term_table_at_agrees_with_numpy_powers():
    # TermTable.at runs the table's generated source on numpy columns; the
    # oracle takes numpy's ** to float exponents from the terms as given,
    # zero exponents included, on states built of 0, +-1 and negative
    # bases.  A chain of squares that makes z^p rounds p - 1 times where
    # pow rounds once (measured 7.1e-16 of the largest value, 1.6e7, which
    # z^62 terms reach; asserted at 2e-15)
    spec = [
        [(0.7, (1, 2, 0)), (-1.3, (3, 0, 1)), (2.0, (0, 4, 5)),
         (0.25, (6, 7)), (-0.6, (2, 3, 4))],
        [],
        [(1.5, ()), (-0.5, (0, 0, 0))],
        [(1e-3, (0, 62)), (-0.4, (62, 0, 3)), (0.1, (5, 62, 1))],
        [(3.0, (7,)), (-1.0, (0, 0, 6)), (1.0 / 3.0, (1, 1, 1))],
    ]
    table = TermTable(spec)
    terms = [(k, c, list(enumerate(e)))
             for k, row in enumerate(spec) for c, e in row]
    bases = [0.0, 1.0, -1.0, -0.6, 0.9, -1.3, 1.1, 0.45, -0.25]
    z = np.array(np.meshgrid(bases, bases, bases)).reshape(3, -1).T
    want = _numpy_powers(table, z, terms)
    bound = 2e-15 * np.abs(want).max()
    assert np.allclose(table.at(z), want, rtol=0.0, atol=bound)
    assert np.all(table.at(z)[:, 1] == 0.0)  # the empty row
    assert np.all(table.at(z)[:, 2] == 1.0)  # constant: 1.5 - 0.5 * z^0
    # ints are read as floats, not as int64 columns whose products wrap
    assert np.array_equal(table.at([[3, -2, 10 ** 4]]),
                          table.at(np.array([[3.0, -2.0, 1e4]])))
    for state in z[::17]:
        got = table.at(state)
        assert got.shape == (5,)
        assert np.allclose(got, _numpy_powers(table, state, terms),
                           rtol=0.0, atol=bound)


def test_float_and_column_evaluation_agree_bit_for_bit():
    # the cascade runs a table's source on Python floats, TermTable.at the
    # same source on numpy columns: the same IEEE operations in the same
    # order, so every value has the same bits
    custom = TermTable([[(0.3, (1, 2, 0, 3)), (-1.0 / 3.0, (2, 0, 5, 1)),
                         (0.5, ())], [], [(1.7, (0, 0, 62)), (-2.0, (7,))]])
    rng = np.random.default_rng(19)
    for table in (builtin("agent3").alpha, builtin("agent1").theta, custom):
        n = table.n_vars
        coefs, squares = [], {}
        f = _rows_function(
            squares, table._source([f"v{j}" for j in range(n)], coefs,
                                   squares), coefs, n)
        z = rng.uniform(-2.0, 2.0, (300, n))
        floats = [f(state) for state in z.tolist()]
        assert all(type(v) is float for row in floats for v in row)
        pack = struct.Struct(f"<{table.n_rows}d").pack
        assert [pack(*row) for row in floats] == [
            pack(*row) for row in table.at(z)]
        assert pack(*floats[0]) == pack(*table.at(z[0]))


def _source_of(function):
    code = function.__code__
    return "".join(linecache.getlines(code.co_filename)), code


def test_generated_sources_hold_no_power_and_no_float(target, unit_gain):
    # every power is written as products of squares, and every float (the
    # coefficients, the step sizes) is an argument: the cascade block and
    # the column functions hold no ** and only int constants
    custom = TermTable([[(0.3, (1, 2, 0)), (-1.0, (0, 0, 62))]])
    decay = NormalFormAgent(
        agent_id=1, r=2, n_eta=1, alpha=ZERO, beta=ONE, theta=custom,
        xi0=np.array([0.3, -0.1]), eta0=np.array([0.2]))
    augmented = augment(
        r=2, alpha_tilde=TermTable([[(0.3, (1, 0, 3))]], scalar=True),
        beta_tilde=TermTable([[(2.0, ()), (1.0, (0, 2))]], scalar=True),
        theta_tilde=None, xi0=[-0.4, 0.2, 0.5], u0=0.5, agent_id=4)
    agents = [decay, builtin("agent1"), builtin("agent3"), augmented]
    scen = build_scenario(agents, target, unit_gain, directed_cycle(4),
                          t_end=0.1, dt=0.01)
    functions = [sim._System(scen, False).block]
    for table in (custom, builtin("agent3").alpha, builtin("agent5").theta,
                  augmented.beta, TermTable([[], [(2.0, ())]]),
                  TermTable([])):
        table.at(np.zeros((2, 3)))
        functions.append(table._rows)
    for function in functions:
        source, code = _source_of(function)
        assert source.startswith("def ") and "**" not in source
        assert all(type(k) is int for k in code.co_consts if k is not None)
        assert code.co_names == ()
    assert "_sq5 = " in _source_of(functions[1])[0]  # the square z^32


def test_huge_exponent_is_exact_and_cheap():
    # eta' = -eta - eta ** (10 ** 300) from 0.5: the power underflows to 0,
    # so eta = 0.5 exp(-t) to RK4's accuracy.  Its square-and-multiply
    # takes one line per bit of the exponent (997), not one per unit
    p = 10 ** 300
    custom = {"custom": {
        "r": 2, "n_eta": 1, "alpha": [], "beta": [{"c": 1.0, "e": [0, 0, 0]}],
        "theta": [[{"c": -1.0, "e": [0, 0, 1]}, {"c": -1.0, "e": [0, 0, p]}]],
        "xi0": [0.5, -0.2], "eta0": [0.5]}}
    scen = parse_scenario({
        "agents": [custom, {"builtin": "agent2"}, {"builtin": "agent3"}],
        "controller": {"poles": [-1.0, -2.0], "mu": 1.0, "q1": 1.0,
                       "r_hat": 1.0, "rank": "one"},
        "graph": {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0]]},
        "sim": {"t_end": 0.1, "dt": 0.01}})
    eta = simulate_fixed(scen).eta[0][:, 0]
    assert eta[-1] == pytest.approx(0.45241871, abs=1e-8)
    theta = scen.agents[0].theta
    bits = p.bit_length()
    assert np.array_equal(theta.at(np.array([[0.0, 0.0, 0.5],
                                             [0.0, 0.0, -1.0]])),
                          [[-0.5], [0.0]])
    assert len(_source_of(theta._rows)[0].splitlines()) < bits + 10
    block = sim._System(scen, False).block
    assert len(_source_of(block)[0].splitlines()) < 4 * (bits + 10)


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
    system = sim._System(scen, False)
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
    blocks = [sim._System(sc, False).block for sc in scens]
    assert all(b.__code__ is blocks[0].__code__ for b in blocks)
    assert blocks[0].__defaults__[0] != blocks[2].__defaults__[0]
    eta = [simulate_fixed(sc).eta[0] for sc in scens]
    assert np.array_equal(eta[1], eta[0])
    assert not np.allclose(eta[2], eta[0], rtol=1e-3)

    # a Monte Carlo builds its plan once, for all its runs, and takes the
    # cascade's code from the cache instead of compiling it
    hits = agents._code.cache_info().hits
    rows_hits = agents._rows_code.cache_info().hits
    made = []

    def record(source, defaults):
        made.append(real(source, defaults))
        return made[-1]

    real = sim._function
    monkeypatch.setattr(sim, "_function", record)
    mc = scenario(builtin1)
    monte_carlo_ms(replace(mc, topology=MarkovTopology(
        graphs=[mc.topology, mc.topology], generator=FLIP_FLOP)), runs=3)
    assert len(made) == 1
    assert made[0].__code__ is blocks[0].__code__
    assert agents._code.cache_info().hits == hits + 1
    # agent 3's alpha is evaluated over the runs' states by a column
    # function whose code comes from a cache of its own
    assert agents._rows_code.cache_info().hits >= rows_hits + 2


def test_compiled_cascade_is_visible_to_tracebacks(target, unit_gain,
                                                   five_agents, five_cycle):
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle)
    block = sim._System(scen, False).block
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
    for k in range(agents._code.cache_info().maxsize):
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


# The "layer.name" of every span whose time or count
# bench/tracing.per_layer_metrics reads.  The tracer wraps only public
# functions of the layer modules, under "<module>.<__name__>"; a name that
# vanished or moved reads as 0.0 there, not as an error.
_TRACED_LAYER_NAMES = (
    "linalg.solve_care", "linalg.solve_lyapunov", "linalg.eig",
    "graph.has_spanning_tree", "graph.laplacian",
    "switching.check_A4", "switching.sample_path",
    "synthesis.design_companion", "synthesis.rank_one_gain",
    "synthesis.full_gain", "synthesis.local_controller",
    "synthesis.observer_gain", "synthesis.closed_loop_spectrum",
    "metrics.theoretical_speed_fixed", "metrics.theoretical_speed_switching",
    "metrics.disagreement", "scenario.load_scenario",
    "sim.simulate_fixed", "sim.simulate_with_observer",
    "sim.simulate_switching", "sim.monte_carlo_ms",
)


def test_benchmark_traced_layer_names_are_public_functions():
    def traced(name):
        layer, _, attr = name.partition(".")
        module = f"consensuskit.{layer}"
        fn = getattr(importlib.import_module(module), attr, None)
        return (inspect.isfunction(fn) and not attr.startswith("_")
                and (fn.__module__, fn.__name__) == (module, attr))

    assert [name for name in _TRACED_LAYER_NAMES if not traced(name)] == []


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


def test_powers_match_sequential_products():
    # P[m, j] = S_m ** (j + 1) by doubling against one product at a time,
    # for RK4-like step matrices of two modes and counts that are and are
    # not powers of two (measured 5.2e-15 of the largest entry at most,
    # at count 256; asserted at 2e-14)
    rng = np.random.default_rng(3)
    step = np.eye(9) + 0.05 * rng.standard_normal((2, 9, 9))
    for count in (1, 2, 37, 64, 256):
        got = sim._powers(step, count)
        assert got.shape == (2, count, 9, 9)
        want = [step]
        for _ in range(count - 1):
            want.append(want[-1] @ step)
        want = np.stack(want, axis=1)
        assert np.array_equal(got[:, 0], step)
        assert np.allclose(got, want, rtol=0.0,
                           atol=2e-14 * np.abs(want).max())


def _loop_agents():
    """agent1 (damped eta), an augmented agent with non-constant alpha and
    beta, and two pure degree-3 chains."""
    augmented = augment(
        r=2, alpha_tilde=TermTable([[(0.3, (1, 0, 1))]], scalar=True),
        beta_tilde=TermTable([[(2.0, ()), (1.0, (0, 2))]], scalar=True),
        theta_tilde=None, xi0=[-0.4, 0.2, 0.5], u0=0.7, agent_id=2)
    rng = np.random.default_rng(2)
    return ([builtin("agent1").with_initial(xi0=[0.8, -0.3], eta0=[0.4]),
             augmented]
            + [_chain_agent(3 + i, 3, rng.uniform(-1.0, 1.0, 3))
               for i in range(2)])


def _rk4_reference(agents, target, gain, laps, modes, dt):
    """Classical RK4 of the whole closed loop, one step at a time in numpy,
    with the graph of modes[k] over step k: z' = (I (x) A - L (x) B K) z,
    eta' = theta of each agent, u' = (u_hat - alpha) / beta of each
    augmented agent.  Returns the chains, the eta and the u of every
    sample."""
    n, r = len(agents), target.r
    bk = np.outer(target.B, gain.K)
    phis = [np.kron(np.eye(n), target.A) - np.kron(lap, bk) for lap in laps]
    nz = n * r
    ends = np.cumsum([nz] + [ag.n_eta for ag in agents])
    aug = [i for i, ag in enumerate(agents) if ag.kind == AUGMENTED_GENERAL]

    def local(x, i):
        return np.r_[x[i * r:i * r + agents[i].r], x[ends[i]:ends[i + 1]]]

    def f(x, phi):
        dz = phi @ x[:nz]
        deta = [ag.theta.at(local(x, i)) for i, ag in enumerate(agents)
                if ag.n_eta]
        du = [(dz[i * r + agents[i].r - 1] - agents[i].alpha.at(local(x, i))[0])
              / agents[i].beta.at(local(x, i))[0] for i in aug]
        return np.concatenate([dz, *deta, du])

    x = np.concatenate([np.pad(ag.xi0, (0, r - ag.r)) for ag in agents]
                       + [ag.eta0 for ag in agents]
                       + [[agents[i].u0 for i in aug]])
    out = [x]
    for m in modes[:-1]:
        k1 = f(x, phis[m])
        k2 = f(x + 0.5 * dt * k1, phis[m])
        k3 = f(x + 0.5 * dt * k2, phis[m])
        k4 = f(x + dt * k3, phis[m])
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    out = np.array(out)
    return out[:, :nz].reshape(-1, n, r), out[:, nz:ends[-1]], out[:, ends[-1]:]


@pytest.mark.parametrize("schedule, steps, longest", [
    ("every_step", 300, 1),     # a switch at every step: one-step segments
    ("on_boundary", 700, 227),  # switches at steps 227, 454 and 681
    ("one_mode", 600, 256),     # 600 = 2 * 256 + 88 steps
])
def test_linear_pass_matches_stepwise_rk4(target, unit_gain, monkeypatch,
                                          schedule, steps, longest):
    # the z of a segment is one product with the powers of its mode's step
    # matrix, and its cascade inputs one product with G; both must give
    # what RK4 one step at a time gives (measured, as a share of the
    # largest value, at most 5.7e-15 on the chains, 1.7e-15 on eta and
    # 2.9e-15 on u over the three schedules; asserted at 2e-14).  With
    # nz = 12 the powers of two modes fit the budget up to B = 2 ** 19 //
    # (8 * 2 * 12 * 12) = 227 steps, of one mode up to the cap of 256; the
    # plan makes min(B, steps) of them, and the run's longest segment is
    # `longest` steps
    counts = []
    real = sim._powers

    def record(step, count):
        counts.append(count)
        return real(step, count)

    monkeypatch.setattr(sim, "_powers", record)
    agents = _loop_agents()
    g1, g2 = default_switching_pair(4)
    laps = [ck.laplacian(g) for g in (g1, directed_cycle(4))]
    k = np.arange(steps + 1)
    modes = {"every_step": k % 2, "on_boundary": (k // 227) % 2,
             "one_mode": 0 * k}[schedule]
    dt = 0.01
    topology = (g1 if schedule == "one_mode" else MarkovTopology(
        graphs=[g1, directed_cycle(4)], generator=FLIP_FLOP))
    scen = build_scenario(agents, target, unit_gain, topology,
                          t_end=steps * dt, dt=dt)
    traj = sim._integrate(scen, modes)
    size = 256 if schedule == "one_mode" else 227
    assert counts == [min(size, steps)]
    assert max(b - a for chunk in sim._chunks(modes, size)
               for a, b in chunk) == longest
    xi, eta, u = _rk4_reference(agents, target, unit_gain, laps, modes, dt)
    assert traj.times.shape == (steps + 1,)
    assert np.allclose(traj.xi_hat, xi, rtol=0.0,
                       atol=2e-14 * np.abs(xi).max())
    assert np.allclose(np.hstack(traj.eta), eta, rtol=0.0,
                       atol=2e-14 * np.abs(eta).max())
    assert np.allclose(traj.u[:, 1], u[:, 0], rtol=0.0,
                       atol=2e-14 * np.abs(u).max())
    assert np.abs(u[:, 0] - u[0, 0]).max() > 0.05  # u does move


def test_linear_pass_segments_shrink_for_a_large_state(target, unit_gain,
                                                       monkeypatch):
    # 8 chains of degree 3 make nz = 24, so the powers of one mode's step
    # matrix fit the budget only up to B = 2 ** 19 // (8 * 24 * 24) = 113
    # steps; a 700-step run is then six segments of 113 steps and one of
    # 22, and must still follow the step matrix applied one step at a time
    # (measured 8.1e-15 of the largest chain value; asserted at 4e-14)
    counts = []
    real = sim._powers

    def record(step, count):
        counts.append(count)
        return real(step, count)

    monkeypatch.setattr(sim, "_powers", record)
    agents = [_chain_agent(i + 1, 3, np.random.default_rng(i).uniform(
        -1.0, 1.0, 3)) for i in range(8)]
    cycle = directed_cycle(8)
    dt = 0.01
    traj = simulate_fixed(build_scenario(agents, target, unit_gain, cycle,
                                         t_end=7.0, dt=dt))
    assert counts == [113]
    hphi = dt * (np.kron(np.eye(8), target.A)
                 - np.kron(ck.laplacian(cycle), np.outer(target.B, unit_gain.K)))
    step, term = np.eye(24), np.eye(24)
    for j in range(1, 5):
        term = term @ hphi / j
        step = step + term
    z = [np.array([ag.xi0 for ag in agents]).ravel()]
    for _ in range(700):
        z.append(step @ z[-1])
    z = np.array(z)
    assert np.allclose(traj.xi_hat.reshape(701, 24), z, rtol=0.0,
                       atol=4e-14 * np.abs(z).max())


def test_augmented_input_starts_at_its_u0_exactly(target, unit_gain):
    # the cascade carries u - xi_last; 0.1 + (1e-17 - 0.1) rounds to 0, so
    # u[0] must be recorded as u0 itself, not rebuilt from that difference
    u0, last = 1e-17, 0.1
    assert last + (u0 - last) != u0
    agents = [augment(r=2, alpha_tilde=ZERO, beta_tilde=ONE, theta_tilde=None,
                      xi0=[0.3, -0.2, last], u0=u0, agent_id=1),
              _chain_agent(2, 3, [-0.5, 0.1, 0.2]),
              _chain_agent(3, 3, [0.2, 0.4, -0.3])]
    traj = simulate_fixed(build_scenario(agents, target, unit_gain,
                                         directed_cycle(3), t_end=0.1,
                                         dt=0.01))
    assert traj.u[0, 0] == u0
    assert traj.xi_hat[0, 0, 2] == last


@pytest.mark.parametrize("observer", [False, True])
def test_run_too_long_to_record_is_refused_before_allocating(
        target, unit_gain, five_agents, five_cycle, monkeypatch, observer):
    # 1e8 steps of the fixed scenario would record 19 states per sample
    # (34 with an observer) in ~15 GB (~27 GB): refused under sim.t_end,
    # naming the bytes, before the grid or any state row exists
    def no_system(*args):
        raise AssertionError("reached the set-up that precedes the rows")

    monkeypatch.setattr(sim, "_System", no_system)
    obs = (ck.observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
           if observer else None)
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                observer=obs, t_end=1e5, dt=1e-3)
    size = (1e8 + 1) * (34 if observer else 19) * 8
    with pytest.raises(ck.ValidationError) as exc:
        (simulate_with_observer if observer else simulate_fixed)(scen)
    assert exc.value.field == "sim.t_end"
    assert f"{size:.4g} bytes" in str(exc.value)
    assert str(sim._ROWS_BYTES) in str(exc.value)


def test_switching_run_too_long_is_refused_before_its_path(
        target, unit_gain, five_agents, monkeypatch):
    def no_path(*args):
        raise AssertionError("sampled a path for a run that cannot be recorded")

    monkeypatch.setattr(sim, "sample_path", no_path)
    scen = _switching_scenario(target, unit_gain, five_agents,
                               t_end=1e5, dt=1e-3, init="random")
    with pytest.raises(ck.ValidationError) as exc:
        simulate_switching(scen)
    assert exc.value.field == "sim.t_end"
    with pytest.raises(ck.ValidationError):
        monte_carlo_ms(scen, runs=2)


def test_monte_carlo_checks_A4_once(target, unit_gain, five_agents,
                                    monkeypatch):
    checked = []
    real = sim.check_A4

    def counting(mt):
        checked.append(mt)
        return real(mt)

    monkeypatch.setattr(sim, "check_A4", counting)
    scen = _switching_scenario(target, unit_gain, five_agents,
                               t_end=0.2, dt=0.01, init="random", seed=4)
    assert monte_carlo_ms(scen, runs=3).runs_used == 3
    assert checked == [scen.topology]
    # a failing union graph is the ValidationError of a single run
    mt = MarkovTopology(graphs=[empty_graph(5), empty_graph(5)],
                        generator=FLIP_FLOP)
    bad = build_scenario(five_agents, target, unit_gain, mt,
                         t_end=0.2, dt=0.01, init="random", seed=2)
    with pytest.raises(ck.ValidationError) as single:
        simulate_switching(bad)
    with pytest.raises(ck.ValidationError) as mc:
        monte_carlo_ms(bad, runs=3)
    assert str(mc.value) == str(single.value)


def test_grid_refuses_at_the_width_the_system_allocates(target, unit_gain):
    # the size check before allocation reads the state width from the same
    # layout as _System: agent 1's eta, the augmented agent's u and, with
    # an observer, the xcheck half of z
    agents = _loop_agents()
    obs = ck.observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
    scen = build_scenario(agents, target, unit_gain, directed_cycle(4),
                          observer=obs, t_end=1e300, dt=1e-3)
    for use_observer in (False, True):
        dim = sim._System(scen, use_observer).dim
        assert dim == 4 * 3 * (1 + use_observer) + 1 + 1
        with pytest.raises(ck.ValidationError) as info:
            sim._grid(scen, use_observer)
        assert f" steps of {dim} states take " in str(info.value)


def test_monte_carlo_builds_its_plan_once(target, unit_gain, five_agents,
                                          monkeypatch):
    # the runs share the plan the first one built, and still go through
    # simulate_switching one by one; the mean is the same sum of the same
    # runs as when each is simulated alone
    built = {"_System": 0, "_step_matrices": 0, "_powers": 0}

    def counted(name):
        real = getattr(sim, name)

        def count(*args):
            built[name] += 1
            return real(*args)
        return count

    for name in built:
        monkeypatch.setattr(sim, name, counted(name))
    calls = []
    real = sim.simulate_switching

    def recording(*args, **kwargs):
        calls.append(kwargs.get("run_index"))
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "simulate_switching", recording)
    scen = _switching_scenario(target, unit_gain, five_agents,
                               t_end=1.0, dt=0.01, init="random", seed=8)
    mc = monte_carlo_ms(scen, runs=3)
    assert built == {"_System": 1, "_step_matrices": 1, "_powers": 1}
    assert calls == [0, 1, 2]
    total = sim._max_pairwise_sq(real(scen, run_index=0).xi_hat)
    for k in (1, 2):
        total += sim._max_pairwise_sq(real(scen, run_index=k).xi_hat)
    assert np.array_equal(mc.mean_square, total / 3)
    assert built["_System"] == 1


def test_fixed_and_observer_simulations_get_distinct_plans(
        target, unit_gain, five_agents, five_cycle):
    obs = ck.observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                observer=obs, t_end=0.5, dt=0.01)
    simulate_fixed(scen)
    simulate_with_observer(scen)
    full, observed = scen._plans[False], scen._plans[True]
    assert full is not observed
    assert (full.nz, observed.nz) == (15, 30)
    simulate_fixed(scen)
    assert sim._plan(scen, False) is full


def test_scenario_is_frozen_and_replace_starts_a_new_plan(
        target, unit_gain, five_agents, five_cycle):
    scen = _five_agent_scenario(target, unit_gain, five_agents, five_cycle,
                                t_end=0.5, dt=0.01)
    with pytest.raises(FrozenInstanceError):
        scen.t_end = 1.0
    simulate_fixed(scen)
    longer = replace(scen, t_end=1.0)
    assert longer._plans == {}
    assert simulate_fixed(longer).times.shape == (101,)
    # each plan holds the powers of its own run: min(B, steps)
    assert longer._plans[False] is not scen._plans[False]
    assert longer._plans[False].powers.shape[1] == 100
    assert scen._plans[False].powers.shape[1] == 50


def test_a_dropped_scenario_is_freed_without_the_cyclic_collector(
        target, unit_gain, five_agents, five_cycle):
    # the plan a scenario keeps holds no reference back to it, so the
    # scenario and its plans go with its last reference
    obs = ck.observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
    gc.disable()
    try:
        scen = _five_agent_scenario(target, unit_gain, five_agents,
                                    five_cycle, observer=obs, t_end=0.2,
                                    dt=0.01)
        simulate_fixed(scen)
        simulate_with_observer(scen)
        assert len(scen._plans) == 2
        alive = weakref.ref(scen)
        del scen
        assert alive() is None
    finally:
        gc.enable()


def _outcome(run):
    """The escape or beta floor error a run raises, as comparable data."""
    with np.errstate(all="ignore"):
        with pytest.raises((ck.FiniteEscape, ck.BetaNearZero)) as info:
            run()
    err = info.value
    if isinstance(err, ck.BetaNearZero):
        return "beta", err.agent_id, err.state
    traj = err.trajectory
    return ("escape", err.t, traj.xi_hat, np.hstack(traj.eta), traj.u,
            traj.err)


def _same(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b))


@pytest.mark.parametrize("layout", ["every_step", "observer"])
@pytest.mark.parametrize("failure", ["escape", "zero_beta", "beta_floor"])
def test_failures_inside_a_chunk_match_one_segment_per_chunk(
        target, unit_gain, monkeypatch, layout, failure):
    # one agent leaves the guard ball (eta' = eta^3 from 0.6, blowing up
    # at t = 1/0.72 = 1.39) or divides by zero in the cascade: beta = eta
    # with eta' = -1 from 2 at dt = 1/64 is exact, so stage 4 of step 127
    # reads beta = 0.0; with a floor of 0.05, sample 125 (beta = 3/64) is
    # reported first.  Either happens past the first segment of a chunk of
    # several, one-step segments of a switch at every step or the 72-step
    # segments of the observer layout, and must be reported as when each
    # segment is its own chunk
    dt = 1.0 / 64.0
    if failure == "escape":
        odd = NormalFormAgent(
            agent_id=1, r=2, n_eta=1, alpha=ZERO, beta=ONE,
            theta=TermTable([[(1.0, (0, 0, 3))]]),
            xi0=np.array([0.1, 0.0]), eta0=np.array([0.6]))
    else:
        odd = augment(r=2, alpha_tilde=ZERO,
                      beta_tilde=TermTable([[(1.0, (0, 0, 0, 1))]],
                                           scalar=True),
                      theta_tilde=TermTable([[(-1.0, ())]]),
                      xi0=[0.2, -0.1, 0.3], eta0=[2.0], u0=0.1, agent_id=1)
    if failure == "beta_floor":
        monkeypatch.setattr(ck.settings, "beta_floor", 0.05)
    agents = [odd, builtin("agent1"), builtin("agent2"),
              _chain_agent(4, 3, [0.5, 0.0, -0.2]),
              _chain_agent(5, 2, [-0.4, 0.1])]
    steps = 320
    if layout == "every_step":
        g1, g2 = default_switching_pair(5)
        scen = build_scenario(agents, target, unit_gain, MarkovTopology(
            graphs=[g1, g2], generator=FLIP_FLOP), t_end=steps * dt, dt=dt)
        modes = np.arange(steps + 1) % 2

        def run():
            sim._integrate(scen, modes)
    else:
        obs = ck.observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
        scen = build_scenario(agents, target, unit_gain, directed_cycle(5),
                              observer=obs, t_end=steps * dt, dt=dt)
        modes = np.zeros(steps + 1, dtype=int)

        def run():
            simulate_with_observer(scen)

    grouped = _outcome(run)
    size = sim._plan(scen, layout == "observer").powers.shape[1]
    assert size == (72 if layout == "observer" else 145)
    real = sim._chunks
    monkeypatch.setattr(sim, "_chunks", lambda modes, size: [
        [segment] for chunk in real(modes, size) for segment in chunk])
    alone = _outcome(run)
    assert grouped[0] == ("beta" if failure == "beta_floor" else "escape")
    assert _same(grouped, alone)
    nz = 30 if layout == "observer" else 15
    if failure == "escape":
        assert 1.3 < grouped[1] < 1.5
        last = int(round(grouped[1] / dt))
    elif failure == "zero_beta":
        assert grouped[1] == 128 * dt  # the step from 127 made no state
        assert np.isfinite(grouped[4]).all()
        last = 128
    else:
        assert grouped[1] == 1 and grouped[2][nz] == 3.0 / 64.0
        last = 125
    # the failing step lies past the first segment of a chunk of several
    chunk = next(c for c in real(modes, size) if c[0][0] < last <= c[-1][1])
    assert len(chunk) > 1 and last > chunk[0][1]


def test_chunks_group_whole_segments_of_one_mode():
    # segments of at most `size` steps never straddle a mode jump; chunks
    # are whole consecutive segments of at most 256 steps, a new one
    # opening only where the next segment would not fit
    rng = np.random.default_rng(5)
    for size in (1, 72, 145, 256):
        modes = np.repeat(rng.integers(0, 2, 60), rng.integers(1, 40, 60))
        chunks = sim._chunks(modes, size)
        segments = [s for chunk in chunks for s in chunk]
        assert segments[0][0] == 0 and segments[-1][1] == modes.shape[0] - 1
        assert all(b == c for (_, b), (c, _) in zip(segments, segments[1:]))
        for a, b in segments:
            assert 0 < b - a <= size
            assert (modes[a:b] == modes[a]).all()
        for chunk, after in zip(chunks, chunks[1:] + [None]):
            assert chunk[-1][1] - chunk[0][0] <= 256
            if after is not None:
                assert after[0][1] - chunk[0][0] > 256
    every = sim._chunks(np.arange(601) % 2, 145)
    assert [len(chunk) for chunk in every] == [256, 256, 88]
