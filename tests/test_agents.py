import dataclasses

import numpy as np
import pytest

from consensuskit import errors
from consensuskit.agents import (
    AUGMENTED_GENERAL, NormalFormAgent, TermTable, augment, builtin,
    eval_dynamics, linearizing_input,
)
from consensuskit.rng import rng_for
from consensuskit.scenario import parse_scenario

ZERO = TermTable([[]])
ONE = TermTable([[(1.0, ())]])
NO_INTERNAL = TermTable([])


def _xi_inverse(xi):
    # independent re-derivation of the inverse coordinate map for agent 3
    x2 = xi[0]
    x3 = xi[1] - x2 ** 2
    x1 = xi[2] - 3.0 * x2 * xi[1] + x2 ** 3
    return np.array([x1, x2, x3])


def test_builtin_internal_damping_parameters():
    # at xi1 = 0, eta = 2 the internal derivative is -a*2 - 2**p,
    # which separates all four damped agents
    expected = {"agent1": -34.0, "agent2": -10.0, "agent4": -16.0, "agent5": -36.0}
    for name, want in expected.items():
        ag = builtin(name)
        assert (ag.r, ag.n_eta) == (2, 1)
        dxi, deta, u = eval_dynamics(ag, np.array([0.0, 0.5]), np.array([2.0]), 0.0)
        assert deta[0] == pytest.approx(want, abs=1e-14)
        assert np.array_equal(dxi, [0.5, 0.0])
        assert u == 0.0
        # far out the power overflows to an infinite derivative, not to an
        # exception, so a diverging run still reaches the finite-escape guard
        with np.errstate(over="ignore"):
            assert ag.theta(np.zeros(2), np.array([-1e200]))[0] == np.inf


def test_builtin_chain_shift_and_input_slot():
    ag = builtin("agent2")
    dxi, deta, u = eval_dynamics(ag, np.array([2.0, -1.0]), np.array([1.0]), 7.0)
    assert np.array_equal(dxi, [-1.0, 7.0])
    # alpha = 0, beta = 1 for the damped builtins, so u == u_hat
    assert u == 7.0
    assert deta[0] == pytest.approx(-1.0 - 1.0 + 2.0)


def _doc_terms(terms):
    return [{"c": c, "e": list(e)} for c, e in terms]


def test_builtin_and_parsed_agents_carry_term_tables():
    # the simulator stacks the tables of all agents; construction rejects
    # anything else (test_normal_form_validation).  The custom agent's
    # terms hold +-1 and 0.0 coefficients, a constant term, a cube and
    # repeated exponents, and each parsed table is the one TermTable
    # builds from the same terms
    alpha = [(-1.0, (1, 0, 0, 0)), (0.0, (0, 0, 2, 0)), (2.5, (0, 0, 0, 0)),
             (1.0, (1, 0, 0, 0)), (0.5, (0, 3, 0, 1))]
    beta = [(1.0, (0, 0, 0, 0)), (-1.0, (0, 2, 0, 0))]
    theta = [[(-1.0, (0, 0, 1, 0)), (0.0, (0, 0, 1, 0))], []]
    custom = {"custom": {
        "r": 2, "n_eta": 2, "alpha": _doc_terms(alpha),
        "beta": _doc_terms(beta),
        "theta": [_doc_terms(row) for row in theta],
        "xi0": [0.0, 0.0], "eta0": [0.0, 0.0]}}
    doc = {"agents": [{"builtin": f"agent{i}"} for i in range(1, 6)] + [custom],
           "controller": {"poles": [-1.0, -2.0], "mu": 1.0, "q1": 1.0,
                          "r_hat": 1.0, "rank": "one"},
           "graph": {"n": 6, "edges": [[k, k % 6 + 1, 1.0] for k in range(1, 7)]},
           "sim": {"t_end": 1.0, "dt": 0.01}}
    agents = [builtin(f"agent{i}") for i in range(1, 6)]
    agents += parse_scenario(doc).agents
    for ag in agents:
        for fn in (ag.alpha, ag.beta, ag.theta):
            assert isinstance(fn, TermTable), (ag.agent_id, fn)
        assert (ag.alpha.n_rows, ag.beta.n_rows) == (1, 1)
        assert ag.theta.n_rows == ag.n_eta

    parsed = agents[-1]
    names = ["a", "b", "c", "d"]
    for table, rows in ((parsed.alpha, [alpha]), (parsed.beta, [beta]),
                        (parsed.theta, theta)):
        built = TermTable(rows)
        assert table._terms == built._terms
        assert table.variables == built.variables
        sources = [(t._source(names, coefs, squares), coefs,
                    list(squares.values()))
                   for t, coefs, squares in ((table, [], {}), (built, [], {}))]
        assert sources[0] == sources[1]

    # a one-row table serves as alpha, beta or a one-state theta alike,
    # and called it returns its one row
    one_row = TermTable([beta])
    ag = NormalFormAgent(agent_id=7, r=2, n_eta=1, alpha=one_row,
                         beta=one_row, theta=one_row, xi0=np.zeros(2),
                         eta0=np.zeros(1))
    assert np.array_equal(ag.beta(np.array([0.0, 3.0]), np.zeros(1)), [-8.0])


def test_builtin_rejects_unknown_name():
    with pytest.raises(errors.ValidationError,
                       match="no builtin agent named 'agent9'"):
        builtin("agent9")


def test_builtin_is_one_shared_frozen_agent_per_name():
    for name in ("agent1", "agent2", "agent3", "agent4", "agent5"):
        ag = builtin(name)
        assert builtin(name) is ag
        with pytest.raises(dataclasses.FrozenInstanceError):
            ag.xi0 = np.ones(ag.r)
        arrays = [ag.xi0, ag.eta0] + ([ag.native.x0] if ag.native else [])
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 1.0
        assert all(not np.any(arr) for arr in arrays)
    assert len({id(builtin(f"agent{i}")) for i in range(1, 6)}) == 5


def test_with_initial_leaves_the_shared_builtin_unchanged():
    shared = builtin("agent2")
    moved = shared.with_initial(xi0=[1.0, -2.0], eta0=[0.5])
    assert moved is not shared and builtin("agent2") is shared
    assert np.array_equal(moved.xi0, [1.0, -2.0])
    assert not moved.xi0.flags.writeable
    assert np.array_equal(shared.xi0, [0.0, 0.0])
    assert np.array_equal(shared.eta0, [0.0])

    native = builtin("agent3")
    placed = native.with_initial(x0=[0.5, -1.0, 2.0])
    assert placed is not native and placed.native is not native.native
    assert np.array_equal(native.native.x0, np.zeros(3))
    assert np.array_equal(native.xi0, np.zeros(3))


def test_agent3_coordinate_map_round_trip():
    ag = builtin("agent3")
    assert ag.native is not None
    rng = rng_for(301)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=3)
        xi = ag.native.xi_of(x)
        assert np.allclose(_xi_inverse(xi), x, atol=1e-12)


def test_agent3_alpha_agrees_across_coordinates():
    ag = builtin("agent3")
    rng = rng_for(302)
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, size=3)
        xi = ag.native.xi_of(x)
        assert ag.alpha(xi, np.empty(0)) == pytest.approx(
            ag.native.alpha_of(x), rel=1e-12, abs=1e-12)


def test_agent3_chain_property_numerically():
    # the time derivative of xi(x(t)) along the raw dynamics must equal
    # (xi2, xi3, alpha + u); checked by central differencing the map
    ag = builtin("agent3")
    native = ag.native
    rng = rng_for(303)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=3)
        u = float(rng.uniform(-2.0, 2.0))
        f = native.deriv(x, u)
        dxi_num = (native.xi_of(x + h * f) - native.xi_of(x - h * f)) / (2.0 * h)
        xi = native.xi_of(x)
        dxi_expect = np.array([xi[1], xi[2], native.alpha_of(x) + u])
        assert np.allclose(dxi_num, dxi_expect, atol=1e-6)
    far = np.full(3, 1e200)
    assert np.all(np.isinf(native.deriv(far, 0.0)))
    assert np.all(np.isinf(native.xi_of(far)[1:]))
    assert np.isinf(native.alpha_of(far))


def test_linearizing_input_beta_floor():
    ag = NormalFormAgent(
        agent_id=9, r=2, n_eta=0,
        alpha=ZERO,
        beta=TermTable([[(1.0, (1,))]]),  # beta = xi_1
        theta=NO_INTERNAL,
        xi0=np.zeros(2), eta0=np.empty(0))
    with pytest.raises(errors.BetaNearZero) as exc:
        linearizing_input(ag, np.array([0.0, 1.0]), np.empty(0), 1.0)
    assert exc.value.agent_id == 9
    assert np.array_equal(exc.value.state, [0.0, 1.0])
    # away from the floor the cancellation is exact
    u = linearizing_input(ag, np.array([2.0, 1.0]), np.empty(0), 3.0)
    assert u == pytest.approx(1.5)


def _agent(r=2, n_eta=0, **maps):
    kwargs = dict(alpha=ZERO, beta=ONE, theta=TermTable([[]] * n_eta),
                  xi0=np.zeros(r), eta0=np.zeros(n_eta))
    kwargs.update(maps)
    return NormalFormAgent(agent_id=1, r=r, n_eta=n_eta, **kwargs)


def test_normal_form_validation():
    assert _agent().r == 2
    bad = [
        (dict(r=0, xi0=np.empty(0)), "relative degree must be >= 1"),
        (dict(xi0=np.zeros(3)), "xi0 has length 3, expected r = 2"),
        # maps that are not term tables
        (dict(beta=lambda xi, eta: 1.0), "beta must be a TermTable"),
        (dict(theta=np.empty(0)), "theta must be a TermTable"),
        # alpha and beta are one row (theta: test below)
        (dict(alpha=TermTable([[], []])),
         "alpha must be a table of 1 rows, got 2 rows"),
        (dict(beta=TermTable([])), "beta must be a table of 1 rows, got 0"),
        # an exponent vector longer than r + n_eta = 2
        (dict(alpha=TermTable([[(1.0, (0, 0, 1))]])),
         "alpha reads variable 3, past r"),
        (dict(n_eta=1, theta=TermTable([[(1.0, (0, 0, 0, 2))]])),
         "theta reads variable 4, past r"),
    ]
    for kwargs, message in bad:
        with pytest.raises(errors.ValidationError, match=message):
            _agent(**kwargs)


def test_term_table_takes_only_non_negative_integer_exponents():
    # a map is a polynomial: 0.5 and 1.7 were truncated to 0 and 1 (xi^0.5
    # read as 1.0, xi^1.7 as xi) and -1 was taken; 2.0 means 2
    for p in (0.5, 1.7, -1, float("nan"), "2"):
        with pytest.raises(errors.ValidationError,
                           match=r"row 1, term 2: exponent .* of variable 1"):
            TermTable([[(1.0, (1,))],
                       [(1.0, (1,)), (2.0, (0, 1)), (3.0, (0, p))]])
    x = np.array([[0.7, -1.3], [2.0, 0.5]])
    assert np.array_equal(TermTable([[(3.0, (0, 2.0))]]).at(x),
                          TermTable([[(3.0, (0, 2))]]).at(x))
    coefs, squares = [], {}
    assert TermTable([[(3.0, (1.0, 2.0))]])._source(
        ["a", "b"], coefs, squares) == ["c0 * (a * b_sq1)"]
    assert list(squares.values()) == ["b_sq1 = b * b"]


def test_eval_dynamics_checks_sizes():
    ag = builtin("agent1")
    with pytest.raises(errors.ValidationError,
                       match=r"state sizes \(3, 1\) do not match agent"):
        eval_dynamics(ag, np.zeros(3), np.zeros(1), 0.0)
    # a theta with the wrong number of rows never makes an agent
    with pytest.raises(errors.ValidationError,
                       match="theta must be a table of 1 rows, got 2 rows"):
        _agent(n_eta=1, theta=TermTable([[], []]))


def test_with_initial_rules():
    damped = builtin("agent1")
    moved = damped.with_initial(xi0=[1.0, 2.0], eta0=[3.0])
    assert np.array_equal(moved.xi0, [1.0, 2.0])
    assert np.array_equal(moved.eta0, [3.0])
    with pytest.raises(errors.ValidationError,
                       match="has no native coordinates"):
        damped.with_initial(x0=[1.0, 2.0, 3.0])

    native = builtin("agent3")
    x = np.array([0.5, -1.0, 2.0])
    placed = native.with_initial(x0=x)
    assert np.allclose(placed.xi0, native.native.xi_of(x))
    assert np.array_equal(placed.native.x0, x)
    with pytest.raises(errors.ValidationError, match="takes x0, not xi0"):
        native.with_initial(xi0=[0.0, 0.0, 0.0])
    with pytest.raises(errors.ValidationError,
                       match="x0 has length 2, expected 3"):
        native.with_initial(x0=[1.0, 2.0])


def test_augment_wraps_general_input():
    ag = augment(
        r=2,
        alpha_tilde=ZERO,
        beta_tilde=ONE,
        theta_tilde=None,
        xi0=[1.0, 0.0, 0.5],
        u0=0.25,
        agent_id=7)
    assert ag.r == 3
    assert ag.kind == AUGMENTED_GENERAL
    assert ag.u0 == 0.25
    assert ag.agent_id == 7
    with pytest.raises(errors.ValidationError,
                       match=r"augmented chain needs r \+ 1 = 3 initial"):
        augment(r=2, alpha_tilde=ZERO, beta_tilde=ONE, theta_tilde=None,
                xi0=[1.0, 0.0])
