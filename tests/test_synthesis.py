from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

import consensuskit as ck
from consensuskit.synthesis import (
    assemble_stacked, closed_loop_spectrum, design_companion, full_gain,
    local_controller, observer_gain, rank_one_gain,
)


def _random_target(rng, r):
    """Random companion target of degree r with conjugate-closed stable poles."""
    n_poles = r - 1
    poles = []
    while len(poles) < n_poles:
        if n_poles - len(poles) >= 2 and rng.random() < 0.5:
            re = -rng.uniform(0.3, 3.0)
            im = rng.uniform(0.2, 2.0)
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles.append(complex(-rng.uniform(0.3, 3.0), 0.0))
    return design_companion(poles)


def test_design_companion_two_poles_exact(target):
    assert target.r == 3
    assert np.array_equal(target.b, [2.0, 3.0])
    assert np.array_equal(target.nu, [2.0, 3.0, 1.0])
    assert np.array_equal(target.A, [[0.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0],
                                     [0.0, -2.0, -3.0]])
    assert np.array_equal(target.B, [0.0, 0.0, 1.0])
    assert np.array_equal(target.stable_poles, [-2.0 + 0j, -1.0 + 0j])


def test_companion_left_null_vector_is_exact():
    rng = ck.rng_for(401)
    for _ in range(20):
        cs = _random_target(rng, int(rng.integers(2, 6)))
        assert np.array_equal(cs.nu @ cs.A, np.zeros(cs.r))
        assert cs.B @ cs.nu == 1.0
        # spectrum of A is the zero root plus the requested poles
        vals = np.sort_complex(np.linalg.eigvals(cs.A))
        want = np.sort_complex(np.append(cs.stable_poles, 0.0))
        assert np.allclose(vals, want, atol=1e-8)


def test_design_companion_rejects_bad_pole_sets():
    with pytest.raises(ck.UnstablePoleError):
        design_companion([])
    with pytest.raises(ck.UnstablePoleError):
        design_companion([1.0])
    with pytest.raises(ck.UnstablePoleError):
        design_companion([-1.0, 0.0])
    with pytest.raises(ck.NotConjugateClosedError):
        design_companion([-1.0 + 1.0j, -2.0])


def test_rank_one_gain_exact_values(target, unit_gain):
    assert np.array_equal(unit_gain.K, [2.0, 3.0, 1.0])
    assert np.array_equal(unit_gain.P1, [[4.0, 6.0, 2.0],
                                         [6.0, 9.0, 3.0],
                                         [2.0, 3.0, 1.0]])
    assert unit_gain.rank == "one"
    assert unit_gain.q1 == 1.0


def test_rank_one_gain_scaling(target):
    g = rank_one_gain(target, mu=2.0, q1=4.0, r_hat=9.0)
    # K = mu sqrt(q1 r_hat) nu = 2 * 6 * nu
    assert np.allclose(g.K, 12.0 * target.nu, atol=1e-12)
    # P1 = sqrt(q1)/sqrt(r_hat) nu nu' = (2/3) nu nu'
    assert np.allclose(g.P1, (2.0 / 3.0) * np.outer(target.nu, target.nu),
                       atol=1e-12)


def test_rank_one_riccati_residual_property():
    rng = ck.rng_for(402)
    for _ in range(20):
        cs = _random_target(rng, int(rng.integers(2, 6)))
        q1 = float(rng.uniform(0.2, 10.0))
        r_hat = float(rng.uniform(0.2, 10.0))
        g = rank_one_gain(cs, mu=1.0, q1=q1, r_hat=r_hat)
        a, b, p = cs.A, cs.B, g.P1
        resid = (p @ a + a.T @ p + q1 * np.outer(cs.nu, cs.nu)
                 - r_hat * np.outer(p @ b, b @ p))
        assert np.abs(resid).max() <= 1e-9


def test_rank_one_matches_numeric_riccati(target):
    q1, r_hat = 2.5, 1.5
    g = rank_one_gain(target, mu=1.0, q1=q1, r_hat=r_hat)
    numeric = ck.solve_care(target.A, target.B.reshape(-1, 1),
                            q1 * np.outer(target.nu, target.nu),
                            np.array([[1.0 / r_hat]]))
    rel = np.linalg.norm(numeric - g.P1) / np.linalg.norm(g.P1)
    assert rel <= 1e-6


def test_gain_parameter_gates(target):
    for kwargs in ({"mu": 0.0, "q1": 1.0, "r_hat": 1.0},
                   {"mu": 1.0, "q1": -2.0, "r_hat": 1.0},
                   {"mu": 1.0, "q1": 1.0, "r_hat": 0.0},
                   {"mu": np.inf, "q1": 1.0, "r_hat": 1.0}):
        with pytest.raises(ck.NonPositiveParameterError):
            rank_one_gain(target, **kwargs)
    with pytest.raises(ck.NonPositiveParameterError):
        full_gain(target, mu=-1.0, q1_matrix=np.eye(3), r_hat=1.0)
    with pytest.raises(ck.NonPositiveParameterError):
        full_gain(target, mu=1.0, q1_matrix=np.eye(3), r_hat=-1.0)


def test_full_gain_against_scipy(target):
    mu, r_hat = 2.0, 4.0
    g = full_gain(target, mu=mu, q1_matrix=np.eye(3), r_hat=r_hat)
    ref = scipy.linalg.solve_continuous_are(
        target.A, target.B.reshape(-1, 1), np.eye(3),
        np.array([[1.0 / r_hat]]))
    assert np.allclose(g.P1, ref, atol=1e-8)
    assert np.allclose(g.K, mu * r_hat * (target.B @ ref), atol=1e-8)
    assert g.rank == "full"
    assert g.q1 is None


def test_local_controller_static(target):
    ctl = local_controller(target, SimpleNamespace(r=3))
    assert ctl.static
    assert ctl.E.shape[0] == 0
    assert np.array_equal(ctl.static_row, [0.0, -2.0, -3.0])
    assert ctl.D.shape == (0, 3)
    assert ctl.E.shape == (0, 0)
    assert ctl.G.shape == (0,)


def test_local_controller_degree_one_agent(target):
    ctl = local_controller(target, SimpleNamespace(r=1))
    assert not ctl.static
    assert np.array_equal(ctl.D, [[0.0], [0.0]])
    assert np.array_equal(ctl.E, [[0.0, 1.0], [-2.0, -3.0]])
    assert np.array_equal(ctl.G, [0.0, 1.0])


def test_local_controller_degree_two_agent(target):
    ctl = local_controller(target, SimpleNamespace(r=2))
    assert np.array_equal(ctl.D, [[0.0, -2.0]])
    assert np.array_equal(ctl.E, [[-3.0]])
    assert np.array_equal(ctl.G, [1.0])


def test_local_controller_rejects_excess_degree(target):
    with pytest.raises(ck.DegreeExceedsTargetError):
        local_controller(target, SimpleNamespace(r=4))


def test_assembled_stack_reproduces_target_exactly():
    rng = ck.rng_for(403)
    for _ in range(15):
        cs = _random_target(rng, int(rng.integers(2, 6)))
        for ra in range(1, cs.r + 1):
            ctl = local_controller(cs, SimpleNamespace(r=ra))
            m, bvec = assemble_stacked(cs, ctl)
            assert np.array_equal(m, cs.A)
            assert np.array_equal(bvec, cs.B)


def test_observer_gain_places_poles(target):
    obs = observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
    closed = target.A - np.outer(obs.M, obs.C)
    achieved = np.sort_complex(np.linalg.eigvals(closed))
    assert np.allclose(achieved, [-5.0, -4.0, -3.0], atol=1e-6)


def test_observer_gain_complex_pair(target):
    obs = observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -2.0 + 1.0j, -2.0 - 1.0j])
    closed = target.A - np.outer(obs.M, obs.C)
    achieved = np.sort_complex(np.linalg.eigvals(closed))
    want = np.sort_complex(np.array([-3.0, -2.0 + 1.0j, -2.0 - 1.0j]))
    assert np.allclose(achieved, want, atol=1e-6)


def test_observer_gain_at_open_loop_spectrum_is_zero(target):
    # requesting the open-loop eigenvalues makes the characteristic
    # polynomial vanish at A, so the injection gain must be zero
    obs = observer_gain(target, [1.0, 0.0, 0.0], [0.0, -1.0, -2.0])
    assert np.allclose(obs.M, 0.0, atol=1e-9)


def test_observer_gain_validation(target):
    with pytest.raises(ck.NotObservableError):
        observer_gain(target, [1.0, 0.0], [-3.0, -4.0, -5.0])
    with pytest.raises(ck.NotObservableError):
        observer_gain(target, [0.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
    with pytest.raises(ck.PlacementFailure):
        observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0])
    with pytest.raises(ck.NotConjugateClosedError):
        observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0 + 1.0j])


def test_closed_loop_spectrum_rank_one(target, unit_gain, five_cycle):
    lap = ck.laplacian(five_cycle)
    check = closed_loop_spectrum(target, unit_gain, lap)
    assert check.analytic_consistent is True
    assert check.values.shape == (15,)
    # one eigenvalue per Laplacian eigenvalue, at -gamma (B'nu = 1, mu = 1)
    gamma = np.sort_complex(np.linalg.eigvals(lap))
    for g in gamma:
        assert np.abs(check.values + g).min() <= 1e-7


def test_closed_loop_spectrum_full_rank_unchecked(target, five_cycle):
    g = full_gain(target, mu=1.0, q1_matrix=np.eye(3), r_hat=1.0)
    check = closed_loop_spectrum(target, g, ck.laplacian(five_cycle))
    assert check.analytic_consistent is None
    assert check.values.shape == (15,)
    # the zero Laplacian eigenvalue contributes an uncoupled copy of A
    for z in (0.0, -1.0, -2.0):
        assert np.abs(check.values - z).min() <= 1e-7


def test_closed_loop_spectrum_accepts_close_repeated_poles():
    # a ten-agent r = 6 rank-one design from the benchmark's design sweep:
    # the ten-fold target poles -1.36368 and -1.35739 lie 0.0063 apart, and
    # one coupling eigenvalue sits 1.3e-4 from the first; the eigenvalues
    # of the blocks A - gamma_i B K near the two poles have cluster means
    # off by 9.2e-10 and 1.0e-9 (tolerance 3.7e-7), their joint mean by
    # 1.6e-12; a dense eig of the whole 60 x 60 closed loop, where each
    # pole is ten-fold, splits them to 1.7e-6 and 1.9e-6 (4.8e-9 jointly)
    cs = design_companion([-1.594601937634916, -1.363681328637382,
                           -2.191370784080726, -1.3573906605668014,
                           -0.8919084088195437])
    gain = rank_one_gain(cs, mu=0.5327097631757879, q1=1.9046398493596408,
                         r_hat=1.7341254659140648)
    edges = [[8, 7, 1.8089278804428917], [7, 3, 0.9501117797464883],
             [3, 2, 0.8487060664629772], [2, 1, 1.0120347628984732],
             [1, 9, 1.0033641266362157], [9, 4, 1.1902988366906815],
             [4, 10, 1.502585495695583], [10, 5, 1.4084274880485101],
             [5, 6, 1.9578446682613952], [9, 2, 0.8989710526028543],
             [7, 3, 1.4228611116720375], [7, 6, 1.6802160794059477],
             [2, 8, 1.953125921814065], [8, 3, 1.0679268164335194]]
    lap = ck.laplacian(ck.graph_from_dict({"n": 10, "edges": edges}))
    check = closed_loop_spectrum(cs, gain, lap)
    assert check.analytic_consistent is True
    assert check.values.shape == (60,)


def _cluster_gap(a, b, radius):
    """Worst gap between the means of a and b over the groups that single
    linkage at `radius` forms in the pooled values; inf when a group holds
    unequal counts of the two."""
    pool = np.concatenate([a, b])
    near = scipy.sparse.csr_matrix(np.abs(pool[:, None] - pool) <= radius)
    _, label = scipy.sparse.csgraph.connected_components(near, directed=False)
    la, lb = label[:a.size], label[a.size:]
    worst = 0.0
    for g in np.unique(label):
        if (la == g).sum() != (lb == g).sum():
            return np.inf
        worst = max(worst, abs(a[la == g].mean() - b[lb == g].mean()))
    return worst


def test_closed_loop_spectrum_matches_kronecker_eig(target, unit_gain,
                                                    five_cycle):
    rng = ck.rng_for(405)
    weights = rng.uniform(0.5, 2.0, (20, 20)) * (rng.random((20, 20)) < 0.2)
    np.fill_diagonal(weights, 0.0)
    cs6 = design_companion([-0.5, -1.0, -1.5 + 0.5j, -1.5 - 0.5j, -2.0])
    gain6 = full_gain(cs6, mu=1.3, q1_matrix=np.diag(np.arange(1.0, 7.0)),
                      r_hat=0.4)
    # L of the directed path is one 19 x 19 Jordan block at 1 plus the
    # root's 0, so the dense eig of the Kronecker form splits each of the
    # six eigenvalues of A - B K into a ring of 19 values up to 0.13 wide
    # (scale 3.05); the rings are compared whole, through their means
    path = ck.laplacian(ck.DiGraph(np.eye(20, k=-1)))
    cases = [(target, unit_gain, ck.laplacian(five_cycle), 1e-2),
             (target, full_gain(target, mu=0.7, q1_matrix=np.eye(3),
                                r_hat=2.0), ck.laplacian(five_cycle), 1e-2),
             (cs6, gain6, ck.laplacian(ck.DiGraph(weights)), 1e-2),
             (cs6, gain6, path, 0.1)]
    for cs, gain, lap, radius in cases:
        values = closed_loop_spectrum(cs, gain, lap).values
        n = lap.shape[0]
        direct = np.linalg.eigvals(np.kron(np.eye(n), cs.A)
                                   - np.kron(lap, np.outer(cs.B, gain.K)))
        scale = max(1.0, float(np.abs(values).max()))
        gap = _cluster_gap(values, direct, radius * scale)
        assert gap <= ck.settings.spectrum_match_tol * scale


def test_closed_loop_spectrum_conjugate_closed_and_sorted(target, five_cycle):
    lap = ck.laplacian(five_cycle)
    assert (np.linalg.eigvals(lap).imag > 0).sum() == 2
    gain = full_gain(target, mu=0.7, q1_matrix=np.diag([1.0, 2.0, 3.0]),
                     r_hat=2.0)
    values = closed_loop_spectrum(target, gain, lap).values
    assert np.array_equal(np.lexsort((values.imag, values.real)),
                          np.arange(values.size))
    flipped = values.conj()
    assert np.array_equal(flipped[np.lexsort((flipped.imag, flipped.real))],
                          values)


def test_closed_loop_spectrum_rejects_a_wrong_gain(target, unit_gain,
                                                   five_cycle):
    # the analytic spectrum comes from mu, q1 and r_hat, the direct one
    # from K: a gain 1% off its closed form must not pass the check
    lap = ck.laplacian(five_cycle)
    with pytest.raises(ck.InconsistentSpectraError):
        closed_loop_spectrum(target, replace(unit_gain, K=1.01 * unit_gain.K),
                             lap)
