import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from consensuskit import errors, synthesis
from consensuskit.graph import DiGraph, laplacian
from consensuskit.linalg import solve_care
from consensuskit.synthesis import (
    assemble_stacked, closed_loop_spectrum, design_companion, full_gain,
    local_controller, observer_gain, rank_one_gain,
)
from consensuskit.rng import rng_for


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
    rng = rng_for(401)
    for _ in range(20):
        cs = _random_target(rng, int(rng.integers(2, 6)))
        assert np.array_equal(cs.nu @ cs.A, np.zeros(cs.r))
        assert cs.B @ cs.nu == 1.0
        # spectrum of A is the zero root plus the requested poles
        vals = np.sort_complex(np.linalg.eigvals(cs.A))
        want = np.sort_complex(np.append(cs.stable_poles, 0.0))
        assert np.allclose(vals, want, atol=1e-8)


def test_design_companion_rejects_bad_pole_sets():
    with pytest.raises(errors.ValidationError,
                       match="need at least one stable pole"):
        design_companion([])
    with pytest.raises(errors.ValidationError,
                       match="all poles must satisfy Re < -1e-09"):
        design_companion([1.0])
    with pytest.raises(errors.ValidationError,
                       match="all poles must satisfy Re < -1e-09"):
        design_companion([-1.0, 0.0])
    with pytest.raises(errors.ValidationError,
                       match="has no conjugate partner in the set"):
        design_companion([-1.0 + 1.0j, -2.0])
    # the coefficients overflow (1e400), or their products nu nu', of
    # which the rank-one P1 is made (nu holds 2e300 and 1e160): refused
    # without a numpy warning
    for poles in ([-1e200, -1e200], [-1e300, -2.0], [-1e80, -1e80]):
        with pytest.raises(errors.SynthesisError,
                           match="the poles overflow the target"):
            design_companion(poles)


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
    rng = rng_for(402)
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
    numeric = solve_care(target.A, target.B.reshape(-1, 1),
                         q1 * np.outer(target.nu, target.nu),
                         np.array([[1.0 / r_hat]]))
    rel = np.linalg.norm(numeric - g.P1) / np.linalg.norm(g.P1)
    assert rel <= 1e-6


def test_gain_parameter_gates(target):
    # a value that is not positive and finite names its argument
    for kwargs, name in (({"mu": 0.0, "q1": 1.0, "r_hat": 1.0}, "mu"),
                         ({"mu": 1.0, "q1": -2.0, "r_hat": 1.0}, "q1"),
                         ({"mu": 1.0, "q1": 1.0, "r_hat": 0.0}, "r_hat"),
                         ({"mu": np.inf, "q1": 1.0, "r_hat": 1.0}, "mu")):
        with pytest.raises(errors.ValidationError,
                           match=f"{name} must be positive") as info:
            rank_one_gain(target, **kwargs)
        assert info.value.field == name
    # p1 = sqrt(q1 / r_hat) = 1e314: P1 overflows, K does not
    with pytest.raises(errors.SynthesisError,
                       match="P1 = nu p1 nu' overflows"):
        rank_one_gain(target, mu=1.0, q1=1e308, r_hat=1e-320)
    with pytest.raises(errors.ValidationError,
                       match="mu must be positive, got -1.0"):
        full_gain(target, mu=-1.0, q1_matrix=np.eye(3), r_hat=1.0)
    with pytest.raises(errors.ValidationError,
                       match="r_hat must be positive, got -1.0"):
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
    with pytest.raises(errors.ValidationError,
                       match="agent degree 4 exceeds target degree 3"):
        local_controller(target, SimpleNamespace(r=4))


def test_assembled_stack_reproduces_target_exactly():
    rng = rng_for(403)
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
    with pytest.raises(errors.ValidationError,
                       match="C has 2 entries, expected r = 3"):
        observer_gain(target, [1.0, 0.0], [-3.0, -4.0, -5.0])
    with pytest.raises(errors.SynthesisError,
                       match=r"\(C, A\) is not observable"):
        observer_gain(target, [0.0, 0.0, 0.0], [-3.0, -4.0, -5.0])
    with pytest.raises(errors.ValidationError,
                       match="need exactly 3 observer poles, got 2"):
        observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0])
    with pytest.raises(errors.ValidationError,
                       match="has no conjugate partner in the set"):
        observer_gain(target, [1.0, 0.0, 0.0], [-3.0, -4.0, -5.0 + 1.0j])


def test_closed_loop_spectrum_rank_one(target, unit_gain, five_cycle):
    lap = laplacian(five_cycle)
    values = closed_loop_spectrum(target, unit_gain, lap)
    assert values.shape == (15,)
    assert np.array_equal(values, np.sort_complex(values))
    # one eigenvalue per Laplacian eigenvalue, at -gamma (B'nu = 1, mu = 1)
    gamma = np.sort_complex(np.linalg.eigvals(lap))
    for g in gamma:
        assert np.abs(values + g).min() <= 1e-7


def test_closed_loop_spectrum_full_rank_unchecked(target, five_cycle):
    g = full_gain(target, mu=1.0, q1_matrix=np.eye(3), r_hat=1.0)
    values = closed_loop_spectrum(target, g, laplacian(five_cycle))
    assert values.shape == (15,)
    # the zero Laplacian eigenvalue contributes an uncoupled copy of A
    for z in (0.0, -1.0, -2.0):
        assert np.abs(values - z).min() <= 1e-7


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
    lap = laplacian(DiGraph.from_edges(
        10, [(frm - 1, to - 1, wt) for frm, to, wt in edges]))
    assert closed_loop_spectrum(cs, gain, lap).shape == (60,)


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


def _single_linkage_distance(a, b):
    """Plain-Python reference of synthesis._multiset_distance: union-find
    over every pair of pooled values within the radius, each group's a
    values less its b values summed in index order."""
    a, b = [complex(x) for x in a], [complex(x) for x in b]
    if len(a) != len(b):
        return math.inf
    if not a:
        return 0.0
    sizes = [abs(x) for x in a]
    biggest = math.nan if any(map(math.isnan, sizes)) else max(sizes)
    radius = 1e-2 * (biggest if biggest > 1.0 else 1.0)  # max(1.0, nan) is 1
    pool = a + b
    parent = list(range(len(pool)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            if abs(pool[i] - pool[j]) <= radius:
                ri, rj = root(i), root(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for k, x in enumerate(pool):
        group = groups.setdefault(root(k), [0, 0, 0j])
        group[k >= len(a)] += 1
        group[2] = group[2] + x if k < len(a) else group[2] - x
    if any(na != nb for na, nb, _ in groups.values()):
        return math.inf
    return max(abs(gap) / na for na, _, gap in groups.values())


def _multiset_cases(rng):
    """Seeded (a, b) pairs shaped like closed-loop spectrum checks."""
    def noise(size, scale):
        return scale * (rng.standard_normal(size)
                        + 1j * rng.standard_normal(size))

    cases = []
    for _ in range(12):
        # N copies of the target poles, a conjugate pair among them, and
        # one coupling value per agent; b is a, split and shuffled
        n = int(rng.integers(2, 21))
        re, im = -rng.uniform(0.5, 3.0), rng.uniform(0.1, 2.0)
        poles = [complex(re, im), complex(re, -im),
                 -rng.uniform(0.5, 3.0), -rng.uniform(0.5, 3.0)]
        coupling = -rng.uniform(0.0, 5.0, n) + noise(n, 0.3)
        a = np.concatenate([np.tile(poles, n), coupling])
        b = rng.permutation(a + noise(a.size, 10.0 ** rng.uniform(-13, -7)))
        cases.append((a, b))
    for m in (2, 3, 4, 6):
        # a defective pole of multiplicity m split by ~eps**(1/m) on a circle
        p = complex(-rng.uniform(0.5, 2.0), 0.0)
        split = 2.2e-16 ** (1.0 / m)
        b = p + split * np.exp(2j * np.pi * (np.arange(m) + rng.random()) / m)
        a = np.concatenate([np.full(m, p), [-5.0, -7.0]])
        cases.append((a, rng.permutation(np.concatenate([b, [-5.0, -7.0]]))))
    for _ in range(6):
        # chained near neighbours: 0.8 radius apart, so one group whose
        # ends are far apart, and some pairs in it are not neighbours
        n = int(rng.integers(3, 12))
        a = -10.0 + 0.08 * np.arange(n) + noise(n, 1e-3)
        b = a + noise(n, 1e-9)
        cases.append((np.append(a, -1.0), rng.permutation(np.append(b, -1.0))))
    a, b = cases[0]
    moved = b.copy()
    moved[0] += 1.0  # one value leaves its group: unequal counts
    cases += [(a, moved), (a, b[:-1]), (np.array([]), np.array([]))]
    for where in (a, b):
        spoiled = where.copy()
        spoiled[3] = complex(math.nan, 0.0)
        cases.append((spoiled, b) if where is a else (a, spoiled))
    cases.append((np.array([1.0, math.nan]), np.array([1.0, math.nan])))
    return cases


def test_multiset_distance_matches_a_single_linkage_reference():
    got, want = [], []
    for a, b in _multiset_cases(rng_for(411)):
        got.append(synthesis._multiset_distance(a, b))
        want.append(_single_linkage_distance(a, b))
    # unequal counts twice, the empty pair, then a NaN: in a, in b, in both
    assert want[-6:] == [math.inf, math.inf, 0.0, math.inf, math.inf, math.inf]
    assert all(0.0 <= w < 1e-6 for w in want[:-6])
    for g, w in zip(got, want):
        if math.isfinite(w) and w > 0.0:
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)
        else:
            assert g == w


def test_closed_loop_spectrum_matches_kronecker_eig(target, unit_gain,
                                                    five_cycle):
    rng = rng_for(405)
    weights = rng.uniform(0.5, 2.0, (20, 20)) * (rng.random((20, 20)) < 0.2)
    np.fill_diagonal(weights, 0.0)
    cs6 = design_companion([-0.5, -1.0, -1.5 + 0.5j, -1.5 - 0.5j, -2.0])
    gain6 = full_gain(cs6, mu=1.3, q1_matrix=np.diag(np.arange(1.0, 7.0)),
                      r_hat=0.4)
    # L of the directed path is one 19 x 19 Jordan block at 1 plus the
    # root's 0, so the dense eig of the Kronecker form splits each of the
    # six eigenvalues of A - B K into a ring of 19 values up to 0.13 wide
    # (scale 3.05); the rings are compared whole, through their means
    path = laplacian(DiGraph(np.eye(20, k=-1)))
    cases = [(target, unit_gain, laplacian(five_cycle), 1e-2),
             (target, full_gain(target, mu=0.7, q1_matrix=np.eye(3),
                                r_hat=2.0), laplacian(five_cycle), 1e-2),
             (cs6, gain6, laplacian(DiGraph(weights)), 1e-2),
             (cs6, gain6, path, 0.1)]
    for cs, gain, lap, radius in cases:
        values = closed_loop_spectrum(cs, gain, lap)
        n = lap.shape[0]
        direct = np.linalg.eigvals(np.kron(np.eye(n), cs.A)
                                   - np.kron(lap, np.outer(cs.B, gain.K)))
        scale = max(1.0, float(np.abs(values).max()))
        gap = _cluster_gap(values, direct, radius * scale)
        assert gap <= synthesis._SPECTRUM_MATCH_TOL * scale


def test_closed_loop_spectrum_conjugate_closed_and_sorted(target, five_cycle):
    lap = laplacian(five_cycle)
    assert (np.linalg.eigvals(lap).imag > 0).sum() == 2
    gain = full_gain(target, mu=0.7, q1_matrix=np.diag([1.0, 2.0, 3.0]),
                     r_hat=2.0)
    values = closed_loop_spectrum(target, gain, lap)
    assert np.array_equal(np.lexsort((values.imag, values.real)),
                          np.arange(values.size))
    flipped = values.conj()
    assert np.array_equal(flipped[np.lexsort((flipped.imag, flipped.real))],
                          values)


def test_closed_loop_spectrum_rejects_a_wrong_gain(target, unit_gain,
                                                   five_cycle):
    # the analytic spectrum comes from mu, q1 and r_hat, the direct one
    # from K: a gain 1% off its closed form must not pass the check
    lap = laplacian(five_cycle)
    with pytest.raises(errors.ConvergenceFailure,
                       match="analytic and block spectra differ"):
        closed_loop_spectrum(target, replace(unit_gain, K=1.01 * unit_gain.K),
                             lap)
