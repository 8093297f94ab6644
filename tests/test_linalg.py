import numpy as np
import pytest
import scipy.linalg

import consensuskit as ck
from consensuskit.linalg import eig, solve_care, solve_lyapunov

from conftest import rand_stable_matrix, rand_spd

SQRT3 = 1.7320508075688772


def test_eig_sorted_and_invariants():
    rng = ck.rng_for(101)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n))
        vals = eig(m)
        assert vals.shape == (n,)
        order = np.lexsort((vals.imag, vals.real))
        assert np.array_equal(order, np.arange(n))
        # determinant and trace against independent routes
        assert np.linalg.det(m) == pytest.approx(np.prod(vals).real, rel=1e-8, abs=1e-8)
        assert np.trace(m) == pytest.approx(np.sum(vals).real, rel=1e-10, abs=1e-10)


def test_eig_conjugate_pairs():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    vals = eig(m)
    assert vals[0] == pytest.approx(-1j)
    assert vals[1] == pytest.approx(1j)


def test_eig_rejects_nonsquare():
    with pytest.raises(ck.NonSquareError):
        eig(np.zeros((2, 3)))


def test_lyapunov_scalar_oracle():
    # -2 p + 2 = 0
    p = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
    assert p[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_lyapunov_residual_property():
    rng = ck.rng_for(102)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        a = rand_stable_matrix(rng, n)
        q = rand_spd(rng, n)
        p = solve_lyapunov(a, q)
        assert np.allclose(p, p.T)
        resid = np.linalg.norm(a.T @ p + p @ a + q)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(q))
        # stability of a + PD q forces P positive definite
        assert np.linalg.eigvalsh(p).min() > 0


def test_lyapunov_rejects_unstable():
    with pytest.raises(ck.UnstableMatrixError):
        solve_lyapunov(np.array([[0.0]]), np.array([[1.0]]))
    with pytest.raises(ck.UnstableMatrixError):
        solve_lyapunov(np.array([[0.3]]), np.array([[1.0]]))


def test_lyapunov_rejects_asymmetric_weight():
    with pytest.raises(ValueError):
        solve_lyapunov(-np.eye(2), np.array([[1.0, 5.0], [0.0, 1.0]]))


def test_care_scalar_oracle():
    # p**2 - 2 p - 2 = 0 -> p = 1 + sqrt(3)
    p = solve_care(np.array([[1.0]]), np.array([[1.0]]),
                   np.array([[2.0]]), np.array([[1.0]]))
    assert p[0, 0] == pytest.approx(1.0 + SQRT3, abs=1e-10)


def test_care_double_integrator_oracle():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    p = solve_care(a, b, np.eye(2), np.array([[1.0]]))
    expected = np.array([[SQRT3, 1.0], [1.0, SQRT3]])
    assert np.allclose(p, expected, atol=1e-10)


def test_care_matches_scipy_on_random_systems():
    rng = ck.rng_for(103)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        q = rand_spd(rng, n)
        r = rand_spd(rng, m, floor=0.5)
        p = solve_care(a, b, q, r)
        ref = scipy.linalg.solve_continuous_are(a, b, q, r)
        assert np.allclose(p, ref, rtol=1e-7, atol=1e-8)
        resid = np.linalg.norm(a.T @ p + p @ a + q
                               - p @ b @ np.linalg.inv(r) @ b.T @ p)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(q))


def test_care_result_is_stabilizing():
    rng = ck.rng_for(104)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n)) + 0.5 * np.eye(n)  # bias unstable
        b = rng.standard_normal((n, 1))
        p = solve_care(a, b, np.eye(n), np.array([[1.0]]))
        closed = a - b @ b.T @ p
        assert np.linalg.eigvals(closed).real.max() < 0


def test_care_unstabilizable_pair():
    with pytest.raises(ck.NotStabilizableError):
        solve_care(np.array([[1.0]]), np.array([[0.0]]),
                   np.array([[1.0]]), np.array([[1.0]]))


def test_care_rejects_indefinite_r():
    with pytest.raises(ValueError):
        solve_care(np.array([[-1.0]]), np.array([[1.0]]),
                   np.array([[1.0]]), np.array([[-1.0]]))
