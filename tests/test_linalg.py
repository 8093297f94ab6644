from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from consensuskit import errors, linalg
from consensuskit.agents import builtin
from consensuskit.graph import directed_cycle
from consensuskit.linalg import eig, solve_care, solve_lyapunov
from consensuskit.rng import rng_for
from consensuskit.sim import SimScenario
from consensuskit.synthesis import (
    design_companion, observer_gain, rank_one_gain,
)

from conftest import rand_stable_matrix, rand_spd

SQRT3 = 1.7320508075688772


def test_eig_sorted_and_invariants():
    rng = rng_for(101)
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
    with pytest.raises(errors.ValidationError, match="must be square"):
        eig(np.zeros((2, 3)))


def test_eig_of_a_stack_is_each_matrix_sorted_spectrum():
    rng = rng_for(102)
    real = rng.standard_normal((7, 5, 5))
    for stack in (real, real + 1j * rng.standard_normal((7, 5, 5)),
                  real.reshape(7, 1, 5, 5)):
        vals = eig(stack)
        assert vals.shape == stack.shape[:-1]
        for m, got in zip(stack.reshape(-1, 5, 5), vals.reshape(-1, 5)):
            want = np.linalg.eigvals(m)
            assert np.array_equal(got, want[np.lexsort((want.imag, want.real))])
    assert eig(np.zeros((0, 5, 5))).shape == (0, 5)
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        stack = real.astype(type(bad))
        stack[3, 2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eig(stack)
    with pytest.raises(errors.ValidationError, match="must be square"):
        eig(np.zeros((4, 2, 3)))
    with pytest.raises(errors.ValidationError, match="must be square"):
        eig(np.zeros(3))


def test_lyapunov_scalar_oracle():
    # -2 p + 2 = 0
    p = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
    assert p[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_lyapunov_residual_property():
    rng = rng_for(102)
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
    with pytest.raises(errors.ConvergenceFailure,
                       match="a must be strictly stable"):
        solve_lyapunov(np.array([[0.0]]), np.array([[1.0]]))
    with pytest.raises(errors.ConvergenceFailure,
                       match="a must be strictly stable"):
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
    rng = rng_for(103)
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
    rng = rng_for(104)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n)) + 0.5 * np.eye(n)  # bias unstable
        b = rng.standard_normal((n, 1))
        p = solve_care(a, b, np.eye(n), np.array([[1.0]]))
        closed = a - b @ b.T @ p
        assert np.linalg.eigvals(closed).real.max() < 0


def _seed_problems():
    """Companion targets r = 3..6 with random SPD Q1, and a repeated pole.

    The double integrator with Q = diag(1, 2) has the closed-loop
    polynomial (s + 1)^2: a double, defective pole at -1.
    """
    rng = rng_for(105)
    problems = []
    for r in range(3, 7):
        for _ in range(4):
            poles = []
            while len(poles) < r - 1:
                re = -float(rng.uniform(0.3, 3.0))
                if r - 1 - len(poles) >= 2 and rng.random() < 0.5:
                    im = float(rng.uniform(0.2, 2.0))
                    poles += [complex(re, im), complex(re, -im)]
                else:
                    poles.append(re)
            cs = design_companion(poles)
            r_hat = float(rng.uniform(0.2, 5.0))
            problems.append((cs.A, cs.B.reshape(-1, 1), rand_spd(rng, r),
                             np.array([[1.0 / r_hat]])))
    problems.append((np.array([[0.0, 1.0], [0.0, 0.0]]),
                     np.array([[0.0], [1.0]]), np.diag([1.0, 2.0]),
                     np.array([[1.0]])))
    return problems


def test_care_matches_scipy_on_companion_targets_and_repeated_pole():
    for a, b, q, r in _seed_problems():
        p = solve_care(a, b, q, r)
        ref = scipy.linalg.solve_continuous_are(a, b, q, r)
        assert np.abs(p - ref).max() <= 1e-12 * np.abs(ref).max()
    # the last problem, the double integrator: P = [[2, 1], [1, 2]]
    assert np.allclose(p, [[2.0, 1.0], [1.0, 2.0]], rtol=0, atol=1e-14)


def test_care_newton_polishes_the_hamiltonian_seed(monkeypatch):
    calls = []
    lyapunov = linalg.solve_lyapunov

    def counting(a, q):
        calls.append(1)
        return lyapunov(a, q)

    monkeypatch.setattr(linalg, "solve_lyapunov", counting)
    for a, b, q, r in _seed_problems():
        calls.clear()
        solve_care(a, b, q, r)
        assert 1 <= len(calls) <= 2


def test_care_without_stabilizing_solution():
    # H = [[0, -1], [0, 0]] has no stable eigenvalue: the only P >= 0,
    # P = 0, leaves the closed loop at 0.
    with pytest.raises(errors.ConvergenceFailure, match="0 of 1 stable"):
        solve_care(np.array([[0.0]]), np.array([[1.0]]),
                   np.array([[0.0]]), np.array([[1.0]]))


def test_care_unstabilizable_pair():
    with pytest.raises(errors.SynthesisError,
                       match="could not construct a stabilizing seed gain"):
        solve_care(np.array([[1.0]]), np.array([[0.0]]),
                   np.array([[1.0]]), np.array([[1.0]]))


def test_care_rejects_indefinite_r():
    with pytest.raises(ValueError):
        solve_care(np.array([[-1.0]]), np.array([[1.0]]),
                   np.array([[1.0]]), np.array([[-1.0]]))


def test_riccati_path_errors_keep_their_types(monkeypatch):
    a2 = np.array([[0.0, 1.0], [-2.0, -3.0]])
    b2 = np.array([[0.0], [1.0]])
    # q is symmetric when |q - q'| <= 1e-9 max(1, ||q||) in every entry
    with pytest.raises(ValueError, match="q must be symmetric"):
        solve_care(a2, b2, np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(1))
    with pytest.raises(ValueError, match="q must be symmetric"):
        solve_lyapunov(-np.eye(2), np.array([[1.0, 0.0], [1.5e-9, 1.0]]))
    # within the bound: symmetric enough, and no symmetric P solves it
    with pytest.raises(errors.ConvergenceFailure, match="Lyapunov residual"):
        solve_lyapunov(-np.eye(2), np.array([[1.0, 0.0], [1.4e-9, 1.0]]))
    # unstable a
    with pytest.raises(errors.ConvergenceFailure, match="max Re"):
        solve_lyapunov(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))
    with pytest.raises(errors.SynthesisError,
                       match="could not construct a stabilizing seed gain"):
        solve_care(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]), np.eye(2),
                   np.eye(1))
    # a residual above tolerance; solve_care reports its last Newton step's
    solved = []
    lyapunov = linalg.solve_lyapunov

    def keep(a, q):
        solved.append(lyapunov(a, q))
        return solved[-1]

    monkeypatch.setattr(linalg, "solve_lyapunov", keep)
    monkeypatch.setattr(linalg, "_CARE_RESIDUAL_TOL", 0.0)
    q, r = np.eye(2), np.eye(1)
    with pytest.raises(errors.ConvergenceFailure) as info:
        solve_care(a2, b2, q, r)
    p = solved[-1]
    last = np.linalg.norm(a2.T @ p + p @ a2 + q
                          - p @ b2 @ np.linalg.inv(r) @ b2.T @ p)
    assert last > 0.0
    assert str(info.value) == (f"Riccati residual {last:.3e} above tolerance "
                               f"after {len(solved)} of at most 200 Newton "
                               "steps")
    # from the zero gain (a2 is stable) Newton needs several steps, and the
    # error counts each of them
    solved.clear()
    monkeypatch.setattr(linalg, "_stabilizing_seed",
                        lambda a, b, rinv, q: np.zeros((1, 2)))
    with pytest.raises(errors.ConvergenceFailure) as info:
        solve_care(a2, b2, q, r)
    assert len(solved) > 1
    assert f"after {len(solved)} of at most 200 Newton steps" in str(
        info.value)
    monkeypatch.setattr(linalg, "_LYAPUNOV_RESIDUAL_TOL", 0.0)
    with pytest.raises(errors.ConvergenceFailure, match="exceeds tolerance"):
        lyapunov(np.array([[-1.0, 2.0], [0.3, -3.0]]),
                 np.array([[1.0, 0.2], [0.2, 3.0]]))
    # a Newton step's Lyapunov failure reaches the caller as it is
    with pytest.raises(errors.ConvergenceFailure,
                       match="Lyapunov residual .* exceeds tolerance"):
        solve_care(a2, b2, q, r)


def test_care_takes_a_vector_b_and_a_scalar_r():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    p = solve_care(a, np.array([[0.0], [1.0]]), np.eye(2), np.array([[2.0]]))
    assert np.array_equal(solve_care(a, [0.0, 1.0], np.eye(2), 2.0), p)


def _scenario(gain_r=3, observer_r=3):
    """Three builtin agents on the 3-cycle with a degree-3 target; the gain
    and the observer are designed for targets of degree gain_r and
    observer_r."""
    designs = {3: design_companion([-1.0, -2.0]),
               2: design_companion([-1.0])}
    observer = observer_gain(designs[observer_r], np.eye(observer_r)[0],
                             [-3.0 - k for k in range(observer_r)])
    return SimScenario(
        [builtin(f"agent{i}") for i in (1, 2, 3)], designs[3],
        rank_one_gain(designs[gain_r], 1.0, 1.0, 1.0),
        directed_cycle(3), observer=observer)


@pytest.mark.parametrize("call, error, message", [
    (lambda: linalg._as_matrix(np.zeros((2, 2, 2)), "m"),
     errors.ValidationError, "m must be 2-dimensional"),
    (lambda: linalg._as_matrix([[1.0, np.inf]], "m"),
     ValueError, "m has non-finite entries"),
    (lambda: linalg._as_square(np.zeros((2, 3)), "a"),
     errors.ValidationError, "a must be square"),
    (lambda: solve_lyapunov(-np.eye(2), np.eye(3)),
     errors.ValidationError, "q must match a"),
    (lambda: solve_care(-np.eye(2), np.ones((3, 1)), np.eye(2), np.eye(1)),
     errors.ValidationError, "b must have 2 rows"),
    (lambda: solve_care(-np.eye(2), np.ones((2, 1)), np.eye(3), np.eye(1)),
     errors.ValidationError, "q must match a"),
    (lambda: solve_care(-np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(2)),
     errors.ValidationError, "r must be 1x1"),
    (lambda: rng_for(0, -1), ValueError, "run_index must be nonnegative"),
    (lambda: _scenario(gain_r=2),
     errors.ValidationError, "gain dimension does not match"),
    (lambda: _scenario(observer_r=2),
     errors.ValidationError, "observer row dimension does not match"),
    (lambda: replace(builtin("agent1"), n_eta=-1),
     errors.ValidationError, "n_eta must be >= 0"),
    (lambda: replace(builtin("agent1"), eta0=[0.1, 0.2]),
     errors.ValidationError, "eta0 has length 2, expected n_eta = 1"),
], ids=["3-d", "non-finite", "non-square", "lyapunov-q", "care-b", "care-q",
        "care-r", "run-index", "gain-size", "observer-size", "n-eta",
        "eta0-length"])
def test_malformed_inputs_raise_their_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
