"""Dense linear-algebra kernels for controller synthesis.

Conventions used by every solver here:

* Lyapunov:  a' P + P a + q = 0, with `a` strictly stable.
* Riccati:   a' P + P a + q - P b inv(r) b' P = 0, stabilizing P,
  solved by Newton iteration on the associated Lyapunov equations.

Matrices are plain float64 ndarrays; spectra are complex128 vectors sorted
by (real, imag).  Sizes here are small (a few dozen states), so the
Lyapunov equation is solved by dense Kronecker vectorization rather than a
Schur-form method, and eigenvalues delegate to LAPACK via numpy.
"""

import numpy as np

from .errors import (
    ConvergenceFailure,
    NonSquareError,
    NotStabilizableError,
    SingularSystemError,
    UnstableMatrixError,
)
from .settings import settings

__all__ = ["eig", "solve_lyapunov", "solve_care"]


def _as_matrix(m, name="matrix"):
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise NonSquareError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _as_square(m, name="matrix"):
    arr = _as_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise NonSquareError(f"{name} must be square, got shape {arr.shape}")
    return arr


def eig(m):
    """Eigenvalues of a real square matrix, sorted by (real, imag).

    Nonreal eigenvalues of real input come back in conjugate pairs.
    """
    arr = _as_square(m)
    if arr.size == 0:
        return np.empty(0, dtype=complex)
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def solve_lyapunov(a, q):
    """Solve a' P + P a + q = 0 for symmetric P, with `a` strictly stable.

    Uses dense Kronecker vectorization: (I (x) a' + a' (x) I) vec(P) = -vec(q)
    in row-major vec convention.
    """
    a = _as_square(a, "a")
    q = _as_square(q, "q")
    n = a.shape[0]
    if q.shape[0] != n:
        raise NonSquareError(f"q must match a: {q.shape} vs {a.shape}")
    if not np.allclose(q, q.T, rtol=0, atol=1e-9 * max(1.0, np.linalg.norm(q))):
        raise ValueError("q must be symmetric")
    re = eig(a).real
    if re.size and re.max() >= -settings.hurwitz_tol:
        raise UnstableMatrixError(
            f"a must be strictly stable; max Re(eig) = {re.max():.3e}")

    ident = np.eye(n)
    coeff = np.kron(a.T, ident) + np.kron(ident, a.T)
    try:
        vec = np.linalg.solve(coeff, -q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"Lyapunov operator is singular: {exc}") from exc
    p = vec.reshape(n, n)
    p = 0.5 * (p + p.T)

    resid = np.linalg.norm(a.T @ p + p @ a + q)
    if resid > settings.lyapunov_residual_tol * max(1.0, np.linalg.norm(q)):
        raise SingularSystemError(
            f"Lyapunov residual {resid:.3e} exceeds tolerance; "
            "the operator is too ill conditioned")
    return p


def _stabilizing_seed(a, b, rinv):
    """Initial stabilizing gain for the Newton iteration.

    If `a` is already stable the zero gain works.  Otherwise solve the
    shifted Lyapunov equation

        -(a + s I) Z + Z ( -(a + s I) )' + 2 b inv(r) b' = 0,

    with the shift s chosen so that -(a + s I) is stable; K0 = inv(r) b' inv(Z)
    then stabilizes (a, b).  Z is singular exactly when the unstable part is
    not reachable through b, in which case no stabilizing gain exists.
    """
    n = a.shape[0]
    re = eig(a).real
    if re.max() < -settings.hurwitz_tol:
        return np.zeros((b.shape[1], n))
    shift = 1.0 + float(np.abs(re).max())
    m = -(a + shift * np.eye(n))
    try:
        z = solve_lyapunov(m.T, 2.0 * b @ rinv @ b.T)
        k0 = rinv @ b.T @ np.linalg.solve(z, np.eye(n))
    except (SingularSystemError, np.linalg.LinAlgError) as exc:
        raise NotStabilizableError(
            f"could not construct a stabilizing seed gain: {exc}") from exc
    closed = eig(a - b @ k0).real
    if closed.max() >= 0.0:
        raise NotStabilizableError(
            "shifted Lyapunov seed failed to stabilize the pair (a, b)")
    return k0


def solve_care(a, b, q, r):
    """Stabilizing solution of a' P + P a + q - P b inv(r) b' P = 0.

    Newton iteration (Kleinman): each step solves one Lyapunov equation for
    the current closed loop and converges quadratically from a stabilizing
    seed gain.  `b` may be a column vector or an n-by-m matrix; `r` must be
    symmetric positive definite m-by-m.
    """
    a = _as_square(a, "a")
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    b = _as_matrix(b, "b")
    n = a.shape[0]
    if b.shape[0] != n:
        raise NonSquareError(f"b must have {n} rows, got {b.shape}")
    q = _as_square(q, "q")
    if q.shape[0] != n:
        raise NonSquareError(f"q must match a: {q.shape} vs {a.shape}")
    r = np.asarray(r, dtype=float)
    if r.ndim == 0:
        r = r.reshape(1, 1)
    r = _as_square(r, "r")
    if r.shape[0] != b.shape[1]:
        raise NonSquareError(f"r must be {b.shape[1]}x{b.shape[1]}, got {r.shape}")
    if np.linalg.eigvalsh(0.5 * (r + r.T)).min() <= 0.0:
        raise ValueError("r must be symmetric positive definite")

    rinv = np.linalg.inv(r)
    scale = max(1.0, np.linalg.norm(q))

    def residual(p):
        return np.linalg.norm(a.T @ p + p @ a + q - p @ b @ rinv @ b.T @ p)

    k = _stabilizing_seed(a, b, rinv)
    p = None
    best = np.inf
    for _ in range(settings.care_max_iterations):
        closed = a - b @ k
        try:
            p = solve_lyapunov(closed, q + k.T @ r @ k)
        except (UnstableMatrixError, SingularSystemError) as exc:
            raise ConvergenceFailure(
                f"Newton step lost stability: {exc}") from exc
        k = rinv @ b.T @ p
        res = residual(p)
        if res <= 1e-13 * scale:
            break
        if res >= 0.9 * best and best <= settings.care_residual_tol * scale:
            break  # stalled at numerical floor, already good enough
        best = min(best, res)
    if p is None or residual(p) > settings.care_residual_tol * scale:
        raise ConvergenceFailure(
            f"Riccati residual {residual(p):.3e} above tolerance after "
            f"{settings.care_max_iterations} iterations")
    closed_re = eig(a - b @ rinv @ b.T @ p).real
    if closed_re.max() > 1e-9:
        raise ConvergenceFailure(
            f"returned solution is not stabilizing (max Re = {closed_re.max():.3e})")
    return 0.5 * (p + p.T)
