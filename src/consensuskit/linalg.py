"""Dense linear-algebra kernels for controller synthesis.

Conventions used by every solver here:

* Lyapunov:  a' P + P a + q = 0, with `a` strictly stable.
* Riccati:   a' P + P a + q - P b inv(r) b' P = 0, stabilizing P, seeded
  from the stable invariant subspace of the Hamiltonian matrix and
  polished by Newton iteration on the associated Lyapunov equations.

Matrices are plain float64 ndarrays (`eig` also takes complex ones, and
stacks of them); spectra are complex128 vectors sorted by (real, imag).
Sizes here are small (a few dozen states), so the Lyapunov equation is
solved by dense Kronecker vectorization rather than a Schur-form method,
and eigenvalues delegate to LAPACK via numpy.
"""

import numpy as np

from .errors import ConvergenceFailure, SynthesisError, ValidationError

__all__ = ["eig", "solve_lyapunov", "solve_care"]

_HURWITZ_TOL = 1e-12
_LYAPUNOV_RESIDUAL_TOL = 1e-10
_CARE_RESIDUAL_TOL = 1e-8
_CARE_MAX_ITERATIONS = 200


def _read_only(obj):
    """Make each ndarray field of frozen `obj` a read-only copy of it."""
    for name, value in list(vars(obj).items()):
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.setflags(write=False)
            object.__setattr__(obj, name, value)


def _as_matrix(m, name="matrix"):
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(
            f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    return arr


def _as_square(m, name="matrix"):
    arr = _as_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    return arr


def eig(m):
    """Eigenvalues of a real or complex square matrix, sorted by (real, imag).

    A stack of shape (..., n, n) gives each matrix's sorted spectrum along
    the last axis, from one LAPACK call per matrix.  Nonreal eigenvalues of
    real input come back in exact conjugate pairs.  A single matrix's
    spectrum is sorted by direct indexing, a stack's along its last axis.
    """
    arr = np.asarray(m)
    if not np.iscomplexobj(arr):
        arr = arr.astype(float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValidationError(f"matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("matrix has non-finite entries")
    if arr.size == 0:
        return np.empty(arr.shape[:-1], dtype=complex)
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    if vals.ndim == 1:
        return vals[order]
    return np.take_along_axis(vals, order, axis=-1)


def solve_lyapunov(a, q):
    """Solve a' P + P a + q = 0 for symmetric P, with `a` strictly stable.

    Uses dense Kronecker vectorization: (I (x) a' + a' (x) I) vec(P) = -vec(q)
    in row-major vec convention.  `q` is symmetric when |q - q'| is at most
    1e-9 max(1, ||q||) in every entry (a NaN fails); that norm also scales
    the residual tolerance.
    """
    a = _as_square(a, "a")
    q = _as_square(q, "q")
    n = a.shape[0]
    if q.shape[0] != n:
        raise ValidationError(f"q must match a: {q.shape} vs {a.shape}")
    scale = max(1.0, np.linalg.norm(q))
    if not (np.abs(q - q.T) <= 1e-9 * scale).all():
        raise ValidationError("q must be symmetric")
    re = eig(a).real
    if re.size and re.max() >= -_HURWITZ_TOL:
        raise ConvergenceFailure(
            f"a must be strictly stable; max Re(eig) = {re.max():.3e}")

    # kron(a', I) + kron(I, a'): entry (i n + k, j n + l) is
    # a'[i, j] I[k, l] + I[i, j] a'[k, l], the products np.kron forms
    at, ident = a.T, np.eye(n)
    coeff = (at[:, None, :, None] * ident[None, :, None, :]
             + ident[:, None, :, None] * at[None, :, None, :])
    coeff = coeff.reshape(n * n, n * n)
    try:
        vec = np.linalg.solve(coeff, -q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"Lyapunov operator is singular: {exc}") from exc
    p = vec.reshape(n, n)
    p = 0.5 * (p + p.T)

    resid = np.linalg.norm(a.T @ p + p @ a + q)
    if resid > _LYAPUNOV_RESIDUAL_TOL * scale:
        raise ConvergenceFailure(
            f"Lyapunov residual {resid:.3e} exceeds tolerance; "
            "the operator is too ill conditioned")
    return p


def _stabilizing_seed(a, b, rinv, q):
    """Initial stabilizing gain for the Newton iteration, from the Hamiltonian.

    The stabilizing Riccati solution spans the stable invariant subspace of

        H = [[a, -b inv(r) b'], [-q, -a']]

    (Laub, IEEE TAC 24, 1979): with [X1; X2] a basis of the span of the
    eigenvectors of its n stable eigenvalues, P0 = X2 inv(X1) and
    K0 = inv(r) b' P0.  The basis is taken real (the real and imaginary
    parts of each conjugate pair), so P0 needs no complex solve.  Fewer
    than n stable eigenvalues means no stabilizing solution exists; a
    singular X1 or a K0 that does not stabilize means the unstable part of
    (a, b) is not reachable through b.
    """
    n = a.shape[0]
    ham = np.block([[a, -b @ rinv @ b.T], [-q, -a.T]])
    try:
        vals, vecs = np.linalg.eig(ham)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue iteration failed: {exc}") from exc
    stable = np.flatnonzero(vals.real < -_HURWITZ_TOL)
    if stable.size < n:
        nearest = vals[np.argmin(np.abs(vals.real))]
        raise ConvergenceFailure(
            f"the Hamiltonian has {stable.size} of {n} stable eigenvalues "
            f"(nearest the imaginary axis: {nearest:.3e}); "
            "no stabilizing Riccati solution exists")
    # rounding can push both members of a pair on the axis to the left
    stable = stable[np.argsort(vals.real[stable])[:n]]
    # a real basis of the same subspace: Re v and Im v for each pair v, v*
    x = np.where(vals[stable].imag >= 0.0, vecs[:, stable].real,
                 vecs[:, stable].imag)
    try:
        p0 = np.linalg.solve(x[:n].T, x[n:].T).T
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(
            f"could not construct a stabilizing seed gain: {exc}") from exc
    k0 = rinv @ b.T @ (0.5 * (p0 + p0.T))
    if not np.isfinite(k0).all():
        raise SynthesisError(
            "could not construct a stabilizing seed gain: X1 is singular")
    closed = eig(a - b @ k0).real
    if closed.max() >= -_HURWITZ_TOL:
        raise SynthesisError(
            "the Hamiltonian seed failed to stabilize the pair (a, b)")
    return k0


def solve_care(a, b, q, r):
    """Stabilizing solution of a' P + P a + q - P b inv(r) b' P = 0.

    The seed gain comes from the stable invariant subspace of the
    Hamiltonian (see `_stabilizing_seed`) and already lies next to the
    solution; Newton iteration (Kleinman) only polishes it, each step
    solving one Lyapunov equation for the current closed loop, and
    usually one step reaches the 1e-13 relative residual.  Each step's
    residual is computed once: the last one is what the 1e-8 relative
    tolerance judges and the error reports.  No stabilizing
    solution (fewer than n stable Hamiltonian eigenvalues) raises
    ConvergenceFailure; an unstabilizable pair raises SynthesisError.
    `b` may be a column vector or an n-by-m matrix; `r` must be symmetric
    positive definite m-by-m.
    """
    a = _as_square(a, "a")
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    b = _as_matrix(b, "b")
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValidationError(f"b must have {n} rows, got {b.shape}")
    q = _as_square(q, "q")
    if q.shape[0] != n:
        raise ValidationError(f"q must match a: {q.shape} vs {a.shape}")
    r = np.asarray(r, dtype=float)
    if r.ndim == 0:
        r = r.reshape(1, 1)
    r = _as_square(r, "r")
    if r.shape[0] != b.shape[1]:
        raise ValidationError(
            f"r must be {b.shape[1]}x{b.shape[1]}, got {r.shape}")
    if np.linalg.eigvalsh(0.5 * (r + r.T)).min() <= 0.0:
        raise ValidationError("r must be symmetric positive definite")

    rinv = np.linalg.inv(r)
    scale = max(1.0, np.linalg.norm(q))

    def residual(p):
        return np.linalg.norm(a.T @ p + p @ a + q - p @ b @ rinv @ b.T @ p)

    k = _stabilizing_seed(a, b, rinv, q)
    res = best = np.inf
    for steps in range(1, _CARE_MAX_ITERATIONS + 1):
        # a step that loses stability is solve_lyapunov's ConvergenceFailure
        p = solve_lyapunov(a - b @ k, q + k.T @ r @ k)
        k = rinv @ b.T @ p
        res = residual(p)
        if res <= 1e-13 * scale:
            break
        if res >= 0.9 * best and best <= _CARE_RESIDUAL_TOL * scale:
            break  # stalled at numerical floor, already good enough
        best = min(best, res)
    if res > _CARE_RESIDUAL_TOL * scale:  # the last Newton step's residual
        raise ConvergenceFailure(
            f"Riccati residual {res:.3e} above tolerance after {steps} of "
            f"at most {_CARE_MAX_ITERATIONS} Newton steps")
    closed_re = eig(a - b @ rinv @ b.T @ p).real
    if closed_re.max() > 1e-9:
        raise ConvergenceFailure(
            f"returned solution is not stabilizing (max Re = {closed_re.max():.3e})")
    return 0.5 * (p + p.T)
