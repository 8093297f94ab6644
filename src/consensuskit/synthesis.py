"""Controller synthesis for output consensus of heterogeneous agents.

Every agent is steered toward one shared linear target: the companion
system with characteristic polynomial

    s**r + b_r s**(r-1) + ... + b_2 s        (constant term zero),

state matrix A (ones on the superdiagonal, last row [0, -b_2, ..., -b_r]),
and input vector B = e_r.  The zero root lets the group agree on a nonzero
constant output.  The vector nu = [b_2, ..., b_r, 1] spans the left null
space of A and is normalized so B' nu = 1.

Cooperative gain.  The rank-one design takes

    P1 = nu p1 nu',   p1 = sqrt(q1) / (sqrt(r_hat) B' nu),
    K  = mu sqrt(q1 r_hat) nu',

which solves the Riccati equation P1 A + A' P1 + q1 nu nu' - r_hat P1 B B' P1 = 0
in closed form; the full-rank variant solves the same equation with an
arbitrary PSD weight numerically.  Each agent applies
v_i = -K sum_j a_ij (xihat_i - xihat_j) to its chain, where xihat stacks
the agent's own chain with its local controller state.

Local controller.  An agent of relative degree r_i < r is lifted to degree
r by the dynamic compensator

    phi' = D xi + E phi + G v,   u_hat = phi_1,

whose matrices embed the target coefficients so that the stacked pair
(xi, phi) obeys exactly (A, B).  An agent with full degree r_i = r needs
no extra state; it applies the memoryless feedback
u_hat = -[0, b_2, ..., b_r] xi + v, which again reproduces (A, B).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegreeExceedsTargetError,
    InconsistentSpectraError,
    NonPositiveParameterError,
    NotConjugateClosedError,
    NotObservableError,
    PlacementFailure,
    UnstablePoleError,
)
from .linalg import eig, solve_care
from .settings import settings

__all__ = [
    "CompanionSystem", "ConsensusGain", "LocalController", "ObserverGain",
    "SpectrumCheck", "design_companion", "rank_one_gain", "full_gain",
    "local_controller", "assemble_stacked", "observer_gain",
    "closed_loop_spectrum",
]


@dataclass(frozen=True)
class CompanionSystem:
    """Shared consensus target of degree r."""

    r: int
    b: np.ndarray             # coefficients [b_2, ..., b_r]
    A: np.ndarray             # (r, r) companion matrix
    B: np.ndarray             # (r,) input vector e_r
    nu: np.ndarray            # (r,) left null vector [b_2, ..., b_r, 1]
    stable_poles: np.ndarray  # the r - 1 nonzero roots, complex


@dataclass(frozen=True)
class ConsensusGain:
    rank: str                 # "one" or "full"
    mu: float
    r_hat: float
    K: np.ndarray             # (r,) cooperative gain row, mu included
    P1: np.ndarray            # (r, r) Riccati solution
    q1: Optional[float] = None       # scalar weight (rank-one only)
    Q1: Optional[np.ndarray] = None  # weight matrix (full rank only)


@dataclass(frozen=True)
class LocalController:
    """Degree-matching compensator for one agent."""

    r: int                    # target degree
    r_agent: int              # agent chain degree
    D: np.ndarray             # (r - r_agent, r_agent)
    E: np.ndarray             # (r - r_agent, r - r_agent)
    G: np.ndarray             # (r - r_agent,)
    static_row: Optional[np.ndarray]  # (r,) feedback row when r_agent == r

    @property
    def static(self):
        return self.r_agent == self.r


@dataclass(frozen=True)
class ObserverGain:
    C: np.ndarray             # (r,) measurement row on xihat
    M: np.ndarray             # (r,) injection gain
    poles: np.ndarray         # requested spectrum of A - M C


@dataclass(frozen=True)
class SpectrumCheck:
    """Closed-loop spectrum plus the analytic cross-check flag.

    ``analytic_consistent`` is True when the rank-one closed form matched
    the block spectrum, and None for full-rank gains (no closed
    form applies).
    """

    values: np.ndarray
    analytic_consistent: Optional[bool]


def _check_conjugate_closed(poles):
    tol = settings.conjugate_pair_tol
    pending = [complex(p) for p in poles if abs(complex(p).imag) > tol]
    while pending:
        p = pending.pop()
        target = p.conjugate()
        for k, q in enumerate(pending):
            if abs(q - target) <= tol * max(1.0, abs(p)):
                pending.pop(k)
                break
        else:
            raise NotConjugateClosedError(
                f"pole {p} has no conjugate partner in the set")


def design_companion(stable_poles):
    """Companion target from r - 1 strictly stable poles (plus the zero root).

    The pole set must be closed under conjugation so the coefficients come
    out real.
    """
    poles = [complex(p) for p in stable_poles]
    if not poles:
        raise UnstablePoleError("need at least one stable pole")
    _check_conjugate_closed(poles)
    worst = max(p.real for p in poles)
    if worst >= -settings.stable_pole_tol:
        raise UnstablePoleError(
            f"all poles must satisfy Re < -{settings.stable_pole_tol:.0e}, "
            f"got Re = {worst:.3e}")
    coeffs = np.poly(np.concatenate([[0.0], poles]))
    if np.abs(coeffs.imag).max() > 1e-9 * max(1.0, np.abs(coeffs).max()):
        raise NotConjugateClosedError("pole set produced complex coefficients")
    coeffs = coeffs.real
    r = len(poles) + 1
    # coeffs = [1, c_1, ..., c_{r-1}, 0] for s**r + c_1 s**(r-1) + ...;
    # the stored b list is [b_2, ..., b_r] = [c_{r-1}, ..., c_1]
    b = coeffs[1:r][::-1].copy()
    a = np.eye(r, k=1)
    a[r - 1, 1:] = -b
    bvec = np.zeros(r)
    bvec[r - 1] = 1.0
    poles.sort(key=lambda p: (p.real, p.imag))
    return CompanionSystem(r=r, b=b, A=a, B=bvec, nu=np.append(b, 1.0),
                           stable_poles=np.array(poles, dtype=complex))


def rank_one_gain(cs, mu, q1, r_hat):
    """Closed-form rank-one cooperative gain.

    K = mu sqrt(q1 r_hat) nu' and P1 = nu p1 nu' with
    p1 = sqrt(q1) / (sqrt(r_hat) B' nu).  P1 solves the consensus Riccati
    equation for the weight Q1 = q1 nu nu' exactly.
    """
    for name, val in (("mu", mu), ("q1", q1), ("r_hat", r_hat)):
        if not (val > 0 and np.isfinite(val)):
            raise NonPositiveParameterError(f"{name} must be positive, got {val!r}")
    btnu = float(cs.B @ cs.nu)
    p1 = np.sqrt(q1) / (np.sqrt(r_hat) * btnu)
    k = mu * np.sqrt(q1 * r_hat) * cs.nu
    p = p1 * np.outer(cs.nu, cs.nu)
    return ConsensusGain(rank="one", mu=float(mu), r_hat=float(r_hat),
                         K=k, P1=p, q1=float(q1))


def full_gain(cs, mu, q1_matrix, r_hat):
    """Full-rank cooperative gain: P1 from the Riccati equation, K = mu r_hat B' P1."""
    if not (mu > 0 and np.isfinite(mu)):
        raise NonPositiveParameterError(f"mu must be positive, got {mu!r}")
    if not (r_hat > 0 and np.isfinite(r_hat)):
        raise NonPositiveParameterError(f"r_hat must be positive, got {r_hat!r}")
    q1_matrix = np.asarray(q1_matrix, dtype=float)
    p = solve_care(cs.A, cs.B.reshape(-1, 1), q1_matrix,
                   np.array([[1.0 / r_hat]]))
    k = mu * r_hat * (cs.B @ p)
    return ConsensusGain(rank="full", mu=float(mu), r_hat=float(r_hat),
                         K=k, P1=p, Q1=q1_matrix)


def local_controller(cs, agent):
    """Degree-matching controller for one agent against the target `cs`.

    Dynamic case (agent.r < cs.r): phi' = D xi + E phi + G v with
    u_hat = phi_1.  Static case (agent.r == cs.r): no controller state,
    u_hat = static_row @ xi + v.  Either way the stacked chain reproduces
    (A, B) exactly; see :func:`assemble_stacked`.
    """
    r, ra = cs.r, agent.r
    if ra > r:
        raise DegreeExceedsTargetError(
            f"agent degree {ra} exceeds target degree {r}")
    m = r - ra
    if m == 0:
        row = np.zeros(r)
        row[1:] = -cs.b
        return LocalController(r=r, r_agent=ra,
                               D=np.zeros((0, ra)), E=np.zeros((0, 0)),
                               G=np.zeros(0), static_row=row)
    d = np.zeros((m, ra))
    d[-1, 1:] = -cs.b[:ra - 1]
    e = np.zeros((m, m))
    for k in range(m - 1):
        e[k, k + 1] = 1.0
    e[-1, :] = -cs.b[ra - 1:]
    g = np.zeros(m)
    g[-1] = 1.0
    return LocalController(r=r, r_agent=ra, D=d, E=e, G=g, static_row=None)


def assemble_stacked(cs, ctl):
    """Linear map of the stacked state (xi, phi) under the controller.

    Returns (M, Bvec) with d/dt [xi; phi] = M [xi; phi] + Bvec v.  The
    controller is correct exactly when M equals cs.A and Bvec equals cs.B.
    """
    r, ra = ctl.r, ctl.r_agent
    m = np.zeros((r, r))
    bvec = np.zeros(r)
    for k in range(ra - 1):
        m[k, k + 1] = 1.0
    if ctl.static:
        m[ra - 1, :] = ctl.static_row
        bvec[ra - 1] = 1.0
    else:
        m[ra - 1, ra] = 1.0  # u_hat = phi_1
        m[ra:, :ra] = ctl.D
        m[ra:, ra:] = ctl.E
        bvec[ra:] = ctl.G
    return m, bvec


def _obsv_matrix(c, a):
    rows = [c]
    for _ in range(a.shape[0] - 1):
        rows.append(rows[-1] @ a)
    return np.vstack(rows)


def observer_gain(cs, c, observer_poles):
    """Output-injection gain M with eig(A - M C) at the requested poles.

    Pole placement on the dual pair (Ackermann); the result is verified
    against the request and a PlacementFailure is raised on mismatch.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape[0] != cs.r:
        raise NotObservableError(
            f"C has {c.shape[0]} entries, expected r = {cs.r}")
    poles = np.asarray([complex(p) for p in observer_poles])
    if poles.shape[0] != cs.r:
        raise PlacementFailure(
            f"need exactly {cs.r} observer poles, got {poles.shape[0]}")
    _check_conjugate_closed(poles)
    obsv = _obsv_matrix(c, cs.A)
    svals = np.linalg.svd(obsv, compute_uv=False)
    if svals[-1] <= settings.observability_sv_tol:
        raise NotObservableError(
            f"(C, A) is not observable (sigma_min = {svals[-1]:.3e})")
    coeffs = np.poly(poles).real
    p_of_a = np.zeros_like(cs.A)
    for cof in coeffs:
        p_of_a = p_of_a @ cs.A + cof * np.eye(cs.r)
    e_last = np.zeros(cs.r)
    e_last[-1] = 1.0
    m = p_of_a @ np.linalg.solve(obsv, e_last)
    achieved = eig(cs.A - np.outer(m, c))
    want = np.sort_complex(poles)
    worst = _multiset_distance(want, achieved)
    if worst > settings.observer_placement_tol * max(1.0, np.abs(poles).max()):
        raise PlacementFailure(
            f"achieved observer spectrum off by {worst:.3e}")
    return ObserverGain(C=c, M=m, poles=poles)


def _multiset_distance(a, b):
    """Worst cluster-mean gap between two complex spectral multisets.

    Both multisets are pooled and grouped by single linkage: values within
    1e-2 * scale of each other, directly or through a chain of such
    neighbours, form one group, whichever multiset they come from.  Each
    group must hold as many values of ``a`` as of ``b`` (else the distance
    is inf), and the means of its two parts are compared.

    A backward-stable eigensolver splits a defective eigenvalue of
    multiplicity m by roughly eps**(1/m), and close eigenvalues by an
    amount that grows as their gap shrinks, far beyond any honest
    per-eigenvalue tolerance, while the mean of the split cluster stays
    accurate as long as the cluster lies well apart from the rest of the
    spectrum.  Clusters close to each other must be compared jointly: in a
    ten-agent r = 6 design whose coupling eigenvalue sits 1.3e-4 from one
    of two target poles 0.0063 apart, the block spectra of
    :func:`closed_loop_spectrum` have cluster means off by 9.2e-10 and
    1.0e-9 but a joint mean off by 1.6e-12, hence the radius.  Genuinely
    distinct eigenvalues that fall into one group are still checked,
    jointly through their mean.  For simple well-separated spectra every
    group is one value of each multiset and this is plain
    nearest-neighbour matching.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return np.inf
    if a.size == 0:
        return 0.0
    pool = np.concatenate([a, b])
    radius = 1e-2 * max(1.0, float(np.abs(a).max()))
    near = np.abs(pool[:, None] - pool[None, :]) <= radius
    # every value takes the smallest index reachable through its group
    label = np.arange(pool.size)
    while True:
        low = np.where(near, label, pool.size).min(axis=1)
        low = np.minimum(low, low[low])
        if np.array_equal(low, label):
            break
        label = low
    n = a.size
    count = np.bincount(label[:n], minlength=2 * n)
    if not np.array_equal(count, np.bincount(label[n:], minlength=2 * n)):
        return np.inf
    gap = np.zeros(2 * n, dtype=complex)  # per group: sum of a less sum of b
    np.add.at(gap, label, np.concatenate([a, -b]))
    held = count > 0
    return float((np.abs(gap[held]) / count[held]).max())


def closed_loop_spectrum(cs, gain, lap):
    """Spectrum of the cooperative closed loop I (x) A - L (x) (B K).

    With L = U T U* its Schur form, (U* (x) I) applied to the closed loop
    gives the block triangle I (x) A - T (x) (B K), whose diagonal blocks
    are A - gamma_i B K, one per eigenvalue gamma_i of L (Fax & Murray,
    IEEE TAC 49(9), 2004).  So the spectrum is the union of those N r x r
    spectra, and no (N r) x (N r) matrix is built: the blocks of real
    gamma are one real stack, those with Im gamma > 0 one complex stack
    whose spectra are appended with their exact conjugates, and the union
    is sorted by (real, imag).

    For rank-one gains the analytic multiset

        { -mu sqrt(q1 r_hat) (B' nu) gamma : gamma in eig(L) }
        union  (N copies of the stable target poles)

    is returned and verified against the block spectrum; a mismatch
    beyond tolerance raises InconsistentSpectraError.  Repeated
    eigenvalues (including those split by a Jordan block of L) are
    compared through cluster means.  For full-rank gains the block
    spectrum is returned unchecked.
    """
    gamma = eig(lap)
    bk = np.outer(cs.B, gain.K)
    real = eig(cs.A - gamma.real[gamma.imag == 0, None, None] * bk)
    upper = eig(cs.A - gamma[gamma.imag > 0, None, None] * bk)
    blocks = np.concatenate([real.ravel(), upper.ravel(),
                             upper.ravel().conj()])
    if gain.rank != "one":
        order = np.lexsort((blocks.imag, blocks.real))
        return SpectrumCheck(values=blocks[order], analytic_consistent=None)
    c = gain.mu * np.sqrt(gain.q1 * gain.r_hat) * float(cs.B @ cs.nu)
    analytic = np.concatenate([-c * gamma,
                               np.tile(cs.stable_poles, len(gamma))])
    analytic = np.sort_complex(analytic)
    scale = max(1.0, float(np.abs(blocks).max()))
    worst = _multiset_distance(analytic, blocks)
    if worst > settings.spectrum_match_tol * scale:
        raise InconsistentSpectraError(
            f"analytic and block spectra differ by {worst:.3e} "
            f"(tolerance {settings.spectrum_match_tol * scale:.3e})")
    return SpectrumCheck(values=analytic, analytic_consistent=True)
