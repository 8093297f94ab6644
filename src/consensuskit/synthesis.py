"""Controller synthesis for output consensus of heterogeneous agents.

Every agent is steered toward one shared linear target: the companion
system with characteristic polynomial

    s**r + b_r s**(r-1) + ... + b_2 s        (constant term zero),

state matrix A (ones on the superdiagonal, last row [0, -b_2, ..., -b_r]),
and input vector B = e_r.  The zero root lets the group agree on a nonzero
constant output.  The vector nu = [b_2, ..., b_r, 1] spans the left null
space of A and is normalized so B' nu = nu_r = 1.  The formulas below and
in the metrics and switching modules are written for this target: the
paper's factor B' nu is 1 there, and no code computes it.

Cooperative gain.  The rank-one design takes

    P1 = nu p1 nu',   p1 = sqrt(q1) / sqrt(r_hat),
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

from .errors import ConvergenceFailure, SynthesisError, ValidationError
from .linalg import _read_only, eig, solve_care

__all__ = [
    "CompanionSystem", "ConsensusGain", "LocalController", "ObserverGain",
    "design_companion", "rank_one_gain", "full_gain",
    "local_controller", "assemble_stacked",
    "observer_gain", "closed_loop_spectrum",
]

_CONJUGATE_PAIR_TOL = 1e-9
_STABLE_POLE_TOL = 1e-9
_OBSERVABILITY_SV_TOL = 1e-9
_OBSERVER_PLACEMENT_TOL = 1e-6
_SPECTRUM_MATCH_TOL = 1e-7


@dataclass(frozen=True)
class CompanionSystem:
    """Shared consensus target of degree r."""

    r: int
    b: np.ndarray             # coefficients [b_2, ..., b_r]
    A: np.ndarray             # (r, r) companion matrix
    B: np.ndarray             # (r,) input vector e_r
    nu: np.ndarray            # (r,) left null vector [b_2, ..., b_r, 1]
    stable_poles: np.ndarray  # the r - 1 nonzero roots, complex
    __post_init__ = _read_only


@dataclass(frozen=True)
class ConsensusGain:
    rank: str                 # "one" or "full"
    mu: float
    r_hat: float
    K: np.ndarray             # (r,) cooperative gain row, mu included
    P1: np.ndarray            # (r, r) Riccati solution
    q1: Optional[float] = None  # scalar weight (rank-one only)
    __post_init__ = _read_only


@dataclass(frozen=True)
class LocalController:
    """Degree-matching compensator for one agent."""

    r: int                    # target degree
    r_agent: int              # agent chain degree
    D: np.ndarray             # (r - r_agent, r_agent)
    E: np.ndarray             # (r - r_agent, r - r_agent)
    G: np.ndarray             # (r - r_agent,)
    static_row: Optional[np.ndarray]  # (r,) feedback row when r_agent == r
    __post_init__ = _read_only

    @property
    def static(self):
        return self.r_agent == self.r


@dataclass(frozen=True)
class ObserverGain:
    C: np.ndarray             # (r,) measurement row on xihat
    M: np.ndarray             # (r,) injection gain
    poles: np.ndarray         # requested spectrum of A - M C
    __post_init__ = _read_only


def _check_conjugate_closed(poles):
    tol = _CONJUGATE_PAIR_TOL
    pending = [complex(p) for p in poles if abs(complex(p).imag) > tol]
    while pending:
        p = pending.pop()
        target = p.conjugate()
        for k, q in enumerate(pending):
            if abs(q - target) <= tol * max(1.0, abs(p)):
                pending.pop(k)
                break
        else:
            raise ValidationError(
                f"pole {p} has no conjugate partner in the set")


def design_companion(stable_poles):
    """Companion target from r - 1 strictly stable poles (plus the zero root).

    The pole set must be closed under conjugation so the coefficients come
    out real, and small enough that the coefficients, and the products nu
    nu' the rank-one P1 is made of, are finite.
    """
    poles = [complex(p) for p in stable_poles]
    if not poles:
        raise ValidationError("need at least one stable pole")
    _check_conjugate_closed(poles)
    worst = max(p.real for p in poles)
    if worst >= -_STABLE_POLE_TOL:
        raise ValidationError(
            f"all poles must satisfy Re < -{_STABLE_POLE_TOL:.0e}, "
            f"got Re = {worst:.3e}")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.poly(np.concatenate([[0.0], poles]))
        biggest = np.abs(coeffs).max()
        finite = np.isfinite(biggest * biggest)
    if not finite:
        raise SynthesisError(
            f"the poles overflow the target: its coefficients, or their "
            f"products nu nu' in P1, are not finite (largest |pole| "
            f"{max(abs(p) for p in poles):.3g})")
    if np.abs(coeffs.imag).max() > 1e-9 * max(1.0, biggest):
        raise ValidationError("pole set produced complex coefficients")
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
    p1 = sqrt(q1) / sqrt(r_hat).  P1 solves the consensus Riccati
    equation for the weight Q1 = q1 nu nu' exactly.
    """
    for name, val in (("mu", mu), ("q1", q1), ("r_hat", r_hat)):
        if not (val > 0 and np.isfinite(val)):
            raise ValidationError(f"{name} must be positive, got {val!r}",
                                  field=name)
    with np.errstate(over="ignore"):
        k = mu * np.sqrt(q1 * r_hat) * cs.nu
        p1 = np.sqrt(q1) / np.sqrt(r_hat)
        p = p1 * np.outer(cs.nu, cs.nu)
    if not np.isfinite(k).all():
        raise SynthesisError(
            f"the gain K = mu sqrt(q1 r_hat) nu overflows (mu = {mu!r}, "
            f"q1 = {q1!r}, r_hat = {r_hat!r})")
    if not np.isfinite(p).all():
        raise SynthesisError(
            f"P1 = nu p1 nu' overflows (q1 = {q1!r}, r_hat = {r_hat!r})")
    return ConsensusGain(rank="one", mu=float(mu), r_hat=float(r_hat),
                         K=k, P1=p, q1=float(q1))


def full_gain(cs, mu, q1_matrix, r_hat):
    """Full-rank cooperative gain: P1 from the Riccati equation, K = mu r_hat B' P1."""
    if not (mu > 0 and np.isfinite(mu)):
        raise ValidationError(f"mu must be positive, got {mu!r}", field="mu")
    if not (r_hat > 0 and np.isfinite(r_hat)):
        raise ValidationError(f"r_hat must be positive, got {r_hat!r}",
                              field="r_hat")
    if not np.isfinite(1.0 / r_hat):
        raise ValidationError(f"1 / r_hat overflows (r_hat = {r_hat!r})",
                              field="r_hat")
    q1_matrix = np.asarray(q1_matrix, dtype=float)
    p = solve_care(cs.A, cs.B.reshape(-1, 1), q1_matrix,
                   np.array([[1.0 / r_hat]]))
    with np.errstate(over="ignore"):
        k = mu * r_hat * (cs.B @ p)
    if not np.isfinite(k).all():
        raise SynthesisError(
            f"the gain K = mu r_hat B' P1 overflows (mu = {mu!r}, "
            f"r_hat = {r_hat!r})")
    if not np.isfinite(p).all():
        raise SynthesisError("the Riccati solution P1 overflows")
    return ConsensusGain(rank="full", mu=float(mu), r_hat=float(r_hat),
                         K=k, P1=p)


def local_controller(cs, agent):
    """Degree-matching controller for one agent against the target `cs`.

    Dynamic case (agent.r < cs.r): phi' = D xi + E phi + G v with
    u_hat = phi_1.  Static case (agent.r == cs.r): no controller state,
    u_hat = static_row @ xi + v.  Either way the stacked chain reproduces
    (A, B) exactly; see :func:`assemble_stacked`.
    """
    r, ra = cs.r, agent.r
    if ra > r:
        raise ValidationError(
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
    against the request and a SynthesisError is raised on mismatch.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape[0] != cs.r:
        raise ValidationError(
            f"C has {c.shape[0]} entries, expected r = {cs.r}")
    poles = np.asarray([complex(p) for p in observer_poles])
    if poles.shape[0] != cs.r:
        raise ValidationError(
            f"need exactly {cs.r} observer poles, got {poles.shape[0]}")
    _check_conjugate_closed(poles)
    try:  # a huge C or pole overflows C A^k or the pole polynomial of A
        with np.errstate(over="raise", invalid="raise"):
            obsv = _obsv_matrix(c, cs.A)
            svals = np.linalg.svd(obsv, compute_uv=False)
            if svals[-1] <= _OBSERVABILITY_SV_TOL:
                raise SynthesisError(
                    f"(C, A) is not observable (sigma_min = {svals[-1]:.3e})")
            p_of_a = np.zeros_like(cs.A)
            for cof in np.poly(poles).real:
                p_of_a = p_of_a @ cs.A + cof * np.eye(cs.r)
            m = p_of_a @ np.linalg.solve(obsv, np.eye(cs.r)[-1])
            closed = cs.A - np.outer(m, c)
    except FloatingPointError as exc:
        raise SynthesisError(f"the observer overflows: {exc}") from exc
    achieved = eig(closed)
    want = np.sort_complex(poles)
    worst = _multiset_distance(want, achieved)
    if worst > _OBSERVER_PLACEMENT_TOL * max(1.0, np.abs(poles).max()):
        raise SynthesisError(
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
    nearest-neighbour matching.  A NaN is within the radius of no value,
    itself included, so it makes a group of its own and the distance is
    inf.

    The neighbour relation is one boolean matrix over the pool, its
    diagonal set.  Most pools split into cliques (groups in which every
    two values are neighbours), which one pass finds: each value takes
    its first neighbour, and the labels are the groups when every row
    equals the row of its label.  Otherwise, from there, each value takes
    the smallest label among its neighbours, and then its label's label,
    until no label moves.  Either way a group is named by its smallest
    index, and its sum is taken in index order.
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
    np.fill_diagonal(near, True)
    label = near.argmax(axis=1)  # the first neighbour, at most the index
    if not (near[label] == near).all():
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

    Returns the spectrum sorted by (real, imag).  For rank-one gains that
    is the analytic multiset

        { -mu sqrt(q1 r_hat) gamma : gamma in eig(L) }
        union  (N copies of the stable target poles)

    once it is verified against the block spectrum; a mismatch beyond
    tolerance raises ConvergenceFailure.
    Repeated eigenvalues (including those split by a Jordan block of L)
    are compared through cluster means.  For full-rank gains the block
    spectrum is returned unchecked.
    """
    gamma = eig(lap)
    bk = np.outer(cs.B, gain.K)
    real = eig(cs.A - gamma.real[gamma.imag == 0, None, None] * bk)
    upper = eig(cs.A - gamma[gamma.imag > 0, None, None] * bk)
    blocks = np.concatenate([real.ravel(), upper.ravel(),
                             upper.ravel().conj()])
    if gain.rank != "one":
        return blocks[np.lexsort((blocks.imag, blocks.real))]
    c = gain.mu * np.sqrt(gain.q1 * gain.r_hat)
    analytic = np.concatenate([-c * gamma,
                               np.tile(cs.stable_poles, len(gamma))])
    analytic = np.sort_complex(analytic)
    scale = max(1.0, float(np.abs(blocks).max()))
    worst = _multiset_distance(analytic, blocks)
    if worst > _SPECTRUM_MATCH_TOL * scale:
        raise ConvergenceFailure(
            f"analytic and block spectra differ by {worst:.3e} "
            f"(tolerance {_SPECTRUM_MATCH_TOL * scale:.3e})")
    return analytic
