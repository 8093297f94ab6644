"""Trajectory metrics and convergence-rate estimates.

The headline quantity is the output disagreement

    d(t) = max_{i,j} |y_i(t) - y_j(t)|

which the synthesis drives to zero exponentially.  `empirical_rate` fits
log d(t) over a window by least squares and reports the decay rate as a
positive number.  `theoretical_speed_fixed` evaluates the guaranteed rate of
the rank-one design on a fixed graph, the spectral abscissa of its closed
loop once the Laplacian's structural zero is dropped;
`theoretical_speed_switching` defers to the switching module's
stationary-average rate, the fast-switching limit (not a bound at finite
switching rates).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ValidationError
from .graph import _reachable
from .linalg import eig
from .switching import speed_bound

__all__ = [
    "disagreement", "RateFit", "empirical_rate",
    "theoretical_speed_fixed", "theoretical_speed_switching",
]

_RATE_FLOOR = 1e-15


def disagreement(traj):
    """Per-sample max pairwise output gap, aligned with ``traj.times``."""
    return traj.y.max(axis=1) - traj.y.min(axis=1)


@dataclass(frozen=True)
class RateFit:
    rate: float          # decay rate, positive when the series shrinks
    intercept: float     # fitted log-value at t = 0
    window: tuple        # (t0, t1) actually used
    r_squared: float


def empirical_rate(times, values, window=None):
    """Least-squares exponential rate of a positive decaying series.

    Fits log(values) = intercept - rate * t over the window (defaults to
    the last 60 percent of the horizon).  Values are floored at 1e-15
    (_RATE_FLOOR) before taking logs; a window whose values are all at or
    below zero is rejected since no decay rate is identifiable.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise ValidationError(
            "times and values must be equal-length 1-d arrays")
    if window is None:
        t0 = times[0] + 0.4 * (times[-1] - times[0])
        window = (float(t0), float(times[-1]))
    t0, t1 = float(window[0]), float(window[1])
    mask = (times >= t0) & (times <= t1)
    if mask.sum() < 2:
        raise ConvergenceFailure(
            f"window [{t0:g}, {t1:g}] selects {int(mask.sum())} samples; "
            "need at least 2")
    tw = times[mask]
    vw = values[mask]
    if not np.any(vw > 0):
        raise ConvergenceFailure(
            "no positive values inside the fit window")
    logv = np.log(np.maximum(vw, _RATE_FLOOR))
    slope, intercept = np.polyfit(tw, logv, 1)
    pred = slope * tw + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(rate=float(-slope), intercept=float(intercept),
                   window=(t0, t1), r_squared=r2)


def theoretical_speed_fixed(cs, gain, lap):
    """Guaranteed decay rate of the rank-one design on a fixed graph.

    The closed loop I (x) A - L (x) B K has the spectrum -c eig(L) plus N
    copies of the target poles, c = mu sqrt(q1 r_hat) (the paper's factor
    B' nu is 1 for the normalized target, see synthesis).  With a
    spanning tree in the off-diagonal pattern of L, eig(L) holds exactly
    one structural zero; the rate is the spectral abscissa of the rest,
    with the one gamma nearest zero dropped and no threshold.
    """
    if gain.rank != "one":
        raise ValidationError(
            "the guaranteed-rate formula needs a rank-one gain")
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValidationError(f"Laplacian must be square, got {lap.shape}")
    if ((lap > 0) & ~np.eye(len(lap), dtype=bool)).any():
        raise ValidationError("Laplacian off-diagonal entries must be <= 0")
    if not _reachable(lap.T < 0).all(axis=1).any():  # L[i, j] < 0: j -> i
        raise ValidationError("graph has no directed spanning tree")
    gamma = eig(lap)
    if gamma.size < 2:
        raise ValidationError(
            "a one-node graph has no eigenvalue besides zero")
    gamma = np.delete(gamma, np.argmin(np.abs(gamma)))
    coupling = (gain.mu * np.sqrt(gain.q1 * gain.r_hat)
                * float(gamma.real.min()))
    return float(min([coupling, *(-cs.stable_poles.real).tolist()]))


def theoretical_speed_switching(mt, gain, cs):
    """Stationary-average rate under Markov switching: the fast-switching
    limit, not a bound at a finite switching rate (see speed_bound)."""
    return speed_bound(mt, gain, cs)
