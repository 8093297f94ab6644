"""Trajectory metrics and convergence-rate estimates.

The headline quantity is the output disagreement

    d(t) = max_{i,j} |y_i(t) - y_j(t)|

which the synthesis drives to zero exponentially.  `empirical_rate` fits
log d(t) over a window by least squares and reports the decay rate as a
positive number.  `theoretical_speed_fixed` evaluates the guaranteed rate of
the rank-one design on a fixed graph; `theoretical_speed_switching` defers
to the switching module's stationary-average rate, the fast-switching
limit (not a bound at finite switching rates).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyWindowError,
    NonPositiveSeriesError,
    NoSpanningTreeError,
    NotRankOneError,
)
from .graph import DiGraph, has_spanning_tree, lambda_min_nonzero
from .settings import settings
from .switching import speed_bound

__all__ = [
    "disagreement", "RateFit", "empirical_rate",
    "theoretical_speed_fixed", "theoretical_speed_switching",
    "SpeedConventionWarning",
]


class SpeedConventionWarning(UserWarning):
    """The plant-pole term of the guaranteed rate is convention dependent."""


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
    the last 60 percent of the horizon).  Values are floored at
    ``settings.rate_floor`` before taking logs; a window whose values are
    all at or below zero is rejected since no decay rate is identifiable.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise EmptyWindowError("times and values must be equal-length 1-d arrays")
    if window is None:
        t0 = times[0] + 0.4 * (times[-1] - times[0])
        window = (float(t0), float(times[-1]))
    t0, t1 = float(window[0]), float(window[1])
    mask = (times >= t0) & (times <= t1)
    if mask.sum() < 2:
        raise EmptyWindowError(
            f"window [{t0:g}, {t1:g}] selects {int(mask.sum())} samples; "
            "need at least 2")
    tw = times[mask]
    vw = values[mask]
    if not np.any(vw > 0):
        raise NonPositiveSeriesError(
            "no positive values inside the fit window")
    logv = np.log(np.maximum(vw, settings.rate_floor))
    slope, intercept = np.polyfit(tw, logv, 1)
    pred = slope * tw + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(rate=float(-slope), intercept=float(intercept),
                   window=(t0, t1), r_squared=r2)


def _graph_from_laplacian(lap):
    lap = np.asarray(lap, dtype=float)
    w = -lap.copy()
    np.fill_diagonal(w, 0.0)
    w[np.abs(w) < 1e-15] = 0.0
    return DiGraph(w)


def theoretical_speed_fixed(cs, gain, lap):
    """Guaranteed decay rate of the rank-one design on a fixed graph.

    The rate is the slower of the network term
    mu * sqrt(q1 * r_hat) * (B' nu) * Re(lambda_min_nonzero(L)) and the
    slowest open-loop target pole, read as the smallest nonzero real part
    of the spectrum of -A.  A SpeedConventionWarning is raised when the
    alternative reading of the pole term, the largest real part, would
    change the returned rate.
    """
    if gain.rank != "one":
        raise NotRankOneError("the guaranteed-rate formula needs a rank-one gain")
    graph = _graph_from_laplacian(lap)
    if not has_spanning_tree(graph):
        raise NoSpanningTreeError("graph has no directed spanning tree")
    b_nu = float(cs.B @ cs.nu)
    coupling = (gain.mu * np.sqrt(gain.q1 * gain.r_hat) * b_nu
                * float(lambda_min_nonzero(np.asarray(lap)).real))
    if cs.r == 1:
        return float(coupling)
    pole_re = -cs.stable_poles.real
    rate = float(min(coupling, pole_re.min()))
    alternative = float(min(coupling, pole_re.max()))
    if alternative != rate:
        warnings.warn(
            f"the plant-pole term is read as the smallest nonzero real part "
            f"({pole_re.min():g}), giving rate {rate:g}; the alternative "
            f"largest-magnitude reading ({pole_re.max():g}) would give "
            f"{alternative:g}", SpeedConventionWarning)
    return rate


def theoretical_speed_switching(mt, gain, cs):
    """Stationary-average rate under Markov switching: the fast-switching
    limit, not a bound at a finite switching rate (see speed_bound)."""
    return speed_bound(mt, gain, cs)
