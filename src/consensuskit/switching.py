"""Randomly switching topologies driven by a continuous-time Markov chain.

The chain lives on mode indices 0..l-1 with generator Q (rows sum to zero,
off-diagonal entries nonnegative); each mode selects one communication
graph.  Consensus under switching needs neither graph to be connected on
its own: it suffices that the union graph has a spanning tree and is
weight balanced (assumption "union-connected and balanced" below), in
which case the mean-square disagreement decays at least at the rate
returned by :func:`speed_bound`.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

import numpy as np

from .errors import ConvergenceFailure, ValidationError
from .graph import (
    DiGraph,
    _reachable,
    has_spanning_tree,
    is_balanced,
    laplacian,
    union,
)
from .linalg import _read_only
from .rng import STREAM_MODE_PATH, rng_for

__all__ = [
    "MarkovTopology", "GraphCheck", "A4Report",
    "stationary_distribution", "sample_path", "check_A4", "speed_bound",
]

_GENERATOR_ROW_TOL = 1e-12
_STATIONARY_RESIDUAL_TOL = 1e-10


def _validate_generator(gen):
    gen = np.asarray(gen, dtype=float)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise ValidationError(f"generator must be square, got {gen.shape}")
    if not np.isfinite(gen).all():
        raise ValidationError("generator has non-finite entries")
    off = gen - np.diag(np.diag(gen))
    if (off < 0).any():
        raise ValidationError(
            "off-diagonal generator entries must be nonnegative")
    rowsum = np.abs(gen.sum(axis=1)).max()
    if rowsum > _GENERATOR_ROW_TOL * max(1.0, np.abs(gen).max()):
        raise ValidationError(
            f"generator rows must sum to zero (worst {rowsum:.3e})")
    return gen


def stationary_distribution(generator):
    """Stationary law pi of an irreducible generator: pi' Q = 0, sum(pi) = 1.

    Solved as the least-squares system [Q'; 1'] pi = [0; 1].
    """
    return _stationary(_validate_generator(generator))


def _stationary(gen):
    """stationary_distribution of a generator already validated."""
    l = gen.shape[0]
    if not _reachable(gen > 0).all():
        raise ValidationError(
            "generator is reducible: not every mode reaches every other")
    lhs = np.vstack([gen.T, np.ones((1, l))])
    rhs = np.zeros(l + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    resid = np.linalg.norm(pi @ gen)
    if resid > _STATIONARY_RESIDUAL_TOL * max(1.0, np.abs(gen).max()):
        raise ConvergenceFailure(
            f"stationary residual {resid:.3e} above tolerance")
    if (pi <= 0).any():
        raise ValidationError(
            f"stationary law has nonpositive mass: {pi}")
    return pi / pi.sum()


@dataclass(frozen=True, eq=False)
class MarkovTopology:
    """Immutable mode graphs plus the generator of the switching chain.

    ``graphs`` is kept as a tuple and ``generator`` as a read-only copy.
    ``pi`` is not an argument: it is the chain's stationary law, computed
    from the generator, which sample_path draws the initial mode from and
    whose smallest entry scales speed_bound.  The modes' ``union`` graph
    and its ``a4_report`` (check_A4) are computed on first use and kept.
    """

    graphs: Tuple[DiGraph, ...]
    generator: np.ndarray
    pi: np.ndarray = field(init=False)

    def __post_init__(self):
        graphs = tuple(self.graphs)
        if not graphs:
            raise ValidationError("need at least one mode graph")
        n = graphs[0].n
        for g in graphs[1:]:
            if g.n != n:
                raise ValidationError("mode graphs must share node count")
        gen = _validate_generator(self.generator)
        if gen.shape[0] != len(graphs):
            raise ValidationError(
                f"generator is {gen.shape[0]}x{gen.shape[0]} for "
                f"{len(graphs)} graphs")
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "pi", _stationary(gen))
        _read_only(self)

    @property
    def n(self):
        return self.graphs[0].n

    @property
    def n_modes(self):
        return len(self.graphs)

    @cached_property
    def union(self):
        return union(self.graphs)

    @cached_property
    def a4_report(self):
        return A4Report(has_spanning_tree(self.union), is_balanced(self.union),
                        tuple(GraphCheck(has_spanning_tree(g), is_balanced(g))
                              for g in self.graphs))


def _cdf(p):
    """The cumulative row Generator.choice(len(p), p=p) draws against."""
    if not np.all(p >= 0):
        raise ValidationError("probabilities are not non-negative")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_path(mt, t_end, seed, run_index=0):
    """One realization of the mode process on [0, t_end].

    Returns a list of (mode, t_start, t_stop) intervals that tile
    [0, t_end] exactly.  The initial mode is drawn from the stationary law,
    holding times are exponential with rate -Q[k, k], and jumps follow the
    embedded chain.  Identical (seed, run_index) reproduce the path.

    Each mode draw takes one ``rng.random()`` and looks it up in the
    cumulative probabilities, as ``rng.choice(l, p=p)`` does, so paths are
    those of ``choice``; a mode's jump row is built at its first jump.
    """
    if not 0.0 < t_end < np.inf:  # NaN fails both comparisons
        raise ValidationError(f"t_end must be positive and finite, got "
                              f"{t_end!r}")
    rng = rng_for(seed, run_index, STREAM_MODE_PATH)
    gen = mt.generator
    mode = int(_cdf(mt.pi).searchsorted(rng.random(), side="right"))
    jumps = {}
    path = []
    t = 0.0
    while t < t_end:
        rate = -gen[mode, mode]
        if rate <= 1e-15:
            path.append((mode, t, t_end))
            break
        hold = rng.exponential(1.0 / rate)
        stop = min(t + hold, t_end)
        path.append((mode, t, stop))
        if stop >= t_end:
            break
        cdf = jumps.get(mode)
        if cdf is None:
            probs = gen[mode].copy()
            probs[mode] = 0.0
            probs = probs / rate
            cdf = jumps[mode] = _cdf(probs / probs.sum())
        mode = int(cdf.searchsorted(rng.random(), side="right"))
        t = stop
    return path


@dataclass(frozen=True)
class GraphCheck:
    has_spanning_tree: bool
    balanced: bool


@dataclass(frozen=True)
class A4Report:
    union_has_spanning_tree: bool
    union_balanced: bool
    per_graph: Tuple[GraphCheck, ...]

    @property
    def passes(self):
        return self.union_has_spanning_tree and self.union_balanced

    def require(self):
        """Raise the A4 refusal, naming each fact that failed, unless the
        union passes."""
        failed = [fact for fact, holds in (
            ("has no spanning tree", self.union_has_spanning_tree),
            ("is not weight-balanced", self.union_balanced)) if not holds]
        if failed:
            raise ValidationError(
                f"the union of the mode graphs {' and '.join(failed)} "
                "(assumption A4)", field="switching")


def check_A4(mt):
    """Union-graph connectivity and balance report, kept on the topology."""
    return mt.a4_report


def _lambda_min_on_disagreement(sym):
    """Smallest eigenvalue of a symmetric matrix (n >= 2) on ones-perp.

    The consensus direction is deflated exactly by projecting onto an
    orthonormal basis of the complement of span(ones).
    """
    n = sym.shape[0]
    v = np.ones(n) / np.sqrt(n)
    v[0] -= 1.0
    v = v / np.linalg.norm(v)
    basis = (np.eye(n) - 2.0 * np.outer(v, v))[:, 1:]
    reduced = basis.T @ sym @ basis
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])


def speed_bound(mt, gain, cs):
    """Mean-square consensus rate under switching, in the fast-switching limit.

    min(pi) * mu * sqrt(q1 r_hat) * lambda_min(L_union + L_union'), where
    lambda_min excludes the structural zero along ones (the paper's factor
    B' nu is 1 for the normalized target, see synthesis).  Requires the
    rank-one gain, at least two agents (one raises ValidationError), and the
    union graph to satisfy the spanning-tree and balance assumption.

    It is not a bound at a finite switching rate: on the design of
    scenarios/five_agents_switching.json (two modes whose union is the
    directed 5-cycle, the unit gain) it reads 0.691, while the exact
    second-moment decay rate of the Markov jump linear system is about
    0.519 at switching rate 1 and 0.676 at rate 10.
    """
    if gain.rank != "one":
        raise ValidationError("speed bound applies to the rank-one gain only")
    if mt.n == 1:
        raise ValidationError("one agent has no disagreement to decay")
    check_A4(mt).require()
    lap = laplacian(mt.union)
    lam = _lambda_min_on_disagreement(lap + lap.T)
    return float(mt.pi.min() * gain.mu * np.sqrt(gain.q1 * gain.r_hat)
                 * lam)

