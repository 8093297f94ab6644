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
from typing import List

import numpy as np

from .errors import (
    A4ViolatedError,
    DimensionMismatchError,
    NotRankOneError,
    ReducibleChainError,
    SingularSystemError,
)
from .graph import DiGraph, has_spanning_tree, is_balanced, laplacian, union
from .rng import STREAM_MODE_PATH, rng_for
from .settings import settings

__all__ = [
    "MarkovTopology", "GraphCheck", "A4Report",
    "stationary_distribution", "sample_path", "check_A4", "speed_bound",
    "default_switching_pair",
]


def _validate_generator(gen):
    gen = np.asarray(gen, dtype=float)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise DimensionMismatchError(f"generator must be square, got {gen.shape}")
    if not np.all(np.isfinite(gen)):
        raise ValueError("generator has non-finite entries")
    off = gen - np.diag(np.diag(gen))
    if np.any(off < 0):
        raise ValueError("off-diagonal generator entries must be nonnegative")
    rowsum = np.abs(gen.sum(axis=1)).max()
    if rowsum > settings.generator_row_tol * max(1.0, np.abs(gen).max()):
        raise ValueError(f"generator rows must sum to zero (worst {rowsum:.3e})")
    return gen


def _strongly_connected(gen):
    l = gen.shape[0]
    adj = gen > 0
    np.fill_diagonal(adj, False)

    def reach(mat):
        seen = np.zeros(l, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            k = stack.pop()
            for j in np.flatnonzero(mat[k]):
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return seen.all()

    return reach(adj) and reach(adj.T)


def stationary_distribution(generator):
    """Stationary law pi of an irreducible generator: pi' Q = 0, sum(pi) = 1.

    Solved as the least-squares system [Q'; 1'] pi = [0; 1].
    """
    gen = _validate_generator(generator)
    l = gen.shape[0]
    if l > 1 and not _strongly_connected(gen):
        raise ReducibleChainError(
            "generator is reducible: not every mode reaches every other")
    lhs = np.vstack([gen.T, np.ones((1, l))])
    rhs = np.zeros(l + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    resid = np.linalg.norm(pi @ gen)
    if resid > settings.stationary_residual_tol * max(1.0, np.abs(gen).max()):
        raise SingularSystemError(
            f"stationary residual {resid:.3e} above tolerance")
    if np.any(pi <= 0):
        raise ReducibleChainError(
            f"stationary law has nonpositive mass: {pi}")
    return pi / pi.sum()


@dataclass
class MarkovTopology:
    """Mode graphs plus the generator of the switching chain."""

    graphs: List[DiGraph]
    generator: np.ndarray
    pi: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.graphs:
            raise DimensionMismatchError("need at least one mode graph")
        n = self.graphs[0].n
        for g in self.graphs[1:]:
            if g.n != n:
                raise DimensionMismatchError("mode graphs must share node count")
        gen = _validate_generator(self.generator)
        if gen.shape[0] != len(self.graphs):
            raise DimensionMismatchError(
                f"generator is {gen.shape[0]}x{gen.shape[0]} for "
                f"{len(self.graphs)} graphs")
        self.generator = gen
        if self.pi is None:
            self.pi = stationary_distribution(gen)
        else:
            self.pi = np.asarray(self.pi, dtype=float)

    @property
    def n(self):
        return self.graphs[0].n

    @property
    def n_modes(self):
        return len(self.graphs)


def sample_path(mt, t_end, seed, run_index=0):
    """One realization of the mode process on [0, t_end].

    Returns a list of (mode, t_start, t_stop) intervals that tile
    [0, t_end] exactly.  The initial mode is drawn from the stationary law,
    holding times are exponential with rate -Q[k, k], and jumps follow the
    embedded chain.  Identical (seed, run_index) reproduce the path.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    rng = rng_for(seed, run_index, STREAM_MODE_PATH)
    gen = mt.generator
    l = mt.n_modes
    pi = mt.pi / mt.pi.sum()
    mode = int(rng.choice(l, p=pi))
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
        probs = gen[mode].copy()
        probs[mode] = 0.0
        probs = probs / rate
        mode = int(rng.choice(l, p=probs / probs.sum()))
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
    per_graph: List[GraphCheck]

    @property
    def passes(self):
        return self.union_has_spanning_tree and self.union_balanced


def check_A4(mt):
    """Union-graph connectivity and balance report for a switching topology."""
    u = union(mt.graphs)
    per = [GraphCheck(has_spanning_tree(g), is_balanced(g)) for g in mt.graphs]
    return A4Report(union_has_spanning_tree=has_spanning_tree(u),
                    union_balanced=is_balanced(u),
                    per_graph=per)


def _lambda_min_on_disagreement(sym):
    """Smallest eigenvalue of a symmetric matrix restricted to ones-perp.

    The consensus direction is deflated exactly by projecting onto an
    orthonormal basis of the complement of span(ones).
    """
    n = sym.shape[0]
    v = np.ones(n) / np.sqrt(n)
    v[0] -= 1.0
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        basis = np.eye(n)[:, 1:]
    else:
        v = v / nrm
        house = np.eye(n) - 2.0 * np.outer(v, v)
        basis = house[:, 1:]
    reduced = basis.T @ sym @ basis
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])


def speed_bound(mt, gain, cs):
    """Mean-square consensus rate under switching, in the fast-switching limit.

    min(pi) * mu * sqrt(q1 r_hat) * (B' nu) * lambda_min(L_union + L_union'),
    where lambda_min excludes the structural zero along ones.  Requires the
    rank-one gain and the union graph to satisfy the spanning-tree and
    balance assumption.

    It is not a bound at a finite switching rate: on the default pair with
    the unit gain it reads 0.691, while the exact second-moment decay rate
    of the Markov jump linear system is about 0.519 at switching rate 1
    and 0.676 at rate 10.
    """
    if gain.rank != "one":
        raise NotRankOneError("speed bound applies to the rank-one gain only")
    report = check_A4(mt)
    if not report.passes:
        raise A4ViolatedError(
            f"union graph fails assumptions: spanning tree = "
            f"{report.union_has_spanning_tree}, balanced = {report.union_balanced}")
    lap = laplacian(union(mt.graphs))
    lam = _lambda_min_on_disagreement(lap + lap.T)
    btnu = float(cs.B @ cs.nu)
    return float(mt.pi.min() * gain.mu * np.sqrt(gain.q1 * gain.r_hat)
                 * btnu * lam)


def default_switching_pair(n=5):
    """Two sparse mode graphs whose union is the directed n-cycle.

    Mode 0 carries the first two cycle edges, mode 1 the rest.  Neither
    mode alone has a spanning tree or is balanced, but the union is the
    full cycle, so the switching assumptions hold.
    """
    if n < 3:
        raise DimensionMismatchError("need at least 3 nodes")
    edges = [(k, (k + 1) % n, 1.0) for k in range(n)]
    g1 = DiGraph.from_edges(n, edges[:2])
    g2 = DiGraph.from_edges(n, edges[2:])
    return g1, g2
