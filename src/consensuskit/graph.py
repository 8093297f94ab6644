"""Weighted directed communication graphs.

``weights[i, j]`` is the weight agent ``i`` places on information received
from agent ``j`` (an edge j -> i).  The Laplacian is ``D - W`` with ``D``
the diagonal of row sums, so ``L @ ones == 0`` always holds and the
consensus subspace is span(ones).

The spanning-tree predicate is structural: some node reaches every other
over positive weights.  Reachability is the boolean transitive closure of
the edges (_reachable, repeated squaring of I | adj), which also decides
whether a switching chain is irreducible and whether a Laplacian's
off-diagonal pattern holds a spanning tree (metrics).  The spectral characterization
(exactly one zero Laplacian eigenvalue) is kept as an independent test
oracle, not used here.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import _read_only

__all__ = [
    "DiGraph", "laplacian", "has_spanning_tree", "is_balanced", "union",
    "directed_cycle",
]

_BALANCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiGraph:
    """Immutable weighted digraph on nodes 0..n-1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"weights must be square, got {w.shape}")
        if not np.isfinite(w).all():
            raise ValidationError("weights must be finite")
        if (w < 0).any():
            raise ValidationError("weights must be nonnegative")
        if (np.diag(w) != 0).any():
            raise ValidationError("self-weights must be zero")
        object.__setattr__(self, "weights", w)
        _read_only(self)

    @property
    def n(self):
        return self.weights.shape[0]

    @property
    def graphs(self):
        """The one mode of a fixed graph, as MarkovTopology.graphs."""
        return (self,)

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of (sender, receiver, weight), 0-based;
        the weights of parallel edges add up."""
        w = np.zeros((n, n))
        for k, (frm, to, wt) in enumerate(edges):
            for node in (frm, to):
                if not (isinstance(node, numbers.Integral) and 0 <= node < n):
                    raise ValidationError(
                        f"edge {k}: node {node!r} is not an integer in "
                        f"0..{n - 1}")
            w[to, frm] += wt
        return cls(w)


def directed_cycle(n, weight=1.0):
    """The cycle 0 -> 1 -> ... -> n-1 -> 0 with uniform edge weight."""
    return DiGraph.from_edges(n, [(k, (k + 1) % n, weight) for k in range(n)])


def laplacian(g):
    w = g.weights
    return np.diag(w.sum(axis=1)) - w


def _reachable(adj):
    """Boolean transitive closure: out[i, j] when j is reached from i along
    zero or more edges, adj[i, j] being an edge i -> j.  I | adj holds the
    paths of at most one edge and its square those of at most two, so
    ceil(log2(n - 1)) squarings reach every path of n - 1 edges, the
    longest a shortest path can be."""
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    for _ in range(max(adj.shape[0] - 2, 0).bit_length()):
        reach = reach @ reach
    return reach


def has_spanning_tree(g):
    """True when some root reaches every node along directed edges."""
    return bool(_reachable(g.weights.T > 0).all(axis=1).any())


def is_balanced(g):
    """Weight balance: in-weight equals out-weight at every node."""
    w = g.weights
    tol = _BALANCE_TOL * max(1.0, float(w.sum()))
    return bool((np.abs(w.sum(axis=1) - w.sum(axis=0)) <= tol).all())


def union(*graphs):
    """Entrywise sum of edge weights."""
    if len(graphs) == 1 and isinstance(graphs[0], (list, tuple)):
        graphs = tuple(graphs[0])
    if not graphs:
        raise ValidationError("union of no graphs")
    n = graphs[0].n
    for g in graphs[1:]:
        if g.n != n:
            raise ValidationError(f"graph sizes differ: {g.n} vs {n}")
    total = np.zeros((n, n))
    for g in graphs:
        total += g.weights
    return DiGraph(total)
