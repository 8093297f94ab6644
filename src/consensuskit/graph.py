"""Weighted directed communication graphs.

``weights[i, j]`` is the weight agent ``i`` places on information received
from agent ``j`` (an edge j -> i).  The Laplacian is ``D - W`` with ``D``
the diagonal of row sums, so ``L @ ones == 0`` always holds and the
consensus subspace is span(ones).

The spanning-tree predicate is structural: some node reaches every other
over positive weights.  Reachability is the boolean transitive closure of
the edges (_reachable, repeated squaring of I | adj), which also decides
whether a switching chain is irreducible.  The spectral characterization
(exactly one zero Laplacian eigenvalue) is kept as an independent test
oracle, not used here.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroError, DimensionMismatchError, ValidationError
from .linalg import eig
from .settings import settings

__all__ = [
    "DiGraph", "laplacian", "has_spanning_tree", "is_balanced", "union",
    "lambda_min_nonzero", "directed_cycle", "empty_graph",
    "graph_from_dict",
]


@dataclass(frozen=True, eq=False)
class DiGraph:
    """Immutable weighted digraph on nodes 0..n-1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionMismatchError(f"weights must be square, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("self-weights must be zero")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.weights.shape[0]

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of (sender, receiver, weight), 0-based."""
        w = np.zeros((n, n))
        for frm, to, wt in edges:
            w[to, frm] += wt
        return cls(w)


def empty_graph(n):
    return DiGraph(np.zeros((n, n)))


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
    tol = settings.balance_tol * max(1.0, float(w.sum()))
    return bool(np.all(np.abs(w.sum(axis=1) - w.sum(axis=0)) <= tol))


def union(*graphs):
    """Entrywise sum of edge weights."""
    if len(graphs) == 1 and isinstance(graphs[0], (list, tuple)):
        graphs = tuple(graphs[0])
    if not graphs:
        raise DimensionMismatchError("union of no graphs")
    n = graphs[0].n
    for g in graphs[1:]:
        if g.n != n:
            raise DimensionMismatchError(f"graph sizes differ: {g.n} vs {n}")
    total = np.zeros((n, n))
    for g in graphs:
        total += g.weights
    return DiGraph(total)


def lambda_min_nonzero(m):
    """Eigenvalue of smallest real part among those with Re > threshold.

    The threshold is 1e-9 * ||m||_F, which separates the structural zero of
    a Laplacian from its right-half-plane eigenvalues.  Ties on the real
    part prefer the smallest |Im|, then nonnegative Im.
    """
    m = np.asarray(m, dtype=float)
    vals = eig(m)
    thresh = settings.laplacian_zero_tol * np.linalg.norm(m)
    cand = vals[vals.real > thresh]
    if cand.size == 0:
        raise AllZeroError("no eigenvalue with positive real part beyond threshold")
    order = np.lexsort((-np.sign(cand.imag), np.abs(cand.imag), cand.real))
    return complex(cand[order[0]])


def graph_from_dict(doc, where="graph"):
    """Parse {"n": n, "edges": [[from, to, weight], ...]}, 1-based nodes."""
    if not isinstance(doc, dict):
        raise ValidationError("expected an object", field=where)
    try:
        n = doc["n"]
        edges = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"missing key {exc}", field=where) from exc
    if not _is_int(n) or n < 1:
        raise ValidationError("n must be a positive integer", field=f"{where}.n")
    if not isinstance(edges, list):
        raise ValidationError("edges must be a list", field=f"{where}.edges")
    try:
        w = np.zeros((n, n))
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"n is too large: {exc}",
                              field=f"{where}.n") from exc
    for k, edge in enumerate(edges):
        loc = f"{where}.edges[{k}]"
        if not (isinstance(edge, list) and len(edge) == 3):
            raise ValidationError("edge must be [from, to, weight]", field=loc)
        frm, to, wt = edge
        if not (_is_int(frm) and 1 <= frm <= n):
            raise ValidationError(f"from node {frm!r} outside 1..{n}", field=loc)
        if not (_is_int(to) and 1 <= to <= n):
            raise ValidationError(f"to node {to!r} outside 1..{n}", field=loc)
        if frm == to:
            raise ValidationError("self-loops are not allowed", field=loc)
        # exact comparisons: a huge integer or a NaN fails them too
        if not ((_is_int(wt) or isinstance(wt, float))
                and 0 <= wt <= sys.float_info.max):
            raise ValidationError(f"weight {wt!r} must be finite and >= 0", field=loc)
        w[to - 1, frm - 1] += float(wt)
    return DiGraph(w)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)
