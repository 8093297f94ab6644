import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from conftest import empty_graph

from consensuskit import errors
from consensuskit.graph import (
    DiGraph, directed_cycle, graph_from_dict,
    has_spanning_tree, is_balanced, laplacian, union,
)
from consensuskit.rng import rng_for


def test_from_edges_accumulates_parallel_edges():
    g = DiGraph.from_edges(3, [(0, 1, 0.5), (0, 1, 0.25), (2, 1, 1.0)])
    assert g.weights[1, 0] == 0.75
    assert g.weights[1, 2] == 1.0
    assert g.weights.sum() == 1.75


def test_graph_validation_errors():
    with pytest.raises(errors.ValidationError,
                       match=r"weights must be square, got \(2, 3\)"):
        DiGraph(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DiGraph(np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        DiGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        DiGraph(np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_weights_are_read_only():
    g = directed_cycle(3)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


def test_laplacian_rows_sum_to_zero():
    rng = rng_for(201)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        w = rng.uniform(0.0, 2.0, size=(n, n))
        np.fill_diagonal(w, 0.0)
        lap = laplacian(DiGraph(w))
        assert np.allclose(lap @ np.ones(n), 0.0, atol=1e-12)
        assert np.allclose(np.diag(lap), w.sum(axis=1))


def test_spanning_tree_known_cases():
    assert has_spanning_tree(directed_cycle(4))
    assert not has_spanning_tree(empty_graph(3))
    # star rooted at 0: 0 reaches everyone
    star = DiGraph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    assert has_spanning_tree(star)
    # reversed star: no single root reaches all leaves
    rstar = DiGraph.from_edges(4, [(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)])
    assert not has_spanning_tree(rstar)
    # two disjoint 2-cycles
    split = DiGraph.from_edges(4, [(0, 1, 1.0), (1, 0, 1.0),
                                   (2, 3, 1.0), (3, 2, 1.0)])
    assert not has_spanning_tree(split)
    assert has_spanning_tree(DiGraph(np.zeros((1, 1))))


def test_balance_cases():
    assert is_balanced(directed_cycle(5))
    assert is_balanced(empty_graph(3))
    chain = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert not is_balanced(chain)
    # weighted cycle stays balanced only with equal weights
    uneven = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0)])
    assert not is_balanced(uneven)


def test_union_sums_weights_and_checks_sizes():
    g1 = DiGraph.from_edges(3, [(0, 1, 1.0)])
    g2 = DiGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 1.0)])
    u = union(g1, g2)
    assert u.weights[1, 0] == 1.5
    assert u.weights[2, 1] == 1.0
    # list form is accepted too
    u2 = union([g1, g2])
    assert np.array_equal(u.weights, u2.weights)
    with pytest.raises(errors.ValidationError,
                       match="graph sizes differ: 4 vs 3"):
        union(g1, empty_graph(4))
    with pytest.raises(errors.ValidationError, match="union of no graphs"):
        union([])


def test_spanning_tree_matches_spectral_count_small():
    # structural predicate versus eigenvalue count, all unit-weight digraphs n<=3
    for n in (2, 3):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in itertools.product((0, 1), repeat=len(pairs)):
            edges = [(i, j, 1.0) for (i, j), on in zip(pairs, mask) if on]
            g = DiGraph.from_edges(n, edges)
            lap = laplacian(g)
            vals = np.linalg.eigvals(lap)
            n_zero = int(np.sum(np.abs(vals) < 1e-9))
            assert has_spanning_tree(g) == (n_zero == 1)


def _has_root_by_bfs(g):
    """Oracle: a breadth-first search from each node over the edges j -> i
    (w[i, j] > 0) reaches all n nodes from some node."""
    adj = csr_matrix(g.weights.T)
    return any(breadth_first_order(adj, root, return_predecessors=False).size
               == g.n for root in range(g.n))


def test_spanning_tree_matches_breadth_first_search():
    # the closure squares I | adj ceil(log2(n - 1)) times; the path rooted
    # at its last node needs every squaring (longest shortest path n - 1),
    # and one edge less leaves it without a root
    for n in range(2, 25):
        path = [(k + 1, k, 1.0) for k in range(n - 1)]
        assert has_spanning_tree(DiGraph.from_edges(n, path))
        for cut in range(n - 1):
            g = DiGraph.from_edges(n, path[:cut] + path[cut + 1:])
            assert not has_spanning_tree(g)
    rng = rng_for(203)
    seen = set()
    for n in range(1, 25):
        for density in (0.5 / n, 1.0 / n, 2.0 / n, 4.0 / n):
            for _ in range(6):
                w = rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n))
                                                     < density)
                np.fill_diagonal(w, 0.0)
                g = DiGraph(w)
                want = _has_root_by_bfs(g)
                assert has_spanning_tree(g) == want, (n, w)
                seen.add(want)
    assert seen == {True, False}


def test_graph_from_dict_reads_edges():
    # edges are [from, to, weight] with 1-based nodes; weight w[to, from]
    doc = {"n": 4, "edges": [[1, 2, 1.5], [3, 4, 0.5], [4, 1, 2.0]]}
    g = DiGraph.from_edges(4, [(0, 1, 1.5), (2, 3, 0.5), (3, 0, 2.0)])
    back = graph_from_dict(doc)
    assert back.n == 4
    assert back.weights[1, 0] == 1.5
    assert np.array_equal(back.weights, g.weights)


def test_graph_from_dict_validation():
    with pytest.raises(errors.ValidationError) as exc:
        graph_from_dict({"edges": []})
    assert exc.value.field == "graph"
    with pytest.raises(errors.ValidationError) as exc:
        graph_from_dict({"n": 0, "edges": []})
    assert exc.value.field == "graph.n"
    with pytest.raises(errors.ValidationError) as exc:
        graph_from_dict({"n": 2, "edges": [[1, 1, 1.0]]}, where="switching.graphs[0]")
    assert exc.value.field == "switching.graphs[0].edges[0]"
    with pytest.raises(errors.ValidationError):
        graph_from_dict({"n": 2, "edges": [[0, 1, 1.0]]})
    with pytest.raises(errors.ValidationError):
        graph_from_dict({"n": 2, "edges": [[1, 2, -1.0]]})
    with pytest.raises(errors.ValidationError):
        graph_from_dict({"n": 2, "edges": [[1, 2]]})
    with pytest.raises(errors.ValidationError):
        graph_from_dict("not a dict")


HUGE = 10 ** 400  # past the float range

# (edge, message) of every kind of rejected edge, each the second edge of a
# 3-node graph; the messages are those of the per-field checks
EDGE_REJECTS = [
    ([0, 2, 1.0], "from node 0 outside 1..3"),
    ([1, 4, 1.0], "to node 4 outside 1..3"),
    ([1.0, 2, 1.0], "from node 1.0 outside 1..3"),
    ([1, True, 1.0], "to node True outside 1..3"),
    (["1", 2, 1.0], "from node '1' outside 1..3"),
    ([2, 2, 1.0], "self-loops are not allowed"),
    ([1, 2, -0.5], "weight -0.5 must be finite and >= 0"),
    ([1, 2, float("nan")], "weight nan must be finite and >= 0"),
    ([1, 2, float("inf")], "weight inf must be finite and >= 0"),
    ([1, 2, HUGE], f"weight {HUGE} must be finite and >= 0"),
    ([1, 2, True], "weight True must be finite and >= 0"),
    ([1, 2, "1"], "weight '1' must be finite and >= 0"),
    ([1, 2], "edge must be [from, to, weight]"),
    ([1, 2, 1.0, 0], "edge must be [from, to, weight]"),
    ({"from": 1, "to": 2}, "edge must be [from, to, weight]"),
    ((1, 2, 1.0), "edge must be [from, to, weight]"),
]


@pytest.mark.parametrize("edge,message", EDGE_REJECTS,
                         ids=[repr(e)[:24] for e, _ in EDGE_REJECTS])
def test_rejected_edge_names_its_field_and_fault(edge, message):
    doc = {"n": 3, "edges": [[1, 2, 1.0], edge]}
    with pytest.raises(errors.ValidationError) as exc:
        graph_from_dict(doc, where="switching.graphs[1]")
    assert exc.value.field == "switching.graphs[1].edges[1]"
    assert str(exc.value) == message


def test_edges_of_subclassed_numbers_take_the_per_field_checks():
    # the one check takes exact types only; the per-field checks accept an
    # int or float subclass, and the weights come out the same
    class Int(int):
        pass

    class Float(float):
        pass

    plain = graph_from_dict({"n": 3, "edges": [[1, 2, 1.5], [3, 1, 2]]})
    sub = graph_from_dict({"n": 3, "edges": [[Int(1), Int(2), Float(1.5)],
                                             [3, 1, Int(2)]]})
    assert np.array_equal(sub.weights, plain.weights)
    assert plain.weights[1, 0] == 1.5 and plain.weights[0, 2] == 2.0


def test_parallel_edges_whose_sum_overflows_are_rejected():
    # each weight is finite; their sum is not, and must not get as far as
    # numpy's overflow warning or DiGraph's ValueError
    big = [1, 2, 1.7e308]
    for where in ("graph", "switching.graphs[1]"):
        with pytest.raises(errors.ValidationError) as exc:
            graph_from_dict({"n": 3, "edges": [big, [2, 3, 1.0], big]},
                            where=where)
        assert exc.value.field == f"{where}.edges"
        assert "parallel edges 1 -> 2" in str(exc.value)
    g = graph_from_dict({"n": 2, "edges": [[1, 2, 8.9e307], [1, 2, 8.9e307]]})
    assert g.weights[1, 0] == 8.9e307 + 8.9e307
