import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

import consensuskit as ck
from consensuskit.graph import (
    DiGraph, directed_cycle, empty_graph, graph_from_dict,
    has_spanning_tree, is_balanced, lambda_min_nonzero, laplacian, union,
)


def test_from_edges_accumulates_parallel_edges():
    g = DiGraph.from_edges(3, [(0, 1, 0.5), (0, 1, 0.25), (2, 1, 1.0)])
    assert g.weights[1, 0] == 0.75
    assert g.weights[1, 2] == 1.0
    assert g.weights.sum() == 1.75


def test_graph_validation_errors():
    with pytest.raises(ck.DimensionMismatchError):
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
    rng = ck.rng_for(201)
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
    with pytest.raises(ck.DimensionMismatchError):
        union(g1, empty_graph(4))
    with pytest.raises(ck.DimensionMismatchError):
        union([])


def test_lambda_min_nonzero_three_cycle():
    # spectrum of the 3-cycle Laplacian: 0, 3/2 +- i sqrt(3)/2
    val = lambda_min_nonzero(laplacian(directed_cycle(3)))
    assert val.real == pytest.approx(1.5, abs=1e-12)
    assert val.imag == pytest.approx(0.8660254037844386, abs=1e-12)


def test_lambda_min_nonzero_five_cycle_prefers_positive_imag():
    val = lambda_min_nonzero(laplacian(directed_cycle(5)))
    assert val.real == pytest.approx(1.0 - np.cos(2.0 * np.pi / 5.0), abs=1e-12)
    assert val.imag == pytest.approx(np.sin(2.0 * np.pi / 5.0), abs=1e-12)
    assert val.imag > 0


def test_lambda_min_nonzero_all_zero():
    with pytest.raises(ck.AllZeroError):
        lambda_min_nonzero(laplacian(empty_graph(3)))


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
    rng = ck.rng_for(203)
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
    with pytest.raises(ck.ValidationError) as exc:
        graph_from_dict({"edges": []})
    assert exc.value.field == "graph"
    with pytest.raises(ck.ValidationError) as exc:
        graph_from_dict({"n": 0, "edges": []})
    assert exc.value.field == "graph.n"
    with pytest.raises(ck.ValidationError) as exc:
        graph_from_dict({"n": 2, "edges": [[1, 1, 1.0]]}, where="switching.graphs[0]")
    assert exc.value.field == "switching.graphs[0].edges[0]"
    with pytest.raises(ck.ValidationError):
        graph_from_dict({"n": 2, "edges": [[0, 1, 1.0]]})
    with pytest.raises(ck.ValidationError):
        graph_from_dict({"n": 2, "edges": [[1, 2, -1.0]]})
    with pytest.raises(ck.ValidationError):
        graph_from_dict({"n": 2, "edges": [[1, 2]]})
    with pytest.raises(ck.ValidationError):
        graph_from_dict("not a dict")
