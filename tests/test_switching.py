from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from conftest import default_switching_pair, empty_graph

from consensuskit import errors, switching
from consensuskit.graph import DiGraph, directed_cycle, union
from consensuskit.rng import STREAM_MODE_PATH, rng_for
from consensuskit.sim import SimScenario, simulate_switching
from consensuskit.switching import (
    MarkovTopology, check_A4, sample_path, speed_bound,
    stationary_distribution,
)
from consensuskit.synthesis import full_gain, rank_one_gain

FLIP_FLOP = np.array([[-1.0, 1.0], [1.0, -1.0]])


def _default_topology(gen=None):
    g1, g2 = default_switching_pair(5)
    return MarkovTopology(graphs=[g1, g2],
                          generator=FLIP_FLOP if gen is None else gen)


def test_stationary_distribution_oracle():
    pi = stationary_distribution(np.array([[-2.0, 2.0], [1.0, -1.0]]))
    assert np.allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-14)


def test_stationary_distribution_three_modes():
    rng = rng_for(501)
    for _ in range(10):
        gen = rng.uniform(0.2, 2.0, size=(3, 3))
        np.fill_diagonal(gen, 0.0)
        gen -= np.diag(gen.sum(axis=1))
        pi = stationary_distribution(gen)
        assert np.allclose(pi @ gen, 0.0, atol=1e-10)
        assert np.all(pi > 0)


def test_stationary_rejects_reducible_chain():
    with pytest.raises(errors.ValidationError, match="generator is reducible"):
        stationary_distribution(np.array([[0.0, 0.0], [1.0, -1.0]]))


def test_stationary_reducibility_matches_strong_components():
    # irreducible exactly when the rates > 0 make one strongly connected
    # component (the oracle); a cycle of l modes has shortest paths of l - 1
    # steps, and without one of its rates the chain is reducible
    assert np.array_equal(stationary_distribution(np.zeros((1, 1))), [1.0])
    for l in range(2, 25):
        cycle = np.zeros((l, l))
        cycle[np.arange(l), (np.arange(l) + 1) % l] = 1.0
        for cut in (None, 0, l - 1):
            gen = cycle.copy()
            if cut is not None:
                gen[cut, (cut + 1) % l] = 0.0
            gen -= np.diag(gen.sum(axis=1))
            if cut is None:
                assert np.allclose(stationary_distribution(gen), 1.0 / l)
            else:
                with pytest.raises(errors.ValidationError,
                                   match="generator is reducible"):
                    stationary_distribution(gen)
    rng = rng_for(503)
    seen = set()
    for l in range(1, 25):
        for density in (1.0 / l, 2.0 / l, 4.0 / l):
            for _ in range(4):
                gen = rng.uniform(0.2, 2.0, (l, l)) * (rng.random((l, l))
                                                       < density)
                np.fill_diagonal(gen, 0.0)
                gen -= np.diag(gen.sum(axis=1))
                irreducible = connected_components(
                    gen > 0, connection="strong")[0] == 1
                seen.add(irreducible)
                if irreducible:
                    pi = stationary_distribution(gen)
                    assert np.all(pi > 0) and np.allclose(pi @ gen, 0.0,
                                                          atol=1e-10)
                else:
                    with pytest.raises(errors.ValidationError,
                                       match="generator is reducible"):
                        stationary_distribution(gen)
    assert seen == {True, False}


def test_generator_validation():
    with pytest.raises(errors.ValidationError,
                       match="generator must be square"):
        stationary_distribution(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        stationary_distribution(np.array([[-1.0, 1.0], [-0.5, 0.5]]))
    with pytest.raises(ValueError):
        stationary_distribution(np.array([[-1.0, 2.0], [1.0, -1.0]]))
    with pytest.raises(ValueError):
        stationary_distribution(np.array([[-np.inf, np.inf], [1.0, -1.0]]))


def test_markov_topology_validates_its_generator_once(monkeypatch):
    # construction checks the generator once, and stationary_distribution
    # still checks an outside caller's
    calls = []
    real = switching._validate_generator

    def counted(gen):
        calls.append(1)
        return real(gen)

    monkeypatch.setattr(switching, "_validate_generator", counted)
    mt = _default_topology(np.array([[-2.0, 2.0], [1.0, -1.0]]))
    assert len(calls) == 1
    assert np.allclose(mt.pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    _default_topology()
    assert len(calls) == 2
    stationary_distribution(FLIP_FLOP)
    assert len(calls) == 3
    with pytest.raises(ValueError):
        _default_topology(np.array([[-1.0, 2.0], [1.0, -1.0]]))
    assert len(calls) == 4


def test_markov_topology_validation():
    g1, g2 = default_switching_pair(5)
    with pytest.raises(errors.ValidationError,
                       match="need at least one mode graph"):
        MarkovTopology(graphs=[], generator=np.zeros((0, 0)))
    with pytest.raises(errors.ValidationError,
                       match="mode graphs must share node count"):
        MarkovTopology(graphs=[g1, empty_graph(4)], generator=FLIP_FLOP)
    with pytest.raises(errors.ValidationError,
                       match="generator is 2x2 for 1 graphs"):
        MarkovTopology(graphs=[g1], generator=FLIP_FLOP)
    mt = _default_topology()
    assert np.allclose(mt.pi, [0.5, 0.5], atol=1e-12)
    assert mt.n == 5
    assert mt.n_modes == 2


def test_markov_topology_is_frozen_with_its_stationary_law():
    # pi is always the generator's stationary law, not an argument; the
    # graphs are a tuple and the generator a read-only copy
    g1, g2 = default_switching_pair(5)
    gen = np.array([[-2.0, 2.0], [1.0, -1.0]])
    graphs = [g1, g2]
    mt = MarkovTopology(graphs, gen)
    assert mt.graphs == (g1, g2)
    assert np.array_equal(mt.pi, stationary_distribution(gen))
    with pytest.raises(TypeError):
        MarkovTopology(graphs, gen, pi=[1.0, 0.0])
    for name, value in (("graphs", [g2, g1]), ("generator", FLIP_FLOP),
                        ("pi", np.array([1.0, 0.0]))):
        with pytest.raises(FrozenInstanceError):
            setattr(mt, name, value)
    for array in (mt.generator, mt.pi):
        with pytest.raises(ValueError):
            array[0] = 0.5
    gen[0] = [-5.0, 5.0]
    graphs.reverse()
    assert mt.generator.tolist() == [[-2.0, 2.0], [1.0, -1.0]]
    assert mt.graphs == (g1, g2)


def _sample_path_with_choice(mt, t_end, seed, run_index):
    # the reference: every mode drawn by Generator.choice
    rng = rng_for(seed, run_index, STREAM_MODE_PATH)
    gen = mt.generator
    mode = int(rng.choice(mt.n_modes, p=mt.pi))
    path, t = [], 0.0
    while t < t_end:
        rate = -gen[mode, mode]
        stop = min(t + rng.exponential(1.0 / rate), t_end)
        path.append((mode, t, stop))
        if stop >= t_end:
            break
        probs = gen[mode].copy()
        probs[mode] = 0.0
        probs = probs / rate
        mode = int(rng.choice(mt.n_modes, p=probs / probs.sum()))
        t = stop
    return path


@pytest.mark.parametrize("gen", [
    FLIP_FLOP * 2.0,
    np.array([[-1.0, 0.3, 0.7], [0.5, -2.5, 2.0], [1.3, 0.2, -1.5]]),
])
def test_sample_path_draws_the_modes_choice_draws(gen):
    g1, g2 = default_switching_pair(5)
    graphs = [g1, g2, directed_cycle(5)][:gen.shape[0]]
    mt = MarkovTopology(graphs=graphs, generator=gen)
    jumps = 0
    for seed in range(250):
        for run_index in (0, 7):
            path = sample_path(mt, 5.0, seed, run_index)
            assert path == _sample_path_with_choice(mt, 5.0, seed, run_index)
            jumps += len(path) - 1
    assert jumps > 3000


def test_sample_path_tiles_horizon_exactly():
    mt = _default_topology()
    path = sample_path(mt, 50.0, seed=11)
    assert path[0][1] == 0.0
    assert path[-1][2] == 50.0
    for (m, t0, t1), (_, nxt0, _) in zip(path, path[1:]):
        assert t1 == nxt0
        assert t1 > t0
        assert m in (0, 1)
    # consecutive intervals always change mode
    for (m0, _, _), (m1, _, _) in zip(path, path[1:]):
        assert m0 != m1


def test_sample_path_deterministic_and_stream_separated():
    mt = _default_topology()
    p1 = sample_path(mt, 50.0, seed=11)
    p2 = sample_path(mt, 50.0, seed=11)
    assert p1 == p2
    p3 = sample_path(mt, 50.0, seed=11, run_index=1)
    assert p3 != p1
    p4 = sample_path(mt, 50.0, seed=12)
    assert p4 != p1


def test_sample_path_rejects_bad_horizon():
    # NaN gave an empty path and inf never returned, its path growing
    # without bound
    for t_end in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(errors.ValidationError,
                           match="t_end must be positive and finite"):
            sample_path(_default_topology(), t_end, seed=1)


def test_sample_path_absorbing_mode():
    g = directed_cycle(3)
    mt = MarkovTopology(graphs=[g], generator=np.array([[0.0]]))
    path = sample_path(mt, 25.0, seed=4)
    assert path == [(0, 0.0, 25.0)]


def test_sample_path_holding_time_statistics():
    # unit-rate flip-flop: holding times are Exp(1) and occupancy is 50/50
    mt = _default_topology()
    path = sample_path(mt, 10500.0, seed=2026)
    holds = np.array([t1 - t0 for _, t0, t1 in path[:-1]])
    assert holds.size >= 10000
    assert abs(holds[:10000].mean() - 1.0) <= 0.02
    occupancy = sum(t1 - t0 for m, t0, t1 in path if m == 0) / 10500.0
    assert abs(occupancy - 0.5) <= 0.02


def test_check_a4_default_pair():
    report = check_A4(_default_topology())
    assert report.passes
    assert report.union_has_spanning_tree
    assert report.union_balanced
    for per in report.per_graph:
        assert not per.has_spanning_tree
        assert not per.balanced


def test_check_a4_single_balanced_mode():
    mt = MarkovTopology(graphs=[directed_cycle(4)], generator=np.array([[0.0]]))
    report = check_A4(mt)
    assert report.passes
    assert report.per_graph[0].has_spanning_tree
    assert report.per_graph[0].balanced


def test_check_a4_failing_union():
    mt = MarkovTopology(graphs=[empty_graph(3), empty_graph(3)],
                        generator=FLIP_FLOP)
    report = check_A4(mt)
    assert not report.passes
    assert not report.union_has_spanning_tree


def test_speed_bound_default_pair_value(target, unit_gain):
    bound = speed_bound(_default_topology(), unit_gain, target)
    want = 0.5 * (2.0 - 2.0 * np.cos(2.0 * np.pi / 5.0))
    assert bound == pytest.approx(want, abs=1e-12)


def test_speed_bound_scalings(target, unit_gain):
    mt = _default_topology()
    base = speed_bound(mt, unit_gain, target)
    doubled = speed_bound(mt, rank_one_gain(target, mu=2.0, q1=1.0, r_hat=1.0),
                          target)
    assert doubled == pytest.approx(2.0 * base, abs=1e-12)
    # q1 enters through sqrt
    scaled = speed_bound(mt, rank_one_gain(target, mu=1.0, q1=4.0, r_hat=1.0),
                         target)
    assert scaled == pytest.approx(2.0 * base, abs=1e-12)
    # collapsing to one mode removes the min(pi) factor of 1/2
    single = MarkovTopology(graphs=[union(mt.graphs)], generator=np.array([[0.0]]))
    assert speed_bound(single, unit_gain, target) == pytest.approx(2.0 * base,
                                                                   abs=1e-12)


def test_speed_bound_monotone_under_balanced_additions(target, unit_gain):
    rng = rng_for(502)
    base_edges = [(k, (k + 1) % 4, 1.0) for k in range(4)]
    g1 = DiGraph.from_edges(4, base_edges[:2])
    g2 = DiGraph.from_edges(4, base_edges[2:])
    mt = MarkovTopology(graphs=[g1, g2], generator=FLIP_FLOP)
    base = speed_bound(mt, unit_gain, target)
    for _ in range(10):
        w = float(rng.uniform(0.1, 2.0))
        extra = DiGraph.from_edges(4, [(k, (k + 3) % 4, w) for k in range(4)])
        richer = MarkovTopology(graphs=[union(g1, extra), g2],
                                generator=FLIP_FLOP)
        assert speed_bound(richer, unit_gain, target) >= base - 1e-12


def test_speed_bound_requires_rank_one(target):
    g = full_gain(target, mu=1.0, q1_matrix=np.eye(3), r_hat=1.0)
    with pytest.raises(errors.ValidationError,
                       match="speed bound applies to the rank-one gain only"):
        speed_bound(_default_topology(), g, target)


def test_speed_bound_rejects_violated_assumptions(target, unit_gain):
    mt = MarkovTopology(graphs=[empty_graph(5), empty_graph(5)],
                        generator=FLIP_FLOP)
    with pytest.raises(errors.ValidationError) as info:
        speed_bound(mt, unit_gain, target)
    assert str(info.value) == ("the union of the mode graphs has no spanning "
                               "tree (assumption A4)")
    assert info.value.field == "switching"
    # union with a spanning tree but unbalanced
    chain1 = DiGraph.from_edges(3, [(0, 1, 1.0)])
    chain2 = DiGraph.from_edges(3, [(1, 2, 1.0)])
    with pytest.raises(errors.ValidationError) as info:
        speed_bound(MarkovTopology(graphs=[chain1, chain2], generator=FLIP_FLOP),
                    unit_gain, target)
    assert str(info.value) == ("the union of the mode graphs is not "
                               "weight-balanced (assumption A4)")


@pytest.mark.parametrize("graphs, fact", [
    ([empty_graph(5)] * 2, "has no spanning tree"),
    ([DiGraph.from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                             (3, 4, 1.0)])] * 2, "is not weight-balanced"),
    ([DiGraph.from_edges(5, [(0, 1, 1.0)])] * 2,
     "has no spanning tree and is not weight-balanced"),
], ids=["no tree", "unbalanced", "both"])
def test_simulate_and_speed_bound_refuse_A4_with_one_text(
        target, unit_gain, five_agents, graphs, fact):
    # the refusal is the report's own, the same from either caller
    mt = MarkovTopology(graphs=graphs, generator=FLIP_FLOP)
    scen = SimScenario(five_agents, target, unit_gain, mt,
                       t_end=0.02, dt=0.01)
    want = (f"the union of the mode graphs {fact} (assumption A4)",
            "switching")
    for call in (lambda: simulate_switching(scen),
                 lambda: speed_bound(mt, unit_gain, target)):
        with pytest.raises(errors.ValidationError) as exc:
            call()
        assert (str(exc.value), exc.value.field) == want


def test_default_switching_pair_union_is_cycle():
    g1, g2 = default_switching_pair(5)
    assert np.array_equal(union(g1, g2).weights, directed_cycle(5).weights)
    with pytest.raises(errors.ValidationError, match="need at least 3 nodes"):
        default_switching_pair(2)
