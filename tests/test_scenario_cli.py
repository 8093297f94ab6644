import copy
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import consensuskit
from consensuskit import _csvtext, cli, errors, scenario, sim, switching
from consensuskit.agents import builtin
from consensuskit.cli import main
from consensuskit.graph import DiGraph
from consensuskit.rng import rng_for
from consensuskit.scenario import load_scenario, parse_scenario
from consensuskit.switching import MarkovTopology

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
README = Path(__file__).resolve().parent.parent / "README.md"


def base_doc():
    return {
        "agents": [{"builtin": "agent1"}, {"builtin": "agent2"},
                   {"builtin": "agent3"}],
        "controller": {"poles": [-1.0, -2.0], "mu": 1.0, "q1": 1.0,
                       "r_hat": 1.0, "rank": "one"},
        "graph": {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0]]},
        "sim": {"t_end": 0.5, "dt": 0.01, "seed": 1, "init": "random"},
    }


def switching_doc():
    doc = base_doc()
    del doc["graph"]
    doc["switching"] = {
        "graphs": [{"n": 3, "edges": [[1, 2, 1.0]]},
                   {"n": 3, "edges": [[2, 3, 1.0], [3, 1, 1.0]]}],
        "generator": [[-1.0, 1.0], [1.0, -1.0]],
    }
    doc["sim"] = {"t_end": 1.0, "dt": 0.02, "seed": 3, "init": "random"}
    return doc


def custom_agent_doc():
    return {"custom": {
        "r": 2, "n_eta": 1,
        "alpha": [{"c": 2.0, "e": [1, 0, 0]}],
        "beta": [{"c": 1.0, "e": [0, 0, 0]}],
        "theta": [[{"c": -1.0, "e": [0, 0, 1]}, {"c": 1.0, "e": [1, 0, 0]}]],
        "xi0": [0.5, 0.0], "eta0": [0.1],
    }}


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_shipped_fixed_scenario_loads():
    scen = load_scenario(SCENARIO_DIR / "five_agents_fixed.json")
    assert len(scen.agents) == 5
    assert scen.cs.r == 3
    assert np.array_equal(scen.gain.K, [2.0, 3.0, 1.0])
    assert isinstance(scen.topology, DiGraph)
    assert scen.t_end == 30.0
    assert scen.seed == 42
    assert scen.init == "random"
    assert scen.output["csv"] == "five_agents_fixed.csv"


def test_shipped_switching_scenario_loads():
    scen = load_scenario(SCENARIO_DIR / "five_agents_switching.json")
    assert isinstance(scen.topology, MarkovTopology)
    assert scen.topology.n_modes == 2
    assert np.allclose(scen.topology.pi, [0.5, 0.5])
    report = switching.check_A4(scen.topology)
    assert report.passes


def test_parse_scenario_leaves_the_document_unmutated():
    doc = switching_doc()
    doc["observer"] = {"C": [1.0, 0.0, 0.0], "poles": [-3.0, [-4.0, 0.0], -5]}
    doc["output"] = {"csv": "out.csv"}
    del doc["sim"]["seed"], doc["sim"]["init"]
    before = copy.deepcopy(doc)
    parse_scenario(doc)
    # no pole rewrite and no seed/init defaults in the caller's document
    assert doc == before
    assert doc["controller"]["poles"] == [-1.0, -2.0]
    assert "seed" not in doc["sim"] and "init" not in doc["sim"]
    assert "init" not in doc["observer"]


def test_custom_agent_polynomials_evaluate():
    doc = base_doc()
    doc["agents"][0] = custom_agent_doc()
    scen = parse_scenario(doc)
    ag = scen.agents[0]
    assert ag.r == 2 and ag.n_eta == 1
    xi = np.array([1.5, -0.5])
    eta = np.array([2.0])
    assert ag.alpha(xi, eta) == pytest.approx(3.0)        # 2 * xi1
    assert ag.beta(xi, eta) == pytest.approx(1.0)
    assert ag.theta(xi, eta)[0] == pytest.approx(-0.5)    # -eta + xi1
    assert np.array_equal(ag.xi0, [0.5, 0.0])
    assert ag.agent_id == 1


def _mut_both_topologies(doc):
    doc["switching"] = switching_doc()["switching"]


def _mut_no_topology(doc):
    del doc["graph"]


def _mut_unknown_top(doc):
    doc["plotting"] = True


def _mut_missing_controller_key(doc):
    del doc["controller"]["mu"]


def _mut_bad_pole(doc):
    doc["controller"]["poles"][0] = "fast"


def _mut_bad_pole_pair(doc):
    doc["controller"]["poles"][0] = [-1.0]


def _mut_missing_q1(doc):
    del doc["controller"]["q1"]


def _mut_q1_with_full(doc):
    doc["controller"]["rank"] = "full"


def _mut_q1_matrix_with_rank_one(doc):
    doc["controller"]["Q1"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0]]


def _mut_bad_rank(doc):
    doc["controller"]["rank"] = "two"


def _mut_q1_matrix_wrong_size(doc):
    del doc["controller"]["q1"]
    doc["controller"]["rank"] = "full"
    doc["controller"]["Q1"] = [[1.0]]


def _mut_q1_matrix_asymmetric(doc):
    del doc["controller"]["q1"]
    doc["controller"]["rank"] = "full"
    doc["controller"]["Q1"] = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0]]


def _mut_no_agents(doc):
    doc["agents"] = []


def _mut_unknown_builtin(doc):
    doc["agents"][0] = {"builtin": "agent7"}


def _mut_x0_on_chain_agent(doc):
    doc["agents"][0] = {"builtin": "agent1", "x0": [0.0, 0.0, 0.0]}


def _mut_xi0_on_native_agent(doc):
    doc["agents"][2] = {"builtin": "agent3", "xi0": [0.0, 0.0, 0.0]}


def _mut_xi0_wrong_length(doc):
    doc["agents"][0] = {"builtin": "agent1", "xi0": [0.0]}


def _mut_agent_without_kind(doc):
    doc["agents"][0] = {"x0": [0.0]}


def _mut_custom_empty_beta(doc):
    agent = custom_agent_doc()
    agent["custom"]["beta"] = []
    doc["agents"][0] = agent


def _mut_custom_exponent_count(doc):
    agent = custom_agent_doc()
    agent["custom"]["alpha"] = [{"c": 1.0, "e": [1, 0]}]
    doc["agents"][0] = agent


def _mut_custom_negative_exponent(doc):
    agent = custom_agent_doc()
    agent["custom"]["alpha"] = [{"c": 1.0, "e": [-1, 0, 0]}]
    doc["agents"][0] = agent


def _mut_custom_theta_rows(doc):
    agent = custom_agent_doc()
    agent["custom"]["theta"] = []
    doc["agents"][0] = agent


def _mut_graph_size(doc):
    doc["graph"] = {"n": 4, "edges": [[1, 2, 1.0]]}


def _mut_sim_dt(doc):
    doc["sim"]["dt"] = 0.0


def _mut_sim_init(doc):
    doc["sim"]["init"] = "warm"


def _mut_sim_unknown(doc):
    doc["sim"]["steps"] = 10


def _mut_sim_missing(doc):
    del doc["sim"]["t_end"]


def _mut_observer_c(doc):
    doc["observer"] = {"C": [1.0, 0.0], "poles": [-3.0, -4.0, -5.0]}


def _mut_observer_poles(doc):
    doc["observer"] = {"C": [1.0, 0.0, 0.0], "poles": [-3.0, -4.0]}


def _mut_observer_init(doc):
    doc["observer"] = {"C": [1.0, 0.0, 0.0], "poles": [-3.0, -4.0, -5.0],
                       "init": "warm"}


def _mut_output_unknown(doc):
    doc["output"] = {"format": "png"}


def _mut_output_csv_type(doc):
    doc["output"] = {"csv": 7}


HUGE = 10 ** 400  # a 401-digit integer, past the float range


def _mut_huge_number(doc):
    doc["controller"]["mu"] = HUGE


def _mut_huge_pole(doc):
    doc["controller"]["poles"][0] = [-1.0, HUGE]


def _mut_huge_exponent(doc):
    agent = custom_agent_doc()
    agent["custom"]["theta"][0][0]["e"] = [0, 0, HUGE]
    doc["agents"][0] = agent


def _mut_graph_n_bool(doc):
    doc["graph"]["n"] = True


def _mut_graph_n_huge(doc):
    doc["graph"]["n"] = HUGE


def _mut_graph_edge_bools(doc):
    doc["graph"]["edges"][0] = [True, 2, True]


def _mut_graph_weight_huge(doc):
    doc["graph"]["edges"][0] = [1, 2, HUGE]


def _mut_graph_unknown_key(doc):
    doc["graph"]["wieghts"] = 1


VALIDATION_CASES = [
    (_mut_both_topologies, ""),
    (_mut_no_topology, ""),
    (_mut_unknown_top, ""),
    (_mut_missing_controller_key, "controller"),
    (_mut_bad_pole, "controller.poles[0]"),
    (_mut_bad_pole_pair, "controller.poles[0]"),
    (_mut_missing_q1, "controller.q1"),
    (_mut_q1_with_full, "controller.q1"),
    (_mut_q1_matrix_with_rank_one, "controller.Q1"),
    (_mut_bad_rank, "controller.rank"),
    (_mut_q1_matrix_wrong_size, "controller.Q1"),
    (_mut_q1_matrix_asymmetric, "controller.Q1"),
    (_mut_no_agents, "agents"),
    (_mut_unknown_builtin, "agents[0].builtin"),
    (_mut_x0_on_chain_agent, "agents[0].x0"),
    (_mut_xi0_on_native_agent, "agents[2].xi0"),
    (_mut_xi0_wrong_length, "agents[0].xi0"),
    (_mut_agent_without_kind, "agents[0]"),
    (_mut_custom_empty_beta, "agents[0].custom.beta"),
    (_mut_custom_exponent_count, "agents[0].custom.alpha[0].e"),
    (_mut_custom_negative_exponent, "agents[0].custom.alpha[0].e[0]"),
    (_mut_custom_theta_rows, "agents[0].custom.theta"),
    (_mut_graph_size, "graph"),
    (_mut_sim_dt, "sim.dt"),
    (_mut_sim_init, "sim.init"),
    (_mut_sim_unknown, "sim"),
    (_mut_sim_missing, "sim"),
    (_mut_observer_c, "observer.C"),
    (_mut_observer_poles, "observer.poles"),
    (_mut_observer_init, "observer.init"),
    (_mut_output_unknown, "output"),
    (_mut_output_csv_type, "output.csv"),
    (_mut_huge_number, "controller.mu"),
    (_mut_huge_pole, "controller.poles[0]"),
    (_mut_huge_exponent, "agents[0].custom.theta[0][0].e[2]"),
    (_mut_graph_n_bool, "graph.n"),
    (_mut_graph_n_huge, "graph.n"),
    (_mut_graph_edge_bools, "graph.edges[0]"),
    (_mut_graph_weight_huge, "graph.edges[0]"),
    (_mut_graph_unknown_key, "graph"),
]


@pytest.mark.parametrize("mutate,field",
                         VALIDATION_CASES,
                         ids=[m.__name__[5:] for m, _ in VALIDATION_CASES])
def test_validation_reports_dotted_field(mutate, field):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(errors.ValidationError) as exc:
        parse_scenario(doc)
    assert exc.value.field == field


# (term, field below agents[1].custom.theta[0][1], message) of every kind
# of rejected term; the messages are those of the per-field checks
TERM_REJECTS = [
    ({"c": 1.0, "e": [0, True, 0]}, ".e[1]", "expected an integer"),
    ({"c": 1.0, "e": [0, 0, -2]}, ".e[2]", "exponents must be non-negative"),
    ({"c": 1.0, "e": [1.0, 0, 0]}, ".e[0]", "expected an integer"),
    ({"c": 1.0, "e": [0, 2 ** 1100, 0]}, ".e[1]", "expected a finite number"),
    ({"c": 1.0, "e": [1, 0]}, ".e",
     "expected 3 exponents (one per variable), got 2"),
    ({"c": 1.0, "e": [1, 0, 0, 0]}, ".e",
     "expected 3 exponents (one per variable), got 4"),
    ({"c": 1.0, "e": "100"}, ".e", "expected a list of exponents"),
    ({"e": [0, 0, 0]}, "", "missing required key 'c'"),
    ({"c": 1.0}, "", "missing required key 'e'"),
    ({"c": 1.0, "e": [0, 0, 0], "d": 0}, "", "unknown key 'd'"),
    ({"c": True, "e": [0, 0, 0]}, ".c", "expected a number"),
    ({"c": float("nan"), "e": [0, 0, 0]}, ".c", "expected a finite number"),
    ({"c": -float("inf"), "e": [0, 0, 0]}, ".c", "expected a finite number"),
    ({"c": HUGE, "e": [0, 0, 0]}, ".c", "expected a finite number"),
    ({"c": "1", "e": [0, 0, 0]}, ".c", "expected a number"),
    ([1.0, [0, 0, 0]], "", "expected an object"),
    (None, "", "expected an object"),
]


def _doc_with_theta_term(term):
    doc = base_doc()
    agent = custom_agent_doc()
    agent["custom"]["theta"][0].append(term)
    doc["agents"][1] = agent
    return doc


@pytest.mark.parametrize("term,field,message", TERM_REJECTS,
                         ids=[repr(t)[:28] for t, _, _ in TERM_REJECTS])
def test_rejected_term_names_its_field_and_fault(term, field, message):
    with pytest.raises(errors.ValidationError) as exc:
        parse_scenario(_doc_with_theta_term(term))
    assert exc.value.field == "agents[1].custom.theta[0][2]" + field
    assert str(exc.value) == message


def test_terms_of_subclassed_values_take_the_per_field_checks():
    # the one check takes exact types only; the per-field checks accept a
    # dict or int subclass, and the parsed map is the same
    class Int(int):
        pass

    class Dict(dict):
        pass

    plain = parse_scenario(_doc_with_theta_term({"c": 0.5, "e": [2, 0, 3]}))
    sub = parse_scenario(_doc_with_theta_term(
        Dict(c=0.5, e=[Int(2), 0, Int(3)])))
    assert sub.agents[1].theta._terms == plain.agents[1].theta._terms
    factors = plain.agents[1].theta._terms[-1][2]
    assert factors == [(0, 2), (2, 3)]
    assert all(type(p) is int for _, p in factors)


def test_graph_size_is_checked_before_its_weights_are_allocated():
    # an n x n weight matrix of n = 2000 is 32 MB; the count is compared
    # with the number of agents first, with the same error
    doc = base_doc()
    doc["agents"] = doc["agents"][:1]
    doc["graph"] = {"n": 2000, "edges": [[1, 2, 1.0]]}
    sdoc = switching_doc()
    sdoc["agents"] = sdoc["agents"][:1]
    sdoc["switching"]["graphs"] = [{"n": 1, "edges": []},
                                   {"n": 2000, "edges": []}]
    sdoc["switching"]["generator"] = [[-1.0, 1.0], [1.0, -1.0]]
    for d, field, what in ((doc, "graph", "graph"),
                           (sdoc, "switching.graphs[1]", "mode graph")):
        tracemalloc.start()
        try:
            with pytest.raises(errors.ValidationError) as exc:
                parse_scenario(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.field == field
        assert str(exc.value) == (f"{what} has 2000 nodes but the scenario "
                                  f"has 1 agents")
        assert peak < 200_000


def _graph(doc, where="graph", n_agents=None):
    # the graph document read in a scenario of n_agents agents, by default
    # as many as the document has nodes
    if n_agents is None:
        n_agents = doc["n"]
    return scenario._graph(doc, n_agents, where, "graph")


def test_graph_document_reads_edges():
    # edges are [from, to, weight] with 1-based nodes; weight w[to, from]
    doc = {"n": 4, "edges": [[1, 2, 1.5], [3, 4, 0.5], [4, 1, 2.0]]}
    g = DiGraph.from_edges(4, [(0, 1, 1.5), (2, 3, 0.5), (3, 0, 2.0)])
    back = _graph(doc)
    assert back.n == 4
    assert back.weights[1, 0] == 1.5
    assert np.array_equal(back.weights, g.weights)


def test_graph_document_validation():
    with pytest.raises(errors.ValidationError) as exc:
        _graph({"edges": []}, n_agents=1)
    assert exc.value.field == "graph"
    with pytest.raises(errors.ValidationError) as exc:
        _graph({"n": 0, "edges": []})
    assert exc.value.field == "graph.n"
    with pytest.raises(errors.ValidationError) as exc:
        _graph({"n": 2, "edges": [[1, 1, 1.0]]}, where="switching.graphs[0]")
    assert exc.value.field == "switching.graphs[0].edges[0]"
    with pytest.raises(errors.ValidationError):
        _graph({"n": 2, "edges": [[0, 1, 1.0]]})
    with pytest.raises(errors.ValidationError):
        _graph({"n": 2, "edges": [[1, 2, -1.0]]})
    with pytest.raises(errors.ValidationError):
        _graph({"n": 2, "edges": [[1, 2]]})
    with pytest.raises(errors.ValidationError):
        _graph("not a dict", n_agents=1)


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
        _graph(doc, where="switching.graphs[1]")
    assert exc.value.field == "switching.graphs[1].edges[1]"
    assert str(exc.value) == message


def test_edges_of_subclassed_numbers_take_the_per_field_checks():
    # the one check takes exact types only; the per-field checks accept an
    # int or float subclass, and the weights come out the same
    class Int(int):
        pass

    class Float(float):
        pass

    plain = _graph({"n": 3, "edges": [[1, 2, 1.5], [3, 1, 2]]})
    sub = _graph({"n": 3, "edges": [[Int(1), Int(2), Float(1.5)],
                                    [3, 1, Int(2)]]})
    assert np.array_equal(sub.weights, plain.weights)
    assert plain.weights[1, 0] == 1.5 and plain.weights[0, 2] == 2.0


def test_parallel_edges_whose_sum_overflows_are_rejected():
    # each weight is finite; their sum is not, and must not get as far as
    # numpy's overflow warning or DiGraph's ValueError
    big = [1, 2, 1.7e308]
    for where in ("graph", "switching.graphs[1]"):
        with pytest.raises(errors.ValidationError) as exc:
            _graph({"n": 3, "edges": [big, [2, 3, 1.0], big]}, where=where)
        assert exc.value.field == f"{where}.edges"
        assert "parallel edges 1 -> 2" in str(exc.value)
    g = _graph({"n": 2, "edges": [[1, 2, 8.9e307], [1, 2, 8.9e307]]})
    assert g.weights[1, 0] == 8.9e307 + 8.9e307


def _mut_switch_graph_size(doc):
    doc["switching"]["graphs"][1]["n"] = 4


def _mut_switch_generator_rows(doc):
    doc["switching"]["generator"] = [[-1.0, 1.0]]


def _mut_switch_generator_row_len(doc):
    doc["switching"]["generator"][0] = [-1.0]


def _mut_switch_generator_rowsum(doc):
    doc["switching"]["generator"][0] = [-1.0, 2.0]


def _mut_switch_generator_sign(doc):
    doc["switching"]["generator"] = [[1.0, -1.0], [1.0, -1.0]]


def _mut_switch_generator_reducible(doc):
    doc["switching"]["generator"] = [[0.0, 0.0], [1.0, -1.0]]


def _mut_switch_no_graphs(doc):
    doc["switching"]["graphs"] = []


def _mut_switch_unknown(doc):
    doc["switching"]["dwell"] = 1.0


def _mut_switch_graph_unknown_key(doc):
    doc["switching"]["graphs"][0]["weight"] = 2.0


SWITCHING_CASES = [
    (_mut_switch_graph_size, "switching.graphs[1]"),
    (_mut_switch_generator_rows, "switching.generator"),
    (_mut_switch_generator_row_len, "switching.generator[0]"),
    (_mut_switch_generator_rowsum, "switching.generator"),
    (_mut_switch_generator_sign, "switching.generator"),
    (_mut_switch_generator_reducible, "switching.generator"),
    (_mut_switch_no_graphs, "switching.graphs"),
    (_mut_switch_unknown, "switching"),
    (_mut_switch_graph_unknown_key, "switching.graphs[0]"),
]


@pytest.mark.parametrize("mutate,field",
                         SWITCHING_CASES,
                         ids=[m.__name__[5:] for m, _ in SWITCHING_CASES])
def test_switching_validation_fields(mutate, field):
    doc = switching_doc()
    mutate(doc)
    with pytest.raises(errors.ValidationError) as exc:
        parse_scenario(doc)
    assert exc.value.field == field


FUZZ_VALUES = [True, None, "x", [], {}, -1, 0, 0.5, HUGE]


def _nodes(node, path=()):
    """The path of every node below `node` in a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def test_parser_fuzzed_by_seeded_mutations():
    # 400 single mutations of the shipped scenarios: a key deleted, or a
    # node (leaf or not) replaced by one of FUZZ_VALUES.  Every document
    # must parse or end in one of the scenario errors, never another
    # exception; ~1.5 s
    rng = np.random.default_rng(20261018)
    sources = [json.loads((SCENARIO_DIR / name).read_text())
               for name in ("five_agents_fixed.json",
                            "five_agents_switching.json")]
    outcomes = {}
    for _ in range(400):
        doc = copy.deepcopy(sources[rng.integers(len(sources))])
        paths = list(_nodes(doc))
        path = paths[rng.integers(len(paths))]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.25:
            del parent[path[-1]]
            change = "deleted"
        else:
            parent[path[-1]] = FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]
            change = f"set to {str(parent[path[-1]])[:20]}"
        try:
            parse_scenario(doc)
            outcome = "parsed"
        except (errors.ValidationError, errors.ScenarioParseError,
                errors.SynthesisError) as exc:
            outcome = type(exc).__name__
        except Exception as exc:
            pytest.fail(f"{'.'.join(map(str, path))} {change}: "
                        f"{type(exc).__name__}: {exc}")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes.get("ValidationError", 0) > 200, outcomes
    assert outcomes.get("parsed", 0) > 10, outcomes


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"agents": [,]}')
    with pytest.raises(errors.ScenarioParseError) as exc:
        load_scenario(path)
    assert exc.value.line == 1
    assert isinstance(exc.value.column, int)
    path.write_text("[1, 2]")
    with pytest.raises(errors.ScenarioParseError):
        load_scenario(path)


def test_synthesis_error_chains_cause():
    doc = base_doc()
    doc["controller"]["poles"] = [1.0, -2.0]
    # a value the synthesis refuses is a ValidationError at its field
    with pytest.raises(errors.ValidationError,
                       match="all poles must satisfy Re < -1e-09") as exc:
        parse_scenario(doc)
    assert exc.value.field == "controller.poles"
    assert isinstance(exc.value.__cause__, errors.ValidationError)

    doc = base_doc()
    doc["controller"]["mu"] = 0.0
    with pytest.raises(errors.ValidationError,
                       match="mu must be positive, got 0.0") as exc:
        parse_scenario(doc)
    assert exc.value.field == "controller.mu"
    assert exc.value.__cause__.field == "mu"

    doc = base_doc()
    doc["observer"] = {"C": [1.0, 0.0, 0.0],
                       "poles": [-3.0, -4.0, [-5.0, 1.0]]}
    with pytest.raises(errors.ValidationError,
                       match="has no conjugate partner") as exc:
        parse_scenario(doc)
    assert exc.value.field == "observer.poles"

    # a design that fails on valid values is a SynthesisError
    doc = base_doc()
    doc["observer"] = {"C": [0.0, 0.0, 0.0], "poles": [-3.0, -4.0, -5.0]}
    with pytest.raises(errors.SynthesisError,
                       match=r"synthesis failed: \(C, A\) is not observable"
                       ) as exc:
        parse_scenario(doc)
    assert isinstance(exc.value.__cause__, errors.SynthesisError)


def test_observer_defaults_and_match():
    doc = base_doc()
    doc["observer"] = {"C": [1.0, 0.0, 0.0], "poles": [-3.0, -4.0, -5.0]}
    scen = parse_scenario(doc)
    assert scen.observer is not None
    assert scen.observer_init == "zero"
    doc["observer"]["init"] = "match"
    assert parse_scenario(doc).observer_init == "match"


# ---------------------------------------------------------------------------
# command-line entry point


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cli_synthesize_fixed(capsys):
    rc = main(["synthesize", str(SCENARIO_DIR / "five_agents_fixed.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r"] == 3
    assert out["b"] == [2.0, 3.0]
    assert out["nu"] == [2.0, 3.0, 1.0]
    assert out["K"] == [2.0, 3.0, 1.0]
    assert out["rank"] == "one"
    assert out["P1"][0] == [4.0, 6.0, 2.0]
    assert out["spectrum"]["analytic_consistent"] is True
    assert len(out["spectrum"]["values"]) == 15
    assert out["guaranteed_rate"] == pytest.approx(
        1.0 - np.cos(2.0 * np.pi / 5.0))


def test_cli_synthesize_switching(capsys):
    rc = main(["synthesize", str(SCENARIO_DIR / "five_agents_switching.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stationary"] == pytest.approx([0.5, 0.5])
    assert out["assumption"]["passes"] is True
    assert out["guaranteed_rate"] is None
    assert out["fast_switching_limit"] == pytest.approx(
        0.5 * (2.0 - 2.0 * np.cos(2.0 * np.pi / 5.0)))


def test_cli_synthesize_prints_null_when_no_rate_is_guaranteed(tmp_path,
                                                              capsys):
    # a full-rank design, and rank-one designs on a graph without a
    # spanning tree (node 3 hears nobody) or with one agent, print the key
    # with null
    full = base_doc()
    full["controller"]["rank"] = "full"
    del full["controller"]["q1"]
    no_tree = base_doc()
    no_tree["graph"] = {"n": 3, "edges": [[1, 2, 1.0]]}
    one_agent = base_doc()
    one_agent["agents"] = one_agent["agents"][:1]
    one_agent["graph"] = {"n": 1, "edges": []}
    for name, doc in (("full", full), ("no_tree", no_tree),
                      ("one_agent", one_agent)):
        rc = main(["synthesize", _write(tmp_path, doc, f"{name}.json")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "guaranteed_rate" in out, name
        assert out["guaranteed_rate"] is None, name
        assert list(out)[-2:] == ["guaranteed_rate", "spectrum"], name
        # only a rank-one spectrum is checked against its formula
        assert (("analytic_consistent" in out["spectrum"])
                == (name != "full")), name


def _one_json_line(text):
    """The value of ``text``, which must be one line of ``json.dumps``."""
    value = json.loads(text)
    assert text == json.dumps(value) + "\n"
    return value


_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[^\s\[\]{}:,"]+|[\[\]{}:,]')


@pytest.mark.parametrize("name", ["five_agents_fixed.json",
                                  "five_agents_switching.json"])
@pytest.mark.parametrize("command", ["synthesize", "analyze"])
def test_report_writer_is_json_dumps_indent_2_on_shipped_reports(
        monkeypatch, capsys, name, command):
    # the command prints the report it built as one compact json.dumps
    # line, and that line is its json.dumps(indent=2) layout with only the
    # whitespace dropped: the same keys in the same order, the same float text
    dumps = json.dumps
    seen = []

    def spy(obj, **kwargs):
        seen.append(copy.deepcopy(obj))
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", spy)
    assert main([command, str(SCENARIO_DIR / name)]) == 0
    monkeypatch.undo()
    out = capsys.readouterr().out
    assert len(seen) == 1
    assert out == dumps(seen[0]) + "\n"
    assert _JSON_TOKEN.findall(out) == _JSON_TOKEN.findall(
        dumps(seen[0], indent=2))


def test_cli_simulate_writes_csv_and_svg(tmp_path, capsys):
    scen = _write(tmp_path, base_doc())
    out_csv = str(tmp_path / "run.csv")
    out_svg = str(tmp_path / "run.svg")
    rc = main(["simulate", scen, "--out", out_csv, "--svg", out_svg])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["csv"] == out_csv
    assert summary["samples"] == 51
    assert summary["svg"] == out_svg
    rows = _read_csv(out_csv)
    assert rows[0] == ["t", "y1", "y2", "y3"]
    assert len(rows) == 52
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(0.5)
    svg = Path(out_svg).read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 3


def test_cli_simulate_rerun_is_byte_identical(tmp_path, capsys):
    scen = _write(tmp_path, base_doc())
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", scen, "--out", str(a)]) == 0
    assert main(["simulate", scen, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(["simulate", scen, "--out", str(c), "--seed", "99"]) == 0
    capsys.readouterr()
    assert c.read_bytes() != a.read_bytes()


def test_csv_writers_match_per_value_formatting(tmp_path):
    # the writers format whole blocks with "%.17g"; the lines must be the
    # ones csv.writer gives for format(float(x), ".17g") of every value
    from consensuskit.cli import _write_mc_csv, _write_trajectory_csv
    from consensuskit.sim import MonteCarloResult, Trajectory

    def fmt(x):
        return format(float(x), ".17g")

    times = np.array([0.0, 0.1, 1.0 / 3.0])
    y = np.array([[-0.0, 5e-324], [1e-300, 1.0 / 3.0], [0.1, -2.5e17]])
    traj = Trajectory(
        times=times, y=y, xi_hat=np.stack([y, -y, y / 7.0], axis=2),
        eta=[np.full((3, 1), 5e-324), np.empty((3, 0))],
        u=np.array([[1e-300, -0.0], [1.0 / 3.0, 7.0], [-1.0, 2.0 ** 60]]),
        err=np.stack([y, 3.0 * y, -y], axis=2), mode=np.array([0, 1, 1]))
    path = tmp_path / "traj.csv"
    _write_trajectory_csv(path, traj, full_state=True)
    err_norm = np.linalg.norm(traj.err, axis=2)
    want = [["t", "y1", "y2", "e1", "e2", "mode", "xi1_1", "xi1_2", "xi1_3",
             "eta1_1", "u1", "xi2_1", "xi2_2", "xi2_3", "u2"]]
    for k in range(3):
        row = [fmt(times[k])] + [fmt(v) for v in traj.y[k]]
        row += [fmt(v) for v in err_norm[k]] + [str(traj.mode[k] + 1)]
        for i in range(2):
            row += [fmt(v) for v in traj.xi_hat[k, i]]
            row += [fmt(v) for v in traj.eta[i][k]] + [fmt(traj.u[k, i])]
        want.append(row)
    assert "-0" in want[1] and "4.9406564584124654e-324" in want[1]
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(want)
    assert path.read_bytes() == buf.getvalue().encode()

    # the observer columns of a run longer than one block of samples, the
    # last block a single sample: the norms of the whole error, bit for bit
    n = 2 * sim._BLOCK + 1
    rng = np.random.default_rng(36)
    err = (rng.standard_normal((n, 2, 3))
           * 10.0 ** rng.integers(-9, 9, (n, 2, 3)))
    traj = Trajectory(times=np.arange(n) * 1e-3, y=err[:, :, 1],
                      xi_hat=err, eta=[], u=err[:, :, 2], err=err)
    _write_trajectory_csv(path, traj, full_state=False)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "y1", "y2", "e1", "e2"]
    norms = np.array([[float(v) for v in row[3:]] for row in rows[1:]])
    assert np.array_equal(norms, np.linalg.norm(err, axis=2))

    path = tmp_path / "ms.csv"
    _write_mc_csv(path, MonteCarloResult(times=times, mean_square=y[:, 1],
                                         runs_used=1, runs_diverged=0))
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(
        [["t", "mean_square"]]
        + [[fmt(t), fmt(v)] for t, v in zip(times, y[:, 1])])
    assert path.read_bytes() == buf.getvalue().encode()


def _percent_text(header, blocks):
    # the reference: each row through "%.17g"
    line = ",".join(["%.17g"] * sum(b.shape[1] for b in blocks)) + "\r\n"
    cols = [b.tolist() for b in blocks]
    return (",".join(header) + "\r\n" + "".join(
        line % tuple(v for c in cols for v in c[r])
        for r in range(blocks[0].shape[0]))).encode()


def _fallback_rows(monkeypatch, write, *args):
    # call write(*args) and count the rows it sent to the "%" fallback
    calls = []
    fallback = _csvtext._fallback_row

    def counted(line, part, r):
        calls.append(r)
        return fallback(line, part, r)

    monkeypatch.setattr(_csvtext, "_fallback_row", counted)
    write(*args)
    monkeypatch.undo()
    return len(calls)


def _hard_values(rng):
    """Doubles chosen to break a fast %.17g: (name, values) pairs."""
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 305_000, dtype=np.int64)
    bits = bits.view(np.float64)
    scaled = rng.standard_normal(40_000) * 10.0 ** rng.integers(-300, 301,
                                                                40_000)
    # odd N / 2**j in [10**(17 - j), 10**(18 - j)): 18 significant digits
    # ending in 5, so exact ties at 17 digits; and their neighbours
    j = rng.integers(3, 6, 20_000)
    lo = 2 ** j * 10 ** (17 - j)
    ties = (rng.integers(lo, 10 * lo) | 1) / 2.0 ** j
    near = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties,
                                                                  np.inf)])
    pow10 = 10.0 ** np.arange(-310, 309)
    pow10 = np.concatenate([pow10, np.nextafter(pow10, 0),
                            np.nextafter(pow10, np.inf)])
    whole = np.arange(10 ** 16 - 3000, 10 ** 16 + 3000, dtype=np.int64)
    integers = np.concatenate([whole, whole * 10, 39209478666557296 + whole
                               - 10 ** 16, np.arange(2 ** 53 - 50,
                                                     2 ** 53 + 50)])
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1e-300, 1e300, 1.7976931348623157e308,
               np.inf, -np.inf, np.nan, 1e16, 1e17, 9.999999999999999e16,
               1e-5, 1e-4, 1e23, 1e22, 1e-7, 0.1, 821618143501158.375]
    return [
        ("bits", bits[np.isfinite(bits)]),
        ("scaled normals", scaled),
        ("dyadic near-ties", near),
        ("powers of ten", pow10),
        ("integers", integers.astype(float)),
        ("k * 0.001", np.arange(-20_000, 20_000) * 0.001),
        ("special", np.array(special)),
    ]


def test_csv_rows_match_percent_formatting_on_hard_values(tmp_path,
                                                         monkeypatch):
    # the numpy writer must give the bytes of "%.17g" on values where the
    # 17 digits are hard to get; each block has four columns so that most
    # rows hold only decided values and take the numpy path
    rng = np.random.default_rng(20261019)
    path = tmp_path / "hard.csv"
    for name, values in _hard_values(rng):
        values = np.concatenate([values, rng.standard_normal(-values.size % 4)])
        block = values.reshape(-1, 4)
        fallback = _fallback_rows(monkeypatch, _csvtext.write_rows, path,
                                  list("abcd"), [block])
        assert path.read_bytes() == _percent_text(list("abcd"), [block]), name
        assert fallback < block.shape[0], name
    # a lone nan, inf and subnormal fall back with their own row only
    block = np.array([[1.5], [np.nan], [2.5], [np.inf], [5e-324], [-0.0]])
    assert _fallback_rows(monkeypatch, _csvtext.write_rows, path, ["x"],
                          [block]) == 3
    assert path.read_bytes() == _percent_text(["x"], [block])
    # columns equal as floats but not in bits repeat no other: 0.0 and
    # -0.0 print 0 and -0, nans of two payloads both nan; a repeated column
    # holding an undecided value sends its row, and that row only, to "%"
    signed = np.zeros((3, 2))
    signed[:, 1] = -0.0
    nans = np.array([[0x7FF8000000000001, 0x7FF8000000000002]] * 3,
                    np.uint64).view(np.float64)
    col = block[:3]
    for blocks, columns, fallback in (([signed], [0, 1], 0),
                                      ([nans, signed], [0, 1, 2, 3], 3),
                                      ([col, signed, col], [0, 1, 2, 0], 1)):
        assert _csvtext._distinct_columns(blocks)[1] == columns
        header = list("abcd")[:len(columns)]
        assert _fallback_rows(monkeypatch, _csvtext.write_rows, path, header,
                              blocks) == fallback
        assert path.read_bytes() == _percent_text(header, blocks)
    assert path.read_bytes().endswith(b"\r\n2.5,0,-0,2.5\r\n")


def _float_of_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


_TENS = 10.0 ** np.arange(-323, 309)
# a double drawn by its bit pattern, or one of the kinds a fast %.17g gets
# wrong: nan, inf, 0, subnormals, the nearest double to 18 significant
# digits ending in 5 (a near-tie at 17 digits), a power of ten +-1 ulp;
# all of them of either sign
_DOUBLES = st.builds(
    lambda v, negative: -v if negative else v,
    st.one_of(
        st.integers(0, 2 ** 64 - 1).map(_float_of_bits),
        st.sampled_from([float("nan"), float("inf"), 0.0]),
        st.integers(1, 2 ** 52 - 1).map(_float_of_bits),
        st.builds(lambda m, e: float(f"{m}5e{e}"),
                  st.integers(10 ** 16, 10 ** 17 - 1), st.integers(-340, 290)),
        st.sampled_from(np.concatenate([
            _TENS, np.nextafter(_TENS, 0), np.nextafter(_TENS, np.inf)]
        ).tolist()),
    ),
    st.booleans())


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(_DOUBLES, min_size=1, max_size=48),
       columns=st.lists(st.integers(0, 5), min_size=1, max_size=6),
       nrows=st.integers(1, 600), split=st.integers(0, 6))
# the last column repeating an earlier one; an earlier column repeating
# the one the last column repeats
@example(values=[0.1, float("nan"), -2.5e-300], columns=[0, 1, 0],
         nrows=300, split=0)
@example(values=[1.0 / 3.0, -0.0, 1e22, float("inf")], columns=[2, 0, 2, 2],
         nrows=257, split=1)
def test_csv_rows_are_percent_17g_of_every_value(tmp_path, values, columns,
                                                 nrows, split):
    # rows cycle through the drawn values, so hard values land in both
    # numpy-decided and fallback rows and on either side of a chunk edge;
    # column j is column columns[j] of six such, so some repeat another
    ncols = len(columns)
    table = np.resize(np.array(values), (nrows, 6))[:, columns]
    cut = min(split, ncols - 1) + 1
    blocks = [table[:, :cut]] + ([table[:, cut:]] if cut < ncols else [])
    path = tmp_path / "rows.csv"
    _csvtext.write_rows(path, ["c"] * ncols, blocks)
    want = "c" + ",c" * (ncols - 1) + "\r\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\r\n" for row in table.tolist())
    assert path.read_bytes() == want.encode()


def test_csv_rows_integer_column_and_partial_chunk(tmp_path, monkeypatch):
    # 1,000 rows: three full chunks and a partial one; the mode column holds
    # whole floats, which "%.17g" writes as the integer's digits
    rng = np.random.default_rng(7)
    n = 1000
    assert n % _csvtext._CHUNK_ROWS
    t = np.arange(n) * 0.001
    mode = rng.integers(0, 3, n)[:, None] + 1.0
    mode[[0, 1, 2, 3, 999]] = [[2.0 ** 53], [10.0], [-100.0], [1e16], [-0.0]]
    y = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 8, (n, 3))
    blocks = [t[:, None], mode, y, np.empty((n, 0)), y[:, :1] * 1e-12]
    header = ["t", "mode", "y1", "y2", "y3", "w"]
    path = tmp_path / "mixed.csv"
    fallback = _fallback_rows(monkeypatch, _csvtext.write_rows, path, header,
                              blocks)
    text = path.read_bytes()
    assert text == _percent_text(header, blocks)
    assert b"\r\n0,9007199254740992," in text
    assert b"\r\n0.001,10," in text and b",10000000000000000," in text
    assert fallback == 0
    # repeated columns over the same rows: the y block again, between two
    # zero-width blocks, one of its columns, and the mode column last
    blocks[3:] = [np.empty((n, 0)), y, np.empty((n, 0)), y[:, 1:2], mode]
    assert _csvtext._distinct_columns(blocks)[1] == [0, 1, 2, 3, 4, 2, 3, 4,
                                                     3, 1]
    header = ["t", "mode", "y1", "y2", "y3", "y1", "y2", "y3", "y2", "mode"]
    assert _fallback_rows(monkeypatch, _csvtext.write_rows, path, header,
                          blocks) == 0
    assert path.read_bytes() == _percent_text(header, blocks)
    # and a single row of them
    blocks = [b[:1] for b in blocks]
    _csvtext.write_rows(path, header, blocks)
    assert path.read_bytes() == _percent_text(header, blocks)
    # the mode column at the end of the line, and a single row
    blocks = [t[:1, None], mode[:1]]
    _csvtext.write_rows(path, ["t", "mode"], blocks)
    assert path.read_bytes() == b"t,mode\r\n0,9007199254740992\r\n"
    # the layout gathers a chunk in parts: from 11 columns on a part ends
    # inside the chunk, at 11 and 31 columns inside one of its rows
    gather = _csvtext._GATHER_BYTES // (_csvtext._WIDTH * 8)
    for ncols in (1, 11, 30, 31):
        block = (rng.standard_normal((n, ncols))
                 * 10.0 ** rng.integers(-20, 20, (n, ncols)))
        assert (_csvtext._CHUNK_ROWS * ncols > gather) == (ncols >= 11)
        _csvtext.write_rows(path, ["c"] * ncols, [block])
        assert path.read_bytes() == _percent_text(["c"] * ncols, [block])
    assert gather % 11 and gather % 31


def test_csv_writer_takes_the_numpy_path_on_the_shipped_trajectory(
        tmp_path, monkeypatch):
    # a later edit could stay exact and still send every row to "%": bound
    # the fallback count on the shipped trajectory, and check its head
    from consensuskit.sim import simulate_fixed

    traj = simulate_fixed(load_scenario(SCENARIO_DIR / "five_agents_fixed.json"))
    path = tmp_path / "fixed.csv"
    fallback = _fallback_rows(monkeypatch, cli._write_trajectory_csv, path,
                              traj, True)
    assert traj.times.size == 30_001
    assert fallback <= 30
    head = path.read_bytes().split(b"\r\n")[:1001]
    blocks = [traj.times[:1000, None], traj.y[:1000]]
    for i in range(5):
        blocks += [traj.xi_hat[:1000, i], traj.eta[i][:1000],
                   traj.u[:1000, i:i + 1]]
    assert b"\r\n".join(head) + b"\r\n" == _percent_text(
        head[0].decode().split(","), blocks)


def test_csv_writer_formats_each_distinct_column_once(tmp_path,
                                                     monkeypatch):
    # a later edit could stay exact and still format every column: count
    # the values that reach _float_digits.  9 of the 30 columns of the
    # shipped full-state trajectory repeat another bit for bit: y_i is
    # xi_i_1, and u_i is xi_i_3 for the four agents with alpha = 0 and
    # beta = 1; without repeats every value is formatted exactly once
    from consensuskit.sim import simulate_fixed

    traj = simulate_fixed(load_scenario(SCENARIO_DIR / "five_agents_fixed.json"))
    digits, counted = _csvtext._float_digits, []

    def count(x):
        counted.append(x.size)
        return digits(x)

    monkeypatch.setattr(_csvtext, "_float_digits", count)
    path = tmp_path / "fixed.csv"
    cli._write_trajectory_csv(path, traj, True)
    assert sum(counted) == 21 * 30_001
    counted.clear()
    cli._write_trajectory_csv(path, traj, False)
    assert sum(counted) == 6 * 30_001
    counted.clear()
    block = np.random.default_rng(37).standard_normal((1000, 7))
    _csvtext.write_rows(path, ["c"] * 9, [block, block[:, :1] * -1.0,
                                          np.empty((1000, 0)),
                                          block[:, 6:] + 0.5])
    assert sum(counted) == 9 * 1000


def _svg_points_per_point(times, series):
    # the per-point polyline text that _write_svg vectorizes
    ml, mtop = 60.0, 15.0
    pw, ph = 800 - ml - 15.0, 500 - mtop - 40.0
    stride = max(1, len(times) // 2000)
    tt, ss = times[::stride], series[::stride]
    t_lo, t_hi = float(tt[0]), float(tt[-1])
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    y_lo, y_hi = float(ss.min()), float(ss.max())
    if y_hi <= y_lo:
        y_hi, y_lo = y_lo + 0.5, y_lo - 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(t):
        return ml + pw * (t - t_lo) / (t_hi - t_lo)

    def py(v):
        return mtop + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    return [" ".join(f"{px(t):.2f},{py(v):.2f}" for t, v in zip(tt, ss[:, j]))
            for j in range(ss.shape[1])]


@pytest.mark.parametrize("case", ["crosses_zero", "constant", "stride"])
def test_svg_polylines_match_per_point_formula(tmp_path, case):
    rng = np.random.default_rng(3)
    if case == "crosses_zero":
        times = np.linspace(0.0, 3.0, 301)
        series = np.stack([np.sin(7.0 * times), 0.3 - times / 7.0], axis=1)
    elif case == "constant":
        times = np.linspace(0.0, 1.0, 50)
        series = np.full((50, 2), -1.0 / 3.0)
    else:
        times = np.arange(30_001) * 1e-3
        series = rng.standard_normal((30_001, 3)).cumsum(axis=0) * 1e-3
    path = tmp_path / "plot.svg"
    cli._write_svg(path, times, series)
    svg = path.read_text()
    got = re.findall(r'<polyline points="([^"]*)"', svg)
    assert got == _svg_points_per_point(times, series)


def test_cli_simulate_full_state_and_observer(tmp_path, capsys):
    doc = base_doc()
    doc["observer"] = {"C": [1.0, 0.0, 0.0], "poles": [-3.0, -4.0, -5.0]}
    scen = _write(tmp_path, doc)
    out_csv = str(tmp_path / "obs.csv")
    rc = main(["simulate", scen, "--out", out_csv, "--full-state"])
    assert rc == 0
    capsys.readouterr()
    rows = _read_csv(out_csv)
    header = rows[0]
    assert header[:7] == ["t", "y1", "y2", "y3", "e1", "e2", "e3"]
    assert "xi1_1" in header and "xi1_3" in header
    assert "eta1_1" in header and "u3" in header
    assert "eta3_1" not in header  # the degree-3 agent has no internal state
    assert len(rows[1]) == len(header)
    # observer errors start nonzero and decay
    assert float(rows[1][4]) > 0.0
    assert float(rows[-1][4]) < float(rows[1][4])


def test_cli_simulate_switching_mode_column(tmp_path, capsys):
    scen = _write(tmp_path, switching_doc())
    out_csv = str(tmp_path / "sw.csv")
    rc = main(["simulate", scen, "--out", out_csv])
    assert rc == 0
    capsys.readouterr()
    rows = _read_csv(out_csv)
    assert rows[0] == ["t", "y1", "y2", "y3", "mode"]
    modes = {row[-1] for row in rows[1:]}
    assert modes <= {"1", "2"}
    assert len(rows) == 52


def test_cli_simulate_switching_a4_gate(tmp_path, capsys):
    doc = switching_doc()
    doc["switching"]["graphs"] = [{"n": 3, "edges": [[1, 2, 1.0]]},
                                  {"n": 3, "edges": [[2, 3, 1.0]]}]
    scen = _write(tmp_path, doc)
    out_csv = str(tmp_path / "bad.csv")
    rc = main(["simulate", scen, "--out", out_csv])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    rc = main(["simulate", scen, "--out", out_csv, "--allow-a4-violation"])
    assert rc == 0
    capsys.readouterr()


def test_cli_simulate_runs_switching_scenarios_behind_the_a4_gate(tmp_path,
                                                                  capsys):
    scen = _write(tmp_path, switching_doc())
    a = tmp_path / "a.csv"
    assert main(["simulate", scen, "--out", str(a)]) == 0
    capsys.readouterr()
    assert _read_csv(str(a))[0] == ["t", "y1", "y2", "y3", "mode"]
    doc = switching_doc()
    doc["switching"]["graphs"] = [{"n": 3, "edges": [[1, 2, 1.0]]},
                                  {"n": 3, "edges": [[2, 3, 1.0]]}]
    rc = main(["simulate", _write(tmp_path, doc, "bad.json"),
               "--out", str(tmp_path / "bad.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


def _refusal(argv, capsys):
    # a refused call: exit 1, nothing on stdout, one JSON line on stderr
    rc = main(argv)
    stdout, stderr = capsys.readouterr()
    assert (rc, stdout) == (1, "")
    return _one_json_line(stderr)


@pytest.mark.parametrize("graphs, fact", [
    ([[[1, 2, 1.0]], [[2, 3, 1.0]]], "is not weight-balanced"),
    ([[[1, 2, 1.0]], [[2, 1, 1.0]]], "has no spanning tree"),
    ([[[1, 2, 1.0]], [[1, 2, 1.0]]],
     "has no spanning tree and is not weight-balanced"),
])
def test_cli_a4_refusal_names_the_failed_fact(tmp_path, capsys, graphs,
                                              fact):
    # the refusal names the A4 fact that failed and no override: simulate
    # takes --allow-a4-violation, montecarlo takes none
    doc = switching_doc()
    doc["switching"]["graphs"] = [{"n": 3, "edges": e} for e in graphs]
    path, out = _write(tmp_path, doc), str(tmp_path / "x.csv")
    want = {"error": "ValidationError",
            "message": f"the union of the mode graphs {fact} (assumption A4)",
            "field": "switching"}
    assert _refusal(["simulate", path, "--out", out], capsys) == want
    assert _refusal(["montecarlo", path, "--runs", "2", "--out", out],
                    capsys) == want
    assert not Path(out).exists()


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_cli_montecarlo_refuses_a_run_count_below_one(tmp_path, capsys,
                                                      runs):
    # checked before the scenario is read: the path does not exist
    path = str(tmp_path / "missing.json")
    assert _refusal(["montecarlo", path, "--runs", runs,
                     "--out", str(tmp_path / "x.csv")], capsys) == {
        "error": "ValidationError",
        "message": f"need at least one run, got {runs}", "field": "--runs"}


def test_cli_refuses_a_seed_outside_64_bits(tmp_path, capsys):
    # a seed is the Philox key word itself: -1 and 2**64 are refused, not
    # reduced modulo 2**64 onto 2**64 - 1 and 0
    path, out = _write(tmp_path, base_doc()), tmp_path / "x.csv"
    for seed in (-1, 2 ** 64, 2 ** 70):
        assert _refusal(["simulate", path, "--out", str(out),
                         "--seed", str(seed)], capsys) == {
            "error": "ValidationError",
            "message": f"seed must be an integer in [0, 2**64), got {seed}",
            "field": "--seed"}
        doc = base_doc()
        doc["sim"]["seed"] = seed
        assert _refusal(["simulate", _write(tmp_path, doc, "bad.json"),
                         "--out", str(out)], capsys)["field"] == "sim.seed"
        with pytest.raises(errors.ValidationError, match="seed must be"):
            rng_for(seed)
    assert not out.exists()
    # the largest seed runs, on a stream of its own
    runs = []
    for seed in (0, 2 ** 64 - 1):
        assert main(["simulate", path, "--out", str(out),
                     "--seed", str(seed)]) == 0
        runs.append(out.read_bytes())
    capsys.readouterr()
    assert runs[0] != runs[1]


def test_topology_refusals_name_the_document_key(tmp_path, capsys):
    # montecarlo needs a "switching" section, and a document with a "graph"
    # is refused at that key
    path = _write(tmp_path, base_doc())
    assert _refusal(["montecarlo", path, "--runs", "2",
                     "--out", str(tmp_path / "x.csv")], capsys) == {
        "error": "ValidationError",
        "message": "scenario topology is not a switching topology",
        "field": "graph"}
    # the fixed-graph entry points refuse a "switching" document at that key
    scen = parse_scenario(switching_doc())
    for simulate in (sim.simulate_fixed, sim.simulate_with_observer):
        with pytest.raises(errors.ValidationError) as exc:
            simulate(scen)
        assert (str(exc.value), exc.value.field) == (
            "scenario topology is not a fixed graph", "switching")


def test_cli_has_no_simulate_switching_command(tmp_path, capsys):
    # simulate takes --allow-a4-violation itself; the old name is refused
    # by argparse before anything is read or written
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(["simulate-switching", _write(tmp_path, switching_doc()),
              "--out", str(out), "--allow-a4-violation"])
    assert info.value.code == 2
    assert "invalid choice: 'simulate-switching'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_montecarlo(tmp_path, capsys):
    scen = _write(tmp_path, switching_doc())
    out_csv = str(tmp_path / "ms.csv")
    rc = main(["montecarlo", scen, "--runs", "3", "--out", out_csv])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["runs_used"] == 3
    assert summary["runs_diverged"] == 0
    assert summary["final_mean_square"] >= 0.0
    rows = _read_csv(out_csv)
    assert rows[0] == ["t", "mean_square"]
    assert len(rows) == 52


def test_monte_carlo_excludes_and_counts_diverged_runs(tmp_path, capsys):
    # a third agent with eta' = eta^2 escapes at t = 1/eta0: of 8 runs at
    # seed 3, runs 3 and 5 leave the guard ball (t = 2.66 and 1.34)
    doc = switching_doc()
    doc["agents"][2] = custom_agent_doc()
    doc["agents"][2]["custom"]["theta"] = [[{"c": 1.0, "e": [0, 0, 2]}]]
    doc["sim"] = {"t_end": 3.0, "dt": 0.02, "seed": 3, "init": "random"}
    scen = parse_scenario(doc)
    message = "2 of 8 Monte Carlo runs diverged and were excluded"
    with pytest.warns(UserWarning, match=message):
        result = sim.monte_carlo_ms(scen, 8)
    assert (result.runs_used, result.runs_diverged) == (6, 2)
    total, escapes = None, []
    for k in range(8):
        try:
            traj = sim.simulate_switching(scen, run_index=k)
        except errors.FiniteEscape as exc:
            escapes.append((k, exc.t))
            continue
        d = sim._max_pairwise_sq(traj.xi_hat)
        total = d if total is None else total + d
    assert escapes == [(3, 2.66), (5, 1.34)]
    # the survivors' sum in run order, bit for bit
    assert np.array_equal(result.mean_square, total / 6)
    path = _write(tmp_path, doc)
    with pytest.warns(UserWarning, match=message):
        rc = main(["montecarlo", path, "--runs", "8",
                   "--out", str(tmp_path / "ms.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["runs_used"], summary["runs_diverged"]) == (6, 2)


def test_cli_calls_share_no_parsed_state(tmp_path, capsys):
    # the parser is built once for all main calls: flags and defaults of
    # one call (--full-state, --seed, --svg, --allow-a4-violation, --runs)
    # must not reach the next, whatever its subcommand
    assert cli._build_parser() is cli._build_parser()
    fixed = _write(tmp_path, base_doc())
    doc = switching_doc()
    doc["switching"]["graphs"] = [{"n": 3, "edges": [[1, 2, 1.0]]},
                                  {"n": 3, "edges": [[2, 3, 1.0]]}]
    bad = _write(tmp_path, doc, "bad.json")
    plain, again = tmp_path / "plain.csv", tmp_path / "again.csv"
    assert main(["simulate", fixed, "--out", str(plain)]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["simulate", bad, "--out", str(tmp_path / "s.csv"),
                 "--full-state", "--seed", "5", "--allow-a4-violation",
                 "--svg", str(tmp_path / "s.svg")]) == 0
    assert main(["montecarlo", _write(tmp_path, switching_doc(), "mc.json"),
                 "--runs", "2", "--seed", "9",
                 "--out", str(tmp_path / "mc.csv")]) == 0
    capsys.readouterr()
    assert main(["simulate", fixed, "--out", str(again)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "svg" not in summary
    assert summary["final_disagreement"] == first["final_disagreement"]
    assert again.read_bytes() == plain.read_bytes()
    assert main(["simulate", bad, "--out", str(tmp_path / "s.csv")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


def test_cli_analyze(tmp_path, capsys):
    doc = base_doc()
    doc["sim"] = {"t_end": 12.0, "dt": 0.005, "seed": 1, "init": "random"}
    scen = _write(tmp_path, doc)
    assert main(["analyze", scen, "--window", "5:11"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["window"] == [5.0, 11.0]
    assert out["empirical_rate"] > 0.5
    assert 0.0 <= out["r_squared"] <= 1.0
    assert out["final_disagreement"] < 0.1
    assert out["theoretical_rate"] == pytest.approx(1.0)
    assert out["spectrum"]["analytic_consistent"] is True


def test_cli_analyze_switching_names_the_fast_switching_limit(capsys):
    path = SCENARIO_DIR / "five_agents_switching.json"
    rc = main(["analyze", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    # one sampled run is not compared with the fast-switching limit
    assert out["theoretical_rate"] is None
    scen = load_scenario(path)
    assert out["fast_switching_limit"] == pytest.approx(
        switching.speed_bound(scen.topology, scen.gain, scen.cs))
    assert out["empirical_rate"] > 0.0


def test_a_builtin_listed_twice_simulates_as_separate_equal_agents():
    # a builtin name gives one shared agent, so this scenario holds the
    # same object at places 1 and 3; it must run as one whose agents are
    # separate, equal objects, and the random start still draws each
    # place's own initial state
    doc = base_doc()
    doc["agents"] = [{"builtin": "agent1"}, {"builtin": "agent3"},
                     {"builtin": "agent1"},
                     {"builtin": "agent1", "xi0": [0.3, -0.1], "eta0": [0.2]}]
    doc["graph"] = {"n": 4, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0],
                                      [4, 1, 1.0]]}
    for init in ("random", "explicit"):
        doc["sim"]["init"] = init
        scen = parse_scenario(doc)
        assert scen.agents[0] is scen.agents[2] is builtin("agent1")
        assert scen.agents[3] is not scen.agents[0]
        apart = replace(scen, agents=[replace(ag) for ag in scen.agents])
        assert not any(a is b for a, b in zip(apart.agents, scen.agents))
        got, want = sim.simulate_fixed(scen), sim.simulate_fixed(apart)
        for name in ("y", "xi_hat", "u"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for eta_got, eta_want in zip(got.eta, want.eta):
            assert np.array_equal(eta_got, eta_want)
        assert (got.xi_hat[0, 0] != got.xi_hat[0, 2]).any() == (
            init == "random")


def test_cli_analyze_runs_switching_designs_with_an_observer(tmp_path,
                                                             capsys):
    # observer feedback runs under Markov switching: analyze, simulate
    # and montecarlo exit 0 on switching scenarios with an observer
    shipped = json.loads(
        (SCENARIO_DIR / "five_agents_switching.json").read_text())
    del shipped["output"]
    shipped["observer"] = {"C": [1.0, 0.0, 0.0], "poles": [-3.0, -4.0, -5.0]}
    small = switching_doc()
    small["observer"] = {"C": [1.0, 0.0, 0.0],
                         "poles": [-2.0, [-3.0, 1.0], [-3.0, -1.0]],
                         "init": "match"}
    full = switching_doc()
    full["controller"] = {"poles": [-1.0, -1.5, -2.0], "mu": 2.0,
                          "r_hat": 0.5, "rank": "full"}
    full["agents"].append({"builtin": "agent3"})
    full["switching"]["graphs"] = [
        {"n": 4, "edges": [[1, 2, 2.0], [3, 4, 2.0]]},
        {"n": 4, "edges": [[2, 3, 2.0], [4, 1, 2.0]]}]
    full["sim"]["t_end"] = 4.0
    full["observer"] = {"C": [1.0, 0.0, 0.0, 0.0],
                        "poles": [-2.0, -3.0, -4.0, -5.0]}
    for k, doc in enumerate((shipped, small, full)):
        scen = _write(tmp_path, doc, f"observed{k}.json")
        assert main(["analyze", scen]) == 0, k
        out = json.loads(capsys.readouterr().out)
        assert out["theoretical_rate"] is None
        assert np.isfinite(out["final_disagreement"])
        csv_path = str(tmp_path / f"observed{k}.csv")
        assert main(["simulate", scen, "--out", csv_path]) == 0
        capsys.readouterr()
        header = _read_csv(csv_path)[0]
        n = len(doc["agents"])
        assert header == (["t"] + [f"y{i}" for i in range(1, n + 1)]
                          + [f"e{i}" for i in range(1, n + 1)] + ["mode"])
        assert main(["montecarlo", scen, "--runs", "3",
                     "--out", str(tmp_path / f"mc{k}.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["runs_used"] == 3


def test_cli_analyze_bad_window(tmp_path, capsys, monkeypatch):
    # rejected before anything is simulated: a NaN bound or an empty window
    # would otherwise fail only after the run, with a ConvergenceFailure
    runs = []
    monkeypatch.setattr(cli, "_simulate", runs.append)
    scen = _write(tmp_path, base_doc())
    # the grid is 0, 0.01, .., 0.5: past its end, or between two points
    for window in ("nonsense", "1:2:3", "nan:10", "0:inf", "20:5", "5:5",
                   "100:200", "0.101:0.109"):
        rc = main(["analyze", scen, "--window", window])
        assert rc == 1, window
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["field"] == "--window"
    assert runs == []


def test_cli_missing_file(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_cli_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    rc = main(["synthesize", str(path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ScenarioParseError"
    assert err["line"] == 1


def test_cli_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(base_doc()).encode("utf-8") + b' "\xe9"')
    rc = main(["synthesize", str(path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ScenarioParseError"
    assert "UTF-8" in err["message"]


def test_cli_validation_error_payload(tmp_path, capsys):
    doc = base_doc()
    doc["sim"]["dt"] = -1.0
    scen = _write(tmp_path, doc)
    rc = main(["synthesize", scen])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert err["field"] == "sim.dt"


def test_cli_overflowing_parallel_edges_payload(tmp_path, capsys):
    big = [1, 2, 1.7e308]
    fixed = base_doc()
    fixed["graph"]["edges"] += [big, big]
    switching = switching_doc()
    switching["switching"]["graphs"][1]["edges"] += [big, big]
    for doc, field in ((fixed, "graph.edges"),
                       (switching, "switching.graphs[1].edges")):
        rc = main(["synthesize", _write(tmp_path, doc)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["field"] == field


def test_cli_closed_loop_overflow_payload(tmp_path, capsys):
    # one edge of weight 1e308, or mu = 1e308, overflows I (x) A - L (x) B K:
    # every command refuses the document at load, with exit 1
    heavy = base_doc()
    heavy["graph"]["edges"][0][2] = 1e308
    heavy_mode = switching_doc()
    heavy_mode["switching"]["graphs"][0]["edges"][0][2] = 1e308
    loud = base_doc()
    loud["controller"]["mu"] = 1e308
    loud_full = base_doc()
    loud_full["controller"].update(mu=1e308, rank="full")
    del loud_full["controller"]["q1"]
    cases = ((heavy, "ValidationError", "graph.edges"),
             (heavy_mode, "ValidationError", "switching.graphs"),
             (loud, "SynthesisError", None),  # the gain K itself overflows
             (loud_full, "ValidationError", "controller.mu"))
    out = str(tmp_path / "x.csv")
    for doc, error, field in cases:
        scen = _write(tmp_path, doc)
        for argv in (["synthesize", scen], ["analyze", scen],
                     ["simulate", scen, "--out", out],
                     ["montecarlo", scen, "--runs", "2", "--out", out]):
            assert main(argv) == 1, argv
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == error, argv
            assert err.get("field") == field, argv
            if field is None:
                assert "mu = 1e+308" in err["message"], argv


def test_cli_names_r_hat_when_its_reciprocal_overflows(tmp_path, capsys):
    # full rank solves the Riccati equation with R = 1 / r_hat, which
    # overflows for a positive subnormal r_hat
    doc = json.loads((SCENARIO_DIR / "five_agents_fixed.json").read_text())
    doc["controller"].update(rank="full", r_hat=1e-320)
    del doc["controller"]["q1"]
    assert _refusal(["synthesize", _write(tmp_path, doc)], capsys) == {
        "error": "ValidationError",
        "message": "1 / r_hat overflows (r_hat = 1e-320)",
        "field": "controller.r_hat"}


@pytest.mark.parametrize("observer", [
    {"C": [1.0, 1e308, 0.0], "poles": [-3.0, -4.0, -5.0]},
    {"C": [1.0, 0.0, 1e308], "poles": [-3.0, -4.0, -5.0]},
    {"C": [1.0, 0.0, 0.0], "poles": [-3.0, -1e308, -5.0]},
])
def test_cli_observer_overflow_payload(tmp_path, capsys, observer):
    # a C entry or an observer pole of 1e308 overflows C A^k or the pole
    # polynomial of A: a SynthesisError at load, in place of a ValueError
    # from a non-finite A - M C or a LinAlgError from the SVD
    doc = base_doc()
    doc["observer"] = observer
    assert main(["synthesize", _write(tmp_path, doc)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SynthesisError"
    assert "the observer overflows" in err["message"]


@pytest.mark.parametrize("rank", ["one", "full"])
@pytest.mark.parametrize("poles", [[-1e200, -1e200], [-1e300, -2.0]])
def test_cli_huge_controller_poles_payload(tmp_path, capsys, poles, rank):
    # the target's coefficients (1e400), or the products nu nu' of the
    # rank-one P1 (nu holds 2e300), overflow: every command refuses the
    # shipped design with these poles at load, with exit 1 and one JSON
    # line naming the poles, where synthesize wrote a RuntimeWarning and
    # blamed mu, printed an infinite P1, or (full rank) a ValueError
    doc = json.loads((SCENARIO_DIR / "five_agents_fixed.json").read_text())
    doc["controller"]["poles"] = poles
    if rank == "full":
        doc["controller"]["rank"] = "full"
        del doc["controller"]["q1"]
    scen = _write(tmp_path, doc)
    out = str(tmp_path / "x.csv")
    for argv in (["synthesize", scen], ["analyze", scen],
                 ["simulate", scen, "--out", out]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValidationError", argv
        assert err["field"] == "controller.poles", argv


def test_cli_overflowing_p1_payload(tmp_path, capsys):
    # q1 / r_hat so large that P1 = nu p1 nu' overflows, K staying finite:
    # a SynthesisError naming both, where synthesize printed an infinite P1
    doc = base_doc()
    doc["controller"].update(q1=1e308, r_hat=1e-320)
    assert main(["synthesize", _write(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "SynthesisError"
    assert "P1" in err["message"] and "r_hat = 1e-320" in err["message"]


@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_cli_agent_degree_above_target(tmp_path, capsys, command):
    # a degree-4 agent on the shipped r = 3 target: the scenario's own
    # check names the agent
    doc = json.loads((SCENARIO_DIR / "five_agents_fixed.json").read_text())
    doc["agents"][0] = {"custom": {
        "r": 4, "n_eta": 0, "alpha": [],
        "beta": [{"c": 1.0, "e": [0, 0, 0, 0]}], "theta": [],
        "xi0": [0.1, 0.0, 0.0, 0.0], "eta0": []}}
    argv = [command, _write(tmp_path, doc)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValidationError"
    assert err["field"] == "agents[0]"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key", ["r", "n_eta"])
@pytest.mark.parametrize("command", ["synthesize", "analyze", "simulate"])
def test_cli_refuses_a_huge_custom_order_at_its_field(tmp_path, capsys,
                                                      command, key):
    # r and n_eta past the documented limit are refused at their own field,
    # before any term list is read, by a message that does not print them
    for value, field in ((10 ** 400, key), (2 ** 63, key),
                         (scenario._MAX_ORDER + 1, key),
                         (scenario._MAX_ORDER, "alpha[0].e")):
        doc = base_doc()
        doc["agents"][0] = custom_agent_doc()
        doc["agents"][0]["custom"][key] = value
        argv = [command, _write(tmp_path, doc)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "x.csv")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = _one_json_line(captured.err)
        assert err["error"] == "ValidationError"
        assert err["field"] == f"agents[0].custom.{field}", value
        if field == key:
            assert str(value) not in err["message"]
            assert len(err["message"]) < 60
    assert not (tmp_path / "x.csv").exists()


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: synthesize on the shipped scenario,
    # in a fresh interpreter, imports no scipy module
    src = str(Path(consensuskit.__file__).resolve().parent.parent)
    path = str(SCENARIO_DIR / "five_agents_fixed.json")
    code = (f"import json, sys\n"
            f"from consensuskit.cli import main\n"
            f"rc = main(['synthesize', {path!r}])\n"
            f"scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            f"print(json.dumps(scipy), file=sys.stderr)\n"
            f"sys.exit(rc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["r"] == 3
    assert json.loads(proc.stderr) == []


@pytest.mark.parametrize("weight", [1e-16, 1e-10])
def test_cli_synthesize_rates_a_weak_edge(tmp_path, capsys, weight):
    # the guaranteed rate is the spectral abscissa of the printed spectrum
    # without its consensus zero, however weak the edge that sets it
    doc = base_doc()
    doc["graph"]["edges"] = [[1, 2, 1.0], [2, 3, weight]]
    assert main(["synthesize", _write(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    values = np.array([complex(*v) for v in out["spectrum"]["values"]])
    nonzero = np.delete(values, np.argmin(np.abs(values)))
    assert out["guaranteed_rate"] == -nonzero.real.max()
    assert out["guaranteed_rate"] == pytest.approx(weight, rel=1e-9)


def test_cli_finite_escape_exit_code(tmp_path, capsys):
    doc = base_doc()
    blower = custom_agent_doc()
    blower["custom"]["theta"] = [[{"c": 1.0, "e": [0, 0, 3]}]]
    blower["custom"]["eta0"] = [2.0]
    doc["agents"][0] = blower
    doc["sim"] = {"t_end": 3.0, "dt": 0.001, "seed": 0, "init": "explicit"}
    scen = _write(tmp_path, doc)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["simulate", scen, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FiniteEscape"
    assert err["t"] < 1.0


def test_cli_t_end_beyond_any_time_grid(tmp_path, capsys):
    # 1e300 is finite, so the scenario loads; its 1e302-sample grid cannot
    # exist, which is a ValidationError under sim.t_end (fixed graph) and
    # is reported before a switching path is sampled up to t = 1e300
    for doc in (base_doc(), switching_doc()):
        doc["sim"]["t_end"] = 1e300
        scen = _write(tmp_path, doc)
        rc = main(["simulate", scen, "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["field"] == "sim.t_end"


def test_cli_simulate_requires_out_path(tmp_path, capsys):
    doc = base_doc()
    scen = _write(tmp_path, doc)
    rc = main(["simulate", scen])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "output.csv"


def test_cli_synthesize_one_agent_switching_prints_null_limit(tmp_path,
                                                             capsys):
    # one agent has no disagreement to decay: speed_bound raises
    # ValidationError, as the fixed one-agent case does, in place of an
    # IndexError from an empty disagreement basis
    doc = switching_doc()
    doc["agents"] = doc["agents"][:1]
    doc["switching"]["graphs"] = [{"n": 1, "edges": []}] * 2
    assert main(["synthesize", _write(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fast_switching_limit"] is None
    assert out["assumption"]["passes"] is True


def test_cli_stiff_design_reports_only_its_error(tmp_path, capsys):
    # the step matrices of mu = 1e4 (and q1 = 1e308) overflow while the
    # plan is built; the guard reports the escape, and no numpy warning
    # reaches stderr before it
    stiff = json.loads((SCENARIO_DIR / "five_agents_fixed.json").read_text())
    stiff["sim"]["t_end"] = 0.2
    stiff["controller"]["mu"] = 1e4
    heavy = copy.deepcopy(stiff)
    heavy["controller"].update(mu=1.0, q1=1e308)
    for doc, t in ((stiff, 0.002), (heavy, 0.001)):
        rc = main(["simulate", _write(tmp_path, doc), "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "FiniteEscape"
        assert err["t"] == t


def test_cli_builds_the_union_and_its_report_once(tmp_path, capsys,
                                                  monkeypatch):
    calls = {"union": 0, "A4Report": 0}
    for name in calls:
        real = getattr(switching, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(switching, name, counting)
    path = str(SCENARIO_DIR / "five_agents_switching.json")
    assert main(["synthesize", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["assumption"]["passes"] is True
    assert out["fast_switching_limit"] > 0.0
    assert calls == {"union": 1, "A4Report": 1}
    # and once for all the runs of a Monte Carlo
    doc = json.loads(Path(path).read_text())
    doc["sim"]["t_end"] = 1.0
    doc["output"]["svg"] = str(tmp_path / "ms.svg")
    calls.update(union=0, A4Report=0)
    assert main(["montecarlo", _write(tmp_path, doc), "--runs", "24",
                 "--out", str(tmp_path / "ms.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["runs_used"] == 24
    assert calls == {"union": 1, "A4Report": 1}
    assert (tmp_path / "ms.svg").is_file()


FUZZ_VALUES = (0, -1, 1e-320, 1e4, 1e20, 1e154, 1e308, float("nan"))


def _numeric_leaves(obj, path=()):
    """The path of every number in a document (booleans left out)."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path
    elif isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            yield from _numeric_leaves(value, path + (key,))


def _leaves(obj, path=()):
    """The path of every value in a document that is not a dict or list."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _fuzzed_documents(count, seed, values=FUZZ_VALUES,
                      leaves=_numeric_leaves, custom=False):
    """Documents made from the shipped fixed and switching scenarios and
    an observer variant of the fixed one (and, with `custom`, a variant
    whose first agent is given by its term lists), in turn (t_end 0.2, no
    output section), each with 1-3 of its `leaves` set to `values`."""
    fixed, switched = (
        json.loads((SCENARIO_DIR / f"five_agents_{name}.json").read_text())
        for name in ("fixed", "switching"))
    observed = copy.deepcopy(fixed)
    observed["observer"] = {"C": [1.0, 0.0, 0.0],
                            "poles": [-3.0, -4.0, -5.0]}
    bases = [fixed, switched, observed]
    if custom:
        termed = copy.deepcopy(fixed)
        termed["agents"][0] = {"custom": {
            "r": 2, "n_eta": 1, "alpha": [{"c": 0.1, "e": [0, 0, 0]}],
            "beta": [{"c": 1.0, "e": [0, 0, 0]}],
            "theta": [[{"c": -2.0, "e": [0, 0, 1]},
                       {"c": -1.0, "e": [0, 0, 3]},
                       {"c": 1.0, "e": [1, 0, 0]}]],
            "xi0": [0.5, -0.2], "eta0": [0.3]}}
        termed["sim"]["init"] = "explicit"
        bases.append(termed)
    for doc in bases:
        del doc["output"]
        doc["sim"]["t_end"] = 0.2
    rng = np.random.default_rng(seed)
    for k in range(count):
        doc = copy.deepcopy(bases[k % len(bases)])
        paths = list(leaves(doc))
        for j in rng.choice(len(paths), size=rng.integers(1, 4),
                            replace=False):
            *parents, last = paths[j]
            node = doc
            for key in parents:
                node = node[key]
            node[last] = copy.deepcopy(values[rng.integers(len(values))])
        yield doc


def test_cli_contract_holds_on_fuzzed_documents(tmp_path, capsys):
    # every command ends in exit 0 with one JSON line on stdout, or in
    # exit 1 or 2 with one JSON line on stderr that names a
    # ConsensusKitError: no traceback and no numpy warning (tier-1 turns
    # those into errors)
    path, out = str(tmp_path / "doc.json"), str(tmp_path / "x.csv")
    exits = set()
    for k, doc in enumerate(_fuzzed_documents(200, seed=0)):
        Path(path).write_text(json.dumps(doc))
        for argv in (["synthesize", path], ["analyze", path],
                     ["simulate", path, "--out", out],
                     ["montecarlo", path, "--runs", "2", "--out", out]):
            rc = main(argv)
            stdout, stderr = capsys.readouterr()
            exits.add(rc)
            if rc == 0:
                _one_json_line(stdout)
                assert stderr == "", (k, argv[0])
                continue
            assert rc in (1, 2), (k, argv[0])
            assert stdout == "", (k, argv[0])
            error = getattr(errors, _one_json_line(stderr)["error"], None)
            assert isinstance(error, type), (k, argv[0], stderr)
            assert issubclass(error, errors.ConsensusKitError), (k, argv[0])
    assert exits == {0, 1, 2}


def test_cli_contract_holds_on_non_numeric_leaves(tmp_path, capsys):
    # any leaf (number, string, bool) set to a huge int, inf, a bool, null,
    # a string, a list or a dict: every command ends in exit 0 with one JSON
    # line on stdout, or in exit 1 or 2 with one JSON line on stderr that
    # names a ConsensusKitError.  Measured: every one of the 800 calls exits 1,
    # each naming the field it refuses; a wider search (10,500 documents,
    # numbers in the pool too, leaves or whole sections set) crashed no
    # command
    path, out = str(tmp_path / "doc.json"), str(tmp_path / "x.csv")
    refused = 0
    for k, doc in enumerate(_fuzzed_documents(
            200, seed=1, values=(10 ** 400, float("inf"), True, None, "x",
                                 [], {}), leaves=_leaves, custom=True)):
        Path(path).write_text(json.dumps(doc))
        for argv in (["synthesize", path], ["analyze", path],
                     ["simulate", path, "--out", out],
                     ["montecarlo", path, "--runs", "2", "--out", out]):
            rc = main(argv)
            stdout, stderr = capsys.readouterr()
            if rc == 0:
                _one_json_line(stdout)
                assert stderr == "", (k, argv[0])
                continue
            assert rc in (1, 2), (k, argv[0])
            assert stdout == "", (k, argv[0])
            payload = _one_json_line(stderr)
            error = getattr(errors, payload["error"], None)
            assert isinstance(error, type), (k, argv[0], stderr)
            assert issubclass(error, errors.ConsensusKitError), (k, argv[0])
            refused += rc == 1 and "field" in payload
    assert refused == 800


def test_package_exports_nothing_and_its_docstring_example_runs():
    # every name is reached through its module: a star import of the
    # package binds exactly its empty __all__
    names = {}
    exec("from consensuskit import *", names)
    names.pop("__builtins__")
    assert consensuskit.__all__ == []
    assert sorted(names) == consensuskit.__all__
    doc = consensuskit.__doc__
    block = textwrap.dedent(doc[doc.index("    from consensuskit"):])
    namespace = {}
    exec(compile(block, consensuskit.__file__, "exec"), namespace)
    y = namespace["traj"].y
    assert np.isfinite(y).all()
    assert y[-1].max() - y[-1].min() < 1e-6


def test_readme_scenario_examples_parse():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    kinds = set()
    for block in blocks:
        scen = parse_scenario(json.loads(block))
        kinds.add(type(scen.topology).__name__)
    assert kinds == {"DiGraph", "MarkovTopology"}


def test_readme_command_lines_parse():
    # every consensuskit line of the README's sh blocks, up to any pipe,
    # names a command and flags the parser takes; nothing is run
    lines = [line.split("|")[0]
             for block in re.findall(r"```sh\n(.*?)```", README.read_text(),
                                     re.S)
             for line in block.splitlines()
             if line.startswith("consensuskit ")]
    assert len(lines) >= 5
    commands = set()
    for line in lines:
        args = cli._build_parser().parse_args(shlex.split(line)[1:])
        commands.add(args.command)
    assert commands == {"synthesize", "simulate", "montecarlo", "analyze"}


def test_readme_quick_start_runs():
    block = re.search(r"## Quick start\n\n```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert np.isfinite(namespace["d"][-1])
    assert namespace["fit"].rate > 0.0
