import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import consensuskit as ck
from consensuskit.cli import main
from consensuskit.graph import DiGraph
from consensuskit.scenario import load_scenario, parse_scenario, scenario_to_dict
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
    report = ck.check_A4(scen.topology)
    assert report.passes


def test_parse_scenario_round_trip():
    scen = parse_scenario(base_doc())
    doc = scenario_to_dict(scen)
    # normalization fills defaults and turns poles into [re, im] pairs
    assert doc["controller"]["poles"] == [[-1.0, 0.0], [-2.0, 0.0]]
    again = scenario_to_dict(parse_scenario(doc))
    assert again == doc


def test_scenario_to_dict_requires_document_origin(target, unit_gain,
                                                   five_agents, five_cycle):
    scen = ck.build_scenario(five_agents, target, unit_gain, five_cycle)
    with pytest.raises(ck.ValidationError):
        scenario_to_dict(scen)


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
]


@pytest.mark.parametrize("mutate,field",
                         VALIDATION_CASES,
                         ids=[m.__name__[5:] for m, _ in VALIDATION_CASES])
def test_validation_reports_dotted_field(mutate, field):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ck.ValidationError) as exc:
        parse_scenario(doc)
    assert exc.value.field == field


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


SWITCHING_CASES = [
    (_mut_switch_graph_size, "switching.graphs[1]"),
    (_mut_switch_generator_rows, "switching.generator"),
    (_mut_switch_generator_row_len, "switching.generator[0]"),
    (_mut_switch_generator_rowsum, "switching.generator"),
    (_mut_switch_generator_sign, "switching.generator"),
    (_mut_switch_generator_reducible, "switching.generator"),
    (_mut_switch_no_graphs, "switching.graphs"),
    (_mut_switch_unknown, "switching"),
]


@pytest.mark.parametrize("mutate,field",
                         SWITCHING_CASES,
                         ids=[m.__name__[5:] for m, _ in SWITCHING_CASES])
def test_switching_validation_fields(mutate, field):
    doc = switching_doc()
    mutate(doc)
    with pytest.raises(ck.ValidationError) as exc:
        parse_scenario(doc)
    assert exc.value.field == field


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"agents": [,]}')
    with pytest.raises(ck.ScenarioParseError) as exc:
        load_scenario(path)
    assert exc.value.line == 1
    assert isinstance(exc.value.column, int)
    path.write_text("[1, 2]")
    with pytest.raises(ck.ScenarioParseError):
        load_scenario(path)


def test_synthesis_error_chains_cause():
    doc = base_doc()
    doc["controller"]["poles"] = [1.0, -2.0]
    with pytest.raises(ck.SynthesisError) as exc:
        parse_scenario(doc)
    assert isinstance(exc.value.__cause__, ck.UnstablePoleError)

    doc = base_doc()
    doc["observer"] = {"C": [0.0, 0.0, 0.0], "poles": [-3.0, -4.0, -5.0]}
    with pytest.raises(ck.SynthesisError) as exc:
        parse_scenario(doc)
    assert isinstance(exc.value.__cause__, ck.NotObservableError)


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
    assert out["guaranteed_rate"] == pytest.approx(
        0.5 * (2.0 - 2.0 * np.cos(2.0 * np.pi / 5.0)))


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

    path = tmp_path / "ms.csv"
    _write_mc_csv(path, MonteCarloResult(times=times, mean_square=y[:, 1],
                                         runs_used=1, runs_diverged=0))
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(
        [["t", "mean_square"]]
        + [[fmt(t), fmt(v)] for t, v in zip(times, y[:, 1])])
    assert path.read_bytes() == buf.getvalue().encode()


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
    rc = main(["simulate-switching", scen, "--out", out_csv])
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
    rc = main(["simulate-switching", scen, "--out", out_csv])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    rc = main(["simulate-switching", scen, "--out", out_csv,
               "--allow-a4-violation"])
    assert rc == 0
    capsys.readouterr()


def test_cli_simulate_runs_switching_scenarios_behind_the_a4_gate(tmp_path,
                                                                  capsys):
    scen = _write(tmp_path, switching_doc())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", scen, "--out", str(a)]) == 0
    assert main(["simulate-switching", scen, "--out", str(b)]) == 0
    capsys.readouterr()
    assert _read_csv(str(a))[0] == ["t", "y1", "y2", "y3", "mode"]
    assert a.read_bytes() == b.read_bytes()
    doc = switching_doc()
    doc["switching"]["graphs"] = [{"n": 3, "edges": [[1, 2, 1.0]]},
                                  {"n": 3, "edges": [[2, 3, 1.0]]}]
    rc = main(["simulate", _write(tmp_path, doc, "bad.json"),
               "--out", str(tmp_path / "bad.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


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


def test_cli_analyze(tmp_path, capsys):
    doc = base_doc()
    doc["sim"] = {"t_end": 12.0, "dt": 0.005, "seed": 1, "init": "random"}
    scen = _write(tmp_path, doc)
    rc = main(["analyze", scen, "--window", "5:11"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["window"] == [5.0, 11.0]
    assert out["empirical_rate"] > 0.5
    assert 0.0 <= out["r_squared"] <= 1.0
    assert out["final_disagreement"] < 0.1
    assert out["theoretical_rate"] == pytest.approx(1.0)
    assert out["spectrum"]["analytic_consistent"] is True


def test_cli_analyze_bad_window(tmp_path, capsys):
    scen = _write(tmp_path, base_doc())
    rc = main(["analyze", scen, "--window", "nonsense"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert err["field"] == "--window"


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


def test_cli_validation_error_payload(tmp_path, capsys):
    doc = base_doc()
    doc["sim"]["dt"] = -1.0
    scen = _write(tmp_path, doc)
    rc = main(["synthesize", scen])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert err["field"] == "sim.dt"


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


def test_cli_simulate_requires_out_path(tmp_path, capsys):
    doc = base_doc()
    scen = _write(tmp_path, doc)
    rc = main(["simulate", scen])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "output.csv"


def test_readme_scenario_examples_parse():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    kinds = set()
    for block in blocks:
        scen = parse_scenario(json.loads(block))
        kinds.add(type(scen.topology).__name__)
    assert kinds == {"DiGraph", "MarkovTopology"}
