import ast
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from consensuskit import cli, errors
from consensuskit.cli import main

SRC = Path(errors.__file__).resolve().parent
SCENARIO = str(Path(__file__).resolve().parent.parent / "scenarios"
               / "five_agents_fixed.json")

CLASSES = {"ConsensusKitError", "ScenarioParseError", "ValidationError",
           "SynthesisError", "ConvergenceFailure", "FiniteEscape",
           "BetaNearZero"}


def test_errors_defines_one_class_per_caller_outcome():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined == CLASSES
    for name in CLASSES:
        assert issubclass(getattr(errors, name), errors.ConsensusKitError)
    # a refused input is a ValueError to callers that catch only those
    assert issubclass(errors.ValidationError, ValueError)


def test_every_raise_names_a_toolkit_error_or_re_raises():
    # `raise` alone, or `raise Name(...)` with Name a class of
    # consensuskit.errors: no bare ValueError or TypeError
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = (exc.func if isinstance(exc, ast.Call) else exc)
            if not (isinstance(name, ast.Name) and name.id in CLASSES):
                stray.append(f"{path.name}:{node.lineno}: "
                             f"{ast.unparse(exc)[:60]}")
    assert stray == []


@pytest.mark.parametrize("error, code, payload", [
    (errors.ScenarioParseError("bad", line=2, column=7), 1,
     {"line": 2, "column": 7}),
    (errors.ValidationError("bad", field="graph.edges[0]"), 1,
     {"field": "graph.edges[0]"}),
    (errors.SynthesisError("bad"), 1, {}),
    (errors.ConvergenceFailure("bad"), 2, {}),
    (errors.FiniteEscape("bad", trajectory=object(), t=0.25), 2,
     {"t": 0.25}),
    (errors.BetaNearZero("bad", agent_id=3, state=np.zeros(2)), 2,
     {"agent_id": 3}),
    (errors.ConsensusKitError("bad"), 2, {}),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_error_class_has_its_exit_code_and_payload(
        monkeypatch, capsys, error, code, payload):
    def refuse(path):
        raise error

    monkeypatch.setattr(cli, "load_scenario", refuse)
    assert main(["synthesize", SCENARIO]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": type(error).__name__,
                               "message": "bad", **payload}


def test_a_rate_that_fails_to_compute_is_not_printed_as_null(monkeypatch,
                                                             capsys):
    # "no rate for this design" is a ValidationError (no spanning tree, one
    # node, A4 failing) and prints null; a numerical failure is exit 2
    def fail(*args):
        raise errors.ConvergenceFailure("eigenvalue iteration failed: x")

    monkeypatch.setattr(cli, "theoretical_speed_fixed", fail)
    assert main(["synthesize", SCENARIO]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ConvergenceFailure",
                               "message": "eigenvalue iteration failed: x"}
