"""Scenario documents: JSON schema, validation, and eager synthesis.

A scenario file describes a complete closed-loop experiment:

    {
      "agents": [{"builtin": "agent1"},
                 {"builtin": "agent3", "x0": [0.1, 0.0, -0.2]},
                 {"custom": {"r": 2, "n_eta": 1,
                             "alpha": [], "beta": [{"c": 1.0, "e": [0, 0, 0]}],
                             "theta": [[{"c": -1.0, "e": [0, 0, 1]},
                                        {"c": 1.0, "e": [1, 0, 0]}]],
                             "xi0": [0, 0], "eta0": [0]}}],
      "controller": {"poles": [-1, -2], "mu": 1.0, "q1": 1.0,
                     "r_hat": 1.0, "rank": "one"},
      "graph": {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0]]},
      "sim": {"t_end": 30.0, "dt": 0.001, "seed": 42, "init": "random"}
    }

Exactly one of "graph" and "switching" must be present; "observer" and
"output" are optional.  Poles may be numbers or [re, im] pairs.  Custom
agent dynamics are polynomials given as term lists {"c": coefficient,
"e": exponents}, with one exponent per variable in the order
(xi_1..xi_r, eta_1..eta_k); a custom agent's r and n_eta are at most
_MAX_ORDER (1,000).  Graph nodes are 1-based in documents.

Loading validates the document (ValidationError carries a dotted field
path), then synthesizes the target system, gains and observer eagerly, so
that design failures surface at load time with the original cause
chained: a value the synthesis refuses is a ValidationError at its section
(controller.poles, also for poles whose target overflows; controller.mu,
say; observer.poles), and a design that fails on valid values a
SynthesisError; SimScenario checks the agents' degrees and the run
settings last.

Each polynomial term, graph edge and number list gets one check: a
single test of exact types and ranges accepts a well-formed one, and its
field path (say agents[2].custom.theta[0][1].e) is built only when that
test fails.
Then the per-field checks run and name the error.  They stay the only
judge: the single test accepts nothing they reject, and what it rejects
they may still accept (an int subclass, say).  A graph document, the
"graph" section or one of "switching.graphs", is read by _graph alone:
its keys, its node count (compared with the number of agents before its
n x n weights are allocated), every edge, and the sums of parallel edges.
"""

import contextlib
import json
import math
import sys

import numpy as np

from .agents import NormalFormAgent, TermTable, builtin
from .errors import (
    ConsensusKitError,
    ConvergenceFailure,
    ScenarioParseError,
    SynthesisError,
    ValidationError,
)
from .graph import DiGraph
from .sim import SimScenario
from .switching import MarkovTopology
from .synthesis import (
    design_companion,
    full_gain,
    observer_gain,
    rank_one_gain,
)

__all__ = ["load_scenario", "parse_scenario"]


_MAX = sys.float_info.max
_MAX_NODES = math.isqrt(sys.maxsize // 8)  # n x n float64 fits the index range
_MAX_ORDER = 1000  # largest r and n_eta of a custom agent
_INT = {int}
_NUMBER = {int, float}


def _expect(obj, typ, where, what):
    if not isinstance(obj, typ) or isinstance(obj, bool):
        raise ValidationError(f"expected {what}", field=where)
    return obj


def _num(obj, where):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError("expected a number", field=where)
    # exact comparisons: a NaN or an integer past the float range fails
    if not -_MAX <= obj <= _MAX:
        raise ValidationError("expected a finite number", field=where)
    return float(obj)


def _int(obj, where):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError("expected an integer", field=where)
    return int(obj)


def _check_keys(doc, required, optional, where):
    _expect(doc, dict, where, "an object")
    for key in required:
        if key not in doc:
            raise ValidationError(f"missing required key {key!r}", field=where)
    allowed = set(required) | set(optional)
    for key in doc:
        if key not in allowed:
            raise ValidationError(f"unknown key {key!r}", field=where)


def _pole(entry, where):
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_num(entry[0], where), _num(entry[1], where))
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(_num(entry, where), 0.0)
    raise ValidationError("pole must be a number or an [re, im] pair",
                          field=where)


def _vector(entry, length, where):
    """The list `entry` of `length` finite numbers as a float vector.

    One pass accepts a well-formed list: a list (exact type) of ints and
    floats (exact types) inside the float range, each entry one that _num
    takes.  Only when it fails are the entries' field names built and the
    per-entry checks run, which name the error.
    """
    if type(entry) is list and len(entry) == length:
        for v in entry:
            if type(v) not in _NUMBER or not -_MAX <= v <= _MAX:
                break
        else:
            return np.array(entry, dtype=float)
    _expect(entry, list, where, "a list of numbers")
    if len(entry) != length:
        raise ValidationError(f"expected {length} entries, got {len(entry)}",
                              field=where)
    return np.array([_num(v, f"{where}[{k}]") for k, v in enumerate(entry)])


def _terms(entry, nvars, where):
    """Validate a polynomial term list; returns its (c, exponents) pairs."""
    _expect(entry, list, where, "a list of terms")
    terms = []
    for k, term in enumerate(entry):
        if _term_ok(term, nvars):
            terms.append((float(term["c"]), term["e"]))
        else:
            terms.append(_term(term, nvars, f"{where}[{k}]"))
    return terms


def _term_ok(term, nvars):
    """The one check of a term: true only for a term that _term accepts
    as it stands (exact types, so a subclass takes the long way)."""
    if type(term) is not dict or len(term) != 2:
        return False
    c, e = term.get("c"), term.get("e")
    return (type(c) in (float, int) and -_MAX <= c <= _MAX
            and type(e) is list and len(e) == nvars
            and set(map(type, e)) == _INT and 0 <= min(e)
            and max(e) <= _MAX)


def _term(term, nvars, tw):
    """The per-field checks of a term, whose errors name the field."""
    _check_keys(term, ("c", "e"), (), tw)
    c = _num(term["c"], f"{tw}.c")
    e = _expect(term["e"], list, f"{tw}.e", "a list of exponents")
    if len(e) != nvars:
        raise ValidationError(
            f"expected {nvars} exponents (one per variable), got {len(e)}",
            field=f"{tw}.e")
    for j, ex in enumerate(e):
        if _int(ex, f"{tw}.e[{j}]") < 0:
            raise ValidationError("exponents must be non-negative",
                                  field=f"{tw}.e[{j}]")
        # a power is a product of squares (TermTable._source): inside
        # the float range an exponent has at most 1,024 bits, so the
        # generated source has at most one square line per bit
        _num(ex, f"{tw}.e[{j}]")
    return c, [int(ex) for ex in e]


def _parse_agent(doc, index):
    where = f"agents[{index}]"
    _expect(doc, dict, where, "an object")
    if "builtin" in doc:
        _check_keys(doc, ("builtin",), ("x0", "xi0", "eta0"), where)
        name = _expect(doc["builtin"], str, f"{where}.builtin", "a string")
        try:
            agent = builtin(name)
        except ValidationError as exc:  # no such builtin
            raise ValidationError(str(exc), field=f"{where}.builtin") from exc
        kwargs = {}
        if "x0" in doc:
            if agent.native is None:
                raise ValidationError(
                    f"{name} is stated in (xi, eta) coordinates; give xi0/eta0",
                    field=f"{where}.x0")
            kwargs["x0"] = _vector(doc["x0"], agent.native.dim, f"{where}.x0")
        if "xi0" in doc:
            if agent.native is not None:
                raise ValidationError(
                    f"{name} is stated in native coordinates; give x0",
                    field=f"{where}.xi0")
            kwargs["xi0"] = _vector(doc["xi0"], agent.r, f"{where}.xi0")
        if "eta0" in doc:
            if agent.native is not None:
                raise ValidationError(
                    f"{name} has no internal state", field=f"{where}.eta0")
            kwargs["eta0"] = _vector(doc["eta0"], agent.n_eta, f"{where}.eta0")
        return agent.with_initial(**kwargs) if kwargs else agent
    if "custom" in doc:
        _check_keys(doc, ("custom",), (), where)
        cw = f"{where}.custom"
        cd = doc["custom"]
        _check_keys(cd, ("r", "n_eta", "alpha", "beta", "theta", "xi0", "eta0"),
                    (), cw)
        r = _int(cd["r"], f"{cw}.r")
        n_eta = _int(cd["n_eta"], f"{cw}.n_eta")
        # bounded before any term list is read, whose exponent count is
        # r + n_eta
        if not 1 <= r <= _MAX_ORDER:
            raise ValidationError(f"r must be between 1 and {_MAX_ORDER}",
                                  field=f"{cw}.r")
        if not 0 <= n_eta <= _MAX_ORDER:
            raise ValidationError(
                f"n_eta must be between 0 and {_MAX_ORDER}",
                field=f"{cw}.n_eta")
        nvars = r + n_eta
        alpha = TermTable([_terms(cd["alpha"], nvars, f"{cw}.alpha")])
        beta_terms = _terms(cd["beta"], nvars, f"{cw}.beta")
        if not beta_terms:
            raise ValidationError("beta needs at least one term",
                                  field=f"{cw}.beta")
        beta = TermTable([beta_terms])
        theta_doc = _expect(cd["theta"], list, f"{cw}.theta",
                            "a list of term lists")
        if len(theta_doc) != n_eta:
            raise ValidationError(
                f"theta needs one row per internal state ({n_eta}), "
                f"got {len(theta_doc)}", field=f"{cw}.theta")
        theta = TermTable([_terms(row, nvars, f"{cw}.theta[{k}]")
                           for k, row in enumerate(theta_doc)])
        xi0 = _vector(cd["xi0"], r, f"{cw}.xi0")
        eta0 = _vector(cd["eta0"], n_eta, f"{cw}.eta0")
        return NormalFormAgent(agent_id=index + 1, r=r, n_eta=n_eta,
                               alpha=alpha, beta=beta, theta=theta,
                               xi0=xi0, eta0=eta0)
    raise ValidationError("agent needs either 'builtin' or 'custom'",
                          field=where)


def _parse_controller(doc, where="controller"):
    _check_keys(doc, ("poles", "mu", "r_hat", "rank"), ("q1", "Q1"), where)
    poles_doc = _expect(doc["poles"], list, f"{where}.poles", "a list of poles")
    poles = [_pole(p, f"{where}.poles[{k}]") for k, p in enumerate(poles_doc)]
    mu = _num(doc["mu"], f"{where}.mu")
    r_hat = _num(doc["r_hat"], f"{where}.r_hat")
    rank = doc["rank"]
    if rank not in ("one", "full"):
        raise ValidationError("rank must be 'one' or 'full'",
                              field=f"{where}.rank")
    r = len(poles) + 1
    if rank == "one":
        if "q1" not in doc:
            raise ValidationError("rank-one synthesis needs q1",
                                  field=f"{where}.q1")
        if "Q1" in doc:
            raise ValidationError("Q1 applies to full-rank synthesis only",
                                  field=f"{where}.Q1")
        q1 = _num(doc["q1"], f"{where}.q1")
        return poles, mu, r_hat, rank, q1, None
    if "q1" in doc:
        raise ValidationError("q1 applies to rank-one synthesis only",
                              field=f"{where}.q1")
    if "Q1" in doc:
        q1m_doc = _expect(doc["Q1"], list, f"{where}.Q1", "a matrix")
        if len(q1m_doc) != r:
            raise ValidationError(f"Q1 must be {r} x {r}", field=f"{where}.Q1")
        q1m = np.vstack([_vector(row, r, f"{where}.Q1[{k}]")
                         for k, row in enumerate(q1m_doc)])
        if not np.array_equal(q1m, q1m.T):
            raise ValidationError("Q1 must be symmetric", field=f"{where}.Q1")
    else:
        q1m = np.eye(r)
    return poles, mu, r_hat, rank, None, q1m


def _graph(doc, n_agents, where, what):
    """The graph document {"n": n, "edges": [[from, to, weight], ...]} at
    `where`, 1-based nodes, as a DiGraph; every check of it is here.

    The node count is compared with the number of agents before the n x n
    weights are allocated.  One test of exact types and ranges accepts a
    well-formed edge; only when it fails do the per-field checks run,
    which name the edge (an int or float subclass passes them).  Parallel
    edges add up, and a sum past the float range is refused.
    """
    _check_keys(doc, ("n", "edges"), (), where)
    n = _int(doc["n"], f"{where}.n")
    if not 1 <= n <= _MAX_NODES:
        raise ValidationError(f"n must be between 1 and {_MAX_NODES}",
                              field=f"{where}.n")
    if n != n_agents:
        raise ValidationError(
            f"{what} has {n} nodes but the scenario has {n_agents} agents",
            field=where)
    try:
        w = np.zeros((n, n))
    except MemoryError as exc:
        raise ValidationError(f"n is too large: {exc}",
                              field=f"{where}.n") from exc
    edges = _expect(doc["edges"], list, f"{where}.edges", "a list of edges")
    for k, edge in enumerate(edges):
        # the one check; anything but a list of three fails it
        frm, to, wt = (edge if type(edge) is list and len(edge) == 3
                       else (None, None, None))
        if not (type(frm) is int and type(to) is int and frm != to
                and 1 <= frm <= n and 1 <= to <= n
                and type(wt) in _NUMBER and 0 <= wt <= _MAX):
            loc = f"{where}.edges[{k}]"
            if not (isinstance(edge, list) and len(edge) == 3):
                raise ValidationError("edge must be [from, to, weight]",
                                      field=loc)
            frm, to, wt = edge
            for end, node in (("from", frm), ("to", to)):
                if (isinstance(node, bool) or not isinstance(node, int)
                        or not 1 <= node <= n):
                    raise ValidationError(
                        f"{end} node {node!r} outside 1..{n}", field=loc)
            if frm == to:
                raise ValidationError("self-loops are not allowed", field=loc)
            # exact comparisons: a huge integer or a NaN fails them too
            if (isinstance(wt, bool) or not isinstance(wt, (int, float))
                    or not 0 <= wt <= _MAX):
                raise ValidationError(
                    f"weight {wt!r} must be finite and >= 0", field=loc)
        # Python floats: a sum of parallel edges overflows to inf silently
        total = float(w[to - 1, frm - 1]) + float(wt)
        if total > _MAX:
            raise ValidationError(
                f"parallel edges {frm} -> {to} sum to more than the largest "
                "float", field=f"{where}.edges")
        w[to - 1, frm - 1] = total
    return DiGraph(w)


def _parse_switching(doc, n_agents, where="switching"):
    _check_keys(doc, ("graphs", "generator"), (), where)
    graphs_doc = _expect(doc["graphs"], list, f"{where}.graphs",
                         "a list of graphs")
    if not graphs_doc:
        raise ValidationError("need at least one mode graph",
                              field=f"{where}.graphs")
    graphs = [_graph(g, n_agents, f"{where}.graphs[{k}]", "mode graph")
              for k, g in enumerate(graphs_doc)]
    gen_doc = _expect(doc["generator"], list, f"{where}.generator", "a matrix")
    m = len(graphs)
    if len(gen_doc) != m:
        raise ValidationError(
            f"generator must be {m} x {m} (one row per mode)",
            field=f"{where}.generator")
    gen = np.vstack([_vector(row, m, f"{where}.generator[{k}]")
                     for k, row in enumerate(gen_doc)])
    try:
        return MarkovTopology(graphs, gen)
    except ConsensusKitError as exc:
        raise ValidationError(f"invalid switching chain: {exc}",
                              field=f"{where}.generator") from exc


def _target(poles):
    """The companion target of the poles; poles it refuses, or so large
    that the target overflows (synthesis.design_companion), are a
    ValidationError at controller.poles."""
    try:
        return design_companion(poles)
    except (ValidationError, SynthesisError) as exc:
        raise ValidationError(str(exc), field="controller.poles") from exc


@contextlib.contextmanager
def _design_step(where):
    """One synthesis step: an input it refuses is a ValidationError at
    `where` (at where.<argument> when the error names one), a numerical
    failure a SynthesisError, each with the cause chained."""
    try:
        yield
    except ValidationError as exc:
        field = f"{where}.{exc.field}" if exc.field else where
        raise ValidationError(str(exc), field=field) from exc
    except (SynthesisError, ConvergenceFailure) as exc:
        raise SynthesisError(f"synthesis failed: {exc}") from exc


def _check_closed_loop(cs, gain, topology):
    """Refuse a design whose closed loop I (x) A - L (x) B K overflows.

    With S the largest in-weight of a node (summed over the modes), 2 S
    bounds |gamma| for gamma in eig(L) (Gershgorin), and max|A| +
    2 S max|B K| every entry of the closed loop and of its spectrum blocks
    A - gamma B K.  The error names the larger factor.
    """
    gain_max = np.abs(cs.B).max() * np.abs(gain.K).max()
    with np.errstate(over="ignore"):
        gamma_max = 2.0 * sum(g.weights.sum(1) for g in topology.graphs).max()
        bound = np.abs(cs.A).max() + gamma_max * gain_max
    if np.isfinite(bound):
        return
    field = ("controller.mu" if gain_max > gamma_max
             else "switching.graphs" if isinstance(topology, MarkovTopology)
             else "graph.edges")
    raise ValidationError(
        f"the closed loop I (x) A - L (x) B K overflows: the edge weights "
        f"bound |gamma| by {gamma_max:g} and the gain gives max|B K| = "
        f"{gain_max:g}", field=field)


def parse_scenario(doc):
    """Build a validated, fully synthesized scenario from a parsed document."""
    _check_keys(doc, ("agents", "controller", "sim"),
                ("graph", "switching", "observer", "output"), "")
    if ("graph" in doc) == ("switching" in doc):
        raise ValidationError(
            "exactly one of 'graph' and 'switching' is required", field="")

    agents_doc = _expect(doc["agents"], list, "agents", "a list of agents")
    if not agents_doc:
        raise ValidationError("need at least one agent", field="agents")
    agents = [_parse_agent(a, k) for k, a in enumerate(agents_doc)]

    poles, mu, r_hat, rank, q1, q1m = _parse_controller(doc["controller"])

    sim_doc = doc["sim"]
    _check_keys(sim_doc, ("t_end", "dt"), ("seed", "init"), "sim")
    t_end = _num(sim_doc["t_end"], "sim.t_end")
    dt = _num(sim_doc["dt"], "sim.dt")
    seed = _int(sim_doc.get("seed", 0), "sim.seed")

    output = None
    if "output" in doc:
        out_doc = doc["output"]
        _check_keys(out_doc, (), ("csv", "svg"), "output")
        output = {}
        if "csv" in out_doc:
            output["csv"] = _expect(out_doc["csv"], str, "output.csv",
                                    "a path string")
        if "svg" in out_doc:
            output["svg"] = _expect(out_doc["svg"], str, "output.svg",
                                    "a path string")

    r = len(poles) + 1
    observer_doc = None
    if "observer" in doc:
        observer_doc = doc["observer"]
        _check_keys(observer_doc, ("C", "poles"), ("init",), "observer")
        obs_c = _vector(observer_doc["C"], r, "observer.C")
        obs_poles_doc = _expect(observer_doc["poles"], list, "observer.poles",
                                "a list of poles")
        if len(obs_poles_doc) != r:
            raise ValidationError(f"need exactly {r} observer poles",
                                  field="observer.poles")
        obs_poles = [_pole(p, f"observer.poles[{k}]")
                     for k, p in enumerate(obs_poles_doc)]

    if "graph" in doc:
        topology = _graph(doc["graph"], len(agents), "graph", "graph")
    else:
        topology = _parse_switching(doc["switching"], len(agents))

    # eager synthesis: any design failure surfaces now, with the cause chained
    cs = _target(poles)
    with _design_step("controller"):
        if rank == "one":
            gain = rank_one_gain(cs, mu, q1, r_hat)
        else:
            gain = full_gain(cs, mu, q1m, r_hat)
    observer = None
    if observer_doc is not None:
        with _design_step("observer.poles"):
            observer = observer_gain(cs, obs_c, obs_poles)
    _check_closed_loop(cs, gain, topology)

    return SimScenario(agents=agents, cs=cs, gain=gain, topology=topology,
                       observer=observer, t_end=t_end, dt=dt, seed=seed,
                       init=sim_doc.get("init", "explicit"),
                       observer_init=(observer_doc or {}).get("init", "zero"),
                       output=output)


def load_scenario(path):
    """Parse and synthesize a scenario from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(
            f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc.msg}",
                                 line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("top-level value must be an object")
    return parse_scenario(doc)
