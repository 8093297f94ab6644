"""The four workloads: their inputs, the CLI invocations a pass makes, and
the checks on every output.

A pass is a list of jobs; each job is one ``consensuskit.cli.main`` call
made in this process, looked up through the module attribute so that a
traced run sees the wrapped entry point.  Checks run after the timed loop.
"""

import contextlib
import csv
import io
import json
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

import designs
import hostspeed

CONSENSUS_THRESHOLD = 1e-3        # legs 4a and 6b
OBSERVER_RATE_BAND = (2.4, 3.6)   # leg 6a, fitted over t in [1, 6]
MS_DECAY_MIN = 1e4                # leg 7b
MC_RUNS = 24
SWEEP_PER_CELL = 2                # 96 cells -> 192 designs
# Reference values recorded at the default seed may move only by
# re-associated float sums, far below this.
REF_RTOL, REF_ATOL = 1e-7, 1e-12

OBSERVER = {"C": [1.0, 0.0, 0.0], "poles": [-3.0, -4.0, -5.0], "init": "zero"}


@dataclass
class Call:
    code: object        # exit code, or None for an uncaught exception
    stdout: str
    stderr: str
    exc: object
    ms: float


@dataclass
class Outcome:
    units: int = 0          # agent-steps or designs completed
    attempted: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)  # failed output checks
    defect: bool = False    # failure is the known rank-one r >= 4 defect
    klass: tuple = None
    values: dict = field(default_factory=dict)    # for the reference check
    csv_bytes: int = 0
    svg_bytes: int = 0


@dataclass
class PassResult:
    wall_s: float       # as measured, including host-speed samples
    cpu_s: float
    calls: list
    outcomes: list
    host_s: float = 0.0      # time the host-speed kernel took in the pass
    slowness: float = None   # host slowness, if sampled

    @property
    def units(self):
        return sum(o.units for o in self.outcomes)

    @property
    def ref_wall_s(self):
        """Wall time without the samples, at the reference host speed."""
        return (self.wall_s - self.host_s) / self.slowness

    @property
    def ref_cpu_s(self):
        return (self.cpu_s - self.host_s) / self.slowness

    def values(self):
        """Checked output values by key, one entry per job that has them."""
        out = {}
        for o in self.outcomes:
            for key, v in o.values.items():
                out.setdefault(key, []).append(v)
        return out


def invoke(cli, argv, host=None):
    """One CLI call; its ms exclude host-speed samples taken during it."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    spent0 = host.spent_s if host else 0.0
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:  # an uncaught exception is the CLI's traceback exit
        exc = e
    elapsed = perf_counter() - t0
    if host:
        elapsed -= host.spent_s - spent0
    return Call(code, out.getvalue(), err.getvalue(), exc, elapsed * 1e3)


def run_pass(cli, jobs, tracer=None, pass_id=None, sample_host=False):
    """Make every call of one pass, then check the outputs.

    With `sample_host`, the host's speed is sampled during the pass (see
    hostspeed.py); in a traced pass the samples fall inside open spans.
    """
    host = hostspeed.HostSpeed() if sample_host else None
    if tracer is not None:
        tracer.pass_id = pass_id
    with host or contextlib.nullcontext():
        spent0 = host.spent_s if host else 0.0
        wall0, cpu0 = perf_counter(), process_time()
        calls = [invoke(cli, job.argv, host) for job in jobs]
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        host_s = host.spent_s - spent0 if host else 0.0
    if tracer is not None:
        tracer.pass_id = None
    outcomes = [_check(job, c) for job, c in zip(jobs, calls)]
    for c in calls:  # checked; keep memory flat across passes
        c.stdout = c.stderr = c.exc = None
    return PassResult(wall, cpu, calls, outcomes, host_s,
                      host.slowness if host else None)


def _check(job, call):
    try:
        return job.check(call)
    except (OSError, ValueError, LookupError, StopIteration) as exc:
        return Outcome(attempted=job.attempted, failed=job.attempted,
                       problems=[f"unreadable output: {exc!r}"])


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _failure(call):
    if call.exc is not None:
        return f"uncaught {type(call.exc).__name__}: {call.exc}"
    if call.code != 0:
        return f"exit code {call.code}: {call.stderr.strip()[:200]}"
    return None


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _rate(times, values):
    """Least-squares exponential decay rate of a positive series."""
    slope = np.polyfit(times, np.log(values), 1)[0]
    return -float(slope)


class SimulateJob:
    """One ``simulate`` call with its structural and convergence checks."""

    attempted = 1

    def __init__(self, scen_path, scen, tmp, tag, seed, full_state=False,
                 svg=False, converge=True, ref_rows=()):
        self.csv = os.path.join(tmp, f"{tag}.csv")
        self.svg = os.path.join(tmp, f"{tag}.svg") if svg else None
        self.argv = ["simulate", scen_path, "--out", self.csv,
                     "--seed", str(seed)]
        if svg:
            self.argv += ["--svg", self.svg]
        if full_state:
            self.argv.append("--full-state")
        self.n = len(scen.agents)
        self.steps = int(round(scen.t_end / scen.dt))
        self.observer = scen.observer is not None
        self.ncols = 1 + self.n * (2 if self.observer else 1)
        if full_state:
            self.ncols += sum(scen.cs.r + ag.n_eta + 1 for ag in scen.agents)
        self.converge = converge
        self.ref_rows = ref_rows

    def check(self, call):
        out = Outcome()
        bad = _failure(call)
        if bad is None:
            self._check_outputs(call, out)
        else:
            out.problems.append(bad)
        if out.problems:
            out.failed = 1
        else:
            out.units = self.n * self.steps
        return out

    def _check_outputs(self, call, out):
        summary = json.loads(call.stdout)
        out.csv_bytes = os.path.getsize(self.csv)
        keep = set(self.ref_rows)
        kept, times, errs = {}, [], []
        with open(self.csv, newline="") as fh:  # streamed: keeps RSS flat
            reader = csv.reader(fh)
            widths = {len(next(reader))}
            n_rows, last = 0, None
            for k, row in enumerate(reader):
                n_rows, last = k + 1, row
                widths.add(len(row))
                if k in keep:
                    kept[k] = row
                if self.observer and 1.0 <= float(row[0]) <= 6.0:
                    times.append(float(row[0]))
                    errs.append(np.hypot.reduce(
                        [float(v) for v in row[1 + self.n:1 + 2 * self.n]]))
        if summary["samples"] != self.steps + 1 or n_rows != self.steps + 1:
            out.problems.append(f"{n_rows} CSV rows, summary says "
                                f"{summary['samples']}, want {self.steps + 1}")
            return
        if widths != {self.ncols}:
            out.problems.append(f"CSV widths {sorted(widths)}, want {self.ncols}")
            return
        if self.svg is not None:
            out.svg_bytes = os.path.getsize(self.svg)
            with open(self.svg, encoding="utf-8") as fh:
                if not fh.read(4) == "<svg":
                    out.problems.append("SVG does not start with <svg")
        y_last = np.array([float(v) for v in last[1:1 + self.n]])
        final = float(y_last.max() - y_last.min())
        if abs(final - summary["final_disagreement"]) > 1e-12:
            out.problems.append(f"CSV final disagreement {final:.6e} differs "
                                f"from the summary")
        if self.converge and not final < CONSENSUS_THRESHOLD:
            out.problems.append(f"final disagreement {final:.3e} not below "
                                f"{CONSENSUS_THRESHOLD:g}")
        if self.converge and self.observer:
            rate = _rate(np.array(times), np.array(errs))
            lo, hi = OBSERVER_RATE_BAND
            if not lo <= rate <= hi:
                out.problems.append(f"observer error rate {rate:.4f} outside "
                                    f"[{lo}, {hi}]")
        out.values = {"y": [[float(v) for v in kept[k][1:1 + self.n]]
                            for k in self.ref_rows]}


class MonteCarloJob:
    """One ``montecarlo`` call; every run is an operation."""

    def __init__(self, scen_path, scen, tmp, tag, seed, runs, converge=True,
                 ref_rows=()):
        self.csv = os.path.join(tmp, f"{tag}.csv")
        self.svg = os.path.join(tmp, f"{tag}.svg")
        self.argv = ["montecarlo", scen_path, "--runs", str(runs), "--out",
                     self.csv, "--svg", self.svg, "--seed", str(seed)]
        self.attempted = runs
        self.n = len(scen.agents)
        self.steps = int(round(scen.t_end / scen.dt))
        self.converge = converge
        self.ref_rows = ref_rows

    def check(self, call):
        out = Outcome(attempted=self.attempted)
        bad = _failure(call)
        if bad is not None:
            out.problems.append(bad)
            out.failed = self.attempted
            return out
        summary = json.loads(call.stdout)
        used, diverged = summary["runs_used"], summary["runs_diverged"]
        out.failed = diverged
        if used + diverged != self.attempted or diverged != 0:
            out.problems.append(f"{used} runs used, {diverged} diverged, "
                                f"of {self.attempted}")
        header, rows = _read_csv(self.csv)
        out.csv_bytes = os.path.getsize(self.csv)
        out.svg_bytes = os.path.getsize(self.svg)
        if header != ["t", "mean_square"] or len(rows) != self.steps + 1:
            out.problems.append(f"CSV {header} with {len(rows)} rows, want "
                                f"{self.steps + 1}")
        else:
            ms = np.array([float(r[1]) for r in rows])
            if self.converge and not ms[0] / ms[-1] >= MS_DECAY_MIN:
                out.problems.append(f"mean-square decay factor "
                                    f"{ms[0] / ms[-1]:.3e} below {MS_DECAY_MIN:g}")
            out.values = {"mean_square": [float(ms[k]) for k in self.ref_rows]}
        if out.problems:
            out.failed = self.attempted
        else:
            out.units = self.n * self.steps * used
        return out


def _is_rank_one_defect(call, klass):
    """The seed defect: ``theoretical_speed_fixed`` compares the target
    coefficients with ``np.allclose(cs.b, [2, 3])``, which raises a raw
    ValueError (shape mismatch) for every rank-one fixed-graph target of
    order r >= 4, so ``synthesize`` exits with a traceback."""
    if not isinstance(call.exc, ValueError):
        return False
    frames = traceback.extract_tb(call.exc.__traceback__)
    return (any(f.name == "theoretical_speed_fixed" for f in frames)
            and klass[:2] == ("one", "fixed") and klass[2] >= 4)


class SynthesizeJob:
    """One ``synthesize`` call on a generated design document."""

    attempted = 1

    def __init__(self, path, doc):
        self.argv = ["synthesize", path]
        self.doc = doc
        self.klass = designs.design_class(doc)

    def check(self, call):
        out = Outcome(klass=self.klass)
        bad = _failure(call)
        if bad is not None:
            out.failed = 1
            out.defect = _is_rank_one_defect(call, self.klass)
            if not out.defect:
                out.problems.append(bad)
            out.values = {"K": None}
            return out
        res = json.loads(call.stdout)
        rank, topo, r = self.klass
        n = len(self.doc["agents"])
        ctl = self.doc["controller"]
        k = np.array(res["K"])
        if (res["r"], res["rank"], k.shape, len(res["spectrum"]["values"])) != (
                r, rank, (r,), n * r):
            out.problems.append(f"shape mismatch for class {self.klass}")
        elif rank == "one":
            nu = np.array(res["nu"])
            want = ctl["mu"] * np.sqrt(ctl["q1"] * ctl["r_hat"]) * nu
            if (not np.array_equal(nu, np.append(res["b"], 1.0))
                    or not np.allclose(k, want, rtol=1e-12, atol=0.0)):
                out.problems.append("rank-one K is not mu sqrt(q1 r_hat) nu")
        if topo == "switching" and not res["assumption"]["passes"]:
            out.problems.append("generated switching union fails A4")
        if out.problems:
            out.failed = 1
        else:
            out.units = 1
        out.values = {"K": res["K"]}
        return out


def load(path):
    # imported here: run.py puts the checkout's src/ on sys.path first
    from consensuskit.scenario import load_scenario
    return load_scenario(path)


@dataclass
class Workload:
    jobs: list             # the CLI calls of one pass
    setup_scenario: str    # what a fresh-process set-up loads


def fixed_fullstate(root, tmp, seed):
    path = os.path.join(root, "scenarios", "five_agents_fixed.json")
    job = SimulateJob(path, load(path), tmp, "fixed", seed, full_state=True,
                      svg=True, ref_rows=(1000, 10000, 30000))
    return Workload([job], path)


def observer_fixed(root, tmp, seed):
    doc = designs.variant(os.path.join(root, "scenarios",
                                       "five_agents_fixed.json"),
                          dt=0.002, observer=OBSERVER)
    path = _write_json(os.path.join(tmp, "observer.json"), doc)
    job = SimulateJob(path, load(path), tmp, "observer", seed,
                      ref_rows=(500, 5000, 15000))
    return Workload([job], path)


def switching_mc(root, tmp, seed):
    path = os.path.join(root, "scenarios", "five_agents_switching.json")
    job = MonteCarloJob(path, load(path), tmp, "mc", seed, MC_RUNS,
                        ref_rows=(0, 50, 500, 1500))
    return Workload([job], path)


def design_sweep(root, tmp, seed):
    docs = designs.sweep(seed, SWEEP_PER_CELL)
    jobs = [SynthesizeJob(_write_json(os.path.join(tmp, f"design{k}.json"), d),
                          d) for k, d in enumerate(docs)]
    return Workload(jobs, jobs[0].argv[1])


WORKLOADS = {f.__name__: f for f in (fixed_fullstate, observer_fixed,
                                     switching_mc, design_sweep)}


def probe(root, tmp, seed):
    """Short runs of every workload's shape, touching every layer.

    Serves as the warm-up pass of every run and, in a traced run, as the
    pass that measures the layers the workload itself does not reach.
    """
    scen_dir = os.path.join(root, "scenarios")
    fixed = os.path.join(scen_dir, "five_agents_fixed.json")
    short = {
        "probe_fixed": designs.variant(fixed, t_end=0.5),
        "probe_observer": designs.variant(fixed, t_end=1.0, dt=0.002,
                                          observer=OBSERVER),
        "probe_mc": designs.variant(
            os.path.join(scen_dir, "five_agents_switching.json"), t_end=3.0),
    }
    paths = {tag: _write_json(os.path.join(tmp, f"{tag}.json"), doc)
             for tag, doc in short.items()}
    jobs = [
        SimulateJob(paths["probe_fixed"], load(paths["probe_fixed"]), tmp,
                    "probe_fixed", seed, full_state=True, svg=True,
                    converge=False),
        SimulateJob(paths["probe_observer"], load(paths["probe_observer"]),
                    tmp, "probe_observer", seed, converge=False),
        MonteCarloJob(paths["probe_mc"], load(paths["probe_mc"]), tmp,
                      "probe_mc", seed, 2, converge=False),
    ]
    for k, doc in enumerate(designs.probe_designs(seed)):
        jobs.append(SynthesizeJob(
            _write_json(os.path.join(tmp, f"probe_design{k}.json"), doc), doc))
    return Workload(jobs, None)


def reference_problems(values, reference):
    """Differences from the values recorded at the default seed."""
    problems = []
    for key, want in reference.items():
        got = values.get(key, [])
        for k, (g, w) in enumerate(zip(got, want)):
            if w is None:  # a recorded failure; a fix may now succeed here
                continue
            if g is None or not np.allclose(g, w, rtol=REF_RTOL, atol=REF_ATOL):
                problems.append(f"{key}[{k}] = {g} differs from reference {w}")
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} values, reference has "
                            f"{len(want)}")
    return problems


AGENT_STATES = 500


def agent_timings(seed, repeats=11):
    """Median µs per derivative evaluation, per agent kind, on seeded states.

    affine: builtin agent1 through ``eval_dynamics``; custom_poly: a parsed
    polynomial scenario agent through ``eval_dynamics``; native: agent3's
    ``NativePlant`` deriv, ``xi_of`` and ``alpha_of`` together.
    """
    from consensuskit.agents import builtin, eval_dynamics
    from consensuskit.scenario import parse_scenario

    rng = np.random.default_rng([seed, 3])
    custom = {"custom": {
        "r": 2, "n_eta": 2, "xi0": [0.0, 0.0], "eta0": [0.0, 0.0],
        "alpha": [{"c": 0.5, "e": [1, 0, 1, 0]}, {"c": -0.2, "e": [0, 2, 0, 1]}],
        "beta": [{"c": 1.5, "e": [0, 0, 0, 0]}],
        "theta": [[{"c": -1.0, "e": [0, 0, 1, 0]}, {"c": 0.3, "e": [1, 0, 0, 0]}],
                  [{"c": -2.0, "e": [0, 0, 0, 1]}, {"c": 0.1, "e": [0, 1, 1, 0]}]]}}
    doc = {"agents": [custom, {"builtin": "agent1"}],
           "controller": {"poles": [-1.0, -2.0], "mu": 1.0, "q1": 1.0,
                          "r_hat": 1.0, "rank": "one"},
           "graph": {"n": 2, "edges": [[1, 2, 1.0], [2, 1, 1.0]]},
           "sim": {"t_end": 1.0, "dt": 0.01}}
    poly = parse_scenario(doc).agents[0]
    affine = builtin("agent1")
    native = builtin("agent3").native
    states = rng.uniform(-1.0, 1.0, (AGENT_STATES, 5))

    def eval_normal(agent):
        for s in states:
            eval_dynamics(agent, s[:agent.r], s[agent.r:agent.r + agent.n_eta],
                          s[4])

    def eval_native():
        for s in states:
            x = s[:3]
            native.deriv(x, s[3])
            native.xi_of(x)
            native.alpha_of(x)

    loops = {"affine": lambda: eval_normal(affine),
             "custom_poly": lambda: eval_normal(poly),
             "native": eval_native}
    out = {}
    for kind, loop in loops.items():
        per_call = []
        for _ in range(repeats):
            t0 = perf_counter()
            loop()
            per_call.append((perf_counter() - t0) / AGENT_STATES * 1e6)
        out[kind] = float(np.median(per_call))
    return out
