"""consensuskit benchmark: four CLI workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and the shipped scenarios from ``scenarios/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  A full record (and, traced, every span) is written to
``bench/out/``; CSV and SVG outputs go to a temporary directory there
that is removed when the run ends.

Load is closed-loop: one caller in this one process makes one CLI call
after another through ``consensuskit.cli.main``; no worker threads, and
BLAS is pinned to one thread (here and in the set-up child processes).

Workloads (why each is here is in BENCHMARK.json):
  fixed_fullstate  simulate the shipped fixed scenario with --full-state and
                   --svg (30,000 RK4 steps x 5 agents, 30,001-row CSV)
  observer_fixed   simulate the fixed scenario plus an observer section
                   (C = e1, poles -3, -4, -5, dt = 0.002: 15,000 steps)
  switching_mc     montecarlo on the shipped switching scenario, 24 runs of
                   1,500 steps
  design_sweep     synthesize 192 seeded designs (N in {5, 10, 20}, r in
                   3..6, rank one or full, fixed or 2-3-mode switching,
                   half with an observer), two per cell

Every run first measures set-up in fresh interpreters, then makes one
warm-up pass over the probe (short runs of every workload's shape).
Untraced, it then repeats whole passes while the next one fits in
--seconds (at least one).  Traced, it makes one untraced and one traced
pass of the workload (both host-speed sampled, for the overhead) plus one
traced probe pass, and times the agent derivatives in standalone loops.

End-to-end metrics (tracing off).  Pass timings are stated at the
reference host speed (see hostspeed.py: the shared host's speed drifts up
to 2x, so each pass is divided by the speed of a fixed kernel sampled
during it); the report lines "as measured" and the record give the raw
figures.
  setup_s          fresh interpreter start to `import consensuskit` plus
                   `load_scenario` returning, median of SETUP_SAMPLES, as
                   measured
  units_per_s      completed units per wall second, median over passes; a
                   unit is an agent-step (agents x RK4 steps; diverged
                   Monte Carlo runs do not count) or a synthesized design
  cpu_us_per_unit  process CPU µs per completed unit, median over passes
  call_ms_p50/p90  wall ms per completed CLI call (one design, one
                   simulate, one 24-run montecarlo), all passes pooled
  peak_rss_mb      peak resident memory of this process (as measured)
The share of failed operations is reported as ``failed``/``attempted``;
it is 0 on the simulation workloads, so it is not a metric of its own.
A failure is a nonzero exit or uncaught exception, a diverged Monte Carlo
run, or a failed output check.

Known defect kept in design_sweep: every rank-one fixed-graph design with
r >= 4 makes `synthesize` exit with a raw ValueError from
`metrics.theoretical_speed_fixed` (`np.allclose(cs.b, [2, 3])`), 36 of the
192 designs (3 of the 16 rank x topology x r classes).  These count as
failed; `correct` stays true only if every other call passed its checks.

Per-layer metrics (traced run = workload pass plus probe pass) are listed
in BENCHMARK.json; see tracing.py for how spans are taken.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from statistics import median  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 0
SETUP_SAMPLES = 9
ROADMAP_STEP_US = {"fixed_fullstate": 292.0, "observer_fixed": 7.3e6 / 15000,
                   "switching_mc": 164e3 / 600}

_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import consensuskit
from consensuskit.scenario import load_scenario
load_scenario(sys.argv[2])
print(time.monotonic())
"""


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    for need in ("src/consensuskit/__init__.py",
                 "scenarios/five_agents_fixed.json",
                 "scenarios/five_agents_switching.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}; run inside a checkout")
    sys.path.insert(0, SRC)
    import consensuskit
    import consensuskit.cli
    if os.path.dirname(os.path.dirname(consensuskit.__file__)) != SRC:
        fail(f"imported consensuskit from {consensuskit.__file__}, not {SRC}")
    return consensuskit


def setup_seconds(scenario):
    """Median seconds from spawning a fresh interpreter to load_scenario
    returning in it (CLOCK_MONOTONIC is shared across processes).

    As measured: host speed sampled in this process tracks the child's
    speed too loosely to correct it (tried before/after each spawn).
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, scenario],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return median(samples), samples


def machine_facts(ck, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "consensuskit": ck.__version__, "commit": commit, "seed": seed,
            "timing": "wall (perf_counter) and CPU (process_time) time of "
                      "this one process, stated at the reference host speed "
                      "(hostspeed.py; raw figures under as_measured); set-up "
                      "is measured, as is, in fresh child interpreters; "
                      "machine settings are not touched"}


def metric(value, unit):
    return {"value": float(value), "unit": unit}


@dataclass
class Measured:
    metrics: dict
    passes: list    # passes whose calls count as attempted operations
    report: list    # readable lines
    detail: dict    # more fields for the record
    problems: list = field(default_factory=list)  # beyond per-call checks


def class_table(outcomes):
    attempted, failed = Counter(), Counter()
    for o in outcomes:
        if o.klass is not None:
            attempted[o.klass] += 1
            failed[o.klass] += o.failed
    return {"/".join(map(str, k)): {"attempted": attempted[k],
                                    "failed": failed[k]}
            for k in sorted(attempted)}


def reference_check(workload_name, passes, seed):
    """Compare the first pass with values recorded at the default seed."""
    if seed != DEFAULT_SEED:
        return []
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(workload_name)
    if reference is None:
        return [f"no reference values recorded for {workload_name}"]
    return workloads.reference_problems(passes[0].values(), reference)


def _timings(passes, wall_of, cpu_of, call_ms):
    return {
        "units_per_s": median(p.units / wall_of(p) for p in passes),
        "cpu_us_per_unit": median(cpu_of(p) * 1e6 / p.units if p.units else 0.0
                                  for p in passes),
        "call_ms_p50": np.percentile(call_ms, 50) if call_ms else 0.0,
        "call_ms_p90": np.percentile(call_ms, 90) if call_ms else 0.0,
    }


def measure(ck, args, wl):
    passes = []
    start = perf_counter()
    while True:
        passes.append(workloads.run_pass(ck.cli, wl.jobs, sample_host=True))
        elapsed = perf_counter() - start
        if elapsed + median(p.wall_s for p in passes) > args.seconds:
            break
    setup, setup_samples = setup_seconds(wl.setup_scenario)
    done = [(c.ms, p) for p in passes for c, o in zip(p.calls, p.outcomes)
            if o.units]
    raw = _timings(passes, lambda p: p.wall_s - p.host_s,
                   lambda p: p.cpu_s - p.host_s, [ms for ms, _ in done])
    ref = _timings(passes, lambda p: p.ref_wall_s, lambda p: p.ref_cpu_s,
                   [ms / p.slowness for ms, p in done])
    units = {"units_per_s": "1/s", "cpu_us_per_unit": "us",
             "call_ms_p50": "ms", "call_ms_p90": "ms"}
    metrics = {"setup_s": metric(setup, "s"),
               **{name: metric(v, units[name]) for name, v in ref.items()},
               "peak_rss_mb": metric(resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    unit = "design" if args.workload == "design_sweep" else "agent-step"
    report = [
        f"passes: {len(passes)}, wall s {[round(p.wall_s, 3) for p in passes]}",
        f"host slowness per pass: {[round(p.slowness, 3) for p in passes]}",
        f"units per pass: {passes[0].units} ({unit}s)",
        f"completed calls timed: {len(done)}",
        f"set-up samples s: {[round(s, 4) for s in setup_samples]}",
    ] + [f"as measured: {name} = {v:.6g} {units[name]}"
         for name, v in raw.items()]
    detail = {"passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                          "host_s": p.host_s, "slowness": p.slowness,
                          "units": p.units} for p in passes],
              "as_measured": raw, "setup_samples_s": setup_samples,
              "call_ms": [ms for ms, _ in done]}
    return Measured(metrics, passes, report, detail,
                    reference_check(args.workload, passes, args.seed))


def measure_traced(ck, args, wl, probe):
    untraced = workloads.run_pass(ck.cli, wl.jobs, sample_host=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workloads.run_pass(ck.cli, wl.jobs, tracer, "workload",
                                    sample_host=True)
        probed = workloads.run_pass(ck.cli, probe.jobs, tracer, "probe")
    finally:
        tracer.remove()
    agents_us = workloads.agent_timings(args.seed)
    # both workload passes at the reference host speed, or host drift
    # swamps the tracing overhead
    overhead = traced.ref_wall_s / untraced.ref_wall_s - 1.0
    outcomes = traced.outcomes + probed.outcomes
    outputs = {"csv_bytes": sum(o.csv_bytes for o in outcomes),
               "svg_bytes": sum(o.svg_bytes for o in outcomes)}
    values = tracing.per_layer_metrics(tracer.spans, outputs, agents_us,
                                       overhead)
    metrics = {name: metric(v, unit) for (name, unit), v in values.items()}

    layer = tracing.layer_self_s(tracer.spans, "workload")
    accounted = sum(layer.values())  # includes the host samples in spans
    gap = ((accounted - traced.host_s) / traced.slowness
           / untraced.ref_wall_s - 1.0)
    report = [f"untraced pass {untraced.wall_s:.4f} s "
              f"({untraced.ref_wall_s:.4f} s at reference speed), traced "
              f"pass {traced.wall_s:.4f} s ({traced.ref_wall_s:.4f} s), "
              f"overhead {overhead:+.4f}"]
    report += [f"  self time {name:10s} {t:10.4f} s  {t / accounted:7.2%}"
               for name, t in sorted(layer.items(), key=lambda kv: -kv[1])]
    report.append(
        f"blocking path: layer self times sum to {accounted:.4f} s, "
        f"{gap:+.4f} of the untraced wall at reference speed; within "
        f"overhead: {abs(gap) <= abs(overhead) + 0.01}")
    if args.workload in ROADMAP_STEP_US:
        seconds, steps = tracing.integration(tracer.spans, "workload")
        per_step = seconds / steps * 1e6
        want = ROADMAP_STEP_US[args.workload]
        report.append(f"ROADMAP check: {per_step:.1f} µs per 5-agent step "
                      f"vs ~{want:.0f} µs recorded ({per_step / want - 1:+.1%})")
        roadmap = {"measured": per_step, "recorded": want}
    else:
        roadmap = None
    detail = {"untraced_wall_s": untraced.wall_s, "roadmap_step_us": roadmap,
              "traced_wall_s": traced.wall_s, "layer_self_s": dict(layer),
              "spans": os.path.join("bench", "out", spans_name(args))}
    with open(os.path.join(HERE, "out", spans_name(args)), "w",
              encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return Measured(metrics, [traced, probed], report, detail)


def spans_name(args):
    return f"{args.workload}-seed{args.seed}-spans.json"


def record_reference(ck, args, wl):
    """Store the checked output values of one pass at the default seed."""
    values = workloads.run_pass(ck.cli, wl.jobs).values()
    path = os.path.join(HERE, "reference.json")
    ref = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
    ref[args.workload] = values
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {args.workload} reference values at seed {args.seed}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this pass's output values as the "
                             "default-seed reference")
    args = parser.parse_args()

    ck = import_package()

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp-") as tmp:
        wl = workloads.WORKLOADS[args.workload](ROOT, tmp, args.seed)
        if args.record_reference:
            if args.seed != DEFAULT_SEED:
                fail(f"reference values are recorded at seed {DEFAULT_SEED}")
            record_reference(ck, args, wl)
            return
        probe = workloads.probe(ROOT, tmp, args.seed)
        workloads.run_pass(ck.cli, probe.jobs)  # warm-up
        if args.trace:
            measured = measure_traced(ck, args, wl, probe)
        else:
            measured = measure(ck, args, wl)
    outcomes = [o for p in measured.passes for o in p.outcomes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [msg for o in outcomes for msg in o.problems]
    problems += measured.problems
    defects = sum(o.defect for o in outcomes)
    correct = not problems
    facts = machine_facts(ck, args.seed)
    classes = class_table(outcomes)
    print(f"consensuskit benchmark: workload {args.workload}, seed "
          f"{args.seed}, trace {args.trace}")
    for key, value in facts.items():
        print(f"  {key}: {value}")
    for line in measured.report:
        print(line)
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} "
          f"operations; {defects} are the known rank-one r >= 4 defect)")
    for name, cls in classes.items():
        print(f"  class {name:22s} attempted {cls['attempted']:4d} "
              f"failed {cls['failed']:4d}")
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}")
    for name, m in measured.metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": measured.metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "machine": facts,
              "failed_frac": failed / attempted, "known_defect_failures":
              defects, "classes": classes, "problems": problems,
              "detail": measured.detail, **result}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
