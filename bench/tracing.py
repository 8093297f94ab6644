"""Spans around the calls into consensuskit's layers, recorded from outside.

`Tracer.install` replaces every public function of a layer module under
each module-level name through which package code reaches it: the name in
its own module (calls inside a module resolve through its globals, e.g.
``linalg.solve_care`` -> ``linalg.solve_lyapunov``) and the name in every
layer module that imported it (e.g. ``cli.simulate_fixed``,
``synthesis.solve_care``).  No file under ``src/`` changes.  Private
helpers and per-step closures stay unwrapped, so the integrator loop runs
at full speed and a layer's self time includes its private helpers.

A span records name, start, end, parent span and pass id.  Spans live in
memory and are written out when the run ends.
"""

import functools
import importlib
import inspect
from collections import defaultdict
from statistics import median
from time import perf_counter

LAYERS = ("scenario", "synthesis", "linalg", "graph", "switching", "agents",
          "sim", "metrics", "cli")

_SIMULATE = ("sim.simulate_fixed", "sim.simulate_with_observer",
             "sim.simulate_switching")


def _trajectory_facts(args, traj):
    arrays = [traj.times, traj.y, traj.xi_hat, traj.u, *traj.eta]
    arrays += [a for a in (traj.err, traj.mode) if a is not None]
    return {"samples": int(traj.times.shape[0]),
            "bytes": int(sum(a.nbytes for a in arrays))}


# Counts read off a call's arguments or result once the call has returned.
_FACTS = {
    **{name: _trajectory_facts for name in _SIMULATE},
    "sim.monte_carlo_ms": lambda args, res: {"diverged": res.runs_diverged},
    "switching.sample_path": lambda args, res: {"switches": len(res) - 1},
    "synthesis.closed_loop_spectrum":
        lambda args, res: {"dim": len(args[2]) * args[0].r},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []
        self._patched = []

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"consensuskit.{layer}")
            for attr, fn in list(vars(module).items()):
                home = getattr(fn, "__module__", "").rpartition(".")
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or home[0] != "consensuskit" or home[2] not in LAYERS):
                    continue
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{home[2]}.{fn.__name__}", fn))

    def remove(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        facts = _FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "pass": self.pass_id,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if facts is not None:
                span.update(facts(args, result))
            return result

        return traced


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_self_s(spans, pass_id=None):
    """Self time summed per layer (in one pass, if given)."""
    own = self_times(spans)
    totals = defaultdict(float)
    for s, t in zip(spans, own):
        if pass_id in (None, s["pass"]):
            totals[s["name"].partition(".")[0]] += t
    return totals


def integration(spans, pass_id=None):
    """Seconds and RK4 steps of the simulate calls (in one pass, if given).

    The seconds are the calls' self time: integration including per-sample
    recording, which cannot be split from outside.
    """
    own = self_times(spans)
    sims = [s for s in spans if s["name"] in _SIMULATE and "samples" in s
            and pass_id in (None, s["pass"])]
    return (sum(own[s["id"]] for s in sims),
            sum(s["samples"] - 1 for s in sims))


def per_layer_metrics(spans, outputs, agents_us, overhead_frac):
    """The per-layer metrics of BENCHMARK.json from one traced run, keyed
    by (name, unit).

    `outputs` holds the CSV and SVG bytes the traced passes wrote and
    `agents_us` the standalone derivative timings.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    own = self_times(spans)
    layer = layer_self_s(spans)

    def med(scale, *names):
        values = [s["end"] - s["start"] for n in names for s in by_name[n]]
        return median(values) * scale if values else 0.0

    def count(name):
        return len(by_name[name])

    sims = [s for n in _SIMULATE for s in by_name[n] if "samples" in s]
    integrate_s, steps = integration(spans)
    mc_ids = {s["id"] for s in by_name["sim.monte_carlo_ms"]}
    mc_runs = [s["end"] - s["start"] for s in by_name["sim.simulate_switching"]
               if s["parent"] in mc_ids]
    care_ids = {s["id"] for s in by_name["linalg.solve_care"]}
    lyap_in_care = 0
    for s in by_name["linalg.solve_lyapunov"]:
        parent = s["parent"]
        while parent is not None and parent not in care_ids:
            parent = spans[parent]["parent"]
        lyap_in_care += parent is not None

    csv_rate = (outputs["csv_bytes"] / 1e6 / layer["cli"]
                if layer["cli"] > 0 else 0.0)
    spectra = by_name["synthesis.closed_loop_spectrum"]
    m = {
        ("sim.integrate_s", "s"): integrate_s,
        ("sim.step_us", "us"): integrate_s / steps * 1e6 if steps else 0.0,
        ("sim.steps", "count"): steps,
        ("sim.samples", "count"): sum(s["samples"] for s in sims),
        ("sim.trajectory_mb", "MB"):
            max((s["bytes"] for s in sims), default=0) / 1e6,
        ("sim.mc_run_ms_p50", "ms"):
            median(mc_runs) * 1e3 if mc_runs else 0.0,
        ("sim.mc_run_ms_max", "ms"): max(mc_runs, default=0.0) * 1e3,
        ("sim.mc_self_ms", "ms"): sum(own[i] for i in mc_ids) * 1e3,
        ("sim.mc_runs_diverged", "count"):
            sum(s.get("diverged", 0) for s in by_name["sim.monte_carlo_ms"]),
        ("switching.sample_path_us", "us"): med(1e6, "switching.sample_path"),
        ("switching.mode_switches", "count"):
            sum(s.get("switches", 0) for s in by_name["switching.sample_path"]),
        ("switching.check_A4_us", "us"): med(1e6, "switching.check_A4"),
        ("agents.eval_dynamics_us.affine", "us"): agents_us["affine"],
        ("agents.eval_dynamics_us.custom_poly", "us"): agents_us["custom_poly"],
        ("agents.native_deriv_us", "us"): agents_us["native"],
        ("cli.csv_bytes", "bytes"): outputs["csv_bytes"],
        ("cli.csv_mb_per_s", "MB/s"): csv_rate,
        ("cli.svg_bytes", "bytes"): outputs["svg_bytes"],
        ("scenario.load_ms", "ms"): med(1e3, "scenario.load_scenario"),
        ("scenario.load_calls", "count"): count("scenario.load_scenario"),
        ("synthesis.design_companion_us", "us"):
            med(1e6, "synthesis.design_companion"),
        ("synthesis.rank_one_gain_us", "us"):
            med(1e6, "synthesis.rank_one_gain"),
        ("synthesis.full_gain_ms", "ms"): med(1e3, "synthesis.full_gain"),
        ("synthesis.local_controller_us", "us"):
            med(1e6, "synthesis.local_controller"),
        ("synthesis.observer_gain_us", "us"):
            med(1e6, "synthesis.observer_gain"),
        ("synthesis.closed_loop_spectrum_ms", "ms"):
            med(1e3, "synthesis.closed_loop_spectrum"),
        ("synthesis.spectrum_dim_max", "count"):
            max((s.get("dim", 0) for s in spectra), default=0),
        ("linalg.solve_care_ms", "ms"): med(1e3, "linalg.solve_care"),
        ("linalg.lyapunov_per_care", "count"):
            lyap_in_care / len(care_ids) if care_ids else 0.0,
        ("linalg.eig_calls", "count"): count("linalg.eig"),
        ("graph.has_spanning_tree_us", "us"):
            med(1e6, "graph.has_spanning_tree"),
        ("graph.laplacian_calls", "count"): count("graph.laplacian"),
        ("metrics.theoretical_speed_us", "us"):
            med(1e6, "metrics.theoretical_speed_fixed",
                "metrics.theoretical_speed_switching"),
        ("metrics.disagreement_ms", "ms"): med(1e3, "metrics.disagreement"),
        ("trace.overhead_frac", "ratio"): overhead_frac,
    }
    return m
