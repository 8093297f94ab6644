"""Summarize or compare sets of benchmark records.

    python3 bench/compare.py SET_A              # one set: medians, spread
    python3 bench/compare.py SET_A SET_B        # B against A, with verdicts
    python3 bench/compare.py SET_A --save FILE  # write a BENCH summary

A set is a directory of the records run.py writes (``bench/out/`` or a
copy of it), one per workload, seed and trace mode.  For every end-to-end
metric and workload the comparison prints both medians and quartiles and a
verdict against the metric's bound in BENCHMARK.json:

  unresolved   either side's quartile spread (as a share of its median) is
               wider than the bound, unless every B run beats every A run
  better       every B run beats every A run
  regression   B's median is worse than A's by more than the bound
  within bound otherwise

Per-layer metrics from traced records are listed side by side without a
verdict; they have no bound.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(directory):
    """{(workload, trace): {metric: [values]}} plus the records themselves."""
    groups, records = {}, []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        records.append(rec)
        group = groups.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            group.setdefault(name, []).append(m["value"])
    return groups, records


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": spread}


def verdict(a, b, better, bound):
    sa, sb = stats(a), stats(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
    if max(sign * v for v in b) < min(sign * v for v in a):
        return "better", worse
    if max(sa["spread"], sb["spread"]) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    return "within bound", worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b", nargs="?")
    parser.add_argument("--save", help="write set A's summary to this file")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    ends = {m["name"]: m for m in bench["end_to_end"]}
    a, records = load_set(args.set_a)
    b = load_set(args.set_b)[0] if args.set_b else None
    regressions = 0
    for (workload, trace), metrics in sorted(a.items()):
        print(f"== {workload} ({'traced' if trace else 'end to end'})")
        for name, values in metrics.items():
            sa = stats(values)
            line = (f"  {name:36s} A {sa['median']:12.5g} "
                    f"[{sa['q1']:.5g}, {sa['q3']:.5g}] n={sa['n']}")
            if not trace and name in ends:
                line += f" spread {sa['spread']:.3f}/{ends[name]['bound']}"
            if b is not None and name in b.get((workload, trace), {}):
                other = b[(workload, trace)][name]
                sb = stats(other)
                line += (f" | B {sb['median']:12.5g} "
                         f"[{sb['q1']:.5g}, {sb['q3']:.5g}] n={sb['n']}")
                if not trace and name in ends:
                    word, worse = verdict(values, other, ends[name]["better"],
                                          ends[name]["bound"])
                    regressions += word == "regression"
                    line += f" worse by {worse:+.3f}: {word}"
            print(line)
    if args.save:
        summary = {
            "machine": {k: v for k, v in records[0]["machine"].items()
                        if k != "seed"},
            "seeds": sorted({r["seed"] for r in records}),
            "run_seconds": bench["run_seconds"],
            "end_to_end": {}, "as_measured": {}, "per_layer": {},
            "roadmap_step_us": {},
        }
        for (workload, trace), metrics in sorted(a.items()):
            key = "per_layer" if trace else "end_to_end"
            summary[key][workload] = {n: stats(v) for n, v in metrics.items()}
        for rec in records:
            for name, v in rec["detail"].get("as_measured", {}).items():
                summary["as_measured"].setdefault(
                    rec["workload"], {}).setdefault(name, []).append(v)
        for workload, metrics in summary["as_measured"].items():
            for name, values in metrics.items():
                metrics[name] = stats(values)
        for rec in records:
            step = rec["detail"].get("roadmap_step_us")
            if step:
                summary["roadmap_step_us"].setdefault(
                    rec["workload"], {"recorded": step["recorded"],
                                      "measured": []})["measured"].append(
                    step["measured"])
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
