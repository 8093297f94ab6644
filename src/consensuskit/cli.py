"""Command-line front end.

    consensuskit synthesize scenario.json
    consensuskit simulate scenario.json --out run.csv [--svg run.svg] \
        [--allow-a4-violation]
    consensuskit montecarlo scenario.json --runs 200 --out ms.csv
    consensuskit analyze scenario.json [--window T0:T1]

Exit codes follow the class of ``consensuskit.errors`` raised: 0 on
success; 1 for bad input (ScenarioParseError, ValidationError,
SynthesisError, and a missing or unreadable file); 2 for a run that fails
on valid input (ConvergenceFailure, FiniteEscape, BetaNearZero).  Every
command prints one JSON line: its result on stdout (``json.dumps``;
``python -m json.tool`` pretty-prints it) or its error on stderr,
``{"error": <class name>, "message": ...}`` plus whichever of the error's
``field``, ``line``, ``column``, ``agent_id`` and ``t`` are set.
Trajectories go to CSV files, in which every field is the text of "%.17g"
(17 significant digits, so every double reads back exactly; not repr,
which prints the fewest digits that do), the mode column included, so
reruns are byte-identical.  A relative output path
resolves against the working directory, not the scenario file's.

`simulate` and `analyze` share one dispatch: a switching scenario runs
under its Markov schedule, a fixed one with observer feedback when it has an
observer section.  `simulate --allow-a4-violation` runs a switching scenario
whose union graph fails A4; on a fixed graph the flag has no effect.
"""

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from ._csvtext import write_rows
from .errors import (
    ConsensusKitError,
    ScenarioParseError,
    SynthesisError,
    ValidationError,
)
from .graph import laplacian
from .metrics import (
    disagreement,
    empirical_rate,
    theoretical_speed_fixed,
    theoretical_speed_switching,
)
from .rng import check_seed
from .scenario import load_scenario
from .sim import (
    _BLOCK,
    _grid,
    monte_carlo_ms,
    simulate_fixed,
    simulate_switching,
    simulate_with_observer,
)
from .switching import MarkovTopology, check_A4
from .synthesis import closed_loop_spectrum

__all__ = ["main"]


def _cpairs(values):
    values = np.asarray(values).ravel()
    return list(map(list, zip(values.real.tolist(), values.imag.tolist())))


def _emit_error(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("field", "line", "column", "agent_id", "t"):
        value = getattr(exc, attr, None)
        if value is not None:
            payload[attr] = value
    print(json.dumps(payload), file=sys.stderr)


def _apply_overrides(scen, args):
    if args.seed is not None:
        check_seed(args.seed, "--seed")
        scen = replace(scen, seed=args.seed)
    return scen


def _output_cfg(scen, args):
    """Output settings from the scenario and the flags; needs a CSV path."""
    cfg = dict(scen.output or {})
    if args.out:
        cfg["csv"] = args.out
    if args.svg:
        cfg["svg"] = args.svg
    if "csv" not in cfg:
        raise ValidationError(
            "no CSV output path; pass --out or set output.csv",
            field="output.csv")
    return cfg


def _write_trajectory_csv(path, traj, full_state):
    n_agents = traj.y.shape[1]
    agents = range(1, n_agents + 1)
    header = ["t"] + [f"y{i}" for i in agents]
    blocks = [traj.times[:, None], traj.y]
    if traj.err is not None:
        header += [f"e{i}" for i in agents]
        # by blocks of samples: the norm of the whole error at once would
        # allocate its squares, two more arrays of its size
        norms = np.empty(traj.y.shape)
        for a in range(0, norms.shape[0], _BLOCK):
            norms[a:a + _BLOCK] = np.linalg.norm(traj.err[a:a + _BLOCK],
                                                 axis=2)
        blocks.append(norms)
    if traj.mode is not None:
        header.append("mode")
        blocks.append(traj.mode[:, None] + 1.0)
    if full_state:
        for i in agents:
            xi, eta = traj.xi_hat[:, i - 1], traj.eta[i - 1]
            header += [f"xi{i}_{k + 1}" for k in range(xi.shape[1])]
            header += [f"eta{i}_{k + 1}" for k in range(eta.shape[1])]
            header.append(f"u{i}")
            blocks += [xi, eta, traj.u[:, i - 1:i]]
    write_rows(path, header, blocks)


def _write_mc_csv(path, result):
    write_rows(path, ["t", "mean_square"],
               [result.times[:, None], result.mean_square[:, None]])


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]


def _write_svg(path, times, series, ylabel="y"):
    """Self-contained line plot; one polyline per column of `series`."""
    width, height = 800, 500
    ml, mr, mtop, mb = 60.0, 15.0, 15.0, 40.0
    pw, ph = width - ml - mr, height - mtop - mb
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    stride = max(1, len(times) // 2000)
    tt = times[::stride]
    ss = series[::stride]
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

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{ml}" y="{mtop}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if y_lo < 0.0 < y_hi:
        zy = py(0.0)
        parts.append(f'<line x1="{ml}" y1="{zy:.2f}" x2="{ml + pw}" '
                     f'y2="{zy:.2f}" stroke="#bbb" stroke-width="1" '
                     'stroke-dasharray="4 3"/>')
    # px and py act on whole columns, in the order of operations of a point
    xy = np.empty((len(tt), 2))
    xy[:, 0] = px(tt)
    points = " ".join(["%.2f,%.2f"] * len(tt))
    for j in range(ss.shape[1]):
        color = _PALETTE[j % len(_PALETTE)]
        xy[:, 1] = py(ss[:, j])
        pts = points % tuple(xy.ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.2"/>')
    style = 'font-family="sans-serif" font-size="12" fill="#222"'
    parts.append(f'<text x="{ml}" y="{height - 10}" {style}>'
                 f't = {t_lo:g} .. {t_hi:g}</text>')
    parts.append(f'<text x="8" y="{mtop + 12}" {style}>{ylabel} in '
                 f'[{y_lo:.3g}, {y_hi:.3g}]</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _rate_and_spectrum(scen):
    """The rank-one rate (fixed graph: guaranteed; switching: the
    fast-switching limit; None when none holds) and the closed-loop
    spectrum payload of the graph or the modes' union, for both reports."""
    topology, cs, gain = scen.topology, scen.cs, scen.gain
    switching = isinstance(topology, MarkovTopology)
    lap = laplacian(topology.union if switching else topology)
    rate = None
    if gain.rank == "one":
        try:
            rate = (theoretical_speed_switching(topology, gain, cs)
                    if switching else theoretical_speed_fixed(cs, gain, lap))
        except ValidationError:  # no spanning tree, one node, A4 failing
            pass
    # the rank-one spectrum is returned only once it matched the formula
    spectrum = {"values": _cpairs(closed_loop_spectrum(cs, gain, lap))}
    if gain.rank == "one":
        spectrum["analytic_consistent"] = True
    return rate, spectrum


def _cmd_synthesize(args):
    scen = load_scenario(args.scenario)
    cs, gain = scen.cs, scen.gain
    out = {
        "r": cs.r,
        "b": cs.b.tolist(),
        "nu": cs.nu.tolist(),
        "target_poles": _cpairs(cs.stable_poles),
        "rank": gain.rank,
        "K": gain.K.tolist(),
        "P1": gain.P1.tolist(),
    }
    rate, spectrum = _rate_and_spectrum(scen)
    if isinstance(scen.topology, MarkovTopology):
        mt = scen.topology
        report = check_A4(mt)
        out["stationary"] = mt.pi.tolist()
        out["assumption"] = {
            "union_has_spanning_tree": report.union_has_spanning_tree,
            "union_balanced": report.union_balanced,
            "passes": report.passes,
        }
        # speed_bound is the mean-square rate's limit as switching gets
        # fast, not a rate guaranteed at a finite switching rate
        out["guaranteed_rate"] = None
        out["fast_switching_limit"] = rate
    else:
        out["guaranteed_rate"] = rate
    out["spectrum"] = spectrum
    print(json.dumps(out))
    return 0


def _simulate(scen, allow_a4_violation=False):
    if isinstance(scen.topology, MarkovTopology):
        return simulate_switching(scen, allow_a4_violation=allow_a4_violation)
    if scen.observer is not None:
        return simulate_with_observer(scen)
    return simulate_fixed(scen)


def _cmd_simulate(args):
    scen = _apply_overrides(load_scenario(args.scenario), args)
    cfg = _output_cfg(scen, args)
    traj = _simulate(scen, args.allow_a4_violation)
    _write_trajectory_csv(cfg["csv"], traj, args.full_state)
    last = traj.y[-1]  # disagreement(traj)[-1], from the last sample alone
    summary = {
        "csv": cfg["csv"],
        "samples": int(traj.times.shape[0]),
        "final_disagreement": float(last.max() - last.min()),
    }
    if "svg" in cfg:
        _write_svg(cfg["svg"], traj.times, traj.y)
        summary["svg"] = cfg["svg"]
    print(json.dumps(summary))
    return 0


def _cmd_montecarlo(args):
    if args.runs < 1:
        raise ValidationError(f"need at least one run, got {args.runs}",
                              field="--runs")
    scen = _apply_overrides(load_scenario(args.scenario), args)
    cfg = _output_cfg(scen, args)
    result = monte_carlo_ms(scen, args.runs)
    _write_mc_csv(cfg["csv"], result)
    if "svg" in cfg:
        _write_svg(cfg["svg"], result.times,
                   result.mean_square.reshape(-1, 1), ylabel="mean square")
    print(json.dumps({
        "csv": cfg["csv"],
        "runs_used": result.runs_used,
        "runs_diverged": result.runs_diverged,
        "final_mean_square": float(result.mean_square[-1]),
    }))
    return 0


def _parse_window(text, scen):
    """--window T0:T1, which must select at least two samples of scen's
    time grid (as empirical_rate does), checked before anything runs."""
    try:
        t0, t1 = (float(part) for part in text.split(":"))
    except ValueError as exc:  # not two numbers
        raise ValidationError("window must look like T0:T1",
                              field="--window") from exc
    if not -np.inf < t0 < t1 < np.inf:  # NaN fails too
        raise ValidationError(f"window needs finite T0 < T1, got {text!r}",
                              field="--window")
    times = _grid(scen)
    picked = int(np.count_nonzero((times >= t0) & (times <= t1)))
    if picked < 2:
        raise ValidationError(
            f"window [{t0:g}, {t1:g}] selects {picked} samples of the time "
            f"grid 0:{scen.dt:g}:{times[-1]:g}; need at least 2",
            field="--window")
    return t0, t1


def _cmd_analyze(args):
    scen = _apply_overrides(load_scenario(args.scenario), args)
    window = _parse_window(args.window, scen) if args.window else None
    switching = isinstance(scen.topology, MarkovTopology)
    traj = _simulate(scen)
    d = disagreement(traj)
    fit = empirical_rate(traj.times, d, window)
    rate, spectrum = _rate_and_spectrum(scen)
    out = {
        "empirical_rate": fit.rate,
        "r_squared": fit.r_squared,
        "window": [fit.window[0], fit.window[1]],
        "final_disagreement": float(d[-1]),
        "theoretical_rate": None if switching else rate,
        "spectrum": spectrum,
    }
    if switching:
        # speed_bound is the mean-square rate's limit as switching gets
        # fast, not a rate one sampled run at a finite rate should show
        out["fast_switching_limit"] = rate
    print(json.dumps(out))
    return 0


@functools.cache
def _build_parser():
    """The parser of every main call, built once: each parse_args call
    fills a new namespace, so no call sees another's arguments."""
    parser = argparse.ArgumentParser(
        prog="consensuskit",
        description="Rank-one output-consensus synthesis and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="print the synthesized design")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="run a simulation")
    p.add_argument("scenario")
    p.add_argument("--out", help="trajectory CSV path")
    p.add_argument("--svg", help="output plot path")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--full-state", action="store_true",
                   help="append chain, internal, and input columns")
    p.add_argument("--allow-a4-violation", action="store_true",
                   help="simulate a switching scenario even if its union "
                        "graph fails the connectivity/balance assumption")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("montecarlo",
                       help="mean-square disagreement over repeated runs")
    p.add_argument("scenario")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--out", help="CSV path")
    p.add_argument("--svg", help="output plot path")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("analyze", help="rates and spectra as JSON")
    p.add_argument("scenario")
    p.add_argument("--window", help="rate-fit window T0:T1")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioParseError, ValidationError, SynthesisError) as exc:
        _emit_error(exc)
        return 1
    except OSError as exc:
        _emit_error(exc)
        return 1
    except ConsensusKitError as exc:
        _emit_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
