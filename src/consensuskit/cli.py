"""Command-line front end.

    consensuskit synthesize scenario.json
    consensuskit simulate scenario.json --out run.csv [--svg run.svg]
    consensuskit simulate-switching scenario.json --out run.csv \
        [--allow-a4-violation]
    consensuskit montecarlo scenario.json --runs 200 --out ms.csv
    consensuskit analyze scenario.json [--window T0:T1]

Exit codes: 0 on success, 1 for bad input (parse, validation, or synthesis
failures, missing files), 2 for runtime failures (finite escape, a beta
hitting its floor, solver breakdowns).  Errors are emitted as a single JSON
object on stderr; command results go to stdout as JSON, trajectories to CSV
files.  All numeric CSV fields use repr-faithful %.17g formatting so reruns
are byte-identical.

`simulate`, `simulate-switching` and `analyze` share one dispatch: a
switching scenario runs under its Markov schedule, a fixed one with observer
feedback when it has an observer section.  `simulate-switching` differs from
`simulate` only in taking --allow-a4-violation.
"""

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .errors import (
    ConsensusKitError,
    ScenarioParseError,
    SynthesisError,
    ValidationError,
)
from .graph import laplacian, union
from .metrics import (
    disagreement,
    empirical_rate,
    theoretical_speed_fixed,
    theoretical_speed_switching,
)
from .scenario import load_scenario
from .sim import (
    monte_carlo_ms,
    simulate_fixed,
    simulate_switching,
    simulate_with_observer,
)
from .switching import MarkovTopology, check_A4
from .synthesis import closed_loop_spectrum

__all__ = ["main"]


def _cpairs(values):
    return [[float(v.real), float(v.imag)] for v in np.asarray(values).ravel()]


def _emit_error(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("field", "line", "column", "agent_id", "t"):
        value = getattr(exc, attr, None)
        if value is not None:
            payload[attr] = value
    print(json.dumps(payload), file=sys.stderr)


def _apply_overrides(scen, args):
    if getattr(args, "seed", None) is not None:
        scen = replace(scen, seed=args.seed)
    return scen


def _output_cfg(scen, args):
    """Output settings from the scenario and the flags; needs a CSV path."""
    cfg = dict(scen.output or {})
    if getattr(args, "out", None):
        cfg["csv"] = args.out
    if getattr(args, "svg", None):
        cfg["svg"] = args.svg
    if getattr(args, "full_state", False):
        cfg["full_state"] = True
    cfg.setdefault("full_state", False)
    if "csv" not in cfg:
        raise ValidationError(
            "no CSV output path; pass --out or set output.csv",
            field="output.csv")
    return cfg


_CHUNK_ROWS = 256  # rows formatted at once: keeps the text and float lists small


def _write_rows(path, header, blocks):
    """CSV lines as csv.writer writes them for these fields.

    ``blocks`` are 2-D arrays with one row per sample, written side by side:
    integer blocks as integers, float blocks with "%.17g" (the digits of
    format(x, ".17g")).  A chunk of rows at a time goes through one format
    string, so no Python call is made per value.
    """
    formats = []
    for b in blocks:
        formats += ["%d" if b.dtype.kind in "iu" else "%.17g"] * b.shape[1]
    line = ",".join(formats) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, blocks[0].shape[0], _CHUNK_ROWS):
            rows = np.hstack([b[lo:lo + _CHUNK_ROWS] for b in blocks])
            fh.writelines([line % tuple(row) for row in rows.tolist()])


def _write_trajectory_csv(path, traj, full_state):
    n_agents = traj.y.shape[1]
    agents = range(1, n_agents + 1)
    header = ["t"] + [f"y{i}" for i in agents]
    blocks = [traj.times[:, None], traj.y]
    if traj.err is not None:
        header += [f"e{i}" for i in agents]
        blocks.append(np.linalg.norm(traj.err, axis=2))
    if traj.mode is not None:
        header.append("mode")
        blocks.append(traj.mode[:, None] + 1)
    if full_state:
        for i in agents:
            xi, eta = traj.xi_hat[:, i - 1], traj.eta[i - 1]
            header += [f"xi{i}_{k + 1}" for k in range(xi.shape[1])]
            header += [f"eta{i}_{k + 1}" for k in range(eta.shape[1])]
            header.append(f"u{i}")
            blocks += [xi, eta, traj.u[:, i - 1:i]]
    _write_rows(path, header, blocks)


def _write_mc_csv(path, result):
    _write_rows(path, ["t", "mean_square"],
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
    for j in range(ss.shape[1]):
        color = _PALETTE[j % len(_PALETTE)]
        pts = " ".join(f"{px(t):.2f},{py(v):.2f}"
                       for t, v in zip(tt, ss[:, j]))
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


def _spectrum_payload(scen, lap):
    check = closed_loop_spectrum(scen.cs, scen.gain, lap)
    payload = {"values": _cpairs(check.values)}
    if check.analytic_consistent is not None:
        payload["analytic_consistent"] = bool(check.analytic_consistent)
    return payload


def _cmd_synthesize(args):
    scen = load_scenario(args.scenario)
    cs, gain = scen.cs, scen.gain
    out = {
        "r": cs.r,
        "b": [float(v) for v in cs.b],
        "nu": [float(v) for v in cs.nu],
        "target_poles": _cpairs(cs.stable_poles),
        "rank": gain.rank,
        "K": [float(v) for v in gain.K],
        "P1": [[float(v) for v in row] for row in gain.P1],
    }
    if isinstance(scen.topology, MarkovTopology):
        mt = scen.topology
        lap = laplacian(union(mt.graphs))
        report = check_A4(mt)
        out["stationary"] = [float(v) for v in mt.pi]
        out["assumption"] = {
            "union_has_spanning_tree": report.union_has_spanning_tree,
            "union_balanced": report.union_balanced,
            "passes": report.passes,
        }
        if gain.rank == "one" and report.passes:
            out["guaranteed_rate"] = theoretical_speed_switching(mt, gain, cs)
    else:
        lap = laplacian(scen.topology)
        if gain.rank == "one":
            try:
                out["guaranteed_rate"] = theoretical_speed_fixed(cs, gain, lap)
            except ConsensusKitError:
                pass
    out["spectrum"] = _spectrum_payload(scen, lap)
    print(json.dumps(out, indent=2))
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
    traj = _simulate(scen, getattr(args, "allow_a4_violation", False))
    _write_trajectory_csv(cfg["csv"], traj, cfg["full_state"])
    summary = {
        "csv": cfg["csv"],
        "samples": int(traj.times.shape[0]),
        "final_disagreement": float(disagreement(traj)[-1]),
    }
    if "svg" in cfg:
        _write_svg(cfg["svg"], traj.times, traj.y)
        summary["svg"] = cfg["svg"]
    print(json.dumps(summary))
    return 0


def _cmd_montecarlo(args):
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


def _parse_window(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError("window must look like T0:T1", field="--window")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValidationError("window must look like T0:T1",
                              field="--window") from exc


def _cmd_analyze(args):
    scen = _apply_overrides(load_scenario(args.scenario), args)
    window = _parse_window(args.window) if args.window else None
    switching = isinstance(scen.topology, MarkovTopology)
    traj = _simulate(scen)
    lap = laplacian(union(scen.topology.graphs) if switching
                    else scen.topology)
    d = disagreement(traj)
    fit = empirical_rate(traj.times, d, window)
    theoretical = None
    if scen.gain.rank == "one":
        try:
            if switching:
                theoretical = theoretical_speed_switching(
                    scen.topology, scen.gain, scen.cs)
            else:
                theoretical = theoretical_speed_fixed(scen.cs, scen.gain, lap)
        except ConsensusKitError:
            theoretical = None
    out = {
        "empirical_rate": fit.rate,
        "r_squared": fit.r_squared,
        "window": [fit.window[0], fit.window[1]],
        "final_disagreement": float(d[-1]),
        "theoretical_rate": theoretical,
        "spectrum": _spectrum_payload(scen, lap),
    }
    print(json.dumps(out, indent=2))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="consensuskit",
        description="Rank-one output-consensus synthesis and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="print the synthesized design")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_synthesize)

    for name, switching in (("simulate", False),
                            ("simulate-switching", True)):
        p = sub.add_parser(name, help="run a simulation" + (
            ", optionally past a failed A4 check" if switching else ""))
        p.add_argument("scenario")
        p.add_argument("--out", help="trajectory CSV path")
        p.add_argument("--svg", help="output plot path")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--full-state", action="store_true",
                       help="append chain, internal, and input columns")
        if switching:
            p.add_argument("--allow-a4-violation", action="store_true",
                           help="simulate even if the union graph fails "
                                "the connectivity/balance assumption")
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
