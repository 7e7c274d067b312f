"""Command-line front end: simulate sessions, analyze traces, run repeated
campaigns, summarize joule lists, and lint inputs.

Exit codes: 0 success (including analyses that find no windows), 1 usage
error, 2 data or validation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .instrument import GpioCommandLog
from .jsonio import save_json, write_json
from .segment import MATCH_TOLERANCE_S, SegmentationParams, analyze
from .simulate import RELAY, TRIGGER, load_scenario, simulate_session
from .stats import summarize_campaign
from .trace import (
    PowerTrace,
    ShuntConfig,
    read_trace_csv,
    sample_to_power,
    validate_trace,
    write_csv_rows,
    write_trace_csv,
)


class _PowerColumn:
    """A trace's power as a column whose slices are computed when taken, so
    that the skyline writer holds one block of watts at a time."""

    def __init__(self, trace: PowerTrace):
        self.trace = trace

    def __len__(self) -> int:
        return len(self.trace)

    def __getitem__(self, rows: slice):
        return sample_to_power(self.trace.vs[rows], self.trace.shunt)


def _write_skyline_csv(trace: PowerTrace, path: Path) -> None:
    with path.open("w", newline="\n") as f:
        f.write("t_s,watts\n")
        write_csv_rows(f, trace.rate_hz, [_PowerColumn(trace)])


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    trace, truth = simulate_session(scenario)
    write_trace_csv(trace, args.out_trace)
    truth.write_json(args.out_truth)
    print(f"wrote {args.out_trace} ({len(trace)} samples) and {args.out_truth}")
    return 0


def _cmd_analyze(args) -> int:
    trace = read_trace_csv(args.trace)
    if args.rate is not None or args.vf is not None or args.shunt_r is not None:
        shunt = ShuntConfig(
            vf=args.vf if args.vf is not None else trace.shunt.vf,
            rs=args.shunt_r if args.shunt_r is not None else trace.shunt.rs,
        )
        rate = args.rate if args.rate is not None else trace.rate_hz
        # the read trace's arrays are read-only and go no further: share them
        trace = PowerTrace._adopt(rate, trace.vs, trace.trig, shunt)
    validation = validate_trace(trace)
    if not validation.ok:
        for v in validation.violations:
            print(f"error: {v}", file=sys.stderr)
        return 2
    params = SegmentationParams(
        relay_threshold_w=args.threshold_w,
        min_window_samples=args.min_window,
        trigger_logic_threshold_v=args.trigger_threshold_v,
    )
    expected = GpioCommandLog.read_csv(args.expected) if args.expected else None
    report = analyze(trace, args.mode, params, expected, args.match_tolerance_s)
    out = Path(args.out)
    with out.open("w", newline="\n") as f:
        report.write_json(f)
    if args.skyline:
        _write_skyline_csv(trace, Path(args.skyline))
    for message in report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    skyline = f" and skyline {args.skyline}" if args.skyline else ""
    print(f"wrote {out} ({len(report.windows)} window(s)){skyline}")
    return 0


def _cmd_campaign(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    joules: list[float] = []
    for run in range(args.runs):
        run_scenario = scenario.with_seed(scenario.seed + run)
        trace, _ = simulate_session(run_scenario)
        report = analyze(trace, run_scenario.circuit)
        joules.append(report.total_joules)
    summary = summarize_campaign(joules, args.confidence)
    out = Path(args.out)
    with out.open("w", newline="\n") as f:
        f.write("# run_1..run_n,mean,me\n")
        f.write(summary.to_csv_row() + "\n")
    # stdout carries the final run's analysis with the all-runs summary
    report.campaign = summary
    report.write_json(sys.stdout)
    return 0


def _read_joules(path_arg: str) -> list[float]:
    if path_arg == "-":
        text = sys.stdin.read()
    else:
        text = Path(path_arg).read_text()
    return [float(tok) for tok in text.replace(",", " ").split()]


def _cmd_stats(args) -> int:
    summary = summarize_campaign(_read_joules(args.values), args.confidence).to_json_dict()
    if args.out:
        save_json(summary, args.out)
    write_json(summary, sys.stdout)
    return 0


def _cmd_validate(args) -> int:
    path = Path(args.path)
    if path.suffix == ".json":
        load_scenario(path)  # raises ScenarioError on any defect
        print(f"{path}: scenario ok")
        return 0
    trace = read_trace_csv(path)
    validation = validate_trace(trace)
    if not validation.ok:
        for v in validation.violations:
            print(f"{path}: {v}", file=sys.stderr)
        return 2
    print(f"{path}: trace ok ({len(trace)} samples at {trace.rate_hz} Hz)")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; data errors exit 2 (argparse default is 2 for both)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="joulemark",
        description=(
            "Simulate shunt-based energy measurement sessions, recover "
            "measurement windows from traces, and integrate them to joules."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="run a scenario; write trace CSV and ground-truth JSON")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out-trace", required=True, help="output trace CSV path")
    p.add_argument("--out-truth", required=True, help="output ground-truth JSON path")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="segment a trace and integrate each window")
    p.add_argument("trace", help="trace CSV file")
    p.add_argument("--mode", required=True, choices=[RELAY, TRIGGER])
    p.add_argument("--out", required=True, help="output report JSON path")
    p.add_argument("--skyline", default=None, help="also write the trace's power as a skyline CSV here")
    p.add_argument("--expected", default=None, help="GPIO command log CSV for hit/miss matching")
    defaults = SegmentationParams()
    p.add_argument("--threshold-w", type=float, default=defaults.relay_threshold_w, help="relay power threshold, watts")
    p.add_argument("--min-window", type=int, default=defaults.min_window_samples, help="minimum window length, samples")
    p.add_argument("--trigger-threshold-v", type=float, default=defaults.trigger_logic_threshold_v, help="trigger logic threshold, volts")
    p.add_argument("--match-tolerance-s", type=float, default=MATCH_TOLERANCE_S, help="hit/miss start-time tolerance, seconds")
    p.add_argument("--shunt-r", type=float, default=None, help="override shunt resistance, ohms")
    p.add_argument("--vf", type=float, default=None, help="override source voltage, volts")
    p.add_argument("--rate", type=float, default=None, help="override sampling rate, hertz")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("campaign", help="simulate+analyze a scenario n times; summarize joules")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--runs", type=int, required=True, help="number of repeated runs (>= 2)")
    p.add_argument("--out", required=True, help="output CSV path (samples..., mean, me)")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=None, help="override the scenario base seed")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("stats", help="summarize an existing list of joules")
    p.add_argument("values", help="file of whitespace/comma-separated joules, or - for stdin")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--out", default=None, help="also write the JSON summary here")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("validate", help="lint a trace CSV or scenario JSON")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
