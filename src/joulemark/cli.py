"""Command-line front end: simulate sessions, analyze traces, run repeated
campaigns, summarize joule lists, and lint inputs.

Exit codes: 0 success (including analyses that find no windows), 1 usage
error, 2 data or validation error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import trace as trace_module
from .instrument import GpioCommandLog
from .jsonio import save_json, write_json
from .segment import SegmentationParams, analyze
from .simulate import _session_samples, load_scenario, simulate_session
from .stats import InsufficientSamplesError, summarize_campaign, t_critical
from .trace import (
    RELAY,
    TRIGGER,
    PowerTrace,
    ShuntConfig,
    read_trace_csv,
    sample_to_power,
    validate_trace,
    write_csv_rows,
    write_trace_csv,
)


# Buckets of the skyline's M4 envelope (U. Jugel et al., "M4: A
# Visualization-Oriented Time Series Data Aggregation", PVLDB 7(10), 2014):
# a line plot of it at this many pixel columns draws the same picture
# as one of every sample.
SKYLINE_BUCKETS = 4000


def _skyline_rows(vs: np.ndarray, buckets: int) -> np.ndarray:
    """The increasing sample indices of the M4 envelope of ``vs``: for each
    bucket of s = ceil(n / buckets) consecutive samples (the last may be
    shorter), its first, last, smallest and largest sample (the first of
    equal ones), each once.  When s <= 2 that is every sample."""
    n = len(vs)
    s = max(1, -(-n // buckets))
    first = np.arange(0, n, s)
    picks = np.empty((len(first), 4), dtype=np.int64)
    picks[:, 0], picks[:, 3] = first, np.minimum(first + s, n) - 1
    # argmin copies a read-only array whole, so it gets copies of about
    # CHUNK_ROWS samples, a short last bucket padded with its last sample
    # (argmin and argmax return the first of equal values)
    per = max(1, trace_module.CHUNK_ROWS // s) * s
    for start in range(0, n, per):
        block = vs[start : start + per]
        block = np.pad(block, (0, -len(block) % s), mode="edge").reshape(-1, s)
        rows = picks[start // s : start // s + len(block)]
        rows[:, 1] = rows[:, 0] + block.argmin(axis=1)
        rows[:, 2] = rows[:, 0] + block.argmax(axis=1)
    # buckets are disjoint and in order, so only a bucket's own picks repeat
    # (np.unique would build a hash table, which leaves the heap larger)
    picks.sort(axis=1)
    keep = np.ones(picks.shape, dtype=bool)
    keep[:, 1:] = picks[:, 1:] != picks[:, :-1]
    return picks[keep]


def _write_skyline_csv(trace: PowerTrace, path: Path) -> None:
    """Write the trace's power at the rows of its M4 envelope.  vf / rs > 0
    and rounding is monotone, so the extremes of vs are those of the
    watts, and watts are computed for the chosen rows only."""
    rows = _skyline_rows(trace.vs, SKYLINE_BUCKETS)
    with path.open("w", newline="\n") as f:
        f.write("t_s,watts\n")
        write_csv_rows(f, trace.rate_hz, rows, [sample_to_power(trace.vs[rows], trace.shunt)])


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
    trace = read_trace_csv(sys.stdin if args.trace == "-" else args.trace)
    if args.rate is not None or args.vf is not None or args.shunt_r is not None:
        shunt = ShuntConfig(
            vf=args.vf if args.vf is not None else trace.shunt.vf,
            rs=args.shunt_r if args.shunt_r is not None else trace.shunt.rs,
        )
        rate = args.rate if args.rate is not None else trace.rate_hz
        # the read trace's arrays are read-only and go no further: share them
        trace = PowerTrace._adopt(rate, trace.vs, trace.trig, shunt)
    params = SegmentationParams(
        relay_threshold_w=args.threshold_w,
        min_window_samples=args.min_window,
        trigger_logic_threshold_v=args.trigger_threshold_v,
        match_tolerance_s=args.match_tolerance_s,
    )
    expected = GpioCommandLog.read_csv(args.expected) if args.expected else None
    report = analyze(trace, args.mode, params, expected)
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
    if args.runs < 2:  # before any run is simulated
        raise InsufficientSamplesError(
            f"campaign summary needs at least 2 samples, got {max(args.runs, 0)}"
        )
    t_critical(args.runs - 1, args.confidence)  # raises on a confidence outside (0, 1)
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
    replace(report, campaign=summary).write_json(sys.stdout)
    return 0


def _read_joules(path_arg: str) -> list[float]:
    text = sys.stdin.read() if path_arg == "-" else Path(path_arg).read_text()
    joules = []
    for position, token in enumerate(text.replace(",", " ").split(), start=1):
        try:
            joules.append(float(token))
        except ValueError:
            raise ValueError(f"{path_arg}: value {position} is not a number: {token!r}") from None
    return joules


def _cmd_stats(args) -> int:
    summary = summarize_campaign(_read_joules(args.values), args.confidence).to_json_dict()
    if args.out:
        save_json(summary, args.out)
    write_json(summary, sys.stdout)
    return 0


def _cmd_validate(args) -> int:
    path = Path(args.path)
    if path.suffix == ".json":
        # raises ScenarioError on any defect, and on a session too long to simulate
        _session_samples(load_scenario(path))
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
    p.add_argument("trace", help="trace CSV file, or - for standard input")
    p.add_argument("--mode", required=True, choices=[RELAY, TRIGGER])
    p.add_argument("--out", required=True, help="output report JSON path")
    p.add_argument("--skyline", default=None, help="also write the trace's power as a plot-sized skyline CSV here")
    p.add_argument("--expected", default=None, help="GPIO command log CSV for hit/miss matching")
    defaults = SegmentationParams()
    p.add_argument("--threshold-w", type=float, default=defaults.relay_threshold_w, help="relay power threshold, watts")
    p.add_argument("--min-window", type=int, default=defaults.min_window_samples, help="minimum window length, samples")
    p.add_argument("--trigger-threshold-v", type=float, default=defaults.trigger_logic_threshold_v, help="trigger logic threshold, volts")
    p.add_argument("--match-tolerance-s", type=float, default=defaults.match_tolerance_s, help="hit/miss start-time tolerance, seconds")
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
    # numpy's MemoryError names the array it could not allocate
    except (ValueError, OSError, MemoryError) as exc:
        for line in str(exc).split("\n"):  # analyze() gives a line per violation
            print(f"error: {line}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
