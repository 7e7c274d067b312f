"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seed 6162 \
        --workloads trigger-toggles relay-file --seconds 25 [--json out.json]

Each pair runs ``bench/run.py --trace 0`` once in each checkout, the parent
first in even pairs and the change first in odd ones, so that a drift of the
host's speed does not favour one side.  For each workload and end-to-end
metric it prints each side's median, first and third quartile, and the
pairs in which the change was better (ties count for neither); ``--json``
writes the same table, and every run's metrics for both sides.  A gain
holds where the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's quartile distance.  Beside it stand the no-regression verdicts, each against
the metric's ``bound`` in ``BENCHMARK.json`` as a fraction of the parent's
median: ``worse`` where the change's median is worse than the parent's by
more than the bound, and ``unresolved`` where the parent's quartile distance
exceeds the bound, unless every change run reads better than every parent
run.  A run that exits in error, prints no result or reports a failed job
stops the script, so that every pair compares two correct runs.  So does a
``BENCHMARK.json``, or a file under ``bench/``, that differs between the
two checkouts: a comparison measures one benchmark.  The table and the
JSON file also give each checkout's ``wc -l src/joulemark/*.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one ``bench/run.py`` run, from its last output line."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload}: {result['failed']} of {result['attempted']} jobs failed\n{done.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def benchmark_difference(parent: Path, change: Path) -> str | None:
    """The first of ``BENCHMARK.json`` and the files under ``bench/`` (but
    for ``__pycache__``) that differs between the two checkouts or is in
    one only, as a path relative to the checkout, or None."""
    def files(root: Path) -> set[str]:
        found = [p.relative_to(root) for p in [root / "BENCHMARK.json", *(root / "bench").rglob("*")] if p.is_file()]
        return {p.as_posix() for p in found if "__pycache__" not in p.parts}

    for name in sorted(files(parent) | files(change)):
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            return name
    return None


def source_lines(checkout: Path) -> int:
    """``wc -l src/joulemark/*.py`` of the checkout: the newlines of those files."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "joulemark").glob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[dict], change: list[dict], spec: dict[str, dict]) -> list[dict]:
    """One row per metric: each side's quartiles, the change's wins and the
    verdicts; ``spec`` maps a metric to its ``better`` and ``bound``."""
    rows = []
    for name in parent[0]:
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        sign = -1 if spec[name]["better"] == "lower" else 1
        bound = spec[name]["bound"]
        wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
        separated = min(sign * a for a in after) > max(sign * b for b in before)
        rows.append({
            "metric": name, "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "change_wins": wins, "pairs": len(before),
            "gain": wins >= 0.9 * len(before) and sign * (cm - pm) > p3 - p1,
            "worse": sign * (pm - cm) > bound * abs(pm),
            "unresolved": p3 - p1 > bound * abs(pm) and not separated,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=6162)
    parser.add_argument("--workloads", nargs="+", default=["relay-file", "trigger-toggles", "relay-stream"])
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    differing = benchmark_difference(args.parent, args.change)
    if differing is not None:
        raise SystemExit(f"{differing} differs between {args.parent} and {args.change}: a comparison measures one benchmark")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    lines = {"parent": source_lines(args.parent), "change": source_lines(args.change)}
    print(f"wc -l src/joulemark/*.py: parent {lines['parent']}, change {lines['change']}")
    table, every_run = {}, {}
    for workload in args.workloads:
        runs = every_run[workload] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_once(checkout, workload, args.seed, args.seconds))
            print(f"{workload} pair {pair + 1}: job_s parent {runs['parent'][-1]['job_s']:.4f} "
                  f"change {runs['change'][-1]['job_s']:.4f}", file=sys.stderr)
        table[workload] = compare(runs["parent"], runs["change"], metrics)
        print(f"{workload} (seed {args.seed}, {args.pairs} pairs, {args.seconds:g} s runs)")
        print(f"  {'metric':18s} {'parent Q1/median/Q3':>32s} {'change Q1/median/Q3':>32s}  wins, verdicts")
        for row in table[workload]:
            parent = f"{row['parent_q1']:.4g}/{row['parent_median']:.4g}/{row['parent_q3']:.4g}"
            change = f"{row['change_q1']:.4g}/{row['change_median']:.4g}/{row['change_q3']:.4g}"
            verdicts = "".join(f"  {verdict}" for verdict in ("gain", "worse", "unresolved") if row[verdict])
            print(f"  {row['metric']:18s} {parent:>32s} {change:>32s}  {row['change_wins']}/{row['pairs']}{verdicts}")
    if args.json:
        document = {"seed": args.seed, "seconds": args.seconds, "source_lines": lines, "workloads": table, "runs": every_run}
        args.json.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
