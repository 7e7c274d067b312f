"""Benchmark of joulemark's user paths: one workload per run.

    python3 bench/run.py --workload relay-file --seed 1 --seconds 25 --trace 0

Run it from the root of a joulemark checkout; it imports the package from
``src/``.  A run

1. sets the workload up SETUP_REPEATS times, each in a fresh interpreter that
   imports joulemark and writes the inputs drawn from ``--seed`` into
   ``.bench_work/<workload>/``; ``setup_s`` is their median time;
2. starts one more interpreter that only runs jobs: one warm-up job, then
   jobs one at a time (a closed loop with one client) for ``--seconds``,
   checking each job's output against the simulator's ground truth;
3. prints the metrics, one per line with its unit, and as its last line a
   JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are wall times scaled to a reference host speed by probe.py.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the job process alternates untraced and traced jobs and reports per-layer
self times from the traced ones; the spans are written to
``.bench_work/<workload>/spans.json``.  README.md in this directory says why
each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("relay-file", "trigger-toggles", "relay-stream")
SETUP_REPEATS = 3
MIN_JOBS = 3  # timed jobs per untraced run
MIN_TRACED_PAIRS = 2  # untraced + traced job pairs per traced run
RUN_LIMIT_S = 150.0  # no job is started that would end later than this
TIMEOUT_S = 175.0  # a run ends within this, whatever its children do

END_TO_END = {
    "job_s": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "energy_err_pct": "%",
    "window_agreement": "ratio",
    "pass_ratio": "ratio",
}

# Per-layer metrics: `<span>.busy_s` / `<span>.self_s` are a span's self
# time per job; the rest are derived in layer_metrics or are counters that
# tracing.py records at the same call boundaries.
PER_LAYER = {
    "cli.simulate.self_s": "s",
    "cli.analyze.self_s": "s",
    "cli.analyze.output_bytes": "B",
    "simulate.load_scenario.busy_s": "s",
    "simulate.simulate_session.busy_s": "s",
    "trace.write_trace_csv.busy_s": "s",
    "trace.write_trace_csv.bytes": "B",
    "trace.read_trace_csv.busy_s": "s",
    "trace.read_trace_csv.samples_per_s": "samples/s",
    "trace.validate_trace.busy_s": "s",
    "instrument.GpioCommandLog.read_csv.busy_s": "s",
    "instrument.GpioCommandLog.windows.busy_s": "s",
    "acquisition.open_source.busy_s": "s",
    "acquisition.read_all.busy_s": "s",
    "acquisition.read_all.samples_per_s": "samples/s",
    "segment.segment_relay.busy_s": "s",
    "segment.segment_trigger.busy_s": "s",
    "segment.windows": "count",
    "segment.match_toggles.busy_s": "s",
    "segment.match_toggles.hit_ratio": "ratio",
    "energy.integrate_energy.busy_s": "s",
    "energy.integrate_energy.calls": "count",
    "stats.summarize_campaign.busy_s": "s",
    "job.self_s": "s",
    "tracing.job_s": "s",
    "tracing.overhead_pct": "%",
    "tracing.accounted_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("run", "setup", "jobs"), default="run",
                   help=argparse.SUPPRESS)
    p.add_argument("--deadline", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_joulemark():
    """Import joulemark from this checkout's src/, never from elsewhere."""
    import joulemark

    if SRC.resolve() not in Path(joulemark.__file__).resolve().parents:
        raise SystemExit(f"bench: joulemark imported from {joulemark.__file__}, not {SRC}")


# --- child processes ---------------------------------------------------------


def role_setup(args, work: Path) -> int:
    from probe import SpeedProbe

    with SpeedProbe() as probe:
        import_joulemark()
        from workloads import WORKLOADS

        WORKLOADS[args.workload].set_up(args.seed, work)
    print(repr(probe.scale()))
    return 0


def role_jobs(args, work: Path) -> int:
    import gc
    import resource

    import_joulemark()
    from probe import SpeedProbe
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, samples_per_channel, score

    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    untraced = NullTracer()
    probe = SpeedProbe()
    tally = {"attempted": 0, "failed": 0, "problems": [], "digests": [],
             "energy_err_pct": [], "window_agreement": [], "traced": {}}

    def check() -> list[str]:
        output, truth = workload.collect(work)
        result = score(output, truth)
        if output.digests not in tally["digests"]:
            tally["digests"].append(output.digests)
        tally["energy_err_pct"].append(result.energy_err_pct)
        tally["window_agreement"].append(result.window_agreement)
        return result.problems

    def job(traced: bool) -> tuple[float, float]:
        """One checked job; returns its wall time and the host-speed scale."""
        gc.collect()
        tally["attempted"] += 1
        job_id = tally["attempted"]
        wall = None
        start = time.perf_counter()
        try:
            with probe:
                if traced:
                    with tracer.job(job_id):
                        workload.run_job(work, tracer)
                else:
                    workload.run_job(work, untraced)
            wall = time.perf_counter() - start
            problems = check()
        except Exception:  # a failing job is counted, and the run goes on
            if wall is None:
                wall = time.perf_counter() - start
            problems = [traceback.format_exc(limit=3)]
        if problems:
            tally["failed"] += 1
            tally["problems"].extend(problems)
        if traced:
            tally["traced"][job_id] = probe.scale()
        return wall, probe.scale()

    last, _ = job(traced=False)  # warm-up: caches, page cache, lazy imports
    walls: list[float] = []
    scales: list[float] = []
    pairs: list[tuple[float, float]] = []  # scaled (untraced, traced) job times
    start = time.perf_counter()
    while True:
        enough = len(walls) >= (MIN_TRACED_PAIRS if args.trace else MIN_JOBS)
        if enough and time.perf_counter() - start >= args.seconds:
            break
        if walls and time.time() + last * (1 + args.trace) > args.deadline:
            break
        last, scale = job(traced=False)
        walls.append(last)
        scales.append(scale)
        if args.trace:
            traced_wall, traced_scale = job(traced=True)
            pairs.append((last * scale, traced_wall * traced_scale))

    result = {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "problems": tally["problems"][:10],
        "digests": tally["digests"],
        "wall_s": walls,
        "scale": scales,
        "samples": samples_per_channel(work),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "energy_err_pct": _median(tally["energy_err_pct"]),
        "window_agreement": _median(tally["window_agreement"]),
    }
    if args.trace:
        result["per_layer"] = layer_metrics(tracer, tally["traced"], pairs)
        tracer.write(work / "spans.json")
    (work / "result.json").write_text(json.dumps(result) + "\n")
    return 0


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def layer_metrics(tracer, scales: dict[int, float], pairs) -> dict:
    """Per-layer metrics: medians over the traced jobs, times at reference speed.

    ``scales`` maps each traced job to its host-speed scale.  ``pairs`` holds
    the scaled times of each untraced job and the traced job run after it;
    the overhead is the median over pairs, so both sides of a pair see the
    same phase of the host.
    """
    self_times = tracer.job_self_times()
    walls = tracer.job_wall_times()

    def per_job(fn) -> float:
        return _median([
            fn({span: t * k for span, t in self_times[j].items()}, tracer.counts[j],
               walls[j] * k)
            for j, k in scales.items()
        ])

    def rate(span):
        return lambda s, c, w: c[f"{span}.samples"] / s[span] if s.get(span) else 0.0

    def share(s, c, w):
        return (w - s["job"]) / w * 100.0

    def hit_ratio(s, c, w):
        expected = c["segment.match_toggles.expected"]
        return c["segment.match_toggles.hits"] / expected if expected else 0.0

    derived = {
        "trace.read_trace_csv.samples_per_s": rate("trace.read_trace_csv"),
        "acquisition.read_all.samples_per_s": rate("acquisition.read_all"),
        "segment.match_toggles.hit_ratio": hit_ratio,
        "tracing.accounted_pct": share,
        "tracing.job_s": lambda s, c, w: w,
    }
    out = {}
    for name in PER_LAYER:
        if name in derived:
            out[name] = per_job(derived[name])
        elif name.endswith((".busy_s", ".self_s")):
            out[name] = per_job(lambda s, c, w: s.get(name[: -len(".busy_s")], 0.0))
        elif name != "tracing.overhead_pct":
            out[name] = per_job(lambda s, c, w: c[name])
    out["tracing.overhead_pct"] = statistics.median((t / u - 1.0) * 100.0 for u, t in pairs)
    return out


# --- the run ------------------------------------------------------------------


def child(args, role: str, timeout: float, **kw) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--deadline", repr(args.deadline)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout, **kw)


def role_run(args, work: Path) -> int:
    began = time.perf_counter()
    args.deadline = time.time() + RUN_LIMIT_S
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    def remaining() -> float:
        return max(1.0, TIMEOUT_S - (time.perf_counter() - began))

    setup_walls, setup_scales = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = child(args, "setup", remaining(), stdout=subprocess.PIPE, text=True)
        setup_walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            print(f"bench: set-up exited {done.returncode}", file=sys.stderr)
            return 1
        setup_scales.append(float(done.stdout))
    with open(work / "jobs.log", "w") as log:
        done = child(args, "jobs", remaining(), stdout=log)
    if done.returncode != 0:
        print(f"bench: job process exited {done.returncode}; see {work / 'jobs.log'}",
              file=sys.stderr)
        return 1
    r = json.loads((work / "result.json").read_text())
    if math.isnan(r["energy_err_pct"]):
        for problem in r["problems"]:
            print(problem, file=sys.stderr)
        print("bench: no job produced a checkable output; nothing measured", file=sys.stderr)
        return 1

    job_s = statistics.median(w * k for w, k in zip(r["wall_s"], r["scale"]))
    print(f"{args.workload} seed {args.seed}: {r['attempted']} jobs "
          f"(1 warm-up, {len(r['wall_s'])} timed untraced), {r['failed']} failed")
    for problem in r["problems"]:
        print(f"  problem: {problem.strip()}")
    for digests in r["digests"]:
        for key, digest in digests.items():
            print(f"  output {key} {digest}")
    if args.trace:
        values, units = r["per_layer"], PER_LAYER
    else:
        values = {
            "job_s": job_s,
            "samples_per_s": r["samples"] / job_s,
            "peak_rss_mb": r["peak_rss_mb"],
            "setup_s": statistics.median(
                w * k for w, k in zip(setup_walls, setup_scales)
            ),
            "energy_err_pct": r["energy_err_pct"],
            "window_agreement": r["window_agreement"],
            "pass_ratio": (r["attempted"] - r["failed"]) / r["attempted"],
        }
        units = END_TO_END
        print(f"  fail_ratio {r['failed'] / r['attempted']} ratio "
              f"({r['failed']} of {r['attempted']} jobs)")
        print(f"  samples {r['samples']} per channel; job_s is the median of "
              f"{len(r['wall_s'])} jobs; setup_s of {SETUP_REPEATS} set-ups")
        print(f"  unscaled wall times: job {statistics.median(r['wall_s'])!r} s, "
              f"set-up {statistics.median(setup_walls)!r} s; host-speed scale "
              f"{statistics.median(r['scale'])!r} (jobs), "
              f"{statistics.median(setup_scales)!r} (set-ups)")
    metrics = {}
    for name, unit in units.items():
        print(f"  {name} {values[name]!r} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "joulemark" / "__init__.py").is_file():
        print(f"bench: no joulemark sources under {SRC}; run from the root of a "
              "joulemark checkout", file=sys.stderr)
        return 2
    work = WORK / args.workload
    role = {"run": role_run, "setup": role_setup, "jobs": role_jobs}[args.role]
    try:
        return role(args, work)
    except subprocess.TimeoutExpired as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
