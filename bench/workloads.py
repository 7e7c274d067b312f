"""The benchmark's workloads: inputs drawn from a seed, one job each, and the
check of a job's output against the simulator's ground truth.

A job is one pass of a user path through joulemark's public entry points:
``joulemark.cli.main`` for the file workloads, the library functions for
the stream workload.  Functions are looked up on their module at call time
so that a traced job sees them through the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import joulemark
import joulemark.cli

LOAD_W = 9.0

# relay-file / relay-stream: 40 kHz, 30 s, 50 windows of 0.3 s, one per 0.6 s
# slot, each starting at a seed-drawn offset of up to 0.1 s into its slot.
RELAY_DURATION_S = 30.0
RELAY_WINDOWS = 50
RELAY_SLOT_S = 0.6
RELAY_WINDOW_S = 0.3

# trigger-toggles: 20 kHz per channel, events uniform on 0.2-2 ms separated by
# gaps uniform on 0.5-2 ms.  0.2 ms is 4 samples: a one-sample window makes
# analyze fail with DegenerateWindowError (see README.md, known defects).
TRIGGER_TOGGLES = 8000
TRIGGER_EVENT_S = (0.2e-3, 2e-3)
TRIGGER_GAP_S = (0.5e-3, 2e-3)


class JobError(RuntimeError):
    """A job step returned a failure instead of raising."""


def relay_scenario(seed: int) -> joulemark.Scenario:
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, 0.1, RELAY_WINDOWS)
    cmds = []
    for k, offset in enumerate(offsets.tolist()):
        on = 0.15 + k * RELAY_SLOT_S + offset
        cmds.append(joulemark.GpioCommand(on, 40, joulemark.ACTIVATE))
        cmds.append(joulemark.GpioCommand(on + RELAY_WINDOW_S, 40, joulemark.DEACTIVATE))
    return joulemark.Scenario.create(
        duration_s=RELAY_DURATION_S,
        circuit=joulemark.RELAY,
        workload=joulemark.WorkloadProfile.constant(LOAD_W, 0.0, RELAY_DURATION_S),
        gpio=joulemark.GpioCommandLog(tuple(cmds)),
        seed=seed,
    )


def trigger_scenario(seed: int) -> joulemark.Scenario:
    rng = np.random.default_rng(seed)
    events = rng.uniform(*TRIGGER_EVENT_S, TRIGGER_TOGGLES).tolist()
    gaps = rng.uniform(*TRIGGER_GAP_S, TRIGGER_TOGGLES).tolist()
    cmds = []
    cursor = 0.0
    for event, gap in zip(events, gaps):
        cursor += gap
        cmds.append(joulemark.GpioCommand(cursor, 40, joulemark.ACTIVATE))
        cursor += event
        cmds.append(joulemark.GpioCommand(cursor, 40, joulemark.DEACTIVATE))
    duration = cursor + TRIGGER_GAP_S[1]
    return joulemark.Scenario.create(
        duration_s=duration,
        circuit=joulemark.TRIGGER,
        workload=joulemark.WorkloadProfile.constant(LOAD_W, 0.0, duration),
        gpio=joulemark.GpioCommandLog(tuple(cmds)),
        seed=seed,
    )


# --- outputs and their check -------------------------------------------------


@dataclass
class JobOutput:
    windows: list[tuple[int, int]]
    joules: list[float]
    # truth entry index -> recovered window index (None: reported as a miss)
    verdicts: list[int | None] | None
    digests: dict[str, str]
    extra_problems: list[str]


@dataclass
class Score:
    problems: list[str]
    energy_err_pct: float
    window_agreement: float


def read_truth(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def score(output: JobOutput, truth: dict) -> Score:
    """Compare a job's windows, verdicts and joules with the ground truth.

    Joules must lie within 2 sample periods of the constant load's energy:
    each recovered edge sits up to one sample from the commanded edge, and
    the estimator integrates one interval fewer than the window's samples.
    """
    rate = truth["rate_hz"]
    tolerance_j = 2.0 * LOAD_W / rate * (1 + 1e-6)
    entries = truth["entries"]
    problems = list(output.extra_problems)
    expected = [tuple(e["realized"]) for e in entries if e["hit"] and e["realized"]]
    if len(output.windows) != len(expected):
        problems.append(f"{len(output.windows)} windows, truth has {len(expected)}")
    verdicts = output.verdicts
    if verdicts is None:  # no matcher in this path: pair windows by exact edges
        index = {w: i for i, w in enumerate(output.windows)}
        verdicts = [index.get(tuple(e["realized"] or ())) for e in entries]
    agree = 0
    errors = []
    for entry, found in zip(entries, verdicts):
        realized = tuple(entry["realized"]) if entry["hit"] and entry["realized"] else None
        got = output.windows[found] if found is not None else None
        if got == realized:
            agree += 1
        if realized is None or found is None:
            continue
        err = output.joules[found] - entry["true_joules"]
        errors.append(abs(err) / entry["true_joules"] * 100.0)
        if abs(err) > tolerance_j:
            problems.append(
                f"toggle at {entry['begin_s']!r}s: {output.joules[found]!r} J, "
                f"truth {entry['true_joules']!r} J"
            )
    if len(verdicts) != len(entries):
        problems.append(f"{len(verdicts)} verdicts for {len(entries)} toggles")
    if agree != len(entries):
        problems.append(f"{len(entries) - agree} of {len(entries)} toggles disagree")
    return Score(
        problems=problems[:5],
        energy_err_pct=math.fsum(errors) / len(errors) if errors else math.nan,
        window_agreement=agree / len(entries) if entries else math.nan,
    )


def samples_per_channel(work: Path) -> int:
    """Samples per channel of the workload's trace, as simulate_session sizes it."""
    scenario = joulemark.load_scenario(work / "scenario.json")
    return int(round(scenario.duration_s * joulemark.channel_rate(scenario.config)))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --- workloads ---------------------------------------------------------------


class FileWorkload:
    """simulate -> trace CSV + truth JSON, then analyze --expected, via the CLI."""

    def __init__(self, name: str, circuit: str, make_scenario):
        self.name = name
        self.circuit = circuit
        self.make_scenario = make_scenario

    def set_up(self, seed: int, work: Path) -> None:
        scenario = self.make_scenario(seed)
        joulemark.save_scenario(scenario, work / "scenario.json")
        scenario.gpio.write_csv(work / "expected.csv")

    def run_job(self, work: Path, tracer) -> None:
        with tracer.span("cli.simulate"):
            rc = joulemark.cli.main([
                "simulate", str(work / "scenario.json"),
                "--out-trace", str(work / "trace.csv"),
                "--out-truth", str(work / "truth.json"),
            ])
        if rc != 0:
            raise JobError(f"joulemark simulate exited {rc}")
        with tracer.span("cli.analyze"):
            rc = joulemark.cli.main([
                "analyze", str(work / "trace.csv"),
                "--mode", self.circuit,
                "--expected", str(work / "expected.csv"),
                "--out", str(work / "report.json"),
                "--skyline", str(work / "skyline.csv"),
            ])
        if rc != 0:
            raise JobError(f"joulemark analyze exited {rc}")
        tracer.count(
            "cli.analyze.output_bytes",
            (work / "report.json").stat().st_size + (work / "skyline.csv").stat().st_size,
        )

    def collect(self, work: Path) -> tuple[JobOutput, dict]:
        report = json.loads((work / "report.json").read_text())
        truth = read_truth(work / "truth.json")
        windows = [
            (r["window"]["begin_idx"], r["window"]["end_idx"]) for r in report["results"]
        ]
        verdicts = [v["window_index"] if v["hit"] else None
                    for v in report["hit_miss"]["verdicts"]]
        output = JobOutput(
            windows=windows,
            joules=[r["energy"]["joules"] for r in report["results"]],
            verdicts=verdicts,
            digests={
                "report_sha256": _sha256(work / "report.json"),
                "skyline_sha256": _sha256(work / "skyline.csv"),
            },
            extra_problems=[],
        )
        return output, truth


class StreamWorkload:
    """The relay-file trace fed as a text stream through the acquisition layer."""

    name = "relay-stream"
    circuit = joulemark.RELAY

    def set_up(self, seed: int, work: Path) -> None:
        scenario = relay_scenario(seed)
        joulemark.save_scenario(scenario, work / "scenario.json")
        trace, truth = joulemark.simulate_session(scenario)
        joulemark.write_trace_csv(trace, work / "trace.csv")
        truth.write_json(work / "truth.json")

    def run_job(self, work: Path, tracer) -> None:
        jm = joulemark
        with open(work / "trace.csv", "r") as f:
            stream = jm.open_source(
                jm.AcquisitionConfig(channels=1, source=jm.StreamSource(f))
            )
            trace = jm.read_all(stream)
        validation = jm.validate_trace(trace)
        if not validation.ok:
            raise JobError(f"trace invalid: {validation.violations[0]}")
        windows = jm.segment_relay(trace)
        results = [jm.integrate_energy(trace, w) for w in windows]
        summary = jm.summarize_campaign([r.joules for r in results])
        self._last = (trace, results, summary)

    def collect(self, work: Path) -> tuple[JobOutput, dict]:
        trace, results, summary = self._last
        self._last = None
        joules = [r.joules for r in results]
        problems = []
        mean = math.fsum(joules) / len(joules)
        if summary.n != len(joules) or abs(summary.mean_j - mean) > 1e-9 * abs(mean):
            problems.append(f"campaign mean {summary.mean_j!r} J, windows give {mean!r} J")
        canonical = json.dumps(
            [[r.window.begin, r.window.end, r.joules] for r in results]
        ).encode()
        output = JobOutput(
            windows=[(r.window.begin, r.window.end) for r in results],
            joules=joules,
            verdicts=None,
            digests={"results_sha256": hashlib.sha256(canonical).hexdigest()},
            extra_problems=problems,
        )
        return output, read_truth(work / "truth.json")


WORKLOADS = {
    w.name: w
    for w in (
        FileWorkload("relay-file", joulemark.RELAY, relay_scenario),
        FileWorkload("trigger-toggles", joulemark.TRIGGER, trigger_scenario),
        StreamWorkload(),
    )
}
