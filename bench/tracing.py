"""Span recording around joulemark's public functions, from outside the package.

A traced job installs wrappers on the functions each job calls, records one
span per call (name, start, end, parent span, job id) in memory, and removes
the wrappers again, so untraced jobs run the package unmodified.  Self time
of a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT_SPAN = "job"

# (defining module, attribute path) of every function a job may call.
TRACED = (
    ("joulemark.simulate", "load_scenario"),
    ("joulemark.simulate", "simulate_session"),
    ("joulemark.trace", "write_trace_csv"),
    ("joulemark.trace", "read_trace_csv"),
    ("joulemark.trace", "validate_trace"),
    ("joulemark.instrument", "GpioCommandLog.read_csv"),
    ("joulemark.instrument", "GpioCommandLog.windows"),
    ("joulemark.acquisition", "open_source"),
    ("joulemark.acquisition", "read_all"),
    ("joulemark.segment", "segment_relay"),
    ("joulemark.segment", "segment_trigger"),
    ("joulemark.segment", "match_toggles"),
    ("joulemark.energy", "integrate_energy"),
    ("joulemark.stats", "summarize_campaign"),
)

# Modules that import the traced functions by name; their bindings are
# patched too, so calls made through them are seen.
IMPORTERS = ("joulemark", "joulemark.cli")


def _count_written_bytes(tracer, args, kwargs, result):
    tracer.count("trace.write_trace_csv.bytes", os.path.getsize(args[1]))


def _count_samples(name):
    def hook(tracer, args, kwargs, result):
        tracer.count(f"{name}.samples", len(result))

    return hook


def _count_windows(tracer, args, kwargs, result):
    tracer.count("segment.windows", len(result))


def _count_matches(tracer, args, kwargs, result):
    tracer.count("segment.match_toggles.expected", result.expected)
    tracer.count("segment.match_toggles.hits", result.hits)


def _count_call(tracer, args, kwargs, result):
    tracer.count("energy.integrate_energy.calls", 1)


HOOKS = {
    "trace.write_trace_csv": _count_written_bytes,
    "trace.read_trace_csv": _count_samples("trace.read_trace_csv"),
    "acquisition.read_all": _count_samples("acquisition.read_all"),
    "segment.segment_relay": _count_windows,
    "segment.segment_trigger": _count_windows,
    "segment.match_toggles": _count_matches,
    "energy.integrate_energy": _count_call,
}


class Tracer:
    """In-memory spans and per-job counters of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.job_id: int | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent, self.job_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def count(self, key: str, value: float) -> None:
        self.counts[self.job_id][key] += value

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def job(self, job_id: int):
        """Trace one job: install the wrappers, open the root span, undo both."""
        self.job_id = job_id
        restore = self._install()
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)
            self.job_id = None

    def _install(self) -> list[tuple[object, str, object]]:
        restore = []
        importers = [importlib.import_module(m) for m in IMPORTERS]
        for module_name, path in TRACED:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if owners:
                continue  # methods are patched on their class only
            for other in importers:
                if vars(other).get(attr) is raw:
                    restore.append((other, attr, raw))
                    setattr(other, attr, wrapped)
        return restore

    def job_self_times(self) -> dict[int, dict[str, float]]:
        """Self time per span name, summed within each job."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job_id in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, job_id) in enumerate(self.spans):
            out[job_id][name] += (end - start) - child_time[i]
        return out

    def job_wall_times(self) -> dict[int, float]:
        return {
            job_id: end - start
            for name, start, end, parent, job_id in self.spans
            if name == ROOT_SPAN
        }

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        Path(path).write_text(
            json.dumps({"spans": [dict(zip(keys, s)) for s in self.spans]}) + "\n"
        )


class NullTracer:
    """Tracer interface for untraced jobs: records nothing."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, key: str, value: float) -> None:
        pass
