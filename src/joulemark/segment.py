"""Measurement-window recovery from captured traces.

Relay-circuit traces read ~0 V while the circuit is idle, so windows are
maximal runs of above-threshold power; run-length filtering provides the
hysteresis.  Trigger-circuit traces carry the GPIO logic level on a second
channel, so windows are simply the high-runs of that channel.
Recovered windows can then be matched against the commanded toggle log to
classify each expected toggle as a hit or a miss.  ``analyze`` runs the
whole pipeline: segment by mode, integrate each window, match.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import TextIO

import numpy as np

from . import energy, jsonio
from . import trace as trace_module
from .instrument import GpioCommandLog
from .jsonio import Records
from .stats import CampaignSummary
from .trace import (
    RELAY, TRIGGER, PowerTrace, SampleClock, ShuntConfig, Windows, fields_equal, hold_number, number, row_blocks, sample_to_power
)


class WrongModeError(ValueError):
    """Trace channel layout does not match the requested segmentation mode."""


@dataclass(frozen=True)
class SegmentationParams:
    """Thresholds for window recovery, and the tolerance for matching the
    recovered windows to the commanded toggles.

    relay_threshold_w defaults to 5x the documented idle-noise bound so
    bounded noise can never cross it; min_window_samples, an integer >= 1,
    provides run-length hysteresis for the relay mode.  match_tolerance_s
    is how far a window's start may lie from its commanded start: 2x the
    relay latency.  Each field is held by :func:`~joulemark.trace.number`'s
    rule.
    """

    relay_threshold_w: float = 0.005
    min_window_samples: int = 4
    trigger_logic_threshold_v: float = 0.9
    match_tolerance_s: float = 1e-3

    def __post_init__(self):
        hold_number(self, "relay_threshold_w", "relay threshold must be finite and positive, got {}", ok=lambda w: w > 0)
        hold_number(self, "min_window_samples", "min window length must be an integer >= 1, got {!r}", ok=lambda n: n >= 1, kind=int)
        hold_number(self, "trigger_logic_threshold_v", "trigger logic threshold must be finite, got {}")
        hold_number(self, "match_tolerance_s", "match tolerance must be finite and >= 0, got {}", ok=lambda s: s >= 0)


def _runs(mask: np.ndarray) -> Windows:
    """Maximal [start, end) runs of True in a boolean array."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.diff(padded.astype(np.int8))
    return Windows(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))


def segment_relay(trace: PowerTrace, params: SegmentationParams = SegmentationParams()) -> Windows:
    """Windows of a relay-circuit (single-channel) trace.

    A window is a maximal run of samples with |power| >= relay_threshold_w;
    runs separated by fewer than min_window_samples of idle are merged, and
    runs shorter than min_window_samples are dropped.
    """
    if trace.has_trigger:
        raise WrongModeError(
            "relay segmentation expects a single-channel trace; "
            "this trace has a trigger channel"
        )
    # power in blocks, so that no float temporary as long as the trace is made
    active = np.empty(len(trace), dtype=bool)
    for start, stop in row_blocks(len(trace)):
        power = sample_to_power(trace.vs[start:stop], trace.shunt)
        active[start:stop] = np.abs(power) >= params.relay_threshold_w
    runs = _runs(active)
    # a run that follows the previous run by a short gap joins it: drop its
    # begin and the previous run's end
    joins = np.flatnonzero(runs.begin[1:] - runs.end[:-1] < params.min_window_samples)
    begin, end = np.delete(runs.begin, joins + 1), np.delete(runs.end, joins)
    keep = end - begin >= params.min_window_samples
    return Windows(begin[keep], end[keep])


def segment_trigger(trace: PowerTrace, params: SegmentationParams = SegmentationParams()) -> Windows:
    """Windows of a trigger-circuit (two-channel) trace.

    The trigger channel is binarized at trigger_logic_threshold_v; every
    maximal high-run becomes one window.  A trace ending mid-high-run closes
    its last window at the trace end, so that ``windows.end[-1] ==
    len(trace)``.
    """
    if not trace.has_trigger:
        raise WrongModeError(
            "trigger segmentation expects a two-channel trace; "
            "this trace has no trigger channel"
        )
    return _runs(trace.trig >= params.trigger_logic_threshold_v)


@dataclass(frozen=True, eq=False)
class HitMissReport:
    """One row per commanded toggle pair, in the order of
    ``GpioCommandLog.windows()``: its ``port`` (int64), its commanded
    ``begin_s`` and ``end_s`` (float64), and the ``window_index`` (int64) of
    the window it matched, -1 for a miss."""

    port: np.ndarray
    begin_s: np.ndarray
    end_s: np.ndarray
    window_index: np.ndarray

    def __eq__(self, other) -> bool:
        return fields_equal(self, other) if isinstance(other, HitMissReport) else NotImplemented

    @property
    def expected(self) -> int:
        return len(self.window_index)

    @property
    def hits(self) -> int:
        return int(np.count_nonzero(self.window_index >= 0))

    @property
    def misses(self) -> int:
        return self.expected - self.hits

    def _json_doc(self) -> dict:
        # a verdict's JSON record, missed or hit: its window's index or null
        miss = {"port": self.port, "begin_s": self.begin_s, "end_s": self.end_s, "hit": False, "window_index": None}
        hit = miss | {"hit": True, "window_index": self.window_index}
        return {
            "expected": self.expected,
            "hits": self.hits,
            "misses": self.misses,
            "verdicts": Records((miss, hit), self.window_index >= 0),
        }


def match_toggles(
    intended: GpioCommandLog,
    found: Windows,
    rate_hz: float,
    tolerance_s: float = SegmentationParams.match_tolerance_s,
) -> HitMissReport:
    """Greedy in-order matching of commanded toggles to recovered windows.

    Each commanded pair, in order of its start t_on, takes the first
    unmatched window whose start, ``SampleClock(rate_hz).time_of(begin)``,
    lies within tolerance_s of t_on.  Unmatched pairs are misses.

    Runs in O(n + m) for n pairs and m windows.  The pairs' starts never
    decrease, nor do a Windows' begins, so a window more than tolerance_s
    behind one pair's start is behind every later pair's too: one pointer
    moves past such windows and past each window that is matched.  Both
    tests are written as ``start - t_on`` against tolerance_s, so that they
    round as ``abs(start - t_on) <= tolerance_s`` does.  tolerance_s is
    held by :func:`~joulemark.trace.number`'s rule, as in SegmentationParams.
    """
    tolerance_s = number(tolerance_s, "match tolerance must be finite and >= 0, got {}", ok=lambda s: s >= 0)
    starts = SampleClock(rate_hz).time_of(found.begin).tolist()
    t_on, t_off, port = intended.windows()
    p = 0  # the first window that no earlier pair matched or left behind
    matched: list[int] = []
    for on in t_on.tolist():
        while p < len(starts) and starts[p] - on < -tolerance_s:
            p += 1
        if p < len(starts) and starts[p] - on <= tolerance_s:
            matched.append(p)
            p += 1
        else:
            matched.append(-1)
    return HitMissReport(port, t_on, t_off, np.array(matched, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class SessionReport:
    """Everything one analysis produced, self-describing enough to rerun;
    one energy per window, or ValueError when it is built."""

    mode: str
    rate_hz: float
    shunt: ShuntConfig
    params: SegmentationParams
    windows: Windows
    joules: np.ndarray  # float64, one per window, in window order
    hit_miss: HitMissReport | None = None
    campaign: CampaignSummary | None = None
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(self.joules) != len(self.windows):
            raise ValueError(f"report has {len(self.joules)} joules for {len(self.windows)} windows")

    def __eq__(self, other) -> bool:
        return fields_equal(self, other) if isinstance(other, SessionReport) else NotImplemented

    @property
    def total_joules(self) -> float:
        # a float start, so that a report without windows says 0.0, not 0
        return sum(self.joules.tolist(), 0.0)

    def write_json(self, f: TextIO) -> None:
        """Write the report as the CLI's report JSON: json's ``indent=2``
        text and a newline."""
        jsonio.write_json(self._json_doc(), f)

    def _json_doc(self) -> dict:
        return {
            "mode": self.mode,
            "rate_hz": self.rate_hz,
            "shunt": asdict(self.shunt),
            "params": asdict(self.params),
            "results": Records((_result_record(self.windows, self.joules, self.rate_hz),)),
            "total_joules": self.total_joules,
            "hit_miss": self.hit_miss._json_doc() if self.hit_miss else None,
            "campaign": self.campaign.to_json_dict() if self.campaign else None,
            "warnings": self.warnings,
        }


def _result_record(windows: Windows, joules: np.ndarray, rate_hz: float) -> dict:
    """The windows' JSON record template: each window's sample span, then its
    seconds and energy, a column of every window in place of each value."""
    b, e, j = windows.begin, windows.end, joules
    return {
        "window": {"begin_idx": b, "end_idx": e},
        "energy": {"begin_s": b / rate_hz, "end_s": e / rate_hz, "joules": j, "mean_watts": j / ((e - b) / rate_hz)},
    }


def _check_finite(windows: Windows, joules: np.ndarray, rate_hz: float) -> None:
    """Raise ValueError naming the first window whose seconds, joules or
    mean watts are not finite, or else a total that is not: JSON has no
    text for infinity or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        names, floats = zip(*_result_record(windows, joules, rate_hz)["energy"].items())
    bad = ~np.isfinite(np.stack(floats))
    for k in np.flatnonzero(bad.any(axis=0))[:1].tolist():
        i = int(np.argmax(bad[:, k]))
        raise ValueError(
            f"window {k} [{windows.begin[k]}, {windows.end[k]}): {names[i]} is {floats[i][k]}, not finite"
        )
    total = sum(joules.tolist(), 0.0)
    if not math.isfinite(total):
        raise ValueError(f"total_joules is {total}, not finite")


def analyze(
    trace: PowerTrace,
    mode: str,
    params: SegmentationParams = SegmentationParams(),
    expected: GpioCommandLog | None = None,
) -> SessionReport:
    """Check the trace as validate_trace does, recover its windows in
    `mode` (RELAY or TRIGGER), integrate each, and match them to the
    commanded toggles if `expected` is given.  A trace violation raises
    ValueError, one violation per line, and so does a window whose seconds,
    energy or mean power, or a total energy, is not finite.  A truncated
    window (the first begins at sample 0, or the last ends at
    ``len(trace)``), in either mode, and finding no window go into the
    report's warnings.  The segmenters, validate_trace and window_energies
    are looked up on their modules at each call, so that a wrapper
    installed there (a profiler's, say) sees every analysis."""
    validation = trace_module.validate_trace(trace)
    if not validation.ok:
        raise ValueError("\n".join(validation.violations))
    if mode not in (RELAY, TRIGGER):
        raise ValueError(f"mode must be {RELAY!r} or {TRIGGER!r}, got {mode!r}")
    segmenter = segment_relay if mode == RELAY else segment_trigger
    # finite samples can make infinite power and energy: checked below
    with np.errstate(over="ignore"):
        windows = segmenter(trace, params)
        joules = energy.window_energies(trace, windows)
    _check_finite(windows, joules, trace.rate_hz)
    warnings = []
    if windows and windows.begin[0] == 0:
        warnings.append("trace starts mid-window; first window truncated at trace start")
    if windows and windows.end[-1] == len(trace):
        warnings.append("trace ends mid-window; final window truncated at trace end")
    if not windows:
        warnings.append("no measurement windows found")
    return SessionReport(
        mode=mode,
        rate_hz=trace.rate_hz,
        shunt=trace.shunt,
        params=params,
        windows=windows,
        joules=joules,
        hit_miss=None if expected is None else match_toggles(
            expected, windows, trace.rate_hz, params.match_tolerance_s
        ),
        warnings=warnings,
    )
