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
import numbers
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import TextIO

import numpy as np

from . import energy, jsonio
from . import trace as trace_module
from .instrument import GpioCommandLog
from .jsonio import LEAF, Records
from .simulate import RELAY, TRIGGER
from .stats import CampaignSummary
from .trace import (
    PowerTrace, ShuntConfig, Windows, fields_equal, row_blocks, sample_to_power
)


# how far a window's start may lie from its commanded start: 2x relay latency
MATCH_TOLERANCE_S = 1e-3


class WrongModeError(ValueError):
    """Trace channel layout does not match the requested segmentation mode."""


@dataclass(frozen=True)
class SegmentationParams:
    """Thresholds for window recovery.

    relay_threshold_w defaults to 5x the documented idle-noise bound so
    bounded noise can never cross it; min_window_samples, an integer >= 1,
    provides run-length hysteresis for the relay mode.
    """

    relay_threshold_w: float = 0.005
    min_window_samples: int = 4
    trigger_logic_threshold_v: float = 0.9

    def __post_init__(self):
        if not (math.isfinite(self.relay_threshold_w) and self.relay_threshold_w > 0):
            raise ValueError(
                f"relay threshold must be finite and positive, got {self.relay_threshold_w}"
            )
        n = self.min_window_samples
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"min window length must be an integer >= 1, got {n!r}")
        object.__setattr__(self, "min_window_samples", int(n))
        if not math.isfinite(self.trigger_logic_threshold_v):
            raise ValueError(
                f"trigger logic threshold must be finite, got {self.trigger_logic_threshold_v}"
            )


def _runs(mask: np.ndarray) -> Windows:
    """Maximal [start, end) runs of True in a boolean array."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.diff(padded.astype(np.int8))
    return Windows(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))


def segment_relay(trace: PowerTrace, params: SegmentationParams | None = None) -> Windows:
    """Windows of a relay-circuit (single-channel) trace.

    A window is a maximal run of samples with |power| >= relay_threshold_w;
    runs separated by fewer than min_window_samples of idle are merged, and
    runs shorter than min_window_samples are dropped.
    """
    params = params if params is not None else SegmentationParams()
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


def segment_trigger(trace: PowerTrace, params: SegmentationParams | None = None) -> Windows:
    """Windows of a trigger-circuit (two-channel) trace.

    The trigger channel is binarized at trigger_logic_threshold_v; every
    maximal high-run becomes one window.  A trace ending mid-high-run closes
    its last window at the trace end, so that ``windows.end[-1] ==
    len(trace)``.
    """
    params = params if params is not None else SegmentationParams()
    if not trace.has_trigger:
        raise WrongModeError(
            "trigger segmentation expects a two-channel trace; "
            "this trace has no trigger channel"
        )
    return _runs(trace.trig >= params.trigger_logic_threshold_v)


# a verdict's JSON record, missed or hit: its port and commanded seconds as
# leaves, then its window's index as a leaf, or null
_VERDICT_MISS = {"port": LEAF, "begin_s": LEAF, "end_s": LEAF, "hit": False, "window_index": None}
_VERDICT_HIT = _VERDICT_MISS | {"hit": True, "window_index": LEAF}


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
        columns, hit = (self.port, self.begin_s, self.end_s), self.window_index >= 0
        return {
            "expected": self.expected,
            "hits": self.hits,
            "misses": self.misses,
            "verdicts": Records(
                (_VERDICT_MISS, _VERDICT_HIT), (columns, (*columns, self.window_index)), hit
            ),
        }


def match_toggles(
    intended: GpioCommandLog,
    found: Windows,
    rate_hz: float,
    tolerance_s: float = MATCH_TOLERANCE_S,
) -> HitMissReport:
    """Greedy in-order matching of commanded toggles to recovered windows.

    ``found`` must be in ``begin`` order, as the segmenters return it; a
    window that begins before the one ahead of it raises ValueError.  Each
    commanded pair, in order of its start t_on, takes the first unmatched
    window whose ``begin / rate_hz`` lies within tolerance_s of t_on.
    Unmatched pairs are misses.

    Runs in O(n + m) for n pairs and m windows.  The pairs' starts never
    decrease, so a window more than tolerance_s behind one pair's start is
    behind every later pair's too: one pointer moves past such windows and
    past each window that is matched.  Both tests are written as
    ``begin / rate_hz - t_on`` against tolerance_s, so that they round as
    ``abs(begin / rate_hz - t_on) <= tolerance_s`` does.
    """
    if np.any(found.begin[1:] < found.begin[:-1]):
        raise ValueError("windows must be in begin order")
    starts = (found.begin / rate_hz).tolist()
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


@dataclass
class SessionReport:
    """Everything one analysis produced, self-describing enough to rerun."""

    mode: str
    rate_hz: float
    shunt: ShuntConfig
    params: SegmentationParams
    match_tolerance_s: float
    windows: Windows
    joules: np.ndarray  # float64, one per window, in window order
    hit_miss: HitMissReport | None = None
    campaign: CampaignSummary | None = None
    warnings: list[str] = field(default_factory=list)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionReport):
            return NotImplemented
        key = attrgetter(
            "mode", "rate_hz", "shunt", "params", "match_tolerance_s",
            "windows", "hit_miss", "campaign", "warnings",
        )
        return key(self) == key(other) and np.array_equal(self.joules, other.joules)

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
            "params": {**asdict(self.params), "match_tolerance_s": self.match_tolerance_s},
            "results": Records((_RESULT,), (self._result_columns(),)),
            "total_joules": self.total_joules,
            "hit_miss": self.hit_miss._json_doc() if self.hit_miss else None,
            "campaign": self.campaign.to_json_dict() if self.campaign else None,
            "warnings": self.warnings,
        }

    def _result_columns(self) -> tuple[np.ndarray, ...]:
        b, e, j, rate = self.windows.begin, self.windows.end, self.joules, self.rate_hz
        return b, e, b / rate, e / rate, j, j / ((e - b) / rate)


# a window's JSON record: its sample span, then its seconds and energy
_RESULT = {
    "window": {"begin_idx": LEAF, "end_idx": LEAF},
    "energy": {"begin_s": LEAF, "end_s": LEAF, "joules": LEAF, "mean_watts": LEAF},
}


def analyze(
    trace: PowerTrace,
    mode: str,
    params: SegmentationParams = SegmentationParams(),
    expected: GpioCommandLog | None = None,
    match_tolerance_s: float = MATCH_TOLERANCE_S,
) -> SessionReport:
    """Check the trace as validate_trace does, recover its windows in
    `mode` (RELAY or TRIGGER), integrate each, and match them to the
    commanded toggles if `expected` is given.  A trace violation raises
    ValueError, one violation per line.  A truncated trigger window (the
    last window ends at ``len(trace)``) and finding no window go into the
    report's warnings.  The segmenters, validate_trace and window_energies
    are looked up on their modules at each call, so that a wrapper
    installed there (a profiler's, say) sees every analysis."""
    validation = trace_module.validate_trace(trace)
    if not validation.ok:
        raise ValueError("\n".join(validation.violations))
    if mode not in (RELAY, TRIGGER):
        raise ValueError(f"mode must be {RELAY!r} or {TRIGGER!r}, got {mode!r}")
    if not (math.isfinite(match_tolerance_s) and match_tolerance_s >= 0):
        raise ValueError(
            f"match tolerance must be finite and >= 0, got {match_tolerance_s}"
        )
    segmenter = segment_relay if mode == RELAY else segment_trigger
    windows = segmenter(trace, params)
    report = SessionReport(
        mode=mode,
        rate_hz=trace.rate_hz,
        shunt=trace.shunt,
        params=params,
        match_tolerance_s=match_tolerance_s,
        windows=windows,
        joules=energy.window_energies(trace, windows),
    )
    if mode == TRIGGER and windows and windows.end[-1] == len(trace):
        report.warnings.append("trace ends mid-window; final window truncated at trace end")
    if not windows:
        report.warnings.append("no measurement windows found")
    if expected is not None:
        report.hit_miss = match_toggles(
            expected, windows, trace.rate_hz, match_tolerance_s
        )
    return report

