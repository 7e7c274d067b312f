"""Hardware-in-the-loop session synthesis.

Given a GPIO command log and a piecewise workload power profile, build the
trace the acquisition device would have captured under either measurement
circuit, together with per-toggle ground truth: the realized sample window
(or a miss), and the analytic energy of the commanded interval.

Two circuits are modeled, and both follow one boolean ``live`` mask of the
samples inside realized windows.  The relay circuit connects the meter
probes across the shunt only while a measurement is active, so the trace
shows the true shunt voltage where ``live`` is set and idle noise
elsewhere; actuating the relay costs a fixed latency.  The trigger circuit
samples the shunt continuously on one channel and the GPIO logic level,
high where ``live`` is set, on a second channel, halving the per-channel
rate but responding with no actuation delay.

Whether a commanded toggle is captured at all is a Bernoulli draw with
probability given by :func:`hit_probability`, for every toggle pair at
once: a configurable floor for near-instant events, rising linearly to
certainty at the switching model's full-confidence duration.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from .acquisition import DEFAULT_AGGREGATE_RATE_HZ, AcquisitionConfig, channel_rate
from .instrument import ACTIVATE, DEACTIVATE, GpioCommand, GpioCommandLog, _ACTIONS
from .jsonio import Records, save_json
from .trace import (
    RELAY, TRIGGER, PowerTrace, SampleClock, ShuntConfig, Windows, fields_equal, hold_number, number, row_blocks
)

_CIRCUITS = (RELAY, TRIGGER)

# Target CPU max clock; the tight counting loop used for calibration runs
# 3 instructions per iteration at up to one instruction per cycle.
DEFAULT_CLOCK_HZ = 2.3e9
INSTRUCTIONS_PER_LOOP_ITERATION = 3

# Event durations at which each circuit captures every toggle: the relay
# needs ~0.42 ms (975K instructions at 2.3 GHz, matching its ~0.5 ms
# actuation time); the trigger wiring needs only 225K instructions.
RELAY_FULL_CONFIDENCE_INSTRUCTIONS = 975_000
TRIGGER_FULL_CONFIDENCE_INSTRUCTIONS = 225_000

DEFAULT_LOGIC_HIGH_V = 1.8


class ScenarioError(ValueError):
    pass


def instructions_to_duration(iterations: float) -> float:
    """Wall time of a counted loop, assuming one instruction per cycle."""
    return iterations * INSTRUCTIONS_PER_LOOP_ITERATION / DEFAULT_CLOCK_HZ


RELAY_FULL_CONFIDENCE_S = (
    RELAY_FULL_CONFIDENCE_INSTRUCTIONS / DEFAULT_CLOCK_HZ
)
# Event duration above which the trigger circuit never misses.
TRIGGER_FULL_CONFIDENCE_S = (
    TRIGGER_FULL_CONFIDENCE_INSTRUCTIONS / DEFAULT_CLOCK_HZ
)


# The largest idle-noise bound: the noise draw spans twice it, and that span
# must stay within the float range.
MAX_NOISE_BOUND_W = sys.float_info.max / 2


@dataclass(frozen=True)
class SwitchingModel:
    """Capture behavior of the measurement switch.

    ``floor_hit_prob`` is the capture probability of a near-instant toggle;
    probability rises linearly with event duration and reaches exactly 1.0
    at ``full_confidence_s``.  ``nominal_latency_s`` shifts realized windows
    relative to commanded times (both edges, engage and disengage).
    """

    nominal_latency_s: float = 5.0e-4
    full_confidence_s: float = RELAY_FULL_CONFIDENCE_S
    floor_hit_prob: float = 0.3

    def __post_init__(self):
        hold_number(self, "nominal_latency_s", "latency must be finite and >= 0, got {}", ok=lambda s: s >= 0)
        hold_number(self, "full_confidence_s", "full-confidence duration must be finite and positive, got {}", ok=lambda s: s > 0)
        hold_number(self, "floor_hit_prob", "floor hit probability must be a number in [0, 1], got {}", ok=lambda p: 0 <= p <= 1)

    @classmethod
    def relay_default(cls) -> "SwitchingModel":
        return cls()

    @classmethod
    def trigger_default(cls) -> "SwitchingModel":
        # Floor 0.7 reproduces the observed 8/10 capture rate at one third
        # of the trigger's full-confidence duration under the linear model.
        return cls(
            nominal_latency_s=0.0,
            full_confidence_s=TRIGGER_FULL_CONFIDENCE_S,
            floor_hit_prob=0.7,
        )

    @classmethod
    def for_circuit(cls, circuit: str) -> "SwitchingModel":
        return cls.relay_default() if circuit == RELAY else cls.trigger_default()


def hit_probability(event_duration_s, model: SwitchingModel):
    """Probability that a toggle of the given duration is captured: a float,
    or a float64 array for an array of durations.

    Deterministic; randomness is applied only inside simulate_session.
    """
    d = np.asarray(event_duration_s, dtype=np.float64)
    for k in np.flatnonzero(~(d >= 0))[:1].tolist():
        raise ValueError(f"event duration must be >= 0, got {d.flat[k].item()}")
    floor = model.floor_hit_prob
    p = np.where(d >= model.full_confidence_s, 1.0, floor + (1.0 - floor) * (d / model.full_confidence_s))
    return p if p.ndim else float(p)


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean idle power noise, uniform on [-bound, +bound] watts."""

    idle_power_bound_w: float = 0.001

    def __post_init__(self):
        hold_number(
            self, "idle_power_bound_w", f"noise bound must be a number in [0, {MAX_NOISE_BOUND_W}], got {{}}",
            ok=lambda b: 0 <= b <= MAX_NOISE_BOUND_W,
        )

    def draw_power(self, rng: np.random.Generator, n: int) -> np.ndarray:
        b = self.idle_power_bound_w
        return rng.uniform(-b, b, size=n)


# --- workload profiles ------------------------------------------------------


@dataclass(frozen=True)
class ConstantPower:
    watts: float

    def __post_init__(self):
        hold_number(self, "watts", "power must be finite and >= 0, got {}", ok=lambda w: w >= 0)

    def power(self, t: np.ndarray, duration: float) -> np.ndarray:
        return np.full_like(t, self.watts)

    def integral(self, a: np.ndarray, b: np.ndarray, duration: float) -> np.ndarray:
        return self.watts * (b - a)


@dataclass(frozen=True)
class RampPower:
    """Linear sweep from w0 at segment start to w1 at segment end."""

    w0: float
    w1: float

    def __post_init__(self):
        hold_number(self, "w0", "ramp start power must be finite and >= 0, got {}", ok=lambda w: w >= 0)
        hold_number(self, "w1", "ramp end power must be finite and >= 0, got {}", ok=lambda w: w >= 0)

    def power(self, t: np.ndarray, duration: float) -> np.ndarray:
        return self.w0 + (self.w1 - self.w0) * (t / duration)

    def integral(self, a: np.ndarray, b: np.ndarray, duration: float) -> np.ndarray:
        # the mean power over [a, b], the power at its midpoint, times b - a:
        # unlike a slope, the midpoint's fraction of a subnormal duration
        # stays finite
        mid = (a + b) / (2 * duration)
        return (b - a) * (self.w0 + (self.w1 - self.w0) * mid)


@dataclass(frozen=True)
class SpikyPower:
    """Oscillation between base_w and peak_w with the given period.

    P(t) = base_w + (peak_w - base_w) * sin^2(pi t / period); spectral
    content sits at 1/period hertz.
    """

    base_w: float
    peak_w: float
    period_s: float

    def __post_init__(self):
        hold_number(self, "base_w", "base power must be finite and >= 0, got {}", ok=lambda w: w >= 0)
        hold_number(self, "peak_w", f"peak power must be finite and >= {self.base_w}, got {{}}", ok=lambda w: w >= self.base_w)
        hold_number(self, "period_s", "period must be finite and positive, got {}", ok=lambda s: s > 0)

    def power(self, t: np.ndarray, duration: float) -> np.ndarray:
        amp = self.peak_w - self.base_w
        return self.base_w + amp * np.sin(np.pi * t / self.period_s) ** 2

    def integral(self, a: np.ndarray, b: np.ndarray, duration: float) -> np.ndarray:
        amp = self.peak_w - self.base_w
        T = self.period_s
        osc = (b - a) / 2.0 - (T / (4.0 * math.pi)) * (
            np.sin(2.0 * math.pi * b / T) - np.sin(2.0 * math.pi * a / T)
        )
        return self.base_w * (b - a) + amp * osc


PowerShape = ConstantPower | RampPower | SpikyPower


@dataclass(frozen=True)
class WorkloadSegment:
    start_s: float
    end_s: float
    shape: PowerShape

    def __post_init__(self):
        hold_number(self, "start_s", "segment start must be finite and >= 0, got {}", ok=lambda s: s >= 0)
        hold_number(self, "end_s", f"segment end must be finite and > {self.start_s}, got {{}}", ok=lambda s: s > self.start_s)


@dataclass(frozen=True)
class WorkloadProfile:
    """Piecewise power profile; zero watts outside all segments."""

    segments: tuple[WorkloadSegment, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.segments, key=lambda s: s.start_s))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start_s < prev.end_s:
                raise ValueError(
                    f"workload segments overlap: [{prev.start_s}, {prev.end_s}] "
                    f"and [{cur.start_s}, {cur.end_s}]"
                )
        object.__setattr__(self, "segments", ordered)

    @classmethod
    def constant(cls, watts: float, start_s: float, end_s: float) -> "WorkloadProfile":
        return cls((WorkloadSegment(start_s, end_s, ConstantPower(watts)),))

    def power_at(self, t: np.ndarray) -> np.ndarray:
        """Vectorized instantaneous power; segments are half-open [start, end)."""
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for seg in self.segments:
            mask = (t >= seg.start_s) & (t < seg.end_s)
            if mask.any():
                out[mask] = seg.shape.power(
                    t[mask] - seg.start_s, seg.end_s - seg.start_s
                )
        return out

    def integral(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact integral of the profile over each [a[i], b[i]], in joules."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
        if np.any(b < a):
            k = np.flatnonzero(b < a)[0]
            raise ValueError(f"need a <= b, got [{a.flat[k]}, {b.flat[k]}]")
        total = np.zeros(a.shape)
        for seg in self.segments:
            lo = np.maximum(a, seg.start_s)
            hi = np.minimum(b, seg.end_s)
            inside = hi > lo
            total[inside] += seg.shape.integral(
                lo[inside] - seg.start_s, hi[inside] - seg.start_s, seg.end_s - seg.start_s
            )
        return total


# --- scenario ---------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One simulated session, checked in full when it is built: its GPIO log
    pairs, its windows do not overlap, and its commands and workload lie
    inside the session.  ``switching=None`` takes the circuit's default
    model; the channel layout follows from the circuit (see ``config``)."""

    duration_s: float
    circuit: str
    aggregate_rate_hz: float = DEFAULT_AGGREGATE_RATE_HZ
    shunt: ShuntConfig = field(default_factory=ShuntConfig)
    workload: WorkloadProfile = field(default_factory=WorkloadProfile)
    gpio: GpioCommandLog = field(default_factory=GpioCommandLog)
    switching: SwitchingModel | None = None
    noise: NoiseModel = field(default_factory=NoiseModel)
    logic_high_v: float = DEFAULT_LOGIC_HIGH_V
    seed: int = 0

    def __post_init__(self):
        hold_number(self, "duration_s", "duration must be finite and positive, got {}", ok=lambda s: s > 0, error=ScenarioError)
        if self.circuit not in _CIRCUITS:
            raise ScenarioError(
                f"circuit must be one of {_CIRCUITS}, got {self.circuit!r}"
            )
        hold_number(
            self, "aggregate_rate_hz", "aggregate rate must be finite and positive, got {}", ok=lambda r: r > 0, error=ScenarioError
        )
        hold_number(self, "logic_high_v", "logic high must be finite, got {}", error=ScenarioError)
        hold_number(self, "seed", "seed must be an integer >= 0, got {!r}", ok=lambda s: s >= 0, kind=int, error=ScenarioError)
        if self.switching is None:
            object.__setattr__(
                self, "switching", SwitchingModel.for_circuit(self.circuit)
            )
        gpio = self.gpio
        for i in np.flatnonzero(gpio.t_s > self.duration_s)[:1].tolist():  # a log's times are >= 0
            action = DEACTIVATE if gpio.deactivate[i] else ACTIVATE
            raise ScenarioError(
                f"gpio entry {i} ({action} port {gpio.port[i].item()} at "
                f"t={gpio.t_s[i].item()}s) lies outside [0, {self.duration_s}]s"
            )
        t_on, t_off, port = gpio.windows()
        overlaps = np.flatnonzero(t_on[1:] < t_off[:-1])
        if len(overlaps):
            pair = slice(overlaps[0], overlaps[0] + 2)
            (a_on, b_on), (a_off, b_off), (a_port, b_port) = (
                t_on[pair].tolist(), t_off[pair].tolist(), port[pair].tolist()
            )
            raise ScenarioError(
                f"measurement windows overlap: port {a_port} "
                f"[{a_on}, {a_off}]s and port {b_port} [{b_on}, {b_off}]s "
                f"(one circuit cannot serve overlapping windows)"
            )
        for seg in self.workload.segments:
            if seg.end_s > self.duration_s:
                raise ScenarioError(
                    f"workload segment [{seg.start_s}, {seg.end_s}]s extends "
                    f"past the {self.duration_s}s session"
                )

    @classmethod
    def create(
        cls,
        duration_s: float,
        circuit: str,
        workload: WorkloadProfile,
        gpio: GpioCommandLog,
        **options,
    ) -> "Scenario":
        """The constructor under the name existing callers use."""
        return cls(duration_s, circuit, workload=workload, gpio=gpio, **options)

    @property
    def config(self) -> AcquisitionConfig:
        """The rate budget, split over one channel (relay) or two (trigger)."""
        return AcquisitionConfig(
            aggregate_rate_hz=self.aggregate_rate_hz,
            channels=1 if self.circuit == RELAY else 2,
        )

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """What each commanded toggle pair actually did, one row per pair in the
    order of ``GpioCommandLog.windows()``: its ``port`` (int64), commanded
    ``begin_s`` and ``end_s`` (float64), whether the switch captured it
    (``hit``, bool), the sample window ``[realized_begin, realized_end)`` it
    realized (int64, -1 where none was), and the analytic energy of the
    commanded interval (``true_joules``, float64)."""

    rate_hz: float
    seed: int
    port: np.ndarray
    begin_s: np.ndarray
    end_s: np.ndarray
    hit: np.ndarray
    realized_begin: np.ndarray
    realized_end: np.ndarray
    true_joules: np.ndarray

    def __eq__(self, other) -> bool:
        return fields_equal(self, other) if isinstance(other, GroundTruth) else NotImplemented

    @property
    def hits(self) -> int:
        return int(np.count_nonzero(self.hit))

    @property
    def misses(self) -> int:
        return len(self.hit) - self.hits

    def realized_windows(self) -> Windows:
        realized = self.realized_begin >= 0
        return Windows(self.realized_begin[realized], self.realized_end[realized])

    def write_json(self, path: str | Path) -> None:
        """Write the ground truth as the CLI's truth JSON: json's
        ``indent=2`` text and a newline."""
        # a toggle pair's JSON record, its realized window null or [begin, end]
        miss = {
            "port": self.port, "begin_s": self.begin_s, "end_s": self.end_s, "hit": self.hit,
            "realized": None, "true_joules": self.true_joules,
        }
        realized = miss | {"realized": [self.realized_begin, self.realized_end]}
        entries = Records((miss, realized), self.realized_begin >= 0)
        save_json({"rate_hz": self.rate_hz, "seed": self.seed, "entries": entries}, path)


def _physical_memory() -> int | None:
    """The host's physical memory in bytes, or None where os.sysconf cannot say."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


def _session_samples(scenario: Scenario) -> int:
    """The session's sample count, ``round(duration_s * rate)``, which must
    be 1 to 2**63 - 1, a count whose indices int64 holds, and whose arrays,
    8 bytes a sample a channel and a one-byte window mask, must fit in
    physical memory."""
    rate = channel_rate(scenario.config)
    samples = scenario.duration_s * rate
    if not 0.5 < samples < 2**63:
        raise ScenarioError(f"session of {scenario.duration_s}s at {rate}Hz spans {samples} samples, not 1 to 2**63 - 1")
    samples = round(samples)
    needed = samples * (8 * scenario.config.channels + 1)
    memory = _physical_memory()
    if memory is not None and needed > memory:
        raise ScenarioError(
            f"session of {scenario.duration_s}s at {rate}Hz needs {needed} bytes of samples, "
            f"more than the {memory} bytes of physical memory"
        )
    return samples


def simulate_session(scenario: Scenario) -> tuple[PowerTrace, GroundTruth]:
    """Synthesize the acquired trace and per-toggle ground truth.

    Deterministic for a given scenario (the RNG is seeded from it); draw
    order is fixed: one hit draw per toggle pair in time order, then the
    idle-noise array for relay sessions.
    """
    rate = channel_rate(scenario.config)
    n = _session_samples(scenario)
    rng = np.random.default_rng(scenario.seed)
    t_on, t_off, port = scenario.gpio.windows()
    hit = rng.random(len(t_on)) < hit_probability(t_off - t_on, scenario.switching)
    latency = scenario.switching.nominal_latency_s
    clock = SampleClock(rate)
    begin = clock.first_index_at_or_after(t_on + latency)
    end = np.minimum(clock.first_index_at_or_after(t_off + latency), n)
    realized = hit & (end - begin >= 1)
    truth = GroundTruth(
        rate, scenario.seed, port, t_on, t_off, hit, np.where(realized, begin, -1),
        np.where(realized, end, -1), scenario.workload.integral(t_on, t_off),
    )
    # the realized windows are disjoint and in order, since a Scenario rejects
    # overlapping commanded windows and the clock's map is monotone: their
    # interleaved edges cut the session into idle and live runs
    edges = np.concatenate(([0], np.column_stack((begin, end))[realized].ravel(), [n]))
    live = np.repeat(np.arange(len(edges) - 1) % 2 == 1, np.diff(edges))
    relay = scenario.circuit == RELAY
    # an idle relay's probes read one node, so only noise reaches the DAQ; the
    # trigger circuit reads the workload throughout and flags live samples
    vs = scenario.noise.draw_power(rng, n) if relay else np.empty(n)
    trig = None if relay else np.where(live, scenario.logic_high_v, 0.0)
    # watts where the DAQ reads the workload, block by block, then the whole
    # block converted to shunt volts in place, in power_to_shunt_volts order
    shunt = scenario.shunt
    for start, stop in row_blocks(n):
        block = vs[start:stop]
        t = clock.time_of(np.arange(start, stop))
        read = live[start:stop] if relay else slice(None)
        block[read] = scenario.workload.power_at(t[read])
        block *= shunt.rs
        block /= shunt.vf
    trace = PowerTrace._adopt(rate, vs, trig, shunt)
    return trace, truth


def repeated_toggle_scenario(
    event_duration_s: float,
    tries: int,
    circuit: str,
    *,
    gap_s: float = 2e-3,
    seed: int = 0,
) -> Scenario:
    """Scenario toggling port 40 `tries` times with equal event durations.

    Used for capture-rate experiments: a constant 12 W workload runs for the
    whole session and each activate/deactivate pair brackets an event of
    ``event_duration_s``.
    """
    tries = number(tries, "tries must be an integer >= 1, got {!r}", ok=lambda n: n >= 1, kind=int)
    event_duration_s = number(event_duration_s, "event duration must be finite and >= 0, got {}", ok=lambda s: s >= 0)
    gap_s = number(gap_s, "gap must be finite and >= 0, got {}", ok=lambda s: s >= 0)
    starts = [gap_s]
    for _ in range(tries):
        starts.append(starts[-1] + (event_duration_s + gap_s))
    duration = starts.pop() + gap_s
    # every command time is at most the session's end, which sums them all
    if not math.isfinite(duration):
        raise ValueError(
            f"event_duration_s={event_duration_s!r} and gap_s={gap_s!r} over tries={tries}"
            " give a session longer than the float range"
        )
    cmds: list[GpioCommand] = []
    for start in starts:
        cmds.append(GpioCommand(start, 40, ACTIVATE))
        cmds.append(GpioCommand(start + event_duration_s, 40, DEACTIVATE))
    return Scenario(
        duration_s=duration,
        circuit=circuit,
        workload=WorkloadProfile.constant(12.0, 0.0, duration),
        gpio=GpioCommandLog(tuple(cmds)),
        seed=seed,
    )


# --- scenario JSON ----------------------------------------------------------


_SHAPES = {"constant": ConstantPower, "ramp": RampPower, "spiky": SpikyPower}
_SHAPE_NAMES = {cls: name for name, cls in _SHAPES.items()}


def _build(cls, path: str, **values):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _read(cls, obj, path: str, default=None, **given):
    """Build the dataclass ``cls`` from the JSON object ``obj`` at ``path``.

    Fields in ``given`` are used as they are; each other field is read from
    ``obj`` and held by :func:`~joulemark.trace.number`'s rule for its
    annotation, ``int`` or ``float``.  A field absent from ``obj``
    takes its value in the ``cls`` instance ``default``, if one is given,
    or else its own dataclass default; a field with neither is reported as
    missing.  A key that names no field is an error, the first such key in
    ``obj``'s order.
    """
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    names = [f.name for f in fields(cls)]
    for key in obj:
        if key not in names:
            raise ScenarioError(f"{path}.{key}: unknown field")
    values = {}
    for f in fields(cls):
        if f.name in given:
            values[f.name] = given[f.name]
        elif f.name in obj:
            kind, what = (int, "an integer") if f.type == "int" else (float, "a finite number")
            message = f"{path}.{f.name}: expected {what}, got {{!r}}"
            values[f.name] = number(obj[f.name], message, kind=kind, error=ScenarioError)
        elif default is not None:
            values[f.name] = getattr(default, f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ScenarioError(f"{path}.{f.name}: missing required field")
    return _build(cls, path, **values)


def _choice(obj, key: str, path: str, choices: tuple[str, ...]) -> str:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    if key not in obj:
        raise ScenarioError(f"{path}.{key}: missing required field")
    if obj[key] not in choices:
        raise ScenarioError(
            f"{path}.{key}: expected {'|'.join(choices)}, got {obj[key]!r}"
        )
    return obj[key]


def _array(obj: dict, key: str, path: str) -> list:
    """The array at ``key``; one that is absent or null reads as empty."""
    value = obj.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ScenarioError(f"{path}.{key}: expected an array")
    return value


def _segment(obj, path: str) -> WorkloadSegment:
    shape = _SHAPES[_choice(obj, "shape", path, tuple(_SHAPES))]
    # one object holds the segment's fields and its shape's: the shape reads
    # every key that is not the segment's, so it names any unknown key
    own = [f.name for f in fields(WorkloadSegment)]
    return _read(
        WorkloadSegment, {k: v for k, v in obj.items() if k in own}, path,
        shape=_read(shape, {k: v for k, v in obj.items() if k not in own}, path),
    )


def _command(obj, path: str) -> GpioCommand:
    action = _choice(obj, "action", path, _ACTIONS)
    return _read(GpioCommand, obj, path, action=action)


def _gpio(items: list, path: str) -> GpioCommandLog:
    """The gpio array read by columns where every command is an object of
    exactly its three keys holding valid values; otherwise a command at a
    time by _command, which raises the first command's error."""
    try:
        if set(map(type, items)) <= {dict} and set(map(len, items)) <= {3}:
            t_s, port, action = (list(map(itemgetter(key), items)) for key in ("t_s", "port", "action"))
            if set(map(type, t_s)) <= {float, int} and set(map(type, port)) <= {int} and set(action) <= set(_ACTIONS):
                return GpioCommandLog._of_columns(t_s, port, list(map(DEACTIVATE.__eq__, action)))
    except (KeyError, TypeError, ValueError, OverflowError):
        pass  # another key, an unhashable action, a number the log refuses or its columns' types cannot hold
    return GpioCommandLog(_command(c, f"{path}.gpio[{i}]") for i, c in enumerate(items))


def scenario_from_dict(obj: dict, path: str = "$") -> Scenario:
    circuit = _choice(obj, "circuit", path, _CIRCUITS)
    segments = tuple(
        _segment(seg, f"{path}.workload[{i}]")
        for i, seg in enumerate(_array(obj, "workload", path))
    )
    gpio = _gpio(_array(obj, "gpio", path), path)
    try:
        gpio.windows()
    except ValueError as exc:
        raise ScenarioError(f"{path}.gpio: {exc}") from None
    # an optional block that is absent or null reads as {}: each of its
    # fields takes its default
    block = {k: {} if obj.get(k) is None else obj[k] for k in ("shunt", "switching", "noise")}
    return _read(
        Scenario, obj, path,
        circuit=circuit,
        shunt=_read(ShuntConfig, block["shunt"], f"{path}.shunt"),
        workload=_build(WorkloadProfile, f"{path}.workload", segments=segments),
        gpio=gpio,
        switching=_read(
            SwitchingModel, block["switching"], f"{path}.switching",
            SwitchingModel.for_circuit(circuit),
        ),
        noise=_read(NoiseModel, block["noise"], f"{path}.noise"),
    )


def _scenario_doc(scenario: Scenario) -> dict:
    obj = asdict(scenario)
    obj["workload"] = [
        {**asdict(seg), "shape": _SHAPE_NAMES[type(seg.shape)], **asdict(seg.shape)}
        for seg in scenario.workload.segments
    ]
    gpio = scenario.gpio
    # a GPIO command's JSON record, one template per action
    commands = [{"t_s": gpio.t_s, "port": gpio.port, "action": action} for action in (ACTIVATE, DEACTIVATE)]
    obj["gpio"] = Records(commands, gpio.deactivate)
    return obj


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from None
    return scenario_from_dict(obj)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    save_json(_scenario_doc(scenario), path)
