"""Hardware-in-the-loop session synthesis.

Given a GPIO command log and a piecewise workload power profile, build the
trace the acquisition device would have captured under either measurement
circuit, together with per-toggle ground truth: the realized sample window
(or a miss), and the analytic energy of the commanded interval.

Two circuits are modeled.  The relay circuit connects the meter probes
across the shunt only while a measurement is active, so the trace shows
the true shunt voltage inside realized windows and idle noise elsewhere;
actuating the relay costs a fixed latency, and events shorter than the
relay's full-confidence duration are captured only probabilistically.  The
trigger circuit samples the shunt continuously on one channel and the GPIO
logic level on a second channel, halving the per-channel rate but
responding with no actuation delay.

Whether a commanded toggle is captured at all is a Bernoulli draw with
probability given by :func:`hit_probability`: a configurable floor for
near-instant events, rising linearly to certainty at the switching model's
full-confidence duration.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .acquisition import DEFAULT_AGGREGATE_RATE_HZ, AcquisitionConfig, channel_rate
from .instrument import (
    ACTIVATE,
    DEACTIVATE,
    AlternationError,
    DanglingWindowError,
    GpioCommand,
    GpioCommandLog,
)
from .jsonio import LEAF, Records, save_json
from .trace import (
    MeasurementWindow,
    PowerTrace,
    ShuntConfig,
    index_at_or_after,
    row_blocks,
)

RELAY = "relay"
TRIGGER = "trigger"
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


def instructions_to_duration(
    iterations: float,
    instr_per_iter: float = INSTRUCTIONS_PER_LOOP_ITERATION,
    clock_hz: float = DEFAULT_CLOCK_HZ,
) -> float:
    """Wall time of a counted loop, assuming one instruction per cycle."""
    if not clock_hz > 0:
        raise ValueError(f"clock must be positive, got {clock_hz}")
    return iterations * instr_per_iter / clock_hz


def trigger_hit_threshold(
    instructions: float = TRIGGER_FULL_CONFIDENCE_INSTRUCTIONS,
    clock_hz: float = DEFAULT_CLOCK_HZ,
) -> float:
    """Event duration above which the trigger circuit never misses."""
    if instructions < 0:
        raise ValueError(f"instruction count must be >= 0, got {instructions}")
    if not clock_hz > 0:
        raise ValueError(f"clock must be positive, got {clock_hz}")
    return instructions / clock_hz


RELAY_FULL_CONFIDENCE_S = (
    RELAY_FULL_CONFIDENCE_INSTRUCTIONS / DEFAULT_CLOCK_HZ
)


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
        if not 0.0 <= self.floor_hit_prob <= 1.0:
            raise ValueError(
                f"floor hit probability must be in [0, 1], got {self.floor_hit_prob}"
            )
        if not self.full_confidence_s > 0:
            raise ValueError(
                f"full-confidence duration must be positive, got {self.full_confidence_s}"
            )
        if self.nominal_latency_s < 0:
            raise ValueError(
                f"latency must be >= 0, got {self.nominal_latency_s}"
            )

    @classmethod
    def relay_default(cls) -> "SwitchingModel":
        return cls()

    @classmethod
    def trigger_default(cls) -> "SwitchingModel":
        # Floor 0.7 reproduces the observed 8/10 capture rate at one third
        # of the trigger's full-confidence duration under the linear model.
        return cls(
            nominal_latency_s=0.0,
            full_confidence_s=trigger_hit_threshold(),
            floor_hit_prob=0.7,
        )

    @classmethod
    def for_circuit(cls, circuit: str) -> "SwitchingModel":
        return cls.relay_default() if circuit == RELAY else cls.trigger_default()


def hit_probability(event_duration_s: float, model: SwitchingModel) -> float:
    """Probability that a toggle of the given duration is captured.

    Deterministic; randomness is applied only inside simulate_session.
    """
    if event_duration_s < 0:
        raise ValueError(f"event duration must be >= 0, got {event_duration_s}")
    if event_duration_s >= model.full_confidence_s:
        return 1.0
    return model.floor_hit_prob + (1.0 - model.floor_hit_prob) * (
        event_duration_s / model.full_confidence_s
    )


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean idle power noise, uniform on [-bound, +bound] watts."""

    idle_power_bound_w: float = 0.001

    def __post_init__(self):
        if self.idle_power_bound_w < 0:
            raise ValueError(
                f"noise bound must be >= 0, got {self.idle_power_bound_w}"
            )

    def draw_power(self, rng: np.random.Generator, n: int) -> np.ndarray:
        b = self.idle_power_bound_w
        return rng.uniform(-b, b, size=n)

    def integral_standard_error(self, rate_hz: float, n_samples: int) -> float:
        """Analytic standard error of the trapezoidal integral of n noise samples."""
        dt = 1.0 / rate_hz
        sigma = self.idle_power_bound_w / math.sqrt(3.0)
        # endpoint samples carry weight dt/2, interior samples weight dt
        return dt * sigma * math.sqrt(max(n_samples - 1.5, 0.0))


# --- workload profiles ------------------------------------------------------


@dataclass(frozen=True)
class ConstantPower:
    watts: float

    def __post_init__(self):
        if self.watts < 0:
            raise ValueError(f"power must be >= 0, got {self.watts}")

    def power(self, t: np.ndarray, duration: float) -> np.ndarray:
        return np.full_like(t, self.watts)

    def integral(self, a: float, b: float, duration: float) -> float:
        return self.watts * (b - a)


@dataclass(frozen=True)
class RampPower:
    """Linear sweep from w0 at segment start to w1 at segment end."""

    w0: float
    w1: float

    def __post_init__(self):
        if self.w0 < 0 or self.w1 < 0:
            raise ValueError(f"power must be >= 0, got ({self.w0}, {self.w1})")

    def power(self, t: np.ndarray, duration: float) -> np.ndarray:
        return self.w0 + (self.w1 - self.w0) * (t / duration)

    def integral(self, a: float, b: float, duration: float) -> float:
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
        if not 0 <= self.base_w <= self.peak_w:
            raise ValueError(
                f"need 0 <= base <= peak, got ({self.base_w}, {self.peak_w})"
            )
        if not self.period_s > 0:
            raise ValueError(f"period must be positive, got {self.period_s}")

    def power(self, t: np.ndarray, duration: float) -> np.ndarray:
        amp = self.peak_w - self.base_w
        return self.base_w + amp * np.sin(np.pi * t / self.period_s) ** 2

    def integral(self, a: float, b: float, duration: float) -> float:
        amp = self.peak_w - self.base_w
        T = self.period_s
        osc = (b - a) / 2.0 - (T / (4.0 * math.pi)) * (
            math.sin(2.0 * math.pi * b / T) - math.sin(2.0 * math.pi * a / T)
        )
        return self.base_w * (b - a) + amp * osc


PowerShape = ConstantPower | RampPower | SpikyPower


@dataclass(frozen=True)
class WorkloadSegment:
    start_s: float
    end_s: float
    shape: PowerShape

    def __post_init__(self):
        if not self.end_s > self.start_s >= 0:
            raise ValueError(
                f"segment must satisfy 0 <= start < end, "
                f"got [{self.start_s}, {self.end_s}]"
            )


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

    def integral(self, a: float, b: float) -> float:
        """Exact integral of the profile over [a, b], in joules."""
        if b < a:
            raise ValueError(f"need a <= b, got [{a}, {b}]")
        total = 0.0
        for seg in self.segments:
            lo = max(a, seg.start_s)
            hi = min(b, seg.end_s)
            if hi > lo:
                total += seg.shape.integral(
                    lo - seg.start_s, hi - seg.start_s, seg.end_s - seg.start_s
                )
        return total


# --- scenario ---------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One simulated session.  ``switching=None`` takes the circuit's default
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
        if self.circuit not in _CIRCUITS:
            raise ScenarioError(
                f"circuit must be one of {_CIRCUITS}, got {self.circuit!r}"
            )
        if self.switching is None:
            object.__setattr__(
                self, "switching", SwitchingModel.for_circuit(self.circuit)
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

    def validate(self) -> None:
        if not self.duration_s > 0:
            raise ScenarioError(f"duration must be positive, got {self.duration_s}")
        if not self.aggregate_rate_hz > 0:
            raise ScenarioError(
                f"aggregate rate must be positive, got {self.aggregate_rate_hz}"
            )
        for i, cmd in enumerate(self.gpio.entries):
            if not 0.0 <= cmd.t_s <= self.duration_s:
                raise ScenarioError(
                    f"gpio entry {i} ({cmd.action} port {cmd.port} at "
                    f"t={cmd.t_s}s) lies outside [0, {self.duration_s}]s"
                )
        pairs = self.gpio.windows()
        for (a_on, a_off, a_port), (b_on, b_off, b_port) in zip(pairs, pairs[1:]):
            if b_on < a_off:
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
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class GroundTruthEntry:
    """What one commanded toggle pair actually did."""

    port: int
    begin_s: float
    end_s: float
    hit: bool
    realized: MeasurementWindow | None
    true_joules: float


# an entry's JSON record, missed or realized: its fields, with its realized
# window as null or [begin, end]
_ENTRY_MISS = {f.name: LEAF for f in fields(GroundTruthEntry)} | {"realized": None}
_ENTRY_HIT = _ENTRY_MISS | {"realized": [LEAF, LEAF]}


@dataclass(frozen=True)
class GroundTruth:
    rate_hz: float
    seed: int
    entries: tuple[GroundTruthEntry, ...]

    @property
    def hits(self) -> int:
        return sum(1 for e in self.entries if e.hit)

    @property
    def misses(self) -> int:
        return len(self.entries) - self.hits

    def realized_windows(self) -> list[MeasurementWindow]:
        return [e.realized for e in self.entries if e.realized is not None]

    def write_json(self, path: str | Path) -> None:
        """Write the ground truth as the CLI's truth JSON: json's
        ``indent=2`` text and a newline."""
        save_json(self._json_doc(), path)

    def _json_doc(self) -> dict:
        return {
            "rate_hz": self.rate_hz,
            "seed": self.seed,
            "entries": Records(
                (_ENTRY_MISS, _ENTRY_HIT), len(self.entries), self._entry_block
            ),
        }

    def _entry_block(self, start: int, stop: int) -> tuple[list[int], list]:
        kinds, leaves = [], []
        for e in self.entries[start:stop]:
            leaves += (e.port, e.begin_s, e.end_s, e.hit)
            if e.realized is None:
                kinds.append(0)
            else:
                kinds.append(1)
                leaves += (e.realized.begin, e.realized.end)
            leaves.append(e.true_joules)
        return kinds, leaves


def simulate_session(scenario: Scenario) -> tuple[PowerTrace, GroundTruth]:
    """Synthesize the acquired trace and per-toggle ground truth.

    Deterministic for a given scenario (the RNG is seeded from it); draw
    order is fixed: one hit draw per toggle pair in time order, then the
    idle-noise array for relay sessions.
    """
    scenario.validate()
    rate = channel_rate(scenario.config)
    n = int(round(scenario.duration_s * rate))
    if n < 1:
        raise ScenarioError(
            f"session of {scenario.duration_s}s at {rate}Hz has no samples"
        )
    rng = np.random.default_rng(scenario.seed)
    latency = scenario.switching.nominal_latency_s
    entries: list[GroundTruthEntry] = []
    for t_on, t_off, port in scenario.gpio.windows():
        p_hit = hit_probability(t_off - t_on, scenario.switching)
        hit = bool(rng.random() < p_hit)
        realized = None
        if hit:
            b = index_at_or_after(t_on + latency, rate)
            e = min(index_at_or_after(t_off + latency, rate), n)
            if e - b >= 1:
                realized = MeasurementWindow(b, e)
        entries.append(
            GroundTruthEntry(
                port=port,
                begin_s=t_on,
                end_s=t_off,
                hit=hit,
                realized=realized,
                true_joules=scenario.workload.integral(t_on, t_off),
            )
        )

    realized_windows = [e.realized for e in entries if e.realized is not None]
    if scenario.circuit == RELAY:
        # idle: probes read the same node, so only noise reaches the DAQ;
        # inside realized windows they read the workload
        vs = scenario.noise.draw_power(rng, n)
        live = np.zeros(n, dtype=bool)
        for w in realized_windows:
            live[w.begin : w.end] = True
        trig = None
    else:
        vs = np.empty(n)
        live = None
        trig = np.zeros(n)
        for w in realized_windows:
            trig[w.begin : w.end] = scenario.logic_high_v
    # watts where the DAQ reads the workload, block by block, then the whole
    # block converted to shunt volts in place, in power_to_shunt_volts order
    shunt = scenario.shunt
    for start, stop in row_blocks(n):
        block = vs[start:stop]
        t = np.arange(start, stop) / rate
        read = slice(None) if live is None else live[start:stop]
        block[read] = scenario.workload.power_at(t[read])
        block *= shunt.rs
        block /= shunt.vf
    trace = PowerTrace._adopt(rate, vs, trig, shunt)
    truth = GroundTruth(rate_hz=rate, seed=scenario.seed, entries=tuple(entries))
    return trace, truth


def repeated_toggle_scenario(
    event_duration_s: float,
    tries: int,
    circuit: str,
    *,
    gap_s: float = 2e-3,
    power_w: float = 12.0,
    aggregate_rate_hz: float = 40_000.0,
    port: int = 40,
    switching: SwitchingModel | None = None,
    noise: NoiseModel | None = None,
    seed: int = 0,
) -> Scenario:
    """Scenario toggling one port `tries` times with equal event durations.

    Used for capture-rate experiments: a constant workload runs for the
    whole session and each activate/deactivate pair brackets an event of
    ``event_duration_s``.
    """
    if tries < 1:
        raise ValueError(f"tries must be >= 1, got {tries}")
    if event_duration_s < 0:
        raise ValueError(f"event duration must be >= 0, got {event_duration_s}")
    cmds: list[GpioCommand] = []
    cursor = gap_s
    for _ in range(tries):
        cmds.append(GpioCommand(cursor, port, ACTIVATE))
        cmds.append(GpioCommand(cursor + event_duration_s, port, DEACTIVATE))
        cursor += event_duration_s + gap_s
    duration = cursor + gap_s
    return Scenario(
        duration_s=duration,
        circuit=circuit,
        workload=WorkloadProfile.constant(power_w, 0.0, duration),
        gpio=GpioCommandLog(tuple(cmds)),
        aggregate_rate_hz=aggregate_rate_hz,
        switching=switching,
        noise=NoiseModel() if noise is None else noise,
        seed=seed,
    )


# --- scenario JSON ----------------------------------------------------------


_SHAPES = {"constant": ConstantPower, "ramp": RampPower, "spiky": SpikyPower}
_SHAPE_NAMES = {cls: name for name, cls in _SHAPES.items()}
_SCENARIO_DEFAULTS = {
    "aggregate_rate_hz": DEFAULT_AGGREGATE_RATE_HZ,
    "logic_high_v": DEFAULT_LOGIC_HIGH_V,
}


# what JSON must hold for a field of each numeric annotation, and how it is
# stored; bool is never a number here
_NUMBERS = {"float": ((int, float), "a number", float), "int": (int, "an integer", int)}
# a dataclass's fields, looked up once per class rather than per JSON object
_fields = functools.cache(fields)


def _build(cls, path: str, **values):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _read(cls, obj, path: str, defaults: dict | None = None, **given):
    """Build the dataclass ``cls`` from the JSON object ``obj`` at ``path``.

    Fields in ``given`` are used as they are; each other field is read from
    ``obj`` and checked against its annotation, or taken from ``defaults``
    when absent, or reported as missing.
    """
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    values = {}
    for f in _fields(cls):
        if f.name in given:
            values[f.name] = given[f.name]
        elif f.name in obj:
            value = obj[f.name]
            accepted, kind, convert = _NUMBERS[getattr(f.type, "__name__", f.type)]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ScenarioError(f"{path}.{f.name}: expected {kind}, got {value!r}")
            # json reads Infinity and NaN as floats, and digits beyond the
            # float range as an int
            if convert is float and not abs(value) <= sys.float_info.max:
                raise ScenarioError(f"{path}.{f.name}: expected a finite number, got {value!r}")
            values[f.name] = convert(value)
        elif defaults is not None and f.name in defaults:
            values[f.name] = defaults[f.name]
        else:
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
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ScenarioError(f"{path}.{key}: expected an array")
    return value


def _segment(obj, path: str) -> WorkloadSegment:
    shape = _SHAPES[_choice(obj, "shape", path, tuple(_SHAPES))]
    return _read(WorkloadSegment, obj, path, shape=_read(shape, obj, path))


def _command(obj, path: str) -> GpioCommand:
    action = _choice(obj, "action", path, (ACTIVATE, DEACTIVATE))
    return _read(GpioCommand, obj, path, action=action)


def scenario_from_dict(obj: dict, path: str = "$") -> Scenario:
    circuit = _choice(obj, "circuit", path, _CIRCUITS)
    segments = tuple(
        _segment(seg, f"{path}.workload[{i}]")
        for i, seg in enumerate(_array(obj, "workload", path))
    )
    commands = tuple(
        _command(cmd, f"{path}.gpio[{i}]")
        for i, cmd in enumerate(_array(obj, "gpio", path))
    )
    switching, noise = obj.get("switching"), obj.get("noise")
    scenario = _read(
        Scenario, obj, path, _SCENARIO_DEFAULTS,
        circuit=circuit,
        shunt=_read(
            ShuntConfig, obj.get("shunt", {}), f"{path}.shunt", asdict(ShuntConfig())
        ),
        workload=_build(WorkloadProfile, f"{path}.workload", segments=segments),
        gpio=GpioCommandLog(commands),
        switching=None if switching is None else _read(
            SwitchingModel, switching, f"{path}.switching",
            asdict(SwitchingModel.for_circuit(circuit)),
        ),
        noise=NoiseModel() if noise is None else _read(NoiseModel, noise, f"{path}.noise"),
    )
    try:
        scenario.validate()
    except (AlternationError, DanglingWindowError) as exc:
        raise ScenarioError(f"{path}.gpio: {exc}") from None
    return scenario


# a GPIO command's JSON record, one shape per action
_COMMANDS = tuple(
    {f.name: LEAF for f in fields(GpioCommand)} | {"action": action}
    for action in (ACTIVATE, DEACTIVATE)
)


def _scenario_doc(scenario: Scenario) -> dict:
    # asdict deep-copies every leaf, about 4 us per GPIO command on CPython
    # 3.11, so the commands are left out of it
    obj = asdict(replace(scenario, gpio=GpioCommandLog()))
    obj["workload"] = [
        {**asdict(seg), "shape": _SHAPE_NAMES[type(seg.shape)], **asdict(seg.shape)}
        for seg in scenario.workload.segments
    ]
    commands = scenario.gpio.entries

    def command_block(start: int, stop: int) -> tuple[list[int], list]:
        block = commands[start:stop]
        kinds = [0 if cmd.action == ACTIVATE else 1 for cmd in block]
        return kinds, [leaf for cmd in block for leaf in (cmd.t_s, cmd.port)]

    obj["gpio"] = Records(_COMMANDS, len(commands), command_block)
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
