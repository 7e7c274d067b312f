import contextlib
import functools
import json
import math
import operator
import tempfile
from dataclasses import asdict, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunking import chunk_rows

from joulemark import simulate
from joulemark.acquisition import channel_rate
from joulemark.energy import integrate_energy
from joulemark.instrument import ACTIVATE, DEACTIVATE, GpioCommand, GpioCommandLog
from joulemark.simulate import (
    RELAY,
    TRIGGER,
    TRIGGER_FULL_CONFIDENCE_S,
    ConstantPower,
    GroundTruth,
    NoiseModel,
    RampPower,
    Scenario,
    ScenarioError,
    SpikyPower,
    SwitchingModel,
    WorkloadProfile,
    WorkloadSegment,
    hit_probability,
    instructions_to_duration,
    load_scenario,
    repeated_toggle_scenario,
    save_scenario,
    scenario_from_dict,
    simulate_session,
    _command,
    _gpio,
)
from joulemark.trace import (
    MeasurementWindow,
    PowerTrace,
    ShuntConfig,
    index_at_or_after,
    power_to_shunt_volts,
    validate_trace,
)

GOLDEN_SCENARIO = Path(__file__).with_name("golden_scenario.json")
README = Path(__file__).resolve().parent.parent / "README.md"
MISSING = object()

# JSON path, the keys that reach it in written_scenario(every_block_scenario()),
# and the bad value put there (MISSING: the key is deleted)
# numbers that json.loads reads but no float field can hold: the words NaN,
# Infinity and -Infinity, and an integer beyond the float range
NON_FINITE_FIELDS = [
    ("$.duration_s", ("duration_s",), math.inf),
    ("$.switching.nominal_latency_s", ("switching", "nominal_latency_s"), math.inf),
    ("$.logic_high_v", ("logic_high_v",), math.nan),
    ("$.workload[0].watts", ("workload", 0, "watts"), math.inf),
    ("$.noise.idle_power_bound_w", ("noise", "idle_power_bound_w"), math.inf),
    ("$.gpio[1].t_s", ("gpio", 1, "t_s"), -math.inf),
    ("$.shunt.rs", ("shunt", "rs"), math.nan),
    ("$.aggregate_rate_hz", ("aggregate_rate_hz",), 10**400),
]

# a key that no field reads, in each kind of object, and the path naming it:
# a misspelt optional field, a ramp's field on a constant segment, and a note
# on a command
UNKNOWN_FIELDS = [
    ("$.aggregate_rate_Hz", ()),
    ("$.shunt.r_s", ("shunt",)),
    ("$.workload[0].w0", ("workload", 0)),
    ("$.gpio[1].note", ("gpio", 1)),
    ("$.switching.latency_s", ("switching",)),
    ("$.noise.idle_bound", ("noise",)),
]

# each field a scenario JSON may leave out, and each form that reads as its
# default: absent (MISSING), for a block {} or null too, and for an array null
OPTIONAL_FIELDS = (
    [
        (name, MISSING)
        for name in ("aggregate_rate_hz", "shunt", "workload", "gpio", "switching", "noise", "logic_high_v", "seed")
    ]
    + [(block, form) for block in ("shunt", "switching", "noise") for form in ({}, None)]
    + [(array, None) for array in ("workload", "gpio")]
)

MALFORMED_FIELDS = [
    ("$.workload[0].watts", ("workload", 0, "watts"), "x"),
    ("$.workload[1].start_s", ("workload", 1, "start_s"), None),
    ("$.gpio[2].t_s", ("gpio", 2, "t_s"), "x"),
    ("$.gpio[3].port", ("gpio", 3, "port"), 43.0),
    ("$.shunt.vf", ("shunt", "vf"), True),
    ("$.switching.floor_hit_prob", ("switching", "floor_hit_prob"), "x"),
    ("$.noise.idle_power_bound_w", ("noise", "idle_power_bound_w"), []),
    ("$.workload[2].period_s", ("workload", 2, "period_s"), MISSING),
]


def written_scenario(scenario: Scenario) -> dict:
    """The scenario as save_scenario writes it, read back by json."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        save_scenario(scenario, path)
        return json.loads(path.read_text())


def pair(t_on: float, t_off: float, port: int = 40) -> tuple[GpioCommand, GpioCommand]:
    return GpioCommand(t_on, port, ACTIVATE), GpioCommand(t_off, port, DEACTIVATE)


def one_window_scenario(circuit: str, **kwargs) -> Scenario:
    defaults = dict(
        duration_s=3.0,
        workload=WorkloadProfile.constant(12.0, 0.0, 3.0),
        gpio=GpioCommandLog(pair(1.0, 2.0)),
        seed=42,
    )
    defaults.update(kwargs)
    return Scenario.create(circuit=circuit, **defaults)


class TestTimingConversions:
    def test_full_confidence_loop_duration(self):
        # 325,000 iterations x 3 instructions at 2.3 GHz
        assert instructions_to_duration(325_000) == pytest.approx(
            4.2391304347826086e-4, rel=1e-12
        )

    def test_trigger_threshold_loop_duration(self):
        assert instructions_to_duration(75_000) == pytest.approx(
            9.782608695652173e-5, rel=1e-12
        )

    def test_zero_iterations(self):
        assert instructions_to_duration(0) == 0.0

    def test_trigger_hit_threshold_default(self):
        assert TRIGGER_FULL_CONFIDENCE_S == pytest.approx(9.782608695652173e-5, rel=1e-12)
        assert SwitchingModel.trigger_default().full_confidence_s == TRIGGER_FULL_CONFIDENCE_S

    def test_trigger_hit_threshold_is_225k_instructions_at_the_reference_clock(self):
        assert TRIGGER_FULL_CONFIDENCE_S == 225_000 / 2.3e9


class TestHitProbability:
    def test_full_confidence_duration_is_certain(self):
        model = SwitchingModel.relay_default()
        assert hit_probability(model.full_confidence_s, model) == 1.0
        assert hit_probability(model.full_confidence_s * 10, model) == 1.0

    def test_zero_duration_hits_at_floor(self):
        model = SwitchingModel.relay_default()
        assert hit_probability(0.0, model) == pytest.approx(0.3)

    def test_midpoint_of_linear_segment(self):
        model = SwitchingModel.relay_default()
        assert hit_probability(model.full_confidence_s / 2, model) == pytest.approx(0.65)
        assert hit_probability(2.12e-4, model) == pytest.approx(0.65, abs=1e-3)

    def test_trigger_model_reaches_certainty_at_its_threshold(self):
        model = SwitchingModel.trigger_default()
        assert hit_probability(instructions_to_duration(75_000), model) == 1.0
        # one third of the threshold reproduces the observed 8/10 rate
        assert hit_probability(instructions_to_duration(25_000), model) == pytest.approx(0.8)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            hit_probability(-1e-3, SwitchingModel.relay_default())
        with pytest.raises(ValueError, match=r"^event duration must be >= 0, got -0\.002$"):
            hit_probability(np.array([0.5, -2e-3, -1.0]), SwitchingModel.relay_default())

    def test_rejects_nan_duration(self):
        with pytest.raises(ValueError, match=r"^event duration must be >= 0, got nan$"):
            hit_probability(float("nan"), SwitchingModel.relay_default())
        with pytest.raises(ValueError, match=r"^event duration must be >= 0, got nan$"):
            hit_probability(np.array([0.5, np.nan, 1.0]), SwitchingModel.relay_default())

    def test_scalar_gives_a_float_and_an_array_gives_an_array(self):
        model = SwitchingModel.relay_default()
        assert type(hit_probability(1e-4, model)) is float
        assert type(hit_probability(np.float64(1.0), model)) is float
        p = hit_probability(np.array([0.0, 1e-4, 1.0]), model)
        assert p.dtype == np.float64 and p.shape == (3,)
        assert hit_probability(np.array([]), model).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(SwitchingModel, full_confidence_s=st.floats(1e-6, 1.0), floor_hit_prob=st.floats(0.0, 1.0)),
        st.lists(st.floats(0.0, 2.0), max_size=8),
        st.lists(st.sampled_from([-1, 0, 1]), max_size=4),
    )
    def test_array_is_the_scalar_map_bit_for_bit(self, model, fractions, steps):
        """Durations anywhere, and one float step below, at and above the
        full-confidence duration."""
        fc = model.full_confidence_s
        durations = [f * fc for f in fractions] + [np.nextafter(fc, fc + step).item() for step in steps]
        got = hit_probability(np.array(durations), model)
        assert got.tobytes() == np.array([hit_probability(d, model) for d in durations]).tobytes()

    def test_model_validation(self):
        with pytest.raises(ValueError):
            SwitchingModel(floor_hit_prob=1.5)
        with pytest.raises(ValueError):
            SwitchingModel(full_confidence_s=0.0)
        with pytest.raises(ValueError):
            SwitchingModel(nominal_latency_s=-1e-3)


class TestWorkloadShapes:
    # oracle: dense trapezoidal quadrature of the shape's own power curve
    def _quadrature(self, shape, a, b, duration, n=2_000_001):
        t = np.linspace(a, b, n)
        return float(np.trapezoid(shape.power(t, duration), t))

    @pytest.mark.parametrize(
        "shape",
        [
            ConstantPower(9.0),
            RampPower(5.0, 15.0),
            SpikyPower(base_w=6.0, peak_w=15.0, period_s=0.037),
        ],
    )
    def test_integral_matches_quadrature(self, shape):
        duration = 1.0
        for a, b in [(0.0, 1.0), (0.13, 0.87), (0.5, 0.500001)]:
            analytic = shape.integral(a, b, duration)
            numeric = self._quadrature(shape, a, b, duration)
            assert analytic == pytest.approx(numeric, rel=1e-8, abs=1e-12)

    @settings(deadline=None)
    @given(
        w0=st.floats(0.0, 1e3),
        w1=st.floats(0.0, 1e3),
        duration=st.one_of(
            st.floats(5e-324, 1e3), st.just(2.2250738585e-313), st.just(5e-324)
        ),
        ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    )
    def test_ramp_integral_is_exact_and_finite(self, w0, w1, duration, ends):
        # oracle: the closed form w0 (b - a) + (w1 - w0) (b^2 - a^2) / (2 d),
        # evaluated exactly in rationals
        a, b = sorted(min(x * duration, duration) for x in ends)
        got = RampPower(w0, w1).integral(a, b, duration)
        w0_, w1_, a_, b_, d_ = map(Fraction, (w0, w1, a, b, duration))
        exact = w0_ * (b_ - a_) + (w1_ - w0_) * (b_ * b_ - a_ * a_) / (2 * d_)
        assert math.isfinite(got)
        # a few roundings relative to the largest power the ramp reaches, and
        # half a subnormal step where the result itself is subnormal
        bound = Fraction(1e-12) * (b_ - a_) * max(w0_, w1_) + Fraction(5e-324)
        assert abs(Fraction(got) - exact) <= bound

    def test_ramp_over_a_subnormal_duration_keeps_truth_finite(self):
        d = 2.2250738585e-313
        assert RampPower(0.0, 1.0).integral(0.0, d, d) == float(Fraction(d) / 2)
        profile = WorkloadProfile(
            (
                WorkloadSegment(0.0, d, RampPower(0.0, 1.0)),
                WorkloadSegment(1.0, 2.0, ConstantPower(3.0)),
            )
        )
        assert profile.integral(0.0, 2.0) == pytest.approx(3.0, rel=1e-12)

    def test_profile_integral_sums_segments(self):
        profile = WorkloadProfile(
            (
                WorkloadSegment(0.0, 1.0, ConstantPower(10.0)),
                WorkloadSegment(2.0, 3.0, RampPower(0.0, 4.0)),
            )
        )
        # 10 J from the plateau, 2 J from the ramp, nothing from the gap
        assert profile.integral(0.0, 3.0) == pytest.approx(12.0, rel=1e-12)
        assert profile.integral(1.0, 2.0) == 0.0
        assert profile.integral(0.5, 2.5) == pytest.approx(5.0 + 0.5, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        cuts=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8, unique=True),
        kinds=st.lists(st.sampled_from(["constant", "ramp", "spiky"]), min_size=4, max_size=4),
        spans=st.lists(st.tuples(st.floats(0.0, 12.0), st.floats(0.0, 12.0)), max_size=20),
    )
    def test_profile_integral_over_arrays_is_the_scalar_loop(self, cuts, kinds, spans):
        # oracle: the profile integral one pair at a time in Python floats,
        # with math.sin, bit for bit
        shapes = {
            "constant": ConstantPower(9.0),
            "ramp": RampPower(5.0, 15.0),
            "spiky": SpikyPower(base_w=6.0, peak_w=15.0, period_s=0.037),
        }
        cuts = sorted(cuts)
        profile = WorkloadProfile(tuple(
            WorkloadSegment(lo, hi, shapes[kinds[i % 4]])
            for i, (lo, hi) in enumerate(zip(cuts[::2], cuts[1::2]))
        ))

        def shape_integral(shape, a, b, duration):
            if not isinstance(shape, SpikyPower):
                return shape.integral(a, b, duration)
            amp, T = shape.peak_w - shape.base_w, shape.period_s
            osc = (b - a) / 2.0 - (T / (4.0 * math.pi)) * (
                math.sin(2.0 * math.pi * b / T) - math.sin(2.0 * math.pi * a / T)
            )
            return shape.base_w * (b - a) + amp * osc

        def one_pair(a, b):
            total = 0.0
            for seg in profile.segments:
                lo, hi = max(a, seg.start_s), min(b, seg.end_s)
                if hi > lo:
                    total += shape_integral(seg.shape, lo - seg.start_s, hi - seg.start_s, seg.end_s - seg.start_s)
            return total

        a, b = (np.array([sorted(pair)[i] for pair in spans], dtype=np.float64) for i in (0, 1))
        got = profile.integral(a, b)
        assert got.dtype == np.float64 and got.shape == a.shape
        assert got.tolist() == [one_pair(x, y) for x, y in zip(a.tolist(), b.tolist())]

    def test_profile_integral_names_the_first_reversed_pair(self):
        profile = WorkloadProfile.constant(1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^need a <= b, got \[0\.5, 0\.25\]$"):
            profile.integral(np.array([0.0, 0.5, 0.9]), np.array([0.1, 0.25, 0.5]))

    def test_profile_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            WorkloadProfile(
                (
                    WorkloadSegment(0.0, 2.0, ConstantPower(1.0)),
                    WorkloadSegment(1.0, 3.0, ConstantPower(1.0)),
                )
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ConstantPower(-1.0)
        with pytest.raises(ValueError):
            RampPower(-1.0, 5.0)
        with pytest.raises(ValueError):
            SpikyPower(base_w=9.0, peak_w=6.0, period_s=0.1)
        with pytest.raises(ValueError):
            SpikyPower(base_w=1.0, peak_w=2.0, period_s=0.0)


class TestScenarioValidation:
    def test_gpio_outside_duration_names_entry(self, monkeypatch):
        gpio = GpioCommandLog(pair(0.1, 0.2) + pair(0.25, 3.5, port=43))

        def no_entries(log):
            raise AssertionError("GpioCommand objects built")

        # named from the log's columns
        monkeypatch.setattr(GpioCommandLog, "entries", property(no_entries))
        with pytest.raises(ScenarioError) as raised:
            one_window_scenario(TRIGGER, gpio=gpio)
        assert str(raised.value) == "gpio entry 3 (deactivate port 43 at t=3.5s) lies outside [0, 3.0]s"

    def test_overlapping_windows_across_ports_rejected(self):
        gpio = GpioCommandLog(
            (
                GpioCommand(0.5, 40, ACTIVATE),
                GpioCommand(1.0, 43, ACTIVATE),
                GpioCommand(1.5, 40, DEACTIVATE),
                GpioCommand(2.0, 43, DEACTIVATE),
            )
        )
        with pytest.raises(ScenarioError) as raised:
            one_window_scenario(RELAY, gpio=gpio)
        assert str(raised.value) == (
            "measurement windows overlap: port 40 [0.5, 1.5]s and port 43 "
            "[1.0, 2.0]s (one circuit cannot serve overlapping windows)"
        )
        # of two overlaps after a pair that overlaps nothing, the first is named
        commands = pair(0.1, 0.2, port=46) + gpio.entries + pair(1.8, 2.5, port=46)
        gpio = GpioCommandLog(sorted(commands, key=lambda c: c.t_s))
        with pytest.raises(ScenarioError) as raised:
            one_window_scenario(RELAY, gpio=gpio)
        assert str(raised.value).startswith("measurement windows overlap: port 40 [0.5, 1.5]s and port 43")

    def test_workload_past_duration_rejected(self):
        with pytest.raises(ScenarioError, match="workload"):
            one_window_scenario(TRIGGER, workload=WorkloadProfile.constant(1.0, 0.0, 5.0))

    def test_unknown_circuit_rejected(self):
        with pytest.raises(ScenarioError):
            one_window_scenario("oscilloscope")

    @pytest.mark.parametrize("seed", [True, 1.5, "7", None])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        with pytest.raises(ScenarioError) as raised:
            one_window_scenario(RELAY, seed=seed)
        assert str(raised.value) == f"seed must be an integer, got {seed!r}"


# one defect each of one_window_scenario's fields, and the error it raises
SCENARIO_DEFECTS = [
    ("duration_s", 0.0, "duration must be positive, got 0.0"),
    ("aggregate_rate_hz", -1.0, "aggregate rate must be positive, got -1.0"),
    (
        "gpio",
        GpioCommandLog(pair(1.0, 3.5)),
        "gpio entry 1 (deactivate port 40 at t=3.5s) lies outside [0, 3.0]s",
    ),
    (
        "gpio",
        GpioCommandLog(sorted(pair(0.5, 1.5) + pair(1.0, 2.0, port=43), key=lambda c: c.t_s)),
        "measurement windows overlap: port 40 [0.5, 1.5]s and port 43 "
        "[1.0, 2.0]s (one circuit cannot serve overlapping windows)",
    ),
    (
        "workload",
        WorkloadProfile.constant(1.0, 0.0, 5.0),
        "workload segment [0.0, 5.0]s extends past the 3.0s session",
    ),
    ("seed", -1, "seed must be >= 0, got -1"),
]


def as_json(value):
    """A field value of one_window_scenario as the scenario JSON holds it."""
    if isinstance(value, GpioCommandLog):
        return [asdict(cmd) for cmd in value.entries]
    if isinstance(value, WorkloadProfile):
        return [{**asdict(seg), "shape": "constant", **asdict(seg.shape)} for seg in value.segments]
    return value


@pytest.mark.parametrize(
    "name,value,message", SCENARIO_DEFECTS, ids=[message[:24] for *_, message in SCENARIO_DEFECTS]
)
def test_every_scenario_defect_raises_when_built(name, value, message):
    """From the library as the Scenario is built, and from JSON as the
    scenario's own error, at the path of the whole scenario."""
    with pytest.raises(ScenarioError) as raised:
        one_window_scenario(RELAY, **{name: value})
    assert str(raised.value) == message
    obj = written_scenario(one_window_scenario(RELAY))
    obj[name] = as_json(value)
    with pytest.raises(ScenarioError) as raised:
        scenario_from_dict(obj)
    assert str(raised.value) == f"$: {message}"


class TestScenarioConstruction:
    def test_constructor_takes_the_circuit_switching_default(self):
        scenario = Scenario(duration_s=1.0, circuit=TRIGGER)
        assert scenario.switching == SwitchingModel.trigger_default()
        assert scenario == Scenario.create(
            1.0, TRIGGER, WorkloadProfile(), GpioCommandLog()
        )

    @pytest.mark.parametrize(
        "circuit,channels,rate", [(RELAY, 1, 40_000.0), (TRIGGER, 2, 20_000.0)]
    )
    def test_channel_layout_follows_circuit(self, circuit, channels, rate):
        config = Scenario(duration_s=1.0, circuit=circuit).config
        assert config.channels == channels
        assert channel_rate(config) == rate


# each float field a constructor checks for finiteness, the value built with
# a bad number there, and the error it raises
FINITE_FIELDS = [
    ("nominal_latency_s", lambda v: SwitchingModel(nominal_latency_s=v), ValueError),
    ("full_confidence_s", lambda v: SwitchingModel(full_confidence_s=v), ValueError),
    ("idle_power_bound_w", lambda v: NoiseModel(idle_power_bound_w=v), ValueError),
    ("watts", lambda v: ConstantPower(v), ValueError),
    ("w0", lambda v: RampPower(v, 1.0), ValueError),
    ("w1", lambda v: RampPower(1.0, v), ValueError),
    ("base_w", lambda v: SpikyPower(v, 2.0, 0.1), ValueError),
    ("peak_w", lambda v: SpikyPower(1.0, v, 0.1), ValueError),
    ("period_s", lambda v: SpikyPower(1.0, 2.0, v), ValueError),
    ("start_s", lambda v: WorkloadSegment(v, 2.0, ConstantPower(1.0)), ValueError),
    ("end_s", lambda v: WorkloadSegment(0.0, v, ConstantPower(1.0)), ValueError),
    ("duration_s", lambda v: Scenario(duration_s=v, circuit=RELAY), ScenarioError),
    ("aggregate_rate_hz", lambda v: Scenario(duration_s=1.0, circuit=TRIGGER, aggregate_rate_hz=v), ScenarioError),
    ("logic_high_v", lambda v: Scenario(duration_s=1.0, circuit=TRIGGER, logic_high_v=v), ScenarioError),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize("name,build,error", FINITE_FIELDS, ids=[case[0] for case in FINITE_FIELDS])
def test_non_finite_number_is_rejected_by_its_constructor(name, build, error, value):
    with pytest.raises(error) as info:
        build(value)
    assert str(info.value) == f"{name} must be finite, got {value}"


class TestSimulateTrigger:
    def test_constant_window_truth_and_trigger_levels(self):
        trace, truth = simulate_session(one_window_scenario(TRIGGER))
        # per-channel rate is half the 40 kHz aggregate
        assert trace.rate_hz == pytest.approx(20_000.0)
        assert len(trace) == 60_000
        assert truth.true_joules[0] == pytest.approx(12.0, rel=1e-12)
        assert truth.hit[0] and truth.realized_windows() == [MeasurementWindow(20_000, 40_000)]
        high = np.flatnonzero(trace.trig >= 0.9)
        assert high[0] == 20_000 and high[-1] == 39_999
        assert len(high) == 20_000

    def test_vs_carries_workload_for_whole_session(self):
        trace, _ = simulate_session(one_window_scenario(TRIGGER))
        # 12 W through the default shunt is 0.1 V everywhere
        assert np.all(trace.vs == pytest.approx(0.1, rel=1e-12))

    def test_trigger_channel_is_two_valued(self):
        scenario = one_window_scenario(
            TRIGGER,
            gpio=GpioCommandLog(pair(0.5, 1.0) + pair(1.5, 2.5, port=43)),
        )
        trace, truth = simulate_session(scenario)
        assert set(np.unique(trace.trig)) == {0.0, 1.8}
        # every high-run corresponds to exactly one ground-truth window
        padded = np.concatenate(([0.0], trace.trig, [0.0]))
        rises = np.flatnonzero(np.diff(padded > 0.9) & (np.diff(padded) > 0))
        assert len(rises) == len(truth.realized_windows())


class TestSimulateRelay:
    def test_latency_shifts_realized_window(self):
        scenario = one_window_scenario(RELAY, aggregate_rate_hz=20_000.0)
        trace, truth = simulate_session(scenario)
        assert trace.rate_hz == pytest.approx(20_000.0)
        # oracle: scan the raw trace for the first sample that is clearly
        # workload (12 W) rather than idle noise (|P| <= 1 mW)
        power = trace.power_w()
        first_active = int(np.flatnonzero(np.abs(power) > 6.0)[0])
        command_idx = 20_000
        latency_samples = 10  # 0.5 ms at 20 kHz
        assert first_active == command_idx + latency_samples
        assert truth.realized_begin[0] == first_active

    def test_idle_power_stays_within_noise_bound(self):
        trace, truth = simulate_session(one_window_scenario(RELAY))
        power = trace.power_w()
        (w,) = truth.realized_windows()
        idle = np.concatenate([power[: w.begin], power[w.end :]])
        assert np.max(np.abs(idle)) <= 0.001 + 1e-12

    def test_zero_length_window_hits_at_floor_probability(self):
        hits = 0
        for seed in range(100):
            scenario = one_window_scenario(
                RELAY, gpio=GpioCommandLog(pair(1.0, 1.0)), seed=seed
            )
            _, truth = simulate_session(scenario)
            hits += truth.hits
        assert abs(hits / 100 - 0.3) <= 0.15

    def test_miss_leaves_trace_idle(self):
        # floor 0 and zero-length window force a deterministic miss
        scenario = one_window_scenario(
            RELAY,
            gpio=GpioCommandLog(pair(1.0, 1.0)),
            switching=SwitchingModel(floor_hit_prob=0.0),
        )
        trace, truth = simulate_session(scenario)
        assert truth.misses == 1
        assert np.max(np.abs(trace.power_w())) <= 0.001 + 1e-12


class TestSimulateProperties:
    def test_deterministic_for_fixed_seed(self):
        scenario = one_window_scenario(RELAY)
        t1, g1 = simulate_session(scenario)
        t2, g2 = simulate_session(scenario)
        assert np.array_equal(t1.vs, t2.vs)
        assert g1 == g2

    def test_different_seeds_differ_in_noise(self):
        t1, _ = simulate_session(one_window_scenario(RELAY, seed=1))
        t2, _ = simulate_session(one_window_scenario(RELAY, seed=2))
        assert not np.array_equal(t1.vs, t2.vs)

    @pytest.mark.parametrize("circuit", [RELAY, TRIGGER])
    def test_every_simulated_trace_validates(self, circuit):
        rng = np.random.default_rng(17)
        for seed in range(10):
            n_windows = rng.integers(1, 4)
            cmds = []
            cursor = 0.2
            for _ in range(n_windows):
                length = float(rng.uniform(0.1, 0.4))
                cmds.extend(pair(cursor, cursor + length))
                cursor += length + 0.2
            scenario = Scenario.create(
                duration_s=cursor + 0.2,
                circuit=circuit,
                workload=WorkloadProfile.constant(9.0, 0.0, cursor + 0.2),
                gpio=GpioCommandLog(tuple(cmds)),
                seed=seed,
            )
            trace, _ = simulate_session(scenario)
            assert validate_trace(trace).ok

    @pytest.mark.parametrize(
        "workload_shape,affine",
        [
            (ConstantPower(12.0), True),
            (RampPower(4.0, 14.0), True),
            (SpikyPower(base_w=6.0, peak_w=15.0, period_s=0.02), False),
        ],
    )
    @pytest.mark.parametrize("circuit", [RELAY, TRIGGER])
    def test_clean_session_reproduces_truth_by_integration(
        self, workload_shape, affine, circuit
    ):
        scenario = Scenario.create(
            duration_s=3.0,
            circuit=circuit,
            workload=WorkloadProfile((WorkloadSegment(0.0, 3.0, workload_shape),)),
            gpio=GpioCommandLog(pair(1.0, 2.0)),
            switching=SwitchingModel(nominal_latency_s=0.0),
            noise=NoiseModel(idle_power_bound_w=0.0),
            seed=5,
        )
        trace, truth = simulate_session(scenario)
        (w,) = truth.realized_windows()
        result = integrate_energy(trace, w)
        # the trapezoid is exact for affine power over the realized sample
        # span [b/r, (e-1)/r]; spiky picks up only curvature error
        rate = trace.rate_hz
        span_truth = scenario.workload.integral(w.begin / rate, (w.end - 1) / rate)
        assert result.joules == pytest.approx(
            span_truth, rel=1e-12 if affine else 1e-5
        )
        # against the commanded [on, off] interval the only loss is the
        # half-open boundary sample, worth at most P_max * dt
        assert result.joules == pytest.approx(truth.true_joules[0], rel=1e-4)

    def test_idle_noise_integral_is_zero_mean_across_seeds(self):
        # analytic standard error of the trapezoidal integral of n uniform
        # samples: endpoints weigh dt/2, interiors dt, so
        # var = dt^2 * sigma^2 * (n - 2 + 2/4), sigma = bound/sqrt(3)
        rate, duration, bound = 40_000.0, 1.0, 0.001
        n = int(round(rate * duration))
        sigma_e = (1.0 / rate) * (bound / math.sqrt(3.0)) * math.sqrt(n - 1.5)
        energies = []
        for seed in range(100):
            scenario = Scenario.create(
                duration_s=duration,
                circuit=RELAY,
                workload=WorkloadProfile(),
                gpio=GpioCommandLog(),
                noise=NoiseModel(idle_power_bound_w=bound),
                seed=seed,
            )
            trace, _ = simulate_session(scenario)
            energies.append(integrate_energy(trace, MeasurementWindow(0, n)).joules)
        assert abs(np.mean(energies)) <= 3.0 * sigma_e / math.sqrt(100)

    @pytest.mark.parametrize("circuit", [RELAY, TRIGGER])
    def test_capture_probabilities_are_computed_once_per_session(self, circuit, monkeypatch):
        calls = []

        def counted(durations, model):
            calls.append(np.shape(durations))
            return hit_probability(durations, model)

        monkeypatch.setattr(simulate, "hit_probability", counted)
        scenario = repeated_toggle_scenario(2e-4, 5, circuit, seed=3)
        simulate_session(scenario)
        assert calls == [(5,)]

    def test_hit_rate_converges_to_model_probability(self):
        model = SwitchingModel.relay_default()
        d = model.full_confidence_s / 2  # p = 0.65 exactly
        hits = 0
        for seed in range(1000):
            scenario = repeated_toggle_scenario(
                d, 1, RELAY, gap_s=2e-3, seed=seed
            )
            _, truth = simulate_session(scenario)
            hits += truth.hits
        p = hit_probability(d, model)
        # two-sided 99% binomial interval around the model probability
        half_width = 2.576 * math.sqrt(p * (1 - p) / 1000)
        assert abs(hits / 1000 - p) <= half_width


class TestScenarioJson:
    def _scenario(self) -> Scenario:
        return Scenario.create(
            duration_s=3.0,
            circuit=TRIGGER,
            workload=WorkloadProfile(
                (
                    WorkloadSegment(0.0, 1.5, ConstantPower(9.0)),
                    WorkloadSegment(1.5, 3.0, SpikyPower(6.0, 15.0, 0.05)),
                )
            ),
            gpio=GpioCommandLog(pair(0.5, 1.2) + pair(1.8, 2.6, port=43)),
            seed=99,
        )

    def test_round_trip(self, tmp_path):
        scenario = self._scenario()
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_missing_required_field_names_path(self):
        with pytest.raises(ScenarioError, match=r"\$\.duration_s"):
            scenario_from_dict({"circuit": "relay", "seed": 0})

    def test_seed_is_optional_and_duration_required(self):
        obj = written_scenario(self._scenario())
        del obj["seed"]
        assert scenario_from_dict(obj).seed == 0
        del obj["duration_s"]
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(obj)
        assert str(info.value) == "$.duration_s: missing required field"

    @pytest.mark.parametrize("circuit", [RELAY, TRIGGER])
    @pytest.mark.parametrize(
        "name,form", OPTIONAL_FIELDS,
        ids=[f"{name}-{'absent' if form is MISSING else json.dumps(form)}" for name, form in OPTIONAL_FIELDS],
    )
    def test_optional_field_reads_as_its_default(self, circuit, name, form):
        full = replace(every_block_scenario(), circuit=circuit)
        obj = written_scenario(full)
        if form is MISSING:
            del obj[name]
        else:
            obj[name] = form
        without = Scenario(**{f.name: getattr(full, f.name) for f in fields(Scenario) if f.name != name})
        assert without != full
        assert scenario_from_dict(obj) == without

    @pytest.mark.parametrize("array", ["workload", "gpio"])
    @pytest.mark.parametrize("value", [{}, 0, "x", False])
    def test_an_array_that_is_neither_a_list_nor_null_is_rejected(self, array, value):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict({"duration_s": 1.0, "circuit": "relay", array: value})
        assert str(info.value) == f"$.{array}: expected an array"

    def test_bad_workload_segment_names_path(self):
        obj = written_scenario(self._scenario())
        obj["workload"][1]["end_s"] = obj["workload"][1]["start_s"]
        with pytest.raises(ScenarioError, match=r"workload\[1\]"):
            scenario_from_dict(obj)

    def test_bad_gpio_action_names_path(self):
        obj = written_scenario(self._scenario())
        obj["gpio"][2]["action"] = "toggle"
        with pytest.raises(ScenarioError, match=r"gpio\[2\]\.action"):
            scenario_from_dict(obj)

    def test_bad_switching_floor_names_path(self):
        obj = written_scenario(self._scenario())
        obj["switching"]["floor_hit_prob"] = 2.0
        with pytest.raises(ScenarioError, match=r"switching"):
            scenario_from_dict(obj)

    def test_gpio_beyond_duration_rejected_on_load(self):
        obj = written_scenario(self._scenario())
        obj["gpio"][3]["t_s"] = 17.0
        with pytest.raises(ScenarioError, match="entry 3"):
            scenario_from_dict(obj)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(path)

    def test_seed_must_be_integer(self):
        obj = written_scenario(self._scenario())
        obj["seed"] = 1.5
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(obj)
        assert str(info.value) == "$.seed: expected an integer, got 1.5"

    @pytest.mark.parametrize("path,keys", UNKNOWN_FIELDS, ids=[case[0] for case in UNKNOWN_FIELDS])
    def test_unknown_field_is_named_at_its_path(self, path, keys):
        obj = written_scenario(every_block_scenario())
        functools.reduce(operator.getitem, keys, obj)[path.rsplit(".", 1)[1]] = 1.0
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(obj)
        assert str(info.value) == f"{path}: unknown field"

    def test_the_first_unknown_field_is_named(self):
        obj = written_scenario(every_block_scenario())
        obj["workload"][1] |= {"zeta": 1.0, "watts": 2.0}
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(obj)
        assert str(info.value) == "$.workload[1].zeta: unknown field"

    @pytest.mark.parametrize("circuit", [RELAY, TRIGGER])
    def test_readme_example_loads(self, circuit):
        text = README.read_text().split("**Scenario JSON**", 1)[1]
        example = text.split("```json\n", 1)[1].split("```", 1)[0]
        obj = json.loads(example.replace('"relay | trigger"', json.dumps(circuit)))
        scenario = scenario_from_dict(obj)
        assert (scenario.circuit, scenario.seed, len(scenario.gpio)) == (circuit, 7, 2)

    @pytest.mark.parametrize("rate", [0.0, -40_000.0])
    def test_non_positive_rate_is_a_scenario_error(self, rate):
        obj = written_scenario(self._scenario())
        obj["aggregate_rate_hz"] = rate
        with pytest.raises(ScenarioError, match="aggregate rate must be positive"):
            scenario_from_dict(obj)

    @pytest.mark.parametrize(
        "path,keys,value", MALFORMED_FIELDS, ids=[case[0] for case in MALFORMED_FIELDS]
    )
    def test_malformed_field_is_named_once(self, path, keys, value):
        obj = written_scenario(every_block_scenario())
        block = functools.reduce(operator.getitem, keys[:-1], obj)
        if value is MISSING:
            del block[keys[-1]]
        else:
            block[keys[-1]] = value
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(obj)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert message.count("$") == 1

    @pytest.mark.parametrize(
        "path,keys,value", NON_FINITE_FIELDS, ids=[case[0] for case in NON_FINITE_FIELDS]
    )
    def test_non_finite_number_is_named_at_its_path(self, tmp_path, path, keys, value):
        obj = written_scenario(every_block_scenario())
        functools.reduce(operator.getitem, keys[:-1], obj)[keys[-1]] = value
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps(obj))
        with pytest.raises(ScenarioError) as info:
            load_scenario(scenario_path)
        assert str(info.value) == f"{path}: expected a finite number, got {value!r}"

    def test_dangling_activate_is_a_scenario_error(self):
        obj = written_scenario(self._scenario())
        obj["gpio"] = obj["gpio"][:3]  # drop the final deactivate
        with pytest.raises(ScenarioError, match="active"):
            scenario_from_dict(obj)

    def test_swapped_pair_is_a_scenario_error(self):
        obj = written_scenario(self._scenario())
        obj["gpio"][0]["action"] = "deactivate"
        obj["gpio"][1]["action"] = "activate"
        with pytest.raises(ScenarioError):
            scenario_from_dict(obj)


def every_block_scenario() -> Scenario:
    """All three shapes, two ports and every optional block off its default."""
    return Scenario.create(
        duration_s=2.0,
        circuit=TRIGGER,
        workload=WorkloadProfile(
            (
                WorkloadSegment(0.0, 0.5, ConstantPower(3.0)),
                WorkloadSegment(0.5, 1.25, RampPower(2.0, 7.5)),
                WorkloadSegment(1.25, 2.0, SpikyPower(1.0, 4.0, 0.1)),
            )
        ),
        gpio=GpioCommandLog(pair(0.25, 0.75) + pair(1.0, 1.5, port=43)),
        aggregate_rate_hz=20_000.0,
        shunt=ShuntConfig(vf=5.0, rs=0.05),
        switching=SwitchingModel(
            nominal_latency_s=1e-4, full_confidence_s=2e-4, floor_hit_prob=0.5
        ),
        noise=NoiseModel(idle_power_bound_w=0.002),
        logic_high_v=3.3,
        seed=11,
    )


class TestScenarioFormat:
    def test_saved_bytes_match_golden_file(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(every_block_scenario(), path)
        assert path.read_bytes() == GOLDEN_SCENARIO.read_bytes()

    def test_golden_file_loads_to_the_scenario(self):
        assert load_scenario(GOLDEN_SCENARIO) == every_block_scenario()


watts = st.floats(0.0, 1e3)
positive = st.floats(1e-3, 10.0)


@st.composite
def shapes(draw):
    kind = draw(st.sampled_from(["constant", "ramp", "spiky"]))
    if kind == "constant":
        return ConstantPower(draw(watts))
    if kind == "ramp":
        return RampPower(draw(watts), draw(watts))
    base = draw(watts)
    return SpikyPower(base, base + draw(watts), draw(positive))


@st.composite
def scenarios(draw):
    segments, cursor = [], 0.0
    for shape in draw(st.lists(shapes(), max_size=4)):
        start = cursor + draw(st.floats(0.0, 1.0))
        cursor = start + draw(positive)
        segments.append(WorkloadSegment(start, cursor, shape))
    cmds, t = [], 0.0
    for port in draw(st.lists(st.integers(0, 255), max_size=4)):
        t_on = t + draw(st.floats(0.0, 1.0))
        t = t_on + draw(st.floats(0.0, 1.0))
        cmds.extend(pair(t_on, t, port=port))
    circuit = draw(st.sampled_from([RELAY, TRIGGER]))
    return Scenario.create(
        duration_s=max(cursor, t) + draw(positive),
        circuit=circuit,
        workload=WorkloadProfile(tuple(segments)),
        gpio=GpioCommandLog(tuple(cmds)),
        aggregate_rate_hz=draw(st.floats(1.0, 1e6)),
        shunt=ShuntConfig(vf=draw(positive), rs=draw(positive)),
        switching=draw(
            st.one_of(
                st.none(),
                st.builds(
                    SwitchingModel,
                    nominal_latency_s=st.floats(0.0, 1e-2),
                    full_confidence_s=positive,
                    floor_hit_prob=st.floats(0.0, 1.0),
                ),
            )
        ),
        noise=draw(st.builds(NoiseModel, idle_power_bound_w=st.floats(0.0, 1.0))),
        logic_high_v=draw(positive),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_scenario_json_round_trip(scenario):
    obj = written_scenario(scenario)
    assert scenario_from_dict(obj) == scenario


def whole_array_session(scenario: Scenario) -> tuple[PowerTrace, GroundTruth]:
    """Reference simulator: the workload evaluated over the whole session at
    once and every realized window copied in, as simulate_session did before
    it worked in blocks."""
    rate = channel_rate(scenario.config)
    n = int(round(scenario.duration_s * rate))
    rng = np.random.default_rng(scenario.seed)
    t = np.arange(n) / rate
    vs_true = power_to_shunt_volts(scenario.workload.power_at(t), scenario.shunt)
    latency = scenario.switching.nominal_latency_s
    t_on, t_off, port = scenario.gpio.windows()
    hits, begins, ends, true_joules = [], [], [], []
    for on, off in zip(t_on.tolist(), t_off.tolist()):
        hit = bool(rng.random() < hit_probability(off - on, scenario.switching))
        b = e = -1
        if hit:
            b = index_at_or_after(on + latency, rate)
            e = min(index_at_or_after(off + latency, rate), n)
            if e - b < 1:
                b = e = -1
        hits.append(hit)
        begins.append(b)
        ends.append(e)
        true_joules.append(scenario.workload.integral(on, off))
    windows = [MeasurementWindow(b, e) for b, e in zip(begins, ends) if b >= 0]
    if scenario.circuit == RELAY:
        vs = power_to_shunt_volts(scenario.noise.draw_power(rng, n), scenario.shunt)
        for w in windows:
            vs[w.begin : w.end] = vs_true[w.begin : w.end]
        trace = PowerTrace(rate_hz=rate, vs=vs, shunt=scenario.shunt)
    else:
        trig = np.zeros(n)
        for w in windows:
            trig[w.begin : w.end] = scenario.logic_high_v
        trace = PowerTrace(rate_hz=rate, vs=vs_true, trig=trig, shunt=scenario.shunt)
    truth = GroundTruth(
        rate, scenario.seed, port, t_on, t_off, np.array(hits, dtype=bool),
        np.array(begins, dtype=np.int64), np.array(ends, dtype=np.int64), np.array(true_joules),
    )
    return trace, truth


def column_bytes(truth: GroundTruth) -> list:
    """Each field of the truth as its dtype and bytes: every bit counts, and
    a nan true_joules equals itself."""
    return [(a.dtype, a.tobytes()) for a in (np.asarray(getattr(truth, f.name)) for f in fields(truth))]


@st.composite
def short_sessions(draw):
    """Sessions of 1 to 2,000 samples per channel: up to four segments of any
    shape and one to six toggle pairs, placed anywhere in the session."""
    circuit = draw(st.sampled_from([RELAY, TRIGGER]))
    aggregate = draw(st.floats(10.0, 1e5))
    rate = aggregate / (1 if circuit == RELAY else 2)
    duration = draw(st.integers(1, 2_000)) / rate
    times = st.floats(0.0, duration)
    segments = []
    bounds = sorted(draw(st.lists(times, max_size=8, unique=True)))
    for start, end in zip(bounds[::2], bounds[1::2]):
        segments.append(WorkloadSegment(start, end, draw(shapes())))
    cmds = []
    edges = sorted(draw(st.lists(times, min_size=2, max_size=12)))
    for t_on, t_off in zip(edges[::2], edges[1::2]):
        cmds.extend(pair(t_on, t_off))
    return Scenario(
        duration_s=duration,
        circuit=circuit,
        aggregate_rate_hz=aggregate,
        shunt=ShuntConfig(vf=draw(positive), rs=draw(positive)),
        workload=WorkloadProfile(tuple(segments)),
        gpio=GpioCommandLog(tuple(cmds)),
        switching=draw(
            st.one_of(
                st.none(),
                st.builds(
                    SwitchingModel,
                    nominal_latency_s=st.floats(0.0, duration),
                    full_confidence_s=positive,
                    floor_hit_prob=st.floats(0.0, 1.0),
                ),
            )
        ),
        noise=NoiseModel(draw(st.floats(0.0, 1.0))),
        logic_high_v=draw(positive),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=300, deadline=None)
@given(short_sessions(), st.sampled_from([1, 3, 7, 64, None]))
def test_simulation_matches_whole_array_reference(scenario, rows):
    """Bit for bit, at the default block size and at blocks that put window
    and segment edges inside and across blocks."""
    with chunk_rows(rows) if rows else contextlib.nullcontext():
        trace, truth = simulate_session(scenario)
    ref_trace, ref_truth = whole_array_session(scenario)
    assert column_bytes(truth) == column_bytes(ref_truth)
    assert (trace.rate_hz, trace.shunt) == (ref_trace.rate_hz, ref_trace.shunt)
    assert trace.vs.tobytes() == ref_trace.vs.tobytes()
    assert trace.has_trigger == ref_trace.has_trigger
    if trace.has_trigger:
        assert trace.trig.tobytes() == ref_trace.trig.tobytes()


# one defect each: a missing or extra key, a port that is a bool, a string,
# a float or beyond 64 bits, a time that is a bool, NaN, infinite, negative
# or beyond the float range, an unknown action, or a command that is not an
# object
GPIO_DEFECTS = [
    lambda cmd: {k: v for k, v in cmd.items() if k != "t_s"},
    lambda cmd: {k: v for k, v in cmd.items() if k != "action"},
    lambda cmd: {**cmd, "note": "extra"},
    lambda cmd: {**cmd, "port": True},
    lambda cmd: {**cmd, "port": "40"},
    lambda cmd: {**cmd, "port": 40.0},
    lambda cmd: {**cmd, "port": 2**63},
    lambda cmd: {**cmd, "port": -(2**63) - 1},
    lambda cmd: {**cmd, "t_s": False},
    lambda cmd: {**cmd, "t_s": math.nan},
    lambda cmd: {**cmd, "t_s": math.inf},
    lambda cmd: {**cmd, "t_s": -0.5},
    lambda cmd: {**cmd, "t_s": 10**400},
    lambda cmd: {**cmd, "t_s": "0.5"},
    lambda cmd: {**cmd, "action": "toggle"},
    lambda cmd: {**cmd, "action": ["activate"]},
    lambda cmd: [cmd["t_s"], cmd["port"], cmd["action"]],
]


@st.composite
def gpio_arrays(draw):
    """The gpio array of a scenario as json reads it: times as floats, or as
    ints up to beyond 2**64 (json reads digits without a point as an int),
    with maybe one or two commands given one defect each."""
    items = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "t_s": st.floats(0.0, 1e6) | st.integers(0, 2**70) | st.just(-0.0),
                    "port": st.integers(-(2**63), 2**63 - 1),
                    "action": st.sampled_from([ACTIVATE, DEACTIVATE]),
                }
            ),
            max_size=8,
        )
    )
    changed = draw(st.lists(st.integers(0, len(items) - 1), max_size=2, unique=True)) if items else []
    for i in changed:
        items[i] = draw(st.sampled_from(GPIO_DEFECTS))(items[i])
    return items


def gpio_outcome(read, items):
    try:
        log = read(items)
    except ScenarioError as exc:
        return str(exc)
    return tuple(column.dtype.str + column.tobytes().hex() for column in (log.t_s, log.port, log.deactivate))


@settings(max_examples=500, deadline=None)
@given(items=gpio_arrays())
def test_one_pass_gpio_reader_reads_what_the_command_reader_reads(items):
    """Columns of the same bits, or the same error at the same path, the
    first in error."""
    by_command = gpio_outcome(
        lambda items: GpioCommandLog(_command(cmd, f"$.gpio[{i}]") for i, cmd in enumerate(items)), items
    )
    assert gpio_outcome(lambda items: _gpio(items, "$"), items) == by_command
