import hashlib
import io
import math
import numbers
from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from chunking import chunk_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from joulemark import cli, textrows
from joulemark import trace as trace_module
from joulemark.acquisition import AcquisitionConfig, StreamSource, open_source, read_all
from joulemark.cli import _skyline_rows, _write_skyline_csv
from joulemark.energy import compare_resolution
from joulemark.instrument import ACTIVATE, DEACTIVATE, GpioCommand, GpioCommandLog
from joulemark.simulate import RELAY, TRIGGER, Scenario, repeated_toggle_scenario, simulate_session
from joulemark.trace import (
    MeasurementWindow,
    PowerTrace,
    SampleClock,
    ShuntConfig,
    TraceFormatError,
    Windows,
    concat_traces,
    downsample,
    iter_trace_chunks,
    power_to_shunt_volts,
    read_trace_csv,
    sample_to_power,
    validate_trace,
    write_csv_rows,
    write_trace_csv,
)


class TestShuntConfig:
    def test_defaults_are_12v_supply_and_100mohm_shunt(self):
        shunt = ShuntConfig()
        assert shunt.vf == 12.0
        assert shunt.rs == 0.1

    @pytest.mark.parametrize("vf,rs", [(0.0, 0.1), (-1.0, 0.1), (12.0, 0.0), (12.0, -0.1)])
    def test_rejects_non_positive_values(self, vf, rs):
        with pytest.raises(ValueError):
            ShuntConfig(vf=vf, rs=rs)

    @pytest.mark.parametrize(
        "value",
        [True, False, 1, 7, 0.25, 1e300, math.nan, -3.0, np.float64(12.0), np.float32(0.1), np.float32(-1.0)],
        ids=repr,
    )
    @pytest.mark.parametrize("name", ["vf", "rs"])
    def test_a_shunt_that_builds_round_trips_through_the_trace_csv(self, tmp_path, name, value):
        # "# vf=True" and "# vf=np.float64(12.0)" are not numbers to the reader
        try:
            shunt = ShuntConfig(**{name: value})
        except ValueError as exc:
            assert str(exc).endswith(f", got {value}")
            return
        path = tmp_path / "trace.csv"
        write_trace_csv(PowerTrace(rate_hz=1000.0, vs=np.zeros(3), shunt=shunt), path)
        assert read_trace_csv(path).shunt == shunt


class TestSampleToPower:
    def test_100mv_drop_is_one_amp_hence_12_watts(self):
        assert sample_to_power(0.1, ShuntConfig()) == pytest.approx(12.0, rel=1e-12)

    def test_zero_volts_is_zero_watts(self):
        assert sample_to_power(0.0, ShuntConfig()) == 0.0

    def test_linear_half_drop_half_power(self):
        assert sample_to_power(0.05, ShuntConfig()) == pytest.approx(6.0, rel=1e-12)

    def test_homogeneous_in_vs(self):
        rng = np.random.default_rng(7)
        shunt = ShuntConfig()
        for _ in range(200):
            vs = rng.uniform(-1, 1)
            k = rng.uniform(-100, 100)
            assert sample_to_power(k * vs, shunt) == pytest.approx(
                k * sample_to_power(vs, shunt), rel=1e-12, abs=1e-15
            )

    def test_round_trips_with_inverse(self):
        shunt = ShuntConfig(vf=5.0, rs=0.25)
        p = np.array([0.0, 1.5, 9.0, 15.0])
        assert sample_to_power(power_to_shunt_volts(p, shunt), shunt) == pytest.approx(p)


class TestMeasurementWindow:
    def test_rejects_inverted_or_negative_bounds(self):
        with pytest.raises(ValueError):
            MeasurementWindow(5, 5)
        with pytest.raises(ValueError):
            MeasurementWindow(7, 3)
        with pytest.raises(ValueError):
            MeasurementWindow(-1, 3)

    def test_duration(self):
        assert MeasurementWindow(100, 300).duration_s(20_000.0) == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "begin, end", [(0.5, 3.5), (True, 3), (0, 3.0), (np.float64(1.0), 3), (np.True_, 3), ("0", 3), (0, None)]
    )
    def test_bounds_that_are_not_integers_are_refused(self, begin, end):
        with pytest.raises(ValueError, match=r"^window (begin|end) must be an integer"):
            MeasurementWindow(begin, end)

    @pytest.mark.parametrize(
        "begin, end, message",
        [
            (np.int64(-1), 3, "window begin must be an integer >= 0, got -1"),
            (np.uint8(3), np.int32(3), "window end must be an integer > 3, got 3"),
            (np.float64(1.5), 3, "window begin must be an integer >= 0, got 1.5"),
        ],
    )
    def test_numpy_bounds_show_as_the_numbers_they_hold(self, begin, end, message):
        with pytest.raises(ValueError) as raised:
            MeasurementWindow(begin, end)
        assert str(raised.value) == message

    def test_numpy_integer_bounds_are_held_as_ints(self):
        window = MeasurementWindow(np.int64(1), np.uint8(3))
        assert (type(window.begin), type(window.end)) == (int, int) and window == MeasurementWindow(1, 3)


class TestWindows:
    def test_int64_arrays_length_and_iteration(self):
        windows = Windows([1, 5], np.array([3, 9], dtype=np.int32))
        assert windows.begin.dtype == windows.end.dtype == np.int64
        assert len(windows) == 2 and len(Windows([], [])) == 0
        assert list(windows) == [MeasurementWindow(1, 3), MeasurementWindow(5, 9)]
        assert all(type(w.begin) is int for w in windows)

    def test_iteration_does_not_check_the_bounds_again(self):
        windows = Windows([0, 5, 2**40], [3, 9, 2**40 + 1])

        def refuse(*args, **kwargs):
            raise AssertionError("iterating a Windows checked a number")

        with mock.patch.object(trace_module, "number", refuse):
            iterated = list(windows)
        checked = [MeasurementWindow(0, 3), MeasurementWindow(5, 9), MeasurementWindow(2**40, 2**40 + 1)]
        assert iterated == checked and list(map(hash, iterated)) == list(map(hash, checked))
        assert [(type(w.begin), type(w.end)) for w in iterated] == [(int, int)] * 3

    def test_equal_to_the_same_windows_in_order(self):
        windows = Windows([1, 5], [3, 9])
        as_list = [MeasurementWindow(1, 3), MeasurementWindow(5, 9)]
        assert windows == Windows([1, 5], [3, 9]) and windows == as_list and as_list == windows
        assert windows != as_list[::-1] and windows != as_list[:1] and windows != Windows([1], [3])
        assert Windows([], []) == [] and Windows([], []) == Windows([], [])
        assert windows != (1, 3, 5, 9)

    def test_bounds_are_read_only_copies(self):
        begin, end = np.array([1, 5]), np.array([3, 9])
        windows = Windows(begin, end)
        begin[0], end[0] = 2, 4
        assert windows == Windows([1, 5], [3, 9])
        with pytest.raises(ValueError, match="read-only"):
            windows.begin[0] = 0
        assert not windows.end.flags.writeable
        # a window may begin where the one before it ends
        assert list(Windows([0, 3], [3, 5])) == [MeasurementWindow(0, 3), MeasurementWindow(3, 5)]

    @pytest.mark.parametrize(
        "begin, end",
        [
            ([0.7, 5.9], [3.2, 9]),
            ([0.0], [3]),
            ([True], [3]),
            ([0], [np.True_]),
            (np.array([0], dtype=object), [3]),
            (["0"], [3]),
            ([[0]], [[3]]),
            (0, 3),
        ],
        ids=["fractions", "integral-floats", "bool", "numpy-bool", "objects", "strings", "2-D", "scalars"],
    )
    def test_bounds_that_are_not_integers_are_refused(self, begin, end):
        with pytest.raises(ValueError, match=r"^window (begin|end)s must be a 1-D array of integers, got "):
            Windows(begin, end)

    @pytest.mark.parametrize("begin, end", [([0, 1, 2], [5]), ([0], [1, 2]), ([], [1])])
    def test_bounds_of_different_lengths_are_refused(self, begin, end):
        with pytest.raises(ValueError, match=rf"^windows have {len(begin)} begins and {len(end)} ends$"):
            Windows(begin, end)

    @pytest.mark.parametrize(
        "begin, end",
        [
            ([3], [3]),
            ([4], [3]),
            ([0, 5], [6, 8]),
            ([0, 0], [5, 3]),
            ([5, 0], [6, 2]),
            ([1410, 1400], [1440, 1430]),
            ([-1], [2]),
            (np.uint64([2**63]), np.uint64([2**63 + 1])),
        ],
        ids=[
            "empty", "reversed", "overlapping", "overlapping-equal-begins", "out-of-order",
            "begins-out-of-order", "negative", "uint64-beyond-int64",
        ],
    )
    def test_windows_must_be_non_empty_disjoint_and_ordered(self, begin, end):
        with pytest.raises(ValueError, match="^windows must be non-empty, disjoint and in begin order$"):
            Windows(begin, end)

    def test_windows_compare_by_their_arrays(self, monkeypatch):
        def refuse(self):
            raise AssertionError("equality iterated the windows")

        monkeypatch.setattr(Windows, "__iter__", refuse)
        assert Windows([0], [3]) == Windows(np.int32([0]), [3])
        assert Windows([0, 4], [3, 6]) != Windows([0, 4], [3, 7])
        assert Windows([0], [3]) != Windows([0, 4], [3, 6])


def held_windows(begin, end) -> list[tuple[int, int]] | None:
    """The windows of the bounds by the rule, in plain Python, or None where
    a Windows refuses them: integers (not bools) of one count, each window
    non-empty, disjoint from the one before and in begin order from 0 on."""
    values = [*begin.tolist(), *end.tolist()]
    if not all(type(v) is int for v in values) or len(begin) != len(end):
        return None
    pairs = list(zip(begin.tolist(), end.tolist()))
    ends = [0] + [e for _, e in pairs]
    if not all(after <= b < e for (b, e), after in zip(pairs, ends)):
        return None
    return pairs


@st.composite
def window_bounds(draw):
    """begin and end arrays of int, float or bool dtype; half of them windows
    laid out from gaps and lengths, which one nudged bound or a dropped end
    may break, the others drawn bound by bound."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        steps = draw(st.lists(st.integers(0, 4), min_size=2 * n, max_size=2 * n))
        # a gap of 0 or more before each window, a length of 1 or more
        edges = np.cumsum([step + k % 2 for k, step in enumerate(steps)], dtype=np.int64)
        begin, end = edges[0::2], edges[1::2]
        if n and draw(st.booleans()):
            bounds = draw(st.sampled_from([begin, end]))
            bounds[draw(st.integers(0, n - 1))] += draw(st.integers(-2, 2))
        if n and draw(st.booleans()):
            end = end[:-1]
    else:
        begin, end = (np.array(draw(st.lists(st.integers(-2, 20), min_size=n, max_size=n))) for _ in range(2))
    dtypes = st.sampled_from([np.int64, np.int32, np.uint8, np.float64, bool])
    return begin.astype(draw(dtypes)), end.astype(draw(dtypes))


@settings(max_examples=300, deadline=None)
@given(window_bounds())
def test_windows_hold_integer_bounds_in_order_or_refuse_them(bounds):
    begin, end = bounds
    expected = held_windows(begin, end)
    if expected is None:
        with pytest.raises(ValueError):
            Windows(begin, end)
        return
    windows = Windows(begin, end)
    assert windows.begin.dtype == windows.end.dtype == np.int64
    assert not (windows.begin.flags.writeable or windows.end.flags.writeable)
    assert list(zip(windows.begin.tolist(), windows.end.tolist())) == expected


class TestValidateTrace:
    def test_accepts_finite_single_channel_trace(self):
        trace = PowerTrace(rate_hz=40_000.0, vs=np.zeros(100))
        assert validate_trace(trace).ok

    def test_flags_non_finite_sample_with_its_index(self):
        vs = np.zeros(20)
        vs[7] = np.nan
        result = validate_trace(PowerTrace(rate_hz=40_000.0, vs=vs))
        assert not result.ok
        assert any(v.startswith("sample 7: ") for v in result.violations)

    # A bad rate or channel length is refused when the trace is built, so
    # validate_trace never meets one (see TestPowerTrace).
    def test_flags_non_positive_rate(self):
        with pytest.raises(ValueError, match="^sampling rate must be finite and positive, got 0.0$"):
            PowerTrace(rate_hz=0.0, vs=np.zeros(10))

    @pytest.mark.parametrize("rate", [True, False])
    def test_flags_a_bool_rate(self, rate):
        # analyze() would write it into the report as true or false
        with pytest.raises(ValueError, match=f"^sampling rate must be finite and positive, got {rate}$"):
            PowerTrace(rate_hz=rate, vs=np.zeros(10))

    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
    def test_flags_non_finite_rate_as_such(self, rate):
        with pytest.raises(ValueError, match=f"^sampling rate must be finite and positive, got {rate}$"):
            PowerTrace(rate_hz=rate, vs=np.zeros(10))

    def test_counts_non_finite_samples_once_per_channel(self):
        vs, trig = np.zeros(50), np.zeros(50)
        vs[[9, 3, 40]] = [np.nan, np.inf, -np.inf]
        trig[17] = np.nan
        result = validate_trace(PowerTrace(rate_hz=40_000.0, vs=vs, trig=trig))
        assert [str(v) for v in result.violations] == [
            "sample 3: first of 3 non-finite shunt voltages",
            "sample 17: non-finite trigger voltage",
        ]

    def test_flags_empty_trace(self):
        result = validate_trace(PowerTrace(rate_hz=40_000.0, vs=np.zeros(0)))
        assert not result.ok

    def test_flags_channel_length_mismatch(self):
        with pytest.raises(ValueError, match="^trigger channel has 9 samples, shunt channel has 10$"):
            PowerTrace(rate_hz=40_000.0, vs=np.zeros(10), trig=np.zeros(9))


def built(how: str, rate_hz, vs, trig=None) -> PowerTrace:
    """A trace built by the constructor, or adopting the arrays."""
    if how == "adopt":
        return PowerTrace._adopt(rate_hz, np.asarray(vs, dtype=float), trig, ShuntConfig())
    return PowerTrace(rate_hz, vs, trig)


class TestPowerTrace:
    @pytest.mark.parametrize("how", ["constructor", "adopt"])
    @pytest.mark.parametrize(
        "rate",
        [0.0, -1.0, math.nan, math.inf, True, np.True_, "x", None, pytest.param(10**400, id="10**400")],
        ids=repr,
    )
    def test_a_bad_rate_is_refused_when_built(self, how, rate):
        with pytest.raises(ValueError) as raised:
            built(how, rate, np.zeros(3))
        shown = rate if isinstance(rate, numbers.Real) else repr(rate)
        assert str(raised.value) == f"sampling rate must be finite and positive, got {shown}"

    @pytest.mark.parametrize("how", ["constructor", "adopt"])
    @pytest.mark.parametrize("trig", [np.zeros(2), np.zeros(4), np.zeros(0)], ids=len)
    def test_a_trigger_channel_of_another_length_is_refused_when_built(self, how, trig):
        with pytest.raises(ValueError, match=f"^trigger channel has {len(trig)} samples, shunt channel has 3$"):
            built(how, 40_000.0, np.zeros(3), trig)

    @pytest.mark.parametrize("how", ["constructor", "adopt"])
    @pytest.mark.parametrize("rate", [np.float64(40000.0), np.float32(0.5), np.int64(20), 3], ids=repr)
    def test_a_numpy_or_integer_rate_is_held_as_a_float_and_round_trips(self, tmp_path, how, rate):
        trace = built(how, rate, np.arange(3.0))
        assert type(trace.rate_hz) is float and trace.rate_hz == rate
        write_trace_csv(trace, tmp_path / "t.csv")
        assert read_trace_csv(tmp_path / "t.csv").rate_hz == rate

    def test_arrays_are_read_only(self):
        trace = PowerTrace(rate_hz=40_000.0, vs=np.zeros(10))
        with pytest.raises(ValueError):
            trace.vs[0] = 1.0

    def test_constructor_copies_the_callers_arrays(self):
        vs, trig = np.arange(6.0), np.full(6, 1.8)
        trace = PowerTrace(rate_hz=10.0, vs=vs, trig=trig)
        vs[:] = -1.0
        trig[:] = -1.0
        assert trace.vs.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert trace.trig.tolist() == [1.8] * 6
        assert vs.flags.writeable and trig.flags.writeable

    def test_every_trace_the_package_builds_is_read_only(self, tmp_path):
        two_channel = PowerTrace(rate_hz=10.0, vs=np.arange(40.0), trig=np.ones(40))
        path = tmp_path / "t.csv"
        write_trace_csv(two_channel, path)
        with path.open() as f, chunk_rows(16):
            blocks = list(iter_trace_chunks(f))
        with path.open() as f:
            streamed = list(open_source(AcquisitionConfig(20.0, 2, StreamSource(f))))
        scenario = Scenario(duration_s=0.5, circuit=RELAY, gpio=GpioCommandLog(
            (GpioCommand(0.1, 40, ACTIVATE), GpioCommand(0.2, 40, DEACTIVATE))
        ))
        traces = [
            two_channel,
            *blocks,
            concat_traces(blocks),
            read_trace_csv(path),
            downsample(two_channel, 3),
            *streamed,
            read_all(streamed),
            simulate_session(scenario)[0],
            simulate_session(replace(scenario, circuit=TRIGGER, switching=None))[0],
        ]
        for trace in traces:
            for array in (trace.vs, trace.trig):
                if array is not None:
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array[:1] = 0.0


class TestDownsample:
    def test_keeps_every_factor_th_sample_from_zero(self):
        trace = PowerTrace(rate_hz=200_000.0, vs=np.arange(10, dtype=float))
        out = downsample(trace, 5)
        assert out.vs.tolist() == [0.0, 5.0]
        assert out.rate_hz == pytest.approx(40_000.0)

    def test_factor_one_is_identity(self):
        trace = PowerTrace(rate_hz=200_000.0, vs=np.arange(10, dtype=float))
        out = downsample(trace, 1)
        assert np.array_equal(out.vs, trace.vs)
        assert out.rate_hz == trace.rate_hz

    def test_extreme_decimation_preserves_ramp_endpoints(self):
        # oracle: decimation by definition keeps indices {0, 5000, 10000}
        ramp = np.linspace(0.0, 0.1, 10_001)
        trace = PowerTrace(rate_hz=200_000.0, vs=ramp)
        out = downsample(trace, 5_000)
        assert len(out) == 3
        assert out.vs.tolist() == [ramp[0], ramp[5_000], ramp[10_000]]

    def test_composition_equals_combined_factor(self):
        rng = np.random.default_rng(11)
        vs = rng.normal(size=1000)
        trace = PowerTrace(rate_hz=100_000.0, vs=vs)
        for a, b in [(2, 5), (4, 10), (3, 7)]:
            two_step = downsample(downsample(trace, a), b)
            one_step = downsample(trace, a * b)
            assert np.array_equal(two_step.vs, one_step.vs)
            assert two_step.rate_hz == pytest.approx(one_step.rate_hz)

    def test_rejects_bad_factors(self):
        trace = PowerTrace(rate_hz=10.0, vs=np.zeros(10))
        with pytest.raises(ValueError):
            downsample(trace, 0)
        with pytest.raises(ValueError):
            downsample(trace, 11)
        # a factor is an integer, numpy's included, and never a bool or a float
        for factor in (2.0, True, np.True_, np.float64(2.0), "2", None):
            with pytest.raises(ValueError, match="decimation factor must be an integer >= 1"):
                downsample(trace, factor)
            with pytest.raises(ValueError, match="decimation factor must be an integer >= 2"):
                compare_resolution(PowerTrace(rate_hz=10.0, vs=np.zeros(11)), factor)
        assert downsample(trace, np.int64(2)).rate_hz == 5.0
        assert compare_resolution(PowerTrace(rate_hz=10.0, vs=np.ones(11)), np.int64(2)).factor == 2

    def test_keeps_trigger_channel(self):
        trace = PowerTrace(
            rate_hz=10.0, vs=np.arange(10, dtype=float), trig=np.arange(10, dtype=float)
        )
        out = downsample(trace, 2)
        assert out.trig.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]


# rates log-uniform on 1 Hz to 10 MHz, and the package's usual rates with
# two whose periods are no short decimal
CLOCK_RATES = st.one_of(
    st.sampled_from([20_000.0, 40_000.0, 44_100.0, 3.3]),
    st.floats(0.0, 7.0).map(lambda e: 10.0**e),
)


class TestSampleClock:
    def test_on_grid_times_map_exactly(self):
        clock = SampleClock(20_000.0)
        assert clock.first_index_at_or_after(1.0) == 20_000
        # 0.3 * 20000 rounds up to 6000.000000000001 in floats
        assert clock.first_index_at_or_after(0.3) == 6_000

    def test_between_grid_times_round_up(self):
        clock = SampleClock(20_000.0)
        assert clock.first_index_at_or_after(1.00001) == 20_001
        assert clock.first_index_at_or_after(-0.5) == 0

    def test_times_are_index_over_rate_bit_for_bit(self):
        clock = SampleClock(44_100)
        assert type(clock.rate_hz) is float
        index = np.arange(0, 10**9, 999_983)
        assert clock.time_of(index).tobytes() == (index / 44_100.0).tobytes()
        assert clock.time_of(7) == 7 / 44_100.0

    def test_an_array_of_times_maps_to_int64_indices(self):
        index = SampleClock(10.0).first_index_at_or_after(np.array([-1.0, 0.0, 0.05, 0.1, 0.3]))
        assert index.dtype == np.int64 and index.tolist() == [0, 0, 1, 1, 3]
        assert type(SampleClock(10.0).first_index_at_or_after(0.3)) is int

    @pytest.mark.parametrize("rate", [20_000.0, 1e300])
    def test_a_time_past_the_int64_range_maps_to_the_last_index(self, rate):
        """1e300 s is 2e304 samples at 20 kHz and overflows to inf at 1e300
        Hz; either way the index is 2**63 - 8192, not a wrapped one."""
        clock = SampleClock(rate)
        assert clock.first_index_at_or_after(1e300) == 2**63 - 8192
        index = clock.first_index_at_or_after(np.array([1e300, math.inf, -math.inf, 2.0**63 / rate]))
        assert index.tolist() == [2**63 - 8192, 2**63 - 8192, 0, 2**63 - 8192]

    def test_a_nan_time_is_refused_before_the_cast(self):
        """NaN passes the clip, and its cast to int64 would warn and give
        -2**63; the suite turns the warning into an error."""
        clock = SampleClock(40_000.0)
        with pytest.raises(ValueError, match="^t_s is nan, a time with no sample index$"):
            clock.first_index_at_or_after(math.nan)
        with pytest.raises(ValueError, match="^item 1 of t_s is nan, a time with no sample index$"):
            clock.first_index_at_or_after(np.array([0.0, math.nan, 1.0, math.nan]))

    @pytest.mark.parametrize("rate", [0.0, -20_000.0, math.inf, math.nan, True, "20000"], ids=repr)
    def test_a_rate_that_is_not_finite_and_positive_is_refused(self, rate):
        with pytest.raises(ValueError, match="sampling rate must be finite and positive"):
            SampleClock(rate)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 10**12 - 1), min_size=1, max_size=50), CLOCK_RATES)
    def test_an_index_maps_back_to_itself_from_its_time(self, indices, rate):
        clock = SampleClock(rate)
        index = np.array(indices, dtype=np.int64)
        assert np.array_equal(clock.first_index_at_or_after(clock.time_of(index)), index)
        assert clock.first_index_at_or_after(clock.time_of(indices[0])) == indices[0]

    def test_the_inverse_holds_where_a_fixed_slack_fails(self):
        # sample 100,000,004 at 40 kHz, 42 minutes in: (i / rate) * rate
        # exceeds i by more than 1e-9, so a fixed slack of 1e-9 samples gave
        # i + 1
        clock = SampleClock(40_000.0)
        i = 100_000_004
        assert math.ceil(clock.time_of(i) * 40_000.0 - 1e-9) == i + 1
        assert clock.first_index_at_or_after(clock.time_of(i)) == i

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 10**12 - 1), st.floats(-1.0, 1.0)), min_size=2, max_size=20),
        CLOCK_RATES,
    )
    def test_both_maps_are_monotone(self, points, rate):
        clock = SampleClock(rate)
        grid = clock.time_of(np.sort(np.array([i for i, _ in points], dtype=np.int64)))
        assert np.all(np.diff(grid) >= 0)
        # times on the grid, a float step to either side of it, and between
        between = clock.time_of(np.array([i + f for i, f in points]))
        times = np.sort(np.concatenate([grid, np.nextafter(grid, math.inf), np.nextafter(grid, -math.inf), between]))
        assert np.all(np.diff(clock.first_index_at_or_after(times)) >= 0)


# a rate, supply voltage or shunt resistance that is not finite and positive
BAD_PREAMBLE_VALUES = [
    ("rate_hz", "inf"),
    ("rate_hz", "nan"),
    ("rate_hz", "0"),
    ("rate_hz", "-20000.0"),
    ("vf", "nan"),
    ("vf", "-inf"),
    ("vf", "-12.0"),
    ("rs", "0"),
    ("rs", "-0.0"),
    ("rs", "inf"),
]


def preamble_with(key: str, value: str) -> tuple[str, int]:
    """A one-channel trace CSV whose preamble gives ``key`` the text
    ``value``, and the line that value is on."""
    meta = {"rate_hz": "10.0", "vf": "12.0", "rs": "0.1", key: value}
    text = "".join(f"# {k}={v}\n" for k, v in meta.items()) + "t_s,vs_v\n0.0,0.0\n"
    return text, 1 + list(meta).index(key)


# a preamble key given again on line 4, after rate_hz, vf and rs, with rows
# on the grid of the rate given last
REPEATED_KEYS = [("rate_hz", "20000"), ("vf", "12.0"), ("rs", "0.2")]


def preamble_repeating(key: str, value: str) -> str:
    return f"# rate_hz=40000\n# vf=12.0\n# rs=0.1\n# {key}={value}\nt_s,vs_v\n0.0,0.0\n5e-05,0.0\n"


# a key that is not rate_hz, vf or rs, on line 2: a miscased rate, and a key
# whose value is not a number
UNKNOWN_KEYS = [("rate_Hz", "99"), ("foo", "bar")]


def preamble_with_unknown(key: str, value: str) -> str:
    return f"# rate_hz=10.0\n# {key}={value}\n# vf=12.0\n# rs=0.1\nt_s,vs_v\n0.0,0.0\n"


class TestTraceCsv:
    def _trace(self, with_trigger: bool) -> PowerTrace:
        rng = np.random.default_rng(3)
        n = 257
        trig = rng.choice([0.0, 1.8], size=n) if with_trigger else None
        return PowerTrace(
            rate_hz=40_000.0,
            vs=rng.uniform(-0.001, 0.1, size=n),
            trig=trig,
            shunt=ShuntConfig(vf=12.0, rs=0.1),
        )

    @pytest.mark.parametrize("with_trigger", [False, True])
    def test_round_trip(self, tmp_path, with_trigger):
        trace = self._trace(with_trigger)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.rate_hz == trace.rate_hz
        assert back.shunt == trace.shunt
        assert np.array_equal(back.vs, trace.vs)
        if with_trigger:
            assert np.array_equal(back.trig, trace.trig)
        else:
            assert back.trig is None

    def test_rewrite_is_byte_identical(self, tmp_path):
        trace = self._trace(True)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_trace_csv(trace, a)
        write_trace_csv(read_trace_csv(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_chunks_deliver_rows_in_order(self, tmp_path):
        trace = PowerTrace(rate_hz=10.0, vs=np.array([0.1, 0.2]), trig=np.array([0.0, 1.8]))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        with path.open() as f, chunk_rows(1):
            head, *blocks = iter_trace_chunks(f)
        assert (len(head), head.rate_hz, head.has_trigger) == (0, 10.0, True)
        assert [(b.vs.tolist(), b.trig.tolist()) for b in blocks] == [
            ([0.1], [0.0]),
            ([0.2], [1.8]),
        ]

    def test_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# rate_hz=10\n# vf=12\n# rs=0.1\ntime,volts\n")
        with pytest.raises(TraceFormatError) as err:
            read_trace_csv(path)
        assert err.value.line == 4

    def test_rejects_missing_preamble_key(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# rate_hz=10\n# vf=12\nt_s,vs_v\n0.0,0.0\n")
        with pytest.raises(TraceFormatError, match="rs"):
            read_trace_csv(path)

    def test_rejects_off_grid_timestamp(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "# rate_hz=10.0\n# vf=12.0\n# rs=0.1\nt_s,vs_v\n0.0,0.0\n0.2,0.0\n"
        )
        with pytest.raises(TraceFormatError) as err:
            read_trace_csv(path)
        assert err.value.line == 6

    def test_rejects_non_numeric_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "# rate_hz=10.0\n# vf=12.0\n# rs=0.1\nt_s,vs_v\n0.0,zap\n"
        )
        with pytest.raises(TraceFormatError) as err:
            read_trace_csv(path)
        assert err.value.line == 5

    def test_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "# rate_hz=10.0\n# vf=12.0\n# rs=0.1\nt_s,vs_v\n0.0,0.0,1.8\n"
        )
        with pytest.raises(TraceFormatError, match="columns"):
            read_trace_csv(path)

    @pytest.mark.parametrize("key, value", BAD_PREAMBLE_VALUES)
    def test_rejects_preamble_value_at_its_line(self, tmp_path, key, value):
        path = tmp_path / "t.csv"
        text, line = preamble_with(key, value)
        path.write_text(text)
        with pytest.raises(TraceFormatError, match=f"{key}.*finite and positive") as err:
            read_trace_csv(path)
        assert err.value.line == line

    @pytest.mark.parametrize("key, value", BAD_PREAMBLE_VALUES)
    def test_stream_rejects_preamble_value_at_its_line(self, key, value):
        text, line = preamble_with(key, value)
        config = AcquisitionConfig(channels=1, source=StreamSource(io.StringIO(text)))
        with pytest.raises(TraceFormatError) as err:
            read_all(open_source(config))
        assert err.value.line == line


    @pytest.mark.parametrize("key, value", REPEATED_KEYS)
    def test_rejects_repeated_preamble_key_at_its_line(self, tmp_path, key, value):
        path = tmp_path / "t.csv"
        path.write_text(preamble_repeating(key, value))
        with pytest.raises(TraceFormatError, match=f"^line 4: preamble {key!r} is given twice$") as err:
            read_trace_csv(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("key, value", REPEATED_KEYS)
    def test_stream_rejects_repeated_preamble_key_at_its_line(self, key, value):
        source = StreamSource(io.StringIO(preamble_repeating(key, value)))
        with pytest.raises(TraceFormatError, match=f"^line 4: preamble {key!r} is given twice$") as err:
            read_all(open_source(AcquisitionConfig(channels=1, source=source)))
        assert err.value.line == 4

    @pytest.mark.parametrize("key, value", UNKNOWN_KEYS)
    def test_rejects_unknown_preamble_key_at_its_line(self, tmp_path, key, value):
        path = tmp_path / "t.csv"
        path.write_text(preamble_with_unknown(key, value))
        with pytest.raises(TraceFormatError, match=f"^line 2: preamble {key!r} is not a known key$") as err:
            read_trace_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("key, value", UNKNOWN_KEYS)
    def test_stream_rejects_unknown_preamble_key_at_its_line(self, key, value):
        source = StreamSource(io.StringIO(preamble_with_unknown(key, value)))
        with pytest.raises(TraceFormatError, match=f"^line 2: preamble {key!r} is not a known key$") as err:
            read_all(open_source(AcquisitionConfig(channels=1, source=source)))
        assert err.value.line == 2

    @staticmethod
    def _two_rows(header: str, second: list[str]) -> str:
        """A trace CSV of the layout ``header`` at 10 Hz: a good first row
        on line 5, then ``second``'s cells on line 6."""
        first = ["0.0", "0.5", "1.8"][: header.count(",") + 1]
        return f"# rate_hz=10.0\n# vf=12.0\n# rs=0.1\n{header}\n{','.join(first)}\n{','.join(second)}\n"

    @pytest.mark.parametrize(
        "header, column",
        [("t_s,vs_v", 0), ("t_s,vs_v", 1), ("t_s,vs_v,trig_v", 0), ("t_s,vs_v,trig_v", 1), ("t_s,vs_v,trig_v", 2)],
    )
    def test_a_non_number_names_its_column_at_its_line(self, tmp_path, header, column):
        names = header.split(",")
        second = ["0.1", "0.5", "1.8"][: len(names)]
        second[column] = "zap"
        path = tmp_path / "t.csv"
        path.write_text(self._two_rows(header, second))
        with pytest.raises(TraceFormatError, match=f"^line 6: {names[column]} is not a number: 'zap'$") as err:
            read_trace_csv(path)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "header, second, message",
        [
            ("t_s,vs_v", ["0.2", "zap"], "t_s=0.2 deviates from uniform grid value 0.1"),
            ("t_s,vs_v,trig_v", ["0.2", "zap", "zap"], "t_s=0.2 deviates from uniform grid value 0.1"),
            ("t_s,vs_v,trig_v", ["0.1", "zap", "zap"], "vs_v is not a number: 'zap'"),
        ],
        ids=["grid-before-vs_v", "grid-before-both", "vs_v-before-trig_v"],
    )
    def test_a_row_reports_its_first_defect_in_column_order(self, tmp_path, header, second, message):
        path = tmp_path / "t.csv"
        path.write_text(self._two_rows(header, second))
        with pytest.raises(TraceFormatError) as err:
            read_trace_csv(path)
        assert str(err.value) == f"line 6: {message}"

    @pytest.mark.parametrize("header, channels", [("t_s,vs_v", 1), ("t_s,vs_v,trig_v", 2)])
    def test_each_header_reads_back_to_its_channel_count(self, tmp_path, header, channels):
        path = tmp_path / "t.csv"
        path.write_text(self._two_rows(header, ["0.1", "0.25", "0.0"][: channels + 1]))
        trace = read_trace_csv(path)
        assert (trace.channels, len(trace), trace.vs.tolist()) == (channels, 2, [0.5, 0.25])

    @pytest.mark.parametrize("with_trigger", [False, True])
    def test_an_open_text_stream_reads_as_its_path(self, tmp_path, with_trigger):
        path = tmp_path / "t.csv"
        write_trace_csv(self._trace(with_trigger), path)
        from_path = read_trace_csv(path)
        text = path.read_text()
        for open_stream in (lambda: io.StringIO(text), path.open):
            with open_stream() as stream:
                trace = read_trace_csv(stream)
            assert (trace.rate_hz, trace.shunt) == (from_path.rate_hz, from_path.shunt)
            assert trace.vs.tobytes() == from_path.vs.tobytes()
            assert (trace.trig is None) == (from_path.trig is None) == (not with_trigger)
            if with_trigger:
                assert trace.trig.tobytes() == from_path.trig.tobytes()

    def test_an_open_text_stream_reports_a_corrupt_row_as_its_path(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(self._trace(True), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[200] = lines[200].replace(",", ",zap", 1)
        path.write_text("".join(lines))
        errors = []
        for source in (path, io.StringIO(path.read_text())):
            with pytest.raises(TraceFormatError) as err:
                read_trace_csv(source)
            errors.append((err.value.line, str(err.value)))
        assert errors[0] == errors[1]
        assert errors[0][0] == 201 and "vs_v is not a number" in errors[0][1]


class TestCsvGoldenBytes:
    """Exact bytes of the trace and skyline writers, pinned on small traces
    that hold -0.0, subnormals, huge values and a non-integer rate."""

    VS = [0.0, -0.0, 5e-324, 1e300, -0.0123456789, 0.1]
    TRIG = [1.8, 0.0, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308, 0.3]

    ONE_CHANNEL = (
        "# rate_hz=3.3\n# vf=12.0\n# rs=0.1\nt_s,vs_v\n"
        "0.0,0.0\n"
        "0.30303030303030304,-0.0\n"
        "0.6060606060606061,5e-324\n"
        "0.9090909090909092,1e+300\n"
        "1.2121212121212122,-0.0123456789\n"
        "1.5151515151515151,0.1\n"
    )
    TWO_CHANNEL = (
        "# rate_hz=7.77\n# vf=12.0\n# rs=0.1\nt_s,vs_v,trig_v\n"
        "0.0,0.0,1.8\n"
        "0.1287001287001287,-0.0,0.0\n"
        "0.2574002574002574,5e-324,-0.0\n"
        "0.3861003861003861,1e+300,2.2250738585072014e-308\n"
        "0.5148005148005148,-0.0123456789,1.7976931348623157e+308\n"
        "0.6435006435006435,0.1,0.3\n"
    )
    SKYLINE = (
        "t_s,watts\n"
        "0.0,0.0\n"
        "0.30303030303030304,-0.0\n"
        "0.6060606060606061,5.93e-322\n"
        "0.9090909090909092,1.2e+302\n"
        "1.2121212121212122,-1.481481468\n"
        "1.5151515151515151,12.000000000000002\n"
    )

    @pytest.fixture(params=[None, 1, 4], ids=["default-rows", "rows-1", "rows-4"])
    def rows(self, request, monkeypatch):
        """Run each case at the default block size and at block sizes that
        split the six rows into whole and partial blocks."""
        if request.param is not None:
            monkeypatch.setattr(trace_module, "CHUNK_ROWS", request.param)

    def test_one_channel_trace(self, tmp_path, rows):
        path = tmp_path / "one.csv"
        write_trace_csv(PowerTrace(rate_hz=3.3, vs=self.VS), path)
        assert path.read_bytes() == self.ONE_CHANNEL.encode()

    def test_two_channel_trace(self, tmp_path, rows):
        path = tmp_path / "two.csv"
        write_trace_csv(PowerTrace(rate_hz=7.77, vs=self.VS, trig=self.TRIG), path)
        assert path.read_bytes() == self.TWO_CHANNEL.encode()

    def test_skyline_of_one_channel_trace(self, tmp_path, rows):
        path = tmp_path / "skyline.csv"
        _write_skyline_csv(PowerTrace(rate_hz=3.3, vs=self.VS), path)
        assert path.read_bytes() == self.SKYLINE.encode()

    @pytest.mark.parametrize("block", [None, 1_000, 40_000])
    def test_simulated_relay_trace_over_several_fraction_periods(self, tmp_path, block):
        """A 2.4 s relay trace at 40 kHz with idle noise and six windows:
        96,000 rows, more than the 40,000 of one period of its times'
        fractions, with whole-second steps inside blocks.  Its sha256 is the
        one the column-per-row writer gave it."""
        trace, _ = simulate_session(repeated_toggle_scenario(0.2, 6, RELAY, gap_s=0.15, seed=11))
        path = tmp_path / "relay.csv"
        with chunk_rows(block) if block else nullcontext():
            write_trace_csv(trace, path)
        assert len(trace) == 96_000
        assert hashlib.sha256(path.read_bytes()).hexdigest() == "cda74b68ed6ba15cc789a783082e030f0fc4189b6c03c0cddbd2aec5cdd4705c"


def per_cell_csv_rows(f, rate_hz, rows, columns):
    """Reference writer: the ``repr`` of every cell, formatted one by one."""
    for start, stop in trace_module.row_blocks(len(rows)):
        cells = [[i / rate_hz for i in rows[start:stop]]]
        cells += [column[start:stop].tolist() for column in columns]
        lines = zip(*[map(repr, cell) for cell in cells])
        f.write("\n".join(map(",".join, lines)) + "\n")


def row_texts(parts) -> list[str]:
    """The text of each row of matrices of text rows laid side by side."""
    text = np.concatenate(parts, axis=1)
    return [row[row != 0].tobytes().decode() for row in text]


def float_bits(*bits: int) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


# values that share a repr but not their bits (NaNs), that differ in their
# repr but compare equal (zeros), the extremes of the format, subnormals
# whose shortest text has one digit, both sides of the smallest normal, and
# the last values before the switches to exponent notation
POOL = np.concatenate(
    [
        [0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 0.075, 1.8],
        [1e-323, 8e-323, 2.225073858507201e-308, 2.2250738585072014e-308],
        [1e16, 9999999999999998.0, 9.999999999999999e-05],
        float_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000001),
    ]
)


@st.composite
def repeating_columns(draw, rows: int) -> np.ndarray:
    """``rows`` values, most of them from POOL, so that a block repeats
    values; the rest from a few arbitrary floats.  Past 40 rows the first
    40 values repeat."""
    values = np.concatenate([POOL, draw(st.lists(st.floats(), min_size=1, max_size=4))])
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=min(rows, 40), max_size=min(rows, 40)))
    return values[np.resize(picks, rows)]


# rates 2**a * 5**b * 10**c, whose sample period is a terminating decimal,
# so that their times may come from a fraction table; 12.5 and 0.625 too
terminating_rates = st.builds(
    lambda a, b, c: math.ldexp(5**b * 10**c, a),
    st.integers(-8, 8),
    st.integers(0, 6),
    st.integers(0, 6),
)

# rates whose fraction period is short: 25 rows at 12.5 Hz, 1,000 at 1 kHz,
# and 12,500 at 12.5 kHz, whose sample 1 is below 1e-4 s
short_period_rates = st.sampled_from([12.5, 1000.0, 12500.0])


def fraction_period(rate: float) -> int | None:
    """P = 10**k / gcd(m, 10**k) of a rate with 1 / rate == m / 10**k, the
    rows of its fraction table; None for a rate with no such step."""
    step = textrows._decimal_step(rate)
    return None if step is None else 10 ** step[1] // math.gcd(step[0], 10 ** step[1])


def row_anchor(draw, rate: float) -> int:
    """Row 0, the last row below 1e-4 s, a whole second, or, for a
    terminating rate, the last row whose time comes from the fraction table."""
    anchors = [0.0, rate * 1e-4, rate * draw(st.integers(1, 10**6))]
    step = textrows._decimal_step(rate)
    if step is not None:
        anchors.append(10**15 / step[0])
    return int(min(draw(st.sampled_from(anchors)), 2.0**53))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    width=st.integers(1, 3),
    rate=terminating_rates | short_period_rates | st.floats(min_value=1e-3, max_value=1e7),
)
def test_writer_matches_per_cell_reference(data, width, rate):
    """Consecutive rows from near a row_anchor, and for a rate whose
    fraction period is at most 20,000 rows, as many rows as one period and
    more, so that its times come from the table where it fits the block
    (25 rows at 12.5 Hz fit blocks of 3 rows and more, 1,000 at 1 kHz
    blocks of 100)."""
    period = fraction_period(rate)
    counts = st.integers(1, 40)
    if period is not None and period <= 20_000:
        counts |= st.integers(period, period + 100)
    start = max(0, row_anchor(data.draw, rate) + data.draw(st.integers(-100, 0)))
    rows = range(start, start + data.draw(counts))
    block = data.draw(st.sampled_from([1, 3, 7, 100, None] if len(rows) <= 40 else [3, 100, None]))
    columns = [data.draw(repeating_columns(len(rows))) for _ in range(width)]
    got, want = io.StringIO(), io.StringIO()
    with chunk_rows(block) if block else nullcontext():
        write_csv_rows(got, rate, rows, columns)
        per_cell_csv_rows(want, rate, rows, columns)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    gaps=st.lists(st.integers(1, 50) | st.integers(1, 2**53), min_size=1, max_size=40),
    block=st.sampled_from([1, 3, 7, None]),
    rate=terminating_rates | short_period_rates | st.floats(min_value=1e-3, max_value=1e7),
)
def test_writer_at_chosen_rows_matches_per_cell_reference(data, gaps, block, rate):
    """Increasing, non-consecutive rows, some of them on both sides of the
    last row whose time comes from the fraction table, and some far beyond
    it."""
    start = max(0, row_anchor(data.draw, rate) + data.draw(st.integers(-200, 0)))
    rows = start + np.cumsum(gaps) - gaps[0]
    column = data.draw(repeating_columns(len(rows)))
    got, want = io.StringIO(), io.StringIO()
    with chunk_rows(block) if block else nullcontext():
        write_csv_rows(got, rate, rows, [column])
        per_cell_csv_rows(want, rate, rows.tolist(), [column])
    assert got.getvalue() == want.getvalue()


@st.composite
def time_rows(draw, rate: float) -> range:
    """Up to 200 consecutive rows around a row_anchor."""
    start = max(0, row_anchor(draw, rate) + draw(st.integers(-100, 100)))
    return range(start, start + draw(st.integers(0, 200)))


def times_laid_out(rows, rate: float) -> list[str]:
    """The texts of ``rows``' times, with the rate's fraction table wherever
    it fits a block, however few the rows."""
    if not len(rows):
        return []
    fractions = textrows.fraction_table(rate, 2**62, trace_module.CHUNK_ROWS * textrows.WIDTH)
    return row_texts([textrows.time_rows(rows, rate, fractions)])


@settings(max_examples=500, deadline=None)
@given(
    data=st.data(),
    rate=terminating_rates | short_period_rates | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_times_are_the_repr_of_each_row_time(data, rate):
    rows = data.draw(time_rows(rate))
    assert times_laid_out(rows, rate) == [repr(i / rate) for i in rows]


@pytest.mark.parametrize("rate", [1e6, 40000.0, 12500.0, 1000.0, 12.5])
@pytest.mark.parametrize("scale", [10**15, 2**52, 2**53, 10**16])
def test_times_on_both_sides_of_the_digit_limit(rate, scale):
    """Rows whose i * m is near 10**15, where the writer stops taking times
    from the fraction table, and further up, where two decimals of that
    many digits can round to one float."""
    step = textrows._decimal_step(rate)
    rows = range(scale // step[0] - 100, scale // step[0] + 100)
    assert times_laid_out(rows, rate) == [repr(i / rate) for i in rows]


@pytest.mark.parametrize(
    "rate, rows, period",
    [
        (40000.0, 40_000, 40_000),
        (20000.0, 20_000, 20_000),
        (12.5, 25, 25),
        (1000.0, 1_000, 1_000),
        (1e6, 10**7, None),
        (2.0**-60, 10, None),
        (5e-324, 10, None),
    ],
)
def test_fraction_table_is_one_period_where_it_fits(rate, rows, period):
    """One row per residue of i modulo P; none where the table would have
    more rows than the times it serves, or more bytes than one block's
    float slots (7 MB at 1 MHz), or where m >= 10**15, whose i * m
    overflows int64 (a period of 2**60 s gives m = 10 * 2**60, P = 1)."""
    max_bytes = trace_module.CHUNK_ROWS * textrows.WIDTH
    fractions = textrows.fraction_table(rate, rows, max_bytes)
    assert (None if fractions is None else len(fractions[2])) == period
    assert textrows.fraction_table(rate, rows - 1, max_bytes) is None
    if period is not None:
        m, k, table = fractions
        assert row_texts([table]) == ["." + (f"{i * m % 10**k:0{k}d}".rstrip("0") or "0") for i in range(period)]


@pytest.mark.parametrize(
    "rate, step",
    [
        (40000.0, (25, 6)),
        (20000.0, (5, 5)),
        (12.5, (8, 2)),
        (0.5, (20, 1)),
        (1e6, (1, 6)),
        (44100.0, None),
        (3.3, None),
        (0.1, None),
        (2.0**20, None),  # 1/2**20 needs 20 decimals
    ],
)
def test_decimal_step_of_a_rate(rate, step):
    assert textrows._decimal_step(rate) == step


# --- the skyline's M4 envelope ------------------------------------------------

finite_samples = st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0]), max_size=60)


def buckets_of(n: int, buckets: int) -> list[range]:
    s = max(1, -(-n // buckets))
    return [range(start, min(start + s, n)) for start in range(0, n, s)]


@settings(max_examples=300, deadline=None)
@given(vs=finite_samples, buckets=st.integers(1, 8))
def test_envelope_rows_increase_and_hold_each_bucket_extremes(vs, buckets):
    vs = np.array(vs)
    rows = _skyline_rows(vs, buckets).tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))
    chosen = set(rows)
    for bucket in buckets_of(len(vs), buckets):
        assert bucket[0] in chosen and bucket[-1] in chosen
        written = [i for i in bucket if i in chosen]
        assert min(vs[written]) == min(vs[bucket]) and max(vs[written]) == max(vs[bucket])
    assert len(buckets_of(len(vs), buckets)) <= buckets
    # the envelope a bucket at a time, min and max taking the first of equal values
    reference = {
        i
        for bucket in buckets_of(len(vs), buckets)
        for i in (bucket[0], bucket[-1], min(bucket, key=vs.__getitem__), max(bucket, key=vs.__getitem__))
    }
    assert rows == sorted(reference)


@settings(max_examples=300, deadline=None)
@given(
    vs=finite_samples,
    buckets=st.integers(1, 8),
    vf=st.floats(1e-3, 1e3),
    rs=st.floats(1e-4, 10.0),
    rate=terminating_rates | st.floats(min_value=1e-3, max_value=1e7),
)
def test_skyline_lines_are_those_of_the_full_series(tmp_path_factory, vs, buckets, vf, rs, rate):
    """Every line the skyline writes is its sample's line of the full series,
    and every sample's watts lie within its bucket's written extremes."""
    trace = PowerTrace(rate_hz=rate, vs=vs, shunt=ShuntConfig(vf=vf, rs=rs))
    path = tmp_path_factory.getbasetemp() / "skyline.csv"
    with mock.patch.object(cli, "SKYLINE_BUCKETS", buckets):
        _write_skyline_csv(trace, path)
    full = io.StringIO()
    write_csv_rows(full, rate, range(len(trace)), [trace.power_w()])
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,watts"
    rows = _skyline_rows(trace.vs, buckets)
    assert lines[1:] == [full.getvalue().splitlines()[i] for i in rows]
    watts = dict(zip(rows.tolist(), (float(line.split(",")[1]) for line in lines[1:])))
    for bucket in buckets_of(len(trace), buckets):
        written = [w for i, w in watts.items() if i in bucket]
        assert all(min(written) <= w <= max(written) for w in trace.power_w()[bucket])


@settings(max_examples=100, deadline=None)
@given(buckets=st.integers(1, 8), data=st.data())
def test_envelope_of_at_most_two_samples_a_bucket_is_every_sample(buckets, data):
    vs = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), max_size=2 * buckets)))
    assert _skyline_rows(vs, buckets).tolist() == list(range(len(vs)))
