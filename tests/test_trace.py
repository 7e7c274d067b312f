import io
import math
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from chunking import chunk_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from joulemark import floattext
from joulemark import trace as trace_module
from joulemark.acquisition import AcquisitionConfig, StreamSource, open_source, read_all
from joulemark.cli import _PowerColumn, _write_skyline_csv
from joulemark.instrument import ACTIVATE, DEACTIVATE, GpioCommand, GpioCommandLog
from joulemark.simulate import RELAY, TRIGGER, Scenario, simulate_session
from joulemark.trace import (
    MeasurementWindow,
    PowerTrace,
    ShuntConfig,
    TraceFormatError,
    Windows,
    concat_traces,
    downsample,
    index_at_or_after,
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


class TestWindows:
    def test_int64_arrays_length_and_iteration(self):
        windows = Windows([1, 5], np.array([3, 9], dtype=np.int32))
        assert windows.begin.dtype == windows.end.dtype == np.int64
        assert len(windows) == 2 and len(Windows([], [])) == 0
        assert list(windows) == [MeasurementWindow(1, 3), MeasurementWindow(5, 9)]
        assert all(type(w.begin) is int for w in windows)

    def test_equal_to_the_same_windows_in_order(self):
        windows = Windows([1, 5], [3, 9])
        as_list = [MeasurementWindow(1, 3), MeasurementWindow(5, 9)]
        assert windows == Windows([1, 5], [3, 9]) and windows == as_list and as_list == windows
        assert windows != as_list[::-1] and windows != as_list[:1] and windows != Windows([1], [3])
        assert Windows([], []) == [] and Windows([], []) == Windows([], [])
        assert windows != (1, 3, 5, 9)

    def test_windows_compare_by_their_arrays(self, monkeypatch):
        def refuse(self):
            raise AssertionError("equality iterated the windows")

        monkeypatch.setattr(Windows, "__iter__", refuse)
        assert Windows([0], [3]) == Windows(np.int32([0]), [3])
        assert Windows([0, 4], [3, 6]) != Windows([0, 4], [3, 7])
        assert Windows([0], [3]) != Windows([0, 4], [3, 6])


class TestValidateTrace:
    def test_accepts_finite_single_channel_trace(self):
        trace = PowerTrace(rate_hz=40_000.0, vs=np.zeros(100))
        assert validate_trace(trace).ok

    def test_flags_non_finite_sample_with_its_index(self):
        vs = np.zeros(20)
        vs[7] = np.nan
        result = validate_trace(PowerTrace(rate_hz=40_000.0, vs=vs))
        assert not result.ok
        assert any(v.index == 7 for v in result.violations)

    def test_flags_non_positive_rate(self):
        result = validate_trace(PowerTrace(rate_hz=0.0, vs=np.zeros(10)))
        assert any("non-positive rate" in str(v) for v in result.violations)

    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
    def test_flags_non_finite_rate_as_such(self, rate):
        result = validate_trace(PowerTrace(rate_hz=rate, vs=np.zeros(10)))
        assert [str(v) for v in result.violations] == [f"non-finite rate: {rate}"]

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
        trace = PowerTrace(rate_hz=40_000.0, vs=np.zeros(10), trig=np.zeros(9))
        assert not validate_trace(trace).ok


class TestPowerTrace:
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

    def test_keeps_trigger_channel(self):
        trace = PowerTrace(
            rate_hz=10.0, vs=np.arange(10, dtype=float), trig=np.arange(10, dtype=float)
        )
        out = downsample(trace, 2)
        assert out.trig.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]


class TestIndexAtOrAfter:
    def test_on_grid_times_map_exactly(self):
        assert index_at_or_after(1.0, 20_000.0) == 20_000
        # 0.3 * 20000 rounds up to 6000.000000000001 in floats
        assert index_at_or_after(0.3, 20_000.0) == 6_000

    def test_between_grid_times_round_up(self):
        assert index_at_or_after(1.00001, 20_000.0) == 20_001
        assert index_at_or_after(-0.5, 20_000.0) == 0


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


def per_cell_csv_rows(f, rate_hz, columns):
    """Reference writer: the ``repr`` of every cell, formatted one by one."""
    for start, stop in trace_module.row_blocks(len(columns[0])):
        cells = [[i / rate_hz for i in range(start, stop)]]
        cells += [column[start:stop].tolist() for column in columns]
        rows = zip(*[map(repr, cell) for cell in cells])
        f.write("\n".join(map(",".join, rows)) + "\n")


def laid_out(fill, n: int) -> list[str]:
    """The texts that ``fill(text)`` lays out in the columns of a (WIDTH, n)
    matrix."""
    text = np.empty((floattext.WIDTH, n), dtype=np.uint8)
    fill(text)
    return [column[column != 0].tobytes().decode() for column in text.T]


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
    values; the rest from a few arbitrary floats."""
    values = np.concatenate([POOL, draw(st.lists(st.floats(), min_size=1, max_size=4))])
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=rows, max_size=rows))
    return values[picks]


# rates 2**a * 5**b * 10**c, whose sample period is a terminating decimal,
# so that their times are written from integer digits; 12.5 and 0.625 too
terminating_rates = st.builds(
    lambda a, b, c: math.ldexp(5**b * 10**c, a),
    st.integers(-8, 8),
    st.integers(0, 6),
    st.integers(0, 6),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 40),
    width=st.integers(1, 3),
    block=st.sampled_from([1, 3, 7, None]),
    rate=terminating_rates | st.floats(min_value=1e-3, max_value=1e7),
)
def test_writer_matches_per_cell_reference(data, rows, width, block, rate):
    columns = [data.draw(repeating_columns(rows)) for _ in range(width)]
    shunt = ShuntConfig(vf=data.draw(st.floats(1e-3, 1e3)), rs=data.draw(st.floats(1e-4, 10.0)))
    power = _PowerColumn(PowerTrace(rate_hz=rate, vs=columns[0], shunt=shunt))
    for written in (columns, [power]):
        got, want = io.StringIO(), io.StringIO()
        # the power of the extremes overflows, and of a signalling NaN is invalid
        with chunk_rows(block) if block else nullcontext(), np.errstate(all="ignore"):
            write_csv_rows(got, rate, written)
            per_cell_csv_rows(want, rate, written)
        assert got.getvalue() == want.getvalue()


@st.composite
def time_rows(draw, rate: float) -> tuple[int, int]:
    """[start, stop) of up to 200 rows around row 0, the last rows below
    1e-4 s, a whole second, or, for a terminating rate, the last row whose
    time is written from digits."""
    anchors = [0.0, rate * 1e-4, rate * draw(st.integers(1, 10**6))]
    step = trace_module._decimal_step(rate)
    if step is not None:
        anchors.append(10**15 / step[0])
    anchor = int(min(draw(st.sampled_from(anchors)), 2.0**53))
    start = max(0, anchor + draw(st.integers(-100, 100)))
    return start, start + draw(st.integers(0, 200))


@settings(max_examples=500, deadline=None)
@given(
    data=st.data(),
    rate=terminating_rates | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_times_are_the_repr_of_each_row_time(data, rate):
    start, stop = data.draw(time_rows(rate))
    step = trace_module._decimal_step(rate)
    got = laid_out(lambda text: trace_module._times_into(text, start, rate, step), stop - start)
    assert got == [repr(i / rate) for i in range(start, stop)]


@pytest.mark.parametrize("rate", [1e6, 40000.0])
@pytest.mark.parametrize("scale", [10**15, 2**52, 2**53, 10**16])
def test_times_on_both_sides_of_the_digit_limit(rate, scale):
    """Rows whose i * m is near 10**15, where the writer stops writing
    times from digits, and further up, where two decimals of that many
    digits can round to one float."""
    step = trace_module._decimal_step(rate)
    start = scale // step[0] - 100
    got = laid_out(lambda text: trace_module._times_into(text, start, rate, step), 200)
    assert got == [repr(i / rate) for i in range(start, start + 200)]


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
        (math.inf, None),
        (math.nan, None),
        (0.0, None),
        (-40000.0, None),
    ],
)
def test_decimal_step_of_a_rate(rate, step):
    assert trace_module._decimal_step(rate) == step
