import inspect
import io
import json
import math
import numbers
import threading
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunking import chunk_rows

import joulemark.segment
from joulemark.energy import window_energies
from joulemark.instrument import ACTIVATE, DEACTIVATE, GpioCommand, GpioCommandLog
from joulemark.segment import (
    HitMissReport,
    SegmentationParams,
    SessionReport,
    WrongModeError,
    analyze,
    match_toggles,
    segment_relay,
    segment_trigger,
)
from joulemark.simulate import (
    RELAY,
    TRIGGER,
    NoiseModel,
    Scenario,
    SwitchingModel,
    WorkloadProfile,
    instructions_to_duration,
    repeated_toggle_scenario,
    simulate_session,
)
from joulemark.stats import summarize_campaign
from joulemark.trace import (
    CHUNK_ROWS,
    MeasurementWindow,
    PowerTrace,
    ShuntConfig,
    Windows,
    power_to_shunt_volts,
)

SHUNT = ShuntConfig()


def relay_trace(power_w: np.ndarray, rate_hz: float = 20_000.0) -> PowerTrace:
    return PowerTrace(rate_hz=rate_hz, vs=power_to_shunt_volts(power_w, SHUNT), shunt=SHUNT)


def trigger_trace(trig: np.ndarray, rate_hz: float = 20_000.0) -> PowerTrace:
    return PowerTrace(
        rate_hz=rate_hz, vs=np.zeros(len(trig)), trig=trig, shunt=SHUNT
    )


def written(report) -> dict:
    """The report as its write_json writes it, read back by json."""
    f = io.StringIO()
    report.write_json(f)
    return json.loads(f.getvalue())


def pair(t_on: float, t_off: float, port: int = 40):
    return GpioCommand(t_on, port, ACTIVATE), GpioCommand(t_off, port, DEACTIVATE)


def as_windows(found: list[MeasurementWindow]) -> Windows:
    return Windows([w.begin for w in found], [w.end for w in found])


def each_alone(trace: PowerTrace, windows: Windows) -> list[float]:
    """Each window's energy from window_energies given that window alone."""
    return [window_energies(trace, Windows([w.begin], [w.end]))[0] for w in windows]


class TestSegmentRelay:
    def test_single_active_stretch(self):
        power = np.concatenate([np.zeros(100), np.full(200, 12.0), np.zeros(100)])
        assert segment_relay(relay_trace(power)) == [MeasurementWindow(100, 300)]

    def test_all_idle_yields_nothing(self):
        assert segment_relay(relay_trace(np.zeros(500))) == []

    def test_bounded_noise_never_creates_a_window(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            noise = rng.uniform(-0.001, 0.001, size=2_000)
            assert segment_relay(relay_trace(noise)) == []

    def test_short_idle_gaps_are_bridged(self):
        power = np.concatenate(
            [np.zeros(50), np.full(20, 12.0), np.zeros(2), np.full(20, 12.0), np.zeros(50)]
        )
        assert segment_relay(relay_trace(power)) == [MeasurementWindow(50, 92)]

    def test_long_idle_gaps_separate_windows(self):
        power = np.concatenate(
            [np.zeros(50), np.full(20, 12.0), np.zeros(4), np.full(20, 12.0), np.zeros(50)]
        )
        assert segment_relay(relay_trace(power)) == [
            MeasurementWindow(50, 70),
            MeasurementWindow(74, 94),
        ]

    def test_runs_shorter_than_minimum_are_dropped(self):
        power = np.concatenate([np.zeros(50), np.full(3, 12.0), np.zeros(50)])
        assert segment_relay(relay_trace(power)) == []

    def test_negative_power_still_counts_as_active(self):
        power = np.concatenate([np.zeros(50), np.full(20, -12.0), np.zeros(50)])
        assert segment_relay(relay_trace(power)) == [MeasurementWindow(50, 70)]

    def test_rejects_two_channel_trace(self):
        with pytest.raises(WrongModeError):
            segment_relay(trigger_trace(np.zeros(100)))

    def test_windows_across_power_blocks(self):
        power = np.zeros(2 * CHUNK_ROWS + 50)
        power[CHUNK_ROWS - 10 : CHUNK_ROWS + 10] = 12.0
        power[2 * CHUNK_ROWS - 1 : 2 * CHUNK_ROWS + 2] = 12.0  # 3 samples: dropped
        power[2 * CHUNK_ROWS + 20 : 2 * CHUNK_ROWS + 40] = -12.0
        assert segment_relay(relay_trace(power)) == [
            MeasurementWindow(CHUNK_ROWS - 10, CHUNK_ROWS + 10),
            MeasurementWindow(2 * CHUNK_ROWS + 20, 2 * CHUNK_ROWS + 40),
        ]

    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_windows_across_shrunk_power_blocks(self, rows):
        power = np.zeros(60)
        power[5:13] = 12.0
        power[15:17] = 12.0  # merged across a 2-sample gap
        power[30:33] = -12.0  # 3 samples: dropped
        power[40:59] = 0.004 + 0.002 * (np.arange(19) % 2)  # every other sample active
        trace = relay_trace(power)
        with chunk_rows(rows):
            windows = segment_relay(trace)
        assert windows == segment_relay(trace) == [
            MeasurementWindow(5, 17),
            MeasurementWindow(41, 58),
        ]

    def test_recovers_simulated_window_near_command(self):
        scenario = Scenario.create(
            duration_s=3.0,
            circuit=RELAY,
            workload=WorkloadProfile.constant(12.0, 0.0, 3.0),
            gpio=GpioCommandLog(pair(1.0, 2.0)),
            aggregate_rate_hz=20_000.0,
            seed=7,
        )
        trace, truth = simulate_session(scenario)
        windows = segment_relay(trace)
        assert len(windows) == 1
        command_idx = 20_000
        latency_samples = scenario.switching.nominal_latency_s * trace.rate_hz
        assert command_idx <= windows.begin[0] <= command_idx + 2 * latency_samples
        assert windows == truth.realized_windows()


class TestSegmentTrigger:
    def test_single_high_run(self):
        trig = np.zeros(60_000)
        trig[20_000:40_000] = 1.8
        assert segment_trigger(trigger_trace(trig)) == [MeasurementWindow(20_000, 40_000)]

    def test_constant_low_yields_nothing(self):
        assert segment_trigger(trigger_trace(np.zeros(1_000))) == []

    def test_adjacent_runs_never_merge(self):
        trig = np.zeros(250)
        trig[50:100] = 1.8
        trig[150:200] = 1.8
        assert segment_trigger(trigger_trace(trig)) == [
            MeasurementWindow(50, 100),
            MeasurementWindow(150, 200),
        ]

    def test_trace_ending_high_warns_and_closes_at_end(self):
        trig = np.zeros(100)
        trig[60:] = 1.8
        assert segment_trigger(trigger_trace(trig)) == [MeasurementWindow(60, 100)]

    def test_invariant_under_shunt_channel_scaling(self):
        rng = np.random.default_rng(31)
        trig = (rng.random(1_000) > 0.7).astype(float) * 1.8
        vs = rng.uniform(0, 0.1, size=1_000)
        base = segment_trigger(
            PowerTrace(rate_hz=20_000.0, vs=vs, trig=trig, shunt=SHUNT)
        )
        for k in (0.0, 0.01, 100.0):
            scaled = segment_trigger(
                PowerTrace(rate_hz=20_000.0, vs=k * vs, trig=trig, shunt=SHUNT)
            )
            assert scaled == base

    def test_rejects_single_channel_trace(self):
        with pytest.raises(WrongModeError):
            segment_trigger(relay_trace(np.zeros(100)))


class TestSegmentationParams:
    def test_rejects_bad_values(self):
        for threshold in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="relay threshold must be finite and positive"):
                SegmentationParams(relay_threshold_w=threshold)
        with pytest.raises(ValueError):
            SegmentationParams(min_window_samples=0)
        for threshold in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="trigger logic threshold must be finite"):
                SegmentationParams(trigger_logic_threshold_v=threshold)

    def test_min_window_samples_is_an_integer(self):
        # nan and inf would find no window and write a report that is not JSON
        for n in (float("nan"), float("inf"), 2.5, True, 4.0):
            with pytest.raises(ValueError, match=r"^min window length must be an integer >= 1, got "):
                SegmentationParams(min_window_samples=n)
        params = SegmentationParams(min_window_samples=np.int64(3))
        assert type(params.min_window_samples) is int and params.min_window_samples == 3

    @pytest.mark.parametrize("value", [True, False, np.True_, "1", None, pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize(
        "name, message",
        [
            ("relay_threshold_w", "relay threshold must be finite and positive"),
            ("trigger_logic_threshold_v", "trigger logic threshold must be finite"),
            ("match_tolerance_s", "match tolerance must be finite and >= 0"),
        ],
    )
    def test_float_fields_reject_a_bool(self, name, message, value):
        # the report would hold true or false where its params hold numbers;
        # a string or None is no number, and shows as its repr; 10**400 is
        # no float
        with pytest.raises(ValueError) as raised:
            SegmentationParams(**{name: value})
        shown = value if isinstance(value, numbers.Real) else repr(value)
        assert str(raised.value) == f"{message}, got {shown}"


class TestSegmentationProperties:
    @staticmethod
    def _assert_ordered_disjoint(windows):
        windows = list(windows)
        for a, b in zip(windows, windows[1:]):
            assert a.end <= b.begin

    def test_windows_ordered_and_disjoint_on_random_traces(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            power = rng.choice([0.0, 12.0], size=500, p=[0.7, 0.3])
            self._assert_ordered_disjoint(segment_relay(relay_trace(power)))
            trig = rng.choice([0.0, 1.8], size=500, p=[0.7, 0.3]).astype(float)
            if trig[-1] > 0:
                trig[-1] = 0.0  # keep the truncation warning out of this sweep
            self._assert_ordered_disjoint(segment_trigger(trigger_trace(trig)))

    @pytest.mark.parametrize("circuit", [RELAY, TRIGGER])
    def test_exact_recovery_of_clean_simulations(self, circuit):
        rng = np.random.default_rng(43)
        for seed in range(8):
            cmds = []
            cursor = 0.1
            for _ in range(int(rng.integers(1, 4))):
                length = float(rng.uniform(0.05, 0.3))
                cmds.extend(pair(round(cursor, 4), round(cursor + length, 4)))
                cursor += length + 0.1
            duration = cursor + 0.1
            scenario = Scenario.create(
                duration_s=duration,
                circuit=circuit,
                workload=WorkloadProfile.constant(9.0, 0.0, duration),
                gpio=GpioCommandLog(tuple(cmds)),
                switching=SwitchingModel(nominal_latency_s=0.0),
                noise=NoiseModel(idle_power_bound_w=0.0),
                seed=seed,
            )
            trace, truth = simulate_session(scenario)
            segmenter = segment_relay if circuit == RELAY else segment_trigger
            assert segmenter(trace) == truth.realized_windows()


class TestMatchToggles:
    def _log(self, starts, length=0.5):
        cmds = []
        for t in starts:
            cmds.extend(pair(t, t + length))
        return GpioCommandLog(tuple(cmds))

    def test_all_matched(self):
        starts = [float(i) for i in range(10)]
        found = [
            MeasurementWindow(int(t * 20_000) + 10, int((t + 0.5) * 20_000) + 10)
            for t in starts
        ]
        report = match_toggles(self._log(starts), as_windows(found), 20_000.0)
        assert (report.expected, report.hits, report.misses) == (10, 10, 0)
        assert report.window_index.tolist() == list(range(10))

    def test_partial_matching(self):
        starts = [float(i) for i in range(10)]
        found = [
            MeasurementWindow(int(t * 20_000), int((t + 0.5) * 20_000))
            for t in starts[:3]
        ]
        report = match_toggles(self._log(starts), as_windows(found), 20_000.0)
        assert (report.expected, report.hits, report.misses) == (10, 3, 7)

    def test_empty_log(self):
        report = match_toggles(GpioCommandLog(), Windows([], []), 20_000.0)
        assert (report.expected, report.hits, report.misses) == (0, 0, 0)

    def test_tolerance_boundary(self):
        log = self._log([1.0])
        rate = 20_000.0
        inside = Windows([int(1.0009 * rate)], [int(1.6 * rate)])
        outside = Windows([int(1.0030 * rate)], [int(1.6 * rate)])
        assert match_toggles(log, inside, rate, tolerance_s=1e-3).hits == 1
        assert match_toggles(log, outside, rate, tolerance_s=1e-3).hits == 0

    def test_each_window_matches_at_most_once(self):
        # both commanded starts fall within tolerance of the one found window
        log = self._log([1.0, 1.0005], length=0.0002)
        report = match_toggles(log, Windows([20_000], [25_000]), 20_000.0)
        assert report.hits == 1
        assert report.window_index.tolist() == [0, -1]

    @pytest.mark.parametrize("rate", [0.0, -20_000.0, math.inf, math.nan], ids=repr)
    def test_a_rate_that_is_not_finite_and_positive_is_refused(self, rate):
        with pytest.raises(ValueError, match="sampling rate must be finite and positive"):
            match_toggles(self._log([1.0]), Windows([20_000], [25_000]), rate)

    @pytest.mark.parametrize("tolerance", [-1e-3, math.nan, math.inf, True, "1e-3", None], ids=repr)
    def test_a_tolerance_is_held_by_the_number_rule(self, tolerance):
        """As SegmentationParams holds match_tolerance_s: a NaN or negative
        tolerance would match nothing, an infinite one everything."""
        with pytest.raises(ValueError, match=r"^match tolerance must be finite and >= 0, got "):
            match_toggles(self._log([1.0, 2.0, 3.0]), Windows([20_000, 40_000], [25_000, 45_000]), 20_000.0, tolerance)

    @pytest.mark.parametrize("tolerance", [0, np.float32(1e-3), np.int64(1)], ids=repr)
    def test_a_numpy_or_integer_tolerance_is_held_as_a_float(self, tolerance):
        report = match_toggles(self._log([1.0]), Windows([20_000], [25_000]), 20_000.0, tolerance)
        assert report.hits == 1

    def test_json_shape(self):
        report = analyze(relay_trace(np.zeros(500)), RELAY, expected=self._log([1.0]))
        d = written(report)["hit_miss"]
        assert d["expected"] == 1 and d["misses"] == 1
        assert d["verdicts"][0]["hit"] is False


def greedy_verdicts(intended, found, rate_hz, tolerance_s=1e-3):
    """Reference matcher: for each pair in order, scan every window and take
    the first unmatched one within tolerance_s."""
    taken = [False] * len(found)
    t_on, t_off, port = intended.windows()
    window_index = []
    for on in t_on.tolist():
        matched = -1
        for i, w in enumerate(found):
            if taken[i]:
                continue
            if abs(w.begin / rate_hz - on) <= tolerance_s:
                matched = i
                taken[i] = True
                break
        window_index.append(matched)
    return HitMissReport(port, t_on, t_off, np.array(window_index, dtype=np.int64))


@st.composite
def gpio_logs(draw):
    """Logs over one to three ports; times on a coarse grid, so starts and
    ends repeat within and across ports."""
    step = draw(st.sampled_from([0.01, 0.001, 0.05, 0.3]))
    commands = []
    for port in draw(st.lists(st.sampled_from([40, 43, 46]), min_size=1, max_size=3, unique=True)):
        ticks = sorted(draw(st.lists(st.integers(0, 400), max_size=16)))
        ticks = ticks[: len(ticks) // 2 * 2]
        for k, tick in enumerate(ticks):
            commands.append(GpioCommand(tick * step, port, ACTIVATE if k % 2 == 0 else DEACTIVATE))
    # stable: each port keeps its activate before its deactivate at equal times
    commands.sort(key=lambda c: c.t_s)
    return GpioCommandLog(tuple(commands))


@st.composite
def match_cases(draw):
    """A log and windows in begin order, some placed on the tolerance edges
    of the commanded starts after division by the rate."""
    log = draw(gpio_logs())
    rate = draw(st.sampled_from([20_000.0, 10_000.0, 3.3, 7.77, 44_100.0, 1e6]))
    tolerance = draw(st.sampled_from([1e-3, 5e-4, 2.5e-3, 0.0, 0.1, 1e9]))  # a negative one is refused
    begins = draw(st.lists(st.integers(0, int(130 * rate)), max_size=6))
    for t_on in log.windows()[0].tolist():
        for edge in (t_on - tolerance, t_on, t_on + tolerance):
            if draw(st.booleans()):
                near = int(edge * rate) if abs(edge) < 1e6 else 0
                begins += [b for b in range(near - 1, near + 3) if b >= 0]
    # disjoint windows, as a Windows holds them: each ends by the next begin
    begins = sorted(set(begins))
    ends = [min(b + draw(st.integers(1, 50)), after) for b, after in zip(begins, [*begins[1:], math.inf])]
    found = [MeasurementWindow(b, e) for b, e in zip(begins, ends)]
    return log, found, rate, tolerance


class TestMatchTogglesAgainstGreedy:
    @settings(max_examples=400, deadline=None)
    @given(match_cases())
    def test_verdicts_equal_the_greedy_reference(self, case):
        log, found, rate, tolerance = case
        report = match_toggles(log, as_windows(found), rate, tolerance)
        assert report == greedy_verdicts(log, found, rate, tolerance)
        assert report.hits == sum(i != -1 for i in report.window_index.tolist())


@st.composite
def spaced_sessions(draw) -> Scenario:
    """One to six toggle pairs of any length up to 3 ms, from up to 0.5 s
    into the session, on a constant 12 W load, at an aggregate rate that may
    be 44.1 kHz or 3,300.3 Hz, whose periods are no short decimal.  Pairs
    start 2.5 ms or more apart, more than a match tolerance beyond a sample
    period plus the latency, so a window that starts at one pair's realized
    begin is out of every other pair's reach; a pair may end where the next
    starts, so realized windows may touch."""
    cmds, t_on = [], draw(st.floats(0.0, 0.5))
    for _ in range(draw(st.integers(1, 6))):
        t_off = t_on + draw(st.floats(0.0, 3e-3))
        cmds += [GpioCommand(t_on, 40, ACTIVATE), GpioCommand(t_off, 40, DEACTIVATE)]
        t_on = max(t_on + 2.5e-3, t_off + draw(st.sampled_from([0.0, 1e-4, 5e-4, 1e-3])))
    duration = t_off + draw(st.floats(1e-3, 3e-3))
    return Scenario(
        duration,
        draw(st.sampled_from([RELAY, TRIGGER])),
        aggregate_rate_hz=draw(st.one_of(st.sampled_from([3_300.3, 44_100.0, 40_000.0]), st.floats(3_000.0, 1e5))),
        workload=WorkloadProfile.constant(12.0, 0.0, duration),
        gpio=GpioCommandLog(tuple(cmds)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestSimulatorAndMatcherAgree:
    @settings(max_examples=150, deadline=None)
    @given(spaced_sessions())
    def test_each_recoverable_window_matches_its_own_pair(self, scenario):
        params = SegmentationParams()
        trace, truth = simulate_session(scenario)
        assert 1 / trace.rate_hz + scenario.switching.nominal_latency_s <= params.match_tolerance_s
        report = analyze(trace, scenario.circuit, params, expected=scenario.gpio)
        verdict = report.hit_miss.window_index
        # a hit is a window that starts at the pair's own realized begin
        hits = np.flatnonzero(verdict >= 0)
        assert np.array_equal(report.windows.begin[verdict[hits]], truth.realized_begin[hits])
        # the segmenter's run-length rule: trigger runs that touch are one
        # run; relay runs closer than min_window_samples merge, and shorter
        # ones are dropped
        least = params.min_window_samples if scenario.circuit == RELAY else 1
        pairs = np.flatnonzero(truth.realized_begin >= 0)
        begin, end = truth.realized_begin[pairs], truth.realized_end[pairs]
        apart = np.concatenate(([True], begin[1:] - end[:-1] >= least, [True]))
        admitted = apart[:-1] & apart[1:] & (end - begin >= least)
        found = dict(zip(zip(report.windows.begin.tolist(), report.windows.end.tolist()), range(len(report.windows))))
        for k, b, e in zip(pairs[admitted].tolist(), begin[admitted].tolist(), end[admitted].tolist()):
            assert verdict[k] == found[b, e]


class TestAnalyze:
    def two_runs(self) -> PowerTrace:
        trig = np.zeros(1000)
        trig[100:300] = trig[500:800] = 1.8
        vs = power_to_shunt_volts(np.linspace(5.0, 15.0, 1000), SHUNT)
        return PowerTrace(rate_hz=20_000.0, vs=vs, trig=trig, shunt=SHUNT)

    def two_runs_log(self) -> GpioCommandLog:
        # one toggle pair on the first run, one on no run
        return GpioCommandLog((*pair(100 / 20_000, 300 / 20_000), *pair(0.045, 0.047)))

    def test_signature_is_the_cli_pipeline(self):
        params = inspect.signature(analyze).parameters
        assert list(params) == ["trace", "mode", "params", "expected"]
        assert params["params"].default == SegmentationParams()
        assert params["expected"].default is None
        assert SegmentationParams().match_tolerance_s == 1e-3

    def test_results_are_each_window_integrated(self):
        power = np.concatenate(
            [np.zeros(100), np.linspace(2.0, 20.0, 300), np.zeros(200), np.full(150, 7.0), np.zeros(50)]
        )
        trace = relay_trace(power)
        params = SegmentationParams(relay_threshold_w=0.5)
        report = analyze(trace, RELAY, params)
        windows = segment_relay(trace, params)
        assert len(windows) == 2 and report.windows == windows
        assert report.joules.tolist() == each_alone(trace, windows)
        assert report.total_joules == sum(report.joules.tolist())
        assert written(report)["total_joules"] == report.total_joules
        assert (report.mode, report.params, report.warnings) == (RELAY, params, [])

    def test_trigger_results_are_each_window_integrated(self):
        trace = self.two_runs()
        report = analyze(trace, TRIGGER)
        windows = segment_trigger(trace)
        assert report.windows == windows
        assert report.joules.tolist() == each_alone(trace, windows)

    def test_truncated_window_is_a_report_warning(self):
        trig = np.zeros(400)
        trig[300:] = 1.8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze(trigger_trace(trig), TRIGGER)
        assert report.windows == [MeasurementWindow(300, 400)]
        assert report.warnings == ["trace ends mid-window; final window truncated at trace end"]

    START = "trace starts mid-window; first window truncated at trace start"
    END = "trace ends mid-window; final window truncated at trace end"

    @pytest.mark.parametrize(
        "mode, levels, windows, expected",
        [
            # a trigger window from sample 0, ending inside the trace
            (TRIGGER, [1.8] * 3 + [0.0] * 7, [(0, 3)], [START]),
            # a relay window from sample 0, and one up to the trace's end
            (RELAY, [12.0] * 5 + [0.0] * 11, [(0, 5)], [START]),
            (RELAY, [0.0] * 10 + [12.0] * 6, [(10, 16)], [END]),
            # one window over the whole trace is truncated at both ends
            (RELAY, [12.0] * 10, [(0, 10)], [START, END]),
            (TRIGGER, [1.8] * 16, [(0, 16)], [START, END]),
            # interior windows are not truncated
            (RELAY, [0.0] * 3 + [12.0] * 8 + [0.0] * 5, [(3, 11)], []),
            (TRIGGER, [0.0, 1.8, 1.8] + [0.0] * 7, [(1, 3)], []),
        ],
    )
    def test_a_window_at_either_end_of_the_trace_is_a_report_warning(self, mode, levels, windows, expected):
        levels = np.array(levels)
        trace = relay_trace(levels) if mode == RELAY else trigger_trace(levels)
        report = analyze(trace, mode)
        assert report.windows == [MeasurementWindow(b, e) for b, e in windows]
        assert report.warnings == expected

    def test_overlapping_analyses_each_report_their_truncated_window(self, monkeypatch):
        # the first thread segments while the second is inside analyze(), as
        # two instrumented program parts analysed at once can
        trig = np.zeros(400)
        trig[300:] = 1.8
        trace = trigger_trace(trig)
        segment = joulemark.segment.segment_trigger
        second_in, first_done = threading.Event(), threading.Event()

        def held(trace, params=None):
            if threading.current_thread() is first:
                assert second_in.wait(10)
            else:
                second_in.set()
                assert first_done.wait(10)
            return segment(trace, params)

        reports, errors = {}, []

        def run():
            try:
                reports[threading.current_thread()] = analyze(trace, TRIGGER)
            except BaseException as exc:
                errors.append(exc)
            finally:
                if threading.current_thread() is first:
                    first_done.set()

        state = warnings.filters[:], warnings.showwarning, warnings._showwarnmsg_impl
        monkeypatch.setattr(joulemark.segment, "segment_trigger", held)
        first, second = threading.Thread(target=run), threading.Thread(target=run)
        try:
            first.start()
            second.start()
            first.join(20)
            second.join(20)
            after = warnings.filters[:], warnings.showwarning, warnings._showwarnmsg_impl
        finally:
            warnings.filters[:], warnings.showwarning, warnings._showwarnmsg_impl = state
            warnings._filters_mutated()
        assert not first.is_alive() and not second.is_alive() and errors == []
        assert [reports[first].warnings, reports[second].warnings] == [
            ["trace ends mid-window; final window truncated at trace end"]
        ] * 2
        assert after == state

    def test_no_windows_is_a_report_warning(self):
        report = analyze(relay_trace(np.zeros(500)), RELAY)
        assert report.windows == [] and report.joules.tolist() == []
        assert type(report.total_joules) is float and report.total_joules == 0.0
        text = io.StringIO()
        report.write_json(text)
        assert '\n  "total_joules": 0.0,\n' in text.getvalue()
        assert report.warnings == ["no measurement windows found"]

    def test_hit_miss_only_with_expected(self):
        trace = self.two_runs()
        assert analyze(trace, TRIGGER).hit_miss is None
        log = self.two_runs_log()
        report = analyze(trace, TRIGGER, SegmentationParams(match_tolerance_s=2e-4), log)
        assert report.hit_miss == match_toggles(log, segment_trigger(trace), 20_000.0, 2e-4)
        assert (report.hit_miss.hits, report.hit_miss.misses) == (1, 1)
        assert written(report)["params"]["match_tolerance_s"] == 2e-4

    def test_json_serialization_keys(self):
        trace = self.two_runs()
        results = written(analyze(trace, TRIGGER))["results"]
        assert [sorted(r["energy"]) for r in results] == [["begin_s", "end_s", "joules", "mean_watts"]] * 2
        joules = window_energies(trace, Windows([100], [300]))[0]
        assert results[0] == {
            "window": {"begin_idx": 100, "end_idx": 300},
            "energy": {"begin_s": 0.005, "end_s": 0.015, "joules": joules, "mean_watts": joules / 0.01},
        }

    def test_mean_watts_is_joules_over_duration(self):
        # a constant 120 W for three samples at 1 kHz: 0.36 J over 3 ms
        trig = np.zeros(10)
        trig[4:7] = 1.8
        trace = replace(trigger_trace(trig, 1_000.0), vs=np.full(10, power_to_shunt_volts(120.0, SHUNT)))
        (result,) = written(analyze(trace, TRIGGER))["results"]
        assert result["energy"]["joules"] == 0.36
        assert result["energy"]["mean_watts"] == 120.0

    def test_reports_compare_by_content(self):
        trace = self.two_runs()
        assert analyze(trace, TRIGGER) == analyze(trace, TRIGGER)
        assert analyze(trace, TRIGGER) != analyze(trace, TRIGGER, SegmentationParams(match_tolerance_s=2e-3))
        shifted = replace(trace, vs=trace.vs * 2)
        assert analyze(trace, TRIGGER) != analyze(shifted, TRIGGER)

    def test_a_report_whose_joules_do_not_match_its_windows_is_refused(self):
        report = analyze(self.two_runs(), TRIGGER)
        for joules in (np.array([1.0, 2.0, 3.0]), np.array([1.0]), np.array([])):
            with pytest.raises(ValueError, match=rf"^report has {len(joules)} joules for 2 windows$"):
                replace(report, joules=joules)
        with pytest.raises(ValueError, match="^report has 2 joules for 1 windows$"):
            SessionReport(
                mode=RELAY, rate_hz=10.0, shunt=SHUNT, params=SegmentationParams(),
                windows=Windows([0], [5]), joules=np.array([1.0, 2.0]),
            )

    def test_equality_writes_no_record(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("equality built a JSON document")

        monkeypatch.setattr(SessionReport, "_json_doc", refuse)
        monkeypatch.setattr(HitMissReport, "_json_doc", refuse)
        trace, log = self.two_runs(), self.two_runs_log()
        assert analyze(trace, TRIGGER, expected=log) == analyze(trace, TRIGGER, expected=log)

    def test_reports_differing_in_one_part_are_unequal(self):
        report = analyze(self.two_runs(), TRIGGER, expected=self.two_runs_log())
        joules = report.joules.copy()
        joules[1] = np.nextafter(joules[1], np.inf)
        window_index = report.hit_miss.window_index.copy()
        window_index[0] = -1
        missed = replace(report.hit_miss, window_index=window_index)
        others = [
            replace(report, joules=joules),
            replace(report, warnings=[*report.warnings, "another"]),
            replace(report, hit_miss=missed),
            replace(report, campaign=summarize_campaign([1.0, 2.0])),
        ]
        for other in others:
            assert other != report and report != other
        assert replace(report) == report
        # warnings compare as Python strings, which keep a trailing NUL
        assert replace(report, warnings=["w"]) != replace(report, warnings=["w\x00"])
        assert report != written(report)

    def test_wrong_mode_and_unknown_mode_are_rejected(self):
        with pytest.raises(WrongModeError):
            analyze(self.two_runs(), RELAY)
        with pytest.raises(ValueError, match="mode"):
            analyze(self.two_runs(), "both")

    @pytest.mark.parametrize(
        "defect, violation",
        [
            # sample 150 lies in the first trigger run: its joules would be NaN
            ("nan_sample_in_window", "sample 150: non-finite shunt voltage"),
            ("empty", "empty trace"),
        ],
    )
    def test_invalid_trace_is_refused(self, defect, violation):
        # a bad rate or channel length cannot be built (see test_trace.TestPowerTrace)
        trace = self.two_runs()
        if defect == "nan_sample_in_window":
            vs = trace.vs.copy()
            vs[150] = np.nan
            trace = replace(trace, vs=vs)
        else:
            trace = replace(trace, vs=np.zeros(0), trig=np.zeros(0))
        with pytest.raises(ValueError) as caught:
            analyze(trace, TRIGGER)
        assert str(caught.value) == violation

    @pytest.mark.parametrize(
        "vs, rate, params, message",
        [
            # power and energy overflow, so both segmenter and integrator warn
            # without the analysis' own errstate
            ([1e307] * 10, 20_000.0, SegmentationParams(), "window 0 [0, 10): joules is inf, not finite"),
            # the window ends at 4e310 s
            ([1.0] * 4 + [0.0], 1e-310, SegmentationParams(),
             "window 0 [0, 4): end_s is inf, not finite"),
            # two windows of 9.6e307 J each
            ([2e305] * 4 + [0.0] * 5 + [2e305] * 4, 1.0, SegmentationParams(),
             "total_joules is inf, not finite"),
            # the second sample lies at 1e310 s
            ([0.0, 1.0, 1.0, 1.0, 1.0], 1e-310, SegmentationParams(),
             "window 0 [1, 5): begin_s is inf, not finite"),
        ],
    )
    def test_overflowing_results_are_refused(self, vs, rate, params, message):
        trace = PowerTrace(rate_hz=rate, vs=np.array(vs), shunt=SHUNT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                analyze(trace, RELAY, params)
        assert str(caught.value) == message

    def test_each_violation_is_one_line(self):
        trace = self.two_runs()
        vs, trig = trace.vs.copy(), trace.trig.copy()
        vs[3], trig[7] = np.inf, np.nan
        with pytest.raises(ValueError) as caught:
            analyze(replace(trace, vs=vs, trig=trig), TRIGGER)
        assert str(caught.value).split("\n") == [
            "sample 3: non-finite shunt voltage",
            "sample 7: non-finite trigger voltage",
        ]

    def test_float32_params_write_a_report_that_parses(self):
        params = SegmentationParams(
            relay_threshold_w=np.float32(0.005),
            min_window_samples=np.int64(4),
            trigger_logic_threshold_v=np.float32(0.9),
            match_tolerance_s=np.float64(1e-3),
        )
        assert [type(v) for v in asdict(params).values()] == [float, int, float, float]
        report = analyze(self.two_runs(), TRIGGER, params)
        text = io.StringIO()
        report.write_json(text)
        assert json.loads(text.getvalue())["params"] == asdict(params)


def merge_loop(mask: list[bool], min_window_samples: int) -> list[MeasurementWindow]:
    """Reference relay segmentation of an activity mask: maximal runs, each
    merged into the previous one when the idle gap between them is shorter
    than min_window_samples, then the windows shorter than that dropped."""
    runs, start = [], None
    for i, active in enumerate([*mask, False]):
        if active and start is None:
            start = i
        elif not active and start is not None:
            runs.append((start, i))
            start = None
    merged: list[tuple[int, int]] = []
    for start, end in runs:
        if merged and start - merged[-1][1] < min_window_samples:
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return [MeasurementWindow(b, e) for b, e in merged if e - b >= min_window_samples]


@st.composite
def masks(draw) -> list[bool]:
    """Alternating runs of active and idle samples, lengths 1-12."""
    active = draw(st.booleans())
    mask = []
    for length in draw(st.lists(st.integers(1, 12), max_size=40)):
        mask += [active] * length
        active = not active
    return mask


class TestArrayPath:
    @settings(max_examples=400, deadline=None)
    @given(masks(), st.integers(1, 8))
    @example([], 4)
    @example([True], 1)
    def test_relay_merge_equals_the_merge_loop(self, mask, min_window):
        trace = relay_trace(np.where(mask, 12.0, 0.0))
        windows = segment_relay(trace, SegmentationParams(min_window_samples=min_window))
        assert windows == merge_loop(mask, min_window)

    @settings(max_examples=300, deadline=None)
    @given(
        masks(),
        st.sampled_from([RELAY, TRIGGER]),
        st.integers(1, 8),
        st.sampled_from([20_000.0, 3.3, 44_100.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_analyze_joules_equal_window_energies_bit_for_bit(self, mask, mode, min_window, rate, seed):
        vs = np.random.default_rng(seed).uniform(-0.01, 0.2, len(mask))
        if mode == RELAY:
            trace = PowerTrace(rate_hz=rate, vs=np.where(mask, vs, 0.0), shunt=SHUNT)
        else:
            trace = PowerTrace(rate_hz=rate, vs=vs, trig=np.where(mask, 1.8, 0.0), shunt=SHUNT)
        params = SegmentationParams(min_window_samples=min_window)
        windows = (segment_relay if mode == RELAY else segment_trigger)(trace, params)
        if not mask:  # the segmenters find no window; analyze refuses the trace
            with pytest.raises(ValueError, match="^empty trace$"):
                analyze(trace, mode, params)
            return
        report = analyze(trace, mode, params)
        assert report.windows == windows
        assert report.joules.tolist() == each_alone(trace, windows)

    def test_one_sample_window_is_measured(self):
        # 25K instructions per toggle, the shortest trigger sweep of demo 03:
        # its first recovered window, [40, 41), holds a single sample
        scenario = repeated_toggle_scenario(instructions_to_duration(25_000), 10, TRIGGER, seed=25_000)
        trace, _ = simulate_session(scenario)
        report = analyze(trace, TRIGGER)
        assert len(report.windows) == 6
        assert report.windows.begin[0] == 40 and report.windows.end[0] == 41
        assert report.joules[0] == pytest.approx(12.0 / 20_000.0, rel=1e-12)

