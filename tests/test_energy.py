import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from joulemark.energy import (
    DegenerateWindowError,
    compare_resolution,
    integrate_energy,
    integrate_full,
    window_energies,
)
from joulemark.trace import (
    MeasurementWindow, PowerTrace, ShuntConfig, Windows, power_to_shunt_volts
)

SHUNT = ShuntConfig()  # 12 V, 0.1 ohm


def trace_of(vs: np.ndarray, rate_hz: float) -> PowerTrace:
    return PowerTrace(rate_hz=rate_hz, vs=vs, shunt=SHUNT)


class TestIntegrateEnergy:
    def test_constant_100mv_for_one_second_is_12_joules(self):
        for rate in (1_000.0, 20_000.0, 40_000.0):
            n = int(rate) + 1  # samples 0..rate span exactly one second
            trace = trace_of(np.full(n, 0.1), rate)
            result = integrate_energy(trace, MeasurementWindow(0, n))
            assert result.joules == pytest.approx(12.0, rel=1e-12)

    def test_linear_ramp_is_exact(self):
        # oracle: closed form, (vf/rs) * integral of t/10 over [0, 1] = 6 J
        n = 20_001
        trace = trace_of(np.linspace(0.0, 0.1, n), 20_000.0)
        result = integrate_energy(trace, MeasurementWindow(0, n))
        assert result.joules == pytest.approx(6.0, rel=1e-12)

    def test_sin_squared_against_closed_form(self):
        # oracle first: with vs = 0.1 sin^2(2 pi f t), f = 10 Hz,
        # E = (vf/rs) * 0.1 * [t/2 - sin(4 pi f t)/(8 pi f)] over [0, 1] = 6 J
        f = 10.0
        expected = (12.0 / 0.1) * 0.1 * (
            (1.0 / 2 - math.sin(4 * math.pi * f * 1.0) / (8 * math.pi * f))
            - (0.0 / 2 - math.sin(0.0) / (8 * math.pi * f))
        )
        assert expected == pytest.approx(6.0, rel=1e-12)
        rate = 20_000.0
        t = np.arange(int(rate) + 1) / rate
        trace = trace_of(0.1 * np.sin(2 * math.pi * f * t) ** 2, rate)
        result = integrate_energy(trace, MeasurementWindow(0, len(t)))
        assert result.joules == pytest.approx(expected, rel=1e-6)

    def test_duration_and_mean_power_are_consistent(self):
        trace = trace_of(np.full(101, 0.1), 100.0)
        result = integrate_energy(trace, MeasurementWindow(10, 61))
        assert result.duration_s == pytest.approx(50 / 100.0, rel=1e-12)
        assert result.mean_watts * result.duration_s == pytest.approx(
            result.joules, rel=1e-12
        )

    def test_mean_power_of_a_constant_window_is_its_power(self):
        result = integrate_energy(trace_of(np.ones(3), 1_000.0), MeasurementWindow(0, 3))  # 120 W
        assert result.joules == pytest.approx(0.24, rel=1e-12)
        assert result.mean_watts == pytest.approx(120.0, rel=1e-12)

    def test_explicit_shunt_overrides_trace_shunt(self):
        # an override is a trace with the other shunt, as CLI analyze builds it
        trace = replace(trace_of(np.full(11, 0.1), 10.0), shunt=ShuntConfig(vf=24.0, rs=0.1))
        doubled = integrate_energy(trace, MeasurementWindow(0, 11))
        assert doubled.joules == pytest.approx(24.0, rel=1e-12)

    def test_rejects_windows_without_a_trapezoid(self):
        trace = trace_of(np.zeros(10), 10.0)
        with pytest.raises(DegenerateWindowError):
            integrate_energy(trace, MeasurementWindow(3, 4))

    def test_rejects_window_past_trace_end(self):
        trace = trace_of(np.zeros(10), 10.0)
        with pytest.raises(ValueError, match="exceeds"):
            integrate_energy(trace, MeasurementWindow(5, 11))


def hold_bound(trace: PowerTrace, begin: int, end: int) -> float:
    """How far a window's sample-and-hold energy may lie from the exactly
    rounded sum of its samples, scaled the same way: (end - begin) float
    additions' worth of the absolute sum, plus two for the roundings of the
    scaling on either side, without which a two-sample window split in two
    can miss the bound.  Each rounding may also be off by the smallest
    subnormal, the absolute term of the rounding model, without which
    subnormal samples, whose relative term underflows to 0, miss it."""
    shunt, rate = trace.shunt, trace.rate_hz
    abs_sum = math.fsum(np.abs(trace.vs[begin:end]).tolist())
    return (end - begin + 2) * (2.0**-52 * abs_sum * shunt.vf / shunt.rs / rate + 2.0**-1074)


@st.composite
def traces_and_cuts(draw, cuts: int):
    """A trace of signed shunt volts at one of a few rates, and `cuts` sorted
    sample indices into it, ends included."""
    vs = draw(st.lists(st.floats(-0.05, 0.5), min_size=1, max_size=60))
    rate = draw(st.sampled_from([20_000.0, 3.3, 44_100.0]))
    shunt = draw(st.sampled_from([SHUNT, ShuntConfig(vf=5.0, rs=0.02)]))
    at = sorted(draw(st.lists(st.integers(0, len(vs)), min_size=cuts, max_size=cuts)))
    return PowerTrace(rate_hz=rate, vs=vs, shunt=shunt), at


class TestIntegrateWindows:
    """window_energies, the sample-and-hold estimator analyze() uses.  Its
    sums come from np.add.reduceat, which is not bit-equal to ndarray.sum()
    or to Python's sum, so it is checked against math.fsum within a bound."""

    @settings(max_examples=300, deadline=None)
    @given(traces_and_cuts(2))
    def test_each_window_is_its_samples_held_for_one_period(self, case):
        trace, (begin, end) = case
        assume(begin < end)
        got = window_energies(trace, Windows([begin], [end]))
        shunt, rate = trace.shunt, trace.rate_hz
        exact = math.fsum(trace.vs[begin:end].tolist()) * shunt.vf / shunt.rs / rate
        assert got.dtype == np.float64 and got.shape == (1,)
        assert abs(got[0] - exact) <= hold_bound(trace, begin, end)

    @settings(max_examples=300, deadline=None)
    @given(traces_and_cuts(3))
    def test_adjacent_windows_add_up(self, case):
        trace, (a, b, c) = case
        assume(a < b < c)
        parts = window_energies(trace, Windows([a, b], [b, c]))
        whole = window_energies(trace, Windows([a], [c]))[0]
        assert abs(parts[0] + parts[1] - whole) <= hold_bound(trace, a, c)

    def test_each_window_alone_gives_it(self):
        trace = trace_of(np.sin(np.arange(200) / 7.0), 1_000.0)
        windows = Windows([0, 2, 10, 61, 150, 199], [1, 3, 61, 100, 191, 200])
        joules = window_energies(trace, windows)
        assert joules.tolist() == [window_energies(trace, Windows([w.begin], [w.end]))[0] for w in windows]

    def test_one_sample_window_holds_for_one_period(self):
        trace = trace_of(np.array([0.0, 1.0, 0.0]), 1_000.0)  # 120 W at sample 1
        assert window_energies(trace, Windows([1], [2])).tolist() == [0.12]

    def test_windows_ending_at_the_trace_end(self):
        trace = trace_of(np.arange(10, dtype=np.float64), 10.0)
        joules = window_energies(trace, Windows([0, 9], [9, 10]))
        assert joules.tolist() == [36.0 * 12.0 / 0.1 / 10.0, 9.0 * 12.0 / 0.1 / 10.0]
        assert window_energies(trace, Windows([0], [10])).tolist() == [45.0 * 12.0 / 0.1 / 10.0]

    def test_no_windows_no_joules(self):
        joules = window_energies(trace_of(np.zeros(10), 10.0), Windows([], []))
        assert joules.shape == (0,) and joules.dtype == np.float64

    def test_first_bad_window_in_order_is_reported(self):
        trace = trace_of(np.zeros(10), 10.0)
        with pytest.raises(ValueError, match=r"^window \[5, 11\) exceeds trace length 10$"):
            window_energies(trace, Windows([0, 3, 5, 12], [2, 4, 11, 14]))

    @pytest.mark.parametrize(
        "begin, end",
        [([3], [3]), ([4], [3]), ([0, 5], [6, 8]), ([5, 0], [6, 2]), ([-1], [2])],
        ids=["empty", "reversed", "overlapping", "out-of-order", "negative"],
    )
    def test_windows_must_be_non_empty_disjoint_and_ordered(self, begin, end):
        with pytest.raises(ValueError, match="^windows must be non-empty, disjoint and in begin order$"):
            window_energies(trace_of(np.zeros(10), 10.0), Windows(begin, end))


class TestIntegrateFull:
    def test_all_zero_trace_is_zero_joules(self):
        trace = trace_of(np.zeros(100), 100.0)
        assert integrate_full(trace).joules == 0.0

    def test_pure_idle_noise_stays_within_bound(self):
        rng = np.random.default_rng(51)
        n, rate, bound = 40_000, 40_000.0, 0.001
        noise_w = rng.uniform(-bound, bound, size=n)
        trace = trace_of(power_to_shunt_volts(noise_w, SHUNT), rate)
        e = integrate_full(trace).joules
        # crude bound: max |noise| x duration; the expected scale is far
        # smaller, ~ bound/sqrt(3) * sqrt(duration * dt)
        assert abs(e) <= bound * 1.0
        assert abs(e) <= 5 * (1 / rate) * (bound / math.sqrt(3)) * math.sqrt(n)

    def test_superposition_of_window_and_idle_noise(self):
        rng = np.random.default_rng(53)
        rate = 20_000.0
        n = 20_001
        power = rng.uniform(-0.001, 0.001, size=n)
        power[5_000:15_000] += 12.0  # one 12 W stretch of 0.5 s
        trace = trace_of(power_to_shunt_volts(power, SHUNT), rate)
        assert integrate_full(trace).joules == pytest.approx(6.0, abs=1e-3)

    def test_rejects_tiny_trace(self):
        with pytest.raises(DegenerateWindowError):
            integrate_full(trace_of(np.zeros(1), 10.0))


class TestEnergyProperties:
    def test_adjacent_windows_telescope_through_shared_sample(self):
        rng = np.random.default_rng(61)
        trace = trace_of(rng.uniform(0, 0.1, size=1_000), 10_000.0)
        for _ in range(25):
            a, b, c = sorted(rng.choice(np.arange(0, 1_000), size=3, replace=False))
            if b - a < 1 or c - b < 1:
                continue
            # windows closed at the shared sample: [a, b] and [b, c]
            e_ab = integrate_energy(trace, MeasurementWindow(a, b + 1)).joules
            e_bc = integrate_energy(trace, MeasurementWindow(b, c + 1)).joules
            e_ac = integrate_energy(trace, MeasurementWindow(a, c + 1)).joules
            assert e_ac == pytest.approx(e_ab + e_bc, rel=1e-12, abs=1e-15)

    def test_scaling_vs_scales_joules_linearly(self):
        rng = np.random.default_rng(63)
        vs = rng.uniform(0, 0.1, size=500)
        base = integrate_energy(trace_of(vs, 1_000.0), MeasurementWindow(0, 500)).joules
        for k in (-2.0, 0.0, 0.5, 40.0):
            scaled = integrate_energy(
                trace_of(k * vs, 1_000.0), MeasurementWindow(0, 500)
            ).joules
            assert scaled == pytest.approx(k * base, rel=1e-12, abs=1e-18)

    def test_nonnegative_power_makes_energy_monotone_in_window(self):
        rng = np.random.default_rng(67)
        trace = trace_of(rng.uniform(0, 0.1, size=400), 1_000.0)
        previous = 0.0
        for end in range(2, 401, 7):
            e = integrate_energy(trace, MeasurementWindow(0, end)).joules
            assert e >= previous - 1e-15
            previous = e

    def test_constant_power_times_duration_sweep(self):
        for rate in (100.0, 2_000.0, 40_000.0):
            for watts in (0.5, 9.0, 15.0):
                for seconds in (0.25, 1.0, 2.0):
                    n = int(round(rate * seconds)) + 1
                    vs = np.full(n, power_to_shunt_volts(watts, SHUNT))
                    e = integrate_energy(
                        trace_of(vs, rate), MeasurementWindow(0, n)
                    ).joules
                    assert e == pytest.approx(watts * seconds, rel=1e-12)


class TestCompareResolution:
    def test_constant_workload_has_zero_difference(self):
        n = 200 * 50 + 1
        trace = trace_of(np.full(n, 0.1), 200_000.0)
        for factor in (2, 10, 50):
            cmp = compare_resolution(trace, factor)
            assert cmp.rel_diff <= 1e-12
            assert cmp.e_hi == pytest.approx(cmp.e_lo, rel=1e-12)

    def test_linear_ramp_factor_two_is_exact(self):
        n = 10_001
        trace = trace_of(np.linspace(0, 0.1, n), 20_000.0)
        assert compare_resolution(trace, 2).rel_diff <= 1e-12

    def test_band_limited_content_survives_heavy_decimation(self):
        # 100 Hz content sampled at 200 kHz, decimated to 4 kHz
        rate, factor = 200_000.0, 50
        n = 40 * 5_000 + 1
        t = np.arange(n) / rate
        power = 9.0 + 6.0 * np.sin(2 * math.pi * 100.0 * t) ** 2
        trace = trace_of(power_to_shunt_volts(power, SHUNT), rate)
        cmp = compare_resolution(trace, factor)
        assert cmp.rel_diff < 0.02
        assert cmp.rel_diff < 1e-4  # in practice the agreement is far tighter

    def test_rejects_small_factor_and_misaligned_window(self):
        trace = trace_of(np.zeros(101), 1_000.0)
        with pytest.raises(ValueError):
            compare_resolution(trace, 1)
        with pytest.raises(ValueError, match="aligned"):
            compare_resolution(trace, 10, MeasurementWindow(3, 101))

    def test_rejects_window_that_collapses(self):
        trace = trace_of(np.zeros(101), 1_000.0)
        # an aligned window shorter than one decimation stride keeps only
        # a single lo-res sample
        with pytest.raises(DegenerateWindowError):
            compare_resolution(trace, 100, MeasurementWindow(0, 1))
