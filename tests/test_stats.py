import json
import math

import numpy as np
import pytest
from reference_campaigns import REFERENCE_CAMPAIGNS as PRINTED_CAMPAIGNS

from joulemark.stats import (
    InsufficientSamplesError,
    UndefinedVariationError,
    format_sig5,
    summarize_campaign,
    t_critical,
    variation_pct,
)

# The published campaigns as floats: size -> (samples, mean, margin of error).
REFERENCE_CAMPAIGNS = {
    size: ([float(x) for x in samples], float(mean), float(me))
    for size, samples, mean, me in PRINTED_CAMPAIGNS
}


class TestTCritical:
    # oracle: standard two-sided t table
    def test_df4_at_95(self):
        assert t_critical(4, 0.95) == pytest.approx(2.776, abs=1e-3)

    def test_df1_at_95(self):
        assert t_critical(1, 0.95) == pytest.approx(12.706, abs=1e-3)

    def test_large_df_approaches_normal_quantile(self):
        assert t_critical(1000, 0.95) == pytest.approx(1.960, abs=5e-3)

    def test_other_levels(self):
        assert t_critical(4, 0.90) == pytest.approx(2.132, abs=1e-3)
        assert t_critical(4, 0.99) == pytest.approx(4.604, abs=1e-3)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf, True, np.True_, "0.95", None])
    def test_rejects_confidence_outside_the_open_unit_interval(self, confidence):
        with pytest.raises(ValueError, match=r"^confidence must be in \(0, 1\), got "):
            t_critical(4, confidence)
        with pytest.raises(ValueError, match=r"^confidence must be in \(0, 1\), got "):
            summarize_campaign([1.0, 2.0], confidence)

    def test_rejects_zero_df(self):
        with pytest.raises(ValueError):
            t_critical(0, 0.95)

    @pytest.mark.parametrize("df", [2.5, math.inf, 2.0, True, np.True_, "2", None])
    def test_rejects_non_integer_df(self, df):
        with pytest.raises(ValueError, match=r"^degrees of freedom must be an integer >= 1, got "):
            t_critical(df, 0.95)

    def test_numpy_arguments_are_held_as_python_numbers(self):
        assert t_critical(np.int64(4), np.float64(0.95)) == t_critical(4, 0.95)

    def test_any_confidence_inside_the_unit_interval(self):
        # two-sided t table, df 4
        assert t_critical(4, 0.80) == pytest.approx(1.533, abs=1e-3)
        assert t_critical(4, 0.98) == pytest.approx(3.747, abs=1e-3)

    def test_no_jump_past_df_30(self):
        # t(0.975, 31) = 2.0395; a table that ends at df 30 fell to 1.960
        assert t_critical(31, 0.95) == pytest.approx(2.0395, abs=1e-4)
        values = [t_critical(df, 0.95) for df in range(1, 200)]
        assert values == sorted(values, reverse=True)

    def test_matches_scipy(self):
        t = pytest.importorskip("scipy.stats").t
        dfs = np.arange(1, 1001)
        confidences = np.linspace(0.80, 0.999, 60)
        expected = t.ppf(0.5 + confidences / 2, dfs[:, None])
        ours = np.array([[t_critical(int(df), float(c)) for c in confidences] for df in dfs])
        # the worst case, 1.5e-5, is at df 3
        np.testing.assert_allclose(ours, expected, rtol=2e-5, atol=0)


class TestSummarizeCampaign:
    def test_reference_campaign_1000(self):
        samples, ref_mean, ref_me = REFERENCE_CAMPAIGNS[1000]
        s = summarize_campaign(samples, 0.95)
        assert s.mean_j == pytest.approx(ref_mean, abs=1e-3)
        assert s.me_j == pytest.approx(ref_me, abs=1e-3)

    def test_reference_campaign_2000(self):
        samples, ref_mean, ref_me = REFERENCE_CAMPAIGNS[2000]
        s = summarize_campaign(samples, 0.95)
        assert s.mean_j == pytest.approx(ref_mean, abs=5e-3)
        assert s.me_j == pytest.approx(ref_me, abs=5e-3)

    def test_zero_variance_gives_zero_margin(self):
        s = summarize_campaign([5.0, 5.0, 5.0], 0.95)
        assert s.mean_j == 5.0
        assert s.sd_j == 0.0
        assert s.me_j == 0.0
        assert s.ci == (5.0, 5.0)

    def test_rejects_single_sample(self):
        with pytest.raises(InsufficientSamplesError):
            summarize_campaign([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            summarize_campaign([1.0, math.nan])

    @pytest.mark.parametrize("samples", [["1.5", "2.5"], [True, False], [1.0, np.True_], [1.0, None]])
    def test_rejects_samples_that_are_not_numbers(self, samples):
        with pytest.raises(ValueError, match=r"^campaign samples must be finite numbers, got "):
            summarize_campaign(samples)

    def test_numpy_numbers_are_written_as_python_floats(self):
        summary = summarize_campaign([np.float32(1.0), 2.0], np.float32(0.95))
        assert type(summary.confidence) is float and summary.confidence == float(np.float32(0.95))
        assert json.loads(json.dumps(summary.to_json_dict()))["confidence"] == summary.confidence
        assert all(type(x) is float for x in summary.samples)

    @pytest.mark.parametrize(
        "samples",
        [
            [1e200, 1.5e200],  # a squared deviation overflows
            [1e308, 1.7e308],  # the sum overflows
            [-1.7e308, 1.7e308, 1.7e308],  # a deviation overflows
            [0.0, 1e308],  # the margin overflows
            [1e10, -1e10, 1e-300],  # the variation overflows
        ],
    )
    def test_rejects_finite_samples_whose_summary_overflows(self, samples):
        with pytest.raises(ValueError, match="beyond the float range"):
            summarize_campaign(samples)

    def test_margin_uses_t_over_sqrt_n(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(100.0, 3.0, size=8).tolist()
        s = summarize_campaign(samples, 0.95)
        assert s.me_j == pytest.approx(
            t_critical(7, 0.95) * s.sd_j / math.sqrt(8), rel=1e-12
        )
        assert s.ci == (pytest.approx(s.mean_j - s.me_j), pytest.approx(s.mean_j + s.me_j))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        samples = rng.uniform(10, 20, size=7).tolist()
        base = summarize_campaign(samples)
        for _ in range(10):
            rng.shuffle(samples)
            s = summarize_campaign(samples)
            assert s.mean_j == pytest.approx(base.mean_j, rel=1e-12)
            assert s.sd_j == pytest.approx(base.sd_j, rel=1e-12)
            assert s.me_j == pytest.approx(base.me_j, rel=1e-12)

    def test_scaling_scales_mean_sd_me_but_not_variation(self):
        rng = np.random.default_rng(13)
        samples = rng.uniform(10, 20, size=6).tolist()
        base = summarize_campaign(samples)
        for k in (0.5, 3.0, 250.0):
            s = summarize_campaign([k * x for x in samples])
            assert s.mean_j == pytest.approx(k * base.mean_j, rel=1e-12)
            assert s.sd_j == pytest.approx(k * base.sd_j, rel=1e-12)
            assert s.me_j == pytest.approx(k * base.me_j, rel=1e-12)
            assert s.variation_pct == pytest.approx(base.variation_pct, rel=1e-9)

    def test_margin_shrinks_like_inverse_sqrt_n(self):
        # hold sd fixed and sweep n through the margin formula
        sd = 2.0
        margins = [t_critical(n - 1, 0.95) * sd / math.sqrt(n) for n in (5, 10, 20, 40, 1000)]
        assert margins == sorted(margins, reverse=True)
        # far from the small-n t inflation, the decay is ~1/sqrt(4) per 4x n
        assert margins[-1] / margins[-2] == pytest.approx(
            math.sqrt(40 / 1000), rel=0.05
        )


class TestVariationPct:
    def test_two_samples(self):
        # (101 - 100) / 100.5 * 100
        assert variation_pct([100.0, 101.0]) == pytest.approx(0.995, abs=1e-3)

    def test_reference_samples(self):
        samples = REFERENCE_CAMPAIGNS[3000][0]
        # (652.17 - 643.32) / 646.716 * 100
        assert variation_pct(samples) == pytest.approx(1.3685, abs=1e-3)

    def test_constant_samples_have_zero_variation(self):
        assert variation_pct([7.0, 7.0, 7.0]) == 0.0

    def test_rejects_zero_mean(self):
        with pytest.raises(UndefinedVariationError):
            variation_pct([-1.0, 1.0])

    def test_rejects_single_sample(self):
        with pytest.raises(InsufficientSamplesError):
            variation_pct([1.0])

    @pytest.mark.parametrize("samples", [["1", "3"], [True, 3], [np.True_, 3.0], [1.0, math.inf], [math.nan, 1.0]])
    def test_samples_are_held_as_summarize_campaign_holds_them(self, samples):
        message = r"^campaign samples must be finite numbers, got "
        for summary in (variation_pct, summarize_campaign):
            with pytest.raises(ValueError, match=message):
                summary(samples)

    def test_numpy_samples_are_accepted(self):
        assert variation_pct([np.float32(1.0), np.int64(3)]) == 100.0
        assert variation_pct(np.array([1.0, 3.0])) == 100.0


class TestSerialization:
    def test_csv_row_is_samples_then_mean_then_margin(self):
        samples, _, _ = REFERENCE_CAMPAIGNS[1000]
        s = summarize_campaign(samples, 0.95)
        cells = s.to_csv_row().split(",")
        assert len(cells) == 7
        assert [float(c) for c in cells[:5]] == pytest.approx(samples, rel=1e-4)
        assert float(cells[5]) == pytest.approx(s.mean_j, rel=1e-4)
        assert float(cells[6]) == pytest.approx(s.me_j, rel=1e-4)

    def test_display_rounding_keeps_five_significant_digits(self):
        assert format_sig5(27.9998) == "28.000"
        assert format_sig5(646.716) == "646.72"

    def test_json_dict_round_trips_ci(self):
        s = summarize_campaign([1.0, 2.0, 3.0])
        d = s.to_json_dict()
        assert d["n"] == 3
        assert d["ci"] == [s.ci[0], s.ci[1]]
        assert d["mean_j"] == s.mean_j
