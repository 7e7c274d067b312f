"""Repeated-measurement statistics: mean, sample deviation, t-based margin
of error, and percent variation across runs.

The Student-t critical value comes from Hill's closed-form quantile, for
any number of runs and any confidence level, so the module needs neither
a table nor a special-function dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .trace import number


class InsufficientSamplesError(ValueError):
    pass


class UndefinedVariationError(ValueError):
    pass


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided critical value of Student's t, by G. W. Hill's closed form
    (CACM Algorithm 396, 1970): exact for df 1 and 2, within about 1e-5
    relative beyond.  df and confidence are held by trace.number's rule; a
    df past 10**16, where the form has reached the normal limit, is taken as
    10**16 (``a * a`` underflows from about 10**162)."""
    n = min(number(df, "degrees of freedom must be an integer >= 1, got {}", ok=lambda d: d >= 1, kind=int), 10**16)
    confidence = number(confidence, "confidence must be in (0, 1), got {}", ok=lambda c: 0.0 < c < 1.0)
    p = 1.0 - confidence  # two-tailed probability
    if n == 1:
        return 1.0 / math.tan(p * math.pi / 2)
    if n == 2:
        return confidence * math.sqrt(2.0 / (p * (2.0 - p)))
    a = 1.0 / (n - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2) * n
    y = (d * p) ** (2.0 / n)
    if y <= 0.05 + a:
        y = ((1.0 / (((n + 6.0) / (n * y) - 0.089 * d - 0.822) * (n + 2.0) * 3.0)
              + 0.5 / (n + 4.0)) * y - 1.0) * (n + 1.0) / (n + 2.0) + 1.0 / y
        return math.sqrt(n * y)
    # far tail: expand about the lower-tail (negative) normal quantile
    x = NormalDist().inv_cdf(p / 2)
    x2 = x * x
    if n < 5:
        c += 0.3 * (n - 4.5) * (x + 0.6)
    c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
    y = (((((0.4 * x2 + 6.3) * x2 + 36.0) * x2 + 94.5) / c - x2 - 3.0) / b + 1.0) * x
    return math.sqrt(n * math.expm1(a * y * y))


def _held(samples) -> list[float]:
    """Each sample held as a float by :func:`~joulemark.trace.number`'s rule."""
    return [number(x, "campaign samples must be finite numbers, got {!r}") for x in samples]


def variation_pct(samples) -> float:
    """Spread of the samples relative to their mean: (max - min) / mean * 100.
    Samples are held as summarize_campaign holds them, and a mean or
    variation beyond the float range raises ValueError, as it does there."""
    values = _held(samples)
    if len(values) < 2:
        raise InsufficientSamplesError(
            f"variation needs at least 2 samples, got {len(values)}"
        )
    try:
        mean = math.fsum(values) / len(values)
    except OverflowError:  # the sum overflows; a NaN mean makes the variation NaN
        mean = math.nan
    if mean == 0.0:
        raise UndefinedVariationError("variation is undefined for zero mean")
    variation = (max(values) - min(values)) / mean * 100.0
    if not math.isfinite(variation):
        raise ValueError("variation is beyond the float range: its mean or spread overflows")
    return variation


@dataclass(frozen=True)
class CampaignSummary:
    """Summary of n repeated energy measurements of the same workload;
    variation_pct is None (JSON null) when the mean is 0."""

    samples: tuple[float, ...]
    mean_j: float
    sd_j: float
    me_j: float
    variation_pct: float | None
    confidence: float

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def ci(self) -> tuple[float, float]:
        """The confidence interval, mean_j -/+ me_j."""
        return (self.mean_j - self.me_j, self.mean_j + self.me_j)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": list(self.samples),
            "mean_j": self.mean_j,
            "sd_j": self.sd_j,
            "me_j": self.me_j,
            "ci": [self.ci[0], self.ci[1]],
            "variation_pct": self.variation_pct,
            "confidence": self.confidence,
        }

    def to_csv_row(self) -> str:
        """One CSV line: the samples in order, then mean, then margin of error.

        Values are displayed at 5 significant digits; stored fields keep
        full precision.
        """
        cells = [format_sig5(x) for x in self.samples]
        cells.append(format_sig5(self.mean_j))
        cells.append(format_sig5(self.me_j))
        return ",".join(cells)


def format_sig5(x: float) -> str:
    """Format to 5 significant digits, keeping trailing zeros."""
    return "%#.5g" % x


def summarize_campaign(samples, confidence: float = 0.95) -> CampaignSummary:
    """Mean, sample standard deviation (n-1 denominator) and margin of error.

    me = t_critical(n - 1, confidence) * sd / sqrt(n)

    Samples are held by :func:`~joulemark.trace.number`'s rule, confidence
    by t_critical's.  Raises ValueError where the mean, deviation, margin or
    variation is beyond the float range, though every sample is finite.
    """
    values = _held(samples)
    n = len(values)
    if n < 2:
        raise InsufficientSamplesError(
            f"campaign summary needs at least 2 samples, got {n}"
        )
    try:
        mean = math.fsum(values) / n
        sd = math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (n - 1))
        me = t_critical(n - 1, confidence) * sd / math.sqrt(n)
        variation = (max(values) - min(values)) / mean * 100.0 if mean != 0.0 else None
        # a difference, product or quotient overflows to infinity
        in_range = all(map(math.isfinite, (sd, me, variation or 0.0)))
    except OverflowError:  # a sum or a square raises instead
        in_range = False
    if not in_range:
        raise ValueError(
            "campaign summary is beyond the float range: its mean, deviation, margin or variation overflows"
        )
    return CampaignSummary(
        samples=tuple(values),
        mean_j=mean,
        sd_j=sd,
        me_j=me,
        variation_pct=variation,
        confidence=float(confidence),
    )
