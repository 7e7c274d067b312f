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


class InsufficientSamplesError(ValueError):
    pass


class UndefinedVariationError(ValueError):
    pass


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided critical value of Student's t, by G. W. Hill's closed form
    (CACM Algorithm 396, 1970): exact for df 1 and 2, within about 1e-5
    relative beyond.  It is far less accurate at non-integer df near 1."""
    if not float(df).is_integer() or df < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n, p = int(df), 1.0 - confidence  # p: two-tailed probability
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


def variation_pct(samples) -> float:
    """Spread of the samples relative to their mean: (max - min) / mean * 100."""
    values = [float(x) for x in samples]
    if len(values) < 2:
        raise InsufficientSamplesError(
            f"variation needs at least 2 samples, got {len(values)}"
        )
    mean = math.fsum(values) / len(values)
    if mean == 0.0:
        raise UndefinedVariationError("variation is undefined for zero mean")
    return (max(values) - min(values)) / mean * 100.0


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
    """
    values = [float(x) for x in samples]
    n = len(values)
    if n < 2:
        raise InsufficientSamplesError(
            f"campaign summary needs at least 2 samples, got {n}"
        )
    if not all(math.isfinite(x) for x in values):
        raise ValueError("campaign samples must be finite")
    mean = math.fsum(values) / n
    sd = math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (n - 1))
    me = t_critical(n - 1, confidence) * sd / math.sqrt(n)
    return CampaignSummary(
        samples=tuple(values),
        mean_j=mean,
        sd_j=sd,
        me_j=me,
        variation_pct=variation_pct(values) if mean != 0.0 else None,
        confidence=confidence,
    )
