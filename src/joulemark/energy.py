"""Energy integration of shunt-voltage traces.

Energy over a window is

    E = (vf / rs) * integral of vs(t) dt

evaluated with the trapezoidal rule over the window's samples, which is
exact whenever vs is affine in t.  A window [begin, end) integrates the
closed sample span begin..end-1, i.e. end-begin-1 trapezoids; adjacent
windows that share a boundary sample therefore telescope exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import MeasurementWindow, PowerTrace, Windows, downsample


class DegenerateWindowError(ValueError):
    """Window holds fewer than two samples, so no trapezoid exists."""


@dataclass(frozen=True)
class EnergyResult:
    """Energy of one measurement window plus its summary quantities."""

    joules: float
    mean_watts: float
    duration_s: float
    window: MeasurementWindow


def integrate_windows(trace: PowerTrace, windows: Windows) -> np.ndarray:
    """Trapezoidal energy of each window, in joules, in window order;
    negative samples integrate as-is."""
    dt, scale = 1.0 / trace.rate_hz, trace.shunt.vf / trace.shunt.rs
    joules = np.empty(len(windows))
    for i, (begin, end) in enumerate(zip(windows.begin.tolist(), windows.end.tolist())):
        if end > len(trace):
            raise ValueError(f"window [{begin}, {end}) exceeds trace length {len(trace)}")
        if end - begin < 2:
            raise DegenerateWindowError(f"window [{begin}, {end}) has fewer than 2 samples")
        joules[i] = scale * float(np.trapezoid(trace.vs[begin:end], dx=dt))
    return joules


def integrate_energy(trace: PowerTrace, window: MeasurementWindow) -> EnergyResult:
    """Trapezoidal energy of one window; negative samples integrate as-is."""
    joules = float(integrate_windows(trace, Windows([window.begin], [window.end]))[0])
    duration = window.duration_s(trace.rate_hz)
    return EnergyResult(joules, joules / duration, duration, window)


def integrate_full(trace: PowerTrace) -> EnergyResult:
    """Energy of the whole trace.

    With the relay circuit this relies on idle noise being zero-mean: the
    idle stretches integrate to ~0, so the full-trace integral converges to
    the energy of the active windows alone.
    """
    if len(trace) < 2:
        raise DegenerateWindowError(
            f"trace has {len(trace)} samples; need at least 2"
        )
    return integrate_energy(trace, MeasurementWindow(0, len(trace)))


@dataclass(frozen=True)
class ResolutionComparison:
    """Energy agreement between a trace and its decimated counterpart."""

    e_hi: float
    e_lo: float
    rel_diff: float
    factor: int

    def to_json_dict(self) -> dict:
        return {
            "e_hi": self.e_hi,
            "e_lo": self.e_lo,
            "rel_diff": self.rel_diff,
            "factor": self.factor,
        }


def compare_resolution(
    hi_res: PowerTrace,
    factor: int,
    window: MeasurementWindow | None = None,
) -> ResolutionComparison:
    """Integrate a window at full rate and after decimation by `factor`.

    Models reading the same signal with a fast and a slow acquisition
    device.  The window is given in hi-res sample indices and must land on
    the decimation grid (begin and end-1 divisible by factor) so both
    devices integrate the same time span.
    """
    if factor < 2:
        raise ValueError(f"decimation factor must be >= 2, got {factor}")
    if window is None:
        window = MeasurementWindow(0, len(hi_res))
    if window.begin % factor != 0 or (window.end - 1) % factor != 0:
        raise ValueError(
            f"window [{window.begin}, {window.end}) is not aligned to the "
            f"decimation grid of factor {factor}"
        )
    lo_window = MeasurementWindow(
        window.begin // factor, (window.end - 1) // factor + 1
    )
    if len(lo_window) < 2:
        raise DegenerateWindowError(
            f"window collapses to {len(lo_window)} sample(s) after decimation"
        )
    lo_res = downsample(hi_res, factor)
    e_hi = integrate_energy(hi_res, window).joules
    e_lo = integrate_energy(lo_res, lo_window).joules
    if e_hi == 0.0:
        rel = 0.0 if e_lo == 0.0 else float("inf")
    else:
        rel = abs(e_hi - e_lo) / abs(e_hi)
    return ResolutionComparison(e_hi=e_hi, e_lo=e_lo, rel_diff=rel, factor=factor)
