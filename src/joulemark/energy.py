"""Energy integration of shunt-voltage traces.

Energy over a window is

    E = (vf / rs) * integral of vs(t) dt,

the energy drawn from the supply, which every ``joules`` here and in a
report is.  It includes the shunt's own dissipation, vs**2 / rs; the board
itself gets (vf - vs) * vs / rs.  At 12 V and 0.1 ohm, under constant board
power, the supply's energy exceeds the board's by 0.28% at 4 W, 0.63% at
9 W and 0.85% at 12 W.

``window_energies``, which ``analyze`` uses, holds each sample for one
sample period: a window [begin, end) spans end-begin periods, one-sample
windows included, and adjacent windows add up.  ``integrate_energy`` uses
the trapezoidal rule over the closed span begin..end-1, exact whenever vs
is affine in t; windows that share a boundary sample telescope exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import MeasurementWindow, PowerTrace, Windows, downsample, number


class DegenerateWindowError(ValueError):
    """Window holds fewer than two samples, so no trapezoid exists."""


@dataclass(frozen=True)
class EnergyResult:
    """Energy of one measurement window; ``duration_s`` is the span the
    trapezoid integrates, end - begin - 1 periods, ``mean_watts`` its mean."""

    joules: float
    mean_watts: float
    duration_s: float
    window: MeasurementWindow


def window_energies(trace: PowerTrace, windows: Windows) -> np.ndarray:
    """Sample-and-hold energy of each window, in joules, in window order;
    negative samples add as-is.  A window past the trace's end raises
    ValueError; a Windows is checked to be disjoint when it is built."""
    begin, end = windows.begin, windows.end
    past = np.flatnonzero(end > len(trace))
    if past.size:
        k = past[0]
        raise ValueError(f"window [{begin[k]}, {end[k]}) exceeds trace length {len(trace)}")
    # the last window runs to the slice's end: no index equals its length
    idx = np.stack((begin, end), axis=1).ravel()[:-1]
    sums = np.add.reduceat(trace.vs[: end.max(initial=0)], idx)[0::2]
    return sums * trace.shunt.vf / trace.shunt.rs / trace.rate_hz


def integrate_energy(trace: PowerTrace, window: MeasurementWindow) -> EnergyResult:
    """Trapezoidal energy of one window; negative samples integrate as-is."""
    if window.end > len(trace):
        raise ValueError(f"window [{window.begin}, {window.end}) exceeds trace length {len(trace)}")
    if len(window) < 2:
        raise DegenerateWindowError(f"window [{window.begin}, {window.end}) has fewer than 2 samples")
    dt, scale = 1.0 / trace.rate_hz, trace.shunt.vf / trace.shunt.rs
    joules = scale * float(np.trapezoid(trace.vs[window.begin : window.end], dx=dt))
    duration = (len(window) - 1) / trace.rate_hz
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


def compare_resolution(hi_res: PowerTrace, factor: int) -> ResolutionComparison:
    """Integrate the whole trace at full rate and after decimation by `factor`.

    Models reading the same signal with a fast and a slow acquisition
    device.  The trace's last sample must land on the decimation grid
    (length - 1 divisible by factor) so both devices integrate the same
    time span; a one-sample trace has no span and is a DegenerateWindowError.
    """
    factor = number(factor, "decimation factor must be an integer >= 2, got {!r}", ok=lambda k: k >= 2, kind=int)
    if (len(hi_res) - 1) % factor != 0:
        raise ValueError(
            f"trace of {len(hi_res)} samples is not aligned to the decimation "
            f"grid of factor {factor}"
        )
    e_hi = integrate_full(hi_res).joules
    e_lo = integrate_full(downsample(hi_res, factor)).joules
    if e_hi == 0.0:
        rel = 0.0 if e_lo == 0.0 else float("inf")
    else:
        rel = abs(e_hi - e_lo) / abs(e_hi)
    return ResolutionComparison(e_hi=e_hi, e_lo=e_lo, rel_diff=rel, factor=factor)
