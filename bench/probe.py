"""Host-speed probe: how fast the interpreter runs while a job runs.

On a shared host the CPU throughput one process gets drifts.  Measured on a
2-vCPU Xeon VM, a fixed pure-Python loop took from 55 to 100 ms, in phases
lasting from a second to over a minute.  A job's wall time follows that
drift, so the medians of whole runs spread wider than any bound the
benchmark may set (README.md, "Measured here").

The probe samples the drift while the job runs.  Every PROBE_INTERVAL_S a
SIGALRM handler times a fixed snippet of interpreter work: formatting and
parsing floats, the staple of the trace formats.  A job's time at the
reference speed is its wall time × scale(), where scale() is REFERENCE_S
over the mean snippet time during the job.  The mean leaves out the fastest
and the slowest tenth of the samples, since preemption can stretch a single
sample.  It is a mean, not a median, because the host is often in one of two
speeds.  A mean follows the share of time spent in each, while a median
jumps from one to the other.
"""

from __future__ import annotations

import math
import signal
import time

PROBE_INTERVAL_S = 0.005
# Snippet time on the host above in its fast phases.
REFERENCE_S = 17e-6
_VALUES = tuple(i * 0.000123456789 for i in range(20))


class SpeedProbe:
    """Context manager sampling the snippet time while its body runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        for v in _VALUES:
            float(repr(v))
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """REFERENCE_S over the trimmed mean sample; 1.0 when nothing was sampled."""
        if not self.samples:
            return 1.0
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        kept = ordered[cut : len(ordered) - cut]
        return REFERENCE_S * len(kept) / math.fsum(kept)
