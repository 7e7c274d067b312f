"""Sample sources and the channel-rate budget of the acquisition device.

The DAQ has a fixed aggregate sampling budget that is split evenly across
enabled channels: the single-channel (relay) wiring gets the full rate,
the two-channel (trigger) wiring halves it.  Samples are consumed in
PowerTrace blocks through a pull-based SampleStream obtained from one of
three sources: replay of a trace CSV file, an in-process simulated
session, or a live text stream in the same CSV format (stdin by default),
parsed by the trace module's one reader, iter_trace_chunks.

Live streams cannot be re-read; replay sources may be reopened at will.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, TextIO

import numpy as np

from . import trace as trace_module
from .trace import PowerTrace, concat_traces, iter_trace_chunks, read_trace_csv

if TYPE_CHECKING:  # pragma: no cover
    from .simulate import Scenario

DEFAULT_AGGREGATE_RATE_HZ = 40_000.0


class ChannelMismatchError(ValueError):
    pass


class StreamError(RuntimeError):
    """I/O failure while reading a source; carries the sample position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at sample position {position})")
        self.position = position


@dataclass(frozen=True)
class ReplaySource:
    path: str | Path


@dataclass(frozen=True)
class SimulatorSource:
    scenario: "Scenario"


@dataclass(frozen=True)
class StreamSource:
    """CSV text stream; fileobj=None reads standard input."""

    fileobj: TextIO | None = None


Source = ReplaySource | SimulatorSource | StreamSource


@dataclass(frozen=True)
class AcquisitionConfig:
    aggregate_rate_hz: float = DEFAULT_AGGREGATE_RATE_HZ
    channels: int = 1
    source: Source | None = None

    def __post_init__(self):
        if self.channels not in (1, 2):
            raise ValueError(f"channels must be 1 or 2, got {self.channels}")
        if not self.aggregate_rate_hz > 0:
            raise ValueError(
                f"aggregate rate must be positive, got {self.aggregate_rate_hz}"
            )


def channel_rate(config: AcquisitionConfig) -> float:
    """Per-channel sampling rate: the aggregate budget split evenly."""
    return config.aggregate_rate_hz / config.channels


class SampleStream:
    """Pull-based sample source; single consumer, delivered in index order.

    ``chunks`` yields PowerTrace blocks of one trace: the first gives the
    rate, shunt and channel layout, and any block may be empty.
    """

    def __init__(self, config: AcquisitionConfig, chunks: Iterator[PowerTrace]):
        self.config = config
        self._chunks = chunks
        self.position = 0
        self.exhausted = False
        self._chunk = self._pull()
        self._offset = 0
        self.rate_hz = self._chunk.rate_hz
        self.shunt = self._chunk.shunt
        self.has_trigger = self._chunk.has_trigger

    def _pull(self) -> PowerTrace | None:
        try:
            return next(self._chunks, None)
        except OSError as exc:
            raise StreamError(str(exc), self.position) from exc

    def read_block(self, n: int) -> PowerTrace:
        """Up to n samples from ``position`` on; fewer only at the end of the
        source, and zero-length once it is exhausted."""
        if n < 1:
            raise ValueError(f"block size must be >= 1, got {n}")
        # (chunk, lo, hi) slices; the first is empty, so that a block with
        # no samples still concatenates
        parts = [(self._chunk, self._offset, self._offset)]
        need = n
        while need and not self.exhausted:
            if self._offset == len(self._chunk):
                chunk = self._pull()
                if chunk is None:
                    self.exhausted = True
                else:
                    self._chunk, self._offset = chunk, 0
                continue
            stop = min(self._offset + need, len(self._chunk))
            parts.append((self._chunk, self._offset, stop))
            need -= stop - self._offset
            self._offset = stop
        self.position += n - need
        trig = None
        if self.has_trigger:
            trig = np.concatenate([c.trig[lo:hi] for c, lo, hi in parts])
        vs = np.concatenate([c.vs[lo:hi] for c, lo, hi in parts])
        return PowerTrace._adopt(self.rate_hz, vs, trig, self.shunt)


def open_source(config: AcquisitionConfig) -> SampleStream:
    """Open the configured source and check its channel layout.

    Replay and stream sources carry their own per-channel rate in the file
    preamble; the config constrains only the channel layout for those.
    """
    source = config.source
    if source is None:
        raise ValueError("config has no source")
    if isinstance(source, ReplaySource):
        chunks = iter((read_trace_csv(source.path),))
    elif isinstance(source, SimulatorSource):
        from .simulate import simulate_session  # deferred: avoids import cycle

        chunks = iter((simulate_session(source.scenario)[0],))
    elif isinstance(source, StreamSource):
        fileobj = source.fileobj if source.fileobj is not None else sys.stdin
        chunks = iter_trace_chunks(fileobj, trace_module.CHUNK_ROWS)
    else:
        raise TypeError(f"unrecognized source: {source!r}")
    stream = SampleStream(config, chunks)
    _check_channels(config, 2 if stream.has_trigger else 1)
    return stream


def _check_channels(config: AcquisitionConfig, found: int) -> None:
    if found != config.channels:
        raise ChannelMismatchError(
            f"source has {found} channel(s), config expects {config.channels}"
        )


def read_all(stream: SampleStream, block: int = 8192) -> PowerTrace:
    """Drain a stream into a PowerTrace (block size does not affect content)."""
    blocks = [stream.read_block(block)]
    while len(blocks[-1]):
        blocks.append(stream.read_block(block))
    return concat_traces(blocks)
