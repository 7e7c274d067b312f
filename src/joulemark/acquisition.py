"""The live sample stream and the channel-rate budget of the acquisition device.

The DAQ has a fixed aggregate sampling budget that is split evenly across
enabled channels: the single-channel (relay) wiring gets the full rate,
the two-channel (trigger) wiring halves it.  The device sends its samples
as a live text stream in the trace CSV format (standard input by default).
open_source reads the stream's header and returns the PowerTrace blocks of
the trace module's one parser, iter_trace_chunks, in order; read_all joins
them into one trace.  A live stream is read once and cannot be reopened.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .trace import PowerTrace, hold_number, iter_trace_chunks, join_blocks

DEFAULT_AGGREGATE_RATE_HZ = 40_000.0


class ChannelMismatchError(ValueError):
    pass


class StreamError(RuntimeError):
    """I/O failure while reading a source; carries the sample position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at sample position {position})")
        self.position = position


@dataclass(frozen=True)
class StreamSource:
    """CSV text stream; fileobj=None reads standard input."""

    fileobj: TextIO | None = None


@dataclass(frozen=True)
class AcquisitionConfig:
    aggregate_rate_hz: float = DEFAULT_AGGREGATE_RATE_HZ
    channels: int = 1
    source: StreamSource | None = None

    def __post_init__(self):
        hold_number(self, "channels", "channels must be 1 or 2, got {}", ok=lambda c: c in (1, 2), kind=int)
        hold_number(self, "aggregate_rate_hz", "aggregate rate must be finite and positive, got {}", ok=lambda r: r > 0)


def channel_rate(config: AcquisitionConfig) -> float:
    """Per-channel sampling rate: the aggregate budget split evenly."""
    return config.aggregate_rate_hz / config.channels


def open_source(config: AcquisitionConfig) -> Iterator[PowerTrace]:
    """Open the configured stream, read its header and check its channel layout.

    Returns the stream's PowerTrace blocks, in order and without gaps.  The
    first is empty and carries the preamble's rate and shunt and the
    header's channel layout; the stream's own rate is used, the config
    constrains only the channel layout.
    """
    source = config.source
    if source is None:
        raise ValueError("config has no source")
    if not isinstance(source, StreamSource):
        raise TypeError(f"unrecognized source: {source!r}")
    fileobj = source.fileobj if source.fileobj is not None else sys.stdin
    blocks = _positioned(iter_trace_chunks(fileobj))
    head = next(blocks)
    if head.channels != config.channels:
        raise ChannelMismatchError(
            f"source has {head.channels} channel(s), config expects {config.channels}"
        )
    return itertools.chain((head,), blocks)


def _positioned(blocks: Iterator[PowerTrace]) -> Iterator[PowerTrace]:
    """``blocks``, with an OSError raised as a StreamError at the first
    sample not yet delivered."""
    position = 0
    try:
        for block in blocks:
            yield block
            position += len(block)
    except OSError as exc:
        raise StreamError(str(exc), position) from exc


def read_all(stream: Iterable[PowerTrace]) -> PowerTrace:
    """Drain a stream into one PowerTrace; one of no blocks raises ValueError."""
    return join_blocks(stream)
