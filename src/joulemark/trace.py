"""Trace data model, unit conversions, and trace CSV I/O.

A trace is a uniformly sampled record of the voltage drop across a shunt
resistor, optionally paired with a trigger-channel voltage.  Sample times
are implicit: sample i of a trace sampled at ``rate_hz`` occurred at
``i / rate_hz`` seconds.  Instantaneous power follows from Ohm's law,

    P = vf * vs / rs

where ``vf`` is the (constant) supply voltage, ``rs`` the shunt resistance
and ``vs`` the measured drop across the shunt.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import os
import stat
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import textrows

# Writers emit t_s = i / rate_hz; readers re-derive it and must agree to
# within this many seconds.
TIME_GRID_TOLERANCE_S = 1e-9

# The two measurement circuits: the relay's trace is the shunt channel
# alone, the trigger's adds the GPIO logic level as a second channel.
RELAY = "relay"
TRIGGER = "trigger"


class TraceFormatError(ValueError):
    """Malformed trace CSV.  ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def number(value, message: str, ok=None, kind: type = float, error: type[ValueError] = ValueError):
    """``value`` held as a Python ``kind`` (float or int) by the one rule of
    the package's number fields: a real number (an integer for int), numpy
    scalars included, but not a bool (numpy's bool is no ``numbers.Real``),
    finite, and passing ``ok``; else ``error(message.format(value))``, where
    a numpy number shows as the Python number it holds (``got -1``, not
    ``got np.int64(-1)``) and a value that is no real number as its
    ``repr`` (``got '1'``, not ``got 1``).  NaN would pass any range check,
    and no writer can write a bool as a number."""
    if not isinstance(value, bool) and isinstance(value, numbers.Integral if kind is int else numbers.Real):
        try:
            held = kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if (kind is int or math.isfinite(held)) and (ok is None or ok(held)):
                return held
    shown = value.item() if isinstance(value, np.number) else value
    raise error(message.format(shown if isinstance(shown, numbers.Real) else _Shown(repr(shown))))


class _Shown(str):
    """A text that formats as itself under ``{}`` and ``{!r}`` alike."""

    __repr__ = str.__str__


def hold_number(owner, name: str, message: str, **rule) -> None:
    """Hold field ``name`` of the frozen dataclass ``owner`` as :func:`number`."""
    object.__setattr__(owner, name, number(getattr(owner, name), message, **rule))


@dataclass(frozen=True)
class ShuntConfig:
    """Supply voltage (volts) and shunt resistance (ohms) of the circuit.

    Defaults model a 12 V supply fed through a 0.1 ohm shunt.  Both are
    held as floats by :func:`number`'s rule.
    """

    vf: float = 12.0
    rs: float = 0.1

    def __post_init__(self):
        hold_number(self, "vf", "source voltage must be positive, got {}", ok=lambda v: v > 0)
        hold_number(self, "rs", "shunt resistance must be positive, got {}", ok=lambda v: v > 0)


@dataclass(frozen=True)
class MeasurementWindow:
    """Half-open sample-index interval [begin, end) of active measurement,
    its bounds held as Python ints by :func:`number`'s rule."""

    begin: int
    end: int

    def __post_init__(self):
        hold_number(self, "begin", "window begin must be an integer >= 0, got {!r}", ok=lambda b: b >= 0, kind=int)
        hold_number(self, "end", f"window end must be an integer > {self.begin}, got {{!r}}", ok=lambda e: e > self.begin, kind=int)

    @classmethod
    def _checked(cls, begin: int, end: int) -> "MeasurementWindow":
        """The window [begin, end) of ints already held to the rule, as a
        Windows holds its bounds, built without checking them again."""
        window = object.__new__(cls)
        window.__dict__.update(begin=begin, end=end)
        return window

    def __len__(self) -> int:
        return self.end - self.begin

    def duration_s(self, rate_hz: float) -> float:
        return (self.end - self.begin) / rate_hz


def fields_equal(a, b) -> bool:
    """Whether dataclasses a and b hold equal fields: arrays by value, every
    other field by ``==`` (as a numpy array, a string would lose a trailing
    NUL)."""
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else x == y for x, y in pairs)


@dataclass(frozen=True, eq=False)
class Windows:
    """Windows as read-only int64 copies of 1-D integer bounds of one length,
    window i being [begin[i], end[i]), non-empty, disjoint and in begin order
    from sample 0 on, or ValueError when built; iterates as
    MeasurementWindows, equal to a Windows or list of the same ones in order."""

    begin: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        for name in ("begin", "end"):
            bounds = np.array(getattr(self, name))
            if bounds.ndim != 1 or (bounds.size and bounds.dtype.kind not in "iu"):
                raise ValueError(f"window {name}s must be a 1-D array of integers, got {bounds!r}")
            bounds = bounds.astype(np.int64, copy=False)
            bounds.flags.writeable = False
            object.__setattr__(self, name, bounds)
        begin, end = self.begin, self.end
        if len(begin) != len(end):
            raise ValueError(f"windows have {len(begin)} begins and {len(end)} ends")
        if np.any(begin >= end) or np.any(begin[1:] < end[:-1]) or np.any(begin < 0):
            raise ValueError("windows must be non-empty, disjoint and in begin order")

    def __len__(self) -> int:
        return len(self.begin)

    def __iter__(self) -> Iterator[MeasurementWindow]:
        return map(MeasurementWindow._checked, self.begin.tolist(), self.end.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, Windows):
            return fields_equal(self, other)
        if not isinstance(other, list):
            return NotImplemented
        return list(self) == other


@dataclass(frozen=True, eq=False)
class PowerTrace:
    """Uniformly sampled shunt-voltage (and optional trigger) time series.

    The constructor copies the arrays it is given into read-only float64
    arrays of its own, so a caller's later writes never reach the trace.
    Traces the package builds itself (read from CSV, drained from a stream,
    simulated) adopt their freshly built arrays instead of copying them;
    those arrays are read-only too.  Either way the trace is checked when it
    is built: its rate is held as a finite, positive float by
    :func:`number`'s rule, and a trigger channel has the length of ``vs``.
    Its samples may still be non-finite, which :func:`validate_trace`
    reports and :func:`~joulemark.segment.analyze` refuses.
    """

    rate_hz: float
    vs: np.ndarray
    trig: np.ndarray | None = None
    shunt: ShuntConfig = field(default_factory=ShuntConfig)

    def __post_init__(self):
        trig = None if self.trig is None else np.array(self.trig, dtype=np.float64, copy=True).reshape(-1)
        self._hold(self.rate_hz, np.array(self.vs, dtype=np.float64, copy=True).reshape(-1), trig, self.shunt)

    def _hold(self, rate_hz: float, vs: np.ndarray, trig: np.ndarray | None, shunt: ShuntConfig) -> None:
        """Take the arrays as they are and make them read-only, then check."""
        for name, value in (("rate_hz", rate_hz), ("vs", vs), ("trig", trig), ("shunt", shunt)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        hold_number(self, "rate_hz", "sampling rate must be finite and positive, got {}", ok=lambda v: v > 0)
        if trig is not None and len(trig) != len(vs):
            raise ValueError(f"trigger channel has {len(trig)} samples, shunt channel has {len(vs)}")

    @classmethod
    def _adopt(
        cls,
        rate_hz: float,
        vs: np.ndarray,
        trig: np.ndarray | None,
        shunt: ShuntConfig,
    ) -> "PowerTrace":
        """A trace that takes the given 1-D float64 arrays as they are, with
        no copy, and makes them read-only.  Only for arrays the package has
        just built and nothing else writes to, or arrays of another trace."""
        trace = object.__new__(cls)
        trace._hold(rate_hz, vs, trig, shunt)
        return trace

    @property
    def has_trigger(self) -> bool:
        return self.trig is not None

    @property
    def channels(self) -> int:
        return 2 if self.trig is not None else 1

    def __len__(self) -> int:
        return int(self.vs.shape[0])

    def power_w(self) -> np.ndarray:
        """Instantaneous power per sample, in watts."""
        return sample_to_power(self.vs, self.shunt)


def sample_to_power(vs, shunt: ShuntConfig):
    """Convert shunt voltage(s) to watts: P = vf * vs / rs.

    Accepts a scalar or an ndarray and returns the same shape.
    """
    return shunt.vf * vs / shunt.rs


def power_to_shunt_volts(power_w, shunt: ShuntConfig):
    """Inverse of :func:`sample_to_power`: vs = P * rs / vf."""
    return power_w * shunt.rs / shunt.vf


@dataclass(frozen=True)
class SampleClock:
    """Sample i of a channel at ``rate_hz`` is taken at command-log (host)
    time ``i / rate_hz``.  The simulator's realized edges and workload times
    and the matcher's window starts all map through a clock; a trace's own
    axis (the CSV's ``t_s``, a report's seconds) is ``i / rate_hz`` by its
    format.  The rate is held as a finite, positive float by
    :func:`number`'s rule."""

    rate_hz: float

    def __post_init__(self):
        hold_number(self, "rate_hz", "sampling rate must be finite and positive, got {}", ok=lambda v: v > 0)

    def time_of(self, index):
        """Host seconds of a sample index, or of an int array of them."""
        return index / self.rate_hz

    def first_index_at_or_after(self, t_s):
        """First sample index whose time is >= t_s, an int or an int64 array,
        where a time up to max(1e-9, 4 eps |t_s * rate_hz|) samples past a
        sample's, float grid noise, counts as that sample's: so
        first_index_at_or_after(time_of(i)) == i up to i of 10**12, which a
        fixed 1e-9 fails from about 10**7 samples on.  A time from sample
        2**63 on, past every int64 index, maps to 2**63 - 8192.  A NaN time,
        which has no index, raises ValueError."""
        with np.errstate(over="ignore"):  # an overflow is inf, clipped here
            samples = np.clip(np.multiply(t_s, self.rate_hz), -1.0, 2.0**63)
        nan = np.flatnonzero(np.isnan(samples))  # NaN passes the clip
        if len(nan):
            which = f"item {nan[0]} of t_s" if np.ndim(samples) else "t_s"
            raise ValueError(f"{which} is nan, a time with no sample index")
        slack = np.maximum(1e-9, 4 * np.finfo(np.float64).eps * np.abs(samples))
        index = np.maximum(0, np.ceil(samples - slack)).astype(np.int64)
        return index if index.ndim else int(index)


@dataclass(frozen=True)
class TraceValidation:
    """Each violation's text, such as ``sample 7: non-finite shunt voltage``."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_trace(trace: PowerTrace) -> TraceValidation:
    """The defects a built trace can still carry, as violations instead of
    an error: no samples, and non-finite samples, one violation per channel
    at the first of them, with their count.  Rate and channel lengths are
    checked when the trace is built.
    """
    violations: list[str] = []
    if len(trace) == 0:
        violations.append("empty trace")
    for name, samples in zip(("shunt", "trigger"), (trace.vs, trace.trig)[: trace.channels]):
        bad = ~np.isfinite(samples)
        count = int(np.count_nonzero(bad))
        if count:
            what = f"non-finite {name} voltage"
            message = what if count == 1 else f"first of {count} {what}s"
            violations.append(f"sample {int(np.argmax(bad))}: {message}")
    return TraceValidation(tuple(violations))


def downsample(trace: PowerTrace, factor: int) -> PowerTrace:
    """Keep every factor-th sample starting at index 0; rate divides by factor.

    Pure decimation: no anti-alias filtering is applied.  ``factor`` is an
    integer by :func:`number`'s rule.
    """
    factor = number(factor, "decimation factor must be an integer >= 1, got {!r}", ok=lambda v: v > 0, kind=int)
    if factor > len(trace):
        raise ValueError(
            f"decimation factor {factor} exceeds trace length {len(trace)}"
        )
    if factor == 1:
        return trace
    trig = trace.trig[::factor] if trace.trig is not None else None
    return PowerTrace(
        rate_hz=trace.rate_hz / factor,
        vs=trace.vs[::factor],
        trig=trig,
        shunt=trace.shunt,
    )


# --- trace CSV format -------------------------------------------------------
#
# A comment preamble of `# key=value` lines carries rate_hz, vf and rs, each
# finite and positive, and no other key; then a header line, the columns of
# the trace's channel layout joined by commas, then one row per sample.
# t_s of row i must equal i / rate_hz within TIME_GRID_TOLERANCE_S.

_PREAMBLE_KEYS = ("rate_hz", "vf", "rs")

# The columns of each channel layout, by channel count: t_s, the shunt
# channel, and the trigger channel when the trace has one.
_COLUMNS = {1: ("t_s", "vs_v"), 2: ("t_s", "vs_v", "trig_v")}


# Rows per block of every blocked loop in the package: the CSV writers,
# iter_trace_chunks for the readers, the simulator's workload, the relay
# segmenter's power, the JSON writer's records and the skyline's envelope.
# Each reads it from here at call time, so patching it here resizes all of
# them.  Blocks of 4096 to 262144 lines parse a 1.2M-row trace equally
# fast; larger blocks hold more memory per block and, at 65536, raised the
# peak RSS of repeated CLI runs.
CHUNK_ROWS = 16384


def row_blocks(n: int) -> Iterator[tuple[int, int]]:
    """[start, stop) of consecutive blocks of CHUNK_ROWS rows covering n rows."""
    step = CHUNK_ROWS
    for start in range(0, n, step):
        yield start, min(start + step, n)


def write_trace_csv(trace: PowerTrace, path: str | Path) -> None:
    """Write a trace in the canonical CSV format (deterministic bytes)."""
    preamble = zip(_PREAMBLE_KEYS, (trace.rate_hz, trace.shunt.vf, trace.shunt.rs))
    with Path(path).open("w", newline="\n") as f:
        f.write("".join(f"# {key}={value!r}\n" for key, value in preamble))
        f.write(",".join(_COLUMNS[trace.channels]) + "\n")
        write_csv_rows(f, trace.rate_hz, range(len(trace)), (trace.vs, trace.trig)[: trace.channels])


def write_csv_rows(f: TextIO, rate_hz: float, rows: Sequence[int], columns: Sequence[np.ndarray]) -> None:
    """Write, for each k, the time ``rows[k] / rate_hz`` of sample
    ``rows[k]`` and the k-th value of each column, every number as its
    ``repr``, comma-separated.

    ``rows`` holds increasing sample indices: ``range(n)`` for every sample
    of a trace, or an int array for some of them, whose lines are then
    those of the same samples in the full series.  Each block of
    CHUNK_ROWS rows is written by :func:`textrows.write_rows`, a data
    column as :func:`textrows.value_rows`, which lays out each run of equal
    values once, and ``t_s`` as :func:`textrows.time_rows`, from one
    period's fraction table where the rate's period is a short decimal and
    the table holds no more bytes than the float slots of one block.
    """
    fractions = textrows.fraction_table(rate_hz, len(rows), CHUNK_ROWS * textrows.WIDTH)
    for start, stop in row_blocks(len(rows)):
        parts = [textrows.time_rows(rows[start:stop], rate_hz, fractions)]
        for column in columns:
            parts += [b",", textrows.value_rows(column[start:stop])]
        textrows.write_rows(f, stop - start, [(slice(None), [*parts, b"\n"])])


def _parse_float(text: str, what: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise TraceFormatError(f"{what} is not a number: {text!r}", line) from None


def _read_header(lines: Iterator[str]) -> tuple[PowerTrace, int]:
    """Consume the preamble and header; return an empty trace carrying the
    rate, shunt and channel layout, and the header's line number."""
    meta: dict[str, float] = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.rstrip("\n")
        if text.startswith("#"):
            body = text[1:].strip()
            if "=" not in body:
                raise TraceFormatError(
                    f"preamble line is not 'key=value': {text!r}", lineno
                )
            key, value = (part.strip() for part in body.split("=", 1))
            if key not in _PREAMBLE_KEYS:
                raise TraceFormatError(f"preamble {key!r} is not a known key", lineno)
            if key in meta:
                raise TraceFormatError(f"preamble {key!r} is given twice", lineno)
            meta[key] = _parse_float(value, f"preamble {key!r}", lineno)
            if not (math.isfinite(meta[key]) and meta[key] > 0):
                raise TraceFormatError(
                    f"preamble {key!r} must be finite and positive, got {value!r}", lineno
                )
            continue
        channels = {",".join(names): n for n, names in _COLUMNS.items()}.get(text)
        if channels is None:
            raise TraceFormatError(f"unrecognized header: {text!r}", lineno)
        for key in _PREAMBLE_KEYS:
            if key not in meta:
                raise TraceFormatError(f"preamble is missing '# {key}=...'", lineno)
        shunt = ShuntConfig(vf=meta["vf"], rs=meta["rs"])
        # one empty channel array for vs, and one more for trig
        return PowerTrace(meta["rate_hz"], *np.empty((channels, 0)), shunt=shunt), lineno
    raise TraceFormatError("file has no header line")


def _parse_rows(
    lines: list[str], first_line: int, row: int, names: Sequence[str], rate: float
) -> np.ndarray:
    """Parse data lines one by one: the reference for every row error.

    ``first_line`` is the line number of ``lines[0]``, ``row`` the sample
    index of its first row and ``names`` the layout's columns, t_s first.
    Returns the rows as a (k, len(names)) array.
    """
    ncols = len(names)
    out: list[list[float]] = []
    for lineno, raw in enumerate(lines, start=first_line):
        text = raw.rstrip("\n")
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != ncols:
            raise TraceFormatError(f"expected {ncols} columns, got {len(parts)}", lineno)
        t = _parse_float(parts[0], names[0], lineno)
        expected_t = row / rate
        if abs(t - expected_t) > TIME_GRID_TOLERANCE_S:
            raise TraceFormatError(
                f"{names[0]}={t!r} deviates from uniform grid value {expected_t!r}", lineno
            )
        out.append([t, *(_parse_float(part, name, lineno) for part, name in zip(parts[1:], names[1:]))])
        row += 1
    return np.array(out, dtype=np.float64).reshape(-1, ncols)


def _parse_block(
    lines: list[str], row: int, ncols: int, rate: float
) -> np.ndarray | None:
    """Vectorised parse of data lines; None if any check fails, so that the
    caller re-parses with :func:`_parse_rows` and gets its verdict."""
    # loadtxt would warn of a block of blank lines that it holds no data
    if lines[0] == "\n" and lines.count("\n") == len(lines):
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips blank lines; they are counted only when it skipped some
    rows = len(data)
    if data.shape[1] != ncols or (rows != len(lines) and rows != len(lines) - lines.count("\n")):
        return None
    # (row + arange) / rate is the per-line row / rate, bit for bit
    expected_t = (row + np.arange(rows)) / rate
    if np.any(np.abs(data[:, 0] - expected_t) > TIME_GRID_TOLERANCE_S):
        return None
    return data


def _parsed_blocks(fileobj: Iterable[str]) -> Iterator[PowerTrace | np.ndarray]:
    """Parse trace CSV text: yield the header's empty trace, then each
    block's rows as a (k, columns) array, t_s first.  This is the one
    parse loop of every trace reader."""
    n = CHUNK_ROWS
    lines = iter(fileobj)
    head, lineno = _read_header(lines)
    yield head
    names = _COLUMNS[head.channels]
    row = 0
    while block := list(itertools.islice(lines, n)):
        data = _parse_block(block, row, len(names), head.rate_hz)
        if data is None:
            data = _parse_rows(block, lineno + 1, row, names, head.rate_hz)
        lineno += len(block)
        row += len(data)
        yield data


def iter_trace_chunks(fileobj: Iterable[str]) -> Iterator[PowerTrace]:
    """Parse trace CSV text, yielding it as consecutive PowerTrace blocks.

    The first block is empty: it carries the preamble's rate and shunt and
    the header's channel layout, so that a trace without rows still
    describes itself.  Each later block holds the rows of the next
    CHUNK_ROWS lines (fewer samples where lines are blank).  Errors are
    :class:`TraceFormatError` with the file's line number.  Only one block
    of lines is held at a time.
    """
    blocks = _parsed_blocks(fileobj)
    head = next(blocks)
    yield head
    for data in blocks:
        # the columns after t_s are vs, then trig
        yield PowerTrace(head.rate_hz, *data[:, 1:].T, shunt=head.shunt)


def concat_traces(blocks: Sequence[PowerTrace]) -> PowerTrace:
    """Join consecutive blocks of one trace; the first gives rate, shunt and
    channel layout."""
    first = blocks[0]
    trig = np.concatenate([b.trig for b in blocks]) if first.has_trigger else None
    vs = np.concatenate([b.vs for b in blocks])
    return PowerTrace._adopt(first.rate_hz, vs, trig, first.shunt)


def _newlines(path: str | os.PathLike) -> int:
    """The number of newline bytes in the file at ``path``, read 256 KiB at
    a time into one buffer and compared as int8, whose 10 is the newline
    byte too."""
    buffer = np.empty(1 << 18, dtype=np.int8)
    count = 0
    with open(path, "rb", buffering=0) as f:
        while size := f.readinto(buffer):
            count += int(np.count_nonzero(buffer[:size] == ord("\n")))
    return count


def _read_into_columns(f: TextIO, bound: int) -> PowerTrace:
    """Parse trace CSV text into one (channels, bound) array, each block's
    data columns copied in as they are parsed, and adopt views of its first
    rows.  ``bound`` is the expected number of rows at most; the array
    grows where the text holds more."""
    blocks = _parsed_blocks(f)
    head = next(blocks)
    columns = np.empty((head.channels, bound))
    rows = 0
    for data in blocks:
        stop = rows + len(data)
        if stop > columns.shape[1]:  # lines added after the count, or ending in a lone \r
            grown = np.empty((head.channels, max(stop, 2 * columns.shape[1])))
            grown[:, :rows] = columns[:, :rows]
            columns = grown
        columns[:, rows:stop] = data[:, 1:].T
        rows = stop
    held = columns[:, :rows]
    return PowerTrace._adopt(head.rate_hz, held[0], held[1] if head.has_trigger else None, head.shunt)


def read_trace_csv(source: str | os.PathLike | TextIO) -> PowerTrace:
    """Parse a trace CSV, from a path or an open text stream, verifying the
    preamble, header and time grid.

    A path to a regular file is read once to count its lines, and then
    parsed into columns of that many rows, so that each sample is held
    once.  A stream, or a path that is not a regular file (a pipe, a
    device), is read once, and its blocks are joined.
    """
    is_path = isinstance(source, (str, os.PathLike))
    with Path(source).open("r") if is_path else contextlib.nullcontext(source) as f:
        if is_path and stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            # a last line without a newline is a line too
            return _read_into_columns(f, _newlines(source) + 1)
        return concat_traces(list(iter_trace_chunks(f)))
