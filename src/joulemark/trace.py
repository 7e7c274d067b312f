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

import itertools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import floattext

# Writers emit t_s = i / rate_hz; readers re-derive it and must agree to
# within this many seconds.
TIME_GRID_TOLERANCE_S = 1e-9


class TraceFormatError(ValueError):
    """Malformed trace CSV.  ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class ShuntConfig:
    """Supply voltage (volts) and shunt resistance (ohms) of the circuit.

    Defaults model a 12 V supply fed through a 0.1 ohm shunt.
    """

    vf: float = 12.0
    rs: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.vf) and self.vf > 0.0):
            raise ValueError(f"source voltage must be positive, got {self.vf}")
        if not (math.isfinite(self.rs) and self.rs > 0.0):
            raise ValueError(f"shunt resistance must be positive, got {self.rs}")


@dataclass(frozen=True)
class MeasurementWindow:
    """Half-open sample-index interval [begin, end) of active measurement."""

    begin: int
    end: int

    def __post_init__(self):
        if self.begin < 0 or self.end <= self.begin:
            raise ValueError(
                f"window must satisfy 0 <= begin < end, got [{self.begin}, {self.end})"
            )

    def __len__(self) -> int:
        return self.end - self.begin

    def duration_s(self, rate_hz: float) -> float:
        return (self.end - self.begin) / rate_hz


def fields_equal(a, b) -> bool:
    """Whether dataclasses a and b hold equal fields, arrays compared by value."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


@dataclass(frozen=True, eq=False)
class Windows:
    """Windows as int64 arrays, window i being [begin[i], end[i]); iterates as
    MeasurementWindows, equal to a Windows or list of the same ones in order."""

    begin: np.ndarray
    end: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "begin", np.asarray(self.begin, dtype=np.int64))
        object.__setattr__(self, "end", np.asarray(self.end, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.begin)

    def __iter__(self) -> Iterator[MeasurementWindow]:
        return map(MeasurementWindow, self.begin.tolist(), self.end.tolist())

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
    those arrays are read-only too.  Structural invariants (positive rate,
    finite values, matching channel lengths) are checked by
    :func:`validate_trace`, not at construction, so that invalid traces can
    be represented and reported on.
    """

    rate_hz: float
    vs: np.ndarray
    trig: np.ndarray | None = None
    shunt: ShuntConfig = field(default_factory=ShuntConfig)

    def __post_init__(self):
        vs = np.array(self.vs, dtype=np.float64, copy=True).reshape(-1)
        vs.flags.writeable = False
        object.__setattr__(self, "vs", vs)
        if self.trig is not None:
            trig = np.array(self.trig, dtype=np.float64, copy=True).reshape(-1)
            trig.flags.writeable = False
            object.__setattr__(self, "trig", trig)

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
        for name, value in (("rate_hz", rate_hz), ("vs", vs), ("trig", trig), ("shunt", shunt)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(trace, name, value)
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


def index_at_or_after(t_s, rate_hz: float):
    """First sample index whose time is >= t_s, robust to float grid noise:
    an int, or an int64 array for an array of times."""
    index = np.maximum(0, np.ceil(np.multiply(t_s, rate_hz) - 1e-9)).astype(np.int64)
    return index if index.ndim else int(index)


@dataclass(frozen=True)
class TraceViolation:
    message: str
    index: int | None = None

    def __str__(self) -> str:
        if self.index is None:
            return self.message
        return f"sample {self.index}: {self.message}"


@dataclass(frozen=True)
class TraceValidation:
    violations: tuple[TraceViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_trace(trace: PowerTrace) -> TraceValidation:
    """Check trace invariants; returns violations instead of raising.

    Checks: non-empty, positive finite rate, finite voltages, and matching
    channel lengths when a trigger channel is present.  Non-finite samples
    make one violation per channel, at the first of them, with their count.
    """
    violations: list[TraceViolation] = []
    if len(trace) == 0:
        violations.append(TraceViolation("empty trace"))
    if not math.isfinite(trace.rate_hz):
        violations.append(TraceViolation(f"non-finite rate: {trace.rate_hz}"))
    elif not trace.rate_hz > 0:
        violations.append(TraceViolation(f"non-positive rate: {trace.rate_hz}"))
    channels = {"shunt": trace.vs}
    if trace.trig is not None:
        if trace.trig.shape[0] != trace.vs.shape[0]:
            violations.append(
                TraceViolation(
                    f"trigger channel has {trace.trig.shape[0]} samples, "
                    f"shunt channel has {trace.vs.shape[0]}"
                )
            )
        channels["trigger"] = trace.trig
    for name, samples in channels.items():
        bad = ~np.isfinite(samples)
        count = int(np.count_nonzero(bad))
        if count:
            what = f"non-finite {name} voltage"
            message = what if count == 1 else f"first of {count} {what}s"
            violations.append(TraceViolation(message, index=int(np.argmax(bad))))
    return TraceValidation(tuple(violations))


def downsample(trace: PowerTrace, factor: int) -> PowerTrace:
    """Keep every factor-th sample starting at index 0; rate divides by factor.

    Pure decimation: no anti-alias filtering is applied.
    """
    if factor < 1:
        raise ValueError(f"decimation factor must be >= 1, got {factor}")
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
# finite and positive, and no other key; then a header line `t_s,vs_v`
# (single channel) or `t_s,vs_v,trig_v` (with trigger channel), then one row
# per sample.  t_s of row i must equal i / rate_hz within
# TIME_GRID_TOLERANCE_S.

_PREAMBLE_KEYS = ("rate_hz", "vf", "rs")
_HEADER_1CH = "t_s,vs_v"
_HEADER_2CH = "t_s,vs_v,trig_v"


# Rows per block of every blocked loop in the package: the CSV writers,
# iter_trace_chunks for the readers, the simulator's workload and the relay
# segmenter's power.  Each reads it from here at call time (row_blocks or
# iter_trace_chunks), so patching it here resizes all of them.  Blocks of
# 4096 to 262144 lines parse a 1.2M-row trace equally fast; larger blocks
# hold more memory per block and, at 65536, raised the peak RSS of repeated
# CLI runs.
CHUNK_ROWS = 16384


def row_blocks(n: int) -> Iterator[tuple[int, int]]:
    """[start, stop) of consecutive blocks of CHUNK_ROWS rows covering n rows."""
    step = CHUNK_ROWS
    for start in range(0, n, step):
        yield start, min(start + step, n)


def write_trace_csv(trace: PowerTrace, path: str | Path) -> None:
    """Write a trace in the canonical CSV format (deterministic bytes)."""
    path = Path(path)
    rate = trace.rate_hz
    with path.open("w", newline="\n") as f:
        f.write(f"# rate_hz={rate!r}\n")
        f.write(f"# vf={trace.shunt.vf!r}\n")
        f.write(f"# rs={trace.shunt.rs!r}\n")
        if trace.trig is not None:
            f.write(_HEADER_2CH + "\n")
            write_csv_rows(f, rate, [trace.vs, trace.trig])
        else:
            f.write(_HEADER_1CH + "\n")
            write_csv_rows(f, rate, [trace.vs])


def write_csv_rows(f: TextIO, rate_hz: float, columns: Sequence[np.ndarray]) -> None:
    """Write row i as ``i / rate_hz`` and the i-th value of each column,
    every number as its ``repr``, comma-separated.

    The text of a block of CHUNK_ROWS rows is laid out as one uint8 matrix,
    a column per row and a slot per character, with 0 in the slots a number
    leaves out (see floattext), and written at once, so a long trace is
    never held as text.  A column may be any object whose slices are arrays
    of floats, such as one computed block by block.
    """
    step = _decimal_step(rate_hz)
    cell = floattext.WIDTH + 1
    for start, stop in row_blocks(len(columns[0])):
        text = np.empty((cell * (1 + len(columns)), stop - start), dtype=np.uint8)
        _times_into(text[: cell - 1], start, rate_hz, step)
        for j, column in enumerate(columns, start=1):
            _floats_into(text[j * cell : (j + 1) * cell - 1], column[start:stop])
        text[cell - 1 :: cell] = ord(",")
        text[-1] = ord("\n")
        # only the slots some row of the block uses, one row after another
        text = np.ascontiguousarray(text[text.max(axis=1) != 0].T)
        f.write(text[text != 0].tobytes().decode())


def _decimal_step(rate_hz: float) -> tuple[int, int] | None:
    """(m, k) with ``1 / rate_hz == m / 10**k`` exactly, for the smallest k
    in 1..18, or None when there is none (rates such as 44100 or 3.3)."""
    if not (math.isfinite(rate_hz) and rate_hz > 0):
        return None
    period = 1 / Fraction(rate_hz)
    for k in range(1, 19):
        scaled = period * 10**k
        if scaled.denominator == 1:
            return scaled.numerator, k
    return None


def _times_into(text: np.ndarray, start: int, rate_hz: float, step: tuple[int, int] | None) -> None:
    """Lay out ``repr(i / rate_hz)`` for the rows i from ``start`` on, one
    per column of ``text``, as floattext does.

    Where ``step`` is (m, k), ``i / rate_hz`` is the float nearest the
    decimal ``i * m / 10**k``.  While ``i * m < 10**15`` that decimal has at
    most 15 significant digits, and no two such decimals round to the same
    float, so it is the shortest text that reads back as the float: what
    ``repr`` prints.  Those rows are written from the digits of ``i * m``;
    the others, and every row when ``step`` is None, from the float.
    """
    rows = np.arange(start, start + text.shape[1], dtype=np.int64)
    cut = 0
    # from m = 10**15 on only row 0 could qualify, and i * m may overflow
    if step is not None and step[0] < 10**15:
        m, k = step
        cut = min(max(-(-(10**15) // m) - start, 0), len(rows))
        floattext.decimals_into(text[:, :cut], False, rows[:cut] * m, -k)
    with np.errstate(over="ignore"):  # a time beyond the float range is inf, as in Python
        times = rows[cut:] / rate_hz
    floattext.floats_into(text[:, cut:], times)


def _floats_into(text: np.ndarray, block: np.ndarray) -> None:
    """Lay out ``repr`` of each value of a block as float64, formatting each
    run of equal values once: constant loads and trigger levels hold one
    value over many consecutive rows.  Values are told apart by their bits,
    so that -0.0 and 0.0 keep their own text."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    bits = block.view(np.int64)
    heads = np.flatnonzero(np.concatenate([[True], bits[1:] != bits[:-1]]))
    distinct = np.empty((len(text), len(heads)), dtype=np.uint8)
    floattext.floats_into(distinct, block[heads])
    text[:] = np.repeat(distinct, np.diff(heads, append=len(bits)), axis=1)


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
        if text == _HEADER_1CH:
            trig = None
        elif text == _HEADER_2CH:
            trig = np.empty(0)
        else:
            raise TraceFormatError(f"unrecognized header: {text!r}", lineno)
        for key in _PREAMBLE_KEYS:
            if key not in meta:
                raise TraceFormatError(f"preamble is missing '# {key}=...'", lineno)
        rate = meta["rate_hz"]
        shunt = ShuntConfig(vf=meta["vf"], rs=meta["rs"])
        return PowerTrace(rate_hz=rate, vs=np.empty(0), trig=trig, shunt=shunt), lineno
    raise TraceFormatError("file has no header line")


def _parse_rows(
    lines: list[str], first_line: int, row: int, ncols: int, rate: float
) -> np.ndarray:
    """Parse data lines one by one: the reference for every row error.

    ``first_line`` is the line number of ``lines[0]`` and ``row`` the sample
    index of its first row.  Returns the rows as a (k, ncols) array.
    """
    out: list[list[float]] = []
    for lineno, raw in enumerate(lines, start=first_line):
        text = raw.rstrip("\n")
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != ncols:
            raise TraceFormatError(f"expected {ncols} columns, got {len(parts)}", lineno)
        t = _parse_float(parts[0], "t_s", lineno)
        expected_t = row / rate
        if abs(t - expected_t) > TIME_GRID_TOLERANCE_S:
            raise TraceFormatError(
                f"t_s={t!r} deviates from uniform grid value {expected_t!r}", lineno
            )
        values = [t, _parse_float(parts[1], "vs_v", lineno)]
        if ncols == 3:
            values.append(_parse_float(parts[2], "trig_v", lineno))
        out.append(values)
        row += 1
    return np.array(out, dtype=np.float64).reshape(-1, ncols)


def _parse_block(
    lines: list[str], row: int, ncols: int, rate: float
) -> np.ndarray | None:
    """Vectorised parse of data lines; None if any check fails, so that the
    caller re-parses with :func:`_parse_rows` and gets its verdict."""
    nonblank = len(lines) - lines.count("\n")
    if nonblank == 0:
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape != (nonblank, ncols):
        return None
    # (row + arange) / rate is the per-line row / rate, bit for bit
    expected_t = (row + np.arange(nonblank)) / rate
    if np.any(np.abs(data[:, 0] - expected_t) > TIME_GRID_TOLERANCE_S):
        return None
    return data


def iter_trace_chunks(fileobj: Iterable[str]) -> Iterator[PowerTrace]:
    """Parse trace CSV text, yielding it as consecutive PowerTrace blocks.

    The first block is empty: it carries the preamble's rate and shunt and
    the header's channel layout, so that a trace without rows still
    describes itself.  Each later block holds the rows of the next
    CHUNK_ROWS lines (fewer samples where lines are blank).  Errors are
    :class:`TraceFormatError` with the file's line number.  Only one block
    of lines is held at a time.
    """
    n = CHUNK_ROWS
    lines = iter(fileobj)
    head, lineno = _read_header(lines)
    yield head
    ncols = head.channels + 1
    row = 0
    while block := list(itertools.islice(lines, n)):
        data = _parse_block(block, row, ncols, head.rate_hz)
        if data is None:
            data = _parse_rows(block, lineno + 1, row, ncols, head.rate_hz)
        lineno += len(block)
        row += len(data)
        yield PowerTrace(
            rate_hz=head.rate_hz,
            vs=data[:, 1],
            trig=data[:, 2] if ncols == 3 else None,
            shunt=head.shunt,
        )


def concat_traces(blocks: Sequence[PowerTrace]) -> PowerTrace:
    """Join consecutive blocks of one trace; the first gives rate, shunt and
    channel layout."""
    first = blocks[0]
    trig = np.concatenate([b.trig for b in blocks]) if first.has_trigger else None
    vs = np.concatenate([b.vs for b in blocks])
    return PowerTrace._adopt(first.rate_hz, vs, trig, first.shunt)


def read_trace_csv(path: str | Path) -> PowerTrace:
    """Parse a trace CSV, verifying the preamble, header and time grid."""
    with Path(path).open("r") as f:
        return concat_traces(list(iter_trace_chunks(f)))
