"""Properties of the trace-CSV parser, read through all of its users: the
file reader (read_trace_csv of a path, parsed into columns sized by the
file's line count), read_trace_csv of an open stream, and the stream reader
(StreamSource, read_all).

Both readers parse in blocks of CHUNK_ROWS lines; the tests shrink the block
so that traces of a few dozen rows span many blocks.
"""

import contextlib
import io
import os
import threading
from unittest import mock

import numpy as np
import pytest
from chunking import chunk_rows
from hypothesis import given, settings
from hypothesis import strategies as st

import joulemark.trace as trace_module
from joulemark.acquisition import AcquisitionConfig, StreamSource, open_source, read_all
from joulemark.trace import (
    PowerTrace,
    ShuntConfig,
    TraceFormatError,
    read_trace_csv,
    write_trace_csv,
)

HEADER_LINES = 4  # rate_hz, vf and rs preamble lines, then the header

# repr() writes one NaN only, so NaN round-trips as the canonical one
values = st.one_of(
    st.floats(allow_nan=False),
    st.just(float("nan")),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
)


@st.composite
def traces(draw, min_size=0):
    n = draw(st.integers(min_size, 40))
    column = st.lists(values, min_size=n, max_size=n)
    rate = draw(st.floats(min_value=1e-3, max_value=1e7))
    return PowerTrace(
        rate_hz=np.float64(rate) if draw(st.booleans()) else rate,  # held as a float
        vs=draw(column),
        trig=draw(column) if draw(st.booleans()) else None,
        shunt=ShuntConfig(vf=draw(st.floats(1e-3, 1e3)), rs=draw(st.floats(1e-4, 10.0))),
    )


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parser") / "t.csv"


def read_stream(text: str, channels: int) -> PowerTrace:
    config = AcquisitionConfig(channels=channels, source=StreamSource(io.StringIO(text)))
    return read_all(open_source(config))


def assert_same_bits(got: PowerTrace, want: PowerTrace) -> None:
    assert got.rate_hz == want.rate_hz
    assert got.shunt == want.shunt
    assert got.vs.tobytes() == want.vs.tobytes()
    assert got.has_trigger == want.has_trigger
    if want.has_trigger:
        assert got.trig.tobytes() == want.trig.tobytes()


@settings(deadline=None)
@given(trace=traces(), rows=st.integers(1, 8))
def test_file_round_trip_keeps_bits(csv_path, trace, rows):
    write_trace_csv(trace, csv_path)
    with chunk_rows(rows):
        assert_same_bits(read_trace_csv(csv_path), trace)


@settings(deadline=None)
@given(trace=traces(), rows=st.integers(1, 8))
def test_stream_read_all_keeps_bits_for_any_block(csv_path, trace, rows):
    write_trace_csv(trace, csv_path)
    with chunk_rows(rows):
        assert_same_bits(read_stream(csv_path.read_text(), trace.channels), trace)


def _corrupt(line: str, kind: str, rate: float, row: int) -> str:
    cells = line.rstrip("\n").split(",")
    if kind == "cell":
        cells[-1] = "zap"
    elif kind == "grid":
        cells[0] = repr(row / rate + 1e-6)
    elif kind == "fewer columns":
        cells.pop()
    else:
        cells.append("0.0")
    return ",".join(cells) + "\n"


@settings(deadline=None)
@given(
    trace=traces(min_size=1),
    data=st.data(),
    kind=st.sampled_from(["cell", "grid", "fewer columns", "more columns"]),
    rows=st.integers(1, 8),
)
def test_both_readers_report_a_bad_row_at_its_line(csv_path, trace, data, kind, rows):
    write_trace_csv(trace, csv_path)
    lines = csv_path.read_text().splitlines(keepends=True)
    bad_row = data.draw(st.integers(0, len(trace) - 1), label="bad_row")
    bad = HEADER_LINES + bad_row
    lines[bad] = _corrupt(lines[bad], kind, trace.rate_hz, bad_row)
    # blank lines anywhere after the header shift line numbers, not rows
    for at in data.draw(st.lists(st.integers(HEADER_LINES, len(lines)), max_size=5)):
        lines.insert(at, "\n")
        bad += at <= bad
    text = "".join(lines)
    csv_path.write_text(text)
    with chunk_rows(rows):
        with pytest.raises(TraceFormatError) as from_file:
            read_trace_csv(csv_path)
        with pytest.raises(TraceFormatError) as from_stream:
            read_stream(text, trace.channels)
    assert from_file.value.line == bad + 1
    assert from_stream.value.line == bad + 1
    assert str(from_stream.value) == str(from_file.value)


def test_value_only_float_accepts_is_read_on_both_paths(csv_path):
    # np.loadtxt rejects digit separators, float() takes them: the block
    # falls back to the per-line parse, which keeps the value
    text = "# rate_hz=10.0\n# vf=12.0\n# rs=0.1\nt_s,vs_v\n0.0,1_000\n0.1,2.5\n"
    csv_path.write_text(text)
    assert read_trace_csv(csv_path).vs.tolist() == [1000.0, 2.5]
    assert read_stream(text, 1).vs.tolist() == [1000.0, 2.5]


def test_valid_blocks_take_the_vectorised_path(csv_path):
    # the per-line parse runs only for blocks that fail a check; a valid
    # file, blank lines included, never needs it
    trace = PowerTrace(rate_hz=40_000.0, vs=[0.1] * 50, trig=[1.8] * 50)
    write_trace_csv(trace, csv_path)
    text = csv_path.read_text().replace("\n0.0005,", "\n\n0.0005,")
    assert "\n\n" in text
    csv_path.write_text(text)
    with chunk_rows(8), mock.patch.object(
        trace_module, "_parse_rows", side_effect=AssertionError("per-line parse")
    ):
        assert_same_bits(read_trace_csv(csv_path), trace)
        assert_same_bits(read_stream(text, 2), trace)


def read_or_error(read):
    """read(), or the TraceFormatError it raises."""
    try:
        return read()
    except TraceFormatError as error:
        return error


@settings(deadline=None)
@given(
    trace=traces(),
    data=st.data(),
    kind=st.sampled_from([None, "cell", "grid", "fewer columns", "more columns"]),
    rows=st.integers(1, 8),
    line_end=st.sampled_from(["\n", "\r\n", "\r"]),  # a lone \r is no newline byte, so the count is short
    last_newline=st.booleans(),
)
def test_a_path_reads_as_its_open_stream(csv_path, trace, data, kind, rows, line_end, last_newline):
    write_trace_csv(trace, csv_path)
    lines = csv_path.read_text().splitlines(keepends=True)
    if kind and len(trace):
        bad_row = data.draw(st.integers(0, len(trace) - 1), label="bad_row")
        lines[HEADER_LINES + bad_row] = _corrupt(lines[HEADER_LINES + bad_row], kind, trace.rate_hz, bad_row)
    for at in data.draw(st.lists(st.integers(HEADER_LINES, len(lines)), max_size=5), label="blank lines"):
        lines.insert(at, "\n")
    text = "".join(lines)[: None if last_newline else -1]
    csv_path.write_bytes(text.replace("\n", line_end).encode())
    with chunk_rows(rows), mock.patch.object(trace_module, "_newlines", wraps=trace_module._newlines) as count:
        from_path = read_or_error(lambda: read_trace_csv(csv_path))
        count.assert_called_once()
        with open(csv_path) as f:
            from_stream = read_or_error(lambda: read_trace_csv(f))
        count.assert_called_once()
    if isinstance(from_stream, TraceFormatError):
        assert isinstance(from_path, TraceFormatError)
        assert (from_path.line, str(from_path)) == (from_stream.line, str(from_stream))
    else:
        assert_same_bits(from_path, from_stream)
        if kind is None:
            assert_same_bits(from_path, trace)


@pytest.mark.parametrize("count", [0, 1, 20])
def test_a_file_longer_than_its_count_is_read_whole(csv_path, count):
    """The columns grow where the file has more lines than were counted."""
    trace = PowerTrace(rate_hz=1000.0, vs=np.arange(50) / 7, trig=np.arange(50) / 3)
    write_trace_csv(trace, csv_path)
    with chunk_rows(8), mock.patch.object(trace_module, "_newlines", return_value=count):
        assert_same_bits(read_trace_csv(csv_path), trace)


def test_the_count_is_of_newline_bytes(csv_path):
    csv_path.write_bytes(b"a\nb\r\n\n" * 100_000 + b"c")
    assert trace_module._newlines(csv_path) == 300_000


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_a_fifo_path_is_read_once_and_not_counted(tmp_path):
    trace = PowerTrace(rate_hz=1000.0, vs=np.arange(50) / 7)
    write_trace_csv(trace, tmp_path / "t.csv")
    text = (tmp_path / "t.csv").read_bytes()  # less than a pipe's buffer
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def write():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as f:
            f.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with chunk_rows(8), mock.patch.object(trace_module, "_newlines", side_effect=AssertionError("counted")):
            read = read_trace_csv(fifo)
    finally:
        if writer.is_alive():  # the reader failed before it opened the pipe
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert_same_bits(read, trace)
