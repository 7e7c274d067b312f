import io
import numbers
import sys

import numpy as np
import pytest
from chunking import chunk_rows

from joulemark.acquisition import (
    AcquisitionConfig,
    ChannelMismatchError,
    StreamError,
    StreamSource,
    channel_rate,
    open_source,
    read_all,
)
from joulemark.trace import PowerTrace, ShuntConfig, TraceFormatError, write_trace_csv


class FailingText(io.StringIO):
    """Text whose line ``fail_at_line`` (0-based) cannot be read."""

    def __init__(self, text: str, fail_at_line: int):
        super().__init__(text)
        self._left = fail_at_line

    def __next__(self) -> str:
        if self._left == 0:
            raise OSError("device unplugged")
        self._left -= 1
        return super().__next__()


def sample_trace(n=10_000, with_trigger=True, rate=20_000.0) -> PowerTrace:
    rng = np.random.default_rng(71)
    trig = rng.choice([0.0, 1.8], size=n) if with_trigger else None
    return PowerTrace(
        rate_hz=rate, vs=rng.uniform(0, 0.1, size=n), trig=trig, shunt=ShuntConfig()
    )


class TestChannelRate:
    def test_single_channel_gets_full_budget(self):
        assert channel_rate(AcquisitionConfig(40_000.0, 1)) == pytest.approx(40_000.0)

    def test_two_channels_halve_the_budget(self):
        assert channel_rate(AcquisitionConfig(40_000.0, 2)) == pytest.approx(20_000.0)

    def test_division_rule(self):
        assert channel_rate(AcquisitionConfig(48_000.0, 2)) == pytest.approx(24_000.0)

    def test_single_channel_is_twice_two_channel(self):
        for rate in (10_000.0, 40_000.0, 96_000.0):
            assert channel_rate(AcquisitionConfig(rate, 1)) == pytest.approx(
                2 * channel_rate(AcquisitionConfig(rate, 2))
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(40_000.0, 3)
        with pytest.raises(ValueError):
            AcquisitionConfig(0.0, 1)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), True, np.True_, "40000", None, pytest.param(10**400, id="10**400")])
    def test_rate_must_be_finite(self, rate):
        with pytest.raises(ValueError) as raised:
            AcquisitionConfig(rate, 1)
        shown = rate if isinstance(rate, numbers.Real) else repr(rate)
        assert str(raised.value) == f"aggregate rate must be finite and positive, got {shown}"

    @pytest.mark.parametrize("channels", [True, 1.0, np.True_, "1"])
    def test_channels_is_an_integer(self, channels):
        with pytest.raises(ValueError) as raised:
            AcquisitionConfig(40_000.0, channels)
        shown = channels if isinstance(channels, numbers.Real) else repr(channels)
        assert str(raised.value) == f"channels must be 1 or 2, got {shown}"

    def test_numpy_numbers_are_held_as_python_numbers(self):
        config = AcquisitionConfig(np.float32(40_000.0), np.int64(2))
        assert type(config.aggregate_rate_hz) is float and type(config.channels) is int
        assert channel_rate(config) == 20_000.0


def csv_text(trace: PowerTrace, tmp_path) -> str:
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    return path.read_text()


def open_text(text: str, channels: int):
    config = AcquisitionConfig(40_000.0, channels, StreamSource(io.StringIO(text)))
    return open_source(config)


class TestReadBlock:
    """The blocks a stream delivers: the parser's, in order, without gaps."""

    def test_block_schedule_4096(self, tmp_path):
        text = csv_text(sample_trace(), tmp_path)
        with chunk_rows(4_096):
            sizes = [len(block) for block in open_text(text, 2)]
        # the empty head, then one block per 4,096 lines
        assert sizes == [0, 4_096, 4_096, 1_808]

    def test_read_after_exhaustion_is_empty(self, tmp_path):
        trace = sample_trace(n=10)
        stream = open_text(csv_text(trace, tmp_path), 2)
        head = next(stream)
        assert len(head) == 0 and len(head.trig) == 0
        assert (head.rate_hz, head.shunt) == (trace.rate_hz, trace.shunt)
        assert len(next(stream)) == 10
        assert next(stream, None) is None
        assert next(stream, None) is None

    def test_indices_are_global_and_gapless(self, tmp_path):
        trace = sample_trace(n=1_000)
        text = csv_text(trace, tmp_path)
        position = 0
        with chunk_rows(123):
            for block in open_text(text, 2):
                # each block holds the source's samples from where the last
                # one ended
                stop = position + len(block)
                assert block.vs.tobytes() == trace.vs[position:stop].tobytes()
                assert block.trig.tobytes() == trace.trig[position:stop].tobytes()
                position = stop
        assert position == 1_000

    def test_concatenation_is_block_size_independent(self, tmp_path):
        trace = sample_trace(n=2_000)
        text = csv_text(trace, tmp_path)
        rng = np.random.default_rng(73)
        for rows in [1, *rng.integers(2, 700, size=4).tolist()]:
            with chunk_rows(rows):
                rebuilt = read_all(open_text(text, 2))
            assert rebuilt.vs.tobytes() == trace.vs.tobytes()
            assert rebuilt.trig.tobytes() == trace.trig.tobytes()

    def test_rebuilt_file_is_byte_identical(self, tmp_path):
        # oracle: byte-for-byte comparison of source and round-tripped file
        text = csv_text(sample_trace(n=3_000), tmp_path)
        with chunk_rows(777):
            rebuilt = read_all(open_text(text, 2))
        out = tmp_path / "rebuilt.csv"
        write_trace_csv(rebuilt, out)
        assert out.read_text() == text


class TestStreamSource:
    def test_stream_matches_replay(self, tmp_path):
        trace = sample_trace(n=500)
        rebuilt = read_all(open_text(csv_text(trace, tmp_path), 2))
        assert np.array_equal(rebuilt.vs, trace.vs)
        assert np.array_equal(rebuilt.trig, trace.trig)
        assert rebuilt.rate_hz == trace.rate_hz

    def test_stream_channel_mismatch(self, tmp_path):
        # raised at open, before any sample is delivered
        text = csv_text(sample_trace(n=50, with_trigger=False), tmp_path)
        with pytest.raises(ChannelMismatchError):
            open_text(text, 2)

    def test_stream_rejects_corrupt_row_mid_flight(self, tmp_path):
        lines = csv_text(sample_trace(n=50, with_trigger=False), tmp_path).splitlines()
        lines[30] = "garbage"
        delivered = 0
        with chunk_rows(8), pytest.raises(TraceFormatError) as err:
            for block in open_text("\n".join(lines), 1):
                delivered += len(block)
        assert err.value.line == 31
        # the blocks before the one holding line 31 were delivered
        assert delivered == 24

    @pytest.mark.parametrize("fail_at_line", [2, 4 + 37])
    def test_read_error_reports_first_undelivered_sample(self, tmp_path, fail_at_line):
        trace = sample_trace(n=100, with_trigger=False)
        fileobj = FailingText(csv_text(trace, tmp_path), fail_at_line)
        delivered = []
        with chunk_rows(10), pytest.raises(StreamError) as err:
            for block in open_source(AcquisitionConfig(40_000.0, 1, StreamSource(fileobj))):
                delivered.append(block.vs)
        position = sum(map(len, delivered))
        # data row 37 fails while the block of rows 30-39 is read
        assert position == (30 if fail_at_line > 4 else 0)
        assert err.value.position == position
        assert isinstance(err.value.__cause__, OSError)
        if delivered:
            assert np.concatenate(delivered).tobytes() == trace.vs[:position].tobytes()

    def test_stdin_is_the_default(self, tmp_path, monkeypatch):
        trace = sample_trace(n=20, with_trigger=False)
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv_text(trace, tmp_path)))
        rebuilt = read_all(open_source(AcquisitionConfig(40_000.0, 1, StreamSource())))
        assert rebuilt.vs.tobytes() == trace.vs.tobytes()

    def test_stream_without_source_errors(self):
        with pytest.raises(ValueError):
            open_source(AcquisitionConfig(40_000.0, 1, None))

    def test_other_source_types_are_rejected(self):
        with pytest.raises(TypeError):
            open_source(AcquisitionConfig(40_000.0, 1, "trace.csv"))
