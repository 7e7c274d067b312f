import io

import numpy as np
import pytest
from chunking import chunk_rows

from joulemark.acquisition import (
    AcquisitionConfig,
    ChannelMismatchError,
    ReplaySource,
    SimulatorSource,
    StreamError,
    StreamSource,
    channel_rate,
    open_source,
    read_all,
)
from joulemark.instrument import ACTIVATE, DEACTIVATE, GpioCommand, GpioCommandLog
from joulemark.simulate import TRIGGER, Scenario, WorkloadProfile
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


class TestReplaySource:
    def test_happy_path_two_channels(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        stream = open_source(AcquisitionConfig(40_000.0, 2, ReplaySource(path)))
        assert stream.has_trigger
        assert stream.rate_hz == trace.rate_hz

    def test_channel_mismatch_rejected(self, tmp_path):
        trace = sample_trace(with_trigger=False)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        with pytest.raises(ChannelMismatchError):
            open_source(AcquisitionConfig(40_000.0, 2, ReplaySource(path)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_source(AcquisitionConfig(40_000.0, 1, ReplaySource(tmp_path / "nope.csv")))

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# rate_hz=10.0\n# vf=12.0\n# rs=0.1\nt_s,vs_v\n0.0,bad\n")
        with pytest.raises(TraceFormatError) as err:
            open_source(AcquisitionConfig(40_000.0, 1, ReplaySource(path)))
        assert err.value.line == 5

    def test_replay_can_be_reopened(self, tmp_path):
        trace = sample_trace(n=100)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        config = AcquisitionConfig(40_000.0, 2, ReplaySource(path))
        first = read_all(open_source(config))
        second = read_all(open_source(config))
        assert np.array_equal(first.vs, second.vs)


class TestSimulatorSource:
    def test_half_second_at_20khz_yields_exactly_10000_samples(self):
        scenario = Scenario.create(
            duration_s=0.5,
            circuit=TRIGGER,
            workload=WorkloadProfile.constant(9.0, 0.0, 0.5),
            gpio=GpioCommandLog(
                (GpioCommand(0.1, 40, ACTIVATE), GpioCommand(0.4, 40, DEACTIVATE))
            ),
            aggregate_rate_hz=40_000.0,
            seed=3,
        )
        stream = open_source(AcquisitionConfig(40_000.0, 2, SimulatorSource(scenario)))
        # oracle: count what the stream actually delivers
        total = 0
        while True:
            block = stream.read_block(1_024)
            if not len(block):
                break
            total += len(block)
        assert total == 10_000
        assert stream.position == 10_000


class TestReadBlock:
    def _stream(self, tmp_path, n=10_000):
        trace = sample_trace(n=n)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        return trace, open_source(AcquisitionConfig(40_000.0, 2, ReplaySource(path)))

    def test_block_schedule_4096(self, tmp_path):
        _, stream = self._stream(tmp_path)
        sizes = [len(stream.read_block(4_096)) for _ in range(3)]
        assert sizes == [4_096, 4_096, 1_808]
        assert stream.exhausted

    def test_read_after_exhaustion_is_empty(self, tmp_path):
        trace, stream = self._stream(tmp_path, n=10)
        assert len(stream.read_block(100)) == 10
        empty = stream.read_block(100)
        assert len(empty) == 0 and len(empty.trig) == 0
        assert (empty.rate_hz, empty.shunt) == (trace.rate_hz, trace.shunt)
        assert stream.exhausted

    def test_rejects_non_positive_block(self, tmp_path):
        _, stream = self._stream(tmp_path, n=10)
        with pytest.raises(ValueError):
            stream.read_block(0)

    def test_indices_are_global_and_gapless(self, tmp_path):
        trace, stream = self._stream(tmp_path, n=1_000)
        while True:
            start = stream.position
            block = stream.read_block(123)
            if not len(block):
                break
            # the block holds samples start.. of the source, and position
            # moves past exactly them
            assert stream.position == start + len(block)
            assert block.vs.tobytes() == trace.vs[start : stream.position].tobytes()
            assert block.trig.tobytes() == trace.trig[start : stream.position].tobytes()
        assert stream.position == 1_000

    def test_concatenation_is_block_size_independent(self, tmp_path):
        trace, _ = self._stream(tmp_path, n=2_000)
        path = tmp_path / "t.csv"
        rng = np.random.default_rng(73)
        reference = None
        for _ in range(5):
            stream = open_source(AcquisitionConfig(40_000.0, 2, ReplaySource(path)))
            vs, trig = [], []
            while True:
                block = stream.read_block(int(rng.integers(1, 700)))
                if not len(block):
                    break
                vs.append(block.vs)
                trig.append(block.trig)
            collected = (np.concatenate(vs).tobytes(), np.concatenate(trig).tobytes())
            if reference is None:
                reference = collected
            assert collected == reference
        assert reference == (trace.vs.tobytes(), trace.trig.tobytes())

    def test_rebuilt_file_is_byte_identical(self, tmp_path):
        # oracle: byte-for-byte comparison of source and round-tripped file
        trace, stream = self._stream(tmp_path, n=3_000)
        rebuilt = read_all(stream, block=777)
        out = tmp_path / "rebuilt.csv"
        write_trace_csv(rebuilt, out)
        assert out.read_bytes() == (tmp_path / "t.csv").read_bytes()


class TestStreamSource:
    def _csv_text(self, trace: PowerTrace, tmp_path) -> str:
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        return path.read_text()

    def test_stream_matches_replay(self, tmp_path):
        trace = sample_trace(n=500)
        text = self._csv_text(trace, tmp_path)
        stream = open_source(
            AcquisitionConfig(40_000.0, 2, StreamSource(io.StringIO(text)))
        )
        rebuilt = read_all(stream)
        assert np.array_equal(rebuilt.vs, trace.vs)
        assert np.array_equal(rebuilt.trig, trace.trig)
        assert rebuilt.rate_hz == trace.rate_hz

    def test_stream_channel_mismatch(self, tmp_path):
        trace = sample_trace(n=50, with_trigger=False)
        text = self._csv_text(trace, tmp_path)
        with pytest.raises(ChannelMismatchError):
            open_source(AcquisitionConfig(40_000.0, 2, StreamSource(io.StringIO(text))))

    def test_stream_rejects_corrupt_row_mid_flight(self, tmp_path):
        trace = sample_trace(n=50, with_trigger=False)
        lines = self._csv_text(trace, tmp_path).splitlines()
        lines[30] = "garbage"
        stream = open_source(
            AcquisitionConfig(40_000.0, 1, StreamSource(io.StringIO("\n".join(lines))))
        )
        with pytest.raises(TraceFormatError) as err:
            while len(stream.read_block(8)):
                pass
        assert err.value.line == 31

    @pytest.mark.parametrize("fail_at_line", [2, 4 + 37])
    def test_read_error_reports_first_undelivered_sample(self, tmp_path, fail_at_line):
        trace = sample_trace(n=100, with_trigger=False)
        fileobj = FailingText(self._csv_text(trace, tmp_path), fail_at_line)
        delivered = []
        with chunk_rows(10), pytest.raises(StreamError) as err:
            stream = open_source(AcquisitionConfig(40_000.0, 1, StreamSource(fileobj)))
            while len(block := stream.read_block(8)):
                delivered.append(block.vs)
        position = sum(map(len, delivered))
        # rows 30-39 fail while filling the block from sample 24 on
        assert position == (24 if fail_at_line > 4 else 0)
        assert err.value.position == position
        assert isinstance(err.value.__cause__, OSError)
        if delivered:
            assert np.concatenate(delivered).tobytes() == trace.vs[:position].tobytes()

    def test_stream_without_source_errors(self):
        with pytest.raises(ValueError):
            open_source(AcquisitionConfig(40_000.0, 1, None))
