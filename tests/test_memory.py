"""Peak memory of the stages that see a whole trace, as multiples of the
trace's own bytes (the sum of its channels' array sizes).

tracemalloc counts numpy's data buffers, so every trace-length temporary
adds a whole multiple: 1x per relay channel, 0.5x per trigger channel.  The
stages run in blocks of 512 rows, which keeps each block's own objects
(lines, floats, strings) small next to a 100,000-sample trace.  Measured
peaks, and in brackets the same stage when every array was built whole and
the trace copied what it was given:

- simulate_session: relay 1.16x, the shunt channel and its one-byte window
  mask (5.0x); trigger 1.01x (3.0x);
- read_trace_csv of a path: relay 1.15x, trigger 1.08x, the columns sized
  by the file's newline count, which the trace adopts, and one block's
  parse (2.1x when the parsed blocks were kept and concatenated; 3.05x);
  the count's 256 KiB buffer and its comparison are freed before the
  columns exist, and would add 0.33x each to the relay trace's 800 KB;
- read_trace_csv of an open stream, and read_all of a stream: 2.1x, the
  parsed blocks and their concatenation;
- the trace writer: relay 0.20x, trigger 0.10x, one block's text as a
  byte matrix and the formatting kernel's integer arrays for one column
  (0.18x and 0.08x when each distinct value of a block went through
  ``repr``; 0.14x and 0.05x when each time was formatted as its row was
  joined);
- the skyline writer: relay 117 bytes per bucket of its M4 envelope,
  trigger 86, whatever the trace's length: the envelope's rows, their
  watts and the temporaries of computing them, and one block's text
  (0.59x and 0.22x of these traces; 0.21x and 0.08x when it wrote every
  sample's watts a block at a time, 1.12x and 0.56x when the watts were
  one array).

Each bound but the skyline's sits below the peak one more trace-length
array would give; the skyline's is per bucket.

What ``analyze`` keeps, its report, is pinned per window instead: 33 bytes
a window, the windows, joules and matched window indices as arrays, the
verdicts' other columns being the command log's own pairs (167 bytes when
each verdict was an object, about 500 bytes when each window was also a
MeasurementWindow and an EnergyResult).

Writing that report, 3,000 windows and verdicts, peaks at 0.18x the bytes
it writes in blocks of 512 leaves: one block's records as a matrix of text
rows and their text, the formatting kernel's arrays for one column, and
the results' seconds and mean watts derived as whole columns (0.18x too
when each record was its template's text filled by one ``%``; 0.17x when a
block's leaves were first gathered into one object array; 0.10x when the
seconds and watts were derived block by block, 0.52x in blocks of 512
records, 7.9x when ``json.dumps(indent=2)`` encoded the whole report at
once).  The default block of 16,384 leaves costs about 150 bytes a leaf,
2.4 MB, whatever the report's size: the same report peaks at 2.06x (2.33x
with the ``%`` fill, 2.75x with the one object array), and an 8,000-window
report, as large as the benchmark's, at 0.85x (0.92x with the ``%`` fill,
1.07x with the object array; 1.0x when the seconds and watts were derived
block by block; 2.8x when a block was 16,384 records, and so the whole
report).  The ground truth and the scenario of that 8,000-toggle session
peak at 1.19x and 2.14x (1.39x and 2.26x with the ``%`` fill): a command
record holds two leaves, so a block holds 8,192 of them, and less text
per leaf than a window's.
"""

import tracemalloc
from contextlib import nullcontext

import pytest

from chunking import chunk_rows
from joulemark.acquisition import AcquisitionConfig, StreamSource, open_source, read_all
from joulemark.cli import SKYLINE_BUCKETS, _write_skyline_csv
from joulemark.instrument import ACTIVATE, DEACTIVATE, GpioCommand, GpioCommandLog
from joulemark.segment import analyze
from joulemark.simulate import RELAY, TRIGGER, Scenario, WorkloadProfile, save_scenario, simulate_session
from joulemark.trace import read_trace_csv, write_trace_csv

SAMPLES = 100_000
BLOCK_ROWS = 512


def session(circuit: str, samples: int = SAMPLES) -> Scenario:
    """``samples`` samples per channel, four windows of half a second each."""
    duration = 10.0
    cmds = []
    for k in range(4):
        cmds += [GpioCommand(1.0 + 2 * k, 40, ACTIVATE), GpioCommand(1.5 + 2 * k, 40, DEACTIVATE)]
    return Scenario(
        duration_s=duration,
        circuit=circuit,
        aggregate_rate_hz=samples / duration * (1 if circuit == RELAY else 2),
        workload=WorkloadProfile.constant(12.0, 0.0, duration),
        gpio=GpioCommandLog(tuple(cmds)),
        seed=3,
    )


def trace_bytes(trace) -> int:
    return trace.vs.nbytes + (trace.trig.nbytes if trace.has_trigger else 0)


def peak_bytes(fn, *args):
    """fn(*args) and the most memory it held at once above what was held
    before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", autouse=True)
def warm_up(tmp_path_factory):
    """Run every stage once on a small trace first, so that the imports and
    caches a first call sets up are not counted."""
    path = tmp_path_factory.mktemp("warm-up") / "trace.csv"
    for circuit in (RELAY, TRIGGER):
        trace, _ = simulate_session(session(circuit, samples=100))
        write_trace_csv(trace, path)
        _write_skyline_csv(read_trace_csv(path), path.with_suffix(".skyline.csv"))


@pytest.fixture(params=[RELAY, TRIGGER])
def simulated(request):
    with chunk_rows(BLOCK_ROWS):
        (trace, _), peak = peak_bytes(simulate_session, session(request.param))
    assert len(trace) == SAMPLES
    return request.param, trace, peak


def test_simulate_session_holds_the_trace_once(simulated):
    _, trace, peak = simulated
    assert peak <= 1.3 * trace_bytes(trace)


def test_read_trace_csv_of_a_path_holds_the_trace_once(simulated, tmp_path):
    _, trace, _ = simulated
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with chunk_rows(BLOCK_ROWS):
        read, peak = peak_bytes(read_trace_csv, path)
    assert read.vs.tobytes() == trace.vs.tobytes()
    assert peak <= 1.3 * trace_bytes(read)


def read_open_file(path):
    with open(path) as f:
        return read_trace_csv(f)


def test_read_trace_csv_of_a_stream_holds_blocks_and_one_concatenation(simulated, tmp_path):
    _, trace, _ = simulated
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with chunk_rows(BLOCK_ROWS):
        read, peak = peak_bytes(read_open_file, path)
    assert read.vs.tobytes() == trace.vs.tobytes()
    assert peak <= 2.3 * trace_bytes(read)


def drain_stream(path, channels: int):
    with open(path) as f:
        config = AcquisitionConfig(channels=channels, source=StreamSource(f))
        return read_all(open_source(config))


def test_read_all_of_a_stream_holds_blocks_and_one_concatenation(simulated, tmp_path):
    _, trace, _ = simulated
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with chunk_rows(BLOCK_ROWS):
        read, peak = peak_bytes(drain_stream, path, trace.channels)
    assert read.vs.tobytes() == trace.vs.tobytes()
    assert peak <= 2.3 * trace_bytes(read)


def test_trace_writer_holds_one_block_of_text(simulated, tmp_path):
    _, trace, _ = simulated
    with chunk_rows(BLOCK_ROWS):
        _, peak = peak_bytes(write_trace_csv, trace, tmp_path / "trace.csv")
    assert peak <= 0.3 * trace_bytes(trace)


def test_skyline_writer_holds_its_envelope(simulated, tmp_path):
    _, trace, _ = simulated
    with chunk_rows(BLOCK_ROWS):
        _, peak = peak_bytes(_write_skyline_csv, trace, tmp_path / "skyline.csv")
    assert peak <= 120 * SKYLINE_BUCKETS


def retained_bytes(fn, *args):
    """fn(*args) and the memory still held after it returns, above what was
    held before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def toggled_scenario(toggles: int) -> Scenario:
    """A trigger scenario of ``toggles`` toggles, every one captured."""
    cmds = []
    for k in range(toggles):
        cmds += [GpioCommand(1e-3 + 2e-3 * k, 40, ACTIVATE), GpioCommand(2e-3 + 2e-3 * k, 40, DEACTIVATE)]
    duration = 2e-3 * toggles + 1e-3
    return Scenario(
        duration_s=duration,
        circuit=TRIGGER,
        workload=WorkloadProfile.constant(9.0, 0.0, duration),
        gpio=GpioCommandLog(tuple(cmds)),
        seed=5,
    )


def toggled(toggles: int):
    """A trigger session of ``toggles`` toggles, every one captured, and its
    log."""
    scenario = toggled_scenario(toggles)
    trace, _ = simulate_session(scenario)
    return trace, scenario.gpio


@pytest.fixture(scope="module")
def toggled_session():
    return toggled(3_000)


def test_analyze_keeps_no_object_per_window(toggled_session):
    trace, log = toggled_session
    analyze(trace, TRIGGER, expected=log)
    report, retained = retained_bytes(lambda: analyze(trace, TRIGGER, expected=log))
    assert len(report.windows) == report.hit_miss.hits == len(log) // 2
    assert retained <= 64 * len(report.windows)


def report_writer_peak(session, path, block_rows=None) -> int:
    """The peak memory of writing the session's report to path, with its
    records in blocks of ``block_rows`` leaves (default: the package's)."""
    trace, log = session
    report = analyze(trace, TRIGGER, expected=log)

    def write():
        with path.open("w", newline="\n") as f:
            report.write_json(f)

    write()
    with chunk_rows(block_rows) if block_rows else nullcontext():
        _, peak = peak_bytes(write)
    return peak


def test_report_writer_holds_one_block_of_records(toggled_session, tmp_path):
    path = tmp_path / "report.json"
    peak = report_writer_peak(toggled_session, path, BLOCK_ROWS)
    assert peak <= 2.0 * path.stat().st_size


def test_report_writer_at_the_default_block_size(tmp_path):
    """8,000 windows, as many as the benchmark's trigger report."""
    path = tmp_path / "report.json"
    peak = report_writer_peak(toggled(8_000), path)
    assert peak <= 2.0 * path.stat().st_size


def test_report_writer_of_a_smaller_report_at_the_default_block_size(toggled_session, tmp_path):
    """3,000 windows, whose results fill a default block almost whole."""
    path = tmp_path / "report.json"
    peak = report_writer_peak(toggled_session, path)
    assert peak <= 2.5 * path.stat().st_size


@pytest.fixture(scope="module")
def toggled_truth():
    """The scenario of 8,000 toggles, as many as the benchmark's trigger
    session, and its ground truth."""
    scenario = toggled_scenario(8_000)
    _, truth = simulate_session(scenario)
    return scenario, truth


def document_writer_peak(write, path) -> int:
    """The peak memory of write(path) at the package's block size, after
    one write to warm up."""
    write(path)
    _, peak = peak_bytes(write, path)
    return peak


def test_truth_writer_at_the_default_block_size(toggled_truth, tmp_path):
    _, truth = toggled_truth
    path = tmp_path / "truth.json"
    peak = document_writer_peak(truth.write_json, path)
    assert peak <= 2.0 * path.stat().st_size


def test_scenario_writer_at_the_default_block_size(toggled_truth, tmp_path):
    scenario, _ = toggled_truth
    path = tmp_path / "scenario.json"
    peak = document_writer_peak(lambda p: save_scenario(scenario, p), path)
    assert peak <= 2.5 * path.stat().st_size
