"""Cross-module round trip: an instrumented program's exported log drives
the simulator, and segmentation recovers one window per toggle pair.
"""

import numpy as np
import pytest

import joulemark
from joulemark.instrument import GpioCommand, GpioCommandLog, PortRegistry, RecordingBackend
from joulemark.segment import segment_relay, segment_trigger
from joulemark.simulate import (
    RELAY,
    TRIGGER,
    NoiseModel,
    Scenario,
    SwitchingModel,
    WorkloadProfile,
    simulate_session,
)


class SteppingClock:
    def __init__(self, step=0.25):
        self.now = 0.0
        self.step = step

    def __call__(self):
        t = self.now
        self.now += self.step
        return t


def instrumented_session_log(n_windows: int) -> GpioCommandLog:
    """Toggle one port n times the way an instrumented program would."""
    registry = PortRegistry(backend=RecordingBackend(), clock=SteppingClock())
    token = registry.acquire(40, owner="worker")
    for _ in range(n_windows):
        token.activate()
        token.deactivate()
    token.release()
    return registry.export_log()


@pytest.mark.parametrize("circuit", [RELAY, TRIGGER])
@pytest.mark.parametrize("n_windows", [1, 3])
def test_exported_log_replays_through_simulator(circuit, n_windows):
    log = instrumented_session_log(n_windows)
    log.validate()
    duration = 0.25 * 2 * n_windows + 0.25
    scenario = Scenario.create(
        duration_s=duration,
        circuit=circuit,
        workload=WorkloadProfile.constant(9.0, 0.0, duration),
        gpio=log,  # accepted verbatim
        switching=SwitchingModel(nominal_latency_s=0.0),
        noise=NoiseModel(idle_power_bound_w=0.0),
        seed=2,
    )
    trace, truth = simulate_session(scenario)
    segmenter = segment_relay if circuit == RELAY else segment_trigger
    windows = segmenter(trace)
    assert len(windows) == n_windows
    assert windows == truth.realized_windows()


def test_exported_log_survives_csv_round_trip(tmp_path):
    log = instrumented_session_log(2)
    path = tmp_path / "gpio.csv"
    log.write_csv(path)
    assert GpioCommandLog.read_csv(path) == log


# every exported exception that reports a defect of its input
INPUT_DEFECT_ERRORS = [
    "AlternationError",
    "DanglingWindowError",
    "ScenarioError",
    "TraceFormatError",
    "WrongModeError",
    "ChannelMismatchError",
    "DegenerateWindowError",
    "InsufficientSamplesError",
    "UndefinedVariationError",
    "UnknownPortError",
]


@pytest.mark.parametrize("name", INPUT_DEFECT_ERRORS)
def test_input_defect_is_a_value_error(name):
    assert issubclass(getattr(joulemark, name), ValueError)


def test_scenario_with_dangling_activate_is_caught_as_value_error():
    with pytest.raises(ValueError, match="still active"):
        Scenario(1.0, RELAY, gpio=GpioCommandLog((GpioCommand(0.5, 40, "activate"),)))
