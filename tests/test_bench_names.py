"""The benchmark under ``bench/`` calls and wraps joulemark by name.  Every
name it reaches must resolve, so that removing one fails here first rather
than in a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import joulemark
import joulemark.cli
import joulemark.energy
import joulemark.trace
from joulemark.instrument import ACTIVATE, DEACTIVATE, GpioCommand, GpioCommandLog
from joulemark.simulate import TRIGGER, Scenario, WorkloadProfile, load_scenario, save_scenario, simulate_session
from joulemark.trace import write_trace_csv

BENCH = Path(__file__).resolve().parent.parent / "bench"

_spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module_name, path", tracing.TRACED)
def test_traced_functions_resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    # the tracer replaces the attribute where it is defined
    assert callable(getattr(owner, attr)) and attr in vars(owner)


def test_tracer_installs_and_restores_its_wrappers():
    before = {name: getattr(joulemark, name) for name in ("open_source", "read_all")}
    with tracing.Tracer().job(0):
        assert joulemark.read_all is not before["read_all"]
    assert {name: getattr(joulemark, name) for name in before} == before


def three_toggle_session():
    """A trigger session that recovers three windows, and its log."""
    starts = (0.1, 0.3, 0.5)
    log = GpioCommandLog(
        tuple(
            cmd
            for t in starts
            for cmd in (GpioCommand(t, 40, ACTIVATE), GpioCommand(t + 0.05, 40, DEACTIVATE))
        )
    )
    scenario = Scenario(0.7, TRIGGER, workload=WorkloadProfile.constant(9.0, 0.0, 0.7), gpio=log, seed=3)
    trace, truth = simulate_session(scenario)
    assert truth.hits == len(starts)
    return trace, truth, log


def test_set_up_builds_a_log_from_a_tuple_of_commands():
    """The workloads build each log from a tuple of GpioCommand."""
    commands = (GpioCommand(0.25, 40, ACTIVATE), GpioCommand(0.5, 40, DEACTIVATE))
    log = GpioCommandLog(commands)
    assert log.entries == commands and len(log) == 2


def test_set_up_files_read_back_to_an_equal_log(tmp_path):
    """The set-up writes the scenario and its log's CSV; each reads back to
    the log it was written from."""
    _, _, log = three_toggle_session()
    scenario = Scenario(0.7, TRIGGER, workload=WorkloadProfile.constant(9.0, 0.0, 0.7), gpio=log, seed=3)
    log.write_csv(tmp_path / "expected.csv")
    assert GpioCommandLog.read_csv(tmp_path / "expected.csv") == log
    save_scenario(scenario, tmp_path / "scenario.json")
    loaded = load_scenario(tmp_path / "scenario.json")
    assert loaded == scenario and loaded.gpio == log


def test_tracer_sees_every_stage_of_cli_analyze(tmp_path):
    """The pipeline calls the traced functions through their modules, so a
    traced CLI analysis records each stage and the windows it found."""
    trace, truth, log = three_toggle_session()
    write_trace_csv(trace, tmp_path / "trace.csv")
    log.write_csv(tmp_path / "expected.csv")
    tracer = tracing.Tracer()
    with tracer.job(0):
        code = joulemark.cli.main([
            "analyze", str(tmp_path / "trace.csv"), "--mode", TRIGGER,
            "--expected", str(tmp_path / "expected.csv"), "--out", str(tmp_path / "r.json"),
        ])
    assert code == 0
    spans = [name for name, *_ in tracer.spans]
    assert spans.count("segment.segment_trigger") == 1
    assert spans.count("segment.match_toggles") == 1
    assert tracer.counts[0]["segment.windows"] == truth.hits


def test_analyze_integrates_through_the_energy_module(monkeypatch):
    """analyze() looks window_energies up on its module at each call, so a
    wrapper installed there sees every analysis."""
    trace, truth, _ = three_toggle_session()
    calls = []
    raw = joulemark.energy.window_energies
    monkeypatch.setattr(
        joulemark.energy, "window_energies", lambda *args: calls.append(args) or raw(*args)
    )
    report = joulemark.analyze(trace, TRIGGER)
    assert len(calls) == 1 and len(report.windows) == truth.hits


def test_analyze_checks_the_trace_through_the_trace_module(monkeypatch):
    """analyze() looks validate_trace up on its module at each call, so the
    tracer's trace.validate_trace span sees every analysis."""
    trace, truth, _ = three_toggle_session()
    calls = []
    raw = joulemark.trace.validate_trace
    monkeypatch.setattr(
        joulemark.trace, "validate_trace", lambda *args: calls.append(args) or raw(*args)
    )
    report = joulemark.analyze(trace, TRIGGER)
    assert len(calls) == 1 and len(report.windows) == truth.hits


def _package_names(source: str) -> set[tuple[str, ...]]:
    """Attribute chains rooted at ``joulemark`` or a local alias of it."""
    tree = ast.parse(source)
    roots = {"joulemark"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            if node.value.id in roots:
                roots.update(t.id for t in node.targets if isinstance(t, ast.Name))
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            chains.add(tuple(reversed(parts)))
    return chains


WORKLOAD_NAMES = sorted(_package_names((BENCH / "workloads.py").read_text()))


def test_workloads_use_the_package():
    assert ("open_source",) in WORKLOAD_NAMES and ("cli", "main") in WORKLOAD_NAMES


@pytest.mark.parametrize("chain", WORKLOAD_NAMES, ids=".".join)
def test_workload_names_resolve(chain):
    # a longer chain's prefix is resolved too: Scenario.create, cli.main
    value = joulemark
    for part in chain:
        value = getattr(value, part)
