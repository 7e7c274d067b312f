import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joulemark.instrument import (
    ACTIVATE,
    DEACTIVATE,
    KNOWN_PINS,
    AlternationError,
    DanglingWindowError,
    GpioCommand,
    GpioCommandLog,
    GpioFileBackend,
    PortOwnershipError,
    PortRegistry,
    RecordingBackend,
    StaleTokenError,
    UnknownPortError,
)


class FakeClock:
    """Deterministic session clock for tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


def make_registry():
    clock = FakeClock()
    backend = RecordingBackend()
    return PortRegistry(backend=backend, clock=clock), backend, clock


class TestAcquireRelease:
    def test_acquire_known_pin(self):
        registry, _, _ = make_registry()
        token = registry.acquire(40)
        assert token.port == 40

    def test_double_acquire_is_ownership_error(self):
        registry, _, _ = make_registry()
        registry.acquire(40)
        with pytest.raises(PortOwnershipError):
            registry.acquire(40)

    def test_unknown_pin_rejected(self):
        registry, _, _ = make_registry()
        with pytest.raises(UnknownPortError):
            registry.acquire(99)

    def test_port_reusable_after_release(self):
        registry, _, clock = make_registry()
        token = registry.acquire(40)
        token.activate()
        clock.advance(0.5)
        token.deactivate()
        token.release()
        assert registry.acquire(40).port == 40

    def test_release_while_active_is_dangling_window(self):
        registry, _, _ = make_registry()
        token = registry.acquire(40)
        token.activate()
        with pytest.raises(DanglingWindowError):
            token.release()

    def test_release_twice_is_stale_token(self):
        registry, _, _ = make_registry()
        token = registry.acquire(40)
        token.release()
        with pytest.raises(StaleTokenError):
            token.release()

    def test_stale_token_cannot_toggle(self):
        registry, _, _ = make_registry()
        token = registry.acquire(40)
        token.release()
        with pytest.raises(StaleTokenError):
            token.activate()
        # nor once its port has a new owner, who starts inactive
        owner = registry.acquire(40)
        with pytest.raises(StaleTokenError):
            token.activate()
        with pytest.raises(StaleTokenError):
            token.release()
        owner.activate()
        owner.deactivate()
        owner.release()


class TestToggling:
    def test_activate_then_deactivate_logs_both(self):
        registry, backend, clock = make_registry()
        token = registry.acquire(43)
        token.activate()
        clock.advance(1.0)
        token.deactivate()
        log = registry.export_log()
        assert [(c.port, c.action) for c in log.entries] == [
            (43, ACTIVATE),
            (43, DEACTIVATE),
        ]
        assert backend.writes == [(43, True), (43, False)]

    def test_double_activate_leaves_log_unchanged(self):
        registry, _, _ = make_registry()
        token = registry.acquire(43)
        token.activate()
        with pytest.raises(AlternationError):
            token.activate()
        assert len(registry.export_log()) == 1

    def test_deactivate_without_activate_rejected(self):
        registry, _, _ = make_registry()
        token = registry.acquire(43)
        with pytest.raises(AlternationError):
            token.deactivate()

    def test_interleaved_ports_keep_per_port_alternation(self):
        registry, _, clock = make_registry()
        a = registry.acquire(40)
        b = registry.acquire(43)
        a.activate()
        clock.advance(0.1)
        b.activate()
        clock.advance(0.1)
        a.deactivate()
        clock.advance(0.1)
        b.deactivate()
        log = registry.export_log()
        # oracle: replay the merged log through a per-port state machine
        state: dict[int, bool] = {}
        for cmd in log.entries:
            if cmd.action == ACTIVATE:
                assert not state.get(cmd.port, False)
                state[cmd.port] = True
            else:
                assert state.get(cmd.port, False)
                state[cmd.port] = False
        assert not any(state.values())
        log.validate()


class TestCommandLog:
    def test_validator_rejects_swapped_pair(self):
        good = GpioCommandLog(
            (
                GpioCommand(0.1, 40, ACTIVATE),
                GpioCommand(0.2, 40, DEACTIVATE),
            )
        )
        good.validate()
        swapped = GpioCommandLog(
            (
                GpioCommand(0.1, 40, DEACTIVATE),
                GpioCommand(0.2, 40, ACTIVATE),
            )
        )
        with pytest.raises(AlternationError):
            swapped.validate()

    def test_validator_rejects_unsorted_times(self):
        log = GpioCommandLog(
            (
                GpioCommand(0.2, 40, ACTIVATE),
                GpioCommand(0.1, 40, DEACTIVATE),
            )
        )
        with pytest.raises(AlternationError):
            log.validate()

    def test_validator_rejects_dangling_activate(self):
        log = GpioCommandLog((GpioCommand(0.1, 40, ACTIVATE),))
        with pytest.raises(DanglingWindowError):
            log.validate()

    def test_windows_pairs_commands_in_order(self):
        log = GpioCommandLog(
            (
                GpioCommand(0.1, 40, ACTIVATE),
                GpioCommand(0.2, 43, ACTIVATE),
                GpioCommand(0.3, 40, DEACTIVATE),
                GpioCommand(0.4, 43, DEACTIVATE),
            )
        )
        t_on, t_off, port = log.windows()
        assert (t_on.dtype, t_off.dtype, port.dtype) == (np.float64, np.float64, np.int64)
        assert pairs_of(log) == [(0.1, 0.3, 40), (0.2, 0.4, 43)]

    def test_windows_are_read_only_arrays(self):
        log = GpioCommandLog(
            (GpioCommand(0.1, 40, ACTIVATE), GpioCommand(0.2, 40, DEACTIVATE))
        )
        for column in log.windows():
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert pairs_of(log) == [(0.1, 0.2, 40)]

    def test_invalid_log_raises_on_every_call(self):
        log = GpioCommandLog((GpioCommand(0.1, 40, ACTIVATE),))
        for _ in range(2):
            with pytest.raises(DanglingWindowError):
                log.windows()

    def test_entries_are_held_as_a_tuple(self):
        entries = [GpioCommand(0.1, 40, ACTIVATE), GpioCommand(0.2, 40, DEACTIVATE)]
        log = GpioCommandLog(entries)
        entries.clear()
        assert log.entries == (
            GpioCommand(0.1, 40, ACTIVATE),
            GpioCommand(0.2, 40, DEACTIVATE),
        )
        assert log == GpioCommandLog(log.entries)

    def test_port_beyond_64_bits_is_rejected_at_its_line(self, tmp_path):
        GpioCommand(0.0, 2**63 - 1, ACTIVATE)
        with pytest.raises(ValueError, match=r"^port must fit in 64 bits, got -9223372036854775809$"):
            GpioCommand(0.0, -(2**63) - 1, ACTIVATE)
        path = tmp_path / "gpio.csv"
        path.write_text(f"t_s,port,action\n1.0,{2**63},activate\n")
        with pytest.raises(ValueError, match=f"^line 2: port must fit in 64 bits, got {2**63}$"):
            GpioCommandLog.read_csv(path)

    def test_nan_command_time_is_rejected(self):
        with pytest.raises(ValueError, match="command time"):
            GpioCommand(float("nan"), 40, ACTIVATE)

    def test_infinite_command_time_is_rejected_at_its_line(self, tmp_path):
        with pytest.raises(ValueError, match="^command time must be finite and >= 0, got inf$"):
            GpioCommand(float("inf"), 40, DEACTIVATE)
        path = tmp_path / "gpio.csv"
        path.write_text("t_s,port,action\n1.0,40,activate\ninf,40,deactivate\n")
        with pytest.raises(ValueError, match="^line 3: command time must be finite and >= 0, got inf$"):
            GpioCommandLog.read_csv(path)

    def test_csv_round_trip(self, tmp_path):
        log = GpioCommandLog(
            (
                GpioCommand(0.125, 40, ACTIVATE),
                GpioCommand(2.5, 40, DEACTIVATE),
            )
        )
        path = tmp_path / "gpio.csv"
        log.write_csv(path)
        assert GpioCommandLog.read_csv(path) == log

    def test_empty_export_is_header_only(self, tmp_path):
        registry, _, _ = make_registry()
        path = tmp_path / "gpio.csv"
        registry.export_log().write_csv(path)
        assert path.read_text() == "t_s,port,action\n"

    def test_one_window_exports_two_rows(self, tmp_path):
        registry, _, clock = make_registry()
        token = registry.acquire(40)
        token.activate()
        clock.advance(1.0)
        token.deactivate()
        path = tmp_path / "gpio.csv"
        registry.export_log().write_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1] == "0.0,40,activate"
        assert lines[2] == "1.0,40,deactivate"


def two_pass_pairs(log):
    """Reference: validate the log in one walk, as the validator did before
    it was folded into the pairing, then pair it in a second walk."""
    last_t = 0.0
    active: dict[int, bool] = {}
    for i, cmd in enumerate(log.entries):
        if cmd.t_s < last_t:
            raise AlternationError(f"entry {i}: commands not sorted by time ({cmd.t_s} after {last_t})")
        last_t = cmd.t_s
        is_active = active.get(cmd.port, False)
        if cmd.action == ACTIVATE and is_active:
            raise AlternationError(f"entry {i}: port {cmd.port} activated twice in a row")
        if cmd.action == DEACTIVATE and not is_active:
            raise AlternationError(f"entry {i}: port {cmd.port} deactivated while inactive")
        active[cmd.port] = cmd.action == ACTIVATE
    dangling = sorted(p for p, a in active.items() if a)
    if dangling:
        raise DanglingWindowError(f"log ends with ports still active: {dangling}")
    open_at: dict[int, float] = {}
    out = []
    for cmd in log.entries:
        if cmd.action == ACTIVATE:
            open_at[cmd.port] = cmd.t_s
        else:
            out.append((open_at.pop(cmd.port), cmd.t_s, cmd.port))
    return sorted(out, key=lambda w: (w[0], w[1]))


def pairs_of(log):
    """The log's pairs as (t_on, t_off, port) tuples."""
    return list(zip(*(column.tolist() for column in log.windows())))


def outcome(pairs, log):
    try:
        return pairs(log)
    except (AlternationError, DanglingWindowError) as exc:
        return type(exc), str(exc)


@st.composite
def edited_logs(draw):
    """Logs that alternate on each of three ports, on a coarse time grid so
    that times repeat, maybe left with a port active, and maybe broken by
    one edit: two entries swapped, one dropped or one action flipped."""
    entries = []
    for port in (40, 43, 46):
        ticks = sorted(draw(st.lists(st.integers(0, 12), max_size=6)))
        entries += [
            GpioCommand(tick * 0.25, port, (ACTIVATE, DEACTIVATE)[k % 2]) for k, tick in enumerate(ticks)
        ]
    entries.sort(key=lambda c: c.t_s)
    edit = draw(st.sampled_from([None, "swap", "drop", "flip"]))
    if entries and edit:
        i, j = (draw(st.integers(0, len(entries) - 1)) for _ in range(2))
        if edit == "swap":
            entries[i], entries[j] = entries[j], entries[i]
        elif edit == "drop":
            del entries[i]
        else:
            cmd = entries[i]
            flipped = DEACTIVATE if cmd.action == ACTIVATE else ACTIVATE
            entries[i] = GpioCommand(cmd.t_s, cmd.port, flipped)
    return GpioCommandLog(entries)


@settings(max_examples=500, deadline=None)
@given(log=edited_logs())
def test_one_walk_finds_what_two_walks_find(log):
    """Pairs, or the first defect's type and message, as the validating walk
    and the pairing walk found them apart."""
    expected = outcome(two_pass_pairs, log)
    assert outcome(pairs_of, log) == expected
    assert outcome(GpioCommandLog.validate, log) == (None if isinstance(expected, list) else expected)


class TestConcurrency:
    def test_single_ownership_under_concurrent_acquires(self):
        registry, _, _ = make_registry()
        winners = []
        losers = []
        barrier = threading.Barrier(16)

        def worker():
            barrier.wait()
            try:
                winners.append(registry.acquire(40))
            except PortOwnershipError:
                losers.append(1)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == 1
        assert len(losers) == 15

    def test_distinct_ports_toggle_concurrently(self):
        registry, _, _ = make_registry()
        errors = []

        def worker(pin):
            try:
                token = registry.acquire(pin)
                for _ in range(50):
                    token.activate()
                    token.deactivate()
                token.release()
            except Exception as exc:  # noqa: BLE001 - collected for assertion
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(pin,)) for pin in KNOWN_PINS]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        log = registry.export_log()
        assert len(log) == 2 * 50 * len(KNOWN_PINS)


class TestBackends:
    def test_file_backend_writes_gpio_value_files(self, tmp_path):
        value = tmp_path / "gpio40_value"
        backend = GpioFileBackend({40: value})
        registry = PortRegistry(backend=backend, clock=FakeClock())
        token = registry.acquire(40)
        token.activate()
        assert value.read_text() == "1"
        token.deactivate()
        assert value.read_text() == "0"

    def test_file_backend_requires_configured_path(self):
        backend = GpioFileBackend({})
        registry = PortRegistry(backend=backend, clock=FakeClock())
        token = registry.acquire(40)
        with pytest.raises(UnknownPortError):
            token.activate()
