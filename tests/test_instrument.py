import math
import re
import threading
import types
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunking import chunk_rows
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


def walk_pairs(log):
    """Reference: validate and pair the log in one walk over its commands,
    holding the activation time of each active port."""
    last_t = 0.0
    open_at: dict[int, float] = {}
    out = []
    for i, cmd in enumerate(log.entries):
        if cmd.t_s < last_t:
            raise AlternationError(f"entry {i}: commands not sorted by time ({cmd.t_s} after {last_t})")
        last_t = cmd.t_s
        if cmd.action == ACTIVATE:
            if cmd.port in open_at:
                raise AlternationError(f"entry {i}: port {cmd.port} activated twice in a row")
            open_at[cmd.port] = cmd.t_s
        elif cmd.port in open_at:
            out.append((open_at.pop(cmd.port), cmd.t_s, cmd.port))
        else:
            raise AlternationError(f"entry {i}: port {cmd.port} deactivated while inactive")
    if open_at:
        raise DanglingWindowError(f"log ends with ports still active: {sorted(open_at)}")
    return sorted(out, key=lambda w: (w[0], w[1]))


EDITS = ("swap", "drop", "flip", "retime", "move")


@st.composite
def edited_logs(draw):
    """Logs that alternate on each of three ports, on a coarse time grid so
    that times repeat within and across ports, maybe left with a port
    active, and maybe broken by up to two edits: two entries swapped, one
    dropped, one action flipped, one given another's time, or one moved.
    Two edits can leave two defects, and a swap or a move can leave one
    entry both unsorted and out of turn."""
    entries = []
    for port in (40, 43, 46):
        ticks = sorted(draw(st.lists(st.integers(0, 12), max_size=6)))
        entries += [
            GpioCommand(tick * 0.25, port, (ACTIVATE, DEACTIVATE)[k % 2]) for k, tick in enumerate(ticks)
        ]
    entries.sort(key=lambda c: c.t_s)
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=2)):
        if not entries:
            break
        i, j = (draw(st.integers(0, len(entries) - 1)) for _ in range(2))
        cmd = entries[i]
        if edit == "swap":
            entries[i], entries[j] = entries[j], entries[i]
        elif edit == "drop":
            del entries[i]
        elif edit == "flip":
            flipped = DEACTIVATE if cmd.action == ACTIVATE else ACTIVATE
            entries[i] = GpioCommand(cmd.t_s, cmd.port, flipped)
        elif edit == "retime":
            entries[i] = GpioCommand(entries[j].t_s, cmd.port, cmd.action)
        else:
            entries.insert(j, entries.pop(i))
    return GpioCommandLog(entries)


@settings(max_examples=500, deadline=None)
@given(log=edited_logs())
def test_one_walk_finds_what_two_walks_find(log):
    """Pairs, or the first defect's type and message, as the validating walk
    and the pairing walk found them apart."""
    expected = outcome(two_pass_pairs, log)
    assert outcome(pairs_of, log) == expected
    assert outcome(GpioCommandLog.validate, log) == (None if isinstance(expected, list) else expected)


@settings(max_examples=1000, deadline=None)
@given(log=edited_logs())
def test_array_checks_find_what_the_walk_finds(log):
    """The same pairs in the same order, or the same first defect with the
    same message, as the walk over the commands."""
    assert outcome(pairs_of, log) == outcome(walk_pairs, log)


class TestFirstDefect:
    def test_of_two_defects_the_first_is_named(self):
        log = GpioCommandLog(
            (GpioCommand(0.1, 40, DEACTIVATE), GpioCommand(0.2, 43, ACTIVATE), GpioCommand(0.3, 43, ACTIVATE))
        )
        with pytest.raises(AlternationError, match=r"^entry 0: port 40 deactivated while inactive$"):
            log.windows()

    def test_unsorted_wins_over_out_of_turn_at_one_entry(self):
        log = GpioCommandLog((GpioCommand(0.2, 40, ACTIVATE), GpioCommand(0.1, 40, ACTIVATE)))
        with pytest.raises(AlternationError, match=r"^entry 1: commands not sorted by time \(0\.1 after 0\.2\)$"):
            log.validate()

    def test_dangling_ports_are_named_in_order(self):
        log = GpioCommandLog((GpioCommand(0.1, 46, ACTIVATE), GpioCommand(0.2, 40, ACTIVATE)))
        with pytest.raises(DanglingWindowError, match=r"^log ends with ports still active: \[40, 46\]$"):
            log.validate()

    def test_pairs_that_tie_keep_the_order_of_their_deactivates(self):
        log = GpioCommandLog(
            (
                GpioCommand(0.1, 46, ACTIVATE),
                GpioCommand(0.1, 40, ACTIVATE),
                GpioCommand(0.2, 46, DEACTIVATE),
                GpioCommand(0.2, 40, DEACTIVATE),
            )
        )
        assert pairs_of(log) == [(0.1, 0.2, 46), (0.1, 0.2, 40)]


class TestPortRule:
    @pytest.mark.parametrize("port", [40.5, 40.0, True, "40", None])
    def test_a_port_that_is_not_an_integer_is_rejected(self, port):
        with pytest.raises(ValueError, match=rf"^port must be an integer, got {re.escape(repr(port))}$"):
            GpioCommand(0.1, port, ACTIVATE)

    def test_integer_port_and_time_are_held_as_int_and_float(self):
        cmd = GpioCommand(np.int64(1), np.int64(40), ACTIVATE)
        assert (type(cmd.t_s), type(cmd.port)) == (float, int)
        assert cmd == GpioCommand(1.0, 40, ACTIVATE)

    def test_integer_time_is_written_as_a_float(self, tmp_path):
        log = GpioCommandLog((GpioCommand(1, 40, ACTIVATE), GpioCommand(2, 40, DEACTIVATE)))
        log.write_csv(tmp_path / "gpio.csv")
        assert (tmp_path / "gpio.csv").read_text() == "t_s,port,action\n1.0,40,activate\n2.0,40,deactivate\n"
        assert [type(cmd.t_s) for cmd in log.entries] == [float, float]


class TestTimeRule:
    @pytest.mark.parametrize("t", [True, False, "0.5", None, [0.5]])
    def test_a_time_that_is_not_a_number_is_rejected(self, t):
        with pytest.raises(ValueError, match=rf"^command time must be a number, got {re.escape(repr(t))}$"):
            GpioCommand(t, 40, ACTIVATE)

    @pytest.mark.parametrize("t", [-0.5, math.nan, math.inf, 10**400, np.float32(-0.5), np.float32(math.inf)])
    def test_a_negative_or_unbounded_time_is_rejected(self, t):
        with pytest.raises(ValueError, match=rf"^command time must be finite and >= 0, got {re.escape(str(t))}$"):
            GpioCommand(t, 40, ACTIVATE)

    @pytest.mark.parametrize("t", [np.float32(0.5), np.float64(0.5), np.int64(1), 1])
    def test_a_numpy_time_is_held_as_a_float_without_a_warning(self, t):
        # numpy compares a float32 with the float range in float32, which overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            command = GpioCommand(t, 40, ACTIVATE)
        assert type(command.t_s) is float and command.t_s == t


class TestLogColumns:
    """A log checks its columns when it is built, by whatever path."""

    @pytest.mark.parametrize("t", [-0.5, math.inf, math.nan])
    def test_a_negative_or_unbounded_time_is_refused_naming_the_first_bad_command(self, t):
        with pytest.raises(ValueError, match=rf"^command 1: time must be finite and >= 0, got {re.escape(str(t))}$"):
            GpioCommandLog._of_columns([0.5, t, -1.0], [40, 40, 40], [False, True, False])

    @pytest.mark.parametrize("port", [2**63, -(2**63) - 1, np.uint64(2**63)])
    def test_a_port_beyond_int64_is_refused(self, port):
        with pytest.raises(OverflowError):
            GpioCommandLog._of_columns([0.5], [port], [False])

    def test_entries_that_are_not_commands_are_refused_naming_the_first(self):
        unchecked = types.SimpleNamespace(t_s=-1.0, port=40, action=ACTIVATE)
        with pytest.raises(TypeError, match=r"^entry 1 is not a GpioCommand: namespace\(t_s=-1.0, port=40, action='activate'\)$"):
            GpioCommandLog([GpioCommand(0.5, 41, ACTIVATE), unchecked, unchecked])

    @pytest.mark.parametrize("column, value, message", [
        ("t_s", "0.5", "command times must be real numbers, got a column of <U3"),
        ("t_s", True, "command times must be real numbers, got a column of bool"),
        ("port", 40.5, "command ports must be integers, got a column of float64"),
        ("port", 40.0, "command ports must be integers, got a column of float64"),
    ], ids=["text time", "bool time", "fractional port", "whole float port"])
    def test_a_column_of_another_kind_is_refused(self, column, value, message):
        columns = {"t_s": [0.5], "port": [40], "deactivate": [False]} | {column: [value]}
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            GpioCommandLog._of_columns(**columns)

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match=r"^command columns differ in length: 1 times, 2 ports and 1 flags$"):
            GpioCommandLog._of_columns([0.5], [40, 40], [False])

    def test_checked_columns_are_held_read_only(self):
        log = GpioCommandLog._of_columns([0, 0.5], np.array([40, 40], dtype=np.int32), [0, 1])
        assert [column.dtype for column in (log.t_s, log.port, log.deactivate)] == [np.float64, np.int64, bool]
        assert not any(column.flags.writeable for column in (log.t_s, log.port, log.deactivate))
        assert log == GpioCommandLog((GpioCommand(0.0, 40, ACTIVATE), GpioCommand(0.5, 40, DEACTIVATE)))


# one defect each: a line of two or four columns (the extra one anywhere,
# so that a line ending in an action reaches loadtxt), a port that int() rejects
# or that does not fit in 64 bits, a time that is NaN, infinite or negative,
# an unknown action, or a blank line, which is skipped
CSV_DEFECTS = {
    "short": lambda t, p, a: f"{t},{p}",
    "long": lambda t, p, a: f"{t},{p},{a},x",
    "inner column": lambda t, p, a: f"{t},{p},1,{a}",
    "leading column": lambda t, p, a: f"1,{t},{p},{a}",
    "bool port": lambda t, p, a: f"{t},True,{a}",
    "text port": lambda t, p, a: f"{t},x,{a}",
    "float port": lambda t, p, a: f"{t},{p}.5,{a}",
    "wide port": lambda t, p, a: f"{t},{2**63},{a}",
    "narrow port": lambda t, p, a: f"{t},{-(2**63) - 1},{a}",
    "nan": lambda t, p, a: f"nan,{p},{a}",
    "huge": lambda t, p, a: f"1e400,{p},{a}",
    "infinity": lambda t, p, a: f"Infinity,{p},{a}",
    "negative": lambda t, p, a: f"-{t or 1},{p},{a}",
    "action": lambda t, p, a: f"{t},{p},toggle",
    "blank": lambda t, p, a: f"{t},{p},{a}\n",
    "spaces": lambda t, p, a: f"  {t},{p},{a}\n \t",
}
# numbers that float() and int() read, written as write_csv does not
CSV_SPELLINGS = [
    lambda t, p, a: f"{t}, {p} ,{a}",
    lambda t, p, a: f" {t} ,{p},{a}",
    lambda t, p, a: f"{t},+{p},{a}",
    lambda t, p, a: f"{t},{p:_},{a}",
    lambda t, p, a: f"1_0.2_5,{p},{a}",
    lambda t, p, a: f"{t},00{p},{a}",
    lambda t, p, a: f"{t:e},{p},{a}",
    lambda t, p, a: f"-0.0,{p},{a}",
]


@st.composite
def command_csv_lines(draw):
    """Data lines of a command-log CSV, from line 2 on, as write_csv writes
    them: a clean log, read by columns, half the time, and otherwise one or
    two lines respelt or given one defect each."""
    rows = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e6, allow_nan=False) | st.integers(0, 10**20),
                st.integers(-(2**63), 2**63 - 1),
                st.sampled_from([ACTIVATE, DEACTIVATE]),
            ),
            max_size=8,
        )
    )
    lines = [f"{t!r},{p},{a}" for t, p, a in rows]
    clean = not lines or draw(st.booleans())
    changed = [] if clean else draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=2, unique=True))
    for i in changed:
        change = draw(st.sampled_from(CSV_SPELLINGS + list(CSV_DEFECTS.values())))
        lines[i] = change(*rows[i])
    return lines + [""]


def csv_commands(lines: list[str]) -> list[GpioCommand]:
    """Parse command-log data lines, from line 2 on, one by one: the
    reference for every value read and every line error."""
    entries: list[GpioCommand] = []
    for lineno, raw in enumerate(lines, start=2):
        text = raw.strip()
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 columns")
        try:
            entries.append(GpioCommand(float(parts[0]), int(parts[1]), parts[2]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return entries


def read_outcome(read):
    try:
        log = read()
    except ValueError as exc:
        return str(exc)
    return tuple(column.dtype.str + column.tobytes().hex() for column in (log.t_s, log.port, log.deactivate))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("log") / "gpio.csv"


@settings(max_examples=500, deadline=None)
@given(lines=command_csv_lines(), newline=st.sampled_from(["\n", "\r\n"]))
def test_one_pass_csv_reader_reads_what_the_line_reader_reads(lines, newline, csv_path):
    """Columns of the same bits, or the same error at the same line, the
    first in error, whether lines end in LF or CRLF.  Deprecation warnings
    are ignored, as outside a test run: a numpy that reads an integer field
    through float only warns that it does."""
    body = "\n".join(lines)
    csv_path.write_bytes(("t_s,port,action\n" + body).replace("\n", newline).encode())
    by_line = read_outcome(lambda: GpioCommandLog(csv_commands(body.split("\n"))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        assert read_outcome(lambda: GpioCommandLog.read_csv(csv_path)) == by_line


def test_a_clean_log_is_read_by_columns(csv_path):
    """16,000 commands reach the log as loadtxt's arrays, no GpioCommand
    built."""
    log = GpioCommandLog._of_columns(np.arange(16_000) / 1e3, np.full(16_000, 40), np.arange(16_000) % 2 == 1)
    log.write_csv(csv_path)
    with mock.patch.object(GpioCommand, "__post_init__", side_effect=AssertionError("GpioCommand built")):
        assert GpioCommandLog.read_csv(csv_path) == log


def per_row_csv(log: GpioCommandLog) -> str:
    """The command-log CSV written a row at a time, each line one f-string:
    the reference for write_csv."""
    rows = zip(log.t_s.tolist(), log.port.tolist(), log.deactivate.tolist())
    return "t_s,port,action\n" + "".join(f"{t!r},{port},{(ACTIVATE, DEACTIVATE)[off]}\n" for t, port, off in rows)


# any command a log holds, in any order: the writer does not validate
any_commands = st.lists(
    st.builds(
        GpioCommand,
        st.floats(0.0, allow_nan=False, allow_infinity=False) | st.just(-0.0) | st.integers(0, 10**20),
        st.integers(-(2**63), 2**63 - 1) | st.sampled_from(KNOWN_PINS),
        st.sampled_from([ACTIVATE, DEACTIVATE]),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(commands=any_commands, block=st.sampled_from([1, 3, 7, None]))
def test_csv_writer_writes_what_the_per_row_writer_wrote(commands, block, csv_path):
    log = GpioCommandLog(commands)
    with chunk_rows(block) if block else nullcontext():
        log.write_csv(csv_path)
    assert csv_path.read_text() == per_row_csv(log)


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
