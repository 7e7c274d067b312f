"""Target-side instrumentation: GPIO port ownership, measurement toggling,
and the command log that doubles as simulator input.

A program marks regions of interest by acquiring a GPIO port, toggling it
high (activate) around the region, and releasing it.  Every toggle is
timestamped and appended to a session log; the exported log is the
interoperability point with the session simulator and with hit/miss
matching.

The default pin map covers the eight numeric GPIO pins of Jetson-class
boards (40, 43, 46, 49, 52, 55, 58, 50).  Board sheets also list the
connector names J3A1/J3A2 alongside these; connectors are not registrable
ports here.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .textrows import int_rows, text_rows, value_rows, write_rows
from .trace import fields_equal, row_blocks

KNOWN_PINS: tuple[int, ...] = (40, 43, 46, 49, 52, 55, 58, 50)

ACTIVATE = "activate"
DEACTIVATE = "deactivate"
_ACTIONS = (ACTIVATE, DEACTIVATE)
# the end of a command-log line of each action, as a text row padded with 0
_ACTION_ENDS = text_rows([f",{action}\n" for action in _ACTIONS])
# a command-log line as loadtxt reads it
_CSV_ROW = [("t_s", np.float64), ("port", np.int64), ("action", f"U{len(DEACTIVATE)}")]
# a log's columns: each one's attribute, dtype, the dtype kinds of the
# values it holds (objects only as integers) and that rule in words
_LOG_COLUMNS = (
    ("t_s", np.float64, "iuf", "times must be real numbers"),
    ("port", np.int64, "iuO", "ports must be integers"),
    ("deactivate", np.bool_, "biu", "deactivate flags must be bools or integers"),
)


class UnknownPortError(ValueError):
    pass


class PortOwnershipError(RuntimeError):
    pass


class StaleTokenError(RuntimeError):
    pass


class AlternationError(ValueError):
    """Per-port activate/deactivate ordering was violated."""


class DanglingWindowError(ValueError):
    """A port was released (or a log ended) with a measurement still active."""


@dataclass(frozen=True)
class GpioCommand:
    """One logged toggle: seconds since session start (a number, never a
    bool, held as a float), pin (an integer, never a bool, held as an int)
    and action."""

    t_s: float
    port: int
    action: str

    # Checked inline, not by trace.number's rule: a log may be built one
    # command at a time, and the rule for both fields measured 3.9 us a
    # command against 0.8 us for this check (one Xeon core, Python 3.11).
    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}, got {self.action!r}")
        t = self.t_s
        if type(t) is not float:
            if isinstance(t, bool) or not isinstance(t, numbers.Real):
                raise ValueError(f"command time must be a number, got {t!r}")
            if isinstance(t, np.generic):  # numpy compares a float32 with the float range in float32
                t = t.item()
        if not 0 <= t <= sys.float_info.max:
            raise ValueError(f"command time must be finite and >= 0, got {self.t_s}")
        if type(self.t_s) is not float:
            object.__setattr__(self, "t_s", float(t))
        if type(self.port) is not int:
            if isinstance(self.port, bool) or not isinstance(self.port, numbers.Integral):
                raise ValueError(f"port must be an integer, got {self.port!r}")
            object.__setattr__(self, "port", int(self.port))
        if not -(2**63) <= self.port < 2**63:  # held as int64 in a log
            raise ValueError(f"port must fit in 64 bits, got {self.port}")


@dataclass(frozen=True, eq=False, init=False)
class GpioCommandLog:
    """Time-ordered toggle commands, strictly alternating per port, held as
    three read-only columns with one item per command: ``t_s`` (float64),
    ``port`` (int64) and ``deactivate`` (bool, False for an activate)."""

    t_s: np.ndarray
    port: np.ndarray
    deactivate: np.ndarray

    def __init__(self, entries: Iterable[GpioCommand] = ()):
        entries = tuple(entries)
        for i, entry in enumerate(entries):
            if not isinstance(entry, GpioCommand):
                raise TypeError(f"entry {i} is not a GpioCommand: {entry!r}")
        self._hold([c.t_s for c in entries], [c.port for c in entries], [c.action == DEACTIVATE for c in entries])

    def _hold(self, *columns) -> None:
        """Hold the columns as read-only float64, int64 and bool arrays of one
        length.  Columns of unequal length, a column of values its dtype
        does not hold (a text or bool time, a fractional port) and a time
        not finite and >= 0 raise ValueError; a port beyond int64 raises
        OverflowError."""
        given = [np.asarray(column) for column in columns]
        if len(set(map(len, given))) > 1:
            raise ValueError("command columns differ in length: {} times, {} ports and {} flags".format(*map(len, given)))
        for (name, dtype, kinds, rule), column in zip(_LOG_COLUMNS, given):
            kind = column.dtype.kind if column.size else kinds[0]
            # numpy holds Python ints beyond 64 bits as objects
            if kind not in kinds or kind == "O" and not all(
                isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in column.tolist()
            ):
                raise ValueError(f"command {rule}, got a column of {column.dtype}")
            if kind == "u" and dtype is np.int64 and column.max() > np.iinfo(dtype).max:  # a cast would wrap it
                raise OverflowError(f"command port {column.max()} does not fit in 64 bits")
            column = column.astype(dtype)  # an object beyond int64 raises OverflowError
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for i in np.flatnonzero(~((self.t_s >= 0) & (self.t_s < math.inf)))[:1].tolist():
            raise ValueError(f"command {i}: time must be finite and >= 0, got {self.t_s[i].item()}")

    @classmethod
    def _of_columns(cls, t_s, port, deactivate) -> "GpioCommandLog":
        """The log of columns of times, ports and deactivate flags, checked."""
        log = object.__new__(cls)
        log._hold(t_s, port, deactivate)
        return log

    def __eq__(self, other) -> bool:
        return fields_equal(self, other) if isinstance(other, GpioCommandLog) else NotImplemented

    def __len__(self) -> int:
        return len(self.t_s)

    @property
    def entries(self) -> tuple[GpioCommand, ...]:
        """The commands as GpioCommand objects, built on each access."""
        actions = map(_ACTIONS.__getitem__, self.deactivate.tolist())
        return tuple(map(GpioCommand, self.t_s.tolist(), self.port.tolist(), actions))

    def validate(self) -> None:
        """Raise AlternationError/DanglingWindowError on any ordering defect.

        Requirements: entries sorted by time; per port, actions strictly
        alternate starting with activate; no port left active at the end.
        The first defect in log order is raised, an unsorted time before an
        alternation defect at the same entry.
        """
        self._pairs  # checked while paired

    def windows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The commands paired as read-only arrays ``t_on``, ``t_off``
        (float64) and ``port`` (int64), one item per pair, sorted by start,
        then end.

        The log is validated and paired on the first call only; every call
        returns the same arrays.  An invalid log raises on every call.
        """
        return self._pairs

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t, port, off = self.t_s, self.port, self.deactivate
        # the commands grouped by port, in log order within each port: a
        # command is out of turn where it deactivates a closed port (one it
        # starts, or that a deactivate closed) or activates an open one
        order = np.argsort(port, kind="stable")
        by_port, off_by_port = port[order], off[order]
        starts = np.ones(len(t), dtype=bool)
        starts[1:] = by_port[1:] != by_port[:-1]
        out_of_turn = np.empty_like(starts)
        out_of_turn[order] = off_by_port == (starts | np.roll(off_by_port, 1))
        unsorted = np.zeros_like(starts)
        unsorted[1:] = t[1:] < t[:-1]
        for i in np.flatnonzero(unsorted | out_of_turn)[:1].tolist():
            if unsorted[i]:
                raise AlternationError(
                    f"entry {i}: commands not sorted by time ({t[i].item()} after {t[i - 1].item()})"
                )
            fault = "deactivated while inactive" if off[i] else "activated twice in a row"
            raise AlternationError(f"entry {i}: port {port[i].item()} {fault}")
        open_at_end = np.append(starts[1:], True) & ~off_by_port
        if open_at_end.any():
            raise DanglingWindowError(f"log ends with ports still active: {by_port[open_at_end].tolist()}")
        # each port's commands now alternate activate, deactivate; pairs that
        # tie on start and end keep the order of their deactivates
        on = np.flatnonzero(~off_by_port)
        begin, end = order[on], order[on + 1]
        by_start = np.lexsort((end, t[end], t[begin]))
        pairs = t[begin[by_start]], t[end[by_start]], port[begin[by_start]]
        for column in pairs:
            column.flags.writeable = False
        return pairs

    def write_csv(self, path: str | Path) -> None:
        """Write the log as a command-log CSV: the header, then a line
        ``t_s,port,action`` per command, its time as ``repr`` writes it.
        Each block of rows is written as the trace CSV writer writes its
        rows, the action's text taken from one piece per action."""
        with Path(path).open("w", newline="\n") as f:
            f.write("t_s,port,action\n")
            for start, stop in row_blocks(len(self)):
                actions = _ACTION_ENDS[self.deactivate[start:stop].astype(np.intp)]
                parts = [value_rows(self.t_s[start:stop]), b",", int_rows(self.port[start:stop]), actions]
                write_rows(f, stop - start, [(slice(None), parts)])

    @classmethod
    def read_csv(cls, path: str | Path) -> "GpioCommandLog":
        """Read a command-log CSV by columns; a log that is not clean (a
        blank or respelt line, or a line in error) is read a command at a
        time, where a line in error raises, naming its line."""
        header, _, body = Path(path).read_text().partition("\n")
        if header != "t_s,port,action":
            raise ValueError(f"unrecognized command-log header: {header!r}")
        if not body.endswith("\n"):
            body += "\n"
        lines = body.split("\n")[:-1]
        # by columns where every line ends in an action and loadtxt reads
        # it as three columns: of the times float() reads, loadtxt reads
        # some (no "1_0"), each to the same number; ports are read by int()
        # itself, as a numpy that reads an integer field through float
        # (port "40.5" as 40) only warns that it does so
        if body.count(",activate\n") + body.count(",deactivate\n") == len(lines):
            try:
                rows = np.loadtxt(lines, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1, converters={1: int})
                return cls._of_columns(rows["t_s"], rows["port"], rows["action"] == DEACTIVATE)
            except ValueError:
                pass
        commands = []
        for lineno, raw in enumerate(lines, start=2):
            text = raw.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 3 columns")
            try:
                commands.append(GpioCommand(float(parts[0]), int(parts[1]), parts[2]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return cls(commands)


# --- GPIO backends ----------------------------------------------------------


class GpioBackend:
    """Where toggle levels are written.  Subclasses implement write()."""

    def write(self, port: int, level: bool) -> None:
        raise NotImplementedError


class RecordingBackend(GpioBackend):
    """In-memory recorder; the default when no hardware is attached."""

    def __init__(self):
        self.writes: list[tuple[int, bool]] = []

    def write(self, port: int, level: bool) -> None:
        self.writes.append((port, level))


class GpioFileBackend(GpioBackend):
    """Writes "1"/"0" to a per-port value file (Linux GPIO sysfs layout)."""

    def __init__(self, value_paths: dict[int, str | Path]):
        self.value_paths = {port: Path(p) for port, p in value_paths.items()}

    def write(self, port: int, level: bool) -> None:
        path = self.value_paths.get(port)
        if path is None:
            raise UnknownPortError(f"no value file configured for port {port}")
        path.write_text("1" if level else "0")


# --- port registry ----------------------------------------------------------


class ToggleToken:
    """Capability to toggle one port; issued by PortRegistry.acquire.

    A token may move between threads but must not be used from two threads
    at once.  All checks are delegated to the owning registry; the token is
    live while the registry holds it for its port.
    """

    def __init__(self, registry: "PortRegistry", port: int, owner: str, issued_at: float):
        self._registry = registry
        self.port = port
        self.owner = owner
        self.issued_at = issued_at
        self._active = False  # whether the port is high

    def activate(self) -> GpioCommand:
        return self._registry._toggle(self, ACTIVATE)

    def deactivate(self) -> GpioCommand:
        return self._registry._toggle(self, DEACTIVATE)

    def release(self) -> None:
        self._registry.release(self)


class PortRegistry:
    """Tracks which GPIO ports are in use and logs every toggle.

    Safe for concurrent acquire/release/toggle from many threads; a port
    has at most one live token at any time.
    """

    def __init__(
        self,
        backend: GpioBackend | None = None,
        clock: Callable[[], float] | None = None,
        pins: tuple[int, ...] = KNOWN_PINS,
    ):
        self.backend = backend if backend is not None else RecordingBackend()
        if clock is None:
            t0 = time.monotonic()
            clock = lambda: time.monotonic() - t0  # noqa: E731
        self._clock = clock
        self._pins = tuple(pins)
        self._lock = threading.Lock()
        self._tokens: dict[int, ToggleToken] = {}
        self._log: list[GpioCommand] = []

    def acquire(self, port: int, owner: str = "") -> ToggleToken:
        if port not in self._pins:
            raise UnknownPortError(
                f"port {port} is not a known GPIO pin {self._pins}"
            )
        with self._lock:
            if port in self._tokens:
                raise PortOwnershipError(f"port {port} is already owned")
            token = ToggleToken(self, port, owner, self._clock())
            self._tokens[port] = token
            return token

    def _check_live(self, token: ToggleToken) -> None:
        if self._tokens.get(token.port) is not token:
            raise StaleTokenError(f"token for port {token.port} is no longer live")

    def _toggle(self, token: ToggleToken, action: str) -> GpioCommand:
        with self._lock:
            self._check_live(token)
            if action == ACTIVATE and token._active:
                raise AlternationError(
                    f"port {token.port} is already active; deactivate first"
                )
            if action == DEACTIVATE and not token._active:
                raise AlternationError(
                    f"port {token.port} is not active; activate first"
                )
            cmd = GpioCommand(self._clock(), token.port, action)
            self.backend.write(token.port, action == ACTIVATE)
            token._active = action == ACTIVATE
            self._log.append(cmd)
            return cmd

    def release(self, token: ToggleToken) -> None:
        with self._lock:
            self._check_live(token)
            if token._active:
                raise DanglingWindowError(
                    f"port {token.port} is still active; deactivate before release"
                )
            del self._tokens[token.port]

    def export_log(self) -> GpioCommandLog:
        """Snapshot of the session log, sorted by time."""
        with self._lock:
            entries = sorted(self._log, key=lambda c: c.t_s)
        return GpioCommandLog(tuple(entries))
