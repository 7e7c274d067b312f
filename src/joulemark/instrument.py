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
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

KNOWN_PINS: tuple[int, ...] = (40, 43, 46, 49, 52, 55, 58, 50)

ACTIVATE = "activate"
DEACTIVATE = "deactivate"
_ACTIONS = (ACTIVATE, DEACTIVATE)


class UnknownPortError(ValueError):
    pass


class PortOwnershipError(RuntimeError):
    pass


class StaleTokenError(RuntimeError):
    pass


class AlternationError(ValueError):
    """Per-port activate/deactivate ordering was violated."""


class DanglingWindowError(RuntimeError):
    """A port was released (or a log ended) with a measurement still active."""


@dataclass(frozen=True)
class GpioCommand:
    """One logged toggle: seconds since session start, pin, action."""

    t_s: float
    port: int
    action: str

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}, got {self.action!r}")
        if not (math.isfinite(self.t_s) and self.t_s >= 0):
            raise ValueError(f"command time must be finite and >= 0, got {self.t_s}")
        if not -(2**63) <= self.port < 2**63:  # held as int64 once paired
            raise ValueError(f"port must fit in 64 bits, got {self.port}")


@dataclass(frozen=True)
class GpioCommandLog:
    """Time-ordered toggle commands, strictly alternating per port."""

    entries: tuple[GpioCommand, ...] = ()

    def __post_init__(self):
        # held as a tuple, so the pairing that windows() caches stays true
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def validate(self) -> None:
        """Raise AlternationError/DanglingWindowError on any ordering defect.

        Requirements: entries sorted by time; per port, actions strictly
        alternate starting with activate; no port left active at the end.
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
        last_t = 0.0
        open_at: dict[int, float] = {}  # the activation time of each active port
        out: list[tuple[float, float, int]] = []
        for i, cmd in enumerate(self.entries):
            if cmd.t_s < last_t:
                raise AlternationError(
                    f"entry {i}: commands not sorted by time "
                    f"({cmd.t_s} after {last_t})"
                )
            last_t = cmd.t_s
            if cmd.action == ACTIVATE:
                if cmd.port in open_at:
                    raise AlternationError(
                        f"entry {i}: port {cmd.port} activated twice in a row"
                    )
                open_at[cmd.port] = cmd.t_s
            elif cmd.port in open_at:
                out.append((open_at.pop(cmd.port), cmd.t_s, cmd.port))
            else:
                raise AlternationError(
                    f"entry {i}: port {cmd.port} deactivated while inactive"
                )
        if open_at:
            raise DanglingWindowError(
                f"log ends with ports still active: {sorted(open_at)}"
            )
        out.sort(key=lambda w: (w[0], w[1]))
        pairs = np.array(out, dtype=[("t_on", "f8"), ("t_off", "f8"), ("port", "i8")])
        pairs.flags.writeable = False
        return pairs["t_on"], pairs["t_off"], pairs["port"]

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", newline="\n") as f:
            f.write("t_s,port,action\n")
            for cmd in self.entries:
                f.write(f"{cmd.t_s!r},{cmd.port},{cmd.action}\n")

    @classmethod
    def read_csv(cls, path: str | Path) -> "GpioCommandLog":
        path = Path(path)
        entries: list[GpioCommand] = []
        with path.open("r") as f:
            header = f.readline().rstrip("\n")
            if header != "t_s,port,action":
                raise ValueError(f"unrecognized command-log header: {header!r}")
            for lineno, raw in enumerate(f, start=2):
                text = raw.strip()
                if not text:
                    continue
                parts = text.split(",")
                if len(parts) != 3:
                    raise ValueError(f"line {lineno}: expected 3 columns")
                try:
                    entries.append(
                        GpioCommand(float(parts[0]), int(parts[1]), parts[2])
                    )
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
        return cls(tuple(entries))


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
