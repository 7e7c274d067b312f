"""Instrument a 'program', export its toggle log, and measure it.

The port registry enforces single ownership and per-port alternation, so
exported logs are valid simulator input by construction.  This script
plays a fake workload, replays its log through the trigger circuit, and
prints one energy report per instrumented region.
"""

from joulemark import (
    ACTIVATE,
    DEACTIVATE,
    PortRegistry,
    Scenario,
    WorkloadProfile,
    analyze,
    simulate_session,
)


class ScriptedClock:
    """Session clock that steps through pre-planned instants."""

    def __init__(self, instants):
        self._it = iter(instants)

    def __call__(self):
        return next(self._it)


# token issued at 0.0; regions [0.2, 1.0] and [1.4, 2.1]
registry = PortRegistry(clock=ScriptedClock([0.0, 0.2, 1.0, 1.4, 2.1, 2.2]))
token = registry.acquire(40, owner="main-thread")
token.activate()   # ... first region of interest runs here ...
token.deactivate()
token.activate()   # ... second region ...
token.deactivate()
token.release()

log = registry.export_log()
print("exported commands:")
# the log holds three columns: time, port, and whether the command deactivates
for t_s, port, off in zip(log.t_s.tolist(), log.port.tolist(), log.deactivate.tolist()):
    print(f"  t={t_s:4.1f}s  port {port}  {(ACTIVATE, DEACTIVATE)[off]}")

scenario = Scenario(
    duration_s=2.5,
    circuit="trigger",
    workload=WorkloadProfile.constant(9.0, 0.0, 2.5),
    gpio=log,
    seed=4,
)
trace, _ = simulate_session(scenario)
report = analyze(trace, "trigger", expected=log)
matched = report.hit_miss
print(f"recovered {len(report.windows)} windows; {matched.hits}/{matched.expected} toggles hit")
for window, joules in zip(report.windows, report.joules.tolist()):
    begin_s, end_s = window.begin / report.rate_hz, window.end / report.rate_hz
    mean_w = joules / window.duration_s(report.rate_hz)
    print(f"  [{begin_s:.2f}, {end_s:.2f}] s -> {joules:.3f} J ({mean_w:.2f} W mean)")
