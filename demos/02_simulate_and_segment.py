"""Simulate one measurement session per circuit and recover its windows.

The relay circuit shows workload power only while the relay is engaged
(plus idle noise elsewhere, and a 0.5 ms actuation delay); the trigger
circuit records the workload continuously and marks windows on a second
channel.  Both recoveries land within a fraction of a percent of the
analytic ground truth.
"""

from joulemark import (
    ACTIVATE,
    DEACTIVATE,
    GpioCommand,
    GpioCommandLog,
    Scenario,
    SpikyPower,
    WorkloadProfile,
    WorkloadSegment,
    analyze,
    simulate_session,
)

gpio = GpioCommandLog(
    (
        GpioCommand(0.5, 40, ACTIVATE),
        GpioCommand(1.5, 40, DEACTIVATE),
        GpioCommand(2.0, 40, ACTIVATE),
        GpioCommand(2.8, 40, DEACTIVATE),
    )
)
# parallel-sort-style profile: 9 W base with 15 W bursts
workload = WorkloadProfile(
    (WorkloadSegment(0.0, 3.2, SpikyPower(base_w=9.0, peak_w=15.0, period_s=0.05)),)
)

for circuit in ("relay", "trigger"):
    scenario = Scenario(
        duration_s=3.2, circuit=circuit, workload=workload, gpio=gpio, seed=21
    )
    trace, truth = simulate_session(scenario)
    report = analyze(trace, circuit)
    print(f"{circuit}: per-channel rate {trace.rate_hz:.0f} Hz, "
          f"{len(report.windows)} window(s) recovered")
    truths = zip(truth.begin_s.tolist(), truth.end_s.tolist(), truth.true_joules.tolist())
    for measured, (begin_s, end_s, true_joules) in zip(report.joules.tolist(), truths):
        err_pct = 100 * abs(measured - true_joules) / true_joules
        print(
            f"  [{begin_s:.2f}, {end_s:.2f}] s: "
            f"measured {measured:8.4f} J, true {true_joules:8.4f} J "
            f"({err_pct:.3f}% off)"
        )
