"""Acceptance gate: every shipping criterion, one test each, at its stated
tolerance.  Each test prints one `[ACCEPTANCE] name: PASS/FAIL` line (run
with `pytest -s` to see them live).

Reference campaigns: the published means and margins of error were computed
from raw measurements, but the published samples are rounded to 0.01 J or
0.001 J.  The criterion compares each published figure with the statistic
of the raw data, bounded through that rounding: the raw mean lies within h
(half a unit in the samples' last printed place) of the printed samples'
mean, and the raw margin of error within t * h / sqrt(n - 1) of theirs.
This is not a wider gate.  The 0.005 J gate is unchanged; the only extra
allowance is that exact bound, derived from the printed digits, and the
program's own statistics of the printed samples are pinned exactly, so the
allowance cannot hide a mis-computed summary.
"""

import math
import statistics
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from reference_campaigns import REFERENCE_CAMPAIGNS

from joulemark.energy import compare_resolution, integrate_energy, integrate_full
from joulemark.instrument import (
    AlternationError,
    GpioCommand,
    GpioCommandLog,
    PortOwnershipError,
    PortRegistry,
)
from joulemark.segment import match_toggles, segment_relay, segment_trigger
from joulemark.simulate import (
    RELAY,
    TRIGGER,
    ConstantPower,
    NoiseModel,
    RampPower,
    Scenario,
    SpikyPower,
    SwitchingModel,
    WorkloadProfile,
    WorkloadSegment,
    hit_probability,
    instructions_to_duration,
    repeated_toggle_scenario,
    simulate_session,
)
from joulemark.stats import summarize_campaign, t_critical
from joulemark.trace import (
    MeasurementWindow,
    PowerTrace,
    ShuntConfig,
    power_to_shunt_volts,
)

SHUNT = ShuntConfig()


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}")


# --- criterion: reference campaign statistics -------------------------------


def half_unit_in_last_place(printed) -> float:
    """Largest rounding error of figures printed as `printed`: half a unit in
    the last place of the least precise one."""
    return float(
        max(Decimal(5).scaleb(Decimal(x).as_tuple().exponent - 1) for x in printed)
    )


def test_reference_campaign_statistics():
    tolerance = 0.005
    failures = []
    details = []
    for size, printed, ref_mean, ref_me in REFERENCE_CAMPAIGNS:
        samples = [float(x) for x in printed]
        n = len(samples)
        s = summarize_campaign(samples, confidence=0.95)

        # the program's statistics of the printed samples, pinned exactly
        exact_mean = float(sum(Fraction(x) for x in printed) / n)
        if s.mean_j != pytest.approx(exact_mean, rel=1e-12):
            failures.append(f"size {size}: mean {s.mean_j!r} != exact {exact_mean!r}")
        exact_sd = statistics.stdev(samples)
        if s.sd_j != pytest.approx(exact_sd, rel=1e-12):
            failures.append(f"size {size}: sd {s.sd_j!r} != exact {exact_sd!r}")

        # raw samples lie within h of the printed ones: the mean moves by at
        # most h, and since sd(x + d) <= sd(x) + sd(d) <= sd(x) + h*sqrt(n/(n-1)),
        # the margin of error moves by at most t * h / sqrt(n - 1)
        h = half_unit_in_last_place(printed)
        me_rounding = t_critical(n - 1, 0.95) * h / math.sqrt(n - 1)
        mean_diff = abs(s.mean_j - float(ref_mean))
        me_diff = abs(s.me_j - float(ref_me))
        if mean_diff > tolerance + h:
            failures.append(
                f"size {size}: mean {s.mean_j:.4f} vs reference {ref_mean} "
                f"(|diff| {mean_diff:.4f} > {tolerance} + rounding {h:.4f})"
            )
        if me_diff > tolerance + me_rounding:
            failures.append(
                f"size {size}: me {s.me_j:.4f} vs reference {ref_me} "
                f"(|diff| {me_diff:.4f} > {tolerance} + rounding {me_rounding:.4f})"
            )
        details.append(
            f"size {size}: |dmean| {mean_diff:.4f} <= {tolerance} + {h:.4f}, "
            f"|dme| {me_diff:.4f} <= {tolerance} + {me_rounding:.4f}"
        )
    report(
        "reference campaign statistics (means and MEs within 0.005 J "
        "+ the samples' rounding)",
        not failures,
        "; ".join(failures or details),
    )
    assert not failures, failures


# --- criterion: integration exactness ---------------------------------------


def test_integration_exactness():
    checks = []

    # constant: 0.1 V over exactly 1 s is 12 J
    n = 40_001
    trace = PowerTrace(rate_hz=40_000.0, vs=np.full(n, 0.1), shunt=SHUNT)
    e = integrate_energy(trace, MeasurementWindow(0, n)).joules
    checks.append(abs(e - 12.0) / 12.0 <= 1e-12)

    # affine: ramp 0 -> 0.1 V over 1 s is 6 J
    trace = PowerTrace(rate_hz=40_000.0, vs=np.linspace(0.0, 0.1, n), shunt=SHUNT)
    e = integrate_energy(trace, MeasurementWindow(0, n)).joules
    checks.append(abs(e - 6.0) / 6.0 <= 1e-12)

    # sin^2 against its closed form: integral of sin^2(2 pi f t) over [0, 1]
    # is 1/2 - sin(4 pi f)/(8 pi f); at f = 10 the sine term vanishes
    f = 10.0
    expected = (SHUNT.vf / SHUNT.rs) * 0.1 * (
        0.5 - math.sin(4 * math.pi * f) / (8 * math.pi * f)
    )
    t = np.arange(n) / 40_000.0
    trace = PowerTrace(
        rate_hz=40_000.0, vs=0.1 * np.sin(2 * math.pi * f * t) ** 2, shunt=SHUNT
    )
    e = integrate_energy(trace, MeasurementWindow(0, n)).joules
    checks.append(abs(e - expected) / abs(expected) <= 1e-6)

    ok = all(checks)
    report(
        "integration exactness (constant/affine 1e-12, sin^2 1e-6)",
        ok,
        f"constant={checks[0]} affine={checks[1]} sin2={checks[2]}",
    )
    assert ok


# --- criterion: decimation agreement ----------------------------------------


def test_decimation_agreement():
    # band-limited (100 Hz) workload sampled 5000x faster than the meter
    # analog: 20 MHz vs 4 kHz for half a second
    rate_hi = 20_000_000.0
    factor = 5_000
    n = 2_000 * factor + 1
    t = np.arange(n) / rate_hi
    power = 9.0 + 6.0 * np.sin(math.pi * t / 0.01) ** 2  # content at 100 Hz
    trace = PowerTrace(
        rate_hz=rate_hi, vs=power_to_shunt_volts(power, SHUNT), shunt=SHUNT
    )
    cmp = compare_resolution(trace, factor)
    ok = cmp.rel_diff < 0.02
    report(
        "decimation agreement (5000x rate ratio, rel diff < 2%)",
        ok,
        f"e_hi={cmp.e_hi:.6f} J e_lo={cmp.e_lo:.6f} J rel={cmp.rel_diff:.3e}",
    )
    assert ok


# --- criterion: capture-rate curve ------------------------------------------


def _session_hits(iterations: int, circuit: str, tries: int, seed: int) -> int:
    scenario = repeated_toggle_scenario(
        instructions_to_duration(iterations),
        tries,
        circuit,
        gap_s=2e-3,
        seed=seed,
    )
    _, truth = simulate_session(scenario)
    return truth.hits


def test_capture_rate_curve():
    failures = []
    relay_model = SwitchingModel.relay_default()

    # full protocol sweep: 10 toggles per interval, intervals 5K then
    # 25K..450K in 25K steps, pooled over 20 seeds per interval; every
    # pooled rate must sit inside a 99.9% binomial band around the model
    intervals = [5_000] + list(range(25_000, 450_001, 25_000))
    for iterations in intervals:
        p = hit_probability(instructions_to_duration(iterations), relay_model)
        pooled = sum(_session_hits(iterations, RELAY, 10, seed) for seed in range(20))
        rate = pooled / 200
        band = 3.29 * math.sqrt(p * (1 - p) / 200)
        if abs(rate - p) > band:
            failures.append(
                f"relay at {iterations} iters: rate {rate:.3f} outside "
                f"{p:.3f}+/-{band:.3f}"
            )

    # tiny events (5K loop iterations): pooled rate over 1000 seeded
    # sessions of 10 toggles must sit inside the 99% binomial interval
    # around the model probability, and near the observed 3-in-10 rate
    d = instructions_to_duration(5_000)
    p_model = hit_probability(d, relay_model)
    trials = 1_000 * 10
    hits = sum(_session_hits(5_000, RELAY, 10, seed) for seed in range(1_000))
    rate = hits / trials
    half_width = 2.576 * math.sqrt(p_model * (1 - p_model) / trials)
    if abs(rate - p_model) > half_width:
        failures.append(
            f"floor rate {rate:.4f} outside {p_model:.4f}+/-{half_width:.4f}"
        )
    if abs(rate - 0.3) > 0.05:
        failures.append(f"floor rate {rate:.4f} not near 3/10")

    # beyond 325K iterations (975K instructions) the relay never misses
    for iterations in range(325_000, 450_001, 25_000):
        if hit_probability(instructions_to_duration(iterations), relay_model) != 1.0:
            failures.append(f"relay not certain at {iterations} iterations")
        if any(_session_hits(iterations, RELAY, 10, seed) != 10 for seed in range(20)):
            failures.append(f"relay missed at {iterations} iterations")

    # the trigger design is certain from 75K iterations (225K instructions)
    trigger_model = SwitchingModel.trigger_default()
    if hit_probability(instructions_to_duration(75_000), trigger_model) != 1.0:
        failures.append("trigger not certain at 75K iterations")
    for seed in range(20):
        if _session_hits(75_000, TRIGGER, 10, seed) != 10:
            failures.append(f"trigger missed at 75K iterations, seed {seed}")

    report(
        "capture-rate curve (protocol sweep, floor ~3/10, certainty exact)",
        not failures,
        "; ".join(failures) or f"floor rate {rate:.4f} (model {p_model:.4f})",
    )
    assert not failures, failures


# --- criterion: zero-mean idle noise ----------------------------------------


def test_zero_mean_idle_noise():
    rate, duration, bound = 40_000.0, 1.0, 0.001
    n = int(round(rate * duration))
    # analytic standard error of the trapezoidal integral of n iid uniform
    # samples: endpoint weights dt/2, interior weights dt, sigma = b/sqrt(3)
    sigma_e = (1.0 / rate) * (bound / math.sqrt(3.0)) * math.sqrt(n - 1.5)
    energies = []
    for seed in range(100):
        scenario = Scenario.create(
            duration_s=duration,
            circuit=RELAY,
            workload=WorkloadProfile(),
            gpio=GpioCommandLog(),
            noise=NoiseModel(idle_power_bound_w=bound),
            seed=seed,
        )
        trace, _ = simulate_session(scenario)
        energies.append(integrate_full(trace).joules)
    mean_abs = float(np.mean(np.abs(energies)))
    worst = float(np.max(np.abs(energies)))
    ok = mean_abs <= 3.0 * sigma_e and worst <= 0.001
    report(
        "zero-mean idle noise (100 seeded 1 s sessions at 40 kHz)",
        ok,
        f"mean|E|={mean_abs:.3e} J (limit {3 * sigma_e:.3e}), max|E|={worst:.3e} J",
    )
    assert ok


# --- criterion: end-to-end recovery -----------------------------------------


def _random_scenario(rng: np.random.Generator, seed: int) -> Scenario:
    circuit = RELAY if seed % 2 == 0 else TRIGGER
    n_windows = int(rng.integers(1, 4))
    pad = 0.05
    cmds: list[GpioCommand] = []
    segments: list[WorkloadSegment] = []
    cursor = 0.3
    for k in range(n_windows):
        length = float(rng.uniform(0.3, 0.8))
        on, off = cursor, cursor + length
        kind = int(rng.integers(0, 3))
        if kind == 0:
            shape = ConstantPower(float(rng.uniform(8.0, 15.0)))
        elif kind == 1:
            shape = RampPower(float(rng.uniform(5.0, 10.0)), float(rng.uniform(10.0, 15.0)))
        else:
            shape = SpikyPower(
                base_w=float(rng.uniform(6.0, 9.0)),
                peak_w=float(rng.uniform(12.0, 15.0)),
                period_s=float(rng.uniform(0.02, 0.1)),
            )
        segments.append(WorkloadSegment(on - pad, off + pad, shape))
        cmds.append(GpioCommand(on, 40, "activate"))
        cmds.append(GpioCommand(off, 40, "deactivate"))
        cursor = off + 0.3
    return Scenario.create(
        duration_s=cursor + 0.1,
        circuit=circuit,
        workload=WorkloadProfile(tuple(segments)),
        gpio=GpioCommandLog(tuple(cmds)),
        seed=seed,
    )


def test_end_to_end_recovery():
    rng = np.random.default_rng(2026)
    failures = []
    worst_rel = 0.0
    for seed in range(50):
        scenario = _random_scenario(rng, seed)
        trace, truth = simulate_session(scenario)
        windows = (
            segment_relay(trace) if scenario.circuit == RELAY else segment_trigger(trace)
        )
        if len(windows) != len(truth.hit):
            failures.append(
                f"seed {seed}: {len(windows)} windows for {len(truth.hit)} toggles"
            )
            continue
        pairs = zip(truth.begin_s.tolist(), truth.end_s.tolist(), truth.true_joules.tolist())
        for w, (begin_s, end_s, true_joules) in zip(windows, pairs):
            measured = integrate_energy(trace, w).joules
            tolerance = max(
                0.01 * true_joules,
                scenario.noise.idle_power_bound_w * (end_s - begin_s),
            )
            err = abs(measured - true_joules)
            worst_rel = max(worst_rel, err / true_joules)
            if err > tolerance:
                failures.append(
                    f"seed {seed}: window [{begin_s:.3f},{end_s:.3f}]s "
                    f"measured {measured:.4f} J vs true {true_joules:.4f} J"
                )
    report(
        "end-to-end recovery (50 scenarios, error <= max(1%, noise x T))",
        not failures,
        "; ".join(failures[:3]) or f"worst relative error {worst_rel:.2e}",
    )
    assert not failures, failures


# --- criterion: instrumentation protocol ------------------------------------


def test_instrumentation_protocol():
    import threading

    failures = []

    # single ownership under concurrent acquires
    registry = PortRegistry()
    winners: list = []
    barrier = threading.Barrier(12)

    def grab():
        barrier.wait()
        try:
            winners.append(registry.acquire(46))
        except PortOwnershipError:
            pass

    threads = [threading.Thread(target=grab) for _ in range(12)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if len(winners) != 1:
        failures.append(f"{len(winners)} concurrent owners for one port")

    # exported logs alternate per port; a swapped pair is rejected
    clock_t = iter(float(i) * 0.5 for i in range(100))
    reg = PortRegistry(clock=lambda: next(clock_t))
    token = reg.acquire(40)
    for _ in range(3):
        token.activate()
        token.deactivate()
    token.release()
    log = reg.export_log()
    try:
        log.validate()
    except Exception as exc:  # noqa: BLE001
        failures.append(f"exported log rejected: {exc}")
    swapped = list(log.entries)
    swapped[0], swapped[1] = (
        GpioCommand(swapped[0].t_s, 40, "deactivate"),
        GpioCommand(swapped[1].t_s, 40, "activate"),
    )
    try:
        GpioCommandLog(tuple(swapped)).validate()
        failures.append("validator accepted a swapped pair")
    except AlternationError:
        pass

    # replaying the exported log recovers one window per toggle pair at
    # zero latency and zero noise, on both circuits
    duration = 3.5
    for circuit in (RELAY, TRIGGER):
        scenario = Scenario.create(
            duration_s=duration,
            circuit=circuit,
            workload=WorkloadProfile.constant(9.0, 0.0, duration),
            gpio=log,
            switching=SwitchingModel(nominal_latency_s=0.0),
            noise=NoiseModel(idle_power_bound_w=0.0),
            seed=8,
        )
        trace, truth = simulate_session(scenario)
        windows = segment_relay(trace) if circuit == RELAY else segment_trigger(trace)
        if windows != truth.realized_windows() or len(windows) != 3:
            failures.append(f"{circuit}: round trip recovered {len(windows)} windows")
        hit_miss = match_toggles(log, windows, trace.rate_hz)
        if hit_miss.hits != 3:
            failures.append(f"{circuit}: hit/miss matching found {hit_miss.hits}/3")

    report("instrumentation protocol (ownership, alternation, round trip)",
           not failures, "; ".join(failures))
    assert not failures, failures
