import functools
import hashlib
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from joulemark import cli, simulate
from joulemark.cli import main
from joulemark.instrument import ACTIVATE, DEACTIVATE, GpioCommand, GpioCommandLog
from joulemark.segment import SegmentationParams, analyze, match_toggles
from joulemark.simulate import (
    RELAY,
    TRIGGER,
    NoiseModel,
    Scenario,
    WorkloadProfile,
    instructions_to_duration,
    load_scenario,
    repeated_toggle_scenario,
    save_scenario,
    simulate_session,
)
from joulemark.trace import PowerTrace, ShuntConfig, read_trace_csv, write_trace_csv


def strict_json(text: str):
    """``json.loads`` that fails on NaN and Infinity, which are not JSON."""

    def reject(word):
        raise ValueError(f"{word} is not JSON")

    return json.loads(text, parse_constant=reject)


def read_json(path):
    return strict_json(Path(path).read_text())


DEMO_SCENARIOS = sorted(Path(__file__).parent.parent.joinpath("demos", "scenarios").glob("*.json"))
GOLDEN_SIMULATE = read_json(Path(__file__).with_name("golden_simulate.json"))
GOLDEN_ANALYZE = read_json(Path(__file__).with_name("golden_analyze.json"))


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_scenario(tmp_path, circuit=TRIGGER, noise_bound=0.001, seed=11):
    scenario = Scenario.create(
        duration_s=3.0,
        circuit=circuit,
        workload=WorkloadProfile.constant(12.0, 0.0, 3.0),
        gpio=GpioCommandLog(
            (GpioCommand(1.0, 40, ACTIVATE), GpioCommand(2.0, 40, DEACTIVATE))
        ),
        noise=NoiseModel(idle_power_bound_w=noise_bound),
        seed=seed,
    )
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    return path


class TestSimulateCommand:
    def test_writes_trace_and_truth(self, tmp_path):
        scenario = write_scenario(tmp_path)
        trace_path = tmp_path / "out.csv"
        truth_path = tmp_path / "truth.json"
        code = main(
            ["simulate", str(scenario), "--out-trace", str(trace_path), "--out-truth", str(truth_path)]
        )
        assert code == 0
        trace = read_trace_csv(trace_path)
        assert len(trace) == 60_000  # 3 s at 20 kHz per channel
        truth = read_json(truth_path)
        assert truth["entries"][0]["true_joules"] == pytest.approx(12.0)

    def test_deterministic_output_bytes(self, tmp_path):
        scenario = write_scenario(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = main(
                ["simulate", str(scenario), "--out-trace", str(out), "--out-truth", str(tmp_path / "t.json")]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_validates_the_gpio_log_once(self, tmp_path, monkeypatch):
        """The walk that validates and pairs the log runs once per simulate."""
        calls = []
        pairs = GpioCommandLog._pairs.func

        def counted(log):
            calls.append(log)
            return pairs(log)

        counted_pairs = functools.cached_property(counted)
        counted_pairs.__set_name__(GpioCommandLog, "_pairs")
        monkeypatch.setattr(GpioCommandLog, "_pairs", counted_pairs)
        scenario = write_scenario(tmp_path)
        calls.clear()  # the helper's own Scenario paired its log when built
        code = main(
            ["simulate", str(scenario), "--out-trace", str(tmp_path / "o.csv"), "--out-truth", str(tmp_path / "t.json")]
        )
        assert code == 0
        assert len(calls) == 1

    def test_invalid_scenario_names_entry(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        obj = read_json(path)
        obj["gpio"][1]["t_s"] = 9.0  # beyond the 3 s session
        path.write_text(json.dumps(obj))
        code = main(
            ["simulate", str(path), "--out-trace", str(tmp_path / "o.csv"), "--out-truth", str(tmp_path / "t.json")]
        )
        assert code == 2
        assert "entry 1" in capsys.readouterr().err


class TestSimulateGoldenBytes:
    """Length and sha256 of the trace CSV and truth JSON that CLI simulate
    writes for each demo scenario, as the simulator wrote them before its
    workload was evaluated in blocks."""

    def test_every_demo_scenario_has_a_golden_entry(self):
        assert sorted(p.stem for p in DEMO_SCENARIOS) == sorted(GOLDEN_SIMULATE)

    @pytest.mark.parametrize("scenario", DEMO_SCENARIOS, ids=lambda p: p.stem)
    def test_trace_and_truth_bytes(self, tmp_path, scenario):
        trace_path, truth_path = tmp_path / "trace.csv", tmp_path / "truth.json"
        code = main(
            ["simulate", str(scenario), "--out-trace", str(trace_path), "--out-truth", str(truth_path)]
        )
        assert code == 0
        golden = GOLDEN_SIMULATE[scenario.stem]
        for kind, path in (("trace", trace_path), ("truth", truth_path)):
            data = path.read_bytes()
            assert len(data) == golden[f"{kind}_bytes"], kind
            assert hashlib.sha256(data).hexdigest() == golden[f"{kind}_sha256"], kind


class TestAnalyzeGoldenBytes:
    """sha256 of the report and skyline that CLI analyze writes for each demo
    scenario's simulated trace, with and without the scenario's own GPIO log
    as --expected, as written before the analysis moved into the library."""

    def test_every_demo_scenario_has_a_golden_entry(self):
        assert sorted(GOLDEN_ANALYZE["analyze"]) == sorted(
            f"{p.stem}{suffix}" for p in DEMO_SCENARIOS for suffix in ("", " --expected")
        )

    @pytest.mark.parametrize("expected", [False, True], ids=["plain", "expected"])
    @pytest.mark.parametrize("scenario", DEMO_SCENARIOS, ids=lambda p: p.stem)
    def test_report_and_skyline_bytes(self, tmp_path, scenario, expected):
        trace_path = tmp_path / "trace.csv"
        code = main(
            ["simulate", str(scenario), "--out-trace", str(trace_path), "--out-truth", str(tmp_path / "t.json")]
        )
        assert code == 0
        loaded = load_scenario(scenario)
        flags = []
        if expected:
            loaded.gpio.write_csv(tmp_path / "expected.csv")
            flags = ["--expected", str(tmp_path / "expected.csv")]
        report, skyline = tmp_path / "report.json", tmp_path / "skyline.csv"
        code = main(
            ["analyze", str(trace_path), "--mode", loaded.circuit, "--out", str(report), "--skyline", str(skyline), *flags]
        )
        assert code == 0
        golden = GOLDEN_ANALYZE["analyze"][scenario.stem + (" --expected" if expected else "")]
        assert {"report_sha256": sha256_of(report), "skyline_sha256": sha256_of(skyline)} == golden


class TestCampaignGoldenBytes:
    """The CSV and stdout of a five-run CLI campaign of each demo scenario.

    The margin of error and interval are pinned as numbers and the rest of
    stdout as a digest, so that a change of the t quantile shows in the
    golden file as exactly those values and the CSV's last cell."""

    @pytest.mark.parametrize("scenario", DEMO_SCENARIOS, ids=lambda p: p.stem)
    def test_csv_and_stdout(self, tmp_path, capsys, scenario):
        out = tmp_path / "campaign.csv"
        assert main(["campaign", str(scenario), "--runs", "5", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        report = strict_json(stdout)
        # stdout is exactly what json writes for the values it holds
        assert json.dumps(report, indent=2) + "\n" == stdout
        campaign = report["campaign"]
        me_j, ci = campaign.pop("me_j"), campaign.pop("ci")
        rest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
        golden = GOLDEN_ANALYZE["campaign"][scenario.stem]
        assert out.read_text() == golden["csv"]
        assert (me_j, ci) == (golden["me_j"], golden["ci"])
        assert rest == golden["stdout_sha256_without_me_j_and_ci"]


class TestAnalyzeCommand:
    def _simulate(self, tmp_path, **kwargs):
        scenario = write_scenario(tmp_path, **kwargs)
        trace_path = tmp_path / "trace.csv"
        assert (
            main(
                ["simulate", str(scenario), "--out-trace", str(trace_path), "--out-truth", str(tmp_path / "truth.json")]
            )
            == 0
        )
        return trace_path

    def test_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["analyze", "t.csv", "--mode", RELAY, "--out", "r.json"])
        params = SegmentationParams(
            args.threshold_w, args.min_window, args.trigger_threshold_v, args.match_tolerance_s
        )
        assert params == inspect.signature(analyze).parameters["params"].default == SegmentationParams()
        assert args.match_tolerance_s == inspect.signature(match_toggles).parameters["tolerance_s"].default

    @pytest.mark.parametrize("skyline", [False, True], ids=["report", "skyline"])
    @pytest.mark.parametrize("scenario", DEMO_SCENARIOS, ids=lambda p: p.stem)
    def test_a_trace_on_standard_input_gives_the_bytes_of_its_file(self, tmp_path, monkeypatch, scenario, skyline):
        trace_path = tmp_path / "trace.csv"
        code = main(["simulate", str(scenario), "--out-trace", str(trace_path), "--out-truth", str(tmp_path / "t.json")])
        assert code == 0
        written = {}
        for source in (str(trace_path), "-"):
            out = tmp_path / ("stdin" if source == "-" else "file")
            out.mkdir()
            flags = ["--skyline", str(out / "skyline.csv")] if skyline else []
            with trace_path.open() as f:
                monkeypatch.setattr("sys.stdin", f)
                args = ["analyze", source, "--mode", load_scenario(scenario).circuit, "--out", str(out / "report.json")]
                assert main([*args, *flags]) == 0
            written[source] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(written["-"]) == (["report.json", "skyline.csv"] if skyline else ["report.json"])
        assert written["-"] == written[str(trace_path)]

    def test_a_two_channel_trace_on_standard_input_in_relay_mode_exits_2(self, tmp_path, monkeypatch, capsys):
        trace_path = self._simulate(tmp_path)  # a trigger session: two channels
        monkeypatch.setattr("sys.stdin", io.StringIO(trace_path.read_text()))
        capsys.readouterr()
        assert main(["analyze", "-", "--mode", RELAY, "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "error: relay segmentation expects a single-channel trace; this trace has a trigger channel\n"
        )
        assert not (tmp_path / "r.json").exists()

    def test_trigger_analysis_recovers_12_joules(self, tmp_path):
        trace_path = self._simulate(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["analyze", str(trace_path), "--mode", "trigger", "--out", str(report_path)])
        assert code == 0
        report = read_json(report_path)
        assert len(report["results"]) == 1
        assert report["results"][0]["energy"]["joules"] == pytest.approx(12.0, rel=1e-3)
        assert report["hit_miss"] is None

    def test_one_sample_window_is_analyzed(self, tmp_path, capsys):
        # demo 03's 25K-instruction trigger sweep, whose first window holds one sample
        scenario = repeated_toggle_scenario(instructions_to_duration(25_000), 10, TRIGGER, seed=25_000)
        trace_path, report_path = tmp_path / "trace.csv", tmp_path / "report.json"
        write_trace_csv(simulate_session(scenario)[0], trace_path)
        assert main(["analyze", str(trace_path), "--mode", TRIGGER, "--out", str(report_path)]) == 0
        assert capsys.readouterr().err == ""
        first = read_json(report_path)["results"][0]
        assert first["window"] == {"begin_idx": 40, "end_idx": 41}
        assert first["energy"]["joules"] == pytest.approx(12.0 / 20_000.0, rel=1e-12)

    def test_report_joules_lie_within_the_skyline_envelope(self, tmp_path):
        trace_path = self._simulate(tmp_path, circuit=RELAY)
        report_path = tmp_path / "report.json"
        skyline_path = tmp_path / "sky.csv"
        code = main(
            ["analyze", str(trace_path), "--mode", "relay", "--out", str(report_path), "--skyline", str(skyline_path)]
        )
        assert code == 0
        trace = read_trace_csv(trace_path)
        n, rate = len(trace), trace.rate_hz
        rows = np.loadtxt(skyline_path, delimiter=",", skiprows=1)
        assert len(rows) <= 4 * cli.SKYLINE_BUCKETS < n
        s = -(-n // cli.SKYLINE_BUCKETS)
        bucket = np.rint(rows[:, 0] * rate).astype(np.int64) // s
        heads = np.flatnonzero(np.diff(bucket, prepend=-1))
        assert bucket[heads].tolist() == list(range(-(-n // s)))
        lengths = np.minimum(s, n - bucket[heads] * s)
        low = float(np.sum(lengths * np.minimum.reduceat(rows[:, 1], heads))) / rate
        high = float(np.sum(lengths * np.maximum.reduceat(rows[:, 1], heads))) / rate
        # every sample's energy lies within its bucket's written extremes,
        # and the full trace holds the window energy plus idle-noise residue
        residue = 0.001 * 3.0
        assert low - residue <= read_json(report_path)["total_joules"] <= high + residue

    def test_skyline_only_on_request(self, tmp_path, capsys):
        trace_path = self._simulate(tmp_path)
        capsys.readouterr()
        report_path, skyline_path = tmp_path / "report.json", tmp_path / "sky.csv"
        assert main(["analyze", str(trace_path), "--mode", "trigger", "--out", str(report_path)]) == 0
        assert capsys.readouterr().out == f"wrote {report_path} (1 window(s))\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "scenario.json", "trace.csv", "truth.json"]
        flags = ["--skyline", str(skyline_path)]
        assert main(["analyze", str(trace_path), "--mode", "trigger", "--out", str(report_path), *flags]) == 0
        assert capsys.readouterr().out == f"wrote {report_path} (1 window(s)) and skyline {skyline_path}\n"
        assert skyline_path.read_text().startswith("t_s,watts\n")

    def test_expected_log_produces_hit_miss(self, tmp_path):
        trace_path = self._simulate(tmp_path, circuit=RELAY)
        gpio_path = tmp_path / "gpio.csv"
        GpioCommandLog(
            (GpioCommand(1.0, 40, ACTIVATE), GpioCommand(2.0, 40, DEACTIVATE))
        ).write_csv(gpio_path)
        report_path = tmp_path / "report.json"
        code = main(
            ["analyze", str(trace_path), "--mode", "relay", "--out", str(report_path), "--expected", str(gpio_path)]
        )
        assert code == 0
        report = read_json(report_path)
        assert report["hit_miss"]["expected"] == 1
        assert report["hit_miss"]["hits"] == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"--rate": "25000.0"},
            {"--vf": "5.0"},
            {"--rate": "25000.0", "--vf": "5.0", "--shunt-r": "0.25"},
        ],
        ids=["rate", "vf", "all"],
    )
    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    def test_overrides_share_the_read_trace(self, tmp_path, monkeypatch, overrides, stdin):
        """An overridden analysis writes the bytes of an analysis of a file
        that holds the same samples at the new rate, supply and shunt, and
        the trace it analyzes shares the read trace's arrays; a trace on
        standard input is read by the same reader as a file."""
        trace_path = self._simulate(tmp_path)
        trace = read_trace_csv(trace_path)
        relabelled = tmp_path / "relabelled.csv"
        write_trace_csv(
            PowerTrace(
                rate_hz=float(overrides.get("--rate", trace.rate_hz)),
                vs=trace.vs,
                trig=trace.trig,
                shunt=ShuntConfig(
                    vf=float(overrides.get("--vf", trace.shunt.vf)),
                    rs=float(overrides.get("--shunt-r", trace.shunt.rs)),
                ),
            ),
            relabelled,
        )
        expected = tmp_path / "expected.json"
        skyline = ["--skyline", str(expected.with_suffix(".skyline.csv"))]
        assert main(["analyze", str(relabelled), "--mode", "trigger", "--out", str(expected), *skyline]) == 0

        seen = {}
        read, analyze = cli.read_trace_csv, cli.analyze
        monkeypatch.setattr(
            cli, "read_trace_csv", lambda source: seen.setdefault("read", read(seen.setdefault("source", source)))
        )
        monkeypatch.setattr(
            cli, "analyze", lambda trace, *a: analyze(seen.setdefault("analyzed", trace), *a)
        )
        out = tmp_path / "overridden.json"
        flags = [part for pair in overrides.items() for part in pair]
        flags += ["--skyline", str(out.with_suffix(".skyline.csv"))]
        with trace_path.open() as f:
            monkeypatch.setattr("sys.stdin", f)
            source = "-" if stdin else str(trace_path)
            assert main(["analyze", source, "--mode", "trigger", "--out", str(out), *flags]) == 0
        assert seen["source"] is f if stdin else seen["source"] == str(trace_path)
        assert out.read_bytes() == expected.read_bytes()
        assert (
            out.with_suffix(".skyline.csv").read_bytes()
            == expected.with_suffix(".skyline.csv").read_bytes()
        )
        analyzed = seen["analyzed"]
        assert analyzed is not seen["read"]
        assert np.shares_memory(analyzed.vs, seen["read"].vs)
        assert np.shares_memory(analyzed.trig, seen["read"].trig)
        assert not analyzed.vs.flags.writeable and not analyzed.trig.flags.writeable

    @pytest.mark.parametrize(
        "rate, defect",
        [
            ("0", "non-positive rate"),
            ("-20000", "non-positive rate"),
            ("inf", "non-finite rate"),
            ("nan", "non-finite rate"),
        ],
    )
    def test_rate_override_is_validated(self, tmp_path, capsys, rate, defect):
        # refused when the overridden trace is built, as --vf and --shunt-r are
        trace_path = self._simulate(tmp_path)
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = main(["analyze", str(trace_path), "--mode", "trigger", "--out", str(out), "--rate", rate])
        assert code == 2
        assert capsys.readouterr().err == f"error: sampling rate must be finite and positive, got {float(rate)}\n"
        assert not out.exists()

    def test_each_violation_is_an_error_line(self, tmp_path, capsys):
        trace_path = self._simulate(tmp_path)
        lines = trace_path.read_text().splitlines()
        row = lines.index("t_s,vs_v,trig_v") + 5
        t_s, _, trig = lines[row].split(",")
        lines[row] = f"{t_s},inf,{trig}"
        t_s, vs, _ = lines[row + 2].split(",")
        lines[row + 2] = f"{t_s},{vs},nan"
        trace_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = main(["analyze", str(trace_path), "--mode", "trigger", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "error: sample 4: non-finite shunt voltage\nerror: sample 6: non-finite trigger voltage\n"
        )

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trigger-threshold-v", "nan", "trigger logic threshold must be finite, got nan"),
            ("--trigger-threshold-v", "inf", "trigger logic threshold must be finite, got inf"),
            ("--match-tolerance-s", "nan", "match tolerance must be finite and >= 0, got nan"),
            ("--match-tolerance-s", "inf", "match tolerance must be finite and >= 0, got inf"),
            ("--match-tolerance-s", "-0.001", "match tolerance must be finite and >= 0, got -0.001"),
            ("--threshold-w", "nan", "relay threshold must be finite and positive, got nan"),
            ("--threshold-w", "inf", "relay threshold must be finite and positive, got inf"),
        ],
    )
    def test_non_finite_parameters_exit_2(self, tmp_path, capsys, flag, value, message):
        """A NaN or infinite parameter would reach the report as a bare NaN or
        Infinity, which is not JSON."""
        trace_path = self._simulate(tmp_path)
        out = tmp_path / "r.json"
        code = main(["analyze", str(trace_path), "--mode", "trigger", "--out", str(out), flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_overflowing_energy_exits_2_without_a_report(self, tmp_path, capsys):
        """Ten finite samples whose energy overflows would reach the report
        as Infinity, which is not JSON."""
        trace_path, out = tmp_path / "trace.csv", tmp_path / "r.json"
        write_trace_csv(PowerTrace(rate_hz=20_000.0, vs=np.full(10, 1e307)), trace_path)
        code = main(["analyze", str(trace_path), "--mode", "relay", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "error: window 0 [0, 10): joules is inf, not finite\n"

    def test_mode_channel_mismatch_fails(self, tmp_path, capsys):
        trace_path = self._simulate(tmp_path, circuit=RELAY)  # 1-channel trace
        code = main(
            ["analyze", str(trace_path), "--mode", "trigger", "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert "trigger" in capsys.readouterr().err

    def test_empty_segmentation_still_succeeds(self, tmp_path):
        scenario = Scenario.create(
            duration_s=1.0,
            circuit=RELAY,
            workload=WorkloadProfile(),
            gpio=GpioCommandLog(),
            seed=1,
        )
        spath = tmp_path / "idle.json"
        save_scenario(scenario, spath)
        trace_path = tmp_path / "idle.csv"
        main(["simulate", str(spath), "--out-trace", str(trace_path), "--out-truth", str(tmp_path / "t.json")])
        report_path = tmp_path / "r.json"
        code = main(["analyze", str(trace_path), "--mode", "relay", "--out", str(report_path)])
        assert code == 0
        report = read_json(report_path)
        assert report["results"] == []
        assert any("no measurement windows" in w for w in report["warnings"])


class TestCampaignCommand:
    def test_five_runs_produce_table_row(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, circuit=RELAY)
        out = tmp_path / "campaign.csv"
        code = main(["campaign", str(scenario), "--runs", "5", "--out", str(out)])
        assert code == 0
        data_line = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        cells = data_line.split(",")
        assert len(cells) == 7  # 5 samples, mean, margin of error
        samples = [float(c) for c in cells[:5]]
        assert all(abs(s - 12.0) < 0.1 for s in samples)
        stdout_report = strict_json(capsys.readouterr().out)
        assert stdout_report["campaign"]["n"] == 5
        assert len(stdout_report["results"]) == 1

    def test_single_run_is_insufficient(self, tmp_path, capsys, monkeypatch):
        self.assert_fails_before_any_run(tmp_path, capsys, monkeypatch, "1", 1)

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_no_runs_say_got_0(self, tmp_path, capsys, monkeypatch, runs):
        self.assert_fails_before_any_run(tmp_path, capsys, monkeypatch, runs, 0)

    @pytest.mark.parametrize("confidence", ["1.5", "0", "1", "-0.2", "nan"])
    def test_confidence_outside_0_1_fails_before_any_run(self, tmp_path, capsys, monkeypatch, confidence):
        scenario = write_scenario(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "simulate_session", lambda *args: calls.append(args))
        out = tmp_path / "c.csv"
        argv = ["campaign", str(scenario), "--runs", "5", "--confidence", confidence, "--out", str(out)]
        assert main(argv) == 2
        got = float(confidence)
        assert capsys.readouterr().err == f"error: confidence must be in (0, 1), got {got}\n"
        assert calls == [] and not out.exists()

    @staticmethod
    def assert_fails_before_any_run(tmp_path, capsys, monkeypatch, runs, got):
        """A counting stand-in for simulate_session must see no call."""
        scenario = write_scenario(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "simulate_session", lambda *args: calls.append(args))
        out = tmp_path / "c.csv"
        assert main(["campaign", str(scenario), "--runs", runs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: campaign summary needs at least 2 samples, got {got}\n"
        assert calls == [] and not out.exists()

    def test_zero_noise_gives_zero_margin(self, tmp_path):
        scenario = write_scenario(tmp_path, circuit=RELAY, noise_bound=0.0)
        out = tmp_path / "campaign.csv"
        code = main(["campaign", str(scenario), "--runs", "5", "--out", str(out)])
        assert code == 0
        data_line = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert float(data_line.split(",")[-1]) == 0.0

    def test_no_capture_in_any_run_gives_null_variation(self, tmp_path, capsys):
        scenario = Path(__file__).parent.parent / "demos" / "scenarios" / "relay_miss_sweep.json"
        out = tmp_path / "c.csv"
        assert main(["campaign", str(scenario), "--runs", "2", "--seed", "4", "--out", str(out)]) == 0
        campaign = strict_json(capsys.readouterr().out)["campaign"]
        assert campaign["samples"] == [0.0, 0.0] and campaign["variation_pct"] is None


class TestStatsCommand:
    def test_summarizes_joule_file(self, tmp_path, capsys):
        values = tmp_path / "joules.txt"
        values.write_text("26.712 29.644 27.567 28.623 27.453\n")
        code = main(["stats", str(values)])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["mean_j"] == pytest.approx(28.000, abs=1e-3)
        assert payload["me_j"] == pytest.approx(1.421, abs=1e-3)

    def test_writes_optional_output_file(self, tmp_path):
        values = tmp_path / "joules.txt"
        values.write_text("1.0, 2.0, 3.0\n")
        out = tmp_path / "summary.json"
        assert main(["stats", str(values), "--out", str(out)]) == 0
        assert read_json(out)["n"] == 3

    def test_zero_mean_gives_null_variation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 -1\n"))
        out = tmp_path / "summary.json"
        assert main(["stats", "-", "--out", str(out)]) == 0
        for payload in (strict_json(capsys.readouterr().out), read_json(out)):
            assert payload["mean_j"] == 0.0 and payload["variation_pct"] is None

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    def test_a_value_that_is_no_number_names_its_input_and_position(self, tmp_path, capsys, monkeypatch, stdin):
        text = "26.7, 29.6\n27.5 abc 28.6\n"
        values = tmp_path / "joules.txt"
        values.write_text(text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        source = "-" if stdin else str(values)
        assert main(["stats", source]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {source}: value 4 is not a number: 'abc'\n"

    @pytest.mark.parametrize("values", ["1e200 1.5e200", "1e308 1.7e308"])
    def test_summary_beyond_the_float_range_is_a_data_error(self, capsys, monkeypatch, values):
        monkeypatch.setattr("sys.stdin", io.StringIO(values))
        assert main(["stats", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: campaign summary is beyond the float range")


class TestValidateCommand:
    def test_good_trace(self, tmp_path):
        trace_path = TestAnalyzeCommand()._simulate(tmp_path)
        assert main(["validate", str(trace_path)]) == 0

    def test_corrupt_trace(self, tmp_path, capsys):
        trace_path = TestAnalyzeCommand()._simulate(tmp_path)
        text = trace_path.read_text().splitlines()
        text[10] = "0.0003,nan,0.0"
        trace_path.write_text("\n".join(text) + "\n")
        code = main(["validate", str(trace_path)])
        assert code == 2

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_non_finite_column_is_one_error_line(self, tmp_path, capsys, command):
        trace_path = TestAnalyzeCommand()._simulate(tmp_path)
        lines = trace_path.read_text().splitlines()
        first = lines.index("t_s,vs_v,trig_v") + 1
        for i in range(first, len(lines)):
            t_s, _, trig = lines[i].split(",")
            lines[i] = f"{t_s},nan,{trig}"
        trace_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        flags = ["--mode", "trigger", "--out", str(tmp_path / "r.json")] if command == "analyze" else []
        assert main([command, str(trace_path), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith(f"sample 0: first of {len(lines) - first} non-finite shunt voltages")

    @pytest.mark.parametrize("line, value", [(1, "rate_hz=inf"), (2, "vf=nan"), (3, "rs=0")])
    def test_bad_preamble_value_exits_2_at_its_line(self, tmp_path, capsys, line, value):
        trace_path = TestAnalyzeCommand()._simulate(tmp_path)
        text = trace_path.read_text().splitlines()
        text[line - 1] = f"# {value}"
        trace_path.write_text("\n".join(text) + "\n")
        assert main(["validate", str(trace_path)]) == 2
        assert f"line {line}: preamble {value.split('=')[0]!r} must be finite" in capsys.readouterr().err

    def test_repeated_preamble_key_exits_2_at_its_line(self, tmp_path, capsys):
        trace_path = TestAnalyzeCommand()._simulate(tmp_path)
        lines = trace_path.read_text().splitlines()
        assert lines[0].startswith("# rate_hz=")
        lines.insert(3, "# rate_hz=20000.0")  # after vf and rs, before the header
        trace_path.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 4: preamble 'rate_hz' is given twice\n"

    def test_good_and_bad_scenarios(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["validate", str(path)]) == 0
        obj = read_json(path)
        del obj["duration_s"]
        path.write_text(json.dumps(obj))
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("command", ["validate", "simulate", "campaign"])
    def test_noise_bound_above_half_the_float_range_exits_2(self, tmp_path, capsys, command):
        """Such a bound's noise draw would span more than the float range."""
        path = write_scenario(tmp_path, circuit=RELAY)
        obj = read_json(path)
        obj["noise"]["idle_power_bound_w"] = 1e308
        path.write_text(json.dumps(obj))
        flags = {
            "validate": [],
            "simulate": ["--out-trace", str(tmp_path / "o.csv"), "--out-truth", str(tmp_path / "t.json")],
            "campaign": ["--runs", "3", "--out", str(tmp_path / "c.csv")],
        }[command]
        assert main([command, str(path), *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: $.noise: noise bound must be a number in [0, {sys.float_info.max / 2}], got 1e+308\n"
        )

    @pytest.mark.parametrize(
        "duration_s, message",
        [
            (1e16, "session of 1e+16s at 40000.0Hz spans 4e+20 samples, not 1 to 2**63 - 1"),
            # 4e14 samples fit an int64 index but no memory: 9 bytes a
            # sample, the shunt channel's 8 and the window mask's 1
            (1e10, "session of 10000000000.0s at 40000.0Hz needs 3600000000000000 bytes of samples, "
                   "more than the {memory} bytes of physical memory"),
        ],
        ids=["past-the-index", "past-memory"],
    )
    @pytest.mark.parametrize("command", ["validate", "simulate", "campaign"])
    def test_a_session_too_long_to_simulate_exits_2(self, tmp_path, capsys, command, duration_s, message):
        memory = simulate._physical_memory()
        if memory is None and "{memory}" in message:
            pytest.skip("os.sysconf does not give this host's physical memory")
        path = write_scenario(tmp_path, circuit=RELAY)
        obj = read_json(path)
        obj["duration_s"] = duration_s
        path.write_text(json.dumps(obj))
        flags = {
            "validate": [],
            "simulate": ["--out-trace", str(tmp_path / "o.csv"), "--out-truth", str(tmp_path / "t.json")],
            "campaign": ["--runs", "3", "--out", str(tmp_path / "c.csv")],
        }[command]
        capsys.readouterr()
        assert main([command, str(path), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message.format(memory=memory)}\n"

    @pytest.mark.parametrize("circuit, samples, per_sample", [(RELAY, 120_000, 9), (TRIGGER, 60_000, 17)])
    def test_a_session_is_held_to_the_physical_memory(self, tmp_path, capsys, monkeypatch, circuit, samples, per_sample):
        """8 bytes a sample a channel and a one-byte window mask must fit."""
        path = write_scenario(tmp_path, circuit=circuit)
        rate = 40_000.0 / (1 if circuit == RELAY else 2)
        needed = samples * per_sample
        monkeypatch.setattr(simulate, "_physical_memory", lambda: needed - 1)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: session of 3.0s at {rate}Hz needs {needed} bytes of samples, "
            f"more than the {needed - 1} bytes of physical memory\n"
        )
        monkeypatch.setattr(simulate, "_physical_memory", lambda: needed)
        assert main(["validate", str(path)]) == 0

    def test_a_host_that_cannot_say_its_memory_is_not_checked(self, tmp_path, monkeypatch):
        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(simulate.os, "sysconf", unknown)
        assert simulate._physical_memory() is None
        path = write_scenario(tmp_path, circuit=RELAY)
        obj = read_json(path)
        obj["duration_s"] = 1e10
        path.write_text(json.dumps(obj))
        assert main(["validate", str(path)]) == 0

    def test_largest_noise_bound_simulates(self, tmp_path):
        path = write_scenario(tmp_path, circuit=RELAY, noise_bound=sys.float_info.max / 2)
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "o.csv"
        assert main(["simulate", str(path), "--out-trace", str(out), "--out-truth", str(tmp_path / "t.json")]) == 0
        assert main(["validate", str(out)]) == 0

    def test_scenario_with_dangling_activate_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        obj = read_json(path)
        obj["gpio"] = obj["gpio"][:1]  # activate without deactivate
        path.write_text(json.dumps(obj))
        assert main(["validate", str(path)]) == 2
        assert "active" in capsys.readouterr().err

    def test_expected_log_with_infinite_time_exits_2(self, tmp_path, capsys):
        """An infinite command time would reach the report as a bare
        Infinity, which is not JSON."""
        trace_path = TestAnalyzeCommand()._simulate(tmp_path, circuit=RELAY)
        gpio_path = tmp_path / "gpio.csv"
        gpio_path.write_text("t_s,port,action\n1.0,40,activate\ninf,40,deactivate\n")
        out, skyline = tmp_path / "r.json", tmp_path / "sky.csv"
        code = main(
            ["analyze", str(trace_path), "--mode", "relay", "--out", str(out), "--skyline", str(skyline), "--expected", str(gpio_path)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: line 3: command time must be finite and >= 0, got inf\n"
        assert not out.exists() and not skyline.exists()

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("field, value", [("duration_s", "inf"), ("logic_high_v", "nan")])
    def test_scenario_with_non_finite_number_exits_2(self, tmp_path, capsys, command, field, value):
        path = write_scenario(tmp_path)
        obj = read_json(path)
        obj[field] = float(value)
        path.write_text(json.dumps(obj))  # as Infinity or NaN
        outputs = tmp_path / "o.csv", tmp_path / "t.json"
        flags = ["--out-trace", str(outputs[0]), "--out-truth", str(outputs[1])] if command == "simulate" else []
        assert main([command, str(path), *flags]) == 2
        assert capsys.readouterr().err == f"error: $.{field}: expected a finite number, got {value}\n"
        assert not any(p.exists() for p in outputs)

    def test_expected_log_with_dangling_activate_exits_2(self, tmp_path, capsys):
        trace_path = TestAnalyzeCommand()._simulate(tmp_path, circuit=RELAY)
        gpio_path = tmp_path / "gpio.csv"
        gpio_path.write_text("t_s,port,action\n1.0,40,activate\n")
        code = main(
            ["analyze", str(trace_path), "--mode", "relay", "--out", str(tmp_path / "r.json"), "--expected", str(gpio_path)]
        )
        assert code == 2


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["analyze", "x.csv"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        scenario = write_scenario(tmp_path)
        proc = subprocess.run(
            [
                sys.executable, "-m", "joulemark",
                "simulate", str(scenario),
                "--out-trace", str(tmp_path / "t.csv"),
                "--out-truth", str(tmp_path / "g.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "t.csv").exists()

    def test_module_invocation_usage_error(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "joulemark", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
