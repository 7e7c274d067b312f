import functools
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from joulemark import cli
from joulemark.cli import main
from joulemark.instrument import ACTIVATE, DEACTIVATE, GpioCommand, GpioCommandLog
from joulemark.simulate import (
    RELAY,
    TRIGGER,
    NoiseModel,
    Scenario,
    WorkloadProfile,
    load_scenario,
    save_scenario,
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

    def test_trigger_analysis_recovers_12_joules(self, tmp_path):
        trace_path = self._simulate(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["analyze", str(trace_path), "--mode", "trigger", "--out", str(report_path)])
        assert code == 0
        report = read_json(report_path)
        assert len(report["results"]) == 1
        assert report["results"][0]["energy"]["joules"] == pytest.approx(12.0, rel=1e-3)
        assert report["hit_miss"] is None

    def test_skyline_integrates_to_window_energy_plus_residue(self, tmp_path):
        trace_path = self._simulate(tmp_path, circuit=RELAY)
        report_path = tmp_path / "report.json"
        skyline_path = tmp_path / "sky.csv"
        code = main(
            ["analyze", str(trace_path), "--mode", "relay", "--out", str(report_path), "--skyline", str(skyline_path)]
        )
        assert code == 0
        rows = np.loadtxt(skyline_path, delimiter=",", skiprows=1)
        skyline_joules = float(np.trapezoid(rows[:, 1], rows[:, 0]))
        report = read_json(report_path)
        windows_joules = report["total_joules"]
        # full-trace integral equals window energy plus idle-noise residue
        residue = 0.001 * 3.0
        assert abs(skyline_joules - windows_joules) <= residue

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
    def test_overrides_share_the_read_trace(self, tmp_path, monkeypatch, overrides):
        """An overridden analysis writes the bytes of an analysis of a file
        that holds the same samples at the new rate, supply and shunt, and
        the trace it analyzes shares the read trace's arrays."""
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
        monkeypatch.setattr(cli, "read_trace_csv", lambda path: seen.setdefault("read", read(path)))
        monkeypatch.setattr(
            cli, "analyze", lambda trace, *a: analyze(seen.setdefault("analyzed", trace), *a)
        )
        out = tmp_path / "overridden.json"
        flags = [part for pair in overrides.items() for part in pair]
        flags += ["--skyline", str(out.with_suffix(".skyline.csv"))]
        assert main(["analyze", str(trace_path), "--mode", "trigger", "--out", str(out), *flags]) == 0
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
        "rate, message",
        [
            ("0", "non-positive rate"),
            ("-20000", "non-positive rate"),
            ("inf", "non-finite rate"),
            ("nan", "non-finite rate"),
        ],
    )
    def test_rate_override_is_validated(self, tmp_path, capsys, rate, message):
        trace_path = self._simulate(tmp_path)
        out = tmp_path / "r.json"
        code = main(["analyze", str(trace_path), "--mode", "trigger", "--out", str(out), "--rate", rate])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

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

    def test_single_run_is_insufficient(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(["campaign", str(scenario), "--runs", "1", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "at least 2" in capsys.readouterr().err

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
