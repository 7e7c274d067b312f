"""tools/bench_pairs.py's verdicts and JSON file on synthetic runs; no
benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# each end-to-end metric's direction and bound; job_s and samples_per_s
# are bound at 0.25 of the parent's median
SPEC = {metric["name"]: metric for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def verdicts(parent: list[float], change: list[float], metric: str = "job_s") -> dict:
    [row] = bench_pairs.compare([{metric: v} for v in parent], [{metric: v} for v in change], {metric: SPEC[metric]})
    return {verdict: row[verdict] for verdict in ("gain", "worse", "unresolved")} | {"wins": row["change_wins"]}


def test_the_bounds_are_the_ones_these_runs_assume():
    assert [(SPEC[name]["better"], SPEC[name]["bound"]) for name in ("job_s", "samples_per_s")] == [
        ("lower", 0.25), ("higher", 0.25)
    ]


@pytest.mark.parametrize("metric, parent, change", [
    ("job_s", [1.0, 1.01, 0.99, 1.0, 1.02], [0.8, 0.81, 0.79, 0.8, 0.82]),
    ("samples_per_s", [1.0, 1.01, 0.99, 1.0, 1.02], [1.2, 1.21, 1.19, 1.2, 1.22]),
])
def test_a_gain(metric, parent, change):
    assert verdicts(parent, change, metric) == {"gain": True, "worse": False, "unresolved": False, "wins": 5}


@pytest.mark.parametrize("metric, parent, change", [
    ("job_s", [1.0, 1.01, 0.99, 1.0, 1.02], [1.3, 1.31, 1.29, 1.3, 1.32]),
    ("samples_per_s", [1.0, 1.01, 0.99, 1.0, 1.02], [0.7, 0.71, 0.69, 0.7, 0.72]),
])
def test_a_regression_beyond_the_bound(metric, parent, change):
    assert verdicts(parent, change, metric) == {"gain": False, "worse": True, "unresolved": False, "wins": 0}


def test_a_regression_within_the_bound_is_not_worse():
    got = verdicts([1.0, 1.01, 0.99, 1.0, 1.02], [1.2, 1.21, 1.19, 1.2, 1.22])
    assert got == {"gain": False, "worse": False, "unresolved": False, "wins": 0}


def test_a_parent_spread_beyond_the_bound_is_unresolved():
    got = verdicts([0.6, 1.0, 1.4, 0.7, 1.3], [0.65, 1.05, 1.35, 0.75, 1.25])
    assert got["unresolved"] and not got["worse"] and not got["gain"]


def test_a_wide_spread_is_resolved_where_every_change_run_is_better():
    got = verdicts([0.6, 1.0, 1.4, 0.7, 1.3], [0.3, 0.35, 0.4, 0.45, 0.5])
    assert not got["unresolved"] and not got["worse"]


def test_ties():
    runs = [1.0, 1.0, 1.0, 1.0, 1.0]
    assert verdicts(runs, runs) == {"gain": False, "worse": False, "unresolved": False, "wins": 0}
    assert verdicts(runs, runs, "samples_per_s") == {"gain": False, "worse": False, "unresolved": False, "wins": 0}


def test_the_json_file_holds_every_run_of_both_sides(tmp_path, monkeypatch):
    made = []  # (side, workload, metrics) of each run, in the order run

    def run_once(checkout, workload, seed, seconds):
        metrics = {"job_s": 1.0 + len(made) / 1000, "peak_rss_mb": 60.0 - (checkout.name == "change")}
        made.append((checkout.name, workload, metrics))
        return metrics

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "pairs.json"
    argv = [str(parent), str(change), "--pairs", "3", "--workloads", "relay-file", "relay-stream", "--json", str(out)]
    assert bench_pairs.main(argv) == 0
    # the parent first in even pairs, the change first in odd ones
    assert [side for side, workload, _ in made if workload == "relay-file"] == [
        "parent", "change", "change", "parent", "parent", "change"
    ]
    document = json.loads(out.read_text())
    assert document["runs"] == {
        workload: {side: [m for s, w, m in made if (s, w) == (side, workload)] for side in ("parent", "change")}
        for workload in ("relay-file", "relay-stream")
    }
    assert [row["metric"] for row in document["workloads"]["relay-file"]] == ["job_s", "peak_rss_mb"]
    assert document["workloads"]["relay-file"][1]["change_wins"] == 3
