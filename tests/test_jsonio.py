"""The JSON writer writes what ``json.dumps(doc, indent=2) + "\\n"`` would,
byte for byte, for reports, ground truths and scenarios, whatever the block
size its record lists are written in.  Each written text is read back: json
must lay it out the same, and it must hold the document that the test builds
from the written object's own fields and arrays."""

import io
import json
import math
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunking import chunk_rows
from joulemark.jsonio import LEAF, Records, write_json
from joulemark.segment import HitMissReport, SegmentationParams, SessionReport, ToggleVerdict
from joulemark.simulate import (
    RELAY,
    TRIGGER,
    ConstantPower,
    GroundTruth,
    GroundTruthEntry,
    RampPower,
    Scenario,
    SpikyPower,
    save_scenario,
)
from joulemark.stats import CampaignSummary
from joulemark.trace import MeasurementWindow, ShuntConfig, Windows
from test_simulate import scenarios

# the default block, and blocks of 1, 3 and 16 leaves: one record, or a few
BLOCKS = st.sampled_from([None, 1, 3, 16])

any_float = st.floats(allow_nan=True, allow_infinity=True)
finite = st.floats(allow_nan=False, allow_infinity=False)
# joules whose mean watts over a window of at least 1e-6 s stay finite
joules = st.floats(-1e300, 1e300) | st.sampled_from([math.nan, math.inf, -math.inf])
positive = st.floats(1e-3, 1e6)
# warnings and baked strings with quotes, percent signs, newlines, control
# and non-ASCII characters, and the writer's own leaf marker
text = st.text(st.sampled_from(['"', "%", "s", "\n", "\\", ",", "\x00", "é", "µ", "☃", "a", " "]))


def blocked(rows):
    return nullcontext() if rows is None else chunk_rows(rows)


@st.composite
def reports(draw):
    n = draw(st.integers(0, 7))
    begin = np.array(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)), dtype=np.int64)
    lengths = np.array(draw(st.lists(st.integers(1, 10**4), min_size=n, max_size=n)), dtype=np.int64)
    energies = np.array(draw(st.lists(joules, min_size=n, max_size=n)))
    hit_miss = None
    if draw(st.booleans()):
        verdicts = draw(
            st.lists(
                st.builds(
                    ToggleVerdict,
                    port=st.integers(0, 255),
                    begin_s=finite,
                    end_s=finite,
                    window_index=st.none() | st.integers(0, 10),
                ),
                max_size=7,
            )
        )
        hit_miss = HitMissReport(tuple(verdicts))
    campaign = None
    if draw(st.booleans()):
        samples = tuple(draw(st.lists(finite, min_size=2, max_size=5)))
        campaign = CampaignSummary(
            samples=samples,
            mean_j=draw(finite),
            sd_j=draw(finite),
            me_j=draw(finite),
            variation_pct=draw(st.none() | any_float),
            confidence=draw(st.floats(0.01, 0.99)),
        )
    return SessionReport(
        mode=draw(st.sampled_from([RELAY, TRIGGER])),
        rate_hz=draw(positive),
        shunt=ShuntConfig(vf=draw(positive), rs=draw(positive)),
        params=SegmentationParams(
            relay_threshold_w=draw(positive),
            min_window_samples=draw(st.integers(1, 100)),
            trigger_logic_threshold_v=draw(finite),
        ),
        match_tolerance_s=draw(st.floats(0.0, 1.0)),
        windows=Windows(begin, begin + lengths),
        joules=energies,
        hit_miss=hit_miss,
        campaign=campaign,
        warnings=draw(st.lists(text, max_size=3)),
    )


@st.composite
def truths(draw):
    entries = []
    for _ in range(draw(st.integers(0, 7))):
        begin = draw(st.integers(0, 10**6))
        realized = draw(st.none() | st.builds(MeasurementWindow, st.just(begin), st.integers(begin + 1, begin + 10**4)))
        entries.append(
            GroundTruthEntry(
                port=draw(st.integers(0, 255)),
                begin_s=draw(finite),
                end_s=draw(finite),
                hit=draw(st.booleans()),
                realized=realized,
                true_joules=draw(any_float),
            )
        )
    return GroundTruth(rate_hz=draw(positive), seed=draw(st.integers(0, 2**32)), entries=tuple(entries))


def written(doc_writer) -> str:
    f = io.StringIO()
    doc_writer(f)
    return f.getvalue()


def canon(value):
    """A JSON value with every scalar as its type and repr and every object
    as its items in order: NaN equals NaN, and 1, 1.0 and True differ."""
    if isinstance(value, dict):
        return "object", [(key, canon(item)) for key, item in value.items()]
    if isinstance(value, list):
        return "array", [canon(item) for item in value]
    return type(value).__name__, repr(value)


def check_written(out: str, expected) -> None:
    """out is laid out as json.dumps(indent=2) lays it out, and holds
    expected, a document built here from the written object's own fields."""
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    assert canon(doc) == canon(expected)


def report_doc(report: SessionReport) -> dict:
    rate = report.rate_hz
    results = [
        {
            "window": {"begin_idx": b, "end_idx": e},
            "energy": {"begin_s": b / rate, "end_s": e / rate, "joules": j, "mean_watts": j / ((e - b) / rate)},
        }
        for b, e, j in zip(report.windows.begin.tolist(), report.windows.end.tolist(), report.joules.tolist())
    ]
    hit_miss = None
    if report.hit_miss is not None:
        verdicts = [
            {"port": v.port, "begin_s": v.begin_s, "end_s": v.end_s, "hit": v.window_index is not None, "window_index": v.window_index}
            for v in report.hit_miss.verdicts
        ]
        hits = sum(v["hit"] for v in verdicts)
        hit_miss = {"expected": len(verdicts), "hits": hits, "misses": len(verdicts) - hits, "verdicts": verdicts}
    campaign = None
    if (c := report.campaign) is not None:
        campaign = {
            "n": len(c.samples),
            "samples": list(c.samples),
            "mean_j": c.mean_j,
            "sd_j": c.sd_j,
            "me_j": c.me_j,
            "ci": [c.mean_j - c.me_j, c.mean_j + c.me_j],
            "variation_pct": c.variation_pct,
            "confidence": c.confidence,
        }
    return {
        "mode": report.mode,
        "rate_hz": rate,
        "shunt": {"vf": report.shunt.vf, "rs": report.shunt.rs},
        "params": {
            "relay_threshold_w": report.params.relay_threshold_w,
            "min_window_samples": report.params.min_window_samples,
            "trigger_logic_threshold_v": report.params.trigger_logic_threshold_v,
            "match_tolerance_s": report.match_tolerance_s,
        },
        "results": results,
        "total_joules": sum(report.joules.tolist(), 0.0),
        "hit_miss": hit_miss,
        "campaign": campaign,
        "warnings": report.warnings,
    }


def truth_doc(truth: GroundTruth) -> dict:
    entries = [
        {
            "port": e.port,
            "begin_s": e.begin_s,
            "end_s": e.end_s,
            "hit": e.hit,
            "realized": None if e.realized is None else [e.realized.begin, e.realized.end],
            "true_joules": e.true_joules,
        }
        for e in truth.entries
    ]
    return {"rate_hz": truth.rate_hz, "seed": truth.seed, "entries": entries}


SHAPE_NAMES = {ConstantPower: "constant", RampPower: "ramp", SpikyPower: "spiky"}


def scenario_doc(scenario: Scenario) -> dict:
    doc = asdict(scenario)
    doc["workload"] = [
        {"start_s": seg.start_s, "end_s": seg.end_s, "shape": SHAPE_NAMES[type(seg.shape)], **asdict(seg.shape)}
        for seg in scenario.workload.segments
    ]
    doc["gpio"] = [{"t_s": c.t_s, "port": c.port, "action": c.action} for c in scenario.gpio.entries]
    return doc


@settings(max_examples=300, deadline=None)
@given(report=reports(), rows=BLOCKS)
def test_report_is_written_as_json_dumps_writes_it(report, rows):
    with blocked(rows):
        out = written(report.write_json)
    check_written(out, report_doc(report))


@settings(max_examples=300, deadline=None)
@given(truth=truths(), rows=BLOCKS)
def test_truth_is_written_as_json_dumps_writes_it(tmp_path_factory, truth, rows):
    path = tmp_path_factory.mktemp("truth") / "truth.json"
    with blocked(rows):
        truth.write_json(path)
    check_written(path.read_text(), truth_doc(truth))


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios(), rows=BLOCKS)
def test_scenario_is_written_as_json_dumps_writes_it(tmp_path_factory, scenario, rows):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    with blocked(rows):
        save_scenario(scenario, path)
    check_written(path.read_text(), scenario_doc(scenario))


def test_written_reports_keep_every_kind_of_leaf():
    """The oracle tells ints from floats and bools, and NaN from a number."""
    report = SessionReport(
        mode=TRIGGER,
        rate_hz=1000.0,
        shunt=ShuntConfig(),
        params=SegmentationParams(),
        match_tolerance_s=1e-3,
        windows=Windows([0, 10], [5, 20]),
        joules=np.array([math.nan, 2.0]),
        hit_miss=HitMissReport((ToggleVerdict(40, 0.0, 0.005, 0), ToggleVerdict(41, 0.01, 0.02, None))),
        warnings=["w"],
    )
    out = written(report.write_json)
    check_written(out, report_doc(report))
    doc = json.loads(out)
    assert doc["results"][0]["window"] == {"begin_idx": 0, "end_idx": 5}
    assert math.isnan(doc["results"][0]["energy"]["joules"]) and math.isnan(doc["total_joules"])
    assert [v["hit"] for v in doc["hit_miss"]["verdicts"]] == [True, False]
    with pytest.raises(AssertionError):
        check_written(out.replace('"begin_idx": 0', '"begin_idx": 0.0'), report_doc(report))
    with pytest.raises(AssertionError):
        check_written(out.replace('"hit": false', '"hit": 0'), report_doc(report))


# record shapes of any nesting, with keys and values of their own around
# their leaves; no key or string of a shape holds the leaf marker
shape_text = st.text(st.sampled_from(['"', "%", "s", "\n", "\\", ",", "é", "☃", "a"]))
baked = st.none() | st.booleans() | st.integers() | any_float | shape_text
record_shapes = st.recursive(
    st.just(LEAF) | baked,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(shape_text, inner, max_size=3),
    max_leaves=6,
)
leaf_values = st.none() | st.booleans() | st.integers() | any_float


def count_leaves(shape) -> int:
    if isinstance(shape, dict):
        return sum(map(count_leaves, shape.values()))
    if isinstance(shape, list):
        return sum(map(count_leaves, shape))
    return int(shape == LEAF)


def fill(shape, leaves):
    """A copy of the shape with its leaves taken from the iterator."""
    if isinstance(shape, dict):
        return {key: fill(value, leaves) for key, value in shape.items()}
    if isinstance(shape, list):
        return [fill(value, leaves) for value in shape]
    return next(leaves) if shape == LEAF else shape


@st.composite
def records(draw):
    """Records and the list of records they stand for, built from the rows drawn."""
    shapes = draw(st.lists(record_shapes, min_size=1, max_size=3))
    kinds = draw(st.lists(st.integers(0, len(shapes) - 1), max_size=7))
    rows = [
        draw(st.lists(leaf_values, min_size=count_leaves(shapes[k]), max_size=count_leaves(shapes[k])))
        for k in kinds
    ]

    def block(start, stop):
        return kinds[start:stop], [leaf for row in rows[start:stop] for leaf in row]

    expected = [fill(shapes[k], iter(row)) for k, row in zip(kinds, rows)]
    return Records(shapes, len(kinds), block), expected


def unzip_list(items):
    return [doc for doc, _ in items], [expected for _, expected in items]


def unzip_dict(items):
    return {k: doc for k, (doc, _) in items.items()}, {k: expected for k, (_, expected) in items.items()}


# a document for write_json and the plain document it stands for
documents = st.recursive(
    records() | baked.map(lambda value: (value, value)),
    lambda inner: st.lists(inner, max_size=3).map(unzip_list)
    | st.dictionaries(text, inner, max_size=3).map(unzip_dict),
    max_leaves=5,
)


@settings(max_examples=300, deadline=None)
@given(doc=documents, rows=BLOCKS)
def test_records_anywhere_in_a_document(doc, rows):
    doc, expected = doc
    with blocked(rows):
        out = written(lambda f: write_json(doc, f))
    check_written(out, expected)


def test_other_objects_are_not_serializable():
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json({"a": object()}, io.StringIO())
