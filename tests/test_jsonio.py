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
from joulemark.jsonio import Records, write_json
from joulemark.segment import HitMissReport, SegmentationParams, SessionReport
from joulemark.simulate import (
    RELAY,
    TRIGGER,
    ConstantPower,
    GroundTruth,
    RampPower,
    Scenario,
    SpikyPower,
    save_scenario,
)
from joulemark.stats import CampaignSummary
from joulemark.trace import ShuntConfig, Windows
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


def column(draw, elements, n: int, dtype) -> np.ndarray:
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)


@st.composite
def reports(draw):
    n = draw(st.integers(0, 7))
    # windows that are non-empty, disjoint and in begin order: each begins a
    # gap after the end of the one before
    gaps = column(draw, st.integers(0, 10**5), n, np.int64)
    lengths = column(draw, st.integers(1, 10**4), n, np.int64)
    begin = np.cumsum(gaps) + np.cumsum(lengths) - lengths
    energies = column(draw, joules, n, np.float64)
    hit_miss = None
    if draw(st.booleans()):
        m = draw(st.integers(0, 7))
        hit_miss = HitMissReport(
            port=column(draw, st.integers(0, 255), m, np.int64),
            begin_s=column(draw, finite, m, np.float64),
            end_s=column(draw, finite, m, np.float64),
            window_index=column(draw, st.integers(-1, 10), m, np.int64),
        )
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
            match_tolerance_s=draw(st.floats(0.0, 1.0)),
        ),
        windows=Windows(begin, begin + lengths),
        joules=energies,
        hit_miss=hit_miss,
        campaign=campaign,
        warnings=draw(st.lists(text, max_size=3)),
    )


@st.composite
def truths(draw):
    n = draw(st.integers(0, 7))
    realized = draw(
        st.lists(
            st.just((-1, -1)) | st.integers(0, 10**6).flatmap(lambda b: st.tuples(st.just(b), st.integers(b + 1, b + 10**4))),
            min_size=n,
            max_size=n,
        )
    )
    return GroundTruth(
        rate_hz=draw(positive),
        seed=draw(st.integers(0, 2**32)),
        port=column(draw, st.integers(0, 255), n, np.int64),
        begin_s=column(draw, finite, n, np.float64),
        end_s=column(draw, finite, n, np.float64),
        hit=column(draw, st.booleans(), n, bool),
        realized_begin=np.array([b for b, _ in realized], dtype=np.int64),
        realized_end=np.array([e for _, e in realized], dtype=np.int64),
        true_joules=column(draw, any_float, n, np.float64),
    )


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
        hm = report.hit_miss
        verdicts = [
            {"port": p, "begin_s": b, "end_s": e, "hit": i != -1, "window_index": None if i == -1 else i}
            for p, b, e, i in zip(hm.port.tolist(), hm.begin_s.tolist(), hm.end_s.tolist(), hm.window_index.tolist())
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
            "match_tolerance_s": report.params.match_tolerance_s,
        },
        "results": results,
        "total_joules": sum(report.joules.tolist(), 0.0),
        "hit_miss": hit_miss,
        "campaign": campaign,
        "warnings": report.warnings,
    }


def truth_doc(truth: GroundTruth) -> dict:
    rows = zip(
        truth.port.tolist(),
        truth.begin_s.tolist(),
        truth.end_s.tolist(),
        truth.hit.tolist(),
        truth.realized_begin.tolist(),
        truth.realized_end.tolist(),
        truth.true_joules.tolist(),
    )
    entries = [
        {"port": p, "begin_s": b, "end_s": e, "hit": h, "realized": None if rb == -1 else [rb, re], "true_joules": j}
        for p, b, e, h, rb, re, j in rows
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
        windows=Windows([0, 10], [5, 20]),
        joules=np.array([math.nan, 2.0]),
        hit_miss=HitMissReport(np.array([40, 41]), np.array([0.0, 0.01]), np.array([0.005, 0.02]), np.array([0, -1])),
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


# a column of each kind of item the writer lays out in its own way, with
# values on both sides of a boundary between blocks of three records: the
# NaN and infinities of a float column leave json to write the items of
# their block, and 2**64 and None those of an object column
INT64 = np.iinfo(np.int64)
LEAF_COLUMNS = {
    "finite floats": np.array([-0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5e-300, 1.7976931348623157e308]),
    "floats with NaN and infinities": np.array([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf, 1e-5]),
    "float32": np.array([0.1, 1e-5, 3.4e38, -0.0], dtype=np.float32),
    "int64 extremes": np.array([INT64.min, 0, INT64.max, -1, 10, 7], dtype=np.int64),
    "uint8": np.array([0, 255, 7, 10], dtype=np.uint8),
    "uint64 beyond int64": np.array([0, 2**64 - 1, 2**63, 5], dtype=np.uint64),
    "bools": np.array([True, False, False, True, True]),
    "objects beyond int64 and None": np.array([2**64, None, -(2**64), None, 1.5, True], dtype=object),
}


@pytest.mark.parametrize("values", LEAF_COLUMNS.values(), ids=LEAF_COLUMNS.keys())
def test_each_kind_of_column_is_written_as_json_dumps_writes_it(values):
    doc = {"records": Records(({"leaf": values, "tag": "x"},)), "after": 1}
    with chunk_rows(3):
        out = written(lambda f: write_json(doc, f))
    records = [{"leaf": value, "tag": "x"} for value in values.tolist()]
    assert out == json.dumps({"records": records, "after": 1}, indent=2) + "\n"


# record shapes of any nesting, with keys and values of their own around
# their COLUMN leaves; no key or string of a shape holds the writer's own
# leaf marker, the character "\x00"
COLUMN = object()
shape_text = st.text(st.sampled_from(['"', "%", "s", "\n", "\\", ",", "é", "☃", "a"]))
baked = st.none() | st.booleans() | st.integers() | any_float | shape_text
record_shapes = st.recursive(
    st.just(COLUMN) | baked,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(shape_text, inner, max_size=3),
    max_leaves=6,
)
leaf_values = st.none() | st.booleans() | st.integers() | any_float


def count_leaves(shape) -> int:
    if isinstance(shape, dict):
        return sum(map(count_leaves, shape.values()))
    if isinstance(shape, list):
        return sum(map(count_leaves, shape))
    return int(shape is COLUMN)


def fill(shape, leaves):
    """A copy of the shape with its COLUMN leaves taken from the iterator."""
    if isinstance(shape, dict):
        return {key: fill(value, leaves) for key, value in shape.items()}
    if isinstance(shape, list):
        return [fill(value, leaves) for value in shape]
    return next(leaves) if shape is COLUMN else shape


@st.composite
def records(draw):
    """Records and the list of records they stand for, built from the rows drawn."""
    shapes = draw(st.lists(record_shapes, min_size=1, max_size=3))
    kinds = draw(st.lists(st.integers(0, len(shapes) - 1), max_size=7))
    rows = [
        draw(st.lists(leaf_values, min_size=count_leaves(shapes[k]), max_size=count_leaves(shapes[k])))
        for k in kinds
    ]

    # each shape's columns, holding a marker that must not be written where
    # a record of another shape stands, and its template: the shape with its
    # columns in place of its leaves
    columns = [
        [np.full(len(kinds), "unused", dtype=object) for _ in range(count_leaves(shape))] for shape in shapes
    ]
    for r, (k, row) in enumerate(zip(kinds, rows)):
        for i, leaf in enumerate(row):
            columns[k][i][r] = leaf
    templates = [fill(shape, iter(own)) for shape, own in zip(shapes, columns)]
    expected = [fill(shapes[k], iter(row)) for k, row in zip(kinds, rows)]
    # without kinds, every record has the first shape, which has a leaf
    if not any(kinds) and count_leaves(shapes[0]) and draw(st.booleans()):
        return Records(templates), expected
    return Records(templates, np.array(kinds, dtype=np.intp)), expected


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
