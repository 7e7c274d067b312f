"""The JSON writer writes what ``json.dumps(doc, indent=2) + "\\n"`` would,
byte for byte, for reports, ground truths and scenarios, whatever the block
size its record lists are written in."""

import io
import json
import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunking import chunk_rows
from joulemark.jsonio import LEAF, Records, plain, write_json
from joulemark.segment import HitMissReport, SegmentationParams, SessionReport, ToggleVerdict
from joulemark.simulate import RELAY, TRIGGER, GroundTruth, GroundTruthEntry, save_scenario
from joulemark.simulate import scenario_to_dict
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
            variation_pct=draw(any_float),
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


@settings(max_examples=300, deadline=None)
@given(report=reports(), rows=BLOCKS)
def test_report_is_written_as_json_dumps_writes_it(report, rows):
    with blocked(rows):
        out = written(report.write_json)
    assert out == json.dumps(report.to_json_dict(), indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(truth=truths(), rows=BLOCKS)
def test_truth_is_written_as_json_dumps_writes_it(tmp_path_factory, truth, rows):
    path = tmp_path_factory.mktemp("truth") / "truth.json"
    with blocked(rows):
        truth.write_json(path)
    assert path.read_bytes() == (json.dumps(truth.to_json_dict(), indent=2) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios(), rows=BLOCKS)
def test_scenario_is_written_as_json_dumps_writes_it(tmp_path_factory, scenario, rows):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    with blocked(rows):
        save_scenario(scenario, path)
    assert path.read_bytes() == (json.dumps(scenario_to_dict(scenario), indent=2) + "\n").encode()


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


@st.composite
def records(draw):
    shapes = draw(st.lists(record_shapes, min_size=1, max_size=3))
    kinds = draw(st.lists(st.integers(0, len(shapes) - 1), max_size=7))
    rows = [
        draw(st.lists(leaf_values, min_size=count_leaves(shapes[k]), max_size=count_leaves(shapes[k])))
        for k in kinds
    ]

    def block(start, stop):
        return kinds[start:stop], [leaf for row in rows[start:stop] for leaf in row]

    return Records(shapes, len(kinds), block)


@settings(max_examples=300, deadline=None)
@given(
    doc=st.recursive(
        records() | baked,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
        max_leaves=5,
    ),
    rows=BLOCKS,
)
def test_records_anywhere_in_a_document(doc, rows):
    with blocked(rows):
        out = written(lambda f: write_json(doc, f))
        assert out == json.dumps(plain(doc), indent=2) + "\n"


def test_other_objects_are_not_serializable():
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json({"a": object()}, io.StringIO())
