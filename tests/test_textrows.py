"""textrows lays out exactly the text of ``repr`` for every float64, and of
``str`` for every int64."""

import io
import math
from contextlib import nullcontext
from fractions import Fraction

import numpy as np
from chunking import chunk_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from joulemark import textrows
from joulemark.trace import write_csv_rows


def texts(rows: np.ndarray) -> list[str]:
    """The text of each text row."""
    return [row[row != 0].tobytes().decode() for row in rows]


def reprs(values) -> list[str]:
    """The texts value_rows lays out, one per value, 65,536 at a time."""
    values = np.asarray(values, dtype=np.float64)
    blocks = (textrows.value_rows(values[start : start + 2**16]) for start in range(0, len(values), 2**16))
    return [text for rows in blocks for text in texts(rows)]


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    got = reprs(values)
    want = list(map(repr, values.tolist()))
    assert len(got) == len(want)
    if got != want:
        wrong = [(w, g) for w, g in zip(want, got) if w != g]
        raise AssertionError(f"{len(wrong)} differ, such as {wrong[:5]}")


# both zeros, the smallest and a larger subnormal, the smallest normal, both
# infinities and NaN
EDGES = [0.0, -0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, math.inf, -math.inf, math.nan]


@st.composite
def few_valued(draw) -> np.ndarray:
    """Runs over a handful of values, as constant loads and trigger levels
    hold them: from one long run to more runs, or more distinct values,
    than a block that lays out each distinct value once may hold."""
    values = draw(st.lists(st.floats(allow_subnormal=True) | st.sampled_from(EDGES), min_size=1, max_size=80))
    runs = draw(st.sampled_from([1, 2, 40, 1024, 1025, 3000]))
    longest = min(draw(st.sampled_from([2, 30, 5000])), 60_000 // runs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    picks = rng.integers(0, len(values), runs)
    return np.repeat(np.array(values)[picks], rng.integers(1, longest, runs, endpoint=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=50) | few_valued())
def test_text_is_the_repr(values):
    assert_reprs(values)


@settings(max_examples=100, deadline=None)
@given(column=few_valued(), block=st.sampled_from([1, 7, 1000, 1025, None]))
def test_trace_writer_writes_the_repr_of_few_valued_columns(column, block):
    """Blocks of chunking's sizes fall on both sides of the rule: few runs
    over few values, each laid out once, or the kernel.  Blocks of 1 and 7
    rows, which never reach the kernel, write the first 2,000 rows only:
    writing up to 60,000 rows a block at a time made this the slowest test
    of the suite."""
    if block in (1, 7):
        column = column[:2000]
    got = io.StringIO()
    with chunk_rows(block) if block else nullcontext():
        write_csv_rows(got, 1000.0, range(len(column)), [column, column[::-1]])
    lines = zip(range(len(column)), column.tolist(), column[::-1].tolist())
    assert got.getvalue() == "".join(f"{i / 1000.0!r},{a!r},{b!r}\n" for i, a, b in lines)


def neighbours(x: np.ndarray, steps: int) -> np.ndarray:
    """x and the ``steps`` floats on either side of each x, both signs."""
    out = [x]
    up = down = x
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    out = np.concatenate(out)
    return np.concatenate([out, -out])


def sweep() -> np.ndarray:
    rng = np.random.default_rng(20180618)
    random_bits = from_bits(rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False))
    # 2**-1074 to 2**1023: the narrower interval below 2**52 * 2**q, except
    # in the lowest normal binade, and every exponent of the table
    powers = neighbours(np.ldexp(1.0, np.arange(-1074, 1024)), 2)
    subnormals = from_bits(np.arange(1, 1024))
    switches = neighbours(np.array([1e-4, 1e16, 1e-5, 1e15]), 20)
    integers = neighbours(np.array([2.0**53, 2.0**54, 10.0**17]), 50)
    # c / 4 for odd c lies halfway between two 17-digit decimals
    halfway = (2**52 + 2 * np.arange(1000) + 1) / 4
    return np.concatenate([random_bits, powers, subnormals, switches, integers, halfway])


def test_sweep_of_hard_cases():
    assert_reprs(sweep())


def test_decimals_from_their_digits():
    got = reprs([-0.0, 1.5, 2.5e-5, 1e16, -1e-4])
    assert got == ["-0.0", "1.5", "2.5e-05", "1e+16", "-0.0001"]


INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(INT64 | st.sampled_from([-(2**63), 2**63 - 1, -1, 0]), st.integers(1, 200)), max_size=20))
def test_int_text_is_the_str(runs):
    """Runs of one value, single items and the int64 extremes alike; an
    empty array has no rows."""
    values = np.repeat(np.array([v for v, _ in runs], dtype=np.int64), [n for _, n in runs])
    assert texts(textrows.int_rows(values)) == list(map(str, values.tolist()))


def test_table_of_g():
    """2**125 <= g < 2**126 and g - 1 <= 10**-k * 2**-r < g, in integers."""
    assert len(textrows.G) == textrows.K_MAX - textrows.K_MIN + 1 == 617
    for k, g in enumerate(textrows.G, start=textrows.K_MIN):
        r = textrows._flog2pow10(-k) - 125
        exact = Fraction(10) ** -k * Fraction(2) ** -r
        assert 2**125 <= g < 2**126
        assert g - 1 <= exact < g


def test_floor_logarithms():
    """Exact over every binary and decimal exponent the kernel meets."""
    ten, two = Fraction(10), Fraction(2)
    for e in range(-1100, 1100):
        j = textrows._flog10pow2(e)
        assert ten**j <= two**e < ten ** (j + 1)
        j = textrows._flog10_three_quarters_pow2(e)
        assert ten**j <= two**e * 3 / 4 < ten ** (j + 1)
    for e in range(-400, 400):
        j = textrows._flog2pow10(e)
        assert two**j <= ten**e < two ** (j + 1)
