"""The column formatter against the per-value rules it replaces."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from xindices.numfmt import canonical_json_value, format_column, format_number


class Float(float):
    """A float subclass with its own repr, which no number text may use."""

    def __repr__(self):
        return "Float!"


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 0.1, 0.5,
    float(2**53 - 1), float(2**53), float(2**53 + 2),
    math.nextafter(1e16, 0), 1e16, math.nextafter(1e16, math.inf), 1e300,
]
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0, max_value=1e16, allow_nan=False, exclude_max=True),
    st.sampled_from(EDGE_FLOATS),
    st.integers(min_value=0, max_value=10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False).map(Float),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.sampled_from([2**53 - 1, 2**53 + 1, 10**16 - 1, 10**16, 10**16 + 1]),
    st.fractions(max_denominator=10**6),
)


def _blocks(values, cuts):
    """values split at the given cut points (any order, repeats allowed)."""
    bounds = [0, *sorted(cut % (len(values) + 1) for cut in cuts), len(values)]
    return [values[start:stop] for start, stop in zip(bounds, bounds[1:])]


@settings(max_examples=300, deadline=None)
@given(st.lists(numbers, max_size=40), st.lists(st.integers(0, 40), max_size=4))
@example(EDGE_FLOATS, [])
@example([Float(1.5), 2.0], [])
def test_format_column_is_format_number_per_value(values, cuts):
    expected = list(map(format_number, values))
    assert expected == [repr(canonical_json_value(v)) for v in values]
    texts = [text for block in _blocks(values, cuts) for text in format_column(block)]
    assert texts == expected


def _first_error(call):
    try:
        call()
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=1e15), max_size=12),
    st.lists(st.tuples(st.integers(0, 12), st.sampled_from([math.nan, math.inf, -math.inf])), min_size=1, max_size=3),
)
@example([1.0, 2.0], [(0, math.nan)])
@example([1.0, 2.0], [(2, math.inf)])
def test_non_finite_values_raise_as_format_number_does(values, inserts):
    values = list(values)
    for position, bad in inserts:
        values.insert(position % (len(values) + 1), bad)
    expected = _first_error(lambda: list(map(format_number, values)))
    assert expected in (ValueError, OverflowError)
    assert _first_error(lambda: format_column(values)) is expected
    assert _first_error(lambda: format_column(tuple(values))) is expected


@pytest.mark.parametrize(
    ("values", "texts"),
    [
        ([-0.0, 0.0, 2.0], ["0", "0", "2"]),
        ([1e16, 123.0], ["1e+16", "123"]),
        ([Fraction(1, 3), 10**16], ["0.3333333333333333", "1e+16"]),
        ([], []),
    ],
)
def test_format_column_examples(values, texts):
    assert format_column(values) == texts
