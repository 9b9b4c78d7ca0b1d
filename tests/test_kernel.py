"""Kernel rules against frozen examples and the brute-force oracles."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from xindices import (
    NonFiniteWeight,
    RankedTable,
    RankRow,
    first_crossing_index,
    g_type_index,
    h_type_index,
)
from xindices import kernel
from xindices.kernel import _index_value, rank_items
from xindices.report import Report

from conftest import items
from oracles import naive_g_oracle, naive_h_oracle, two_sort_rank

# Exact weights, as xdfn ranks them: any Fraction, and ones on an integer
# rank or within 1e-12 of it, on either side.
near_integers = st.builds(
    lambda n, k: Fraction(n) + Fraction(k, 10**13),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=-10, max_value=10),
)
fractions = st.one_of(st.fractions(min_value=0, max_value=100), near_integers)

weight_lists = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=100).map(float),
        st.floats(min_value=0, max_value=100, allow_nan=False),
        fractions,
    ),
    max_size=50,
)


# --- frozen examples, expected values from the naive oracles ---------------


def test_h_basic():
    assert naive_h_oracle([5, 4, 3, 2, 1]) == 3
    assert h_type_index(items(5, 4, 3, 2, 1)).value == 3


def test_h_empty():
    assert naive_h_oracle([]) == 0
    assert h_type_index([]).value == 0


def test_h_all_below_one():
    assert h_type_index(items(0.5, 0.2)).value == 0


def test_h_ties():
    assert naive_h_oracle([7, 7, 7]) == 3
    assert h_type_index(items(7, 7, 7)).value == 3


def test_h_exact_ratio_one_qualifies():
    # weight equal to rank keeps the rank in the core
    assert h_type_index(items(3, 2, 1)).value == 2
    assert h_type_index(items(1)).value == 1


def test_g_basic():
    assert naive_g_oracle([10, 5, 2, 1]) == 4
    assert g_type_index(items(10, 5, 2, 1)).value == 4


def test_g_sublinear():
    assert naive_g_oracle([1, 1, 1]) == 1
    assert g_type_index(items(1, 1, 1)).value == 1


def test_g_empty():
    assert naive_g_oracle([]) == 0
    assert g_type_index([]).value == 0


def test_g_rank_one_fails():
    assert g_type_index(items(0.5)).value == 0


def test_g_capped_at_n():
    # one huge weight cannot push g past the number of items
    assert g_type_index(items(1000.0)).value == 1
    assert g_type_index(items(1000.0, 0.0)).value == 2


# --- first-crossing rule ----------------------------------------------------


def _ratio_table(ratios, weights=None):
    weights = weights if weights is not None else sorted(ratios, reverse=True)
    labels = [f"c{r}" for r in range(1, len(ratios) + 1)]
    return RankedTable(labels, map(float, weights), map(float, ratios))


def test_first_crossing_hand_case():
    # (t, v) = (9, 2), (8, 4), (5, 10) ranked by t
    table = _ratio_table([4.5, 1.0, 5 / 30], weights=[9, 8, 5])
    assert first_crossing_index(table).value == 2


def test_first_crossing_at_rank_one():
    assert first_crossing_index(_ratio_table([0.4, 9.0], weights=[5, 4])).value == 0


def test_first_crossing_no_crossing():
    assert first_crossing_index(_ratio_table([2.0, 1.5, 1.2], weights=[9, 8, 5])).value == 3


def test_first_crossing_ignores_recrossing():
    table = _ratio_table([2.0, 0.5, 3.0], weights=[9, 8, 5])
    assert first_crossing_index(table).value == 1


def test_first_crossing_empty():
    assert first_crossing_index(RankedTable((), (), ())).value == 0


@given(weight_lists)
@example([Fraction(2**64 - 1, 2**64)])
@example([10, 10, Fraction(3) - Fraction(1, 2**52), 3])
def test_first_crossing_equals_h_on_monotone_ratios(weights):
    # The h value follows the exact totals and each printed ratio is its
    # exact quotient rounded, so the first crossing of the printed ratios
    # leaves the value in two ways only: the ratio just past the value
    # prints as 1 (1 - 2**-64 does), or two totals that print alike
    # straddle the value and label order puts the one short of its rank at
    # the value's rank (3 - 2**-52 prints as 3, over 3 as 1 - 2**-53).
    result = h_type_index(items(*weights))
    value, table = result.value, result.table
    crossing = first_crossing_index(table).value
    assert (
        crossing == value
        or crossing > value
        and table.ratios[value] == 1.0
        or crossing == value - 1
        and table.weights[value - 1] == table.weights[value]
    )
    if weights == [Fraction(2**64 - 1, 2**64)]:
        assert (value, table.ratios) == (0, (1.0,))
    if weights == [10, 10, Fraction(3) - Fraction(1, 2**52), 3]:
        assert (value, crossing, table.labels[2], table.ratios[2]) == (3, 2, "k002", 1 - 2**-53)


# --- oracle equivalence and ordering properties ------------------------------


@given(weight_lists)
def test_h_matches_oracle(weights):
    assert h_type_index(items(*weights)).value == naive_h_oracle(weights)


@given(weight_lists)
def test_g_matches_oracle(weights):
    assert g_type_index(items(*weights)).value == naive_g_oracle(weights)


@given(weight_lists)
def test_g_at_least_h(weights):
    assert g_type_index(items(*weights)).value >= h_type_index(items(*weights)).value


@given(weight_lists, st.randoms(use_true_random=False))
def test_value_independent_of_labels(weights, rng):
    relabelled = items(*weights)
    shuffled_labels = [label for label, _ in relabelled]
    rng.shuffle(shuffled_labels)
    permuted = [(label, weight) for label, (_, weight) in zip(shuffled_labels, relabelled)]
    assert h_type_index(permuted).value == h_type_index(relabelled).value
    assert g_type_index(permuted).value == g_type_index(relabelled).value


@given(weight_lists, st.floats(min_value=0, max_value=100, allow_nan=False))
def test_adding_item_never_decreases(weights, extra):
    before_h = h_type_index(items(*weights)).value
    before_g = g_type_index(items(*weights)).value
    grown = items(*weights, extra)
    assert h_type_index(grown).value >= before_h
    assert g_type_index(grown).value >= before_g


@given(weight_lists.filter(len), st.data())
def test_increasing_weight_never_decreases(weights, data):
    idx = data.draw(st.integers(min_value=0, max_value=len(weights) - 1))
    bump = data.draw(st.floats(min_value=0, max_value=50, allow_nan=False))
    bumped = list(weights)
    bumped[idx] += bump
    assert h_type_index(items(*bumped)).value >= h_type_index(items(*weights)).value
    assert g_type_index(items(*bumped)).value >= g_type_index(items(*weights)).value


# Weights where the ratio w / r is close to 1 or the float range ends:
# ties, zeros, subnormals, integers, and values near 1e308 and infinity.
edge_weights = st.one_of(
    st.sampled_from(
        [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.0, 3.0, 1e308, 1.7976931348623157e308]
    ),
    st.integers(min_value=0, max_value=12).map(float),
    st.floats(min_value=0, max_value=12, allow_nan=False),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    fractions,
)


def value_or_error(index, items):
    try:
        return index(items)
    except NonFiniteWeight as exc:
        return NonFiniteWeight, exc.label


@given(
    st.dictionaries(
        st.sampled_from("abcdefgh"),
        st.one_of(edge_weights.map(Fraction), st.integers(2**1023, 2**1025)),
        max_size=8,
    )
)
# 3 - 2e-16 rounds to the float 3.0, but the exact total is below its rank 3
@example({"a": Fraction(3) - Fraction(2, 10**16), "b": Fraction(5), "c": Fraction(4)})
def test_inner_value_equals_the_kernel_value_of_the_exact_totals(exact_weights):
    # xo and the nested indices read each group's value off its exact int
    # totals through the rule the kernel applies to the items it ranks
    scale = math.lcm(*(weight.denominator for weight in exact_weights.values()))
    totals = {label: int(weight * scale) for label, weight in exact_weights.items()}
    for ratio_type in ("h", "g"):
        index = h_type_index if ratio_type == "h" else g_type_index
        expected = value_or_error(lambda it: index(it).value, list(exact_weights.items()))
        inner = value_or_error(
            lambda t: _index_value(sorted(t.values(), reverse=True), scale, ratio_type, t.items()), totals
        )
        assert inner == expected


# --- table shape -------------------------------------------------------------


def test_table_sorted_with_label_tiebreak():
    result = h_type_index([("b", 5.0), ("a", 5.0), ("c", 9.0)])
    assert [(row.rank, row.label, row.weight) for row in result.table.rows] == [
        (1, "c", 9.0),
        (2, "a", 5.0),
        (3, "b", 5.0),
    ]


def test_totals_that_print_alike_are_listed_by_label():
    # b's exact total is the larger, but both print as 3.0: the table lists
    # a first, each row keeps its own exact ratio, and the value reads the
    # exact order
    b = Fraction(3) + Fraction(1, 10**20)
    for index, ratios in ((h_type_index, (3.0, 1.5)), (g_type_index, (3.0, 1.5))):
        result = index([("b", b), ("a", Fraction(3)), ("c", 1)])
        assert result.table.labels == ("a", "b", "c")
        assert result.table.weights == (3.0, 3.0, 1.0)
        assert result.table.ratios[:2] == ratios
    assert h_type_index([("b", b), ("a", Fraction(3))]).value == 2


def test_table_ratios():
    result = h_type_index(items(9, 4))
    assert [row.ratio for row in result.table.rows] == [9.0, 2.0]
    result = g_type_index(items(9, 4))
    assert [row.ratio for row in result.table.rows] == [9.0, 13.0 / 4.0]


def test_ranked_table_rejects_increasing_weights():
    with pytest.raises(ValueError, match="weights increase at rank 2"):
        RankedTable(("a", "b"), (1.0, 2.0), (1.0, 1.0))


def test_ranked_table_rejects_negative_weight():
    with pytest.raises(ValueError, match="negative weight at rank 2"):
        RankedTable(("a", "b"), (1.0, -1.0), (1.0, -0.5))


def test_ranked_table_rows_and_columns_agree():
    result = g_type_index(items(9, 4, 4))
    table = result.table
    assert table.labels == ("k000", "k001", "k002")
    assert table.weights == (9.0, 4.0, 4.0)
    assert [tuple(row) for row in table.rows] == list(zip((1, 2, 3), table.labels, table.weights, table.ratios))
    assert all(type(row) is RankRow for row in table.rows)
    rebuilt = RankedTable(*zip(*(row[1:] for row in table.rows)))
    assert rebuilt == table
    assert hash(rebuilt) == hash(table)
    assert len(table) == 3
    with pytest.raises(AttributeError):
        table.labels = ()


def test_ranked_table_rejects_ragged_columns():
    with pytest.raises(ValueError, match="differ in length"):
        RankedTable(("a", "b"), (2.0, 1.0), (2.0,))


@pytest.mark.parametrize(
    "weights",
    [
        (float("inf"), 3.0),  # an overflowed total ranks first
        (2**1024, 1e308),  # an int beyond the float range
        (Fraction(10**400), 3),  # exact, but beyond the float range
    ],
)
def test_non_finite_weights_raise_typed_error(weights):
    with pytest.raises(NonFiniteWeight):
        g_type_index([(f"k{i}", w) for i, w in enumerate(weights)])


@pytest.mark.parametrize(
    "weights",
    [
        (3.0, float("-inf")),  # as_integer_ratio would overflow on it
        (Fraction(-(10**400)), 2.0),  # rounds below the float range
        (float("inf"), -1.0),  # the negative weight is named before the overflow
    ],
)
@pytest.mark.parametrize("index", [h_type_index, g_type_index])
def test_negative_weights_raise_the_tables_error(weights, index):
    with pytest.raises(ValueError, match="negative weight at rank 2"):
        index([(f"k{i}", w) for i, w in enumerate(weights)])


def test_rank_items_is_deterministic():
    mixed = [("z", 1.0), ("a", 1.0), ("m", 2.0)]
    assert [label for label, _ in rank_items(mixed)] == ["m", "a", "z"]


# --- rank_items paths ----------------------------------------------------------

#: Weights that tie across types: one value as an int, a float and a
#: Fraction, 0.0 beside -0.0, 10**17 beside 1e17, and inf.
TIED = [0, 0.0, -0.0, 1, 1.0, Fraction(1), 2.5, Fraction(5, 2), 3.0, 10**17, 1e17, float("inf")]


@st.composite
def rank_inputs(draw):
    """Items over a pool of weights that is small next to the items (the
    bucket path) or as large as they are (the sorts), with repeated labels
    and repeated (label, weight) items."""
    n = draw(st.integers(min_value=0, max_value=60))
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(TIED), st.floats(min_value=0, max_value=100, allow_nan=False)),
            min_size=1,
            max_size=draw(st.sampled_from([1, 2, max(1, n // 8), max(1, n)])),
        )
    )
    labels = st.sampled_from(["a", "b", "ab", "B", "é", ""])
    entries = draw(st.lists(st.tuples(labels, st.sampled_from(pool)), min_size=n, max_size=n))
    return entries + draw(st.lists(st.sampled_from(entries), max_size=5)) if entries else entries


@given(rank_inputs(), st.randoms(use_true_random=False))
@example([("b", 0.0), ("a", -0.0), ("a", 0.0), ("c", 0)] * 4, None)
@example([(f"k{i}", float(i)) for i in range(20)], None)
def test_rank_items_equals_two_sorts_on_either_path(entries, rng):
    expected = two_sort_rank(entries)
    # the chosen path, and each path forced: 0 always sorts, 1 always buckets
    for share in (kernel._BUCKET_SHARE, 0, 1):
        with mock.patch.object(kernel, "_BUCKET_SHARE", share):
            ranked = rank_items(iter(entries))
        assert ranked == expected
        # the same objects in the same places, not just equal values
        assert list(map(id, ranked)) == list(map(id, expected))
    if rng is None:
        return
    # Items equal in label and weight keep their input order, so an int and
    # a Fraction of one value would divide differently; as floats, every
    # order gives the same table and the same report.
    finite = [(label, float(w)) for label, w in entries if w != float("inf")]
    shuffled = list(finite)
    rng.shuffle(shuffled)
    for index in (h_type_index, g_type_index):
        assert index(shuffled).table == index(finite).table
        csv = Report("0", "compute", index(finite)).render("csv")
        assert Report("0", "compute", index(shuffled)).render("csv") == csv


# --- NaN weights ----------------------------------------------------------------

NAN, OTHER_NAN = float("nan"), float("nan")


def _raw_ivw(weighted):
    """The raw ivw kernel path: rank by weight, ratio w / r, first crossing."""
    labels, weights = zip(*rank_items(weighted))
    return first_crossing_index(RankedTable(labels, weights, [w / r for r, w in enumerate(weights, start=1)]))


@pytest.mark.parametrize("share", [None, 0, 1], ids=["chosen", "sorts", "buckets"])
@pytest.mark.parametrize("index", [h_type_index, g_type_index, _raw_ivw])
def test_nan_weight_names_its_smallest_label_in_any_order(index, share):
    # "b" is the smallest label with a NaN, though "a" is smaller and "d" overflows
    weighted = [("c", NAN), ("a", 2.0), ("d", float("inf")), ("b", OTHER_NAN), ("e", NAN), ("b", 2.0)]
    with mock.patch.object(kernel, "_BUCKET_SHARE", kernel._BUCKET_SHARE if share is None else share):
        for order in permutations(weighted):
            with pytest.raises(NonFiniteWeight, match="NaN") as err:
                index(list(order))
            assert err.value.label == "b"


def test_nan_ratio_names_its_smallest_label_in_any_order():
    # NaN ratios first and after the first rank, where max(ratios) skips
    # them, beside an overflowed ratio
    rows = [("c", 1.0, NAN), ("a", 1.0, 0.5), ("e", 1.0, float("inf")), ("d", 1.0, OTHER_NAN), ("b", 1.0, NAN)]
    for order in permutations(rows):
        with pytest.raises(NonFiniteWeight, match="NaN") as err:
            RankedTable(*zip(*order))
        assert err.value.label == "b"


def test_overflow_names_its_smallest_label_in_any_order():
    # an overflowed weight, or else an overflowed ratio, names the smallest
    # label that carries one, not the first in rank order
    inf = float("inf")
    cases = [
        ([("c", inf, inf), ("b", inf, 1.0), ("d", inf, 0.5), ("a", 2.0, inf)], "b"),
        ([("c", 1.0, inf), ("b", 1.0, inf), ("a", 1.0, 0.5), ("d", 1.0, inf)], "b"),
    ]
    for rows, label in cases:
        for order in permutations(rows):
            weights = [weight for _, weight, _ in order]
            if weights != sorted(weights, reverse=True):
                continue
            with pytest.raises(NonFiniteWeight) as err:
                RankedTable(*zip(*order))
            assert err.value.label == label
    # finite ratios whose sum overflows are printable
    assert RankedTable(("a", "b"), (1e308, 1e308), (1e308, 1e308)).ratios == (1e308, 1e308)
