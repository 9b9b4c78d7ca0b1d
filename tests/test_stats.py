"""Field statistics estimation and the reference-stats file format."""

from __future__ import annotations

import io
import math
import random
import statistics
import sys

import pytest
from hypothesis import given, settings, strategies as st

from xindices import (
    BadStatsRow,
    MissingColumn,
    NonFiniteStats,
    NonPositiveMean,
    build_corpus,
    estimate_stats,
    load_reference_stats,
    write_reference_stats,
)
from xindices.stats import ReferenceStats, StatsEntry

from conftest import columns_of, random_records, record


def corpus_with_samples(*citations):
    return build_corpus(
        columns_of(
            [record(f"p{i}", c, (), ("a",)) for i, c in enumerate(citations)]
        )
    )


def test_estimate_mean_and_variances():
    corpus = corpus_with_samples(1, 2, 3)
    sample = estimate_stats(corpus, "sample").get("a")
    assert sample.mean == 2.0
    assert sample.variance == 1.0
    assert sample.n == 3
    population = estimate_stats(corpus, "population").get("a")
    assert population.variance == pytest.approx(2 / 3)


def test_estimate_single_observation():
    corpus = corpus_with_samples(5)
    assert estimate_stats(corpus, "sample").get("a").variance is None
    assert estimate_stats(corpus, "population").get("a").variance == 0.0


def test_estimate_empty_corpus():
    assert len(estimate_stats(build_corpus(columns_of([])))) == 0


def test_estimate_unknown_kind():
    with pytest.raises(ValueError):
        estimate_stats(build_corpus(columns_of([])), "bootstrap")


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_estimate_mean_times_n_is_total(seed):
    rng = random.Random(seed)
    corpus = build_corpus(columns_of(random_records(rng, max_pubs=60, max_categories=6)))
    totals = dict(corpus.items("categories"))
    for entry in estimate_stats(corpus).entries():
        assert math.isclose(entry.mean * entry.n, totals[entry.category], rel_tol=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_population_vs_sample_variance(seed):
    rng = random.Random(seed)
    corpus = build_corpus(columns_of(random_records(rng, max_pubs=60, max_categories=6)))
    sample = estimate_stats(corpus, "sample")
    population = estimate_stats(corpus, "population")
    for entry in sample.entries():
        if entry.variance is None:
            continue
        expected = entry.variance * (entry.n - 1) / entry.n
        assert math.isclose(population.get(entry.category).variance, expected, rel_tol=1e-12, abs_tol=1e-12)


# --- file format ----------------------------------------------------------------


def load(text: str) -> ReferenceStats:
    return load_reference_stats(io.BytesIO(text.encode("utf-8")))


def dump(stats: ReferenceStats) -> str:
    out = io.BytesIO()
    write_reference_stats(stats, out)
    return out.getvalue().decode("utf-8")


def test_load_basic_row():
    stats = load("category,mean,variance,n\nphysics,4.0,2.5,120\n")
    entry = stats.get("physics")
    assert entry == StatsEntry("physics", 4.0, 2.5, 120)


def test_load_rejects_non_positive_mean():
    with pytest.raises(NonPositiveMean) as err:
        load("category,mean,variance,n\nphysics,0,2.5,120\n")
    assert err.value.category == "physics"


def test_load_rejects_bad_numbers():
    with pytest.raises(BadStatsRow) as err:
        load("category,mean,variance,n\nphysics,big,2.5,120\n")
    assert err.value.row == 2


@pytest.mark.parametrize(
    "row",
    ["nan,2.5,120", "inf,2.5,120", "1e400,2.5,120", "4.0,nan,120", "4.0,1e400,120", "4.0,-inf,120"],
)
def test_load_rejects_non_finite_numbers(row):
    with pytest.raises(BadStatsRow) as err:
        load(f"category,mean,variance,n\nphysics,{row}\n")
    assert err.value.row == 2


@pytest.mark.parametrize("row", ["1_000,2.5,120", "4.0,2_5,120", "4.0,2.5,1_20"])
def test_load_rejects_digit_separators(row):
    with pytest.raises(BadStatsRow):
        load(f"category,mean,variance,n\nphysics,{row}\n")


def test_load_strips_byte_order_mark():
    stats = load_reference_stats(io.BytesIO(b"\xef\xbb\xbfcategory,mean,variance,n\na,2,1,3\n"))
    assert stats.get("a") == StatsEntry("a", 2.0, 1.0, 3)


@pytest.mark.parametrize("kind", ["sample", "population"])
def test_estimate_variance_beyond_float_range(kind):
    corpus = corpus_with_samples(0.0, 1e308, 1e308)
    with pytest.raises(NonFiniteStats) as err:
        estimate_stats(corpus, kind)
    assert err.value.category == "a"


def test_load_rejects_negative_variance():
    with pytest.raises(BadStatsRow):
        load("category,mean,variance,n\nphysics,4.0,-2.5,120\n")


def test_load_rejects_zero_n():
    with pytest.raises(BadStatsRow):
        load("category,mean,variance,n\nphysics,4.0,2.5,0\n")


def test_load_rejects_wrong_header():
    with pytest.raises(MissingColumn):
        load("cat,avg,var,count\nphysics,4.0,2.5,120\n")


def test_empty_variance_cell_is_undefined():
    stats = load("category,mean,variance,n\nphysics,4.0,,1\n")
    assert stats.get("physics").variance is None


def test_write_then_load_round_trip():
    stats = ReferenceStats(
        [
            StatsEntry("a", 2.0, 1.0, 3),
            StatsEntry("b", 1 / 3, 7 / 9, 5),
            StatsEntry("c", 5.0, None, 1),
        ]
    )
    assert load(dump(stats)) == stats


def test_load_then_write_preserves_canonical_file():
    text = "category,mean,variance,n\na,2,1,3\nb,0.3333333333333333,0.7777777777777778,5\nc,5,,1\n"
    assert dump(load(text)) == text


def test_write_canonical_number_formatting():
    stats = ReferenceStats([StatsEntry("a", 2.0, 1.0, 3)])
    assert dump(stats) == "category,mean,variance,n\na,2,1,3\n"


def test_estimated_mean_is_exact_rational():
    from fractions import Fraction

    corpus = corpus_with_samples(9, 0, 0, 0, 0, 0, 0)  # total 9 over 7 pubs
    mean = estimate_stats(corpus).get("a").mean
    assert mean == Fraction(9, 7)  # not the float 9/7


@given(
    st.lists(
        st.floats(min_value=0, max_value=1e150), min_size=1, max_size=30
    )
)
def test_estimated_mean_equals_fraction_sum(citations):
    from fractions import Fraction

    mean = estimate_stats(corpus_with_samples(*citations), "population").get("a").mean
    assert mean == sum(Fraction(c) for c in citations) / len(citations)


def test_load_rejects_repeated_category():
    with pytest.raises(BadStatsRow) as err:
        load("category,mean,variance,n\na,1,1,3\nb,1,1,3\na,2,1,3\n")
    assert err.value.row == 4
    assert str(err.value) == "stats row 4: duplicate category 'a'"


def test_load_field_over_csv_limit_is_bad_stats_row():
    with pytest.raises(BadStatsRow) as err:
        load("category,mean,variance,n\n" + "c" * 140_000 + ",1,1,3\n")
    assert err.value.row == 2
    assert "field larger than field limit" in str(err.value)


def test_dump_of_estimates_is_stable_after_one_load():
    # estimated (exact) means round to 17 significant digits on first write;
    # after that the file representation is a fixed point of dump(load(.))
    rng = random.Random(11)
    corpus = build_corpus(columns_of(random_records(rng, max_pubs=80, min_citations=1)))
    text = dump(estimate_stats(corpus))
    assert dump(load(text)) == text


def test_duplicate_categories_rejected():
    with pytest.raises(ValueError):
        ReferenceStats([StatsEntry("a", 1.0, 1.0, 1), StatsEntry("a", 2.0, 1.0, 1)])


two_decimals = st.integers(min_value=0, max_value=10**6).map(lambda cents: cents / 100)
near_float_max = st.floats(min_value=1e307, max_value=sys.float_info.max)
samples = st.one_of(
    st.lists(two_decimals, min_size=1, max_size=40),
    st.lists(st.floats(min_value=0, max_value=1e300), min_size=1, max_size=20),
    st.lists(st.one_of(two_decimals, near_float_max), min_size=1, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(samples, st.sampled_from(["sample", "population"]))
def test_estimated_variance_is_the_exact_variance_rounded_once(values, kind):
    from fractions import Fraction

    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    spread = sum((v - mean) ** 2 for v in exact)
    divisor = len(exact) if kind == "population" else len(exact) - 1
    corpus = corpus_with_samples(*values)
    try:
        expected = float(spread / divisor) if divisor else None
    except OverflowError:
        with pytest.raises(NonFiniteStats):
            estimate_stats(corpus, kind)
        return
    assert estimate_stats(corpus, kind).get("a").variance == expected
    # statistics rounds the exact variance once from Python 3.11 on
    if expected is not None and sys.version_info >= (3, 11):
        variance = statistics.pvariance if kind == "population" else statistics.variance
        assert variance(values) == expected
