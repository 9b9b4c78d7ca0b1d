"""The index family: worked examples, degeneracies, and order properties."""

from __future__ import annotations

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xindices import (
    MissingGroupLabel,
    MissingStats,
    NonFiniteWeight,
    NonPositiveMean,
    RankBasisUnsupported,
    ZeroOrMissingVariance,
    build_corpus,
    estimate_stats,
    g_type_index,
    group_index,
    h_type_index,
    ivw_xd_index,
    load_reference_stats,
    x_index,
    xc_index,
    xd_index,
    xdf_index,
    xdfn_index,
    xo_index,
)
from xindices.cli import main
from xindices.indices import INDEX_FIELDS
from xindices.kernel import kernel_index
from xindices.ingest import LABEL_FIELDS
from xindices.stats import ReferenceStats, StatsEntry

from conftest import columns_of, random_records, record, replaced
from oracles import naive_h_oracle, naive_xo_oracle, nested_index, partition_by_group

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def unit_stats(corpus, mean=1.0, variance=1.0):
    return ReferenceStats(
        [
            StatsEntry(label, mean, variance, 1)
            for label, _ in corpus.items("categories")[0]
        ]
    )


# --- x ---------------------------------------------------------------------


def test_x_hand_case():
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 6, keywords=("a", "b")),
                record("p2", 1, keywords=("a",)),
                record("p3", 2, keywords=("b", "c")),
            ]
        )
    )
    assert naive_h_oracle([8, 7, 2]) == 2
    assert x_index(corpus, "h").value == 2


def test_x_empty_corpus():
    assert x_index(build_corpus(columns_of([])), "h").value == 0


def test_x_single_keyword_single_citation():
    corpus = build_corpus(columns_of([record("p1", 1, keywords=("a",))]))
    assert x_index(corpus, "h").value == 1


# --- xc -----------------------------------------------------------------------


def test_xc_overlap_hand_case():
    corpus = build_corpus(columns_of([record("p1", 3, keywords=("a",), categories=("c1", "c2"))]))
    assert x_index(corpus, "h").value == 1
    assert xc_index(corpus, "h").value == 2


def test_xc_equals_x_when_categories_disjoint():
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 5, keywords=("a",), categories=("c1",)),
                record("p2", 3, keywords=("b",), categories=("c2",)),
            ]
        )
    )
    assert xc_index(corpus, "h").value == x_index(corpus, "h").value


def test_xc_no_categorised_publications():
    corpus = build_corpus(columns_of([record("p1", 5, keywords=("a",))]))
    assert xc_index(corpus, "h").value == 0


def test_xc_table_labels_are_pairs():
    corpus = build_corpus(columns_of([record("p1", 3, keywords=("a",), categories=("c1", "c2"))]))
    labels = [row.label for row in xc_index(corpus, "h").table.rows]
    assert labels == ["a@c1", "a@c2"]


def test_xc_pairs_with_separator_in_labels_stay_apart():
    # Both pairs render as "a@b@c"; they are still two items of 5.
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 5, keywords=("a@b",), categories=("c",)),
                record("p2", 5, keywords=("a",), categories=("b@c",)),
            ]
        )
    )
    result = xc_index(corpus, "h")
    assert result.value == 2
    assert [(row.label, row.weight) for row in result.table.rows] == [
        ("a@b@c", 5.0),
        ("a@b@c", 5.0),
    ]


# --- xd ---------------------------------------------------------------------


def xd_corpus():
    return build_corpus(
        columns_of(
            [
                record("p1", 9, categories=("a",)),
                record("p2", 4, categories=("b",)),
                record("p3", 2, categories=("c",)),
                record("p4", 2, categories=("d",)),
            ]
        )
    )


def test_xd_hand_case_h():
    assert naive_h_oracle([9, 4, 2, 2]) == 2
    assert xd_index(xd_corpus(), "h").value == 2


def test_xd_hand_case_g():
    # cumulative 17 >= 16 at rank 4
    assert xd_index(xd_corpus(), "g").value == 4


def test_xd_no_categories():
    assert xd_index(build_corpus(columns_of([record("p1", 9)])), "h").value == 0


# --- xdf --------------------------------------------------------------------


def test_xdf_fractional_weights():
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 10, categories=("a",), institutions=("i1", "i2")),
                record("p2", 3, categories=("a",), institutions=("i1",)),
            ]
        )
    )
    row = xdf_index(corpus, "h").table.rows[0]
    assert row.label == "a"
    assert row.weight == 8.0


def test_xdf_equals_xd_single_institution():
    rng = random.Random(3)
    records = [
        record(f"p{i}", rng.randint(0, 40), (), (f"c{rng.randint(0, 5)}",), ("i1",))
        for i in range(30)
    ]
    corpus = build_corpus(columns_of(records))
    for ratio_type in ("h", "g"):
        assert xdf_index(corpus, ratio_type).value == xd_index(corpus, ratio_type).value


def test_xdf_empty():
    assert xdf_index(build_corpus(columns_of([])), "h").value == 0


# --- xdfn -------------------------------------------------------------------


def test_xdfn_divides_by_mean():
    corpus = build_corpus(columns_of([record("p1", 12, categories=("a",))]))
    stats = ReferenceStats([StatsEntry("a", 2.0, 1.0, 10)])
    row = xdfn_index(corpus, "h", stats).table.rows[0]
    assert row.weight == 6.0


def test_xdfn_scores_reach_the_kernel_over_a_power_of_two_scale(monkeypatch):
    # 2 000 file means with distinct odd numerators: exact quotients by them
    # would go over their lcm, whose size grows with the category count
    categories = [f"c{i:04d}" for i in range(2_000)]
    corpus = build_corpus(columns_of([record(f"p{i}", i % 97, categories=(c,)) for i, c in enumerate(categories)]))
    text = "category,mean,variance,n\n" + "".join(f"{c},{1 + i / 3!r},1,10\n" for i, c in enumerate(categories))
    stats = load_reference_stats(io.BytesIO(text.encode()))
    scales = []

    def spy(view, ratio_type, kind):
        scales.append(view[1])
        return kernel_index(view, ratio_type, kind)

    monkeypatch.setattr("xindices.indices.kernel_index", spy)
    for ratio_type in ("h", "g"):
        xdfn_index(corpus, ratio_type, stats)
    assert len(scales) == 2 and all(scale & (scale - 1) == 0 for scale in scales)


def test_xdfn_unit_means_equals_xd():
    corpus = xd_corpus()
    stats = unit_stats(corpus)
    assert xdfn_index(corpus, "h", stats).value == xd_index(corpus, "h").value
    assert xdfn_index(corpus, "g", stats).value == xd_index(corpus, "g").value


def test_xdfn_internal_means_scores_are_publication_counts():
    rng = random.Random(5)
    records = random_records(rng, max_pubs=60, min_citations=1)
    corpus = build_corpus(columns_of(records))
    stats = estimate_stats(corpus)
    result = xdfn_index(corpus, "h", stats)
    counts = {}
    for rec in records:
        for cat in rec.categories:
            counts[cat] = counts.get(cat, 0) + 1
    for row in result.table.rows:
        assert row.weight == counts[row.label]  # exact, not within-epsilon
    expected = h_type_index(
        [(cat, float(n)) for cat, n in counts.items()]
    ).value
    assert result.value == expected


def test_xdfn_internal_means_exact_on_awkward_totals():
    # 9 citations over 7 publications: t/(t/n) in floats is 6.99...9, the
    # exact-rational path must give exactly 7
    records = [record("p0", 9, (), ("a",))] + [
        record(f"p{i}", 0, (), ("a",)) for i in range(1, 7)
    ]
    corpus = build_corpus(columns_of(records))
    result = xdfn_index(corpus, "h", estimate_stats(corpus))
    assert result.table.rows[0].weight == 7


DECIMAL_TABLE = (
    "id,citations,categories\n"
    "p1,0.10,a\np2,0.20,a\np3,0.30,a\n"
    "p4,1.10,b\np5,2.20,b\np6,3.30,b\np7,0.70,b\n"
)


def test_decimal_table_prints_true_totals_and_publication_counts(tmp_path, capsys):
    # Float sums read 0.1 + 0.2 + 0.3 as 0.6000000000000001, and a total
    # over its own internal mean as 3.0000000000000004; exact sums do not.
    path = tmp_path / "in.csv"
    path.write_text(DECIMAL_TABLE)

    def csv_rows(*argv):
        assert main(["compute", "--input", str(path), "--format", "csv", *argv]) == 0
        return capsys.readouterr().out.splitlines()[1:]

    assert csv_rows("--index", "xdfn", "--internal-stats") == ["1,b,4,4", "2,a,3,1.5"]
    assert csv_rows("--index", "xd") == ["1,b,7.3,7.3", "2,a,0.6,0.3"]


def test_xdfn_requires_stats():
    with pytest.raises(MissingStats):
        xdfn_index(xd_corpus(), "h", None)


def test_xdfn_strict_missing_category():
    corpus = xd_corpus()
    stats = ReferenceStats([StatsEntry("a", 1.0, 1.0, 1)])
    with pytest.raises(MissingStats) as err:
        xdfn_index(corpus, "h", stats, strict=True)
    assert err.value.category in {"b", "c", "d"}


def test_xdfn_lenient_drops_missing_category():
    corpus = xd_corpus()
    stats = ReferenceStats([StatsEntry("a", 1.0, 1.0, 1)])
    result = xdfn_index(corpus, "h", stats, strict=False)
    assert [row.label for row in result.table.rows] == ["a"]


def test_xdfn_zero_mean_strict_raises():
    corpus = build_corpus(columns_of([record("p1", 0, categories=("a",))]))
    stats = estimate_stats(corpus)  # mean 0 for category a
    with pytest.raises(NonPositiveMean):
        xdfn_index(corpus, "h", stats, strict=True)
    lenient = xdfn_index(corpus, "h", stats, strict=False)
    assert lenient.table.rows == ()


@pytest.mark.parametrize("ratio_type", ["h", "g"])
@pytest.mark.parametrize("internal", [True, False], ids=["internal", "file"])
def test_xdfn_overflowing_total_raises_as_xd(ratio_type, internal):
    # a's total is finite; b's and c's overflow, and both indices name b
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 1.7e308, categories=("a", "b", "c")),
                record("p2", 1.7e308, categories=("b", "c")),
            ]
        )
    )
    stats = estimate_stats(corpus) if internal else unit_stats(corpus, mean=2.0)
    with pytest.raises(NonFiniteWeight) as xd_err:
        xd_index(corpus, ratio_type)
    with pytest.raises(NonFiniteWeight) as err:
        xdfn_index(corpus, ratio_type, stats)
    assert err.value.label == xd_err.value.label == "b"
    # the stats checks still come first: strict names the missing category,
    # lenient drops it, and the overflowed total then raises
    partial = ReferenceStats([stats.get("a"), stats.get("c")])
    with pytest.raises(MissingStats) as missing:
        xdfn_index(corpus, ratio_type, partial, strict=True)
    assert missing.value.category == "b"
    with pytest.raises(NonFiniteWeight) as err:
        xdfn_index(corpus, ratio_type, partial, strict=False)
    assert err.value.label == "c"


# --- ivw --------------------------------------------------------------------


def ivw_fixture():
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 9, categories=("a",)),
                record("p2", 8, categories=("b",)),
                record("p3", 5, categories=("c",)),
            ]
        )
    )
    stats = ReferenceStats(
        [
            StatsEntry("a", 1.0, 2.0, 9),
            StatsEntry("b", 1.0, 4.0, 8),
            StatsEntry("c", 1.0, 10.0, 5),
        ]
    )
    return corpus, stats


def test_ivw_hand_case():
    corpus, stats = ivw_fixture()
    result = ivw_xd_index(corpus, "h", stats)
    assert result.value == 2
    assert [row.ratio for row in result.table.rows] == [4.5, 1.0, 5 / 30]


def test_ivw_unit_variances_equals_xd():
    corpus = xd_corpus()
    stats = unit_stats(corpus)
    assert ivw_xd_index(corpus, "h", stats).value == xd_index(corpus, "h").value


def test_ivw_rank_stays_on_raw_totals():
    # high-variance category keeps its citation rank even with a tiny ratio
    corpus, stats = ivw_fixture()
    result = ivw_xd_index(corpus, "h", stats)
    assert [row.label for row in result.table.rows] == ["a", "b", "c"]
    assert [row.weight for row in result.table.rows] == [9.0, 8.0, 5.0]


def test_ivw_non_monotone_crossing_ignores_recovery():
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 10, categories=("a",)),
                record("p2", 9, categories=("b",)),
                record("p3", 8, categories=("c",)),
            ]
        )
    )
    stats = ReferenceStats(
        [
            StatsEntry("a", 1.0, 20.0, 1),
            StatsEntry("b", 1.0, 1.0, 1),
            StatsEntry("c", 1.0, 1.0, 1),
        ]
    )
    result = ivw_xd_index(corpus, "h", stats)
    # ratios: 0.5, 4.5, 8/3 -> crossing at rank 1
    assert result.value == 0


def test_ivw_zero_variance_rejected_without_floor():
    corpus = build_corpus(
        columns_of(
            [record("p1", 5, categories=("a",)), record("p2", 5, categories=("a",))]
        )
    )
    stats = estimate_stats(corpus)  # all-equal citations -> variance 0
    with pytest.raises(ZeroOrMissingVariance):
        ivw_xd_index(corpus, "h", stats)


def test_ivw_undefined_variance_rejected_without_floor():
    corpus = build_corpus(columns_of([record("p1", 5, categories=("a",))]))
    stats = estimate_stats(corpus, "sample")  # n = 1 -> undefined
    with pytest.raises(ZeroOrMissingVariance):
        ivw_xd_index(corpus, "h", stats)


def test_ivw_variance_floor_substitutes():
    corpus = build_corpus(
        columns_of(
            [record("p1", 5, categories=("a",)), record("p2", 5, categories=("a",))]
        )
    )
    stats = estimate_stats(corpus)
    result = ivw_xd_index(corpus, "h", stats, variance_floor=1.0)
    assert result.value == 1  # ratio 10/(1*1) = 10


def test_ivw_variance_floor_must_be_positive():
    corpus, stats = ivw_fixture()
    with pytest.raises(ValueError):
        ivw_xd_index(corpus, "h", stats, variance_floor=0.0)


def test_ivw_raw_g_type_unsupported():
    corpus, stats = ivw_fixture()
    with pytest.raises(RankBasisUnsupported):
        ivw_xd_index(corpus, "g", stats)


def test_ivw_weighted_basis_ranks_by_score():
    corpus, stats = ivw_fixture()
    result = ivw_xd_index(corpus, "h", stats, rank_basis="weighted")
    # scores: a 4.5, b 2.0, c 0.5
    assert [row.label for row in result.table.rows] == ["a", "b", "c"]
    assert result.value == 2
    g_result = ivw_xd_index(corpus, "g", stats, rank_basis="weighted")
    assert g_result.value >= result.value


def test_ivw_weighted_g_value_follows_the_kernel_rule():
    # scores 3 and 1 - 2**-52: their exact sum falls short of 4, so rank 2
    # does not count, though its ratio (4 - 2**-52) / 4 prints as 1 (the
    # kernel's half-ulp edge)
    corpus = build_corpus(columns_of([record("p1", 3, categories=("a",)), record("p2", 1, categories=("b",))]))
    stats = ReferenceStats([StatsEntry("a", 1.0, 1.0, 1), StatsEntry("b", 1.0, 1 + 2**-52, 1)])
    result = ivw_xd_index(corpus, "g", stats, rank_basis="weighted")
    assert result.table.weights == (3.0, 1 - 2**-52)
    assert (result.value, result.table.ratios) == (1, (3.0, 1.0))


@given(seeds, st.sampled_from(["h", "g"]), st.sampled_from([1e-3, 0.5, 7.0]))
@settings(max_examples=60, deadline=None)
def test_ivw_weighted_equals_the_kernel_over_its_printed_scores(seed, ratio_type, floor):
    corpus = build_corpus(columns_of(random_records(random.Random(seed), max_pubs=60)))
    result = ivw_xd_index(corpus, ratio_type, estimate_stats(corpus), "weighted", variance_floor=floor)
    rule = h_type_index if ratio_type == "h" else g_type_index
    kernel = rule(zip(result.table.labels, result.table.weights), "ivw")
    assert (result.value, result.table) == (kernel.value, kernel.table)


def test_ivw_weighted_score_is_the_exact_total_over_the_variance_rounded_once():
    # a's total 1.7 over its sample variance, the float 1.445: rounding the
    # total first, 1.7 / 1.445, would print 1.176470588235294
    pubs = [record("p1", 0, categories=("a",)), record("p2", Fraction(17, 10), categories=("a",))]
    corpus = build_corpus(columns_of(pubs))
    stats = estimate_stats(corpus)
    assert stats.get("a").variance == 1.445
    result = ivw_xd_index(corpus, "h", stats, "weighted", variance_floor=0.5)
    assert result.table.weights == (float(Fraction(17, 10) / Fraction(1.445)),)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_raw_ivw_ranks_the_kept_categories_as_xd_does(seed):
    rng = random.Random(seed)
    records = random_records(rng, max_pubs=60)
    corpus = build_corpus(columns_of(records))
    entries = estimate_stats(corpus).entries()
    kept = {entry.category for entry in rng.sample(entries, rng.randint(0, len(entries)))}
    stats = ReferenceStats([entry for entry in entries if entry.category in kept])
    result = ivw_xd_index(corpus, "h", stats, variance_floor=0.5, strict=False)
    only_kept = [replaced(rec, categories=[cat for cat in rec.categories if cat in kept]) for rec in records]
    xd = xd_index(build_corpus(columns_of(only_kept)), "h")
    assert (result.table.labels, result.table.weights) == (xd.table.labels, xd.table.weights)


@pytest.mark.parametrize("rank_basis", ["raw", "weighted"])
def test_ivw_stats_checks_come_before_a_score_that_overflows(rank_basis):
    # a's total is finite but over its variance overflows; b lacks stats
    corpus = build_corpus(columns_of([record("p1", 5, categories=("a",)), record("p2", 3, categories=("b",))]))
    stats = ReferenceStats([StatsEntry("a", 1.0, 1e-320, 2)])
    with pytest.raises(MissingStats) as missing:
        ivw_xd_index(corpus, "h", stats, rank_basis, strict=True)
    assert missing.value.category == "b"
    with pytest.raises(NonFiniteWeight) as err:
        ivw_xd_index(corpus, "h", stats, rank_basis, strict=False)
    assert err.value.label == "a"
    assert "citation total over variance overflows" in str(err.value)


def test_ivw_requires_stats():
    with pytest.raises(MissingStats):
        ivw_xd_index(xd_corpus(), "h", None)


def test_ivw_strict_missing_category():
    corpus = xd_corpus()
    stats = ReferenceStats([StatsEntry("a", 1.0, 1.0, 1)])
    with pytest.raises(MissingStats):
        ivw_xd_index(corpus, "h", stats, strict=True)
    lenient = ivw_xd_index(corpus, "h", stats, strict=False)
    assert [row.label for row in lenient.table.rows] == ["a"]


# --- xo ---------------------------------------------------------------------


def xo_corpus(inner_values=(3, 2, 2, 1)):
    records = []
    pid = 0
    for c, inner in enumerate(inner_values):
        for k in range(inner):
            pid += 1
            records.append(
                record(f"p{pid}", inner, (f"c{c}k{k}",), (f"c{c}",))
            )
    return build_corpus(columns_of(records))


def test_xo_hand_case():
    corpus = xo_corpus((3, 2, 2, 1))
    result = xo_index(corpus, "h")
    assert [row.weight for row in result.table.rows] == [3.0, 2.0, 2.0, 1.0]
    assert result.value == 2


def test_xo_single_category():
    corpus = build_corpus(
        columns_of(
            [record(f"p{i}", 5, (f"k{i}",), ("c1",)) for i in range(5)]
        )
    )
    result = xo_index(corpus, "h")
    assert result.table.rows[0].weight == 5.0
    assert result.value == 1


def test_xo_no_categorised_publications():
    assert xo_index(build_corpus(columns_of([record("p1", 9, ("k",))])), "h").value == 0


def test_xo_uses_in_category_citations():
    # both keywords reach a global total of 2, but inside each category they
    # only have 1 citation, so each inner x-index must stay at 1
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 1, ("k1", "k2"), ("a",)),
                record("p2", 1, ("k1", "k2"), ("b",)),
            ]
        )
    )
    result = xo_index(corpus, "h")
    weights = {row.label: row.weight for row in result.table.rows}
    assert weights == {"a": 1.0, "b": 1.0}


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_xo_matches_oracle_with_separator_in_labels(seed):
    # "@" joins pair labels; xo must group by category, not by split labels
    rng = random.Random(seed)
    keywords = ["a", "a@b", "b", "b@c", "c@"]
    categories = ["c", "b@c", "@c", "a@b"]
    records = [
        record(
            f"p{i}",
            rng.randint(0, 6),
            tuple(rng.sample(keywords, rng.randint(0, 3))),
            tuple(rng.sample(categories, rng.randint(0, 2))),
        )
        for i in range(rng.randint(0, 30))
    ]
    corpus = build_corpus(columns_of(records))
    for ratio_type in ("h", "g"):
        assert xo_index(corpus, ratio_type).value == naive_xo_oracle(records, ratio_type)


# --- nested -------------------------------------------------------------------


def corpus_with_x(value: int, prefix: str):
    return build_corpus(
        columns_of(
            [
                record(f"{prefix}p{k}", value, (f"{prefix}k{k}",), ())
                for k in range(value)
            ]
        )
    )


def test_nested_hand_case():
    groups = {
        "i1": corpus_with_x(4, "a"),
        "i2": corpus_with_x(3, "b"),
        "i3": corpus_with_x(1, "c"),
    }
    result = nested_index(groups, inner="x", ratio_type="h")
    assert naive_h_oracle([4, 3, 1]) == 2
    assert result.value == 2
    assert [row.label for row in result.table.rows] == ["i1", "i2", "i3"]


def test_nested_single_group_zero_inner():
    groups = {"i1": build_corpus(columns_of([record("p1", 0, ("k",))]))}
    assert nested_index(groups, inner="x", ratio_type="h").value == 0


def test_nested_single_group_positive_inner():
    groups = {"i1": corpus_with_x(3, "a")}
    assert nested_index(groups, inner="x", ratio_type="h").value == 1


def test_nested_xd_inner():
    groups = {
        f"i{j}": build_corpus(
            columns_of(
                [record(f"g{j}p{k}", 2, (), (f"g{j}c{k}",)) for k in range(2)]
            )
        )
        for j in range(3)
    }
    result = nested_index(groups, inner="xd", ratio_type="h")
    assert naive_h_oracle([2, 2, 2]) == 2
    assert result.value == 2


def test_nested_unknown_inner():
    with pytest.raises(ValueError):
        nested_index({}, inner="xc")


def test_nested_group_enumeration_order_irrelevant():
    rng = random.Random(23)
    records = random_records(rng, max_pubs=60)
    group_values = [rec.institutions for rec in records]
    groups = partition_by_group(records, group_values)
    reversed_groups = dict(reversed(list(groups.items())))
    assert nested_index(groups, "x", "h") == nested_index(reversed_groups, "x", "h")
    assert nested_index(groups, "xd", "g") == nested_index(reversed_groups, "xd", "g")


def outcome(compute):
    try:
        return compute()
    except (MissingGroupLabel, NonFiniteWeight) as exc:
        return type(exc), str(exc)


@given(seeds, st.sampled_from(["x", "xd"]), st.sampled_from(["h", "g"]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_group_index_equals_nested_index_over_partition(seed, inner, ratio_type, strict):
    rng = random.Random(seed)
    # decimal citations, sometimes large enough for a group total to overflow
    records = [
        replaced(rec, citations=rng.choice([rng.randrange(10**5) / 100, 1e308]))
        for rec in random_records(rng, max_pubs=60, max_categories=6, max_keywords=10)
    ]
    rng.shuffle(records)
    # distinct, non-empty group labels, as read_table writes them
    group_values = [tuple(rng.sample(["i1", "i2", "i3"], rng.randint(0, 3))) for _ in records]
    expected = outcome(
        lambda: nested_index(partition_by_group(records, group_values, strict), inner, ratio_type)
    )
    assert outcome(
        lambda: group_index(build_corpus(columns_of(records)), group_values, inner, ratio_type, strict)
    ) == expected


@given(seeds, st.sampled_from(["h", "g"]))
@settings(max_examples=100, deadline=None)
def test_xo_index_equals_the_kernel_over_each_categorys_exact_items(seed, ratio_type):
    # xo reads each category's exact int totals; the reference builds a
    # Corpus of each category's publications and ranks its keyword view
    rng = random.Random(seed)
    records = [
        replaced(rec, citations=rng.choice([rng.randrange(10**5) / 100, 1e308]))
        for rec in random_records(rng, max_pubs=60, max_categories=6, max_keywords=10)
    ]
    corpus = build_corpus(columns_of(records))
    categorised = [rec for rec in records if rec.categories]  # the rest count in no category

    def reference():
        by_category = partition_by_group(categorised, [rec.categories for rec in categorised])
        # partition_by_group lists the categories in label order
        scored = [(cat, kernel_index(group.items("keywords"), "h", "x").value) for cat, group in by_category.items()]
        return kernel_index((scored, 1), ratio_type, "xo")

    expected = outcome(reference)
    assert outcome(lambda: xo_index(corpus, ratio_type)) == expected


def test_inner_values_round_each_total_before_dividing_it_by_its_rank():
    # The total 2.9999999999999998 prints as the float 3.0, but the rule
    # reads the exact total, which is below its rank 3, and so does the
    # printed ratio: the value is 2, where ranking the rounded totals gave 3.
    corpus = build_corpus(columns_of([record("p1", Fraction("2.9999999999999998"), ("a", "b", "c"), ("C",), ("I",))]))
    result = kernel_index(corpus.items("keywords"), "h", "x")
    assert (result.value, result.table.weights) == (2, (3.0, 3.0, 3.0))
    assert result.table.ratios[2] == 0.9999999999999999
    assert xo_index(corpus).table.weights == (2.0,)
    assert group_index(corpus, [("I",)]).table.weights == (2.0,)


def test_group_index_reads_list_valued_group_values():
    # a publication whose groups are an empty list, not (), has none
    corpus = build_corpus(columns_of([record("p1", 3, ("a",)), record("p2", 2, ("b",))]))
    result = group_index(corpus, [["i1"], []])
    assert result.table.labels == ("(ungrouped)", "i1")
    with pytest.raises(MissingGroupLabel, match="p2"):
        group_index(corpus, [["i1"], []], strict=True)


def test_group_index_unknown_inner():
    with pytest.raises(ValueError):
        group_index(build_corpus(columns_of([])), [], inner="xc")


# Every index of a kind in INDEX_FIELDS, at both ratio types.
INDEX_READERS = {
    "x": x_index,
    "xc": xc_index,
    "xd": xd_index,
    "xdf": xdf_index,
    "xdfn": lambda c, t: xdfn_index(c, t, estimate_stats(c), strict=False),
    "ivw": lambda c, t: ivw_xd_index(
        c, t, estimate_stats(c, "population"), "raw" if t == "h" else "weighted", 0.5
    ),
    "xo": xo_index,
}


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_index_fields_hold_every_field_an_index_reads(seed):
    # ingest leaves the fields outside INDEX_FIELDS[kind] empty; the index
    # (and a nested index with that inner) must not change
    assert set(INDEX_READERS) == set(INDEX_FIELDS)
    rng = random.Random(seed)
    records = random_records(rng, max_pubs=50, min_citations=1)
    group_values = [rec.institutions for rec in records]
    full = build_corpus(columns_of(records))
    for kind, fields in INDEX_FIELDS.items():
        blank = dict.fromkeys(set(LABEL_FIELDS) - set(fields), ())
        projected = build_corpus(columns_of([replaced(rec, **blank) for rec in records]))
        for ratio_type in ("h", "g"):
            read = INDEX_READERS[kind]
            assert read(projected, ratio_type) == read(full, ratio_type), (kind, ratio_type)
            if kind in ("x", "xd"):
                assert group_index(projected, group_values, kind, ratio_type) == group_index(
                    full, group_values, kind, ratio_type
                )


# --- cross-index properties -----------------------------------------------------


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_definitional_consistency(seed):
    rng = random.Random(seed)
    corpus = build_corpus(columns_of(random_records(rng, max_pubs=50)))
    for result in (x_index(corpus, "h"), xc_index(corpus, "h"), xd_index(corpus, "h")):
        v = result.value
        rows = result.table.rows
        assert sum(1 for row in rows if row.weight >= v) >= v
        assert sum(1 for row in rows if row.weight >= v + 1) < v + 1


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_xo_bounded_by_xd(seed):
    rng = random.Random(seed)
    corpus = build_corpus(columns_of(random_records(rng, max_pubs=50)))
    for ratio_type in ("h", "g"):
        assert xo_index(corpus, ratio_type).value <= xd_index(corpus, ratio_type).value


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_xdf_bounded_by_xd(seed):
    rng = random.Random(seed)
    corpus = build_corpus(columns_of(random_records(rng, max_pubs=50)))
    assert xdf_index(corpus, "h").value <= xd_index(corpus, "h").value


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_monotone_under_extension(seed):
    rng = random.Random(seed)
    records = random_records(rng, max_pubs=40)
    extra = record(
        "extra",
        rng.randint(0, 100),
        (f"kw{rng.randint(0, 99)}",),
        (f"cat{rng.randint(0, 19)}",),
    )
    before = build_corpus(columns_of(records))
    after = build_corpus(columns_of(records + [extra]))
    assert x_index(after, "h").value >= x_index(before, "h").value
    assert xc_index(after, "h").value >= xc_index(before, "h").value
    assert xd_index(after, "h").value >= xd_index(before, "h").value
