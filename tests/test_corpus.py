"""Corpus construction, aggregation views, and their invariants."""

from __future__ import annotations

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from xindices import (
    Corpus,
    DuplicateId,
    MissingGroupLabel,
    NegativeCitations,
    NonFiniteCitations,
    PublicationColumns,
    build_corpus,
    estimate_stats,
    group_index,
    ivw_xd_index,
    x_index,
    xc_index,
    xd_index,
    xdf_index,
    xdfn_index,
    xo_index,
)
import xindices.corpus as corpus_module
from xindices.cli import main
from xindices.corpus import ITEM_VIEWS, ScaledCitations
from xindices.ingest import LABEL_FIELDS

from conftest import columns_of, random_records, record
from oracles import partition_by_group, reference_totals_by_group, reference_views


def weights(view):
    """A view's (items, scale) as each label's exact total."""
    items, scale = view
    return {label: Fraction(total, scale) for label, total in items}


def exact(by_group, scale):
    """totals_by_group's int totals as the Fractions they stand for."""
    return {
        group: {label: Fraction(total, scale) for label, total in totals.items()} for group, totals in by_group.items()
    }


def test_empty_corpus():
    corpus = build_corpus(columns_of([]))
    assert len(corpus) == 0
    assert corpus.items("keywords") == ((), 1)
    assert corpus.items("pairs") == ((), 1)
    assert corpus.items("categories") == ((), 1)
    assert corpus.category_sums() == {}


def test_singleton_corpus():
    corpus = build_corpus(columns_of([record("a", 3, ("k1",), ("c1",), ("i1",))]))
    assert len(corpus) == 1
    assert weights(corpus.items("keywords")) == {"k1": 3.0}


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateId) as err:
        build_corpus(columns_of([record("a", 1), record("a", 2)]))
    assert err.value.id == "a"


def test_negative_citations_rejected():
    with pytest.raises(NegativeCitations):
        build_corpus(columns_of([record("a", -1)]))


@pytest.mark.parametrize(
    "citations", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "beyond-float"]
)
def test_non_finite_citations_rejected(citations):
    # estimate_stats and the totals views could not handle such a count
    with pytest.raises(NonFiniteCitations) as err:
        build_corpus(
            columns_of([record("a", 1, categories=("c",)), record("b", citations, categories=("c",))])
        )
    assert err.value.id == "b"


def test_record_deduplicates_labels():
    rec = record("a", 1, keywords=("k1", "k1", "", "k2"))
    assert rec.keywords == ("k1", "k2")


def test_record_requires_id():
    with pytest.raises(ValueError):
        record("", 1)


def test_keyword_totals_hand_sum():
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 6, keywords=("a", "b")),
                record("p2", 1, keywords=("a",)),
                record("p3", 2, keywords=("b", "c")),
            ]
        )
    )
    assert weights(corpus.items("keywords")) == {"a": 7.0, "b": 8.0, "c": 2.0}


def test_keyword_totals_replicates_full_count():
    corpus = build_corpus(columns_of([record("p1", 5, keywords=("a", "b", "c"))]))
    assert weights(corpus.items("keywords")) == {"a": 5.0, "b": 5.0, "c": 5.0}


def test_keyword_totals_empty_when_no_keywords():
    corpus = build_corpus(columns_of([record("p1", 5), record("p2", 2)]))
    assert corpus.items("keywords") == ((), 1)


def test_pair_totals_cross_product():
    corpus = build_corpus(columns_of([record("p1", 3, keywords=("a",), categories=("c1", "c2"))]))
    assert weights(corpus.items("pairs")) == {"a@c1": 3.0, "a@c2": 3.0}


def test_pair_totals_no_category_no_pair():
    corpus = build_corpus(columns_of([record("p1", 3, keywords=("a",))]))
    assert corpus.items("pairs") == ((), 1)


def test_pair_totals_hand_sum():
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 2, keywords=("a",), categories=("c1",)),
                record("p2", 5, keywords=("a",), categories=("c1",)),
            ]
        )
    )
    assert weights(corpus.items("pairs")) == {"a@c1": 7.0}


def test_category_totals_whole():
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 9, categories=("a",)),
                record("p2", 4, categories=("a", "b")),
            ]
        )
    )
    assert weights(corpus.items("categories")) == {"a": 13.0, "b": 4.0}


def test_category_totals_fractional_divides_by_institutions():
    corpus = build_corpus(columns_of([record("p1", 10, categories=("a",), institutions=("i1", "i2"))]))
    assert weights(corpus.items("categories_fractional")) == {"a": 5.0}


def test_category_totals_fractional_empty_institutions_divisor_one():
    corpus = build_corpus(columns_of([record("p1", 10, categories=("a",))]))
    assert weights(corpus.items("categories_fractional")) == {"a": 10.0}


def test_category_totals_fractional_equals_whole_for_single_institution():
    rng = random.Random(7)
    records = [
        record(f"p{i}", rng.randint(0, 50), categories=("a", "b"), institutions=("i1",))
        for i in range(20)
    ]
    corpus = build_corpus(columns_of(records))
    assert corpus.items("categories_fractional") == corpus.items("categories")


def test_category_totals_unknown_mode():
    with pytest.raises(ValueError, match="unknown view 'split'"):
        build_corpus(columns_of([])).items("split")


def test_category_sums():
    corpus = build_corpus(
        columns_of(
            [
                record("p1", 1, categories=("a",)),
                record("p2", 2.5, categories=("a",)),
                record("p3", 3, categories=("a",)),
            ]
        )
    )
    assert corpus.category_sums() == {"a": (3, Fraction(13, 2), Fraction(65, 4))}


def test_category_sums_multi_category():
    corpus = build_corpus(columns_of([record("p1", 5, categories=("b", "a"))]))
    assert corpus.category_sums() == {"a": (1, 5, 25), "b": (1, 5, 25)}
    assert list(corpus.category_sums()) == ["a", "b"]


def test_partition_by_group():
    records = [record("p1", 1), record("p2", 2), record("p3", 3)]
    groups = partition_by_group(records, [("i1",), ("i2",), ("i1",)])
    assert sorted(groups) == ["i1", "i2"]
    assert len(groups["i1"]) == 2
    assert len(groups["i2"]) == 1


def test_partition_multi_label_record_in_both():
    records = [record("p1", 1)]
    groups = partition_by_group(records, [("i1", "i2")])
    assert len(groups["i1"]) == 1
    assert len(groups["i2"]) == 1


def test_partition_empty_records():
    assert partition_by_group([], []) == {}


def test_partition_ungrouped_fallback_and_strict():
    records = [record("p1", 1)]
    groups = partition_by_group(records, [()])
    assert sorted(groups) == ["(ungrouped)"]
    with pytest.raises(MissingGroupLabel):
        partition_by_group(records, [()], strict=True)


def test_items_by_group_ungrouped_fallback_and_strict():
    # totals_by_group counts a publication with no group in none; group_index
    # puts it in "(ungrouped)", or raises MissingGroupLabel in strict mode
    corpus = build_corpus(columns_of([record("p2", 1, ("k",)), record("p1", 2, ("k",))]))
    assert corpus.totals_by_group("keywords", [(), ("i1",)]) == {"i1": {"k": 2}}
    assert group_index(corpus, [(), ("i1", "i1")]).table.labels == ("(ungrouped)", "i1")
    with pytest.raises(MissingGroupLabel) as err:
        group_index(corpus, [("i1",), ()], strict=True)
    assert err.value.id == "p1"
    for read in (lambda: corpus.totals_by_group("keywords", [()]), lambda: group_index(corpus, [()])):
        with pytest.raises(ValueError, match="differ in length"):
            read()
    with pytest.raises(ValueError, match="unknown label field"):
        corpus.totals_by_group("pairs", [(), ()])


@pytest.mark.parametrize("scale", [0, -2])
def test_scaled_citations_reject_a_scale_below_one(scale):
    # a zero scale ended in ZeroDivisionError, a negative one in NegativeCitations
    with pytest.raises(ValueError, match="scale"):
        Corpus(PublicationColumns(("p",), ScaledCitations([1], scale), [()], [()], [()]))


# --- properties ---------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(LABEL_FIELDS))
@settings(max_examples=100, deadline=None)
def test_items_by_group_equals_views_of_partition(seed, field):
    # Decimal citations in shuffled id order: the per-group totals are
    # exact, so they are the Fraction sums over each group's publications.
    rng = random.Random(seed)
    records = [
        record(
            f"p{rng.randrange(10**6)}-{i}",
            rng.randrange(10**5) / 100,
            rec.keywords,
            rec.categories,
        )
        for i, rec in enumerate(random_records(rng, max_pubs=60, max_categories=5, max_keywords=8))
    ]
    groups = [
        tuple(dict.fromkeys(rng.choice(["i1", "i2", "i3", "i2"]) for _ in range(rng.randint(0, 3))))
        for _ in records
    ]
    corpus = build_corpus(columns_of(records))
    by_group = corpus.totals_by_group(field, groups)
    assert exact(by_group, corpus.columns.citations.scale) == reference_totals_by_group(records, field, groups)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_permutation_invariance(seed):
    rng = random.Random(seed)
    records = random_records(rng, max_pubs=40, max_categories=6, max_keywords=15)
    shuffled = list(records)
    rng.shuffle(shuffled)
    a, b = build_corpus(columns_of(records)), build_corpus(columns_of(shuffled))
    for view in ITEM_VIEWS:  # the same items over the same scale, in first-seen order of each input
        (items_a, scale_a), (items_b, scale_b) = a.items(view), b.items(view)
        assert (sorted(items_a), scale_a) == (sorted(items_b), scale_b)
    assert a.category_sums() == b.category_sums()
    assert x_index(a).value == x_index(b).value
    assert xd_index(a, "g").value == xd_index(b, "g").value


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_views_list_labels_in_first_seen_order(seed):
    # The view order contract: unsorted, each label where it first occurs
    # over the publications in input order (ids shuffled out of order).
    rng = random.Random(seed)
    records = random_records(rng, max_pubs=40, max_categories=6, max_keywords=15)
    rng.shuffle(records)
    corpus = build_corpus(columns_of(records))

    def first_seen(field, members=records):
        return list(dict.fromkeys(label for rec in members for label in getattr(rec, field)))

    def labels(view):
        return [label for label, _ in corpus.items(view)[0]]

    assert labels("keywords") == first_seen("keywords")
    assert labels("categories") == labels("categories_fractional") == first_seen("categories")
    assert labels("pairs") == [
        f"{kw}@{cat}"
        for cat in first_seen("categories")
        for kw in first_seen("keywords", [rec for rec in records if cat in rec.categories])
    ]


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_conservation_single_category(seed):
    rng = random.Random(seed)
    records = [
        record(f"p{i}", rng.randint(0, 30), categories=(f"c{rng.randint(0, 3)}",))
        for i in range(rng.randint(0, 25))
    ]
    corpus = build_corpus(columns_of(records))
    total = sum(weights(corpus.items("categories")).values())
    assert total == sum(r.citations for r in records)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pair_weight_bounded_by_keyword_weight(seed):
    rng = random.Random(seed)
    corpus = build_corpus(columns_of(random_records(rng, max_pubs=40, max_categories=5, max_keywords=10)))
    kw = weights(corpus.items("keywords"))
    for label, weight in weights(corpus.items("pairs")).items():
        keyword = label.rsplit("@", 1)[0]
        assert weight <= kw[keyword]


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fractional_never_exceeds_whole(seed):
    rng = random.Random(seed)
    corpus = build_corpus(columns_of(random_records(rng, max_pubs=40)))
    whole = weights(corpus.items("categories"))
    for label, weight in weights(corpus.items("categories_fractional")).items():
        assert weight <= whole[label]


def test_corpus_is_immutable():
    corpus = build_corpus(columns_of([record("p1", 1)]))
    with pytest.raises(AttributeError):
        corpus.columns = corpus.columns


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_corpus_and_stats_copy_and_pickle(clone):
    records = [
        record("p2", 3, ("k1", "k2"), ("c1",), ("i1", "i2")),
        record("p1", 1.5, ("k1",), ("c1", "c2")),
    ]
    corpus = build_corpus(columns_of(records))
    corpus.items("pairs")  # a built view is not carried over, only rebuilt
    twin = clone(corpus)
    assert type(twin) is Corpus
    assert twin.columns == corpus.columns
    assert list(zip(*twin.columns)) == records
    for view in ITEM_VIEWS:
        assert twin.items(view) == corpus.items(view)
    stats = estimate_stats(corpus)
    assert clone(stats) == stats


# --- lazy views -----------------------------------------------------------------

READERS = {
    "keywords": lambda c: c.items("keywords"),
    "pairs": lambda c: c.items("pairs"),
    "whole": lambda c: c.items("categories"),
    "fractional": lambda c: c.items("categories_fractional"),
    "sums": lambda c: c.category_sums(),
    "by_category": lambda c: c.totals_by_group("keywords", c.columns.categories),
    "x": lambda c: x_index(c, "g"),
    "xc": lambda c: xc_index(c, "h"),
    "xd": lambda c: xd_index(c, "g"),
    "xdf": lambda c: xdf_index(c, "h"),
    "xdfn": lambda c: xdfn_index(c, "h", estimate_stats(c), strict=False),
    "ivw": lambda c: ivw_xd_index(c, "h", estimate_stats(c, "population"), variance_floor=0.5),
    "xo": lambda c: xo_index(c, "g"),
}


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_views_independent_of_first_read_order(seed):
    rng = random.Random(seed)
    records = random_records(rng, max_pubs=40, max_categories=6, max_keywords=15, min_citations=1)
    reference = build_corpus(columns_of(records))
    expected = {name: read(reference) for name, read in READERS.items()}
    names = list(READERS)
    rng.shuffle(names)
    corpus = build_corpus(columns_of(records))
    assert {name: READERS[name](corpus) for name in names} == expected
    assert {name: READERS[name](corpus) for name in names} == expected


TRAFFIC_TABLE = (
    "id,citations,keywords,categories,institutions\n"
    'p3,9.5,"k1; k2","A; B",I1\n'
    "p1,4,k2,B,\"I1; I2\"\n"
    "p2,2.25,k3,C,\n"
)
TRAFFIC_STATS = "category,mean,variance,n\na,9.5,1,1\nb,6.75,2,2\nc,2.25,1,1\n"


@pytest.mark.parametrize(
    "argv, built",
    [
        # every item view sums over the columns in one _grouped_totals pass
        (("compute", "--index", "x"), {"keywords", "grouped_items"}),
        (("compute", "--index", "xc"), {"pairs", "grouped_items"}),
        (("compute", "--index", "xd"), {"categories", "grouped_items"}),
        (("compute", "--index", "xdf"), {"categories_fractional", "grouped_items"}),
        (("compute", "--index", "xo"), {"grouped_items"}),
        # the stats estimate reads the category sums, and the index the category totals
        (("compute", "--index", "xdfn", "--internal-stats"), {"category_sums", "categories", "grouped_items"}),
        (("compute", "--index", "xdfn", "--ref-stats", "STATS"), {"categories", "grouped_items"}),
        (
            ("compute", "--index", "ivw", "--internal-stats", "--variance-floor", "0.5"),
            {"category_sums", "categories", "grouped_items"},
        ),
        (("compute", "--index", "ivw", "--ref-stats", "STATS"), {"categories", "grouped_items"}),
        (("stats",), {"category_sums"}),
        (("nested", "--group-col", "institutions", "--inner", "x"), {"grouped_items"}),
        (("nested", "--group-col", "institutions", "--inner", "xd"), {"grouped_items"}),
        (("validate",), set()),
    ],
    ids=lambda value: "-".join(value) if isinstance(value, tuple) else None,
)
def test_each_command_builds_the_views_its_index_reads_once(tmp_path, capsys, monkeypatch, argv, built):
    # Views are rebuilt on every read, so a command that read a view twice,
    # or read one its index does not rank, would pay for it here.
    calls = Counter()

    def counting(name, build):
        def counted(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        return counted

    for name, build in list(ITEM_VIEWS.items()):
        monkeypatch.setitem(ITEM_VIEWS, name, counting(name, build))
    monkeypatch.setattr(corpus_module, "_grouped_totals", counting("grouped_items", corpus_module._grouped_totals))
    monkeypatch.setattr(Corpus, "category_sums", counting("category_sums", Corpus.category_sums))
    (tmp_path / "in.csv").write_text(TRAFFIC_TABLE)
    (tmp_path / "stats.csv").write_text(TRAFFIC_STATS)
    argv = [str(tmp_path / "stats.csv") if arg == "STATS" else arg for arg in argv]
    out = () if argv[0] == "validate" else ("--out", str(tmp_path / "out"))
    code = main([*argv, "--input", str(tmp_path / "in.csv"), *out])
    assert code == 0, capsys.readouterr().err
    assert calls == (Counter(built) if isinstance(built, dict) else Counter(dict.fromkeys(built, 1)))


def test_item_views_hold_plain_tuples():
    corpus = build_corpus(columns_of([record("p1", 3, ("k",), ("c",), ("i",))]))
    for view in ITEM_VIEWS:
        items, scale = corpus.items(view)
        assert [type(item) for item in items] == [tuple]
        assert [type(total) for _, total in items] == [int]
    assert corpus.items("pairs") == ((("k@c", 3),), 1)
    with pytest.raises(ValueError):
        corpus.items("samples")


# --- column form ------------------------------------------------------------------

labels = st.lists(st.sampled_from(["a", "b", "c", "a@b", "b@c"]), unique=True, max_size=3).map(tuple)
valid_citations = st.one_of(
    st.integers(0, 10**4).map(lambda cents: cents / 100),
    st.integers(0, 50),
    st.floats(min_value=0, max_value=1e308),
)
invalid_citations = st.sampled_from([-1.0, -3, float("nan"), float("inf"), 10**400, -(10**400)])
publication_rows = st.lists(
    st.tuples(
        st.text("pqr", min_size=1, max_size=3),
        st.one_of(valid_citations, valid_citations, valid_citations, invalid_citations),
        labels,
        labels,
        labels,
    ),
    max_size=12,
)


def corpus_views(build, group_values):
    """Every view of the built corpus, or the error type and id it raises."""
    try:
        corpus = build()
    except (DuplicateId, NegativeCitations, NonFiniteCitations) as exc:
        return type(exc), exc.id
    scale = corpus.columns.citations.scale
    views = {}
    for view in ITEM_VIEWS:
        # exact totals in label order, a stable sort of first-seen order as
        # the reference lists them; coinciding pair labels stay two items
        items, view_scale = corpus.items(view)
        views[view] = tuple(sorted(((label, Fraction(total, view_scale)) for label, total in items), key=itemgetter(0)))
    views["keywords_by_category"] = exact(corpus.totals_by_group("keywords", corpus.columns.categories), scale)
    views["sums"] = corpus.category_sums()
    for field in LABEL_FIELDS:
        views[f"{field}_by_group"] = exact(corpus.totals_by_group(field, group_values), scale)
    return views


@given(publication_rows, st.data())
@settings(max_examples=300, deadline=None)
def test_from_columns_equals_records_and_record_wise_views(rows, data):
    group_values = [data.draw(labels) for _ in rows]
    records = [record(*row) for row in rows]
    columns = columns_of(rows)
    from_columns = corpus_views(lambda: Corpus(columns), group_values)
    expected = reference_views(records)
    if isinstance(expected, dict):
        for field in LABEL_FIELDS:
            expected[f"{field}_by_group"] = reference_totals_by_group(records, field, group_values)
    assert from_columns == expected


def test_from_columns_checks_ids_and_lengths():
    with pytest.raises(ValueError, match="non-empty"):
        Corpus(PublicationColumns(["p1", ""], [1.0, 2.0], [(), ()], [(), ()], [(), ()]))
    with pytest.raises(ValueError, match="differ in length"):
        Corpus(PublicationColumns(["p1"], [1.0, 2.0], [()], [()], [()]))
