"""The expertise-index family, composed from corpus views and the kernel.

Every operation returns an IndexResult whose table can be serialised as-is.
Depth indices rank keywords (x) or keyword@category pairs (xc); breadth
indices rank categories under whole (xd), fractional (xdf), mean-normalised
(xdfn) or inverse-variance-weighted (ivw) citation scores; xo ranks
categories by their own nested keyword-level x-indices; group_index ranks
the groups of one corpus (typically institutions) by their inner x or xd
values.

Inner values for xo and group_index are always h-type: the kernel's one
rule over each group's exact int totals (Corpus.totals_by_group), with no
ranked table; ratio_type selects the outer kernel only.
Each function reads only the views it ranks, as unsorted (label, total)
tuples over one scale that the kernel orders; xdfn and ivw walk
categories in label order, and xdfn and weighted ivw rank one score per
category, its exact total over a mean or variance rounded once (_score).
INDEX_FIELDS names the fields behind the views, for ingest to skip others.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .corpus import FLOAT_LIMIT, Corpus
from .errors import (
    MissingGroupLabel,
    MissingStats,
    NonFiniteWeight,
    NonPositiveMean,
    RankBasisUnsupported,
    ZeroOrMissingVariance,
)
from .kernel import (
    IndexResult,
    RankedTable,
    _index_value,
    _scaled,
    first_crossing_index,
    kernel_index,
)
from .stats import ReferenceStats

#: Per index kind, the record label fields its views are built from, in
#: the order `xindex compute --index` lists them. A nested index reads the
#: entry of its inner index.
INDEX_FIELDS = {
    "x": ("keywords",),
    "xc": ("keywords", "categories"),
    "xd": ("categories",),
    "xdf": ("categories", "institutions"),
    "xdfn": ("categories",),
    "ivw": ("categories",),
    "xo": ("keywords", "categories"),
}

#: Per inner index of a nested index, the label field its h-type value ranks.
_INNER_FIELDS = {"x": "keywords", "xd": "categories"}

#: Group label assigned to publications with no group value in non-strict mode.
UNGROUPED_LABEL = "(ungrouped)"


def x_index(corpus: Corpus, ratio_type: str = "h") -> IndexResult:
    """Depth of fine-grained expertise: kernel over keyword citation totals."""
    return kernel_index(corpus.items("keywords"), ratio_type, "x")


def xc_index(corpus: Corpus, ratio_type: str = "h") -> IndexResult:
    """Overlap-adjusted depth: a keyword appearing under several categories
    is ranked once per (keyword, category) pair."""
    return kernel_index(corpus.items("pairs"), ratio_type, "xc")


def xd_index(corpus: Corpus, ratio_type: str = "h") -> IndexResult:
    """Breadth of expertise: kernel over whole category citation totals."""
    return kernel_index(corpus.items("categories"), ratio_type, "xd")


def xdf_index(corpus: Corpus, ratio_type: str = "h") -> IndexResult:
    """Collaboration-adjusted breadth: category totals under fractional
    (per-institution) citation counting."""
    return kernel_index(corpus.items("categories_fractional"), ratio_type, "xdf")


def _score(label: str, total: int, scale: int, divisor, name: str) -> float:
    """total / scale over divisor, an int, float or Fraction, as the exact
    quotient rounded once. A total beyond the float range raises
    NonFiniteWeight naming label, as xd does; a finite total whose quotient
    is beyond it raises one that names the divisor, name."""
    num, den = divisor.as_integer_ratio()
    limit = FLOAT_LIMIT * scale
    if total >= limit:
        raise NonFiniteWeight(label)
    if total * den >= limit * num:
        raise NonFiniteWeight(label, f"citation total over {name} overflows")
    return total * den / (scale * num)


def _lookup(
    stats: ReferenceStats,
    category: str,
    strict: bool,
    dropped: list[str],
    positive_mean: bool = False,
):
    """The stats entry of category, or None once category is put in dropped
    for lacking one or, with positive_mean, a positive mean; strict raises."""
    entry = stats.get(category)
    if entry is None or positive_mean and entry.mean <= 0:
        if strict:
            raise MissingStats(category) if entry is None else NonPositiveMean(category)
        dropped.append(category)
        return None
    return entry


def xdfn_index(
    corpus: Corpus,
    ratio_type: str = "h",
    stats: ReferenceStats | None = None,
    strict: bool = True,
) -> IndexResult:
    """Field-normalised breadth: each category's score is its exact total
    over its reference mean, rounded once to the float the report prints,
    and the kernel ranks those scores. A total over its own internally
    estimated mean, an exact rational, is exactly the publication count.

    Categories absent from the stats (or with a non-positive mean) raise in
    strict mode; in lenient mode they are left out and named in the
    result's dropped. After those checks, a category total, or a total
    over its mean, beyond the float range raises NonFiniteWeight naming the
    category and which of the two overflowed.
    """
    if stats is None:
        raise MissingStats()
    dropped: list[str] = []
    kept = []
    items, scale = corpus.items("categories")
    for label, total in sorted(items):
        entry = _lookup(stats, label, strict, dropped, positive_mean=True)
        if entry is not None:
            kept.append((label, total, entry.mean))
    scores = [(label, _score(label, total, scale, mean, "reference mean")) for label, total, mean in kept]
    result = kernel_index(_scaled(scores), ratio_type, "xdfn")
    return IndexResult("xdfn", ratio_type, result.value, result.table, dropped)


def _variance_for(
    entry,
    category: str,
    variance_floor: float | None,
    floored: list[str],
) -> float:
    variance = entry.variance
    if variance_floor is not None:
        if variance is None or variance < variance_floor:
            floored.append(category)
            return variance_floor
        return variance
    if variance is None or variance <= 0:
        raise ZeroOrMissingVariance(category)
    return variance


def ivw_xd_index(
    corpus: Corpus,
    ratio_type: str = "h",
    stats: ReferenceStats | None = None,
    rank_basis: str = "raw",
    variance_floor: float | None = None,
    strict: bool = True,
) -> IndexResult:
    """Inverse-variance-weighted breadth.

    rank_basis="raw" (default) ranks categories by their whole citation
    totals as xd does and evaluates the literal first-crossing rule on the
    float ratio t/(v*r); the ratio need not be monotone, and no g-type rule
    exists for this basis. rank_basis="weighted" scores each category by
    its exact total over its variance, rounded once, and hands the scores
    to the kernel as xdfn does: both ratio types, by the kernel's one rule
    over the scores' exact values, with correctly rounded ratios.

    Zero or undefined variances raise unless variance_floor substitutes
    max(variance, floor); the categories whose variance it raises are
    named in the result's floored. In lenient mode, categories the stats
    lack are left out and named in its dropped. A category total, or a
    total over its variance, beyond the float range raises NonFiniteWeight
    naming the category and which of the two overflowed.
    """
    if stats is None:
        raise MissingStats()
    if variance_floor is not None and not variance_floor > 0:  # NaN included
        raise ValueError("variance floor must be positive")
    if rank_basis not in ("raw", "weighted"):
        raise ValueError(f"unknown rank basis {rank_basis!r}")
    if rank_basis == "raw" and ratio_type == "g":
        raise RankBasisUnsupported()

    dropped: list[str] = []
    floored: list[str] = []
    totals, variance_of = [], {}
    items, scale = corpus.items("categories")
    for label, total in sorted(items):
        entry = _lookup(stats, label, strict, dropped)
        if entry is not None:
            totals.append((label, total))
            variance_of[label] = _variance_for(entry, label, variance_floor, floored)

    if rank_basis == "weighted":
        scores = [(label, _score(label, total, scale, variance_of[label], "variance")) for label, total in totals]
        result = kernel_index(_scaled(scores), ratio_type, "ivw")
    else:
        table = kernel_index((totals, scale), "h", "ivw").table
        ratios = [w / (variance_of[label] * r) for r, (label, w) in enumerate(zip(table.labels, table.weights), 1)]
        if math.inf in ratios:
            overflowed = min(label for label, ratio in zip(table.labels, ratios) if ratio == math.inf)
            raise NonFiniteWeight(overflowed, "citation total over variance overflows")
        result = first_crossing_index(RankedTable(table.labels, table.weights, ratios))
    return IndexResult("ivw", ratio_type, result.value, result.table, dropped, floored)


def _rank_inner(corpus: Corpus, field: str, groups: Sequence[Iterable[str]], ratio_type: str, kind: str) -> IndexResult:
    """The outer kernel over each group's inner h-type value, the kernel's
    rule over the exact totals of the label column named field."""
    scale = corpus.columns.citations.scale
    # label order decides which group's label an overflow error names
    scored = [
        (group, _index_value(sorted(totals.values(), reverse=True), scale, "h", totals.items()))
        for group, totals in sorted(corpus.totals_by_group(field, groups).items())
    ]
    return kernel_index((scored, 1), ratio_type, kind)


def xo_index(corpus: Corpus, ratio_type: str = "h") -> IndexResult:
    """Overall expertise: kernel over the per-category nested x-indices.

    Each category's inner value is the h-type x-index over the keywords of
    the publications tagged with it, weighted by in-category citations:
    the per-category keyword totals the pair view is built from. A
    publication with no category counts in no category.
    """
    return _rank_inner(corpus, "keywords", corpus.columns.categories, ratio_type, "xo")


def group_index(
    corpus: Corpus,
    group_values: Sequence[Sequence[str]],
    inner: str = "x",
    ratio_type: str = "h",
    strict: bool = False,
) -> IndexResult:
    """Group-level index: the kernel applied to each group's inner h-type
    x or xd value (the xx and xx_d aggregates), from one pass over corpus.

    group_values is parallel to the publications and holds each one's
    distinct non-empty group labels, as read_table writes them; a
    publication counts in each of its groups, and one with none raises
    MissingGroupLabel in strict mode and falls into "(ungrouped)"
    otherwise. Ids are unique across the whole corpus, so a publication id
    repeated in two groups is a DuplicateId when the corpus is built."""
    if inner not in _INNER_FIELDS:
        raise ValueError(f"unknown inner index {inner!r}")
    groups = _group_labels(corpus.columns.ids, group_values, strict)
    return _rank_inner(corpus, _INNER_FIELDS[inner], groups, ratio_type, "nested")


def _group_labels(
    ids: Sequence[str],
    group_values: Sequence[Sequence[str]],
    strict: bool,
) -> Sequence[Sequence[str]]:
    """Each publication's group labels, checked in input order: none
    raises MissingGroupLabel in strict mode and is "(ungrouped)"
    otherwise."""
    if len(ids) != len(group_values):
        raise ValueError("records and group values differ in length")
    if not all(group_values):
        if strict:
            raise MissingGroupLabel(next(rec_id for rec_id, labels in zip(ids, group_values) if not labels))
        group_values = [labels or (UNGROUPED_LABEL,) for labels in group_values]
    return group_values
