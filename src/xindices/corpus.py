"""Publication data model and the aggregation views every index is built on.

A Corpus is a frozen value of one field, its publications in column form
(PublicationColumns), validated eagerly, its citations held exactly as
non-negative ints over one scale (ScaledCitations). Each view is a pure
function of the columns, built when read: it sums ints in column order, so
any order of the publications gives the same totals, and hands them on as
ints over one scale; the kernel rounds each distinct total once.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat
from operator import floordiv, methodcaller, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import DuplicateId, NegativeCitations, NonFiniteCitations
from .value import FrozenValue

#: Pair labels are rendered as "<keyword>@<category>".
PAIR_SEPARATOR = "@"


#: A ranking candidate, the form views are held in: (label, weight), the
#: weight an int total over the view's scale, or any real number handed to
#: the kernel. The collector untracks plain tuples of a str and an int, so
#: large views cost it nothing.
Item = tuple[str, float]

#: The least number that rounds beyond the float range.
FLOAT_LIMIT = 2**1024 - 2**970


class ScaledCitations(FrozenValue):
    """A citation column held exactly, as a Corpus keeps it: count i is
    ints[i] / scale, in lowest terms, so equal columns have equal fields.
    Iterated, it gives ints, or Fractions when the scale is not 1. A scale
    below 1 raises ValueError."""

    __slots__ = _fields = ("ints", "scale")

    def __init__(self, ints: Iterable[int], scale: int = 1) -> None:
        if scale < 1:
            raise ValueError(f"citation scale must be at least 1, not {scale!r}")
        ints = tuple(ints)
        common = math.gcd(scale, *ints)
        self._set(tuple(map(floordiv, ints, repeat(common))) if common > 1 else ints, scale // common)

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self):
        if self.scale == 1:
            return iter(self.ints)
        from fractions import Fraction  # imported only by the runs that read exact values

        return map(Fraction, self.ints, repeat(self.scale))


class PublicationColumns(NamedTuple):
    """Publications in column form: entry i of each column belongs to the
    i-th publication. Ids are non-empty, label tuples hold no empty labels
    or repeats, and citations are exact numbers or a ScaledCitations."""

    ids: Sequence[str]
    citations: Sequence[float]
    keywords: Sequence[tuple[str, ...]]
    categories: Sequence[tuple[str, ...]]
    institutions: Sequence[tuple[str, ...]]


class Corpus(FrozenValue):
    """Immutable collection of publications in column form, checked with
    whole-column passes when built; the label tuples are taken as given.
    Each aggregation view is built from the columns when it is read."""

    __slots__ = _fields = ("columns",)

    def __init__(self, columns: PublicationColumns):
        ids, citations, *labels = columns
        if "" in ids:
            raise ValueError("publication id must be non-empty")
        ids, labels = tuple(ids), list(map(tuple, labels))
        if len({len(ids), len(citations), *map(len, labels)}) > 1:
            raise ValueError("publication columns differ in length")
        self._set(PublicationColumns(ids, _checked(ids, citations), *labels))

    def __len__(self) -> int:
        return len(self.columns.ids)

    def items(self, view: str) -> tuple[tuple[Item, ...], int]:
        """One of ITEM_VIEWS as (items, scale), the kernel input: plain
        (label, total) tuples in first-seen order, each total an exact int
        over scale.

        "keywords": per keyword, the citations of all publications listing
        it (a publication's full count goes to each of its keywords).
        "pairs": per (keyword, category) pair, labelled "keyword@category",
        grouped by category, the full citations of every publication
        carrying both; pairs whose labels coincide remain separate items.
        "categories": per category, whole citation counts.
        "categories_fractional": per category, each publication's citations
        over its number of institutions (1 when it has none). Any other
        view raises ValueError.
        """
        if view not in ITEM_VIEWS:
            raise ValueError(f"unknown view {view!r}")
        return ITEM_VIEWS[view](self.columns)

    def totals_by_group(self, field: str, groups: Sequence[Iterable[str]]) -> dict[str, dict[str, int]]:
        """Per group, each label of the label column named field with its
        exact citation total over the group's publications, an int over
        columns.citations.scale, in one pass; groups and labels in
        first-seen order. groups is parallel to the publications and holds
        each one's distinct group labels; one with none counts in no group.
        Another field, or groups of another length, raises ValueError."""
        if field not in PublicationColumns._fields[2:]:
            raise ValueError(f"unknown label field {field!r}")
        if len(groups) != len(self):
            raise ValueError("publications and groups differ in length")
        return _grouped_totals(self.columns.citations, getattr(self.columns, field), groups)

    def category_sums(self) -> dict:
        """Per category in label order, (n, s1, s2): its number of publications
        and the exact Fraction sums of their citations and of their squares."""
        from fractions import Fraction  # imported only by the runs that read these sums

        citations = self.columns.citations
        samples: dict[str, list[int]] = {}
        for count, categories in zip(citations.ints, self.columns.categories):
            for cat in categories:
                samples.setdefault(cat, []).append(count)
        scale = citations.scale
        # label order decides which category an overflowed variance names
        return {
            cat: (len(ints), Fraction(sum(ints), scale), Fraction(sum(map(mul, ints, ints)), scale * scale))
            for cat, ints in sorted(samples.items())
        }


def _finite(value) -> bool:  # value rounds to a finite float
    try:
        return math.isfinite(value)
    except OverflowError:  # an int or a Fraction beyond the float range
        return False


def _checked(ids: tuple[str, ...], citations: Sequence) -> ScaledCitations:
    """The citations as a ScaledCitations once every publication is valid,
    else the error of the first invalid one: DuplicateId, then
    NegativeCitations, or NonFiniteCitations for a count that is NaN or
    does not round to a finite float. Set, min and max passes clear a
    valid table; only a failed pass walks the publications one by one."""
    try:
        if not isinstance(citations, ScaledCitations):
            ratios = list(map(methodcaller("as_integer_ratio"), citations))  # NaN, inf raise
            scale = math.lcm(*{den for _, den in ratios})
            citations = ScaledCitations([num * (scale // den) for num, den in ratios], scale)
        ints, limit = citations.ints, FLOAT_LIMIT * citations.scale
        if len(set(ids)) == len(ids) and 0 <= min(ints, default=0) <= max(ints, default=0) < limit:
            return citations
    except (ValueError, OverflowError):
        pass
    seen: set[str] = set()
    for rec_id, count in zip(ids, citations):
        if rec_id in seen:
            raise DuplicateId(rec_id)
        seen.add(rec_id)
        if count < 0:
            raise NegativeCitations(rec_id)
        if not _finite(count):
            raise NonFiniteCitations(rec_id)
    raise AssertionError("a failed pass found no invalid publication")


# View builders: pure functions of the columns that sum exact ints in column order.


def _grouped_totals(
    citations: ScaledCitations, labels_column: Iterable[tuple[str, ...]], groups_column: Iterable[Iterable[str]]
) -> dict[str, dict[str, int]]:
    """Per group, each label's exact citation total over its publications,
    an int over citations.scale, over parallel columns. A group is kept
    even if its publications carry no label."""
    by_group: dict[str, dict[str, int]] = {}
    for count, labels, groups in zip(citations.ints, labels_column, groups_column):
        for group in groups:
            in_group = by_group.get(group)
            if in_group is None:
                in_group = by_group[group] = {}
            for label in labels:
                in_group[label] = in_group.get(label, 0) + count
    return by_group


def _totals(columns: PublicationColumns, field: str, fractional: bool = False) -> tuple[tuple[Item, ...], int]:
    """Citations summed per label of the label column named field; with
    fractional, each count over its number of institutions, exactly: times
    common // divisor over common * scale, common the divisors' lcm."""
    citations = columns.citations
    if fractional:
        divisors = list(map(max, map(len, columns.institutions), repeat(1)))
        common = math.lcm(*set(divisors))
        shares = map(mul, citations.ints, map(floordiv, repeat(common), divisors))
        citations = ScaledCitations(shares, citations.scale * common)
    totals = _grouped_totals(citations, getattr(columns, field), repeat(("",))).get("", {})
    return tuple(totals.items()), citations.scale


def _pairs(columns: PublicationColumns) -> tuple[tuple[Item, ...], int]:
    # Keyed by category, then keyword: "a@b" in "c" and "a" in "b@c" stay two
    # items labelled "a@b@c", which the kernel's stable sort keeps in order.
    by_category = _grouped_totals(columns.citations, columns.keywords, columns.categories)
    labels = [f"{kw}{PAIR_SEPARATOR}{cat}" for cat, in_category in by_category.items() for kw in in_category]
    totals = [total for in_category in by_category.values() for total in in_category.values()]
    return tuple(zip(labels, totals)), columns.citations.scale


#: The views Corpus.items() serves: name -> its builder from the columns.
ITEM_VIEWS = {
    "keywords": partial(_totals, field="keywords"),
    "pairs": _pairs,
    "categories": partial(_totals, field="categories"),
    "categories_fractional": partial(_totals, field="categories", fractional=True),
}


def build_corpus(columns: PublicationColumns) -> Corpus:
    """Corpus(columns): raises DuplicateId for a repeated id,
    NegativeCitations or NonFiniteCitations for an invalid count."""
    return Corpus(columns)

