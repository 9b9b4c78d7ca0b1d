"""Publication data model and the aggregation views every index is built on.

A Corpus is a frozen value of one field, its publications in column form
(PublicationColumns: parallel ids, citations and label-tuple columns), the
one form the library keeps them in, validated eagerly; build_corpus
converts records to columns at the edge. It rejects assignment and del,
and compares, hashes, prints and pickles by its columns. Each derived view
(keyword totals, per-category keyword totals, pair totals, category
totals, per-category citation samples) is a pure function of the columns,
built each time it is read and kept nowhere, so a command pays only for
the views its index reads. Contributions are accumulated over the columns
permuted into id order, so permuting the input, or reading the views in
another order, yields bitwise-identical views and index values.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from itertools import repeat
from operator import attrgetter, truediv
from typing import Collection, Iterable, NamedTuple, Sequence

from .errors import DuplicateId, MissingGroupLabel, NegativeCitations, NonFiniteCitations
from .value import FrozenValue

#: Pair labels are rendered as "<keyword>@<category>".
PAIR_SEPARATOR = "@"

#: Group label assigned to records with no group value in non-strict mode.
UNGROUPED_LABEL = "(ungrouped)"


def _dedupe(labels: Iterable[str]) -> tuple[str, ...]:
    """Drop empty labels and duplicates, preserving first-occurrence order."""
    return tuple(dict.fromkeys(filter(None, labels)))


def _dedupe_each(label_lists: Iterable[Iterable[str]]) -> list[tuple[str, ...]]:
    """_dedupe of each label list, in C-level map passes."""
    return list(map(tuple, map(dict.fromkeys, map(filter, repeat(None), label_lists))))


class PublicationRecord(FrozenValue):
    """One publication: identity, citation count, and its label sets.

    Labels are expected to be pre-normalised (ingest handles trimming and
    case folding). Empty labels and duplicates within a list are dropped at
    construction. An empty keyword list is legal (the record still counts
    toward category-level indices), as is an empty category list.
    """

    __slots__ = _fields = ("id", "citations", "keywords", "categories", "institutions")

    def __init__(
        self,
        id: str,
        citations: float,
        keywords: Iterable[str] = (),
        categories: Iterable[str] = (),
        institutions: Iterable[str] = (),
    ) -> None:
        if not id:
            raise ValueError("publication id must be non-empty")
        self._set(id, citations, _dedupe(keywords), _dedupe(categories), _dedupe(institutions))

    @classmethod
    def _from_normalised(
        cls,
        id: str,
        citations: float,
        keywords: tuple[str, ...],
        categories: tuple[str, ...],
        institutions: tuple[str, ...],
    ) -> PublicationRecord:
        """A record from fields already in the form __init__ makes
        (non-empty id; label tuples without empty labels or repeats),
        skipping its checks. For ingest, which builds the fields that way."""
        rec = object.__new__(cls)
        rec._set(id, citations, keywords, categories, institutions)
        return rec


#: A ranking candidate, the form views are held in: (label, weight). The
#: label is a keyword, a keyword@category pair, a category, or a group
#: name; the weight is a citation total, an adjusted score, or an inner
#: index value (a float, or an exact Fraction on the field-normalised
#: path). The collector untracks plain tuples of a str and a float, so
#: large views cost it nothing.
Item = tuple[str, float]

#: The record fields Corpus.items_by_group() totals per group.
GROUP_VIEWS = ("keywords", "categories")

_FLOAT_MAX = sys.float_info.max


class PublicationColumns(NamedTuple):
    """Publications in column form: entry i of each column belongs to the
    i-th publication. Label tuples are in the form PublicationRecord keeps
    them, without empty labels or repeats; ids are non-empty."""

    ids: Sequence[str]
    citations: Sequence[float]
    keywords: Sequence[tuple[str, ...]]
    categories: Sequence[tuple[str, ...]]
    institutions: Sequence[tuple[str, ...]]

    @classmethod
    def from_records(cls, records: Sequence[PublicationRecord]) -> PublicationColumns:
        return cls(*(list(map(attrgetter(name), records)) for name in PublicationRecord._fields))

    def records(self) -> list[PublicationRecord]:
        """One PublicationRecord per publication, in column order."""
        return list(map(PublicationRecord._from_normalised, *self))


class Corpus(FrozenValue):
    """Immutable collection of publications in column form, checked with
    whole-column passes when built; the label tuples are taken as given.
    Each aggregation view is built from the columns when it is read."""

    __slots__ = _fields = ("columns",)

    def __init__(self, columns: PublicationColumns):
        if "" in columns.ids:
            raise ValueError("publication id must be non-empty")
        columns = PublicationColumns(*map(tuple, columns))
        if len(set(map(len, columns))) > 1:
            raise ValueError("publication columns differ in length")
        _check_publications(columns.ids, columns.citations)
        self._set(columns)

    def __len__(self) -> int:
        return len(self.columns.ids)

    def items(self, view: str) -> tuple[Item, ...]:
        """One of ITEM_VIEWS as plain (label, weight) tuples, unsorted: the
        kernel input, in first-seen order over the publications in id order.

        "keywords": per keyword, the citations of all publications listing
        it (a publication's full count goes to each of its keywords).
        "pairs": per (keyword, category) pair, labelled "keyword@category",
        grouped by category, the full citations of every publication
        carrying both; pairs whose labels coincide (an "@" in a label)
        remain separate items. "categories": per category, whole citation
        counts. "categories_fractional": per category, each publication's
        citations divided by its number of institutions (1 when it has
        none). Any other view raises ValueError.
        """
        if view not in ITEM_VIEWS:
            raise ValueError(f"unknown view {view!r}")
        return ITEM_VIEWS[view](self.columns)

    def keyword_items_by_category(self) -> dict[str, Collection[Item]]:
        """Per category, the (keyword, in-category total) items of its
        publications: the pair view before its labels are joined."""
        return {cat: in_cat.items() for cat, in_cat in _keywords_by_category(self.columns).items()}

    def items_by_group(
        self,
        group_values: Sequence[Sequence[str]],
        view: str,
        strict: bool = False,
    ) -> dict[str, Collection[Item]]:
        """Per group label, the (label, total) items of the "keywords" or
        "categories" view over the publications in that group: bitwise and
        in order the items(view) of a Corpus of the group's publications,
        from one pass over this corpus and without building a Corpus per
        group.

        group_values is parallel to the publications. Repeated group labels
        count once; a publication with none raises MissingGroupLabel in
        strict mode and falls into "(ungrouped)" otherwise.
        """
        if view not in GROUP_VIEWS:
            raise ValueError(f"unknown group view {view!r}")
        columns = self.columns
        groups = _group_labels(columns.ids, group_values, strict)
        by_group = _grouped_totals(*_in_id_order(columns, getattr(columns, view), groups))
        return {group: totals.items() for group, totals in by_group.items()}

    def category_samples(self) -> dict[str, list[float]]:
        """Per category, the multiset of whole citation counts of the
        publications tagged with it, in id order (input to the field-stats
        estimators)."""
        return _samples(self.columns)


def _in_float_range(citations: Sequence[float]) -> bool:
    """True when every count is in [0, float max]; False may be a false
    alarm (a float sum overflowing, a count C cannot compare)."""
    if not citations:
        return True
    try:
        # a NaN passes min and max unless it comes first, but not the sum
        return 0 <= min(citations) and max(citations) <= _FLOAT_MAX and math.isfinite(sum(citations))
    except (OverflowError, TypeError):
        return False


def _check_publications(ids: Sequence[str], citations: Sequence[float]) -> None:
    """Raise for the first invalid publication in order: DuplicateId for a
    repeated id, then NegativeCitations or NonFiniteCitations for a count
    below zero or outside the float range. Set and min/max passes clear a
    valid table; only a failed pass walks the publications one by one."""
    if len(set(ids)) == len(ids) and _in_float_range(citations):
        return
    seen: set[str] = set()
    for rec_id, count in zip(ids, citations):
        if rec_id in seen:
            raise DuplicateId(rec_id)
        seen.add(rec_id)
        if not 0 <= count <= _FLOAT_MAX:
            if count < 0:
                raise NegativeCitations(rec_id)
            raise NonFiniteCitations(rec_id)


# View builders: pure functions of the columns. Each accumulates over the
# columns permuted into id order, so every float sum is independent of
# input order.


def _in_id_order(columns: PublicationColumns, *parallel: Sequence) -> list[list]:
    """The citations as floats, then each column parallel to them, permuted
    into id order: by the argsort of the ids, which are unique, so the
    order is canonical."""
    order = sorted(range(len(columns.ids)), key=columns.ids.__getitem__)
    citations = list(map(float, map(columns.citations.__getitem__, order)))
    return [citations, *(list(map(column.__getitem__, order)) for column in parallel)]


def _totals(columns: PublicationColumns, field: str, fractional: bool = False) -> tuple[Item, ...]:
    """Citations summed per label of the record field; with fractional,
    each record's citations are divided by its number of institutions."""
    if fractional:
        citations, labels_column, institutions = _in_id_order(
            columns, getattr(columns, field), columns.institutions
        )
        citations = map(truediv, citations, map(max, map(len, institutions), repeat(1)))
    else:
        citations, labels_column = _in_id_order(columns, getattr(columns, field))
    totals: dict[str, float] = {}
    get = totals.get
    for cits, labels in zip(citations, labels_column):
        for label in labels:
            totals[label] = get(label, 0.0) + cits
    return tuple(totals.items())


def _grouped_totals(
    citations: Iterable[float],
    labels_column: Iterable[tuple[str, ...]],
    groups_column: Iterable[Iterable[str]],
) -> dict[str, dict[str, float]]:
    """Per group, citations summed per label, over parallel columns in id
    order: bitwise the _totals of the group's own publications. A group is
    kept even if its publications carry no label."""
    by_group: dict[str, dict[str, float]] = {}
    for cits, labels, groups in zip(citations, labels_column, groups_column):
        for group in groups:
            in_group = by_group.get(group)
            if in_group is None:
                in_group = by_group[group] = {}
            for label in labels:
                in_group[label] = in_group.get(label, 0.0) + cits
    return by_group


def _keywords_by_category(columns: PublicationColumns) -> dict[str, dict[str, float]]:
    return _grouped_totals(*_in_id_order(columns, columns.keywords, columns.categories))


def _pairs(columns: PublicationColumns) -> tuple[Item, ...]:
    # Keyed by category, then keyword: "a@b" in "c" and "a" in "b@c" stay two
    # items labelled "a@b@c", which the kernel's stable sort keeps in order.
    by_category = _keywords_by_category(columns)
    labels = [f"{kw}{PAIR_SEPARATOR}{cat}" for cat, in_cat in by_category.items() for kw in in_cat]
    totals = [total for in_cat in by_category.values() for total in in_cat.values()]
    return tuple(zip(labels, totals))


def _samples(columns: PublicationColumns) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for cits, categories in zip(*_in_id_order(columns, columns.categories)):
        for cat in categories:
            samples.setdefault(cat, []).append(cits)
    # label order decides which category an overflowed variance names
    return {cat: samples[cat] for cat in sorted(samples)}


#: The views Corpus.items() serves: name -> its builder from the columns.
ITEM_VIEWS = {
    "keywords": partial(_totals, field="keywords"),
    "pairs": _pairs,
    "categories": partial(_totals, field="categories"),
    "categories_fractional": partial(_totals, field="categories", fractional=True),
}


def build_corpus(publications: Iterable[PublicationRecord] | PublicationColumns) -> Corpus:
    """Validate publication columns, or records converted to columns, into
    a Corpus.

    Raises DuplicateId if two publications share an id, NegativeCitations if
    any citation count is below zero, NonFiniteCitations if one is NaN,
    infinite or beyond the float range.
    """
    if not isinstance(publications, PublicationColumns):
        publications = PublicationColumns.from_records(list(publications))
    return Corpus(publications)


def _group_labels(
    ids: Sequence[str],
    group_values: Sequence[Sequence[str]],
    strict: bool,
) -> list[tuple[str, ...]]:
    """Each publication's distinct group labels, checked in input order:
    none raises MissingGroupLabel in strict mode and is "(ungrouped)"
    otherwise."""
    if len(ids) != len(group_values):
        raise ValueError("records and group values differ in length")
    groups = _dedupe_each(group_values)
    if () in groups:
        if strict:
            raise MissingGroupLabel(ids[groups.index(())])
        groups = [labels or (UNGROUPED_LABEL,) for labels in groups]
    return groups
