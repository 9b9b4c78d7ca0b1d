"""Publication data model and the aggregation views every index is built on.

A Corpus is immutable once built. It validates its records eagerly; each
derived view (keyword totals, per-category keyword totals, pair totals,
category totals, per-category citation samples) is built on first read and
cached, so a command pays only for the views its index reads. Views are
pure functions of the publication multiset: contributions are accumulated
over publications sorted by id, so permuting the input record list, or
reading the views in another order, yields bitwise-identical views and
index values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from operator import attrgetter, itemgetter
from typing import Collection, Iterable, NamedTuple, Sequence

from .errors import DuplicateId, MissingGroupLabel, NegativeCitations, NonFiniteCitations

#: Pair labels are rendered as "<keyword>@<category>".
PAIR_SEPARATOR = "@"

#: Group label assigned to records with no group value in non-strict mode.
UNGROUPED_LABEL = "(ungrouped)"


def _dedupe(labels: Iterable[str]) -> tuple[str, ...]:
    """Drop empty labels and duplicates, preserving first-occurrence order."""
    return tuple(dict.fromkeys(filter(None, labels)))


@dataclass(frozen=True)
class PublicationRecord:
    """One publication: identity, citation count, and its label sets.

    Labels are expected to be pre-normalised (ingest handles trimming and
    case folding). Empty labels and duplicates within a list are dropped at
    construction. An empty keyword list is legal (the record still counts
    toward category-level indices), as is an empty category list.
    """

    id: str
    citations: float
    keywords: tuple[str, ...] = ()
    categories: tuple[str, ...] = ()
    institutions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("publication id must be non-empty")
        object.__setattr__(self, "keywords", _dedupe(self.keywords))
        object.__setattr__(self, "categories", _dedupe(self.categories))
        object.__setattr__(self, "institutions", _dedupe(self.institutions))

    @classmethod
    def _from_normalised(
        cls,
        id: str,
        citations: float,
        keywords: tuple[str, ...],
        categories: tuple[str, ...],
        institutions: tuple[str, ...],
    ) -> PublicationRecord:
        """A record from fields already in the form __post_init__ makes
        (non-empty id; label tuples without empty labels or repeats),
        skipping its checks. For ingest, which builds the fields that way."""
        rec = object.__new__(cls)
        rec.__dict__.update(
            id=id,
            citations=citations,
            keywords=keywords,
            categories=categories,
            institutions=institutions,
        )
        return rec


class WeightedItem(NamedTuple):
    """A ranking candidate: a label with a nonnegative weight.

    The label is a keyword, a keyword@category pair, a category, or a group
    name; the weight is a citation total, an adjusted score, or an inner
    index value (a float, or an exact Fraction on the field-normalised path).
    """

    label: str
    weight: float


#: A view item in the plain form views are held in: (label, weight). The
#: collector untracks plain tuples of a str and a float, but never a
#: WeightedItem, so large views are kept as plain tuples.
Item = tuple[str, float]

#: The views Corpus.items() serves, each sorted by label.
ITEM_VIEWS = ("keywords", "pairs", "categories", "categories_fractional")

#: The record fields Corpus.items_by_group() totals per group.
GROUP_VIEWS = ("keywords", "categories")

_FLOAT_MAX = sys.float_info.max


def _weighted(items: Iterable[Item]) -> list[WeightedItem]:
    return list(map(WeightedItem._make, items))


class Corpus:
    """Immutable collection of publications; each aggregation view is built
    on first read and cached."""

    __slots__ = ("publications", "_views")

    def __init__(self, records: Iterable[PublicationRecord]):
        publications = tuple(records)
        seen: set[str] = set()
        for rec in publications:
            if rec.id in seen:
                raise DuplicateId(rec.id)
            seen.add(rec.id)
            if not 0 <= rec.citations <= _FLOAT_MAX:
                if rec.citations < 0:
                    raise NegativeCitations(rec.id)
                raise NonFiniteCitations(rec.id)
        object.__setattr__(self, "publications", publications)
        object.__setattr__(self, "_views", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Corpus is immutable")

    def __len__(self) -> int:
        return len(self.publications)

    def _view(self, name: str):
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = _BUILDERS[name](self)
        return view

    def items(self, view: str) -> tuple[Item, ...]:
        """One of ITEM_VIEWS as plain (label, weight) tuples sorted by label:
        the kernel input the index functions read. The *_totals methods
        return the same values as WeightedItem lists."""
        if view not in ITEM_VIEWS:
            raise ValueError(f"unknown view {view!r}")
        return self._view(view)

    def keyword_items_by_category(self) -> dict[str, Collection[Item]]:
        """Per category, the (keyword, in-category total) items of its
        publications: the pair view before its labels are joined."""
        return {cat: in_cat.items() for cat, in_cat in self._view("keywords_by_category").items()}

    def items_by_group(
        self,
        group_values: Sequence[Sequence[str]],
        view: str,
        strict: bool = False,
    ) -> dict[str, Collection[Item]]:
        """Per group label, the (label, total) items of the "keywords" or
        "categories" view over the publications in that group, unsorted:
        the items partition_by_group(self.publications, group_values,
        strict)[group].items(view) holds, bitwise, from one pass over this
        corpus and without building a Corpus per group.

        group_values is parallel to self.publications. Repeated group labels
        count once; a publication with none raises MissingGroupLabel in
        strict mode and falls into "(ungrouped)" otherwise.
        """
        if view not in GROUP_VIEWS:
            raise ValueError(f"unknown group view {view!r}")
        groups = _group_labels(self.publications, group_values, strict)
        in_id_order = sorted(zip(self.publications, groups), key=_record_id)
        by_group = _grouped_totals(in_id_order, view)
        return {group: totals.items() for group, totals in by_group.items()}

    def keyword_totals(self) -> list[WeightedItem]:
        """One item per distinct keyword; weight is the sum of citations of
        all publications listing it (full count replicated per keyword)."""
        return _weighted(self._view("keywords"))

    def pair_totals(self) -> list[WeightedItem]:
        """One item per distinct (keyword, category) pair; a publication
        contributes its full citation count to every keyword x category
        combination it carries. Labels read "keyword@category"; pairs whose
        labels coincide (a keyword or category containing "@") remain
        separate items."""
        return _weighted(self._view("pairs"))

    def category_totals(self, mode: str = "whole") -> list[WeightedItem]:
        """One item per distinct category.

        mode="whole": full citation counts. mode="fractional": each
        publication contributes citations / (number of distinct institutions
        on the record), with divisor 1 when the institution list is empty.
        """
        if mode == "whole":
            return _weighted(self._view("categories"))
        if mode == "fractional":
            return _weighted(self._view("categories_fractional"))
        raise ValueError(f"unknown counting mode {mode!r}")

    def category_samples(self) -> dict[str, list[float]]:
        """Per category, the multiset of whole citation counts of the
        publications tagged with it (input to the field-stats estimators)."""
        return {cat: list(vals) for cat, vals in self._view("samples").items()}


# View builders. Each accumulates over the publications sorted by id, so
# every float sum is independent of input order and of which views were
# read before it.


def _by_id(corpus: Corpus) -> tuple[PublicationRecord, ...]:
    # ids are unique, so this order is canonical
    return tuple(sorted(corpus.publications, key=attrgetter("id")))


def _record_id(pair: tuple[PublicationRecord, object]) -> str:
    return pair[0].id


def _totals(corpus: Corpus, field: str, fractional: bool = False) -> tuple[Item, ...]:
    """Citations summed per label of the record field; with fractional,
    each record's citations are divided by its number of institutions."""
    totals: dict[str, float] = {}
    for rec in corpus._view("by_id"):
        cits = float(rec.citations)
        if fractional:
            cits = cits / (len(rec.institutions) or 1)
        for label in getattr(rec, field):
            totals[label] = totals.get(label, 0.0) + cits
    return tuple(sorted(totals.items()))


def _grouped_totals(
    publications: Iterable[tuple[PublicationRecord, Iterable[str]]], field: str
) -> dict[str, dict[str, float]]:
    """Per group, citations summed per label of the record field, over
    (record, group labels) pairs in id order: bitwise the _totals of the
    group's own publications. A group is kept even if its records carry no
    label in field."""
    by_group: dict[str, dict[str, float]] = {}
    for rec, groups in publications:
        cits = float(rec.citations)
        labels = getattr(rec, field)
        for group in groups:
            in_group = by_group.get(group)
            if in_group is None:
                in_group = by_group[group] = {}
            for label in labels:
                in_group[label] = in_group.get(label, 0.0) + cits
    return by_group


def _keywords_by_category(corpus: Corpus) -> dict[str, dict[str, float]]:
    by_id = corpus._view("by_id")
    return _grouped_totals(zip(by_id, map(attrgetter("categories"), by_id)), "keywords")


def _pairs(corpus: Corpus) -> tuple[Item, ...]:
    # Keyed by category, then keyword, so "a@b" in "c" and "a" in "b@c"
    # stay two items, both labelled "a@b@c", in accumulation order.
    by_category = corpus._view("keywords_by_category")
    labels = [f"{kw}{PAIR_SEPARATOR}{cat}" for cat, in_cat in by_category.items() for kw in in_cat]
    totals = [total for in_cat in by_category.values() for total in in_cat.values()]
    return tuple(sorted(zip(labels, totals), key=itemgetter(0)))


def _samples(corpus: Corpus) -> dict[str, tuple[float, ...]]:
    samples: dict[str, list[float]] = {}
    for rec in corpus._view("by_id"):
        cits = float(rec.citations)
        for cat in rec.categories:
            samples.setdefault(cat, []).append(cits)
    return {cat: tuple(samples[cat]) for cat in sorted(samples)}


_BUILDERS = {
    "by_id": _by_id,
    "keywords": partial(_totals, field="keywords"),
    "keywords_by_category": _keywords_by_category,
    "pairs": _pairs,
    "categories": partial(_totals, field="categories"),
    "categories_fractional": partial(_totals, field="categories", fractional=True),
    "samples": _samples,
}


def build_corpus(records: Iterable[PublicationRecord]) -> Corpus:
    """Validate records into a Corpus, whose views are built on first read.

    Raises DuplicateId if two records share an id, NegativeCitations if any
    citation count is below zero, NonFiniteCitations if one is NaN, infinite
    or beyond the float range.
    """
    return Corpus(records)


def partition_by_group(
    records: Sequence[PublicationRecord],
    group_column_values: Sequence[Sequence[str]],
    strict: bool = False,
) -> dict[str, Corpus]:
    """Split records into one sub-corpus per group label.

    group_column_values is parallel to records; a record tagged with several
    group labels appears in each group's sub-corpus. Records with no label
    raise MissingGroupLabel in strict mode and fall into "(ungrouped)"
    otherwise.
    """
    buckets: dict[str, list[PublicationRecord]] = {}
    for rec, labels in zip(records, _group_labels(records, group_column_values, strict)):
        for label in labels:
            buckets.setdefault(label, []).append(rec)
    return {label: Corpus(buckets[label]) for label in sorted(buckets)}


def _group_labels(
    records: Sequence[PublicationRecord],
    group_values: Sequence[Sequence[str]],
    strict: bool,
) -> list[tuple[str, ...]]:
    """Each record's distinct group labels, checked in input order: none
    raises MissingGroupLabel in strict mode and is "(ungrouped)" otherwise."""
    if len(records) != len(group_values):
        raise ValueError("records and group values differ in length")
    groups = []
    for rec, labels in zip(records, group_values):
        labels = _dedupe(labels)
        if not labels:
            if strict:
                raise MissingGroupLabel(rec.id)
            labels = (UNGROUPED_LABEL,)
        groups.append(labels)
    return groups
