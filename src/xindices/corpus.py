"""Publication data model and the aggregation views every index is built on.

A Corpus is immutable once built. All derived views (keyword totals, pair
totals, category totals, per-category citation samples) are materialised at
construction time and are pure functions of the publication multiset:
contributions are accumulated over publications sorted by id, so permuting
the input record list yields bitwise-identical views and index values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DuplicateId, MissingGroupLabel, NegativeCitations

#: Pair labels are rendered as "<keyword>@<category>".
PAIR_SEPARATOR = "@"

#: Group label assigned to records with no group value in non-strict mode.
UNGROUPED_LABEL = "(ungrouped)"


def _dedupe(labels: Iterable[str]) -> tuple[str, ...]:
    """Drop empty labels and duplicates, preserving first-occurrence order."""
    seen: set[str] = set()
    out: list[str] = []
    for label in labels:
        if label and label not in seen:
            seen.add(label)
            out.append(label)
    return tuple(out)


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


class WeightedItem(NamedTuple):
    """A ranking candidate: a label with a nonnegative weight.

    The label is a keyword, a keyword@category pair, a category, or a group
    name; the weight is a citation total, an adjusted score, or an inner
    index value (a float, or an exact Fraction on the field-normalised path).
    """

    label: str
    weight: float


def _sorted_items(totals: Mapping[str, float]) -> tuple[WeightedItem, ...]:
    return tuple(WeightedItem(label, totals[label]) for label in sorted(totals))


class Corpus:
    """Immutable collection of publications plus precomputed aggregation views."""

    __slots__ = (
        "publications",
        "_keyword_totals",
        "_pair_totals",
        "_category_totals_whole",
        "_category_totals_fractional",
        "_category_samples",
    )

    def __init__(self, records: Iterable[PublicationRecord]):
        publications = tuple(records)
        seen: set[str] = set()
        for rec in publications:
            if rec.id in seen:
                raise DuplicateId(rec.id)
            seen.add(rec.id)
            if rec.citations < 0:
                raise NegativeCitations(rec.id)
        object.__setattr__(self, "publications", publications)

        # Canonical accumulation order: ids are unique, so sorting by id makes
        # every float sum independent of input order.
        ordered = sorted(publications, key=lambda r: r.id)

        kw_totals: dict[str, float] = {}
        pair_totals: dict[str, dict[str, float]] = {}  # category -> keyword -> total
        cat_whole: dict[str, float] = {}
        cat_frac: dict[str, float] = {}
        samples: dict[str, list[float]] = {}
        for rec in ordered:
            cits = float(rec.citations)
            for kw in rec.keywords:
                kw_totals[kw] = kw_totals.get(kw, 0.0) + cits
            divisor = len(rec.institutions) or 1
            frac = cits / divisor
            for cat in rec.categories:
                cat_whole[cat] = cat_whole.get(cat, 0.0) + cits
                cat_frac[cat] = cat_frac.get(cat, 0.0) + frac
                samples.setdefault(cat, []).append(cits)
                in_cat = pair_totals.get(cat)
                if in_cat is None:
                    in_cat = pair_totals[cat] = {}
                for kw in rec.keywords:
                    in_cat[kw] = in_cat.get(kw, 0.0) + cits

        object.__setattr__(self, "_keyword_totals", _sorted_items(kw_totals))
        # Keyed by category, then keyword, so "a@b" in "c" and "a" in "b@c"
        # stay two items (both labelled "a@b@c", in accumulation order). All
        # labels are made before any item so that the items sit together in
        # memory: the garbage collector walks every item on each full
        # collection, and items interleaved with their labels made
        # partition_by_group measurably slower.
        labels = [f"{kw}{PAIR_SEPARATOR}{cat}" for cat, in_cat in pair_totals.items() for kw in in_cat]
        totals = [total for in_cat in pair_totals.values() for total in in_cat.values()]
        by_label = sorted(range(len(labels)), key=labels.__getitem__)
        object.__setattr__(
            self, "_pair_totals", tuple(WeightedItem(labels[i], totals[i]) for i in by_label)
        )
        object.__setattr__(self, "_category_totals_whole", _sorted_items(cat_whole))
        object.__setattr__(self, "_category_totals_fractional", _sorted_items(cat_frac))
        object.__setattr__(
            self,
            "_category_samples",
            {cat: tuple(samples[cat]) for cat in sorted(samples)},
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Corpus is immutable")

    def __len__(self) -> int:
        return len(self.publications)

    def keyword_totals(self) -> list[WeightedItem]:
        """One item per distinct keyword; weight is the sum of citations of
        all publications listing it (full count replicated per keyword)."""
        return list(self._keyword_totals)

    def pair_totals(self) -> list[WeightedItem]:
        """One item per distinct (keyword, category) pair; a publication
        contributes its full citation count to every keyword x category
        combination it carries. Labels read "keyword@category"; pairs whose
        labels coincide (a keyword or category containing "@") remain
        separate items."""
        return list(self._pair_totals)

    def category_totals(self, mode: str = "whole") -> list[WeightedItem]:
        """One item per distinct category.

        mode="whole": full citation counts. mode="fractional": each
        publication contributes citations / (number of distinct institutions
        on the record), with divisor 1 when the institution list is empty.
        """
        if mode == "whole":
            return list(self._category_totals_whole)
        if mode == "fractional":
            return list(self._category_totals_fractional)
        raise ValueError(f"unknown counting mode {mode!r}")

    def category_samples(self) -> dict[str, list[float]]:
        """Per category, the multiset of whole citation counts of the
        publications tagged with it (input to the field-stats estimators)."""
        return {cat: list(vals) for cat, vals in self._category_samples.items()}


def build_corpus(records: Iterable[PublicationRecord]) -> Corpus:
    """Validate records and materialise all aggregation views.

    Raises DuplicateId if two records share an id, NegativeCitations if any
    citation count is below zero.
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
    if len(records) != len(group_column_values):
        raise ValueError("records and group_column_values differ in length")
    buckets: dict[str, list[PublicationRecord]] = {}
    for rec, labels in zip(records, group_column_values):
        labels = _dedupe(labels)
        if not labels:
            if strict:
                raise MissingGroupLabel(rec.id)
            labels = (UNGROUPED_LABEL,)
        for label in labels:
            buckets.setdefault(label, []).append(rec)
    return {label: Corpus(buckets[label]) for label in sorted(buckets)}
