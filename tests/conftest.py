"""Shared builders for unit, property, and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from xindices import PublicationColumns, build_corpus


def items(*weights: float) -> list[tuple[str, float]]:
    """Weight list -> (label, weight) items with distinct synthetic labels;
    Fraction weights stay exact, the others become floats."""
    return [(f"k{i:03d}", w if isinstance(w, Fraction) else float(w)) for i, w in enumerate(weights)]


class Record(NamedTuple):
    """One publication as a test-side row, its fields in PublicationColumns
    order."""

    id: str
    citations: float
    keywords: tuple[str, ...] = ()
    categories: tuple[str, ...] = ()
    institutions: tuple[str, ...] = ()


def _dedupe(labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(filter(None, labels)))


def record(
    rec_id: str,
    citations: float,
    keywords: Iterable[str] = (),
    categories: Iterable[str] = (),
    institutions: Iterable[str] = (),
) -> Record:
    """A Record in the form read_table writes: a non-empty id, and label
    tuples without empty labels or repeats (dropped here)."""
    if not rec_id:
        raise ValueError("publication id must be non-empty")
    return Record(rec_id, citations, _dedupe(keywords), _dedupe(categories), _dedupe(institutions))


def replaced(rec: Record, **changes) -> Record:
    """A copy of rec with the named fields changed."""
    return record(*rec._replace(**changes))


def columns_of(records: Sequence[Record]) -> PublicationColumns:
    """The records transposed into publication columns, in record order."""
    columns = list(zip(*records)) or [()] * len(Record._fields)
    return PublicationColumns(*map(list, columns))


def records_of(columns: PublicationColumns) -> list[Record]:
    """The publication columns as one Record per publication, in order."""
    return list(map(Record._make, zip(*columns)))


def random_records(
    rng: random.Random,
    max_pubs: int = 200,
    max_categories: int = 20,
    max_keywords: int = 100,
    max_institutions: int = 10,
    min_citations: int = 0,
    max_citations: int = 100,
) -> list[Record]:
    """Random publication records within the given vocabulary caps."""
    n = rng.randint(0, max_pubs)
    categories = [f"cat{i}" for i in range(rng.randint(1, max_categories))]
    keywords = [f"kw{i}" for i in range(rng.randint(1, max_keywords))]
    institutions = [f"inst{i}" for i in range(rng.randint(1, max_institutions))]
    records = []
    for i in range(n):
        records.append(
            record(
                f"p{i}",
                float(rng.randint(min_citations, max_citations)),
                tuple(rng.sample(keywords, rng.randint(0, min(4, len(keywords))))),
                tuple(rng.sample(categories, rng.randint(0, min(3, len(categories))))),
                tuple(rng.sample(institutions, rng.randint(0, min(3, len(institutions))))),
            )
        )
    return records


def random_corpus(rng: random.Random, **kwargs):
    return build_corpus(columns_of(random_records(rng, **kwargs)))
