"""Shared builders for unit, property, and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from xindices import PublicationRecord, build_corpus


def items(*weights: float) -> list[tuple[str, float]]:
    """Weight list -> (label, weight) items with distinct synthetic labels;
    Fraction weights stay exact, the others become floats."""
    return [(f"k{i:03d}", w if isinstance(w, Fraction) else float(w)) for i, w in enumerate(weights)]


def record(
    rec_id: str,
    citations: float,
    keywords: tuple[str, ...] = (),
    categories: tuple[str, ...] = (),
    institutions: tuple[str, ...] = (),
) -> PublicationRecord:
    return PublicationRecord(
        id=rec_id,
        citations=citations,
        keywords=keywords,
        categories=categories,
        institutions=institutions,
    )


def replaced(rec: PublicationRecord, **changes) -> PublicationRecord:
    """A copy of rec with the named fields changed."""
    fields = {
        "id": rec.id,
        "citations": rec.citations,
        "keywords": rec.keywords,
        "categories": rec.categories,
        "institutions": rec.institutions,
    }
    return PublicationRecord(**{**fields, **changes})


def random_records(
    rng: random.Random,
    max_pubs: int = 200,
    max_categories: int = 20,
    max_keywords: int = 100,
    max_institutions: int = 10,
    min_citations: int = 0,
    max_citations: int = 100,
) -> list[PublicationRecord]:
    """Random publication records within the given vocabulary caps."""
    n = rng.randint(0, max_pubs)
    categories = [f"cat{i}" for i in range(rng.randint(1, max_categories))]
    keywords = [f"kw{i}" for i in range(rng.randint(1, max_keywords))]
    institutions = [f"inst{i}" for i in range(rng.randint(1, max_institutions))]
    records = []
    for i in range(n):
        records.append(
            PublicationRecord(
                id=f"p{i}",
                citations=float(rng.randint(min_citations, max_citations)),
                keywords=tuple(rng.sample(keywords, rng.randint(0, min(4, len(keywords))))),
                categories=tuple(rng.sample(categories, rng.randint(0, min(3, len(categories))))),
                institutions=tuple(
                    rng.sample(institutions, rng.randint(0, min(3, len(institutions))))
                ),
            )
        )
    return records


def random_corpus(rng: random.Random, **kwargs):
    return build_corpus(random_records(rng, **kwargs))
