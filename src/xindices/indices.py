"""The expertise-index family, composed from corpus views and the kernel.

Every operation returns an IndexResult whose table can be serialised as-is.
Depth indices rank keywords (x) or keyword@category pairs (xc); breadth
indices rank categories under whole (xd), fractional (xdf), mean-normalised
(xdfn) or inverse-variance-weighted (ivw) citation scores; xo ranks
categories by their own nested keyword-level x-indices; nested_index ranks
groups of corpora (typically institutions) by their inner x or xd values.

Inner values for xo and nested_index are always h-type; the ratio_type
argument selects the outer kernel only.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Mapping

from .corpus import Corpus, WeightedItem
from .errors import (
    MissingStats,
    NonPositiveMean,
    RankBasisUnsupported,
    ZeroOrMissingVariance,
)
from .kernel import (
    IndexResult,
    RankedTable,
    first_crossing_index,
    kernel_index,
    rank_items,
)
from .stats import ReferenceStats

logger = logging.getLogger("xindices")


def x_index(corpus: Corpus, ratio_type: str = "h") -> IndexResult:
    """Depth of fine-grained expertise: kernel over keyword citation totals."""
    return kernel_index(corpus.keyword_totals(), ratio_type, "x")


def xc_index(corpus: Corpus, ratio_type: str = "h") -> IndexResult:
    """Overlap-adjusted depth: a keyword appearing under several categories
    is ranked once per (keyword, category) pair."""
    return kernel_index(corpus.pair_totals(), ratio_type, "xc")


def xd_index(corpus: Corpus, ratio_type: str = "h") -> IndexResult:
    """Breadth of expertise: kernel over whole category citation totals."""
    return kernel_index(corpus.category_totals("whole"), ratio_type, "xd")


def xdf_index(corpus: Corpus, ratio_type: str = "h") -> IndexResult:
    """Collaboration-adjusted breadth: category totals under fractional
    (per-institution) citation counting."""
    return kernel_index(corpus.category_totals("fractional"), ratio_type, "xdf")


def _lookup(
    stats: ReferenceStats,
    category: str,
    strict: bool,
    dropped: list[str],
):
    entry = stats.get(category)
    if entry is None:
        if strict:
            raise MissingStats(category)
        dropped.append(category)
    return entry


def xdfn_index(
    corpus: Corpus,
    ratio_type: str = "h",
    stats: ReferenceStats | None = None,
    strict: bool = True,
) -> IndexResult:
    """Field-normalised breadth: each category total is divided by the
    category's reference mean before ranking.

    The division runs in exact rational arithmetic (floats embed exactly in
    Fraction), so a total divided by its own internally estimated mean is
    exactly the publication count rather than a float one ulp away; the
    kernel compares rationals exactly.

    Categories absent from the stats (or with a non-positive mean) raise in
    strict mode; in lenient mode they are dropped with a logged warning.
    """
    if stats is None:
        raise MissingStats()
    dropped: list[str] = []
    scored = []
    for item in corpus.category_totals("whole"):
        entry = _lookup(stats, item.label, strict, dropped)
        if entry is None:
            continue
        if entry.mean <= 0:
            if strict:
                raise NonPositiveMean(item.label)
            dropped.append(item.label)
            continue
        scored.append(WeightedItem(item.label, Fraction(item.weight) / Fraction(entry.mean)))
    if dropped:
        logger.warning(
            "dropped %d categories without usable reference means: %s",
            len(dropped),
            ", ".join(sorted(dropped)),
        )
    return kernel_index(scored, ratio_type, "xdfn")


def _variance_for(
    entry,
    category: str,
    variance_floor: float | None,
) -> float:
    variance = entry.variance
    if variance_floor is not None:
        floored = max(variance or 0.0, variance_floor)
        if variance is None or variance < variance_floor:
            logger.warning(
                "variance floor %s substituted for category %s",
                variance_floor,
                category,
            )
        return floored
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
    totals and evaluates the literal first-crossing rule on the ratio
    t/(v*r); the ratio need not be monotone, and no g-type rule exists for
    this basis. rank_basis="weighted" ranks by the adjusted score t/v and
    supports both ratio types, mirroring how the mean-normalised variant
    ranks by its adjusted scores.

    Zero or undefined variances raise unless variance_floor substitutes
    max(variance, floor).
    """
    if stats is None:
        raise MissingStats()
    if variance_floor is not None and variance_floor <= 0:
        raise ValueError("variance floor must be positive")
    if rank_basis not in ("raw", "weighted"):
        raise ValueError(f"unknown rank basis {rank_basis!r}")
    if rank_basis == "raw" and ratio_type == "g":
        raise RankBasisUnsupported()

    totals = corpus.category_totals("whole")
    dropped: list[str] = []
    kept = []
    for item in totals:
        entry = _lookup(stats, item.label, strict, dropped)
        if entry is None:
            continue
        kept.append((item, _variance_for(entry, item.label, variance_floor)))
    if dropped:
        logger.warning(
            "dropped %d categories without reference variances: %s",
            len(dropped),
            ", ".join(sorted(dropped)),
        )

    if rank_basis == "weighted":
        scored = [WeightedItem(item.label, item.weight / v) for item, v in kept]
        return kernel_index(scored, ratio_type, "ivw")

    variance_of = {item.label: v for item, v in kept}
    ranked = rank_items([item for item, _ in kept])
    labels = [item.label for item in ranked]
    weights = [item.weight for item in ranked]
    ratios = [w / (variance_of[label] * r) for r, (label, w) in enumerate(ranked, start=1)]
    return first_crossing_index(RankedTable.from_columns(labels, weights, ratios), "ivw")


def xo_index(corpus: Corpus, ratio_type: str = "h", jobs: int = 1) -> IndexResult:
    """Overall expertise: kernel over the per-category nested x-indices.

    Each category's inner value is the h-type x-index over the keywords of
    the publications tagged with it, weighted by in-category citations. The
    per-category computations may run on several threads; the final ranking
    is sorted deterministically, so the result is independent of scheduling.
    """
    per_category: dict[str, dict[str, float]] = {}
    for rec in sorted(corpus.publications, key=lambda r: r.id):
        cits = float(rec.citations)
        for cat in rec.categories:
            totals = per_category.setdefault(cat, {})
            for kw in rec.keywords:
                totals[kw] = totals.get(kw, 0.0) + cits
    categories = sorted(per_category)

    def inner(cat: str) -> WeightedItem:
        items = [WeightedItem(kw, w) for kw, w in per_category[cat].items()]
        return WeightedItem(cat, float(kernel_index(items, "h", "x").value))

    if jobs > 1 and len(categories) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            scored = list(pool.map(inner, categories))
    else:
        scored = [inner(cat) for cat in categories]
    return kernel_index(scored, ratio_type, "xo")


def nested_index(
    groups: Mapping[str, Corpus],
    inner: str = "x",
    ratio_type: str = "h",
    jobs: int = 1,
) -> IndexResult:
    """Group-level index: the kernel applied to each group's inner h-type
    x or xd value (the xx and xx_d aggregates)."""
    if inner not in ("x", "xd"):
        raise ValueError(f"unknown inner index {inner!r}")
    inner_fn = x_index if inner == "x" else xd_index
    labels = sorted(groups)

    def score(label: str) -> WeightedItem:
        return WeightedItem(label, float(inner_fn(groups[label], "h").value))

    if jobs > 1 and len(labels) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            scored = list(pool.map(score, labels))
    else:
        scored = [score(label) for label in labels]
    return kernel_index(scored, ratio_type, "nested")
