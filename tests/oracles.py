"""Brute-force re-implementations of the rank-threshold rules.

Deliberately naive (O(n^2), no shared code with the kernel) so the test
suite can cross-check the fast implementations against an independent
reading of the definitions.
"""

from __future__ import annotations

from typing import Sequence


def naive_h_oracle(weights: Sequence[float]) -> int:
    """Largest r such that at least r weights are >= r."""
    n = len(weights)
    for r in range(n, 0, -1):
        if sum(1 for w in weights if w >= r) >= r:
            return r
    return 0


def naive_g_oracle(weights: Sequence[float]) -> int:
    """Largest r <= n such that the r largest weights sum to at least r**2."""
    ordered = sorted(weights, reverse=True)
    n = len(ordered)
    for r in range(n, 0, -1):
        if sum(ordered[:r]) >= r * r:
            return r
    return 0


def naive_xo_oracle(records, ratio_type: str = "h") -> int:
    """x_o by rescanning the records once per (category, keyword): each
    category's inner value is the h-oracle over its keywords' in-category
    citation sums; the outer rule runs over those inner values."""
    categories = {cat for rec in records for cat in rec.categories}
    inner = []
    for cat in categories:
        tagged = [rec for rec in records if cat in rec.categories]
        keywords = {kw for rec in tagged for kw in rec.keywords}
        sums = [sum(rec.citations for rec in tagged if kw in rec.keywords) for kw in keywords]
        inner.append(naive_h_oracle(sums))
    return naive_h_oracle(inner) if ratio_type == "h" else naive_g_oracle(inner)
