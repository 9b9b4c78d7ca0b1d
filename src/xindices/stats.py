"""Per-category citation means and variances for the normalised variants.

Statistics can be estimated from the corpus under study or loaded from an
external reference file (header exactly ``category,mean,variance,n``).
External reference sets take precedence when supplied: internally estimated
values are convenient but inherit whatever geographic and temporal skew the
corpus itself carries. Estimates come from the corpus's exact category
sums, so they do not depend on the order of the publications.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import chain
from typing import IO, Iterable

from .corpus import Corpus, _finite
from .errors import BadStatsRow, MissingColumn, NonFiniteStats, NonPositiveMean
from .ingest import read_rows
from .numfmt import format_number
from .value import FrozenValue

STATS_HEADER = ("category", "mean", "variance", "n")


class StatsEntry(FrozenValue):
    """Mean and variance of per-publication citation counts in one category.

    Internally estimated means are exact rationals (Fraction), so dividing a
    category total by its own mean reproduces the publication count without
    float double-rounding; means loaded from a file are plain floats.
    variance is None when undefined (sample variance of a single
    observation); consumers decide whether that is an error. A mean or
    variance that is NaN or does not round to a finite float raises
    ValueError.
    """

    __slots__ = _fields = ("category", "mean", "variance", "n")

    def __init__(self, category: str, mean: float | Fraction, variance: float | None, n: int) -> None:
        if not _finite(mean) or variance is not None and not _finite(variance):
            raise ValueError(f"stats category {category!r} has a mean or variance that is not a finite number")
        self._set(category, mean, variance, n)


class ReferenceStats(FrozenValue):
    """Immutable per-category statistics table, keyed by category label;
    unhashable, since it holds a dict."""

    __slots__ = _fields = ("_entries",)

    def __init__(self, entries: Iterable[StatsEntry]):
        by_category: dict[str, StatsEntry] = {}
        for entry in entries:
            if entry.category in by_category:
                raise ValueError(f"duplicate stats category {entry.category!r}")
            by_category[entry.category] = entry
        self._set({cat: by_category[cat] for cat in sorted(by_category)})

    def __reduce__(self) -> tuple:
        # the constructor takes entries, not the dict the field holds
        return (ReferenceStats, (self.entries(),))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, category: str) -> bool:
        return category in self._entries

    def get(self, category: str) -> StatsEntry | None:
        return self._entries.get(category)

    def entries(self) -> list[StatsEntry]:
        return list(self._entries.values())


def estimate_stats(corpus: Corpus, variance_kind: str = "sample") -> ReferenceStats:
    """Estimate per-category stats from the corpus's exact category sums:
    the mean s1 / n as a Fraction, and the variance (n * s2 - s1**2) over
    n * (n - 1) (sample) or n**2 (population), rounded to float once, as
    statistics.variance and pvariance give it from Python 3.11 on.
    variance_kind="sample" marks single-observation categories as
    undefined; "population" gives zero for them. A variance beyond the
    float range raises NonFiniteStats."""
    if variance_kind not in ("sample", "population"):
        raise ValueError(f"unknown variance kind {variance_kind!r}")
    entries = []
    for category, (n, s1, s2) in corpus.category_sums().items():
        divisor = n * (n - 1) if variance_kind == "sample" else n * n
        try:
            variance = float((n * s2 - s1 * s1) / divisor) if divisor else None
        except OverflowError:
            raise NonFiniteStats(category) from None
        entries.append(StatsEntry(category, s1 / n, variance, n))
    return ReferenceStats(entries)


def load_reference_stats(stream: IO[bytes]) -> ReferenceStats:
    """Read a ``category,mean,variance,n`` file.

    Raises BadStatsRow for malformed or non-finite numbers, a repeated
    category or a row the csv module cannot read, and NonPositiveMean when
    a mean is zero or negative (it would later be used as a divisor). An
    empty variance cell loads as undefined. The file is read as read_table
    reads a table, through read_rows, but with a comma as its only separator.
    """
    _, blocks = read_rows(stream, BadStatsRow, "stats file has no header", ",")
    if tuple(next(blocks)[0]) != STATS_HEADER:
        raise MissingColumn(",".join(STATS_HEADER))
    entries: dict[str, StatsEntry] = {}
    for row_no, cells in enumerate(chain.from_iterable(blocks), start=2):
        if not cells:
            continue
        entry = _stats_entry(cells, row_no)
        if entry.category in entries:
            raise BadStatsRow(row_no, f"duplicate category {entry.category!r}")
        entries[entry.category] = entry
    return ReferenceStats(entries.values())


def _stats_entry(cells: list[str], row_no: int) -> StatsEntry:
    """One checked row of a stats file."""
    if len(cells) != 4:
        raise BadStatsRow(row_no, "expected 4 columns")
    category, mean_text, var_text, n_text = cells
    if "_" in mean_text + var_text + n_text:
        raise BadStatsRow(row_no)
    try:
        mean = float(mean_text)
        variance = float(var_text) if var_text.strip() else None
        n = int(n_text)
    except ValueError:
        raise BadStatsRow(row_no) from None
    # nan, inf and overflowing literals such as 1e400 (read as inf)
    if not math.isfinite(mean) or variance is not None and not math.isfinite(variance):
        raise BadStatsRow(row_no, "mean or variance is not a finite number")
    if mean <= 0:
        raise NonPositiveMean(category)
    if variance is not None and variance < 0:
        raise BadStatsRow(row_no, "negative variance")
    if n < 1:
        raise BadStatsRow(row_no, "sample size below 1")
    return StatsEntry(category, mean, variance, n)


def write_reference_stats(stats: ReferenceStats, stream: IO[bytes]) -> None:
    """Write stats in the canonical file format. load(write(s)) == s holds
    for loaded stats; an estimated mean, an exact Fraction, is written as
    its float (a mean of Fraction(2, 3) loads back as 0.6666666666666666)."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(STATS_HEADER)
    for entry in stats.entries():
        writer.writerow(
            [
                entry.category,
                format_number(entry.mean),
                "" if entry.variance is None else format_number(entry.variance),
                str(entry.n),
            ]
        )
    stream.write(text.getvalue().encode("utf-8"))
