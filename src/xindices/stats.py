"""Per-category citation means and variances for the normalised variants.

Statistics can be estimated from the corpus under study or loaded from an
external reference file (header exactly ``category,mean,variance,n``).
External reference sets take precedence when supplied: internally estimated
values are convenient but inherit whatever geographic and temporal skew the
corpus itself carries.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable

from .corpus import Corpus
from .errors import BadStatsRow, MissingColumn, NonFiniteStats, NonPositiveMean
from .ingest import read_utf8
from .numfmt import format_number

STATS_HEADER = ("category", "mean", "variance", "n")


@dataclass(frozen=True)
class StatsEntry:
    """Mean and variance of per-publication citation counts in one category.

    Internally estimated means are exact rationals (Fraction), so dividing a
    category total by its own mean reproduces the publication count without
    float double-rounding; means loaded from a file are plain floats.
    variance is None when undefined (sample variance of a single
    observation); consumers decide whether that is an error.
    """

    category: str
    mean: float | Fraction
    variance: float | None
    n: int


class ReferenceStats:
    """Immutable per-category statistics table, keyed by category label."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[StatsEntry]):
        by_category: dict[str, StatsEntry] = {}
        for entry in entries:
            if entry.category in by_category:
                raise ValueError(f"duplicate stats category {entry.category!r}")
            by_category[entry.category] = entry
        object.__setattr__(
            self, "_entries", {cat: by_category[cat] for cat in sorted(by_category)}
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ReferenceStats is immutable")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, category: str) -> bool:
        return category in self._entries

    def get(self, category: str) -> StatsEntry | None:
        return self._entries.get(category)

    def entries(self) -> list[StatsEntry]:
        return list(self._entries.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferenceStats):
            return NotImplemented
        return self._entries == other._entries


def _exact_mean(values: list[float]) -> Fraction:
    """The exact rational mean of finite floats; a NaN raises ValueError and
    an infinity OverflowError, as Fraction(v) does. Each float is n / d with
    d a power of two, so every d divides the largest, den, and the sum is one
    integer over den: the same Fraction as summing Fraction(v), without a
    gcd per addition."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return Fraction(sum(n * (den // d) for n, d in ratios), den * len(values))


def estimate_stats(corpus: Corpus, variance_kind: str = "sample") -> ReferenceStats:
    """Estimate per-category stats from the corpus's own citation samples.

    variance_kind="sample" uses the n-1 divisor and marks single-observation
    categories as undefined; "population" uses the n divisor (zero for a
    single observation). A variance beyond the float range raises
    NonFiniteStats.
    """
    if variance_kind not in ("sample", "population"):
        raise ValueError(f"unknown variance kind {variance_kind!r}")
    entries = []
    for category, values in corpus.category_samples().items():
        mean = _exact_mean(values)
        try:
            if variance_kind == "sample":
                variance = statistics.variance(values) if len(values) >= 2 else None
            else:
                variance = statistics.pvariance(values)
        except OverflowError:
            raise NonFiniteStats(category) from None
        entries.append(StatsEntry(category, mean, variance, len(values)))
    return ReferenceStats(entries)


def load_reference_stats(stream: IO[bytes]) -> ReferenceStats:
    """Read a ``category,mean,variance,n`` file.

    Raises BadStatsRow for malformed or non-finite numbers, a repeated
    category or a row the csv module cannot read, and NonPositiveMean when
    a mean is zero or negative (it would later be used as a divisor). An
    empty variance cell loads as undefined. The text is decoded as in
    read_table.
    """
    text = read_utf8(stream)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise BadStatsRow(1, "stats file has no header") from None
    except csv.Error as exc:
        raise BadStatsRow(1, str(exc)) from None
    if tuple(header) != STATS_HEADER:
        raise MissingColumn(",".join(STATS_HEADER))
    entries: dict[str, StatsEntry] = {}
    row_no = 1
    try:
        for row_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            entry = _stats_entry(cells, row_no)
            if entry.category in entries:
                raise BadStatsRow(row_no, f"duplicate category {entry.category!r}")
            entries[entry.category] = entry
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise BadStatsRow(row_no + 1, str(exc)) from None
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
    """Write stats in the canonical file format; load(write(s)) == s."""
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
