"""Generic rank-ratio engine behind every index in the family.

Items are plain (label, weight) tuples in any order, read through
itemgetter. They are ranked by weight descending (ties broken by label
ascending, byte order), then a threshold rule over a per-rank ratio yields
the index value:

* first-crossing: the value is (smallest rank with ratio < 1) - 1; n when
  no rank crosses, 0 when rank 1 already fails. Ranks after the first
  crossing are not read, even where externally supplied ratios (raw ivw)
  climb back above 1.
* h-type: ratio at rank r is weight/r. Weights never increase down the
  table and a correctly rounded division keeps that order, so the ratios
  never increase either, and the largest rank whose ratio is still >= 1 is
  the first crossing. Every h-type value is read that way: x, xc, xd and
  its variants, and the inner values of xo and the nested indices, whose
  scan stops at the crossing.
* g-type: ratio at rank r is (cumulative weight through r)/r**2; the value
  is the largest rank whose cumulative weight is >= r**2, capped at the
  number of items (no fictitious zero-weight items are appended). g keeps
  that literal rule: it compares each cumulative sum with r**2 directly,
  not its ratio column, a second rounding, with 1, so no crossing of that
  column decides it.

All comparisons are exact floating comparisons; ratios are plain divisions
with no further rounding, so a weight exactly equal to its rank qualifies.

Tables are held in column form: a RankedTable is built from parallel
labels, weights and ratios columns, with ranks implicit as 1..n. Ranking
is two stable C-keyed sorts, ratios and the value come from map/
accumulate/compress passes, and the table invariants are checked by
C-level passes, so no RankRow is built on the way to a report. The row
view (RankRow tuples) is built on each read of RankedTable.rows. Like
every frozen value of the library, a RankedTable rejects assignment and
del, and compares, hashes, prints and pickles by its three columns. Inner
values that no report prints (xo's per-category and nested's per-group
values) come from h_value, which ranks weights alone, builds no table and
divides no weight past the crossing.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, repeat
from operator import ge, itemgetter, lt, mul, truediv
from typing import Collection, Iterable, NamedTuple, Sequence

from .corpus import Item, _finite
from .errors import NonFiniteWeight
from .value import FrozenValue

INDEX_KINDS = ("x", "xc", "xd", "xdf", "xdfn", "ivw", "xo", "nested")
RATIO_TYPES = ("h", "g")


class RankRow(NamedTuple):
    rank: int
    label: str
    weight: float
    ratio: float


class RankedTable(FrozenValue):
    """Rank-ordered columns; ranks run 1..n and weights never increase.

    RankedTable(labels, weights, ratios) takes the parallel columns the
    kernel produces. A weight or ratio outside the float range raises
    NonFiniteWeight, since no report could print it.
    """

    __slots__ = _fields = ("labels", "weights", "ratios")

    def __init__(self, labels: Sequence[str], weights: Sequence[float], ratios: Sequence[float]):
        labels, weights, ratios = tuple(labels), tuple(weights), tuple(ratios)
        if not len(labels) == len(weights) == len(ratios):
            raise ValueError("label, weight and ratio columns differ in length")
        if any(map(lt, weights, repeat(0))):
            i = next(i for i, w in enumerate(weights, start=1) if w < 0)
            raise ValueError(f"negative weight at rank {i}")
        if any(map(lt, weights, weights[1:])):
            i = next(i for i in range(1, len(weights)) if weights[i - 1] < weights[i])
            raise ValueError(f"weights increase at rank {i + 1}")
        # The first weight is the largest, so an overflowed total shows there.
        if weights and not _finite(weights[0]):
            raise NonFiniteWeight(labels[0])
        if ratios and not _finite(top := max(ratios)):
            raise NonFiniteWeight(labels[ratios.index(top)])
        self._set(labels, weights, ratios)

    @property
    def rows(self) -> tuple[RankRow, ...]:
        """The table as RankRow tuples, built from the columns on each read."""
        return tuple(map(RankRow, count(1), self.labels, self.weights, self.ratios))

    def __len__(self) -> int:
        return len(self.labels)


class IndexResult(FrozenValue):
    """An index value together with the ranked table it was read off.

    dropped names the categories left out of the ranking because the
    reference stats lack them or give no usable mean (lenient xdfn and
    ivw); floored names the categories whose variance the variance floor
    replaced (ivw). The index functions fill both in label order; they
    are empty for other indices.
    """

    __slots__ = _fields = ("kind", "ratio_type", "value", "table", "dropped", "floored")

    def __init__(
        self,
        kind: str,
        ratio_type: str,
        value: int,
        table: RankedTable,
        dropped: tuple[str, ...] = (),
        floored: tuple[str, ...] = (),
    ) -> None:
        if kind not in INDEX_KINDS:
            raise ValueError(f"unknown index kind {kind!r}")
        if ratio_type not in RATIO_TYPES:
            raise ValueError(f"unknown ratio type {ratio_type!r}")
        if not 0 <= value <= len(table):
            raise ValueError("index value out of range for its table")
        self._set(kind, ratio_type, value, table, tuple(dropped), tuple(floored))


def rank_items(items: Iterable[Item]) -> list[Item]:
    """Items given in any order, sorted descending by weight, ties by
    label ascending: the one label sort on the way to a ranked table.

    Two stable sorts keyed in C: by label, then by weight reversed (a
    reversed stable sort keeps equal keys in their prior order, so items
    sharing a label and weight stay in the order given). The tie-break
    makes table output byte-reproducible; it cannot affect the index
    value, which depends on the weight multiset alone.
    """
    ranked = sorted(items, key=itemgetter(0))
    ranked.sort(key=itemgetter(1), reverse=True)
    return ranked


def _ranked_columns(items: Iterable[Item]) -> tuple[tuple, tuple]:
    ranked = rank_items(items)
    return tuple(map(itemgetter(0), ranked)), tuple(map(itemgetter(1), ranked))


def _first_crossing(ratios: Iterable[float], n: int) -> int:
    """The count of ratios before the first one below 1, or n when none of
    the n is; a lazy column is read no further than that ratio."""
    return next(compress(count(), map(lt, ratios, repeat(1.0))), n)


def h_type_index(items: Iterable[Item], kind: str = "x") -> IndexResult:
    labels, weights = _ranked_columns(items)
    ratios = tuple(map(truediv, weights, count(1)))
    return first_crossing_index(RankedTable(labels, weights, ratios), kind)


def h_value(items: Collection[Item]) -> int:
    """h_type_index(items).value without the ranked table: the weights
    sorted descending, divided by their ranks up to the first ratio below
    1. A largest weight that is not finite raises NonFiniteWeight naming
    the label h_type_index names (the smallest label of that weight), so
    items are read a second time on that path only."""
    weights = sorted(map(itemgetter(1), items), reverse=True)
    if weights and not _finite(top := weights[0]):
        raise NonFiniteWeight(min(label for label, weight in items if weight == top))
    return _first_crossing(map(truediv, weights, count(1)), len(weights))


def g_type_index(items: Iterable[Item], kind: str = "x") -> IndexResult:
    labels, weights = _ranked_columns(items)
    ranks = range(1, len(weights) + 1)
    squares = tuple(map(mul, ranks, ranks))
    # int start keeps exact (rational) weights exact; drop the start itself
    cumulative = tuple(accumulate(weights, initial=0))[1:]
    ratios = tuple(map(truediv, cumulative, squares))
    value = max(compress(ranks, map(ge, cumulative, squares)), default=0)
    return IndexResult(kind, "g", value, RankedTable(labels, weights, ratios))


def first_crossing_index(ranked: RankedTable, kind: str = "ivw") -> IndexResult:
    """Literal first-crossing rule over an already-ratioed table.

    The caller chooses the ranking basis and fills the ratio column; this
    only scans for the first rank where the ratio drops below 1.
    """
    return IndexResult(kind, "h", _first_crossing(ranked.ratios, len(ranked)), ranked)


def kernel_index(items: Iterable[Item], ratio_type: str, kind: str) -> IndexResult:
    if ratio_type == "h":
        return h_type_index(items, kind)
    if ratio_type == "g":
        return g_type_index(items, kind)
    raise ValueError(f"unknown ratio type {ratio_type!r}")
