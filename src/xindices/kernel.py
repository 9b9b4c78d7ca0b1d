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

Ranking takes one of two paths, chosen from the input. Citation totals
are whole counts and tie heavily (the pair view of a 25k-publication
table holds 135k items but a few hundred distinct weights), so when the
distinct weights are at most _BUCKET_SHARE of the items, rank_items puts
the items into one bucket per weight in a single dict pass, and sorts
only the distinct weights and each bucket by label. Otherwise, as on a
table whose weights are all distinct, where a bucket per item costs more
than it saves, it takes two stable C-keyed sorts, by label and then by
weight. Both give the same list. The bucket pass counts the distinct
weights as it goes: it runs 4 096 items at a time and gives way to the
sorts as soon as the buckets outnumber that share, so on all-distinct
items it reads only that far.

Tables are held in column form: a RankedTable is built from parallel
labels, weights and ratios columns, with ranks implicit as 1..n. Ratios
and the value come from map/accumulate/compress passes, and the table
invariants are checked by C-level passes, so no RankRow is built on the
way to a report. A NaN weight fails the check that no weight is below 0,
so it raises NonFiniteWeight naming the smallest label that carries one,
whatever the input order; a NaN ratio, an overflowed weight and an
overflowed ratio raise it the same way. The row view (RankRow tuples) is
built on each read of RankedTable.rows. Like every frozen value of the
library, a RankedTable rejects assignment and del, and compares, hashes,
prints and pickles by its three columns.

Inner values that no report prints (xo's per-category and nested's
per-group values) come from _exact_h_value: it gives
h_type_index(items).value from each group's exact int totals alone,
builds no table and rounds and divides no total past the crossing.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import accumulate, compress, count, islice, repeat
from operator import ge, itemgetter, lt, mul, truediv
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import FLOAT_LIMIT, Item, _finite
from .errors import NonFiniteWeight
from .value import FrozenValue

INDEX_KINDS = ("x", "xc", "xd", "xdf", "xdfn", "ivw", "xo", "nested")
RATIO_TYPES = ("h", "g")

#: rank_items buckets items by weight when at most this share of them carry
#: distinct weights, and sorts them twice otherwise. On 135k-item tables
#: the buckets win up to a share of 0.15 with uniformly drawn weights and
#: lose from 0.2; with one weight carrying most items beside singletons
#: they break even near 0.1 (the sweep is in CHANGES.md).
_BUCKET_SHARE = 0.125

#: The cause NonFiniteWeight gives for a NaN weight or ratio.
_NAN_CAUSE = "a NaN weight or ratio lies outside"

_label = itemgetter(0)
_weight = itemgetter(1)


class RankRow(NamedTuple):
    rank: int
    label: str
    weight: float
    ratio: float


class RankedTable(FrozenValue):
    """Rank-ordered columns; ranks run 1..n and weights never increase.

    RankedTable(labels, weights, ratios) takes the parallel columns the
    kernel produces. A weight or ratio outside the float range raises
    NonFiniteWeight, since no report could print it. It names the smallest
    label with a NaN weight, else an overflowed weight, else a NaN ratio,
    else an overflowed ratio; finite ratios may sum past the float range.
    """

    __slots__ = _fields = ("labels", "weights", "ratios")

    def __init__(self, labels: Sequence[str], weights: Sequence[float], ratios: Sequence[float]):
        labels, weights, ratios = tuple(labels), tuple(weights), tuple(ratios)
        if not len(labels) == len(weights) == len(ratios):
            raise ValueError("label, weight and ratio columns differ in length")
        # NaN fails every comparison, so this pass finds it too
        if not all(map(ge, weights, repeat(0))):
            if nan := [label for label, w in zip(labels, weights) if w != w]:
                raise NonFiniteWeight(min(nan), _NAN_CAUSE)
            i = next(i for i, w in enumerate(weights, start=1) if w < 0)
            raise ValueError(f"negative weight at rank {i}")
        if any(map(lt, weights, weights[1:])):
            i = next(i for i in range(1, len(weights)) if weights[i - 1] < weights[i])
            raise ValueError(f"weights increase at rank {i + 1}")
        # The first weight is the largest, so an overflowed total shows there.
        if weights and not _finite(weights[0]):
            raise NonFiniteWeight(min(label for label, w in zip(labels, weights) if not _finite(w)))
        # A NaN or overflowed ratio makes the sum not finite (max would skip
        # a NaN that is not first); only then are the ratios read one by one.
        if not _finite(sum(ratios)):
            if nan := [label for label, r in zip(labels, ratios) if r != r]:
                raise NonFiniteWeight(min(nan), _NAN_CAUSE)
            if inf := [label for label, r in zip(labels, ratios) if not _finite(r)]:
                raise NonFiniteWeight(min(inf))
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
    label ascending, and items sharing a label and weight in the order
    given: the one label sort on the way to a ranked table.

    The path depends on the input; both give the same list. The items are
    put into one bucket per weight in input order, in a single dict pass;
    if at most _BUCKET_SHARE of them carry distinct weights, only the
    distinct weights are sorted, descending, and each bucket is sorted
    stably by label. As soon as the buckets outnumber that share, the pass
    stops and two stable sorts keyed in C run instead: by label, then by
    weight reversed (a reversed stable sort keeps equal keys in their
    prior order). Equal weights share a bucket whatever their type
    (an int, a float, a Fraction; 0.0 and -0.0), just as the sort keeps
    them in label order. The tie-break makes table output
    byte-reproducible; it cannot affect the index value, which depends on
    the weight multiset alone.
    """
    if not isinstance(items, (list, tuple)):
        items = list(items)
    limit = _BUCKET_SHARE * len(items)
    buckets: defaultdict[float, list[Item]] = defaultdict(list)
    # each item appended to its weight's bucket in C, a block at a time; the
    # deque keeps nothing
    appends = map(list.append, map(buckets.__getitem__, map(_weight, items)), items)
    for _ in range(0, len(items), 4096):
        deque(islice(appends, 4096), maxlen=0)
        if len(buckets) > limit:
            ranked = sorted(items, key=_label)
            ranked.sort(key=_weight, reverse=True)
            return ranked
    ranked = []
    for weight in sorted(buckets, reverse=True):
        bucket = buckets[weight]
        bucket.sort(key=_label)
        ranked += bucket
    return ranked


def _ranked_columns(items: Iterable[Item]) -> tuple[tuple, tuple]:
    ranked = rank_items(items)
    return tuple(map(_label, ranked)), tuple(map(_weight, ranked))


def _first_crossing(ratios: Iterable[float], n: int) -> int:
    """The count of ratios before the first one below 1, or n when none of
    the n is; a lazy column is read no further than that ratio."""
    return next(compress(count(), map(lt, ratios, repeat(1.0))), n)


def h_type_index(items: Iterable[Item], kind: str = "x") -> IndexResult:
    labels, weights = _ranked_columns(items)
    ratios = tuple(map(truediv, weights, count(1)))
    return first_crossing_index(RankedTable(labels, weights, ratios), kind)


def _exact_h_value(totals: Mapping[str, int], scale: int) -> int:
    """h_type_index(items).value of the items (label, total / scale), from
    exact int totals over one scale, without the ranked table: the totals
    are sorted as ints, and only those down to the first ratio below 1 are
    rounded to floats and divided by their ranks, with the two roundings
    h_type_index makes. Totals that round beyond the float range raise
    NonFiniteWeight naming the smallest of their labels, the label
    h_type_index names for those items."""
    ints = sorted(totals.values(), reverse=True)
    limit = FLOAT_LIMIT * scale
    if ints and ints[0] >= limit:
        raise NonFiniteWeight(min(label for label, total in totals.items() if total >= limit))
    return _first_crossing(map(truediv, map(truediv, ints, repeat(scale)), count(1)), len(ints))


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
