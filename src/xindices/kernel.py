"""Generic rank-ratio engine behind every index in the family.

Items are plain (label, weight) tuples in any order, read through
itemgetter. kernel_index takes a view, (items, scale) with each weight an
exact int total over scale, as Corpus.items gives them; h_type_index and
g_type_index take any real weights (ints, floats, Fractions) and put each
at its exact value over the lcm of their denominators (_scaled). xdfn and
weighted ivw score their categories as floats and rank them the same way,
so their scale is a power of two whatever the number of items. One rule,
_index_value, gives every h-type and g-type value from the exact totals in
descending order, comparing ints only, so a total equal to its bound
qualifies:

* h-type: the number of ranks r before the first total below r * scale;
* g-type: the largest rank r whose cumulative total reaches
  r**2 * scale, capped at the number of items (no fictitious zero-weight
  items are appended), or 0.

kernel_index applies it to the items it ranks, and the indices to the
inner values of xo and the nested indices, for which no table is built.
The table is what a report prints: each distinct total is rounded to a
float once (int / int division rounds correctly), rows are ranked by those
floats descending, ties by label ascending (byte order), and each ratio is
the correctly rounded exact quotient, the row's total over r * scale (h)
or the cumulative total of rows 1..r over r**2 * scale (g). Two distinct
totals can round to one float; the table orders them by label while the
value follows their exact order. So the ratios cross 1 where the value
does but within half an ulp of 1: one past the value can print as 1, and
where two totals that print alike straddle the value, label order can put
the one short of its rank at the value's rank.
first_crossing_index reads a table whose ratios its caller filled in (raw
ivw's t/(v*r), by a float variance): the count of ratios before the first
one below 1, whether or not later ratios climb back above it.

Citation totals tie heavily (the pair view of a 25k-publication table
holds 135k items but a few hundred distinct weights), so rank_items sorts
only the distinct weights and each weight's bucket by label when few
weights are distinct, and sorts all items twice otherwise.

Tables are held in column form: a RankedTable is built from parallel
labels, weights and ratios columns, ranks implicit as 1..n, its invariants
checked by C-level passes, so no RankRow is built on the way to a report;
the row view is built on each read of RankedTable.rows. A total that
rounds beyond the float range raises NonFiniteWeight naming the smallest
label whose total does, whatever the input order; a NaN weight names the
smallest label that carries one, and a RankedTable raises it the same way
for a NaN or overflowed weight or ratio. Like every frozen value of the
library, a RankedTable rejects assignment and del, and compares, hashes,
prints and pickles by its three columns.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from itertools import accumulate, compress, count, islice, repeat
from operator import ge, itemgetter, lt, mul, truediv
from typing import Iterable, NamedTuple, Sequence

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


def _first_crossing(values: Iterable, floors: Iterable, n: int) -> int:
    """The count of values before the first one below its floor, or n when
    none of the n is; lazy columns are read no further than that value."""
    return next(compress(count(), map(lt, values, floors)), n)


def _scaled(items: Iterable[Item]) -> tuple[list[Item], int]:
    """items with each weight at its exact value as an int over one scale,
    the lcm of the weights' denominators, and that scale. An infinite
    weight becomes the least total that rounds to it; a NaN one raises
    NonFiniteWeight naming the smallest label that carries one, and then a
    negative one (-inf too) RankedTable's ValueError, before any rounding."""
    items = list(items)
    if nan := [label for label, weight in items if weight != weight]:
        raise NonFiniteWeight(min(nan), _NAN_CAUSE)
    if any(weight < 0 for _, weight in items):
        raise ValueError(f"negative weight at rank {sum(weight >= 0 for _, weight in items) + 1}")
    ratios = [(FLOAT_LIMIT, 1) if weight == math.inf else weight.as_integer_ratio() for _, weight in items]
    scale = math.lcm(*{den for _, den in ratios})
    return [(label, num * (scale // den)) for (label, _), (num, den) in zip(items, ratios)], scale


def _index_value(totals: Sequence[int], scale: int, ratio_type: str, items: Iterable[Item]) -> int:
    """The value of ratio_type's rule over exact totals in descending
    order, each an int over scale. A total that rounds beyond the float
    range raises NonFiniteWeight naming the smallest label in items, the
    same (label, total) pairs, whose total does."""
    n, limit = len(totals), FLOAT_LIMIT * scale
    if n and totals[0] >= limit:
        raise NonFiniteWeight(min(label for label, total in items if total >= limit))
    floors = range(scale, (n + 1) * scale, scale)
    if ratio_type == "h":
        return _first_crossing(totals, floors, n)
    return max(compress(count(1), map(ge, accumulate(totals), map(mul, floors, count(1)))), default=0)


def kernel_index(view: tuple[Iterable[Item], int], ratio_type: str, kind: str) -> IndexResult:
    """The index of kind over a view, (items, scale) with each weight an
    int total over scale, by ratio_type's rule, with its table; IndexResult
    rejects another ratio_type."""
    items, scale = view
    ranked = rank_items(items)
    labels, totals = tuple(map(_label, ranked)), tuple(map(_weight, ranked))
    value = _index_value(totals, scale, ratio_type, ranked)
    distinct = set(totals)  # each rounded once, now that none rounds beyond the float range
    as_float = dict(zip(distinct, map(truediv, distinct, repeat(scale))))
    if len(set(as_float.values())) < len(as_float):  # distinct totals that print alike go in label order
        labels, _, totals = map(tuple, zip(*rank_items(zip(labels, map(as_float.__getitem__, totals), totals))))
    floors = range(scale, (len(totals) + 1) * scale, scale)
    if ratio_type == "h":
        ratios = map(truediv, totals, floors)
    else:
        ratios = map(truediv, accumulate(totals), map(mul, floors, count(1)))
    return IndexResult(kind, ratio_type, value, RankedTable(labels, map(as_float.__getitem__, totals), ratios))


def h_type_index(items: Iterable[Item], kind: str = "x") -> IndexResult:
    return kernel_index(_scaled(items), "h", kind)


def g_type_index(items: Iterable[Item], kind: str = "x") -> IndexResult:
    return kernel_index(_scaled(items), "g", kind)


def first_crossing_index(ranked: RankedTable, kind: str = "ivw") -> IndexResult:
    """Literal first-crossing rule over an already-ratioed table.

    The caller chooses the ranking basis and fills the ratio column; this
    only scans for the first rank where the ratio drops below 1.
    """
    return IndexResult(kind, "h", _first_crossing(ranked.ratios, repeat(1.0), len(ranked)), ranked)
