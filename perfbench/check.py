"""Output checks that never import the library.

Every expected value is recomputed from the generated rows with exact
integer arithmetic: citations are held in hundredths (``Row.cents``), so a
weight ``w`` in a report stands for ``w * 100`` cents and the h-type rule
``w / r >= 1`` becomes ``cents >= 100 * r``. Each check returns a list of
mismatch messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Iterable

from gen import Row


def _add(totals: dict, key, cents: int) -> None:
    totals[key] = totals.get(key, 0) + cents


def pair_totals(rows: Iterable[Row]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for row in rows:
        for cat in row.categories:
            for kw in row.keywords:
                _add(totals, f"{kw}@{cat}", row.cents)
    return totals


def category_totals(rows: Iterable[Row]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for row in rows:
        for cat in row.categories:
            _add(totals, cat, row.cents)
    return totals


def h_cents(totals: Iterable[int]) -> int:
    """h-type value of weights given in cents."""
    value = 0
    for r, cents in enumerate(sorted(totals, reverse=True), start=1):
        if cents >= 100 * r:
            value = r
    return value


def h_whole(weights: Iterable[int]) -> int:
    """h-type value of whole-number weights (inner index values)."""
    return h_cents(100 * w for w in weights)


def grouped_inner_x(rows: Iterable[Row], field: str) -> dict[str, int]:
    """Inner h-type x-index per label of ``field`` (categories for xo,
    institutions for nested x)."""
    per_group: dict[str, dict[str, int]] = {}
    for row in rows:
        for group in getattr(row, field):
            totals = per_group.setdefault(group, {})
            for kw in row.keywords:
                _add(totals, kw, row.cents)
    return {group: h_cents(totals.values()) for group, totals in per_group.items()}


def _exact(weight):
    """A printed weight as an exact number; whole numbers stay ints."""
    return Fraction(str(weight)) if isinstance(weight, float) else weight


def check_table(rows: list[tuple[str, object]], expected: dict[str, int], cents: bool) -> list[str]:
    """Ranked (label, weight) rows: one per distinct item, every weight equal
    to its expected total (exact for whole numbers, to the printed digits
    otherwise), in weight-descending, label-ascending order."""
    problems = []
    labels = [label for label, _ in rows]
    if len(labels) != len(set(labels)):
        problems.append("duplicate labels in ranked table")
    if set(labels) != set(expected):
        problems.append(f"table has {len(set(labels))} distinct labels, expected {len(expected)}")
        return problems
    scale = 100 if cents else 1
    keys = [(-_exact(weight), label) for label, weight in rows]
    bad = 0
    for neg_weight, label in keys:
        got, want = -neg_weight * scale, expected[label]
        if got != want and abs(got - want) > want * Fraction(1, 10**12):
            bad += 1
    if bad:
        problems.append(f"{bad} rows carry a wrong weight")
    if keys != sorted(keys):
        problems.append("rows are not ranked by weight descending, label ascending")
    return problems


def check_json_report(data: bytes, validator, index: str, value: int, expected: dict[str, int], cents: bool) -> list[str]:
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = [f"schema: {err.message}" for err in validator.iter_errors(doc)][:5]
    if problems:
        return problems
    if doc["index"] != index:
        problems.append(f"index {doc['index']!r}, expected {index!r}")
    if doc["value"] != value:
        problems.append(f"{index} value {doc['value']}, expected {value}")
    if [row["rank"] for row in doc["table"]] != list(range(1, len(doc["table"]) + 1)):
        problems.append("ranks are not 1..n")
    problems += check_table([(row["label"], row["weight"]) for row in doc["table"]], expected, cents)
    return problems


def check_csv_report(data: bytes, expected: dict[str, int], value: int) -> list[str]:
    """CSV reports carry no value line, so the ratio column must cross below
    1 exactly at rank ``value + 1`` (first-crossing rule)."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    if next(reader, None) != ["rank", "label", "weight", "ratio"]:
        return ["csv report header is wrong"]
    body = list(reader)
    problems = check_table([(label, float(weight)) for _, label, weight, _ in body], expected, True)
    ratios = [float(ratio) for *_, ratio in body]
    crossing = next((r for r, ratio in enumerate(ratios) if ratio < 1.0), len(ratios))
    if crossing != value:
        problems.append(f"ratio column crosses 1 after rank {crossing}, expected {value}")
    return problems


def check_table_report(data: bytes, index: str, expected: dict[str, int], value: int) -> list[str]:
    lines = data.decode("utf-8").rstrip("\n").split("\n")
    problems = []
    if lines[0] != f"{index}-index (h-type)":
        problems.append(f"table header {lines[0]!r}")
    if lines[-1] != str(value):
        problems.append(f"{index} value {lines[-1]}, expected {value}")
    body = [line.split() for line in lines[2:-1] if not line.startswith("warning: ")]
    problems += check_table([(cells[1], int(cells[2])) for cells in body], expected, False)
    return problems


def read_stats(data: bytes) -> dict[str, tuple[float, float, int]]:
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    if next(reader, None) != ["category", "mean", "variance", "n"]:
        raise ValueError("stats header is wrong")
    return {cat: (float(mean), float(var), int(n)) for cat, mean, var, n in reader}


def check_stats(data: bytes, rows: list[Row]) -> list[str]:
    """n must be exact; mean and sample variance match to 1e-9 relative."""
    try:
        stats = read_stats(data)
    except ValueError as exc:
        return [f"stats file: {exc}"]
    samples: dict[str, list[int]] = {}
    for row in rows:
        for cat in row.categories:
            samples.setdefault(cat, []).append(row.cents)
    problems = []
    if set(stats) != set(samples):
        return [f"stats has {len(stats)} categories, expected {len(samples)}"]
    tolerance = Fraction(1, 10**9)
    for cat, values in samples.items():
        mean, variance, n = stats[cat]
        k = len(values)
        want_mean = Fraction(sum(values), 100 * k)
        want_var = Fraction(k * sum(v * v for v in values) - sum(values) ** 2, 100**2 * k * (k - 1))
        if n != k:
            problems.append(f"category {cat}: n {n}, expected {k}")
        if abs(Fraction(mean) - want_mean) > tolerance * want_mean:
            problems.append(f"category {cat}: mean {mean}, expected {float(want_mean)}")
        if abs(Fraction(variance) - want_var) > tolerance * want_var:
            problems.append(f"category {cat}: variance {variance}, expected {float(want_var)}")
    return problems


def ivw_value(rows: list[Row], stats: dict[str, tuple[float, float, int]], floor: float) -> int:
    """Literal ivw rule: categories by raw total descending (label
    ascending on ties), value = first rank with t / (v * r) < 1, minus 1."""
    totals = category_totals(rows)
    ranked = sorted(totals, key=lambda cat: (-totals[cat], cat))
    for r, cat in enumerate(ranked, start=1):
        variance = Fraction(max(stats[cat][1], floor))
        if totals[cat] < 100 * variance * r:
            return r - 1
    return len(ranked)
