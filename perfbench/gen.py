"""Seeded synthetic publication tables for the benchmark.

With integral citations the bytes equal those of the acceptance suite's
corpus generator for the same parameters and seed, so ``--seed 33`` at 50k
publications regenerates the corpus behind the ROADMAP baseline. The
decimal mode draws citations as whole cents and writes them with two
decimals. The rows are kept in memory so the output checks can recompute
every expected value without the library.

Run ``python3 perfbench/gen.py N SEED [--decimal] OUT`` to write one table.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    n_pubs: int
    kw_per_pub: int = 4
    n_keywords: int = 5_000
    n_categories: int = 150
    n_institutions: int = 500
    decimal: bool = False


@dataclass
class Row:
    """One generated publication. Citations are in hundredths, so integral
    and two-decimal corpora share exact integer arithmetic."""

    cents: int
    keywords: tuple[str, ...]
    categories: tuple[str, ...]
    institutions: tuple[str, ...]


class ShapeError(Exception):
    pass


def _distinct(labels: list[str]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(labels))


def generate(shape: Shape, seed: int) -> tuple[bytes, list[Row]]:
    """Return the CSV bytes and the rows they encode (labels deduplicated
    per row, as a publication counts each label once)."""
    rng = random.Random(seed)
    lines = ["id,citations,keywords,categories,institutions"]
    rows = []
    for i in range(shape.n_pubs):
        kws = [f"kw{rng.randint(0, shape.n_keywords - 1)}" for _ in range(shape.kw_per_pub)]
        cats = [f"cat{rng.randint(0, shape.n_categories - 1)}" for _ in range(rng.randint(1, 2))]
        insts = [
            f"inst{rng.randint(0, shape.n_institutions - 1)}" for _ in range(rng.randint(1, 3))
        ]
        if shape.decimal:
            cents = rng.randint(0, 10_000)
            text = f"{cents // 100}.{cents % 100:02d}"
        else:
            whole = rng.randint(0, 100)
            cents, text = whole * 100, str(whole)
        lines.append(f"p{i},{text},{';'.join(kws)},{';'.join(cats)},{';'.join(insts)}")
        rows.append(Row(cents, _distinct(kws), _distinct(cats), _distinct(insts)))
    return ("\n".join(lines) + "\n").encode("utf-8"), rows


def shape_counts(rows: list[Row]) -> dict[str, int]:
    keywords, pairs, categories, institutions = set(), set(), set(), set()
    for row in rows:
        keywords.update(row.keywords)
        categories.update(row.categories)
        institutions.update(row.institutions)
        pairs.update((kw, cat) for kw in row.keywords for cat in row.categories)
    return {
        "publications": len(rows),
        "keywords": len(keywords),
        "pairs": len(pairs),
        "categories": len(categories),
        "institutions": len(institutions),
    }


def check_shape(shape: Shape, counts: dict[str, int]) -> None:
    """Every vocabulary must be fully used, so each seed ranks the same
    number of keywords, categories and institutions."""
    expected = {
        "publications": shape.n_pubs,
        "keywords": shape.n_keywords,
        "categories": shape.n_categories,
        "institutions": shape.n_institutions,
    }
    for name, want in expected.items():
        if counts[name] != want:
            raise ShapeError(f"generated {counts[name]} {name}, expected {want}")


def main(argv: list[str]) -> int:
    args = [a for a in argv if a != "--decimal"]
    if len(args) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    n_pubs, seed, out = int(args[0]), int(args[1]), args[2]
    shape = Shape(n_pubs, decimal="--decimal" in argv)
    data, rows = generate(shape, seed)
    counts = shape_counts(rows)
    check_shape(shape, counts)
    with open(out, "wb") as fh:
        fh.write(data)
    print(counts)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
