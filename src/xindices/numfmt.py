"""Canonical, locale-independent number rendering for all emitted files.

Integral values print without a decimal point; everything else uses Python's
shortest round-trip repr (at most 17 significant digits, trailing zeros
already trimmed, "." as the decimal separator regardless of locale).
format_number is the rule for one value; format_column applies it to a
column block, and is what every report format prints numbers with. For
each value, format_number(value) == repr(canonical_json_value(value)), so
json, csv and table reports carry the same number texts.
"""

from __future__ import annotations

from itertools import repeat
from math import isfinite
from typing import Sequence


def format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def canonical_json_value(value: float) -> float | int:
    """Collapse integral floats to ints so JSON output carries no ".0"."""
    if value == int(value) and abs(value) < 1e16:
        return int(value)
    return float(value)


def format_column(values: Sequence[float]) -> list[str]:
    """[format_number(v) for v in values], faster for the common block.

    For a block of finite plain floats the text is float.__repr__ with a
    trailing ".0" removed. Below 1e16 repr prints positional digits, which
    for an integral float are its exact digits followed by ".0", the only
    reprs that end so; from 1e16 on format_number prints repr itself. -0.0,
    whose repr is "-0.0", prints as 0. Any other block (ints, Fractions,
    float subclasses, NaN, infinities) goes through format_number value by
    value, so it raises as format_number does.
    """
    # A finite sum means every value is finite; a sum that overflows only
    # sends the block down the slow path.
    if {*map(type, values)} == {float} and isfinite(sum(values)):
        texts = list(map(str.removesuffix, map(float.__repr__, values), repeat(".0")))
        if "-0" in texts:
            texts = ["0" if text == "-0" else text for text in texts]
        return texts
    return list(map(format_number, values))
