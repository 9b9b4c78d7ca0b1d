"""Deterministic report rendering: json (default), csv, and aligned table.

Identical inputs and flags must produce byte-identical output, so key order
is fixed, numbers are canonicalised (integral floats print without ".0",
everything else as shortest round-trip repr), and rows follow table rank.
The json content is described by schema/report.schema.json in the repo.

Report.write(fh, fmt) is the one implementation of each format: it formats
the ranked table in blocks of _BLOCK_ROWS rows and writes each block to
the open text stream as it goes, so a report is never held whole.
render(fmt) writes into a StringIO and returns its text. Number texts
come from numfmt.format_column, one block of a column at a time, and are
the same in all three formats. Citation totals tie heavily, so the
weights column, which never increases, is formatted once per run of
equal values: a block of plain floats has each run's first weight
formatted and its text repeated down the run (equal plain floats print
alike, 0.0 and -0.0 both as 0). A block holding anything else (ints,
Fractions, float subclasses) or no tie at all is formatted value by
value.

The json format is json.dumps of the report's data (version, command,
index, ratio_type, value, table, config, warnings) with indent=2 and
ensure_ascii=False, plus a newline, except that each table row takes one
line: four spaces, then json.dumps(row, ensure_ascii=False). So rows can
be grepped and diffed line by line, and each takes 30 bytes less than at
indent=2. The envelope is json.dumps of that data with an empty table,
split at its first '"table": []': json escapes every '"' inside a
string, so that match is the key. The rows go in between, each one
f-string of the row's texts: labels through the C string encoder
json.encoder.encode_basestring, and numbers from format_column, which
print integral values without ".0", as json.dumps prints the ints
numfmt.canonical_json_value gives. No RankRow or per-row dict is built.
Only the json format imports json, so a csv or table run never loads it.
"""

from __future__ import annotations

import csv
import io
from itertools import chain, compress, count, repeat
from operator import ne, sub
from typing import Any, Iterator, Sequence, TextIO

from . import __version__
from .kernel import IndexResult
from .numfmt import format_column
from .value import FrozenValue

TABLE_COLUMNS = ("rank", "label", "weight", "ratio")

# Rows are formatted and written this many at a time.
_BLOCK_ROWS = 4096


def _weight_texts(weights: Sequence[float]) -> list[str]:
    """format_column(weights) for a block of the never-increasing weights
    column, formatting a block of plain floats once per run of equal
    weights."""
    if {*map(type, weights)} != {float}:
        return format_column(weights)
    n = len(weights)
    # the index of each weight that differs from the one before it
    starts = list(compress(count(), map(ne, weights, chain((None,), weights))))
    if len(starts) == n:
        return format_column(weights)
    texts = format_column(list(map(weights.__getitem__, starts)))
    return list(chain.from_iterable(map(repeat, texts, map(sub, chain(starts[1:], (n,)), starts))))


class Report(FrozenValue):
    """Everything one command run emits: result, provenance, warnings. The
    report names the package's __version__, and the command "nested" for
    a nested result and "compute" for any other."""

    __slots__ = _fields = ("result", "config", "warnings")

    def __init__(
        self,
        result: IndexResult,
        config: dict[str, Any] | None = None,
        warnings: list[str] | None = None,
    ) -> None:
        self._set(result, {} if config is None else config, [] if warnings is None else warnings)

    def write(self, fh: TextIO, fmt: str) -> None:
        """Write the report in fmt ("json", "csv" or "table") to the text
        stream fh, the ranked table one block of rows at a time."""
        if fmt == "json":
            self._write_json(fh)
        elif fmt == "csv":
            self._write_csv(fh)
        elif fmt == "table":
            self._write_table(fh)
        else:
            raise ValueError(f"unknown report format {fmt!r}")

    def render(self, fmt: str) -> str:
        out = io.StringIO()
        self.write(out, fmt)
        return out.getvalue()

    def _row_blocks(self) -> Iterator[tuple]:
        """(rank texts, labels, weight texts, ratio texts) for each block of
        at most _BLOCK_ROWS table rows, in rank order."""
        table = self.result.table
        n = len(table)
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            yield (
                map(str, range(start + 1, stop + 1)),
                table.labels[start:stop],
                _weight_texts(table.weights[start:stop]),
                format_column(table.ratios[start:stop]),
            )

    def _write_json(self, fh: TextIO) -> None:
        import json  # imported only by the runs that render json
        from json.encoder import encode_basestring

        result = self.result
        data = {
            "version": __version__,
            "command": "nested" if result.kind == "nested" else "compute",
            "index": result.kind,
            "ratio_type": result.ratio_type,
            "value": result.value,
            "table": [],
            "config": self.config,
            "warnings": self.warnings,
        }
        head, tail = json.dumps(data, indent=2, ensure_ascii=False).split('"table": []', 1)
        fh.write(head + '"table": ')
        separator = "[\n"
        for ranks, labels, weights, ratios in self._row_blocks():
            fh.write(separator)
            # each row as the line "    " + json.dumps(row, ensure_ascii=False)
            # gives; an f-string builds it as fast as joining fixed pieces,
            # where a %-template takes a sixth longer
            rows = zip(ranks, map(encode_basestring, labels), weights, ratios)
            fh.write(
                ",\n".join(
                    [
                        f'    {{"rank": {rank}, "label": {label}, "weight": {weight}, "ratio": {ratio}}}'
                        for rank, label, weight, ratio in rows
                    ]
                )
            )
            separator = ",\n"
        fh.write(("\n  ]" if len(result.table) else "[]") + tail + "\n")

    def _write_csv(self, fh: TextIO) -> None:
        # csv.writer writes each row on its own; gathering a block first
        # keeps to one write per block on an unbuffered stream too.
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for block in self._row_blocks():
            writer.writerows(zip(*block))
            fh.write(out.getvalue())
            out.seek(0)
            out.truncate()
        fh.write(out.getvalue())

    def _write_table(self, fh: TextIO) -> None:
        """Column-aligned listing; the final line is the bare index value so
        scripts can read it with tail -n1. The widths are measured over the
        whole table first, formatting the weights once for that alone."""
        table = self.result.table
        starts = range(0, len(table), _BLOCK_ROWS)
        widths = (
            len(str(len(table))),
            max(map(len, table.labels), default=0),
            max((max(map(len, _weight_texts(table.weights[i : i + _BLOCK_ROWS]))) for i in starts), default=0),
        )
        # Every column but the last is padded to its widest cell, header
        # included; the last is never padded, which drops the trailing
        # blanks of a padded line.
        line = "".join(f"%-{max(width, len(name))}s  " for name, width in zip(TABLE_COLUMNS, widths)) + "%s\n"
        fh.write(f"{self.result.kind}-index ({self.result.ratio_type}-type)\n" + line % TABLE_COLUMNS)
        for block in self._row_blocks():
            fh.write("".join(map(line.__mod__, zip(*block))))
        fh.write("".join(f"warning: {warning}\n" for warning in self.warnings) + f"{self.result.value}\n")
