"""Deterministic report rendering: json (default), csv, and aligned table.

Identical inputs and flags must produce byte-identical output, so key order
is fixed, numbers are canonicalised (integral floats print without ".0",
everything else as shortest round-trip repr), and rows follow table rank.
The json layout is described by schema/report.schema.json in the repo.

to_dict is the readable specification of the json report: to_json returns
exactly json.dumps(to_dict(), indent=2, ensure_ascii=False) plus a newline.
It lays that out by hand rather than through the pure-Python encoder that
indent=2 selects. Each table row is one fixed %-template that carries the
indent=2 whitespace, filled from the table's columns: labels through the C
string encoder json.encoder.encode_basestring, numbers through
int.__repr__ / float.__repr__ after canonical_json_value, as json.dumps
prints them. The envelope and config are laid out the same way, with
every scalar encoded by json's C encoder. The csv and table renderers also
read the columns, so no RankRow or per-row dict is built. Only to_json
imports json, so a csv or table run never loads it.
"""

from __future__ import annotations

import csv
import io
from itertools import count
from typing import Any

from .kernel import IndexResult
from .numfmt import canonical_json_value, format_number
from .value import Value

TABLE_COLUMNS = ("rank", "label", "weight", "ratio")

# One table row at json.dumps(indent=2) depth 2; %r on the canonical value
# is int.__repr__ or float.__repr__, which is what the json encoder prints.
_JSON_ROW = '    {\n      "rank": %d,\n      "label": %s,\n      "weight": %r,\n      "ratio": %r\n    }'


def _json_layout(value: Any, indent: str, scalar) -> str:
    """json.dumps(value, indent=2, ensure_ascii=False) for a value nested
    at the given indent, with every scalar encoded in C by scalar, a
    json.JSONEncoder(ensure_ascii=False).encode. Object keys must be
    strings, as in a config echo."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        members = ",\n".join(
            f"{inner}{scalar(key)}: {_json_layout(item, inner, scalar)}" for key, item in value.items()
        )
        return f"{{\n{members}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        members = ",\n".join(inner + _json_layout(item, inner, scalar) for item in value)
        return f"[\n{members}\n{indent}]"
    return scalar(value)


class Report(Value):
    """Everything one command run emits: result, provenance, warnings."""

    __slots__ = _fields = ("version", "command", "result", "config", "warnings")

    def __init__(
        self,
        version: str,
        command: str,
        result: IndexResult,
        config: dict[str, Any] | None = None,
        warnings: list[str] | None = None,
    ) -> None:
        self.version = version
        self.command = command
        self.result = result
        self.config = {} if config is None else config
        self.warnings = [] if warnings is None else warnings

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "command": self.command,
            "index": self.result.kind,
            "ratio_type": self.result.ratio_type,
            "value": self.result.value,
            "table": [
                {
                    "rank": row.rank,
                    "label": row.label,
                    "weight": canonical_json_value(row.weight),
                    "ratio": canonical_json_value(row.ratio),
                }
                for row in self.result.table.rows
            ],
            "config": self.config,
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        import json  # imported only by the runs that render json
        from json.encoder import encode_basestring

        scalar = json.JSONEncoder(ensure_ascii=False).encode
        table = self.result.table
        rows = ",\n".join(
            map(
                _JSON_ROW.__mod__,
                zip(
                    count(1),
                    map(encode_basestring, table.labels),
                    map(canonical_json_value, table.weights),
                    map(canonical_json_value, table.ratios),
                ),
            )
        )
        table_json = f"[\n{rows}\n  ]" if rows else "[]"
        return (
            "{\n"
            f'  "version": {scalar(self.version)},\n'
            f'  "command": {scalar(self.command)},\n'
            f'  "index": {scalar(self.result.kind)},\n'
            f'  "ratio_type": {scalar(self.result.ratio_type)},\n'
            f'  "value": {scalar(self.result.value)},\n'
            f'  "table": {table_json},\n'
            f'  "config": {_json_layout(self.config, "  ", scalar)},\n'
            f'  "warnings": {_json_layout(list(self.warnings), "  ", scalar)}\n'
            "}\n"
        )

    def _text_columns(self) -> tuple:
        table = self.result.table
        return (
            range(1, len(table) + 1),
            table.labels,
            map(format_number, table.weights),
            map(format_number, table.ratios),
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(zip(*self._text_columns()))
        return out.getvalue()

    def to_table(self) -> str:
        """Column-aligned listing; the final line is the bare index value so
        scripts can read it with tail -n1."""
        columns = [[name, *map(str, column)] for name, column in zip(TABLE_COLUMNS, self._text_columns())]
        # Every column but the last is padded to its widest cell; the last
        # is never padded, which drops the trailing blanks of a padded line.
        template = "  ".join(f"%-{max(map(len, column))}s" for column in columns[:-1]) + "  %s"
        lines = list(map(template.__mod__, zip(*columns)))
        header = f"{self.result.kind}-index ({self.result.ratio_type}-type)"
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join([header, *lines, str(self.result.value)]) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "table":
            return self.to_table()
        raise ValueError(f"unknown report format {fmt!r}")
