"""Brute-force re-implementations of the rank-threshold rules, the
two-sort ranking by its definition, a row-wise reference reader for ingest, record-wise reference corpus views and
validation, the one-Corpus-per-group reference for group-level values,
and the json report as Python data (report_dict) and as text from
json.dumps pieces (report_json).

Deliberately naive (O(n^2), no shared code with the kernel) so the test
suite can cross-check the fast implementations against an independent
reading of the definitions.
The group-level reference is the exception: it ranks through the kernel,
so it checks the one-pass grouping of group_index, not the ranking.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import count
from typing import Any, Sequence

from xindices import (
    Corpus,
    IndexResult,
    IngestConfig,
    __version__,
    build_corpus,
    normalize_label,
)
from xindices.errors import (
    AmbiguousSeparator,
    BadCitations,
    BadEncoding,
    DuplicateId,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    MissingGroupLabel,
    NegativeCitations,
    NonFiniteCitations,
)
from xindices.ingest import (
    ROLES,
    SMALL_SAMPLE_THRESHOLD,
    TableData,
    ValidationReport,
)
from xindices.kernel import kernel_index
from xindices.numfmt import canonical_json_value
from xindices.report import Report

from conftest import Record, columns_of, exact_column


def _parse_citations(cell: str, row: int) -> Fraction:
    """The citation count in a cell: the stripped text, without "_" (which
    float() reads in Python literals such as "1_000"), that float() reads
    as a number with 0 <= value < inf, read exactly as a decimal rounded
    half-even to 340 places; anything else raises BadCitations."""
    text = cell.strip()
    if "_" in text:
        raise BadCitations(row, cell)
    try:
        value = float(text)
    except ValueError:
        raise BadCitations(row, cell) from None
    if not 0 <= value < math.inf:  # NaN fails every comparison
        raise BadCitations(row, cell)
    return round(Fraction(Decimal(text)), 340)


def rounded(total: Fraction) -> float:
    """The float an exact total rounds to, or inf beyond the float range."""
    try:
        return float(total)
    except OverflowError:
        return math.inf


def naive_h_oracle(weights: Sequence[float]) -> int:
    """Largest r such that at least r weights are >= r."""
    n = len(weights)
    for r in range(n, 0, -1):
        if sum(1 for w in weights if w >= r) >= r:
            return r
    return 0


def naive_g_oracle(weights: Sequence[float]) -> int:
    """Largest r <= n such that the r largest weights, summed exactly, reach
    r**2."""
    ordered = sorted(weights, reverse=True)
    n = len(ordered)
    for r in range(n, 0, -1):
        if sum(map(Fraction, ordered[:r])) >= r * r:
            return r
    return 0


def two_sort_rank(items) -> list:
    """Items by weight descending, ties by label ascending, and equal items
    in the order given: two stable sorts, by label, then by weight
    reversed (a reversed stable sort keeps equal keys in their order)."""
    ranked = sorted(items, key=lambda item: item[0])
    ranked.sort(key=lambda item: item[1], reverse=True)
    return ranked


def naive_xo_oracle(records, ratio_type: str = "h") -> int:
    """x_o by rescanning the records once per (category, keyword): each
    category's inner value is the h-oracle over its keywords' in-category
    citation sums; the outer rule runs over those inner values."""
    categories = {cat for rec in records for cat in rec.categories}
    inner = []
    for cat in categories:
        tagged = [rec for rec in records if cat in rec.categories]
        keywords = {kw for rec in tagged for kw in rec.keywords}
        sums = [sum(rec.citations for rec in tagged if kw in rec.keywords) for kw in keywords]
        inner.append(naive_h_oracle(sums))
    return naive_h_oracle(inner) if ratio_type == "h" else naive_g_oracle(inner)


def reference_read_table(data: bytes, config: IngestConfig | None = None) -> TableData:
    """read_table one cell part and one record at a time: every part goes
    through normalize_label, and each record's label and group tuples drop
    empty and repeated labels here."""
    if config is None:
        config = IngestConfig()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec drops a leading BOM before it decodes, so exc.start counts from there
        bad = exc.start + 3 * data.startswith(b"\xef\xbb\xbf")
        raise BadEncoding(len(re.split(rb"\r\n|\r|\n", data[:bad])), data[bad]) from None
    header = re.split("[\r\n]", text, maxsplit=1)[0]
    if "," in header and "\t" in header:
        raise AmbiguousSeparator()
    separator = "\t" if "\t" in header else ","
    if config.cell_delimiter == separator:
        raise InvalidConfig("cell delimiter equals the field separator")
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=separator)

    def next_row(row_no):
        # a row the csv module cannot read (a field over csv.field_size_limit())
        try:
            return next(reader)
        except csv.Error as exc:
            raise MalformedRow(row_no, str(exc)) from None

    try:
        headers = next_row(1)
    except StopIteration:
        raise MalformedRow(1, "input has no header row") from None
    index_of = {}
    for role in ROLES:
        column = config.column_for(role)
        if column is not None and column in headers:
            index_of[role] = headers.index(column)
        elif role in ("id", "citations") or role in config.required_columns:
            raise MissingColumn(role if column is None else column)
    mapped = {config.column_for(role) for role in index_of}

    def cell_labels(cells, role):
        if role not in index_of:
            return ()
        parts = cells[index_of[role]].split(config.cell_delimiter)
        return tuple(label for label in (normalize_label(p, config) for p in parts) if label)

    def distinct(labels):
        kept = []
        for label in labels:
            if label not in kept:
                kept.append(label)
        return tuple(kept)

    records, group_values = [], []
    for row_no in count(2):
        try:
            cells = next_row(row_no)
        except StopIteration:
            break
        if not cells:
            continue
        if len(cells) != len(headers):
            raise MalformedRow(row_no)
        rec_id = cells[index_of["id"]].strip()
        if not rec_id:
            raise MalformedRow(row_no, "empty id")
        citations = _parse_citations(cells[index_of["citations"]], row_no)
        records.append(
            Record(
                id=rec_id,
                citations=citations,
                keywords=distinct(cell_labels(cells, "keywords")),
                categories=distinct(cell_labels(cells, "categories")),
                institutions=distinct(cell_labels(cells, "institutions")),
            )
        )
        group_values.append(distinct(cell_labels(cells, "group")))
    unused = [h for h in headers if h not in mapped]
    absent = tuple(
        role
        for role in ("keywords", "categories", "institutions")
        if role not in index_of and config.column_for(role) is not None
    )
    columns = columns_of(records)
    return TableData(columns._replace(citations=exact_column(columns.citations)), group_values, unused, absent)


def reference_views(records) -> dict:
    """Every Corpus view, and its citation check, read one record attribute
    at a time in exact Fraction arithmetic: the record-wise builders the
    column-form views replaced, each item view as (label, exact total)
    pairs in label order. Returns the error type and id the first invalid
    record raises instead, if there is one."""
    seen = set()
    for rec in records:
        if rec.id in seen:
            return DuplicateId, rec.id
        seen.add(rec.id)
        if rec.citations < 0:
            return NegativeCitations, rec.id
        if not rec.citations < math.inf or rounded(Fraction(rec.citations)) == math.inf:  # NaN included
            return NonFiniteCitations, rec.id

    def totals(field, fractional=False):
        sums = {}
        for rec in records:
            cits = Fraction(rec.citations) / ((len(rec.institutions) or 1) if fractional else 1)
            for label in getattr(rec, field):
                sums[label] = sums.get(label, 0) + cits
        return tuple(sorted(sums.items()))

    samples = {}
    for rec in records:
        for cat in rec.categories:
            samples.setdefault(cat, []).append(Fraction(rec.citations))
    by_category = reference_totals_by_group(records, "keywords", [rec.categories for rec in records])
    pairs = [(f"{kw}@{cat}", total) for cat, in_cat in by_category.items() for kw, total in in_cat.items()]
    return {
        "keywords": totals("keywords"),
        "pairs": tuple(sorted(pairs, key=lambda item: item[0])),
        "categories": totals("categories"),
        "categories_fractional": totals("categories", fractional=True),
        "keywords_by_category": by_category,
        "sums": {
            cat: (len(values), sum(values), sum(value * value for value in values))
            for cat, values in sorted(samples.items())
        },
    }


def reference_totals_by_group(records, field: str, groups) -> dict:
    """Per group, each label of the record field with its exact Fraction
    citation total over the group's records, summed one record at a time:
    the reference for Corpus.totals_by_group. groups is parallel to
    records; a record counts once in each of its distinct groups, and in
    none when it has none. A group is kept even if its records carry no
    label."""
    by_group: dict[str, dict[str, Fraction]] = {}
    for rec, labels in zip(records, groups):
        for group in dict.fromkeys(labels):
            in_group = by_group.setdefault(group, {})
            for label in getattr(rec, field):
                in_group[label] = in_group.get(label, 0) + Fraction(rec.citations)
    return by_group


def reference_validate(records: Sequence[Record]) -> tuple[ValidationReport, list[str]]:
    """validate_records one record at a time: the record loop that the
    whole-column passes replaced. Returns the report and, beside it, the
    categories under SMALL_SAMPLE_THRESHOLD publications, counted here."""
    duplicate_ids, no_keyword_ids, no_category_ids, zero_citation_ids = [], [], [], []
    seen: set[str] = set()
    flagged: set[str] = set()
    counts: dict[str, int] = {}
    for rec in records:
        if rec.id in seen and rec.id not in flagged:
            duplicate_ids.append(rec.id)
            flagged.add(rec.id)
        seen.add(rec.id)
        if not rec.keywords:
            no_keyword_ids.append(rec.id)
        if not rec.categories:
            no_category_ids.append(rec.id)
        if rec.citations == 0:
            zero_citation_ids.append(rec.id)
        for cat in rec.categories:
            counts[cat] = counts.get(cat, 0) + 1
    category_counts = {cat: counts[cat] for cat in sorted(counts)}
    report = ValidationReport(
        len(records), duplicate_ids, no_keyword_ids, no_category_ids, zero_citation_ids, category_counts
    )
    return report, [cat for cat in category_counts if counts[cat] < SMALL_SAMPLE_THRESHOLD]


def partition_by_group(
    records: Sequence[Record],
    group_values: Sequence[Sequence[str]],
    strict: bool = False,
) -> dict[str, Corpus]:
    """One Corpus per group label, in label order: the reference for
    group_index. group_values is parallel to records; a record
    counts once in each of its distinct non-empty group labels. A record
    with none raises MissingGroupLabel in strict mode and falls into
    "(ungrouped)" otherwise."""
    if len(records) != len(group_values):
        raise ValueError("records and group values differ in length")
    buckets: dict[str, list[Record]] = {}
    for rec, labels in zip(records, group_values):
        labels = tuple(dict.fromkeys(filter(None, labels)))
        if not labels:
            if strict:
                raise MissingGroupLabel(rec.id)
            labels = ("(ungrouped)",)
        for label in labels:
            buckets.setdefault(label, []).append(rec)
    return {label: build_corpus(columns_of(buckets[label])) for label in sorted(buckets)}


def nested_index(groups: dict[str, Corpus], inner: str = "x", ratio_type: str = "h") -> IndexResult:
    """The group-level index over one Corpus per group: the outer kernel
    over each group's inner h-type x or xd value, the reference for
    group_index."""
    views = {"x": "keywords", "xd": "categories"}
    if inner not in views:
        raise ValueError(f"unknown inner index {inner!r}")
    scored = [(label, kernel_index(groups[label].items(views[inner]), "h", "x").value) for label in sorted(groups)]
    return kernel_index((scored, 1), ratio_type, "nested")


def report_dict(report: Report) -> dict[str, Any]:
    """The json report as Python data, the readable specification of its
    content: json.loads(report.render("json")) gives this data, and
    report_json lays it out."""
    result = report.result
    return {
        "version": __version__,
        "command": "nested" if result.kind == "nested" else "compute",
        "index": result.kind,
        "ratio_type": result.ratio_type,
        "value": result.value,
        "table": [
            {
                "rank": row.rank,
                "label": row.label,
                "weight": canonical_json_value(row.weight),
                "ratio": canonical_json_value(row.ratio),
            }
            for row in result.table.rows
        ],
        "config": report.config,
        "warnings": list(report.warnings),
    }


def json_row_line(row: dict[str, Any]) -> str:
    """One table row of report_dict as the json report's line for it: four
    spaces, then json.dumps of the row, without the comma between rows."""
    return "    " + json.dumps(row, ensure_ascii=False)


def report_json(report: Report) -> str:
    """The json report text from json.dumps pieces alone: report_dict at
    indent=2 with an empty table, whose "table": [] then takes one
    json_row_line per row, and a newline. Every " inside a json string is
    escaped, so the first "table": [] is the report's own key; a config
    key "table" comes later."""
    data = report_dict(report)
    text = json.dumps({**data, "table": []}, indent=2, ensure_ascii=False)
    if data["table"]:
        rows = ",\n".join(map(json_row_line, data["table"]))
        text = text.replace('"table": []', f'"table": [\n{rows}\n  ]', 1)
    return text + "\n"
