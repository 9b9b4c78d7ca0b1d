"""Delimited-table ingestion: column mapping, multi-value cells, label cleanup.

Input is UTF-8 CSV or TSV with a header row (RFC-4180 quoting); a leading
byte-order mark is dropped, and bytes that are not UTF-8 raise BadEncoding.
The field separator is autodetected from the header line, limited to comma
vs tab; a header containing both raises rather than guessing. Multi-value
cells (keywords, categories, institutions, group) are split on a
configurable cell delimiter and normalised, each distinct part once per
table; record label lists are also deduplicated. read_table can skip the
label cells of record fields its caller does not read. A row the csv
module cannot read, such as a field over csv.field_size_limit(), raises
MalformedRow.

Row numbers in errors are 1-based record numbers counting the header as
record 1, so the first data row is row 2.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from .corpus import PublicationRecord
from .errors import (
    AmbiguousSeparator,
    BadCitations,
    BadEncoding,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
)
from .numfmt import format_number

#: Number of publications per category below which sample variances are
#: considered unreliable for inverse-variance weighting.
SMALL_SAMPLE_THRESHOLD = 100

_WS_RUN = re.compile(r"\s+")

ROLES = ("id", "citations", "keywords", "categories", "institutions", "group")

#: The multi-value record fields, in PublicationRecord order.
LABEL_FIELDS = ("keywords", "categories", "institutions")


@dataclass(frozen=True)
class IngestConfig:
    """Column mapping and cell-splitting options for one input table.

    id and citations columns must be present in the file; the list-valued
    columns are filled with empty lists when their mapped header is absent,
    unless the role is named in required_columns (the CLI adds a role there
    whenever the user remapped it explicitly, so typos fail loudly).
    """

    id_column: str = "id"
    citations_column: str = "citations"
    keywords_column: str = "keywords"
    categories_column: str = "categories"
    institutions_column: str = "institutions"
    group_column: str | None = None
    cell_delimiter: str = ";"
    case_fold: bool = True
    trim: bool = True
    required_columns: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.cell_delimiter:
            raise InvalidConfig("cell delimiter must be non-empty")
        unknown = set(self.required_columns) - set(ROLES)
        if unknown:
            raise InvalidConfig(f"unknown column roles: {sorted(unknown)}")

    def column_for(self, role: str) -> str | None:
        return {
            "id": self.id_column,
            "citations": self.citations_column,
            "keywords": self.keywords_column,
            "categories": self.categories_column,
            "institutions": self.institutions_column,
            "group": self.group_column,
        }[role]


def normalize_label(raw: str, config: IngestConfig | None = None) -> str:
    """Collapse internal whitespace runs to single spaces, trim surrounding
    whitespace when trim is on, and lowercase when case folding is on.
    Idempotent; all-whitespace input becomes empty text (callers drop it)."""
    if config is None:
        config = IngestConfig()
    text = _WS_RUN.sub(" ", raw)
    if config.trim:
        text = text.strip()
    if config.case_fold:
        text = text.lower()
    return text


@dataclass
class TableData:
    """Everything parsed from one table, beyond the records themselves."""

    records: list[PublicationRecord]
    group_values: list[tuple[str, ...]]
    headers: list[str]
    unused_columns: list[str]
    separator: str


def _detect_separator(header_line: str) -> str:
    has_comma = "," in header_line
    has_tab = "\t" in header_line
    if has_comma and has_tab:
        raise AmbiguousSeparator()
    if has_tab:
        return "\t"
    return ","


class _LabelMemo(dict):
    """Raw cell part -> its normalize_label result. Each distinct part is
    normalised once per table, and records share the label str it maps to."""

    def __init__(self, config: IngestConfig):
        super().__init__()
        self.config = config

    def __missing__(self, raw: str) -> str:
        label = self[raw] = normalize_label(raw, self.config)
        return label


def read_utf8(stream: IO[bytes]) -> str:
    """The whole stream decoded as UTF-8, without a leading byte-order mark."""
    data = stream.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise BadEncoding(data.count(b"\n", 0, exc.start) + 1, data[exc.start]) from None


def _parse_citations(cell: str, row: int) -> float:
    text = cell.strip()
    # float() also reads Python literals such as "1_000", which no CSV writer means
    if "_" in text:
        raise BadCitations(row, cell)
    try:
        value = float(text)
    except ValueError:
        raise BadCitations(row, cell) from None
    if not value >= 0 or value == float("inf"):  # rejects negatives and NaN
        raise BadCitations(row, cell)
    return value


def read_table(
    stream: IO[bytes],
    config: IngestConfig | None = None,
    fields: Iterable[str] = LABEL_FIELDS,
) -> TableData:
    """Parse a delimited byte stream into records plus table metadata.

    Only the label cells of the record fields named in fields (a subset of
    LABEL_FIELDS) are split and normalised; records hold () for the others.
    Label cells never raise, so every check and error is the same whatever
    fields holds, and the group column is always read.
    """
    if config is None:
        config = IngestConfig()
    fields = frozenset(fields)
    if not fields <= set(LABEL_FIELDS):
        raise ValueError(f"unknown record fields: {sorted(fields - set(LABEL_FIELDS))}")
    text = read_utf8(stream)
    header_line = text.split("\n", 1)[0]
    separator = _detect_separator(header_line)
    if config.cell_delimiter == separator:
        raise InvalidConfig("cell delimiter equals the field separator")

    reader = csv.reader(io.StringIO(text, newline=""), delimiter=separator)
    try:
        headers = next(reader)
    except StopIteration:
        raise MalformedRow(1, "input has no header row") from None
    except csv.Error as exc:
        raise MalformedRow(1, str(exc)) from None

    index_of: dict[str, int] = {}
    for role in ROLES:
        column = config.column_for(role)
        if column is not None and column in headers:
            index_of[role] = headers.index(column)
        elif role in ("id", "citations") or role in config.required_columns:
            if column is None:
                raise MissingColumn(role)
            raise MissingColumn(column)
    mapped = {config.column_for(role) for role in index_of}
    unused = [h for h in headers if h not in mapped]

    label_of = _LabelMemo(config).__getitem__
    delimiter = config.cell_delimiter

    def labels(cell: str) -> tuple[str, ...]:
        """Normalised non-empty labels of a multi-value cell, in cell order."""
        return tuple(filter(None, map(label_of, cell.split(delimiter))))

    def distinct(cell: str) -> tuple[str, ...]:
        """labels() without repeats, first occurrence kept: a record field."""
        return tuple(dict.fromkeys(filter(None, map(label_of, cell.split(delimiter)))))

    width = len(headers)
    id_at = index_of["id"]
    citations_at = index_of["citations"]
    keywords_at, categories_at, institutions_at = (
        index_of.get(field) if field in fields else None for field in LABEL_FIELDS
    )
    group_at = index_of.get("group")
    # An institutions cell that is also the group column is split once.
    institutions_from_group = group_at is not None and group_at == institutions_at
    if institutions_from_group:
        institutions_at = None
    new_record = PublicationRecord._from_normalised
    records: list[PublicationRecord] = []
    group_values: list[tuple[str, ...]] = []
    empty: tuple[str, ...] = ()
    keywords = categories = institutions = group = empty
    row_no = 1
    try:
        for row_no, cells in enumerate(reader, start=2):
            if not cells:
                continue  # blank line
            if len(cells) != width:
                raise MalformedRow(row_no)
            rec_id = cells[id_at].strip()
            if not rec_id:
                raise MalformedRow(row_no, "empty id")
            citations = _parse_citations(cells[citations_at], row_no)
            if keywords_at is not None:
                keywords = distinct(cells[keywords_at])
            if categories_at is not None:
                categories = distinct(cells[categories_at])
            if institutions_at is not None:
                institutions = distinct(cells[institutions_at])
            if group_at is not None:
                group = labels(cells[group_at])
                if institutions_from_group:
                    institutions = tuple(dict.fromkeys(group))
            records.append(new_record(rec_id, citations, keywords, categories, institutions))
            group_values.append(group)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedRow(row_no + 1, str(exc)) from None
    return TableData(records, group_values, headers, unused, separator)


def parse_table(stream: IO[bytes], config: IngestConfig | None = None) -> list[PublicationRecord]:
    """Parse a delimited byte stream into publication records, in file order."""
    return read_table(stream, config).records


def records_to_csv(records: Iterable[PublicationRecord]) -> str:
    """Serialise records back to canonical CSV (comma-separated, ";" joined
    multi-value cells). Re-parsing the output with defaults yields equal
    records, provided the labels were already normalised."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "citations", "keywords", "categories", "institutions"])
    for rec in records:
        writer.writerow(
            [
                rec.id,
                format_number(rec.citations),
                ";".join(rec.keywords),
                ";".join(rec.categories),
                ";".join(rec.institutions),
            ]
        )
    return out.getvalue()


@dataclass
class ValidationReport:
    """Outcome of validate_records.

    duplicate_ids are hard errors; the record-level lists are warnings; the
    small-sample category flags are advisory notes for the inverse-variance
    variant, kept separate so a clean small corpus still validates with an
    empty warning list.
    """

    n_records: int = 0
    duplicate_ids: list[str] = field(default_factory=list)
    no_keyword_ids: list[str] = field(default_factory=list)
    no_category_ids: list[str] = field(default_factory=list)
    zero_citation_ids: list[str] = field(default_factory=list)
    category_counts: dict[str, int] = field(default_factory=dict)
    small_sample_categories: list[str] = field(default_factory=list)

    @property
    def errors(self) -> list[str]:
        return [f"duplicate id: {dup}" for dup in self.duplicate_ids]

    @property
    def warnings(self) -> list[str]:
        out = []
        for rec_id in self.no_keyword_ids:
            out.append(f"record {rec_id} has no keywords")
        for rec_id in self.no_category_ids:
            out.append(f"record {rec_id} has no categories")
        for rec_id in self.zero_citation_ids:
            out.append(f"record {rec_id} has zero citations")
        return out

    @property
    def notes(self) -> list[str]:
        return [
            f"category {cat} has {self.category_counts[cat]} publications "
            f"(fewer than {SMALL_SAMPLE_THRESHOLD}): internally estimated variances "
            "are unreliable for the inverse-variance-weighted index"
            for cat in self.small_sample_categories
        ]


def validate_records(records: Sequence[PublicationRecord]) -> ValidationReport:
    """Report-only sanity pass over parsed records; never raises."""
    report = ValidationReport(n_records=len(records))
    seen: set[str] = set()
    flagged: set[str] = set()
    counts: dict[str, int] = {}
    for rec in records:
        if rec.id in seen and rec.id not in flagged:
            report.duplicate_ids.append(rec.id)
            flagged.add(rec.id)
        seen.add(rec.id)
        if not rec.keywords:
            report.no_keyword_ids.append(rec.id)
        if not rec.categories:
            report.no_category_ids.append(rec.id)
        if rec.citations == 0:
            report.zero_citation_ids.append(rec.id)
        for cat in rec.categories:
            counts[cat] = counts.get(cat, 0) + 1
    report.category_counts = {cat: counts[cat] for cat in sorted(counts)}
    report.small_sample_categories = [
        cat for cat in report.category_counts if counts[cat] < SMALL_SAMPLE_THRESHOLD
    ]
    return report
