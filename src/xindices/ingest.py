"""Delimited-table ingestion: column mapping, multi-value cells, label cleanup.

Input is UTF-8 CSV or TSV with a header row (RFC-4180 quoting); a leading
byte-order mark is dropped, and bytes that are not UTF-8 raise BadEncoding.
The field separator is autodetected from the header line, limited to comma
vs tab; a header containing both raises rather than guessing. Multi-value
cells (keywords, categories, institutions, group) are split on a
configurable cell delimiter and normalised, each distinct part once per
table; each publication's label tuples are also deduplicated. read_table
returns the publications in column form, the one form the library takes
them in, and can skip the label cells of fields its caller does not read;
it notes the label fields whose mapped column the header lacks. A row the
csv module cannot read (a field over csv.field_size_limit()) or a header
repeating a mapped column name raises MalformedRow. validate_records
reads the columns in whole-column passes.

Row numbers in errors are 1-based record numbers counting the header as
record 1, so the first data row is row 2.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from itertools import chain, compress, islice, repeat
from operator import eq, itemgetter, not_
from typing import IO, Iterable, NamedTuple, Sequence

from .corpus import PublicationColumns, _dedupe_each
from .errors import (
    AmbiguousSeparator,
    BadCitations,
    BadEncoding,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
)
from .value import FrozenValue

#: Number of publications per category below which sample variances are
#: considered unreliable for inverse-variance weighting.
SMALL_SAMPLE_THRESHOLD = 100

_WS_RUN = re.compile(r"\s+")

#: Rows read_table checks and splits per pass.
_BLOCK_ROWS = 4096

ROLES = ("id", "citations", "keywords", "categories", "institutions", "group")

#: The label fields, in PublicationColumns order.
LABEL_FIELDS = ("keywords", "categories", "institutions")


class IngestConfig(FrozenValue):
    """Column mapping and cell-splitting options for one input table.

    id and citations columns must be present in the file; the list-valued
    columns are filled with empty lists when their mapped header is absent,
    unless the role is named in required_columns (the CLI adds a role there
    whenever the user remapped it explicitly, so typos fail loudly). The id
    and citations columns must differ from each other and from the label
    columns; the group column may name any column.
    """

    __slots__ = _fields = (
        "id_column",
        "citations_column",
        "keywords_column",
        "categories_column",
        "institutions_column",
        "group_column",
        "cell_delimiter",
        "case_fold",
        "trim",
        "required_columns",
    )

    def __init__(
        self,
        id_column: str = "id",
        citations_column: str = "citations",
        keywords_column: str = "keywords",
        categories_column: str = "categories",
        institutions_column: str = "institutions",
        group_column: str | None = None,
        cell_delimiter: str = ";",
        case_fold: bool = True,
        trim: bool = True,
        required_columns: frozenset[str] = frozenset(),
    ) -> None:
        if not cell_delimiter:
            raise InvalidConfig("cell delimiter must be non-empty")
        unknown = set(required_columns) - set(ROLES)
        if unknown:
            raise InvalidConfig(f"unknown column roles: {sorted(unknown)}")
        columns = (id_column, citations_column, keywords_column, categories_column, institutions_column)
        column_of = dict(zip(ROLES, columns))
        for role in ("id", "citations"):
            column = column_of.pop(role)
            clash = [other for other, mapped in column_of.items() if mapped == column]
            if clash:
                raise InvalidConfig(f"column {column!r} is mapped to both {role} and {clash[0]}")
        self._set(*columns, group_column, cell_delimiter, case_fold, trim, required_columns)

    def column_for(self, role: str) -> str | None:
        return getattr(self, f"{role}_column")


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


class TableData(FrozenValue):
    """Everything parsed from one table: the publications in column form,
    each publication's group labels, the header names no role is mapped
    to, and the label fields (of LABEL_FIELDS, in that order) whose mapped
    column the header lacks, read as () for every publication."""

    __slots__ = _fields = ("columns", "group_values", "unused_columns", "absent_fields")

    def __init__(
        self,
        columns: PublicationColumns,
        group_values: list[tuple[str, ...]],
        unused_columns: list[str],
        absent_fields: tuple[str, ...] = (),
    ) -> None:
        self._set(columns, group_values, unused_columns, absent_fields)

    @property
    def records(self) -> list[tuple]:
        """One plain tuple per publication, its fields in column order,
        built anew on each read. It exists only for perfbench/spans.py,
        which counts a traced table's publications with it."""
        return list(zip(*self.columns))


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


class _Layout(NamedTuple):
    """Where the checked cells of a table's rows are."""

    width: int
    id_at: int
    citations_at: int


def _check_rows(rows: list[list[str]], first_row: int, layout: _Layout) -> None:
    """Raise the error of the first bad row in file order (a wrong width,
    then an empty id, then a bad citation count), or return if none is.
    rows[0] is row number first_row."""
    for row_no, cells in enumerate(rows, start=first_row):
        if not cells:
            continue  # blank line
        if len(cells) != layout.width:
            raise MalformedRow(row_no)
        if not cells[layout.id_at].strip():
            raise MalformedRow(row_no, "empty id")
        if _citations_column([cells[layout.citations_at]]) is None:
            raise BadCitations(row_no, cells[layout.citations_at])


def _citations_column(cells: Sequence[str]) -> list[float] | None:
    """The citation counts, or None when a cell may not parse (checked
    in C-level passes; None can be a false alarm, such as a float sum
    overflowing)."""
    # float() also reads Python literals such as "1_000", which no CSV writer means
    if "_" in "".join(cells):
        return None
    try:
        values = list(map(float, map(str.strip, cells)))
    except ValueError:
        return None
    # a finite sum rules out NaN and infinities
    if values and not (min(values) >= 0 and math.isfinite(sum(values))):
        return None
    return values


def _checked_columns(
    block: list[list[str]], first_row: int, layout: _Layout
) -> tuple[list[list[str]], list[str], list[float]]:
    """The block's rows without blank lines, their ids and their citation
    counts, checked in C-level passes; when a pass fails, the block is
    walked row by row so the first bad row raises."""
    widths = set(map(len, block))
    if not widths <= {0, layout.width}:
        _check_rows(block, first_row, layout)
    rows = list(filter(None, block)) if 0 in widths else block
    ids = list(map(str.strip, map(itemgetter(layout.id_at), rows)))
    cells = list(map(itemgetter(layout.citations_at), rows))
    citations = _citations_column(cells)
    if "" in ids or citations is None:
        _check_rows(block, first_row, layout)
        citations = list(map(float, map(str.strip, cells)))
    return rows, ids, citations


def read_table(
    stream: IO[bytes],
    config: IngestConfig | None = None,
    fields: Iterable[str] = LABEL_FIELDS,
) -> TableData:
    """Parse a delimited byte stream into publication columns plus table
    metadata.

    Only the label cells of the fields named in fields (a subset of
    LABEL_FIELDS) are split and normalised; the others hold () for every
    publication. Label cells never raise, so every check and error is the
    same whatever fields holds, and the group column is always read.
    TableData.absent_fields names every label field whose mapped column
    the header lacks, whatever fields holds.

    The rows are checked, transposed and split in C-level passes over
    whole columns; when a check fails, the rows are walked in file order
    so the first bad row raises its error.
    """
    if config is None:
        config = IngestConfig()
    fields = frozenset(fields)
    if not fields <= set(LABEL_FIELDS):
        raise ValueError(f"unknown record fields: {sorted(fields - set(LABEL_FIELDS))}")
    text = read_utf8(stream)
    header_end = text.find("\n")
    separator = _detect_separator(text if header_end < 0 else text[:header_end])
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
            if headers.count(column) > 1:
                raise MalformedRow(1, f"column {column!r} appears more than once in the header")
            index_of[role] = headers.index(column)
        elif role in ("id", "citations") or role in config.required_columns:
            if column is None:
                raise MissingColumn(role)
            raise MissingColumn(column)
    mapped = {config.column_for(role) for role in index_of}
    unused = [h for h in headers if h not in mapped]
    absent = tuple(
        name for name in LABEL_FIELDS if name not in index_of and config.column_for(name) is not None
    )

    layout = _Layout(len(headers), index_of["id"], index_of["citations"])
    group_at = index_of.get("group")
    field_at = {name: index_of[name] for name in LABEL_FIELDS if name in fields and name in index_of}
    # An institutions column that is also the group column is split once, as the group.
    label_columns: dict[str, list[tuple[str, ...]]] = {
        name: [] for name, at in field_at.items() if at != group_at
    }
    label_of = _LabelMemo(config).__getitem__
    delimiter = config.cell_delimiter

    def labels(rows: list[list[str]], at: int):
        """Per row, its cell at's normalised non-empty labels, in cell order."""
        parts = map(str.split, map(itemgetter(at), rows), repeat(delimiter))
        return map(filter, repeat(None), map(map, repeat(label_of), parts))

    ids: list[str] = []
    citations: list[float] = []
    group_values: list[tuple[str, ...]] = []
    # Blocks of rows keep the csv lists of only one block alive at a time.
    first_row = 2
    while True:
        block: list[list[str]] = []
        try:
            block.extend(islice(reader, _BLOCK_ROWS))  # keeps the rows read before a csv.Error
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            _check_rows(block, first_row, layout)
            raise MalformedRow(first_row + len(block), str(exc)) from None
        if not block:
            break
        rows, block_ids, block_citations = _checked_columns(block, first_row, layout)
        ids += block_ids
        citations += block_citations
        if group_at is not None:
            group_values += map(tuple, labels(rows, group_at))
        for name, column in label_columns.items():
            column += map(tuple, map(dict.fromkeys, labels(rows, field_at[name])))
        first_row += len(block)

    blank = [()] * len(ids)
    if group_at is None:
        group_values = blank
    for name in LABEL_FIELDS:
        if name not in label_columns:
            label_columns[name] = _dedupe_each(group_values) if name in field_at else blank
    columns = PublicationColumns(ids, citations, *map(label_columns.get, LABEL_FIELDS))
    return TableData(columns, group_values, unused, absent)


class ValidationReport(FrozenValue):
    """Outcome of validate_records.

    duplicate_ids are hard errors; the record-level lists are warnings; the
    small-sample category flags are advisory notes for the inverse-variance
    variant, kept separate so a clean small corpus still validates with an
    empty warning list. Each list or dict field left out starts empty.
    """

    __slots__ = _fields = (
        "n_records",
        "duplicate_ids",
        "no_keyword_ids",
        "no_category_ids",
        "zero_citation_ids",
        "category_counts",
    )

    def __init__(
        self,
        n_records: int = 0,
        duplicate_ids: list[str] | None = None,
        no_keyword_ids: list[str] | None = None,
        no_category_ids: list[str] | None = None,
        zero_citation_ids: list[str] | None = None,
        category_counts: dict[str, int] | None = None,
    ) -> None:
        self._set(
            n_records,
            [] if duplicate_ids is None else duplicate_ids,
            [] if no_keyword_ids is None else no_keyword_ids,
            [] if no_category_ids is None else no_category_ids,
            [] if zero_citation_ids is None else zero_citation_ids,
            {} if category_counts is None else category_counts,
        )

    @property
    def small_sample_categories(self) -> list[str]:
        """The categories with fewer than SMALL_SAMPLE_THRESHOLD publications."""
        return [cat for cat, count in self.category_counts.items() if count < SMALL_SAMPLE_THRESHOLD]

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


def validate_records(publications: PublicationColumns) -> ValidationReport:
    """Report-only sanity pass over publication columns, in whole-column
    passes; never raises."""
    ids = publications.ids
    duplicate_ids: list[str] = []
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        # seen.add returns None, so an id is kept from its second occurrence on
        duplicate_ids = list(dict.fromkeys([rec_id for rec_id in ids if rec_id in seen or seen.add(rec_id)]))
    counts = Counter(chain.from_iterable(publications.categories))
    return ValidationReport(
        len(ids),
        duplicate_ids,
        list(compress(ids, map(not_, publications.keywords))),
        list(compress(ids, map(not_, publications.categories))),
        list(compress(ids, map(eq, publications.citations, repeat(0)))),
        {cat: counts[cat] for cat in sorted(counts)},
    )
