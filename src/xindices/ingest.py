"""Delimited-table ingestion: column mapping, multi-value cells, label cleanup.

Input is UTF-8 CSV or TSV with a header row (RFC-4180 quoting); a leading
byte-order mark is dropped, and bytes that are not UTF-8 raise BadEncoding.
The field separator is autodetected from the header line, limited to comma
vs tab; a header containing both raises rather than guessing. Multi-value
cells (keywords, categories, institutions, group) are split on a
configurable cell delimiter and normalised, each distinct part once per
table; each publication's label and group tuples are also deduplicated,
in one pass per column, so a column mapped to two roles is split once.
read_table returns the publications in column form, the one form the
library takes them in, and can skip the label cells of fields its caller
does not read; it notes the label fields whose mapped column the header
lacks. A row the csv module cannot read (a field over
csv.field_size_limit()) or a header repeating a mapped column name raises
MalformedRow. validate_records reads the columns in whole-column passes.

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
from operator import eq, itemgetter, mul, not_
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .corpus import FLOAT_LIMIT, PublicationColumns, ScaledCitations
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

#: Citations are read exactly to this many decimal places, rounded
#: half-even beyond (a count below 2.5e-324 is the float 0 already), so no
#: cell such as 1e-100000 makes every count a 100 000-digit int.
MAX_PLACES = 340

#: Rows per block of read_rows; read_table checks and splits a block per pass.
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
    each publication's distinct group labels, the header names no role is
    mapped to, and the label fields (of LABEL_FIELDS, in that order) whose
    mapped column the header lacks, read as () for every publication."""

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


class _LabelMemo(dict):
    """Raw cell part -> its normalize_label result. Each distinct part is
    normalised once per table, and records share the label str it maps to."""

    def __init__(self, config: IngestConfig):
        super().__init__()
        self.config = config

    def __missing__(self, raw: str) -> str:
        label = self[raw] = normalize_label(raw, self.config)
        return label


def read_rows(
    stream: IO[bytes], error: Callable[[int, str], Exception], no_header: str, separator: str | None = None
) -> tuple[str, Iterator[list[list[str]]]]:
    """The field separator of a delimited byte stream, decoded and (when
    separator is None) detected as the module docstring says, and a lazy
    iterator of its rows: the header alone, then blocks of up to _BLOCK_ROWS.
    Rows count from the header as row 1, blank lines included: no header
    raises error(1, no_header), and a row the csv module cannot read raises
    error(row, its message) once the rows before it are yielded."""
    data = stream.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        at = exc.start + len(data) - len(exc.object)  # exc.start counts from after a BOM
        # csv ends a row at CRLF, a lone CR or a lone LF, and so does splitlines
        raise BadEncoding(len(data[: at + 1].splitlines()), data[at]) from None
    if separator is None:
        header_line = text.partition("\n")[0].partition("\r")[0]  # csv ends a row at either
        if "," in header_line and "\t" in header_line:
            raise AmbiguousSeparator()
        separator = "\t" if "\t" in header_line else ","
    return separator, _blocks(csv.reader(io.StringIO(text, newline=""), delimiter=separator), error, no_header)


def _blocks(reader: Iterator[list[str]], error: Callable[[int, str], Exception], no_header: str):
    row, size = 1, 1  # the number of the block's first row, and its most rows
    while True:
        block: list[list[str]] = []
        try:
            block.extend(islice(reader, size))  # keeps the rows read before a csv.Error
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            if block:
                yield block
            raise error(row + len(block), str(exc)) from None
        if not block:
            if row == 1:
                raise error(1, no_header)
            return
        yield block
        row, size = row + len(block), _BLOCK_ROWS


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


def _citations_column(cells: Sequence[str]) -> tuple[list[int], int] | None:
    """The counts read exactly, as ints over 10**places, or None when
    float() may not read a stripped cell as a finite number >= 0 (checked
    in C-level passes; None can be a false alarm, a float sum overflowing)."""
    texts = list(map(str.strip, cells))
    joined = ",".join(texts)
    # float() also reads Python literals such as "1_000", which no CSV writer means
    if "_" in joined:
        return None
    # the common table: up to 400 ASCII digits, then one number of decimals, in every cell
    places = len(texts[0].partition(".")[2]) if texts else 0
    digits = rf"[0-9]{{1,400}}\.[0-9]{{{places}}}" if places else "[0-9]{1,400}"
    fixed = places <= MAX_PLACES and joined.count(",") == len(texts) - 1
    if fixed and re.fullmatch(f"{digits}(?:,{digits})*", joined):
        ints = list(map(int, joined.replace(".", "").split(",")))
        return (ints, places) if max(ints) < FLOAT_LIMIT * 10**places else None
    try:
        values = list(map(float, texts))
    except ValueError:
        return None
    # a finite sum rules out NaN and infinities
    if values and not (min(values) >= 0 and math.isfinite(sum(values))):
        return None
    return _decimal_citations(texts)


def _decimal_citations(texts: list[str]) -> tuple[list[int], int]:
    """Cells float() reads, read exactly: ints over 10**places, places the
    most decimals of any cell, at most MAX_PLACES."""
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal  # only off the plain-digit path

    values = list(map(Decimal, texts))
    places = min(max([0, *(-value.as_tuple().exponent for value in values)]), MAX_PLACES)
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)  # only to_integral_value rounds
    return list(map(int, map(exact.to_integral_value, map(exact.scaleb, values, repeat(places))))), places


def _checked_columns(
    block: list[list[str]], first_row: int, layout: _Layout
) -> tuple[list[list[str]], list[str], tuple[list[int], int]]:
    """The block's rows without blank lines, their ids and their citation
    counts as ints over 10**places, checked in C-level passes; when a pass
    fails, the block is walked row by row so the first bad row raises."""
    widths = set(map(len, block))
    if not widths <= {0, layout.width}:
        _check_rows(block, first_row, layout)
    rows = list(filter(None, block)) if 0 in widths else block
    ids = list(map(str.strip, map(itemgetter(layout.id_at), rows)))
    cells = list(map(itemgetter(layout.citations_at), rows))
    citations = _citations_column(cells)
    if "" in ids or citations is None:
        _check_rows(block, first_row, layout)
        citations = _decimal_citations(list(map(str.strip, cells)))
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
    separator, reader = read_rows(stream, MalformedRow, "input has no header row")
    if config.cell_delimiter == separator:
        raise InvalidConfig("cell delimiter equals the field separator")
    headers = next(reader)[0]

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
    read_at = {role: index_of[role] for role in (*sorted(fields), "group") if role in index_of}
    # one list per column read, so a column mapped to two roles is split once
    split: dict[int, list[tuple[str, ...]]] = {at: [] for at in read_at.values()}
    label_of = _LabelMemo(config).__getitem__
    delimiter = config.cell_delimiter

    ids: list[str] = []
    blocks: list[tuple[list[int], int]] = []  # each block's counts, over 10**places
    # Blocks of rows keep the csv lists of only one block alive at a time.
    first_row = 2
    for block in reader:
        rows, block_ids, counts = _checked_columns(block, first_row, layout)
        ids += block_ids
        blocks.append(counts)
        for at, column in split.items():
            parts = map(str.split, map(itemgetter(at), rows), repeat(delimiter))
            # per row, its distinct normalised non-empty labels, in cell order
            column += map(tuple, map(dict.fromkeys, map(filter, repeat(None), map(map, repeat(label_of), parts))))
        first_row += len(block)

    blank = [()] * len(ids)
    *labels, group_values = [split[read_at[role]] if role in read_at else blank for role in (*LABEL_FIELDS, "group")]
    places = max([0, *map(itemgetter(1), blocks)])
    counts = chain.from_iterable(map(mul, ints, repeat(10 ** (places - at))) for ints, at in blocks)
    citations = ScaledCitations(counts, 10**places)
    columns = PublicationColumns(ids, citations, *labels)
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
    cited = getattr(publications.citations, "ints", publications.citations)  # no Fraction read
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
        list(compress(ids, map(eq, cited, repeat(0)))),
        {cat: counts[cat] for cat in sorted(counts)},
    )
