"""Parsing, normalisation, and validation of delimited inputs."""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import xindices.ingest
from xindices import (
    AmbiguousSeparator,
    BadCitations,
    BadEncoding,
    IngestConfig,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    load_reference_stats,
    normalize_label,
    read_table,
    validate_records,
)
from xindices.errors import XIndicesError
from xindices.ingest import LABEL_FIELDS, TableData
from xindices.numfmt import format_number

from conftest import columns_of, record, records_of
from oracles import reference_read_table, reference_validate


def parse(text: str, config: IngestConfig | None = None):
    return records_of(read_table(io.BytesIO(text.encode("utf-8")), config).columns)


def test_parse_basic_row():
    records = parse('id,citations,keywords,categories\np1,7,"alpha; beta",C1\n')
    assert len(records) == 1
    rec = records[0]
    assert rec.id == "p1"
    assert rec.citations == 7.0
    assert rec.keywords == ("alpha", "beta")
    assert rec.categories == ("c1",)
    assert rec.institutions == ()


def test_parse_negative_citations():
    with pytest.raises(BadCitations) as err:
        parse("id,citations,keywords,categories\np1,-2,a,C1\n")
    assert err.value.row == 2
    assert err.value.text == "-2"


def test_parse_non_numeric_citations():
    with pytest.raises(BadCitations):
        parse("id,citations,keywords,categories\np1,lots,a,C1\n")


def test_parse_nan_citations_rejected():
    with pytest.raises(BadCitations):
        parse("id,citations,keywords,categories\np1,nan,a,C1\n")


@pytest.mark.parametrize("text", ["1_000", "1_0.5", "_1"])
def test_parse_digit_separator_citations_rejected(text):
    with pytest.raises(BadCitations) as err:
        parse(f"id,citations,keywords,categories\np1,{text},a,C1\n")
    assert err.value.text == text


def test_parse_strips_byte_order_mark():
    data = "\ufeffid,citations,keywords\np1,3,a\n".encode("utf-8")
    assert read_table(io.BytesIO(data)).columns.ids[0] == "p1"


def test_parse_non_utf8_bytes_rejected():
    data = b"id,citations,keywords\np1,3,a\np2,4,b\xffc\n"
    with pytest.raises(BadEncoding) as err:
        read_table(io.BytesIO(data))
    assert (err.value.line, err.value.byte) == (3, 0xFF)
    assert str(err.value) == "line 3: input is not UTF-8 text (byte 0xff)"


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
def test_non_utf8_byte_after_a_bom_names_its_own_line_and_byte(bom, end):
    # the codec counts offsets from after a leading BOM; the error counts
    # from the first byte, and csv ends a row (a line) at CRLF, CR or LF
    message = "line 3: input is not UTF-8 text (byte 0xff)"
    table = bom + end.join([b"id,citations", b"p1,1", b"\xff2,1", b""])
    with pytest.raises(BadEncoding, match=f"^{re.escape(message)}$"):
        read_table(io.BytesIO(table))
    assert outcome(reference_read_table, table, IngestConfig()) == (BadEncoding, message)
    with pytest.raises(BadEncoding, match=f"^{re.escape(message)}$"):
        load_reference_stats(io.BytesIO(bom + end.join([b"category,mean,variance,n", b"a,1,1,3", b"\xff,1,1,3", b""])))


def test_parse_decimal_citations_allowed():
    records = parse("id,citations,keywords,categories\np1,2.5,a,C1\n")
    assert records[0].citations == 2.5


def test_parse_empty_keywords_cell():
    records = parse("id,citations,keywords,categories\np1,7,,C1\n")
    assert records[0].keywords == ()


def test_parse_missing_required_column():
    with pytest.raises(MissingColumn) as err:
        parse("id,cites,keywords,categories\np1,7,a,C1\n")
    assert err.value.name == "citations"


def test_parse_missing_optional_columns_tolerated():
    records = parse("id,citations\np1,7\n")
    assert records[0].keywords == ()
    assert records[0].categories == ()


def test_parse_explicitly_required_column_missing():
    config = IngestConfig(keywords_column="DE", required_columns=frozenset({"keywords"}))
    with pytest.raises(MissingColumn) as err:
        parse("id,citations\np1,7\n", config)
    assert err.value.name == "DE"


def test_parse_required_group_column_missing():
    with pytest.raises(MissingColumn) as err:
        parse("id,citations\np1,7\n", IngestConfig(required_columns=frozenset({"group"})))
    assert err.value.name == "group"


def test_parse_arity_mismatch():
    with pytest.raises(MalformedRow) as err:
        parse("id,citations,keywords,categories\np1,7,a\n")
    assert err.value.row == 2


def test_parse_empty_id():
    with pytest.raises(MalformedRow):
        parse("id,citations,keywords,categories\n,7,a,C1\n")


def test_parse_row_numbers_count_header():
    with pytest.raises(BadCitations) as err:
        parse("id,citations,keywords,categories\np1,1,a,C1\np2,x,a,C1\n")
    assert err.value.row == 3


def test_parse_tab_separated():
    records = parse("id\tcitations\tkeywords\tcategories\np1\t7\talpha; beta\tC1\n")
    assert records[0].keywords == ("alpha", "beta")


def test_parse_ambiguous_header():
    with pytest.raises(AmbiguousSeparator):
        parse("id,citations\tkeywords\np1,7\ta\n")


@pytest.mark.parametrize(
    ("lf_table", "keywords"),
    [
        (b"id,citations,keywords\np1,3,a\tb\np2,2,b\n", ("a b",)),  # a tab in a cell of a comma table
        (b"id\tcitations\tkeywords\np1\t3\ta,b\np2\t2\tb\n", ("a,b",)),  # a comma in a cell of a tab table
    ],
)
def test_header_line_ends_at_a_lone_cr(lf_table, keywords):
    # csv ends a row at a lone CR too, so the header is detected on its first row
    cr_table = lf_table.replace(b"\n", b"\r")
    table = read_bytes(cr_table, IngestConfig())
    assert table == read_bytes(lf_table, IngestConfig())
    assert records_of(table.columns)[0].keywords == keywords
    assert reference_read_table(cr_table) == reference_read_table(lf_table) == table


@pytest.mark.parametrize(
    ("header", "repeated", "config"),
    [
        ("id,citations,keywords,keywords", "keywords", IngestConfig()),
        ("id,id,citations", "id", IngestConfig()),
        ("id,citations,categories,citations", "citations", IngestConfig()),
        ("id,citations,country,country", "country", IngestConfig(group_column="country")),
    ],
    ids=["keywords", "id", "citations", "group"],
)
@pytest.mark.parametrize("fields", [LABEL_FIELDS, ()], ids=["all-fields", "no-fields"])
def test_repeated_mapped_header_raises(header, repeated, config, fields):
    data = f"{header}\np1,1,2,3\n".encode()
    with pytest.raises(MalformedRow) as err:
        read_table(io.BytesIO(data), config, fields=fields)
    assert str(err.value) == f"row 1: column {repeated!r} appears more than once in the header"


def test_repeated_unmapped_header_is_ignored():
    table = read_table(io.BytesIO(b"id,citations,notes,notes,keywords\np1,1,x,y,a\n"))
    assert table.columns.keywords == [("a",)]
    assert table.unused_columns == ["notes", "notes"]


def test_parse_header_only():
    assert parse("id,citations,keywords,categories\n") == []


def test_parse_blank_lines_skipped():
    records = parse("id,citations,keywords,categories\np1,1,a,C1\n\np2,2,b,C2\n")
    assert [r.id for r in records] == ["p1", "p2"]


def test_parse_preserves_file_order():
    records = parse("id,citations\nz,1\na,2\nm,3\n")
    assert [r.id for r in records] == ["z", "a", "m"]


def test_parse_custom_cell_delimiter():
    config = IngestConfig(cell_delimiter="|")
    records = parse("id,citations,keywords,categories\np1,7,a|b,C1\n", config)
    assert records[0].keywords == ("a", "b")


def test_cell_delimiter_cannot_equal_separator():
    with pytest.raises(InvalidConfig):
        parse("id,citations,keywords,categories\np1,7,a,C1\n", IngestConfig(cell_delimiter=","))


def test_cell_delimiter_cannot_be_empty():
    with pytest.raises(InvalidConfig):
        IngestConfig(cell_delimiter="")


def test_quoted_field_with_separator():
    records = parse('id,citations,keywords,categories\n"p,1",7,"a; b","C1;C2"\n')
    assert records[0].id == "p,1"
    assert records[0].categories == ("c1", "c2")


def test_group_values_parsed_when_mapped():
    config = IngestConfig(group_column="country")
    data = read_table(
        io.BytesIO(b"id,citations,country\np1,7,IN; AU\np2,1,\n"), config
    )
    assert data.group_values == [("in", "au"), ()]


def test_group_cell_labels_are_distinct():
    config = IngestConfig(group_column="institutions")
    data = read_table(io.BytesIO(b"id,citations,institutions\np1,7,I1; i1 ;I1\n"), config, fields=())
    assert data.group_values == [("i1",)]


def test_column_mapped_to_a_label_field_and_the_group_is_split_once():
    config = IngestConfig(group_column="categories")
    data = read_table(io.BytesIO(b"id,citations,categories\np1,7,C1;c1;C2\np2,1,\n"), config, fields=("categories",))
    assert data.columns.categories == [("c1", "c2"), ()]
    assert data.group_values is data.columns.categories


def test_unused_columns_reported():
    data = read_table(io.BytesIO(b"id,citations,notes\np1,7,hello\n"))
    assert data.unused_columns == ["notes"]


def test_field_over_csv_limit_is_malformed_row():
    data = b"id,citations,keywords\np1,1,a\np2,1," + b"k" * 140_000 + b"\n"
    with pytest.raises(MalformedRow) as err:
        read_table(io.BytesIO(data))
    assert err.value.row == 3
    assert "field larger than field limit" in str(err.value)
    with pytest.raises(MalformedRow) as err:
        read_table(io.BytesIO(b"id,citations," + b"k" * 140_000 + b"\n"))
    assert err.value.row == 1


# --- read_table against the row-wise reference reader ----------------------------

# Case pairs that fold alike (A/a, Σ/σ/ς, İ/i), whitespace a cell can hold
# once quoted, and the characters the cell delimiters below are made of.
LABEL_CHARS = "AabΣσςİi;| \t\n\u00a0\u2003\u3000"
CELL_DELIMITERS = [";", "|", "; ", ";;", " ", "\t", "\u3000"]


def outcome(read, data, config):
    try:
        return read(data, config)
    except XIndicesError as exc:
        return type(exc), str(exc)


def read_bytes(data, config):
    return read_table(io.BytesIO(data), config)


@st.composite
def citation_cells(draw):
    """A citation cell float() reads as a finite count of at least 0, with
    0 to 3 decimals, written plainly, in exponent form or with a leading
    +, inside optional spaces."""
    units, places = draw(st.integers(0, 10**5)), draw(st.integers(0, 3))
    text = draw(
        st.sampled_from(
            [
                f"{units // 10**places}.{units % 10**places:0{places}d}" if places else str(units),
                f"{units}e-{places}",
                f".{units:06d}E{6 - places}",
                f"+{units}E-{places}",
            ]
        )
    )
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", "  "]))


@st.composite
def tables(draw, part=st.text(alphabet=LABEL_CHARS, max_size=4), required=(), citations=citation_cells()):
    """A CSV or TSV table and an ingest config: optional columns in any
    order, those named in required always among them, multi-value cells
    made of drawn parts, which by default repeat before or only after
    normalisation, citation cells drawn from citations (by default
    decimals), and a group column that is absent, the institutions column
    or a column of its own. Lines end in LF, CRLF or a lone CR. The table
    may start with a BOM, and rarely (one choice in 16) a cell of its last
    row is over csv.field_size_limit()."""
    delimiter = draw(st.sampled_from(CELL_DELIMITERS))
    group = draw(st.sampled_from([None, "institutions", "country"]))
    config = IngestConfig(
        cell_delimiter=delimiter,
        group_column=group,
        case_fold=draw(st.booleans()),
        trim=draw(st.booleans()),
    )
    optional = ["keywords", "categories", "institutions", "notes"]
    columns = ["id", "citations"] + [c for c in optional if c in required or draw(st.booleans())]
    if group == "country":
        columns.append("country")
    columns = draw(st.permutations(columns))
    cells = {
        **dict.fromkeys(columns, st.lists(part, max_size=4).map(delimiter.join)),
        "citations": citations,
    }
    rows = [
        [f"p{i}" if c == "id" else draw(cells[c]) for c in columns]
        for i in range(draw(st.integers(0, 6)))
    ]
    if rows and draw(st.sampled_from([False] * 15 + [True])):
        rows[-1][draw(st.integers(0, len(columns) - 1))] = "k" * (csv.field_size_limit() + 1)
    out = io.StringIO()
    # a CRLF terminator makes csv quote a cell holding CR or LF, which
    # the other two do not; no drawn cell holds a CR, so each CRLF is a
    # line end and can become any of the three
    writer = csv.writer(out, delimiter=draw(st.sampled_from([",", "\t"])), lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(rows)
    text = out.getvalue().replace("\r\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8"), config


@settings(max_examples=300, deadline=None)
@given(tables())
def test_read_table_equals_row_wise_reference(table):
    data, config = table
    fast = outcome(read_bytes, data, config)
    assert fast == outcome(reference_read_table, data, config)
    if isinstance(fast, TableData):
        reference = reference_read_table(data, config)
        assert list(map(repr, fast.records)) == list(map(repr, reference.records))
        assert list(map(hash, fast.records)) == list(map(hash, reference.records))


@settings(max_examples=300, deadline=None)
@given(tables(), st.sets(st.sampled_from(LABEL_FIELDS)))
def test_projected_read_equals_full_read_with_unread_fields_blank(table, fields):
    data, config = table
    projected = outcome(lambda d, c: read_table(io.BytesIO(d), c, fields=fields), data, config)
    expected = outcome(read_bytes, data, config)
    if isinstance(expected, TableData):
        blank = [()] * len(expected.columns.ids)
        columns = expected.columns._replace(**dict.fromkeys(set(LABEL_FIELDS) - fields, blank))
        expected = TableData(columns, expected.group_values, expected.unused_columns, expected.absent_fields)
    assert projected == expected


@contextlib.contextmanager
def block_rows(rows):
    """read_table checking and splitting rows rows at a time."""
    default = xindices.ingest._BLOCK_ROWS
    xindices.ingest._BLOCK_ROWS = rows
    try:
        yield
    finally:
        xindices.ingest._BLOCK_ROWS = default


ID_CELLS = ["p1", "p2", " p3 ", "", "  "]
CITATION_CELLS = [
    "1", " 2.5 ", "0", "-0", "1e308", "-1", "nan", "inf", "1e400", "1_0", "x", "", "\u0661\u0662",
]


@st.composite
def rows_with_faults(draw):
    """A table whose rows may be blank, of the wrong width, or carry an
    empty id or a bad citation count, in any order and number."""
    good_width = st.tuples(
        st.sampled_from(ID_CELLS), st.sampled_from(CITATION_CELLS), st.sampled_from(["a;B", ""])
    ).map(list)
    any_width = st.lists(st.sampled_from(["p9", "3", "k"]), min_size=1, max_size=4)
    rows = draw(st.lists(st.one_of(good_width, good_width, st.just([]), any_width), max_size=8))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "citations", "keywords"])
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(rows_with_faults(), st.sampled_from([1, 2, 3, 4096]))
def test_first_bad_row_raises_as_in_row_wise_reference(data, rows):
    config = IngestConfig()
    with block_rows(rows):
        assert outcome(read_bytes, data, config) == outcome(reference_read_table, data, config)


@settings(max_examples=200, deadline=None)
@given(tables(), st.integers(min_value=1, max_value=4))
def test_read_table_in_blocks_equals_one_block(table, rows):
    data, config = table
    with block_rows(rows):
        in_blocks = outcome(read_bytes, data, config)
    assert in_blocks == outcome(read_bytes, data, config)


@pytest.mark.parametrize("rows", [1, 2, 4096])
def test_csv_error_row_and_precedence_in_blocks(rows):
    long_row = b"p3,1," + b"k" * 140_000 + b"\n"
    with block_rows(rows), pytest.raises(BadCitations) as err:
        read_table(io.BytesIO(b"id,citations,keywords\np1,1,a\np2,x,a\n" + long_row))
    assert err.value.row == 3
    with block_rows(rows), pytest.raises(MalformedRow) as err:
        read_table(io.BytesIO(b"id,citations,keywords\np1,1,a\n\np2,1,a\n" + long_row))
    assert err.value.row == 5


@pytest.mark.parametrize("rows", [1, 4096])
def test_over_limit_field_raises_as_in_row_wise_reference(rows):
    # a field over csv.field_size_limit() on a late row, after a blank line
    # that still counts as a row
    data = b"id,citations,keywords\np1,1,a\n\np2,1,b\np3,1," + b"k" * 140_000 + b"\n"
    config = IngestConfig()
    with block_rows(rows):
        got = outcome(read_bytes, data, config)
    assert got[0] is MalformedRow and got[1].startswith("row 5: field larger than field limit")
    assert outcome(reference_read_table, data, config) == got


def test_read_table_rejects_unknown_fields():
    with pytest.raises(ValueError, match="keyword"):
        read_table(io.BytesIO(b"id,citations\n"), fields=("keyword",))


FUZZ_HEADER = b"id,citations,keywords,categories,institutions\n"
FUZZ_PIECES = [
    b",", b"\t", b"\n", b"\r", b'"', b";", b" ", b"1", b"2.5", b"-", b"nan", b"a", b"A",
    b"\xce\xa3", b"\xef\xbb\xbf", b"\xff", b"\x00",
]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=120),
        st.lists(st.sampled_from(FUZZ_PIECES), max_size=40).map(b"".join),
        st.lists(st.sampled_from(FUZZ_PIECES), max_size=40).map(lambda p: FUZZ_HEADER + b"".join(p)),
    ),
    st.sampled_from([None, "institutions"]),
)
def test_read_table_on_any_bytes_gives_table_or_typed_error(data, group):
    config = IngestConfig(group_column=group)
    result = outcome(read_bytes, data, config)
    assert isinstance(result, TableData) or issubclass(result[0], XIndicesError)
    assert result == outcome(reference_read_table, data, config)


def test_each_distinct_part_normalised_once_per_read(monkeypatch):
    calls = collections.Counter()

    def counting(raw, config=None):
        calls[raw] += 1
        return normalize_label(raw, config)

    monkeypatch.setattr(xindices.ingest, "normalize_label", counting)
    data = (
        b"id,citations,keywords,categories,institutions,country\n"
        b"p1,1,A; a;A,A,I1;I2,A\n"
        b"p2,2,a;b,a;A,I2,I1\n"
        b"p3,3,,b; a,I1,\n"
    )
    config = IngestConfig(group_column="country")
    table = read_table(io.BytesIO(data), config)
    parts = {"A", " a", "a", "b", "I1", "I2", ""}
    assert dict(calls) == dict.fromkeys(parts, 1)
    read_table(io.BytesIO(data), config)
    assert dict(calls) == dict.fromkeys(parts, 2)
    assert table.columns.keywords[0] == ("a",)
    assert table.group_values == [("a",), ("i1",), ()]


# --- normalize_label ---------------------------------------------------------


def test_normalize_defaults():
    assert normalize_label("  Machine   Learning ") == "machine learning"


def test_normalize_no_case_fold():
    assert normalize_label("X", IngestConfig(case_fold=False)) == "X"


def test_normalize_whitespace_only():
    assert normalize_label("   ") == ""


@given(st.text(max_size=40))
def test_normalize_idempotent(text):
    once = normalize_label(text)
    assert normalize_label(once) == once


# --- round trip ----------------------------------------------------------------


def records_to_csv(records) -> str:
    """Records as canonical CSV (comma-separated, ";" joined multi-value
    cells). Re-parsing the output with defaults yields equal records,
    provided the labels were already normalised."""
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


def test_round_trip():
    original = parse(
        "id,citations,keywords,categories,institutions\n"
        'p1,7,"alpha; beta","C1;C2",I1\n'
        "p2,0.5,,C3,\n"
    )
    again = parse(records_to_csv(original))
    assert again == original


def test_round_trip_preserves_real_citations():
    # a count is read as the exact decimal it is written as, which rounds
    # back to the float that was written
    original = record("p1", 1 / 3, ("k",), ("c",))
    (again,) = parse(records_to_csv([original]))
    assert again == original._replace(citations=Fraction("0.3333333333333333"))
    assert float(again.citations) == 1 / 3


# --- validate_records ----------------------------------------------------------


def test_validate_clean():
    report = validate_records(columns_of([record(f"p{i}", i + 1, ("k",), ("c",)) for i in range(5)]))
    assert report.errors == []
    assert report.warnings == []


def test_validate_duplicates():
    report = validate_records(columns_of([record("p1", 1), record("p1", 2)]))
    assert report.duplicate_ids == ["p1"]
    assert "duplicate id: p1" in report.errors


def test_validate_flags_record_gaps():
    report = validate_records(columns_of([record("p1", 0, (), ("c",)), record("p2", 2, ("k",), ())]))
    assert report.no_keyword_ids == ["p1"]
    assert report.no_category_ids == ["p2"]
    assert report.zero_citation_ids == ["p1"]


def test_validate_small_sample_note():
    records = [record(f"p{i}", 1, (), ("a",)) for i in range(40)]
    report = validate_records(columns_of(records))
    assert report.category_counts == {"a": 40}
    assert report.small_sample_categories == ["a"]
    assert any("40" in note and "a" in note for note in report.notes)


def test_validate_large_category_not_flagged():
    records = [record(f"p{i}", 1, (), ("a",)) for i in range(120)]
    report = validate_records(columns_of(records))
    assert report.small_sample_categories == []


@st.composite
def validation_records(draw):
    """Records whose ids repeat at any position, some of them ids of a
    bulk run in one category; label tuples that may be empty; counts of
    0, 0.0, -0.0 and non-zero; and categories under and over the small
    sample threshold."""
    labels = st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=2).map(tuple)
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["p1", "p2", "p3", "b0", "b99"]),
                st.sampled_from([0, 0.0, -0.0, 1, 2.5, 1e-300, 1e308]),
                labels,
                labels,
            ),
            max_size=15,
        )
    )
    n_bulk = draw(st.sampled_from([0, 1, 99, 100, 130]))
    bulk = [(f"b{i}", i % 3, ("k",) * (i % 2), ("big",)) for i in range(n_bulk)]
    cut = draw(st.integers(0, len(rows)))
    return [record(*row) for row in rows[:cut] + bulk + rows[cut:]]


@settings(max_examples=300, deadline=None)
@given(validation_records())
def test_validate_records_and_columns_equal_record_loop(records):
    expected, small_sample_categories = reference_validate(records)
    report = validate_records(columns_of(records))
    assert report == expected
    assert report.small_sample_categories == small_sample_categories
    assert list(report.category_counts) == list(expected.category_counts)
