"""Parsing, normalisation, and validation of delimited inputs."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, strategies as st

from xindices import (
    AmbiguousSeparator,
    BadCitations,
    BadEncoding,
    IngestConfig,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    normalize_label,
    parse_table,
    read_table,
    records_to_csv,
    validate_records,
)

from conftest import record


def parse(text: str, config: IngestConfig | None = None):
    return parse_table(io.BytesIO(text.encode("utf-8")), config)


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
    assert parse_table(io.BytesIO(data))[0].id == "p1"


def test_parse_non_utf8_bytes_rejected():
    data = b"id,citations,keywords\np1,3,a\np2,4,b\xffc\n"
    with pytest.raises(BadEncoding) as err:
        parse_table(io.BytesIO(data))
    assert (err.value.line, err.value.byte) == (3, 0xFF)
    assert str(err.value) == "line 3: input is not UTF-8 text (byte 0xff)"


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


def test_unused_columns_reported():
    data = read_table(io.BytesIO(b"id,citations,notes\np1,7,hello\n"))
    assert data.unused_columns == ["notes"]


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


def test_round_trip():
    original = parse(
        "id,citations,keywords,categories,institutions\n"
        'p1,7,"alpha; beta","C1;C2",I1\n'
        "p2,0.5,,C3,\n"
    )
    again = parse(records_to_csv(original))
    assert again == original


def test_round_trip_preserves_real_citations():
    original = [record("p1", 1 / 3, ("k",), ("c",))]
    assert parse(records_to_csv(original)) == original


# --- validate_records ----------------------------------------------------------


def test_validate_clean():
    report = validate_records(
        [record(f"p{i}", i + 1, ("k",), ("c",)) for i in range(5)]
    )
    assert report.errors == []
    assert report.warnings == []


def test_validate_duplicates():
    report = validate_records([record("p1", 1), record("p1", 2)])
    assert report.duplicate_ids == ["p1"]
    assert "duplicate id: p1" in report.errors


def test_validate_flags_record_gaps():
    report = validate_records(
        [record("p1", 0, (), ("c",)), record("p2", 2, ("k",), ())]
    )
    assert report.no_keyword_ids == ["p1"]
    assert report.no_category_ids == ["p2"]
    assert report.zero_citation_ids == ["p1"]


def test_validate_small_sample_note():
    records = [record(f"p{i}", 1, (), ("a",)) for i in range(40)]
    report = validate_records(records)
    assert report.category_counts == {"a": 40}
    assert report.small_sample_categories == ["a"]
    assert any("40" in note and "a" in note for note in report.notes)


def test_validate_large_category_not_flagged():
    records = [record(f"p{i}", 1, (), ("a",)) for i in range(120)]
    report = validate_records(records)
    assert report.small_sample_categories == []
