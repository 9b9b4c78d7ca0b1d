"""Command-line behaviour: flags, exit codes, formats, determinism."""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import import_check
import xindices.cli
from xindices import errors
from xindices.cli import main
from xindices.indices import INDEX_FIELDS
from xindices.ingest import LABEL_FIELDS, TableData
from xindices.numfmt import format_number

from test_acceptance import _synthetic_csv

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO_ROOT / "schema" / "report.schema.json").read_text())

TOY = (
    "id,citations,keywords,categories,institutions\n"
    'p1,9,"alpha; beta",A,I1\n'
    "p2,4,gamma,B,I2\n"
    "p3,2,delta,C,I1\n"
    "p4,2,alpha,D,I1\n"
)


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_xd_value(toy_csv, capsys):
    code, out, _ = run(capsys, "compute", "--input", toy_csv, "--index", "xd", "--type", "h")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 2
    assert report["index"] == "xd"
    assert [row["weight"] for row in report["table"]] == [9, 4, 2, 2]


def test_compute_report_matches_schema(toy_csv, capsys):
    code, out, _ = run(capsys, "compute", "--input", toy_csv, "--index", "x", "--type", "g")
    assert code == 0
    jsonschema.validate(json.loads(out), SCHEMA)


def test_nested_report_matches_schema(toy_csv, capsys):
    code, out, _ = run(
        capsys, "nested", "--input", toy_csv, "--group-col", "institutions", "--inner", "x"
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["index"] == "nested"
    assert [row["label"] for row in report["table"]] == ["i1", "i2"]


def test_compute_table_format_final_line_is_value(toy_csv, capsys):
    code, out, _ = run(
        capsys, "compute", "--input", toy_csv, "--index", "xd", "--format", "table"
    )
    assert code == 0
    assert out.rstrip("\n").splitlines()[-1] == "2"


def test_csv_format_same_rows_as_json(toy_csv, capsys):
    _, json_out, _ = run(capsys, "compute", "--input", toy_csv, "--index", "xd")
    _, csv_out, _ = run(capsys, "compute", "--input", toy_csv, "--index", "xd", "--format", "csv")
    report = json.loads(json_out)
    lines = csv_out.strip().splitlines()
    assert lines[0] == "rank,label,weight,ratio"
    assert len(lines) - 1 == len(report["table"])
    for line, row in zip(lines[1:], report["table"]):
        rank, label, weight, _ = line.split(",")
        assert int(rank) == row["rank"]
        assert label == row["label"]
        assert float(weight) == row["weight"]


def test_compute_empty_file_value_zero(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("id,citations,keywords,categories\n")
    code, out, _ = run(capsys, "compute", "--input", str(path), "--index", "x", "--type", "g")
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_compute_ingest_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,citations\np1,-2\n")
    code, _, err = run(capsys, "compute", "--input", str(path), "--index", "x")
    assert code == 1
    assert "bad citation count" in err


def test_compute_duplicate_id_exit_1(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("id,citations\np1,1\np1,2\n")
    code, _, err = run(capsys, "compute", "--input", str(path), "--index", "x")
    assert code == 1
    assert "duplicate" in err


OVERFLOW = (
    "id,citations,keywords,categories,institutions\n"
    "p1,1e308,a,C,I1\n"
    "p2,1e308,a,D,I1\n"
)


# xo, xd and xdf sum citations within one category, so their cases put
# both rows there.
OVERFLOW_IN_ONE_CATEGORY = (
    "id,citations,keywords,categories,institutions\n"
    "p1,1e308,a,C,I1\n"
    "p2,1e308,a,C,I2\n"
)


@pytest.mark.parametrize("ratio_type", ["h", "g"])
@pytest.mark.parametrize("stats_flag", ["--internal-stats", "--ref-stats"])
def test_xdfn_overflowing_category_total_exits_2(tmp_path, capsys, stats_flag, ratio_type):
    path = tmp_path / "huge.csv"
    path.write_text(OVERFLOW_IN_ONE_CATEGORY)
    argv = ["compute", "--index", "xdfn", "--type", ratio_type, "--input", str(path)]
    if stats_flag == "--ref-stats":
        stats = tmp_path / "stats.csv"
        stats.write_text("category,mean,variance,n\nc,1,1,2\n")
        argv += [stats_flag, str(stats)]
    else:
        argv.append(stats_flag)
    assert run(capsys, *argv) == (2, "", overflow_error("c"))


def overflow_error(label: str) -> str:
    return (
        f"error: ranked weight or ratio of {label!r} is not a finite number "
        "(citation totals overflow the float range)\n"
    )


# argv -> the table it runs on and the label its error names
OVERFLOW_CASES = {
    ("compute", "--index", "x"): (OVERFLOW, "a"),
    ("compute", "--index", "xd", "--type", "g"): (OVERFLOW_IN_ONE_CATEGORY, "c"),
    ("nested", "--group-col", "institutions"): (OVERFLOW, "a"),
    ("compute", "--index", "xo"): (OVERFLOW_IN_ONE_CATEGORY, "a"),
    ("compute", "--index", "xd"): (OVERFLOW_IN_ONE_CATEGORY, "c"),
    ("compute", "--index", "xdf"): (OVERFLOW_IN_ONE_CATEGORY, "c"),
}


@pytest.mark.parametrize("argv", list(OVERFLOW_CASES))
def test_overflowing_citation_totals_exit_2(tmp_path, capsys, argv):
    table, label = OVERFLOW_CASES[argv]
    path = tmp_path / "huge.csv"
    path.write_text(table)
    assert run(capsys, *argv, "--input", str(path)) == (2, "", overflow_error(label))


def test_g_type_sums_totals_past_the_float_range_exactly(tmp_path, capsys):
    # Two categories cited 1e308 times each: the cumulative total 2e308 is
    # beyond the float range, but the g rule reads it exactly, and its ratio
    # over 2**2 is finite.
    path = tmp_path / "huge.csv"
    path.write_text(OVERFLOW)
    code, out, err = run(capsys, "compute", "--index", "xd", "--type", "g", "--input", str(path), "--format", "csv")
    assert (code, out, err) == (0, "rank,label,weight,ratio\n1,c,1e+308,1e+308\n2,d,1e+308,5e+307\n", "")


THREE_CATEGORIES = "id,citations,categories\np1,4.02,a\np2,3.03,b\np3,1.95,c\n"


def test_g_type_value_follows_the_exact_cumulative_totals(tmp_path, capsys):
    # 4.02 + 3.03 + 1.95 is exactly 9 = 3**2, though the three floats sum to
    # 9 - 6.7e-16: the g value is 3, and the ratio at rank 3 prints 1.
    path = tmp_path / "three.csv"
    path.write_text(THREE_CATEGORIES)
    code, out, _ = run(capsys, "compute", "--index", "xd", "--type", "g", "--input", str(path), "--format", "table")
    assert code == 0
    *_, last_row, value = out.splitlines()
    assert (last_row.split(), value) == (["3", "c", "1.95", "1"], "3")


def test_ivw_without_stats_exit_2(toy_csv, capsys):
    code, _, err = run(capsys, "compute", "--input", toy_csv, "--index", "ivw")
    assert code == 2
    assert "no reference statistics supplied" in err


def test_ivw_raw_g_type_exit_2(toy_csv, capsys):
    code, _, err = run(
        capsys,
        "compute", "--input", toy_csv, "--index", "ivw", "--type", "g", "--internal-stats",
    )
    assert code == 2
    assert "g-type" in err or "rank_basis" in err or "rank basis" in err


def test_ivw_zero_variance_exit_2(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("id,citations,keywords,categories\np1,5,a,C\np2,5,b,C\n")
    code, _, err = run(
        capsys, "compute", "--input", str(path), "--index", "ivw", "--internal-stats"
    )
    assert code == 2
    assert "variance" in err
    code, out, _ = run(
        capsys,
        "compute", "--input", str(path), "--index", "ivw", "--internal-stats",
        "--variance-floor", "1e-6",
    )
    assert code == 0


IVW_CROSSING = "id,citations,categories\np1,9,a\np2,5,b\np3,1,c\n"


@pytest.mark.parametrize("reverse", [False, True])
def test_raw_ivw_ratio_is_the_exact_quotient_rounded_once(tmp_path, capsys, reverse):
    # c's variance times its rank 3 is exactly 1 + 2**-53, which a float
    # product rounds to 1; 1 over the exact product rounds to
    # 0.9999999999999999, so c's ratio falls below 1 and the value is 2
    header, *rows = IVW_CROSSING.splitlines(keepends=True)
    path, stats = tmp_path / "t.csv", tmp_path / "s.csv"
    path.write_text(header + "".join(rows[::-1] if reverse else rows))
    stats.write_text("category,mean,variance,n\na,1,1,1\nb,1,1,1\nc,1,0.33333333333333337,1\n")
    argv = ["compute", "--index", "ivw", "--input", str(path), "--ref-stats", str(stats)]
    code, out, _ = run(capsys, *argv)
    report = json.loads(out)
    assert (code, report["value"], report["table"][2]) == (
        0, 2, {"rank": 3, "label": "c", "weight": 1, "ratio": 0.9999999999999999}
    )
    assert run(capsys, *argv, "--format", "csv")[1].splitlines()[-1] == "3,c,1,0.9999999999999999"
    *_, last_row, value = run(capsys, *argv, "--format", "table")[1].splitlines()
    assert (last_row.split(), value) == (["3", "c", "1", "0.9999999999999999"], "2")


def test_xdfn_with_reference_stats(toy_csv, tmp_path, capsys):
    stats = tmp_path / "ref.csv"
    stats.write_text(
        "category,mean,variance,n\na,1,1,10\nb,1,1,10\nc,1,1,10\nd,1,1,10\n"
    )
    code, out, _ = run(
        capsys,
        "compute", "--input", toy_csv, "--index", "xdfn", "--ref-stats", str(stats),
    )
    assert code == 0
    assert json.loads(out)["value"] == 2  # unit means: same as xd


def test_xdfn_missing_category_strict_vs_lenient(toy_csv, tmp_path, capsys):
    stats = tmp_path / "ref.csv"
    stats.write_text("category,mean,variance,n\na,1,1,10\n")
    code, _, err = run(
        capsys, "compute", "--input", toy_csv, "--index", "xdfn", "--ref-stats", str(stats)
    )
    assert code == 2
    assert "no reference statistics for category" in err
    code, out, _ = run(
        capsys,
        "compute", "--input", toy_csv, "--index", "xdfn", "--ref-stats", str(stats),
        "--lenient-stats",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["table"]) == 1
    assert report["warnings"]


def test_categories_named_in_label_order_not_first_seen_order(tmp_path, capsys):
    # Seen first zeta, then alpha, then mid; only mid has reference stats.
    table = tmp_path / "in.csv"
    table.write_text("id,citations,keywords,categories\np1,3,k,zeta\np2,2,k,alpha\np3,4,k,mid\n")
    stats = tmp_path / "ref.csv"
    stats.write_text("category,mean,variance,n\nmid,1,0,3\n")
    args = ("--input", str(table), "--ref-stats", str(stats))
    code, out, _ = run(
        capsys, "compute", "--index", "ivw", *args, "--lenient-stats", "--variance-floor", "0.5"
    )
    assert code == 0
    assert json.loads(out)["warnings"] == [
        "variance floor 0.5 substituted for category mid",
        "dropped 2 categories without reference variances: alpha, zeta",
    ]
    code, out, err = run(capsys, "compute", "--index", "xdfn", *args)
    assert (code, out, err) == (2, "", "error: no reference statistics for category 'alpha'\n")


def test_malformed_ref_stats_file_exit_1(toy_csv, tmp_path, capsys):
    stats = tmp_path / "ref.csv"
    stats.write_text("category,mean,variance,n\na,not-a-number,1,10\n")
    code, _, err = run(
        capsys, "compute", "--input", toy_csv, "--index", "xdfn", "--ref-stats", str(stats)
    )
    assert code == 1
    assert "stats row" in err


def test_missing_input_file_exit_1(capsys):
    code, _, err = run(capsys, "compute", "--input", "/nowhere/missing.csv", "--index", "x")
    assert code == 1
    assert "error:" in err


def test_nested_requires_group_col(toy_csv, capsys):
    code, _, err = run(capsys, "nested", "--input", toy_csv, "--inner", "x")
    assert code == 1
    assert "--group-col" in err


def test_nested_missing_group_column_in_file(toy_csv, capsys):
    code, _, err = run(
        capsys, "nested", "--input", toy_csv, "--group-col", "country", "--inner", "x"
    )
    assert code == 1
    assert "country" in err


def test_nested_values(tmp_path, capsys):
    rows = ["id,citations,keywords,institutions"]
    pid = 0
    for inst, x_val in (("i1", 4), ("i2", 3), ("i3", 1)):
        for k in range(x_val):
            pid += 1
            rows.append(f"p{pid},{x_val},{inst}k{k},{inst}")
    path = tmp_path / "groups.csv"
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(
        capsys,
        "nested", "--input", str(path), "--group-col", "institutions", "--inner", "x",
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 2
    assert [row["weight"] for row in report["table"]] == [4, 3, 1]


def test_stats_writes_canonical_file(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("id,citations,keywords,categories\np1,1,,A\np2,2,,A\np3,3,,A\n")
    out_path = tmp_path / "stats.csv"
    code, _, err = run(
        capsys, "stats", "--input", str(path), "--out", str(out_path), "--variance", "sample"
    )
    assert code == 0
    assert out_path.read_text() == "category,mean,variance,n\na,2,1,3\n"
    assert "fewer than 100" in err


def test_stats_warns_per_small_category(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text(
        "id,citations,keywords,categories\np1,1,,A\np2,2,,A\np3,3,,B\np4,4,,B\n"
    )
    out_path = tmp_path / "stats.csv"
    code, _, err = run(capsys, "stats", "--input", str(path), "--out", str(out_path))
    assert code == 0
    assert "category a has 2 publications" in err
    assert "category b has 2 publications" in err


def test_stats_empty_input(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("id,citations,keywords,categories\n")
    out_path = tmp_path / "stats.csv"
    code, _, _ = run(capsys, "stats", "--input", str(path), "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == "category,mean,variance,n\n"


def test_stats_warns_when_the_written_mean_is_0(tmp_path, capsys):
    # the exact mean, 2e-324, rounds to the float 0
    path = tmp_path / "in.csv"
    path.write_text("id,citations,keywords,categories\np1,4e-324,a,c\np2,0,b,c\n")
    out_path = tmp_path / "stats.csv"
    code, _, err = run(capsys, "stats", "--input", str(path), "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == "category,mean,variance,n\nc,0,0,2\n"
    assert "category c has mean 0 and cannot be loaded back" in err
    code, _, err = run(
        capsys, "compute", "--index", "xdfn", "--ref-stats", str(out_path), "--input", str(path)
    )
    assert code == 2
    assert err == "error: category 'c' has a non-positive mean citation count\n"


def test_validate_clean_file(toy_csv, capsys):
    code, out, _ = run(capsys, "validate", "--input", toy_csv)
    assert code == 0
    assert "0 errors" in out


def test_validate_duplicate_ids_exit_1(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("id,citations\np1,1\np1,2\n")
    code, out, err = run(capsys, "validate", "--input", path.as_posix())
    assert code == 1
    assert "duplicate id: p1" in out
    assert err == "error: 1 duplicate ids\n"


def test_validate_notes_extra_columns(tmp_path, capsys):
    path = tmp_path / "extra.csv"
    path.write_text("id,citations,notes\np1,1,hello\n")
    code, out, _ = run(capsys, "validate", "--input", str(path))
    assert code == 0
    assert "ignored columns: notes" in out


@pytest.mark.parametrize("argv", [("compute", "--index", "x"), ("validate",)], ids=" ".join)
def test_repeated_mapped_header_exits_1(tmp_path, capsys, argv):
    path = tmp_path / "repeated.csv"
    path.write_text("id,citations,keywords,keywords\np1,1,a,b\n")
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert (code, out) == (1, "")
    assert err == "error: row 1: column 'keywords' appears more than once in the header\n"


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io as _io
    import sys as _sys

    data = TOY.encode("utf-8")
    monkeypatch.setattr(
        _sys, "stdin", type("S", (), {"buffer": _io.BytesIO(data)})()
    )
    code, out, _ = run(capsys, "compute", "--input", "-", "--index", "xd")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_out_flag_writes_file(toy_csv, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "compute", "--input", toy_csv, "--index", "xd", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["value"] == 2


def test_column_remapping(tmp_path, capsys):
    path = tmp_path / "wos.csv"
    path.write_text("UT,TC,DE,WC\nw1,9,alpha,Physics\nw2,4,beta,Physics\n")
    code, out, _ = run(
        capsys,
        "compute", "--input", str(path), "--index", "x",
        "--id-col", "UT", "--citations-col", "TC",
        "--keywords-col", "DE", "--categories-col", "WC",
    )
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_identical_runs_are_byte_identical(toy_csv, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(
            capsys,
            "compute", "--input", toy_csv, "--index", "xo", "--out", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


NON_UTF8 = b"id,citations,keywords\np1,3,caf\xe9\n"
DIGIT_SEPARATOR = b"id,citations,keywords,institutions\np1,1_000,a,I1\n"
# Small totals (5 for c) whose quotient by a tiny mean or variance overflows,
# and totals that overflow before any division.
TINY_DIVISOR_TABLE = b"id,citations,keywords,categories\np1,3,a,c\np2,2,b,c\n"
OVERFLOW_IN_C = b"id,citations,keywords,categories\np1,1.7e308,a,c\np2,1.7e308,b,c\n"
SPREAD_OVERFLOW = b"id,citations,categories\np1,0,C\np2,1e308,C\np3,1e308,C\n"
LONG_CELL = b"id,citations,keywords\np1,1," + b"k" * 140_000 + b"\n"
DUPLICATE_ACROSS_GROUPS = b"id,citations,keywords,institutions\np1,1,a,I1\np1,2,b,I2\n"
UNGROUPED = b"id,citations,keywords,institutions\np1,1,a,I1\np2,2,b,\n"


NOT_UTF8 = "line 2: input is not UTF-8 text (byte 0xe9)"
NON_FINITE = "not a finite number"


@pytest.mark.parametrize(
    "argv, data, ref_stats, exit_code, message",
    [
        pytest.param(("compute", "--index", "x"), NON_UTF8, None, 1, NOT_UTF8, id="non-utf8-compute"),
        pytest.param(("stats",), NON_UTF8, None, 1, NOT_UTF8, id="non-utf8-stats"),
        pytest.param(
            ("compute", "--index", "x"), DIGIT_SEPARATOR, None, 1, "bad citation count '1_000'",
            id="digit-separator-compute",
        ),
        pytest.param(
            ("nested", "--group-col", "institutions"), DIGIT_SEPARATOR, None, 1, "'1_000'",
            id="digit-separator-nested",
        ),
        pytest.param(("compute", "--index", "xdfn"), TOY.encode(), "a,nan,1,3", 1, NON_FINITE, id="nan-mean"),
        pytest.param(
            ("compute", "--index", "xdfn"), TOY.encode(), "a,1e400,1,3", 1, NON_FINITE, id="overflowing-mean"
        ),
        pytest.param(
            ("compute", "--index", "ivw"), TOY.encode(), "a,1,1e400,3", 1, NON_FINITE, id="overflowing-variance"
        ),
        pytest.param(
            ("stats",), SPREAD_OVERFLOW, None, 2, "variance of category 'c' is " + NON_FINITE,
            id="spread-overflow-stats",
        ),
        *(
            pytest.param(
                ("compute", "--index", index, *flags), TINY_DIVISOR_TABLE, stats, 2,
                f"of 'c' is not a finite number (citation total over {divisor} overflows the float range)",
                id=f"tiny-{divisor.split()[-1]}-{' '.join((index, *flags))}",
            )
            for index, flags, stats, divisor in [
                ("xdfn", (), "c,1e-320,1,2", "reference mean"),
                ("xdfn", ("--type", "g"), "c,1e-320,1,2", "reference mean"),
                ("ivw", (), "c,1,1e-320,2", "variance"),
                ("ivw", ("--rank-basis", "weighted"), "c,1,1e-320,2", "variance"),
                ("ivw", ("--rank-basis", "weighted", "--type", "g"), "c,1,1e-320,2", "variance"),
            ]
        ),
        *(
            pytest.param(
                ("compute", "--index", index, *flags), OVERFLOW_IN_C, "c,1,1e-320,2", 2,
                "of 'c' is not a finite number (citation totals overflow the float range)",
                id=f"overflowed-total-{' '.join((index, *flags))}",
            )
            for index, flags in [("xdfn", ()), ("ivw", ()), ("ivw", ("--rank-basis", "weighted"))]
        ),
        pytest.param(
            ("compute", "--index", "ivw", "--internal-stats"), SPREAD_OVERFLOW, None, 2,
            "variance of category 'c' is " + NON_FINITE, id="spread-overflow-ivw",
        ),
        pytest.param(
            ("compute", "--index", "x"), LONG_CELL, None, 1, "row 2: field larger than field limit",
            id="long-cell-compute",
        ),
        pytest.param(
            ("compute", "--index", "xdfn"), TOY.encode(), "a," + "1" * 140_000 + ",1,3", 1,
            "stats row 2: field larger than field limit", id="long-cell-stats-file",
        ),
        pytest.param(
            ("compute", "--index", "xdfn"), TOY.encode(), "a,1,1,3\na,2,1,3", 1,
            "stats row 3: duplicate category 'a'", id="repeated-stats-category",
        ),
        pytest.param(
            ("nested", "--group-col", "institutions"), DUPLICATE_ACROSS_GROUPS, None, 1,
            "duplicate publication id 'p1'", id="duplicate-id-across-groups-nested",
        ),
        pytest.param(
            ("nested", "--group-col", "institutions", "--strict-groups"), UNGROUPED, None, 1,
            "publication 'p2' carries no group label", id="missing-group-label-strict-nested",
        ),
    ],
)
def test_bad_input_exits_with_one_line(tmp_path, capsys, argv, data, ref_stats, exit_code, message):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    out_path = tmp_path / "out"
    argv = [*argv, "--input", str(path), "--out", str(out_path)]
    if ref_stats is not None:
        (tmp_path / "ref.csv").write_text(f"category,mean,variance,n\n{ref_stats}\n")
        argv += ["--ref-stats", str(tmp_path / "ref.csv")]
    code, out, err = run(capsys, *argv)
    lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
    assert (code, out) == (exit_code, "")
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert not out_path.exists()


# --- the exit-code contract: 2 for a ComputeError, 1 for any other failure ------------

# (the type a command raises, its command line, the input table or None for a
# missing input file, the --ref-stats rows or None)
EXIT_CODES = [
    (errors.BadEncoding, ("compute", "--index", "x"), NON_UTF8, None),
    (errors.MissingColumn, ("compute", "--index", "x"), b"id,keywords\np1,a\n", None),
    (errors.BadCitations, ("compute", "--index", "x"), DIGIT_SEPARATOR, None),
    (errors.MalformedRow, ("compute", "--index", "x"), b"id,citations\np1,1,2\n", None),
    (errors.AmbiguousSeparator, ("compute", "--index", "x"), b"id,citations\tkeywords\np1,1\n", None),
    (errors.InvalidConfig, ("compute", "--index", "x", "--cell-delimiter", ""), TOY.encode(), None),
    (errors.InvalidConfig, ("nested",), TOY.encode(), None),
    (errors.BadStatsRow, ("compute", "--index", "xdfn"), TOY.encode(), "a,x,1,3"),
    (errors.DuplicateId, ("stats",), b"id,citations\np1,1\np1,2\n", None),
    (errors.MissingGroupLabel, ("nested", "--group-col", "institutions", "--strict-groups"), UNGROUPED, None),
    (errors.MissingStats, ("compute", "--index", "ivw"), TOY.encode(), None),
    (errors.MissingStats, ("compute", "--index", "xdfn"), TOY.encode(), "a,1,1,3"),
    (
        errors.NonPositiveMean,
        ("compute", "--index", "xdfn", "--internal-stats"),
        b"id,citations,categories\np1,0,a\n",
        None,
    ),
    (errors.NonPositiveMean, ("compute", "--index", "ivw"), TOY.encode(), "a,0,1,3"),
    (errors.ZeroOrMissingVariance, ("compute", "--index", "ivw", "--internal-stats"), TOY.encode(), None),
    (errors.NonFiniteWeight, ("nested", "--group-col", "institutions"), OVERFLOW.encode(), None),
    (errors.NonFiniteStats, ("stats",), SPREAD_OVERFLOW, None),
    (
        errors.RankBasisUnsupported,
        ("compute", "--index", "ivw", "--type", "g", "--internal-stats"),
        TOY.encode(),
        None,
    ),
    (FileNotFoundError, ("compute", "--index", "x"), None, None),
    (FileNotFoundError, ("compute", "--index", "x", "--out", ""), TOY.encode(), None),
    (FileNotFoundError, ("nested", "--group-col", "institutions", "--out", ""), TOY.encode(), None),
]

# Error types no command line reaches, each with the reason.
UNREACHABLE = {
    errors.NegativeCitations: "ingest raises BadCitations for a negative count first",
    errors.NonFiniteCitations: "ingest raises BadCitations for a count that is not finite first",
}


def test_exit_code_table_covers_every_error_type():
    leaves = {
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.XIndicesError) and not cls.__subclasses__()
    }
    tabled = {raised for raised, *_ in EXIT_CODES if issubclass(raised, errors.XIndicesError)}
    assert tabled | set(UNREACHABLE) == leaves
    assert not tabled & set(UNREACHABLE)


@pytest.mark.parametrize(
    "raised, argv, data, ref_stats",
    EXIT_CODES,
    ids=[f"{raised.__name__}-{' '.join(argv)}" for raised, argv, *_ in EXIT_CODES],
)
def test_each_failure_exits_by_its_type(tmp_path, capsys, raised, argv, data, ref_stats):
    path = tmp_path / "in.csv"
    if data is not None:
        path.write_bytes(data)
    argv = [*argv, "--input", str(path)]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    if ref_stats is not None:
        (tmp_path / "ref.csv").write_text(f"category,mean,variance,n\n{ref_stats}\n")
        argv += ["--ref-stats", str(tmp_path / "ref.csv")]
    args = xindices.cli.build_parser().parse_args(argv)
    with pytest.raises(raised) as caught:
        args.func(args)
    assert type(caught.value) is raised
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2 if issubclass(raised, errors.ComputeError) else 1, "")
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
    assert lines == [f"error: {caught.value}"]


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--index", "x"),
        ("nested", "--group-col", "institutions"),
        ("stats",),
    ],
)
def test_unwritable_out_exit_1(toy_csv, tmp_path, capsys, argv):
    target = tmp_path / "missing-dir" / "report"
    code, out, err = run(capsys, *argv, "--input", toy_csv, "--out", str(target))
    lines = err.splitlines()  # stats warns only once its file is written
    assert (code, out) == (1, "")
    assert len(lines) == 1 and lines[0].startswith("error: ") and "missing-dir" in lines[0]


class FullDisk(io.StringIO):
    """A text stream that takes room writes, then fails as a full disk does."""

    def __init__(self, room):
        super().__init__()
        self.room = room

    def write(self, text):
        if self.room == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= 1
        return super().write(text)


WRITE_FAILURE_COMMANDS = [
    *(("compute", "--index", "xc", "--format", fmt) for fmt in ("json", "csv", "table")),
    ("nested", "--group-col", "institutions"),
]


@pytest.mark.parametrize("argv", [*WRITE_FAILURE_COMMANDS, ("validate",)], ids=" ".join)
def test_failed_stdout_write_is_one_error_line(toy_csv, capsys, monkeypatch, argv):
    # validate writes its report in one call; the others fail partway,
    # after their first write went through.
    sink = FullDisk(room=0 if argv[0] == "validate" else 1)
    monkeypatch.setattr(sys, "stdout", sink)
    code = main([*argv, "--input", toy_csv])
    err = capsys.readouterr().err
    assert (code, err) == (1, "error: [Errno 28] No space left on device\n")
    assert sink.room == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", WRITE_FAILURE_COMMANDS, ids=" ".join)
def test_failed_out_write_is_one_error_line(toy_csv, capsys, argv):
    code, out, err = run(capsys, *argv, "--input", toy_csv, "--out", "/dev/full")
    assert (code, out, err) == (1, "", "error: [Errno 28] No space left on device\n")


@pytest.fixture(scope="module")
def big_csv(tmp_path_factory):
    """A table whose reports are larger than a pipe's or a stream's buffer."""
    path = tmp_path_factory.mktemp("big") / "big.csv"
    _synthetic_csv(path, 2_000, 4, 400, 30, 50, seed=2026)
    return str(path)


def _spawn(argv, **kwargs):
    """xindex argv in a fresh interpreter with its default, buffered
    stdout: a failed write can then stay buffered until exit."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    launch = "import sys; from xindices.cli import main; sys.exit(main())"
    return subprocess.Popen([sys.executable, "-c", launch, *argv], env=env, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("table", ["toy", "big"])
def test_report_to_full_device_exits_1_without_traceback(toy_csv, big_csv, table, fmt):
    # The toy report fits the stream buffer, so only the final flush fails.
    path = toy_csv if table == "toy" else big_csv
    with open("/dev/full", "wb") as full:
        proc = _spawn(["compute", "--index", "xc", "--format", fmt, "--input", path], stdout=full)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err.decode()) == (1, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_to_closed_pipe_exits_1_without_traceback(big_csv, fmt):
    proc = _spawn(["compute", "--index", "xc", "--format", fmt, "--input", big_csv], stdout=subprocess.PIPE)
    proc.stdout.close()  # the report is larger than the pipe buffer
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err.decode()) == (1, "error: [Errno 32] Broken pipe\n")


# Each command that reads --input -, and each that writes its report to stdout.
STDIN_COMMANDS = [
    ("compute", "--index", "x"),
    ("nested", "--group-col", "institutions"),
    ("stats", "--out", os.devnull),
    ("validate",),
]
STDOUT_COMMANDS = [("compute", "--index", "x", "--format", fmt) for fmt in ("json", "csv", "table")] + [("validate",)]
STREAM_CASES = (
    [("stdin-closed", argv) for argv in STDIN_COMMANDS]
    + [("stdout-closed", argv) for argv in STDOUT_COMMANDS]
    + [("stdout-ascii", argv) for argv in STDOUT_COMMANDS]
)


@pytest.mark.parametrize("case, argv", STREAM_CASES, ids=[f"{case}-{' '.join(argv)}" for case, argv in STREAM_CASES])
def test_closed_or_unencodable_stream_is_one_error_line(tmp_path, monkeypatch, case, argv):
    path = tmp_path / "in.csv"
    # a keyword and a category outside ASCII, for compute and validate
    path.write_text("id,citations,keywords,categories,institutions\np1,3,caf\u00e9,ci\u00eancia,I1\np2,2,b,c,I2\n")
    kwargs = {"stdout": subprocess.DEVNULL}
    if case == "stdin-closed":
        argv = [*argv, "--input", "-"]
        kwargs["preexec_fn"] = lambda: os.close(0)
    else:
        argv = [*argv, "--input", str(path)]
        if case == "stdout-closed":
            kwargs = {"preexec_fn": lambda: os.close(1)}
        else:
            monkeypatch.setenv("PYTHONIOENCODING", "ascii")
    proc = _spawn(argv, **kwargs)
    _, err = proc.communicate(timeout=60)
    err = err.decode()
    assert proc.returncode == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def _close_stderr():
    os.close(2)


def _read_only_stderr():
    # the descriptor stays open, but every write to it fails
    os.close(2)
    os.open(os.devnull, os.O_RDONLY)


# Each command with its exit code, on a one-row table (xdfn has no stats,
# stats warns of the small sample) or one with a repeated id (validate).
UNWRITABLE_STDERR_CASES = [
    (("compute", "--index", "xdfn"), 2),
    (("stats",), 0),
    (("validate",), 1),
]


@pytest.mark.parametrize("stderr_setup", [_close_stderr, _read_only_stderr], ids=["closed", "read-only"])
@pytest.mark.parametrize("argv, code", UNWRITABLE_STDERR_CASES, ids=[argv[0] for argv, _ in UNWRITABLE_STDERR_CASES])
def test_unwritable_stderr_keeps_exit_code_and_output(tmp_path, stderr_setup, argv, code):
    path = tmp_path / "in.csv"
    rows = "p1,3,a,c,I1\np1,2,b,c,I2\n" if argv[0] == "validate" else "p1,3,a,c,I1\n"
    path.write_text("id,citations,keywords,categories,institutions\n" + rows)
    runs = []
    for setup in (None, stderr_setup):
        out_file = tmp_path / f"stats-{len(runs)}.csv"
        extra = ["--out", str(out_file)] if argv[0] == "stats" else []
        proc = _spawn([*argv, "--input", str(path), *extra], stdout=subprocess.PIPE, preexec_fn=setup)
        out, err = proc.communicate(timeout=60)
        written = out_file.read_bytes() if extra else None
        runs.append((proc.returncode, out, written))
        if setup is None:
            assert err  # the message the closed stderr drops
    assert runs[0][0] == code
    assert runs[1] == runs[0]


def test_missing_stderr_keeps_exit_code_and_stdout_empty(tmp_path, capsys, monkeypatch):
    path = tmp_path / "one.csv"
    path.write_text("id,citations,keywords,categories,institutions\np1,3,a,c,I1\n")
    monkeypatch.setattr(sys, "stderr", None)
    code = main(["compute", "--index", "xdfn", "--input", str(path)])
    assert (code, capsys.readouterr().out) == (2, "")


def test_byte_order_mark_on_header_is_dropped(tmp_path, capsys):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbf" + TOY.encode())
    code, out, _ = run(capsys, "compute", "--input", str(path), "--index", "xd")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_jobs_flag_accepted_and_output_unchanged(toy_csv, capsys):
    serial = run(capsys, "nested", "--input", toy_csv, "--group-col", "institutions")
    assert run(capsys, "nested", "--input", toy_csv, "--group-col", "institutions", "--jobs", "2") == serial


TWO_ROWS = "id,citations,keywords,categories,institutions\np1,3,a,C1,I1\np2,5,b,C2,I2\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("compute", "--index", "ivw", "--internal-stats", "--variance-floor", "-1"),
            "--variance-floor", id="negative-floor",
        ),
        pytest.param(
            ("compute", "--index", "ivw", "--internal-stats", "--variance-floor", "nan"),
            "--variance-floor", id="nan-floor",
        ),
        pytest.param(
            ("compute", "--index", "ivw", "--internal-stats", "--variance-floor", "inf"),
            "--variance-floor", id="infinite-floor",
        ),
        pytest.param(
            ("compute", "--index", "x", "--cell-delimiter", ""), "cell delimiter", id="empty-delimiter-compute"
        ),
        pytest.param(
            ("nested", "--group-col", "institutions", "--cell-delimiter", ""), "cell delimiter",
            id="empty-delimiter-nested",
        ),
        pytest.param(("stats", "--cell-delimiter", ""), "cell delimiter", id="empty-delimiter-stats"),
        pytest.param(("validate", "--cell-delimiter", ""), "cell delimiter", id="empty-delimiter-validate"),
        pytest.param(
            ("compute", "--index", "x", "--id-col", "citations", "--citations-col", "citations"),
            "column 'citations' is mapped to both id and citations", id="id-column-is-citations-column",
        ),
        pytest.param(
            ("stats", "--keywords-col", "id"), "column 'id' is mapped to both id and keywords",
            id="keywords-column-is-id-column",
        ),
        pytest.param(
            ("validate", "--citations-col", "institutions"),
            "column 'institutions' is mapped to both citations and institutions",
            id="citations-column-is-institutions-column",
        ),
        pytest.param(("nested", "--group-col", "institutions", "--jobs", "-3"), "--jobs", id="negative-jobs"),
        pytest.param(("compute", "--index", "xo", "--jobs", "0"), "--jobs", id="zero-jobs"),
    ],
)
def test_bad_flag_value_exits_1_with_one_line(tmp_path, capsys, argv, message):
    path = tmp_path / "in.csv"
    path.write_text(TWO_ROWS)
    out_path = tmp_path / "out"
    argv = [*argv, "--input", str(path)]
    if argv[0] != "validate":
        argv += ["--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_group_column_may_name_a_record_column(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text(TWO_ROWS)
    code, out, err = run(capsys, "nested", "--input", str(path), "--group-col", "id", "--inner", "xd")
    assert (code, err) == (0, "")
    assert [row["label"] for row in json.loads(out)["table"]] == ["p1", "p2"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("compute", "--input", "in.csv", "--index", "nope"), id="bad-choice"),
        pytest.param(("compute", "--input", "in.csv", "--index", "x", "--nope"), id="unknown-flag"),
        pytest.param(("compute", "--index", "x"), id="missing-required-flag"),
        pytest.param(
            ("compute", "--input", "in.csv", "--index", "ivw", "--variance-floor", "tiny"), id="not-a-number"
        ),
        pytest.param(("nested", "--input", "in.csv", "--jobs", "two"), id="not-an-integer"),
        pytest.param(("stats", "--input", "in.csv"), id="missing-stats-out"),
        pytest.param((), id="no-command"),
    ],
)
def test_usage_error_exits_1_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exit_info.value.code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_commands_load_only_the_modules_they_use():
    assert import_check.problems() == []


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--index", "x"),
        ("compute", "--index", "xc", "--format", "csv"),
        ("compute", "--index", "xd", "--type", "g"),
        ("compute", "--index", "xdf"),
        ("compute", "--index", "xdfn", "--internal-stats"),
        ("compute", "--index", "ivw", "--internal-stats", "--variance-floor", "0.5"),
        ("compute", "--index", "xo", "--format", "table"),
        ("nested", "--group-col", "institutions"),
        ("nested", "--group-col", "institutions", "--inner", "xd", "--type", "g"),
        ("stats",),
        ("validate",),
    ],
)
def test_commands_build_no_publication_record(toy_csv, tmp_path, capsys, monkeypatch, argv):
    def refuse(table):
        raise AssertionError("TableData.records was read")

    # records is a per-publication list kept for perfbench/spans.py alone
    monkeypatch.setattr(TableData, "records", property(refuse))
    out = () if argv[0] == "validate" else ("--out", str(tmp_path / "out"))
    code, _, err = run(capsys, *argv, "--input", toy_csv, *out)
    assert code == 0, err


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "argv, field",
    [
        (("compute", "--index", "x"), "keywords"),
        (("compute", "--index", "xc"), "categories"),
        (("compute", "--index", "xd"), "categories"),
        (("compute", "--index", "xdf"), "institutions"),
        (("compute", "--index", "xo"), "keywords"),
        (("nested", "--group-col", "g", "--inner", "xd"), "categories"),
    ],
    ids=["x", "xc", "xd", "xdf", "xo", "nested-xd"],
)
def test_absent_read_column_warns(tmp_path, capsys, argv, field, fmt):
    """One warning for a label column the index reads that the header
    lacks, naming the header looked for; none for the absent columns it
    does not read, and none for the read columns present."""
    read = INDEX_FIELDS[argv[-1]]
    renamed = {name: name.title() for name in LABEL_FIELDS if name == field or name not in read}
    header = ["id", "citations", *(renamed.get(name, name) for name in LABEL_FIELDS), "g"]
    path = tmp_path / "pubs.csv"
    path.write_text(",".join(header) + "\np1,3,a,c1,i1,g1\np2,2,b,c2,i2,g1\n")
    code, out, err = run(capsys, *argv, "--input", str(path), "--format", fmt)
    assert (code, err) == (0, "")
    warning = f"the header has no {field} column '{field}'; every publication is read with no {field}"
    if fmt == "json":
        assert json.loads(out)["warnings"] == [warning]
    else:
        assert [line for line in out.splitlines() if line.startswith("warning:")] == [f"warning: {warning}"]


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize(
    "argv, exit_code",
    [
        pytest.param(("compute", "--index", "x"), 0, id="report"),
        pytest.param(("compute", "--index", "ivw"), 2, id="compute-error"),
        pytest.param(("compute", "--index", "x", "--cell-delimiter", ""), 1, id="flag-error"),
        pytest.param(("--version",), "exit", id="version"),
        pytest.param(("compute", "--index", "nope"), "exit", id="bad-choice"),
    ],
)
def test_main_restores_collector_state(toy_csv, tmp_path, capsys, monkeypatch, collecting, argv, exit_code):
    seen = []
    read_input = xindices.cli._read_input

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return read_input(*args, **kwargs)

    monkeypatch.setattr(xindices.cli, "_read_input", spy)
    argv = [*argv, "--input", toy_csv, "--out", str(tmp_path / "out")] if len(argv) > 1 else list(argv)
    before = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        if exit_code == "exit":
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == exit_code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    assert seen == ([False] if exit_code in (0, 2) else [])  # off while the input is read
    capsys.readouterr()


# --- the whole flag surface ---------------------------------------------------------

PARSER = xindices.cli.build_parser()
SUBCOMMANDS = next(
    action for action in PARSER._actions if isinstance(action, argparse._SubParsersAction)
).choices
# Flags that name a file, each given a valid file, a missing path or a directory, never -.
FILE_FLAGS = {"input": "table.csv", "ref_stats": "stats.csv", "out": "written"}
HOSTILE = ["nan", "inf", "-0", "1e400", ""]
HEADERS = ["id", "citations", "keywords", "categories", "institutions"]
# ids repeat when --id-col names the keywords column, so validate reports errors
FLAG_TABLE = TOY + "p5,0,alpha,A;B,I2;I3\n"
FLAG_STATS = "category,mean,variance,n\na,4.5,2,2\nb,3,1,1\n"
# A second valid --input, whose citation total for category a overflows the float range.
FLAG_OVERFLOW = "overflow.csv"
FLAG_OVERFLOW_TABLE = "id,citations,keywords,categories,institutions\np1,1.7e308,alpha,A,I1\np2,1.7e308,alpha,A,I2\n"


def test_flag_tables_cover_every_file_flag():
    dests = {action.dest for sub in SUBCOMMANDS.values() for action in sub._actions}
    assert set(FILE_FLAGS) <= dests


@pytest.fixture(scope="module")
def flag_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("flags")
    (work / FILE_FLAGS["input"]).write_text(FLAG_TABLE)
    (work / FILE_FLAGS["ref_stats"]).write_text(FLAG_STATS)
    (work / FLAG_OVERFLOW).write_text(FLAG_OVERFLOW_TABLE)
    (work / "directory").mkdir()
    return work


def plain_value(action):
    """A value of the flag's type: a number, a column header (its own role's
    header half the time), or a cell delimiter."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.sampled_from(["1", "2"])
    if action.type is float:
        return st.sampled_from(["0.5", "1e-9"])
    if action.dest.endswith("_col"):
        own = action.dest[: -len("_col")]
        return st.one_of(st.just(own if own in HEADERS else "institutions"), st.sampled_from(HEADERS))
    return st.sampled_from([";", "|", ","])


def flag_value(draw, action, work):
    """For a file flag, a valid file (for --input, either valid table), a
    missing path or a directory; else a plain value, or a hostile one a
    draw in eight."""
    if action.dest in FILE_FLAGS:
        paths = [work / FILE_FLAGS[action.dest], work / "missing" / "file", work / "directory"]
        if action.dest == "input":
            paths.append(work / FLAG_OVERFLOW)
        return str(draw(st.sampled_from(paths)))
    odd = draw(st.integers(0, 7)) == 7
    return draw(st.sampled_from(HOSTILE) if odd else plain_value(action))


@st.composite
def command_lines(draw, work):
    """A subcommand and a draw of its flags in any order. A required flag
    is left out one draw in ten, an optional one given one draw in three."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    flags = []
    for action in SUBCOMMANDS[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        given = [True] * 9 + [False] if action.required else [True, False, False]
        if draw(st.sampled_from(given)):
            flag = [action.option_strings[0]]
            if action.nargs != 0:
                flag.append(flag_value(draw, action, work))
            flags.append(flag)
    flags = draw(st.permutations(flags))
    return [name, *(part for flag in flags for part in flag)]


def run_in_process(argv, out_path):
    """(exit code, stdout, stderr, --out bytes or None) of main(argv); an
    exception other than SystemExit is returned as its traceback."""
    if out_path.is_file():
        out_path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            stderr.write(traceback.format_exc())
    written = out_path.read_bytes() if out_path.is_file() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_any_flag_draw_ends_in_a_report_or_one_error_line(flag_dir, data):
    argv = data.draw(command_lines(flag_dir))
    out_path = flag_dir / FILE_FLAGS["out"]
    code, _, err, _ = first = run_in_process(argv, out_path)
    assert "Traceback" not in err, err
    assert run_in_process(argv, out_path) == first
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 0:
        assert errors == []
        return
    # README: 1 for usage errors, bad flag values, unreadable files and
    # input failures; 2 for computation failures, which need a read input
    assert code in (1, 2)
    input_path = argv[argv.index("--input") + 1] if "--input" in argv else None
    if input_path not in (str(flag_dir / FILE_FLAGS["input"]), str(flag_dir / FLAG_OVERFLOW)):
        assert code == 1
    if code == 2:
        assert argv[0] in ("compute", "nested", "stats")
    assert len(errors) == 1, err


# --- hostile precision -----------------------------------------------------------

HOSTILE_HEADER = "id,citations,keywords,categories\n"


def timed_run(capsys, path, *argv):
    """main on the table at path, as (exit code, stdout, stderr); a run
    over 5 s fails, since an unbounded scale would take far longer."""
    start = time.perf_counter()
    result = run(capsys, *argv, "--input", str(path))
    assert time.perf_counter() - start < 5
    return result


@pytest.mark.parametrize(
    "cell, exact",
    [("1e-100000", "0"), ("0." + "3" * 100_000, "0." + "3" * 340)],
    ids=["exponent-1e-100000", "100000-decimals"],
)
def test_a_cell_is_read_to_340_places(tmp_path, capsys, cell, exact):
    path = tmp_path / "in.csv"
    path.write_text(f"{HOSTILE_HEADER}p1,{cell},a,c\np2,2.5,a,c\n")
    code, out, err = timed_run(capsys, path, "compute", "--index", "x", "--format", "csv")
    weight = format_number(float(Fraction(exact) + Fraction(5, 2)))
    assert (code, out, err) == (0, f"rank,label,weight,ratio\n1,a,{weight},{weight}\n", "")


def test_one_long_cell_in_a_large_table_keeps_totals_exact(tmp_path, capsys):
    path = tmp_path / "in.csv"
    _synthetic_csv(path, 25_000, 4, 5_000, 150, 500, seed=33, decimal=True)
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[1] = "1." + "7" * 1_000
    rows = [cells, *(row.split(",") for row in rest)]
    path.write_text("\n".join([header, *map(",".join, rows)]) + "\n")
    code, out, err = timed_run(capsys, path, "compute", "--index", "xd", "--format", "csv")
    assert (code, err) == (0, "")
    totals: dict[str, Fraction] = {}
    for row in rows:
        for category in dict.fromkeys(row[3].split(";")):
            totals[category] = totals.get(category, 0) + round(Fraction(row[1]), 340)
    weights = {label: weight for _, label, weight, _ in csv.reader(io.StringIO(out))}
    assert weights.pop("label") == "weight"
    assert weights == {label: format_number(float(total)) for label, total in totals.items()}


@pytest.mark.parametrize("decimal", [False, True], ids=["integral", "two-decimal"])
def test_xdfn_ref_stats_prints_tied_weights_in_label_order(tmp_path, capsys, decimal):
    # Each category total over the mean stats wrote for it lies within a few
    # ulps of the category's publication count, so distinct exact scores
    # often print alike; the report must still list those rows by label.
    path, stats = tmp_path / "in.csv", tmp_path / "stats.csv"
    _synthetic_csv(path, 2_000, 4, 400, 30, 50, seed=2027, decimal=decimal)
    assert run(capsys, "stats", "--input", str(path), "--out", str(stats))[0] == 0
    code, out, err = run(
        capsys, "compute", "--index", "xdfn", "--ref-stats", str(stats), "--input", str(path), "--format", "csv"
    )
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    tied = [(above[1], below[1]) for above, below in zip(rows, rows[1:]) if above[2] == below[2]]
    assert tied  # the table holds printed ties
    assert [pair for pair in tied if pair[0] > pair[1]] == []
    # each score is rounded once, so each h ratio is its printed weight over
    # its rank, correctly rounded, not the exact score's quotient
    assert [row for row in rows if float(row[3]) != float(row[2]) / int(row[0])] == []


def test_stats_on_subnormal_counts(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text(f"{HOSTILE_HEADER}p1,1e-320,,c\np2,4e-324,,c\n")
    out_path = tmp_path / "stats.csv"
    code, out, err = timed_run(capsys, path, "stats", "--out", str(out_path))
    assert (code, out) == (0, "")
    assert err.startswith("warning: category c has 2 publications")
    # the exact mean, 5.002e-321, rounds to the subnormal float 5e-321
    assert out_path.read_text() == "category,mean,variance,n\nc,5e-321,0,2\n"
