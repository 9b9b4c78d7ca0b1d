"""Every ranking command, and stats, on drawn decimal tables, against one
exact oracle.

tables() from tests/test_ingest.py draws the table: labels that repeat
across rows, and citation cells with up to 3 decimals, in exponent form,
with a leading + or inside spaces, after an optional BOM, and rarely a
field too large to read. The table is drawn for its command
(command_tables()): a nested command's group column is always there, and
so is the categories column of xdfn, ivw and stats, whose citation cells
are often 0 or 1, so that a category cited 0 times or with equal counts is
common. Each (command, ratio type) pair draws the same share of the
tables, 10 each, and the hand-worked tables of HAND_CASES run beside them.
Each command runs through main in process, and records its exit code as
an event for --hypothesis-show-statistics. The row-wise oracles of
tests/oracles.py compute each label's exact Fraction total from the raw
cell texts; xdfn and weighted ivw rank each category's score instead, its
exact total over its mean or variance rounded once (scores()), and raw
ivw's ratio at rank r is its exact total over its variance times r,
rounded once, and its value the exact first crossing (raw_ivw()). ivw
divides by the variance the stats file prints, or by the exact sample
variance rounded once (variances()). A table that does not read must fail
as the reference reader does, and a stats check as its rule says. The
report must carry the index value that the brute-force oracles give over
those exact totals;
rows ranked by the floats the totals round to, ties by label, so adjacent
rows whose weights print alike are in label order; for every row, the
float its exact total rounds to as its weight, and the correctly rounded
exact ratio: its total over its rank r (h), or the exact cumulative total
of rows 1..r over r**2 (g); the same bytes when the data rows come in
reverse order; and, in csv and table format, the same rank, label, weight
and ratio texts, and in table format the same value text, as the json
report, which must also validate against schema/report.schema.json.
The stats file must give each category's n, and its mean and sample or
population variance from the exact sums rounded once, in label order,
and the same bytes when the data rows come in reverse order.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import pathlib
import re
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import event, given, settings, strategies as st

from xindices import IngestConfig
from xindices.cli import main
from xindices.errors import NonPositiveMean, RankBasisUnsupported, XIndicesError, ZeroOrMissingVariance

from conftest import records_of
from oracles import naive_g_oracle, naive_h_oracle, reference_read_table, reference_views, rounded
from test_ingest import citation_cells, tables

#: Label parts that repeat across rows, an "@" among them.
PARTS = st.sampled_from(["a", "A", "a@b", "b@c", "c", "Σ ", ""])

SCHEMA = json.loads((pathlib.Path(__file__).resolve().parents[1] / "schema" / "report.schema.json").read_text())
#: Checks a report against SCHEMA, built once for all drawn reports.
validate_report = jsonschema.validators.validator_for(SCHEMA)(SCHEMA).validate

#: The view each compute index ranks.
COMPUTE_VIEWS = {"x": "keywords", "xc": "pairs", "xd": "categories", "xdf": "categories_fractional"}

#: In a command, the path of the stats file that the stats command writes
#: from the same table.
STATS_FILE = "stats.csv"

COMMANDS = [("compute", "--index", index) for index in (*COMPUTE_VIEWS, "xo")] + [
    ("nested", "--group-col", "institutions", "--inner", inner) for inner in ("x", "xd")
] + [
    # one column read as a label field and as the group
    ("nested", "--group-col", "categories", "--inner", "xd"),
    # strict: a category cited 0 times has mean 0
    ("compute", "--index", "xdfn", "--internal-stats"),
    ("compute", "--index", "xdfn", "--internal-stats", "--lenient-stats"),
    ("compute", "--index", "xdfn", "--ref-stats", STATS_FILE),
    ("compute", "--index", "ivw", "--rank-basis", "weighted", "--internal-stats", "--variance-floor", "0.5"),
    ("compute", "--index", "ivw", "--ref-stats", STATS_FILE, "--variance-floor", "0.5"),
    # no floor: a category of one publication, or of equal counts, has no usable variance
    ("compute", "--index", "ivw", "--ref-stats", STATS_FILE),
    ("compute", "--index", "ivw", "--rank-basis", "weighted", "--ref-stats", STATS_FILE),
]

#: Each (command, ratio type) pair, drawn its own share of the tables.
PAIRS = [(command, ratio_type) for command in COMMANDS for ratio_type in ("h", "g")]

#: Citation cells of which half are 0 or 1.
FEW_COUNTS = st.sampled_from(["0", "1"]) | citation_cells()


def command_tables(command: tuple[str, ...]) -> st.SearchStrategy:
    """tables() for one command: with the group column of nested, and with
    the categories column and FEW_COUNTS citations for xdfn and ivw, so
    a category with mean or variance 0 is common."""
    if command[0] == "nested":
        return tables(part=PARTS, required=(command[2],))
    if command[2] in ("xdfn", "ivw"):
        return tables(part=PARTS, required=("categories",), citations=FEW_COUNTS)
    return tables(part=PARTS)


def ranked(items: list[tuple[str, Fraction]], ratio_type: str) -> list[list]:
    """The rows a report lists for items of exact totals: label, weight and
    ratio, by printed weight descending, then label."""
    rows, cumulative = [], 0
    for r, (label, total) in enumerate(sorted(items, key=lambda item: (-rounded(item[1]), item[0])), start=1):
        cumulative += total
        rows.append([label, rounded(total), rounded(total / r if ratio_type == "h" else cumulative / (r * r))])
    return rows


def variances(argv: list[str], views: dict) -> dict[str, float]:
    """Each category's variance as ivw divides by it, in label order: the
    one the stats file prints, or the exact sample variance rounded once;
    under --variance-floor 0.5, one undefined or below 0.5 is 0.5. Loading
    a stats file with a mean-0 category raises NonPositiveMean for the
    first in label order; raw ivw at g then raises RankBasisUnsupported,
    and with no floor the first category in label order whose variance is
    undefined or 0 raises ZeroOrMissingVariance."""
    if "--ref-stats" in argv:
        for label, (_n, s1, _s2) in views["sums"].items():
            if s1 == 0:
                raise NonPositiveMean(label)
        with open(argv[argv.index("--ref-stats") + 1], encoding="utf-8", newline="") as stats:
            variance = {row["category"]: float(row["variance"] or "nan") for row in csv.DictReader(stats)}
    else:
        variance = {
            label: rounded((n * s2 - s1 * s1) / (n * (n - 1))) if n > 1 else math.nan
            for label, (n, s1, s2) in views["sums"].items()
        }
    if "--rank-basis" not in argv and argv[argv.index("--type") + 1] == "g":
        raise RankBasisUnsupported()
    if "--variance-floor" in argv:
        return {label: v if v >= 0.5 else 0.5 for label, v in variance.items()}
    for label, v in variance.items():
        if not v > 0:  # NaN included
            raise ZeroOrMissingVariance(label)
    return variance


def scores(argv: list[str], views: dict) -> list[tuple[str, Fraction]]:
    """Each category's score as a report prints it, from the exact sums:
    for xdfn its total over its mean (internal: the exact mean; from the
    stats file: the mean rounded as stats writes it), for weighted ivw its
    total over its variance (variances()), each quotient exact and rounded
    once. Lenient xdfn leaves out a category with mean 0; strict xdfn, and
    loading a stats file with one, raise NonPositiveMean for the first in
    label order."""
    if argv[2] == "ivw":
        variance = variances(argv, views)
        return [(label, Fraction(rounded(total / Fraction(variance[label])))) for label, total in views["categories"]]
    items = []
    for label, total in views["categories"]:
        n, s1, _s2 = views["sums"][label]
        if s1 == 0:
            if "--lenient-stats" in argv:
                continue
            raise NonPositiveMean(label)
        score = rounded(total / (s1 / n if "--internal-stats" in argv else Fraction(rounded(s1 / n))))
        items.append((label, Fraction(score)))
    return items


def raw_ivw(argv: list[str], views: dict) -> tuple[int, list[list]]:
    """Raw ivw's value and rows: categories by rounded total descending,
    ties by label; each ratio the exact total over the category's variance
    (variances()) times the rank, rounded once; the value the number of
    exact ratios before the first below 1."""
    variance = variances(argv, views)
    rows, ratios = [], []
    for r, (label, total) in enumerate(sorted(views["categories"], key=lambda item: (-rounded(item[1]), item[0])), 1):
        ratios.append(total / (Fraction(variance[label]) * r))
        rows.append([label, rounded(total), rounded(ratios[-1])])
    return next((r for r, ratio in enumerate(ratios) if ratio < 1), len(rows)), rows


def rule(weights: list[Fraction], ratio_type: str) -> int:
    return naive_h_oracle(weights) if ratio_type == "h" else naive_g_oracle(weights)


def expected(argv: list[str], data: bytes, config: IngestConfig) -> tuple[int, object]:
    """(0, (value, rows)) for a report, or (1, error line) for a failed
    read, from the row-wise oracles alone."""
    nested = argv[0] == "nested"
    if nested:
        config = IngestConfig(
            group_column=argv[argv.index("--group-col") + 1],
            cell_delimiter=config.cell_delimiter,
            case_fold=config.case_fold,
            trim=config.trim,
            required_columns=frozenset({"group"}),
        )
    try:
        table = reference_read_table(data, config)
    except XIndicesError as exc:
        return 1, f"error: {exc}\n"
    records = records_of(table.columns)
    ratio_type = argv[argv.index("--type") + 1]
    views = reference_views(records)
    if nested:
        in_group: dict[str, list] = {}
        for rec, groups in zip(records, table.group_values):
            for group in groups or ("(ungrouped)",):
                in_group.setdefault(group, []).append(rec)
        view = "keywords" if argv[argv.index("--inner") + 1] == "x" else "categories"
        items = [
            (group, Fraction(naive_h_oracle([w for _, w in reference_views(members)[view]])))
            for group, members in in_group.items()
        ]
    elif argv[2] in ("xdfn", "ivw"):
        try:
            if argv[2] == "ivw" and "--rank-basis" not in argv:
                return 0, raw_ivw(argv, views)
            items = scores(argv, views)
        except (NonPositiveMean, RankBasisUnsupported, ZeroOrMissingVariance) as exc:
            return 2, f"error: {exc}\n"
    elif argv[2] == "xo":
        by_category = views["keywords_by_category"]
        items = [(cat, Fraction(naive_h_oracle(kws.values()))) for cat, kws in by_category.items()]
    else:
        items = list(views[COMPUTE_VIEWS[argv[2]]])
    return 0, (rule([w for _, w in items], ratio_type), ranked(items, ratio_type))


def printed(fmt: str, out: str) -> tuple[str | None, list[list[str]]]:
    """The value text (None in csv, which prints none) and each table row's
    rank, label, weight and ratio texts, as a report in fmt prints them. A
    table format label is its whole padded cell."""
    if fmt == "json":
        report = json.loads(out, parse_int=str, parse_float=str)
        return report["value"], [[row["rank"], row["label"], row["weight"], row["ratio"]] for row in report["table"]]
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out, newline=""))
        assert header == ["rank", "label", "weight", "ratio"]
        return None, rows
    _title, header, *lines, value = out[:-1].split("\n")
    lines = [line for line in lines if not line.startswith("warning: ")]  # a row starts with its rank
    label, weight, ratio = map(header.index, ("label", "weight", "ratio"))
    rows = [
        [line[:label].rstrip(), line[label : weight - 2], line[weight:ratio].rstrip(), line[ratio:]] for line in lines
    ]
    return value, rows


def reversed_rows(data: bytes) -> bytes:
    """The table with its data rows in reverse order."""
    text = data.decode("utf-8")
    separator = "\t" if "\t" in re.split("[\r\n]", text, maxsplit=1)[0] else ","
    rows = list(csv.reader(io.StringIO(text, newline=""), delimiter=separator))
    out = io.StringIO()
    csv.writer(out, delimiter=separator, lineterminator="\n").writerows([rows[0], *reversed(rows[1:])])
    return out.getvalue().encode("utf-8")


def cli_flags(config: IngestConfig) -> list[str]:
    """The flags that read a table as config says."""
    flags = ["--cell-delimiter", config.cell_delimiter]
    return flags + ["--no-case-fold"] * (not config.case_fold) + ["--no-trim"] * (not config.trim)


def run(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def hand_case(case_id: str, data: bytes, command: tuple[str, ...], ratio_type: str):
    return pytest.param((data, IngestConfig()), command, ratio_type, id=case_id)


#: Hand-worked tables, each with the command and ratio type it runs under.
HAND_CASES = [
    # pairs whose labels coincide stay two items
    hand_case(
        "xc-coinciding-pairs",
        b"id,citations,keywords,categories\np1,0.1,a@b,c\np2,0.2,a,b@c\np3,0.3,a@b,c\n",
        ("compute", "--index", "xc"),
        "g",
    ),
    # 4.02 + 3.03 + 1.95 is exactly 3**2, though their floats sum below it: g is 3
    hand_case(
        "xd-exact-cumulative-total",
        b"id,citations,categories\np1,4.02,a\np2,3.03,b\np3,1.95,c\n",
        ("compute", "--index", "xd"),
        "g",
    ),
    # 0.1 over the mean stats writes, the float 0.1, lies below 1 but rounds to 1: h is 1
    hand_case(
        "xdfn-written-mean",
        b"id,citations,categories\np1,0.1,a\n",
        ("compute", "--index", "xdfn", "--ref-stats", STATS_FILE),
        "h",
    ),
    # categories both weighted and grouped by: one split, its repeats dropped
    hand_case(
        "nested-by-categories",
        b"id,citations,categories\np1,3,A;a;B\np2,2,b\np3,1,\n",
        ("nested", "--group-col", "categories", "--inner", "xd"),
        "g",
    ),
    # c and a are cited 0 times; strict xdfn names a, the first in label order
    hand_case(
        "xdfn-strict-mean-0",
        b"id,citations,categories\np1,1,b\np2,0,c\np3,0,a\n",
        ("compute", "--index", "xdfn", "--internal-stats"),
        "h",
    ),
    # the stats file loads before raw ivw rejects g, so its mean 0 is named
    hand_case(
        "ivw-raw-g-mean-0",
        b"id,citations,categories\np1,1,b\np2,0,a\n",
        ("compute", "--index", "ivw", "--ref-stats", STATS_FILE, "--variance-floor", "0.5"),
        "g",
    ),
    # ratios 9/(0.5*1) and 7/(0.5*2), undefined variances floored, then
    # 5/(4.5*3), which prints ...35, where 5/4.5/3 prints ...4: h is 2
    hand_case(
        "ivw-raw-floored",
        b"id,citations,categories\np1,9,a\np2,7,b\np3,1,c\np4,4,c\n",
        ("compute", "--index", "ivw", "--ref-stats", STATS_FILE, "--variance-floor", "0.5"),
        "h",
    ),
    # a's total 1.7 over its variance 1.445, rounded once, prints ...42; 1.7 / 1.445 prints ...4
    hand_case(
        "ivw-weighted-score",
        b"id,citations,categories\np1,0,a\np2,1.7,a\n",
        ("compute", "--index", "ivw", "--rank-basis", "weighted", "--internal-stats", "--variance-floor", "0.5"),
        "h",
    ),
    # a's exact total 7.3 over its variance, rounded once, prints ...887;
    # the float 7.3 over the variance prints ...88
    hand_case(
        "ivw-raw-ratio",
        b"id,citations,categories\np1,0.3,a\np2,7,a\n",
        ("compute", "--index", "ivw", "--ref-stats", STATS_FILE, "--variance-floor", "0.5"),
        "h",
    ),
    # no floor, every variance 2: ratios 6/(2*1) and 4/(2*2), h is 2
    hand_case(
        "ivw-raw-no-floor",
        b"id,citations,categories\np1,3,a\np2,1,a\np3,2,b\np4,4,b\n",
        ("compute", "--index", "ivw", "--ref-stats", STATS_FILE),
        "h",
    ),
]


def pair_id(command: tuple[str, ...], ratio_type: str) -> str:
    """The test id of a pair: its arguments without leading dashes, joined by _."""
    return "_".join(arg.lstrip("-") for arg in (*command, ratio_type))


@pytest.mark.parametrize(("command", "ratio_type"), PAIRS, ids=[pair_id(*pair) for pair in PAIRS])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_reports_carry_exact_totals_in_any_row_order(tmp_path_factory, data, command, ratio_type):
    code = check_report(tmp_path_factory, data.draw(command_tables(command), label="table"), command, ratio_type)
    event(f"exit {code}")


@pytest.mark.parametrize(("table", "command", "ratio_type"), HAND_CASES)
def test_hand_worked_tables_carry_exact_totals(tmp_path_factory, table, command, ratio_type):
    check_report(tmp_path_factory, table, command, ratio_type)


def check_report(tmp_path_factory, table: tuple[bytes, IngestConfig], command: tuple[str, ...], ratio_type: str) -> int:
    """command at ratio_type on table against expected(), in json, csv and
    table format, and with its data rows reversed; its exit code."""
    data, config = table
    path = tmp_path_factory.mktemp("table") / "in.csv"
    flags = cli_flags(config)
    argv = [*command, "--type", ratio_type, *flags]
    if STATS_FILE in argv:
        stats = path.with_name(STATS_FILE)
        argv[argv.index(STATS_FILE)] = str(stats)
        path.write_bytes(data)
        run(["stats", "--input", str(path), "--out", str(stats), *flags])
    want_code, want = expected(argv, data, config)
    outputs = []
    # the row a read fails on moves with the row order, so only tables that
    # read are also run with their rows reversed
    for rows in (data,) if want_code == 1 else (data, reversed_rows(data)):
        path.write_bytes(rows)
        outputs.append(run([*argv, "--input", str(path)]))
    assert outputs[0] == outputs[-1]
    code, out, err = outputs[0]
    assert code == want_code
    if code:
        assert err == want
        return code
    report = json.loads(out)
    validate_report(report)
    assert (report["value"], [[row["label"], row["weight"], row["ratio"]] for row in report["table"]]) == want
    for above, below in zip(report["table"], report["table"][1:]):  # printed ties in label order
        assert above["weight"] > below["weight"] or above["label"] <= below["label"]
    value, rows = printed("json", out)
    path.write_bytes(data)
    for fmt in ("csv", "table"):
        fmt_code, text, _err = run([*argv, "--input", str(path), "--format", fmt])
        assert fmt_code == 0
        fmt_value, fmt_rows = printed(fmt, text)
        if fmt == "table":
            assert fmt_value == value
            width = max((len(row[1]) for row in rows), default=0)
            rows = [[rank, label.ljust(max(width, len("label"))), weight, ratio] for rank, label, weight, ratio in rows]
        assert fmt_rows == rows
    return code


@settings(max_examples=100, deadline=None)
@given(tables(part=PARTS, required=("categories",), citations=FEW_COUNTS), st.sampled_from(["sample", "population"]))
def test_stats_file_carries_exact_sums_in_any_row_order(tmp_path_factory, table, variance):
    data, config = table
    path = tmp_path_factory.mktemp("table") / "in.csv"
    stats = path.with_name(STATS_FILE)
    argv = ["stats", "--variance", variance, "--input", str(path), "--out", str(stats), *cli_flags(config)]
    try:
        records = records_of(reference_read_table(data, config).columns)
    except XIndicesError as exc:
        path.write_bytes(data)
        assert run(argv) == (1, "", f"error: {exc}\n")
        event(f"stats --variance {variance}: exit 1")
        return
    outputs = []
    for rows in (data, reversed_rows(data)):
        path.write_bytes(rows)
        outputs.append((run(argv), stats.read_bytes()))
    assert outputs[0] == outputs[1]
    (code, out, err), written = outputs[0]
    event(f"stats --variance {variance}: exit {code}")
    assert (code, out) == (0, "")
    want = []
    for label, (n, s1, s2) in reference_views(records)["sums"].items():
        divisor = n * (n - 1) if variance == "sample" else n * n
        want.append([label, rounded(s1 / n), rounded((n * s2 - s1 * s1) / divisor) if divisor else None, n])
    header, *rows = csv.reader(io.StringIO(written.decode("utf-8"), newline=""))
    assert header == ["category", "mean", "variance", "n"]
    assert [[label, float(mean), float(v) if v else None, int(n)] for label, mean, v, n in rows] == want
    assert err == "".join(
        f"warning: category {label} has {n} publications (fewer than 100); estimated variance may not be "
        "robust for inverse-variance weighting\n"
        + f"warning: category {label} has mean 0 and cannot be loaded back as reference stats\n" * (mean == 0)
        for label, mean, _v, n in want
    )
