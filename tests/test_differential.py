"""Every ranking command on drawn decimal tables, against one exact oracle.

tables() from tests/test_ingest.py draws the table: labels that repeat
across rows, and citation cells with up to 3 decimals, in exponent form,
with a leading + or inside spaces, after an optional BOM, and rarely a
field too large to read. Each command runs through main in process. The
row-wise oracles of tests/oracles.py compute each label's exact Fraction
total from the raw cell texts; xdfn and weighted ivw rank each category's
score instead, its exact total over its mean or variance rounded once
(scores()), and raw ivw's ratios and first crossing are read off the
rounded totals and the variances (raw_ivw()). ivw divides by the variance
the stats file prints, or by the exact sample variance rounded once
(variances()). A table that does not read must fail as the reference
reader does, and a stats check as its rule says. The
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
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import pathlib
from fractions import Fraction

import jsonschema
from hypothesis import example, given, settings, strategies as st

from xindices import IngestConfig
from xindices.cli import main
from xindices.errors import NonPositiveMean, RankBasisUnsupported, XIndicesError, ZeroOrMissingVariance

from conftest import records_of
from oracles import naive_g_oracle, naive_h_oracle, reference_read_table, reference_views, rounded
from test_ingest import tables

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
    ties by label; each ratio the rounded total over the category's
    variance (variances()) times the rank; the value the number of ratios
    before the first below 1."""
    variance = variances(argv, views)
    rows = []
    for r, (label, total) in enumerate(sorted(views["categories"], key=lambda item: (-rounded(item[1]), item[0])), 1):
        rows.append([label, rounded(total), rounded(total) / (variance[label] * r)])
    return next((r for r, row in enumerate(rows) if row[2] < 1), len(rows)), rows


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
    separator = "\t" if "\t" in text.split("\n", 1)[0] else ","
    rows = list(csv.reader(io.StringIO(text, newline=""), delimiter=separator))
    out = io.StringIO()
    csv.writer(out, delimiter=separator, lineterminator="\n").writerows([rows[0], *reversed(rows[1:])])
    return out.getvalue().encode("utf-8")


@settings(max_examples=300, deadline=None)
@example(  # pairs whose labels coincide stay two items
    (b"id,citations,keywords,categories\np1,0.1,a@b,c\np2,0.2,a,b@c\np3,0.3,a@b,c\n", IngestConfig()),
    ("compute", "--index", "xc"),
    "g",
)
@example(  # 4.02 + 3.03 + 1.95 is exactly 3**2, though their floats sum below it: g is 3
    (b"id,citations,categories\np1,4.02,a\np2,3.03,b\np3,1.95,c\n", IngestConfig()),
    ("compute", "--index", "xd"),
    "g",
)
@example(  # 0.1 over the mean stats writes, the float 0.1, lies below 1 but rounds to 1: h is 1
    (b"id,citations,categories\np1,0.1,a\n", IngestConfig()),
    ("compute", "--index", "xdfn", "--ref-stats", STATS_FILE),
    "h",
)
@example(  # categories both weighted and grouped by: one split, its repeats dropped
    (b"id,citations,categories\np1,3,A;a;B\np2,2,b\np3,1,\n", IngestConfig()),
    ("nested", "--group-col", "categories", "--inner", "xd"),
    "g",
)
@example(  # c and a are cited 0 times; strict xdfn names a, the first in label order
    (b"id,citations,categories\np1,1,b\np2,0,c\np3,0,a\n", IngestConfig()),
    ("compute", "--index", "xdfn", "--internal-stats"),
    "h",
)
@example(  # the stats file loads before raw ivw rejects g, so its mean 0 is named
    (b"id,citations,categories\np1,1,b\np2,0,a\n", IngestConfig()),
    ("compute", "--index", "ivw", "--ref-stats", STATS_FILE, "--variance-floor", "0.5"),
    "g",
)
@example(  # ratios 9/(0.5*1) and 7/(0.5*2), undefined variances floored, then 5/(4.5*3),
    # which prints ...35, where 5/4.5/3 prints ...4: h is 2
    (b"id,citations,categories\np1,9,a\np2,7,b\np3,1,c\np4,4,c\n", IngestConfig()),
    ("compute", "--index", "ivw", "--ref-stats", STATS_FILE, "--variance-floor", "0.5"),
    "h",
)
@example(  # a's total 1.7 over its variance 1.445, rounded once, prints ...42; 1.7 / 1.445 prints ...4
    (b"id,citations,categories\np1,0,a\np2,1.7,a\n", IngestConfig()),
    ("compute", "--index", "ivw", "--rank-basis", "weighted", "--internal-stats", "--variance-floor", "0.5"),
    "h",
)
@example(  # no floor, every variance 2: ratios 6/(2*1) and 4/(2*2), h is 2
    (b"id,citations,categories\np1,3,a\np2,1,a\np3,2,b\np4,4,b\n", IngestConfig()),
    ("compute", "--index", "ivw", "--ref-stats", STATS_FILE),
    "h",
)
@given(tables(part=PARTS), st.sampled_from(COMMANDS), st.sampled_from(["h", "g"]))
def test_reports_carry_exact_totals_in_any_row_order(tmp_path_factory, table, command, ratio_type):
    data, config = table
    path = tmp_path_factory.mktemp("table") / "in.csv"
    flags = ["--cell-delimiter", config.cell_delimiter]
    flags += ["--no-case-fold"] * (not config.case_fold) + ["--no-trim"] * (not config.trim)
    argv = [*command, "--type", ratio_type, *flags]
    if STATS_FILE in argv:
        stats = path.with_name(STATS_FILE)
        argv[argv.index(STATS_FILE)] = str(stats)
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(["stats", "--input", str(path), "--out", str(stats), *flags])
    want_code, want = expected(argv, data, config)
    outputs = []
    # the row a read fails on moves with the row order, so only tables that
    # read are also run with their rows reversed
    for rows in (data,) if want_code == 1 else (data, reversed_rows(data)):
        path.write_bytes(rows)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--input", str(path)])
        outputs.append((code, out.getvalue(), err.getvalue()))
    assert outputs[0] == outputs[-1]
    code, out, err = outputs[0]
    assert code == want_code
    if code:
        assert err == want
        return
    report = json.loads(out)
    validate_report(report)
    assert (report["value"], [[row["label"], row["weight"], row["ratio"]] for row in report["table"]]) == want
    for above, below in zip(report["table"], report["table"][1:]):  # printed ties in label order
        assert above["weight"] > below["weight"] or above["label"] <= below["label"]
    value, rows = printed("json", out)
    path.write_bytes(data)
    for fmt in ("csv", "table"):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, "--input", str(path), "--format", fmt]) == 0
        fmt_value, fmt_rows = printed(fmt, text.getvalue())
        if fmt == "table":
            assert fmt_value == value
            width = max((len(row[1]) for row in rows), default=0)
            rows = [[rank, label.ljust(max(width, len("label"))), weight, ratio] for rank, label, weight, ratio in rows]
        assert fmt_rows == rows
