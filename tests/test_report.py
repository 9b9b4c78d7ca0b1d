"""Report rendering: pinned bytes, the hand-laid JSON against json.dumps, and
streamed writes block by block against the whole-report references."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import xindices.report
from xindices import g_type_index, h_type_index
from xindices.cli import main
from xindices.kernel import INDEX_KINDS
from xindices.numfmt import format_number
from xindices.report import Report

from oracles import report_dict
from test_acceptance import _synthetic_csv

# SHA-256 of `compute --index xc` reports on a 2 000-publication corpus,
# recorded before the column-form kernel and renderer replaced the row-wise
# ones. Report bytes are a promise: a change here needs a CHANGES.md entry.
GOLDEN_XC = {
    ("h", "json"): "96ad9e5b126b9979c8b6dd846977d4b6c6913e23d674383c56d37e594ad91f8e",
    ("h", "csv"): "dc18bb207097b29fc5f56717d3e179479dd81251435b8bc3c339b06ad1ea9533",
    ("h", "table"): "74cfe0a0efdb6cc7081cfacafacb5b444b76e836ea10ba1f48968d83aeb0cf56",
    ("g", "json"): "575d004750d9f7a6d7b37d5a1cea53290f9ddb9369dd3705466c53f40282251f",
}


@pytest.mark.parametrize(("ratio_type", "fmt"), sorted(GOLDEN_XC))
def test_xc_report_bytes_are_pinned(tmp_path, monkeypatch, ratio_type, fmt):
    # Relative paths: the input path is echoed into the json config.
    monkeypatch.chdir(tmp_path)
    _synthetic_csv(tmp_path / "corpus.csv", 2_000, 4, 400, 30, 50, seed=2026)
    code = main(
        [
            "compute", "--input", "corpus.csv", "--index", "xc", "--type", ratio_type,
            "--format", fmt, "--out", "report",
        ]
    )
    assert code == 0
    digest = hashlib.sha256((tmp_path / "report").read_bytes()).hexdigest()
    assert digest == GOLDEN_XC[ratio_type, fmt]


# SHA-256 of the reports of the breadth commands (stats, ivw from that stats
# file, xo, nested) on a 2 000-publication corpus with two-decimal citations,
# recorded before ingest and the corpus views moved to column form. stats
# and ivw were re-recorded when citations came to be read as exact
# decimals: their means and totals lost the residue of float sums (48.157
# for 48.157000000000004), and no other byte moved.
GOLDEN_DECIMAL = {
    "stats.csv": "00adaf901306bd76e9c2a3d883ff7d37cb87af0f5008c3ae38dabfafd635c0fe",
    "ivw.csv": "a55fc19999625d0581c931a0c6c780cbf828ca991afb5d826da157129e36da47",
    "xo.txt": "431753c7b617d2163269571a22751cdb8527c3bd6a8fdca78296e56fda3162c0",
    "nested.json": "9732448c6daa3ebd4c8fb991ed7d4565937f387df44192838d2e4c9d84e5ad64",
}

DECIMAL_COMMANDS = {
    "stats.csv": ("stats",),
    "ivw.csv": (
        "compute", "--index", "ivw", "--ref-stats", "stats.csv", "--variance-floor", "1e-9",
        "--format", "csv",
    ),
    "xo.txt": ("compute", "--index", "xo", "--format", "table"),
    "nested.json": ("nested", "--group-col", "institutions", "--inner", "x"),
}


def test_decimal_breadth_report_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _synthetic_csv(tmp_path / "corpus.csv", 2_000, 4, 400, 30, 50, seed=2027, decimal=True)
    digests = {}
    for out, argv in DECIMAL_COMMANDS.items():  # stats.csv is written first
        assert main([*argv, "--input", "corpus.csv", "--out", out]) == 0
        digests[out] = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
    assert digests == GOLDEN_DECIMAL


# SHA-256 of `validate` stdout on the 2 000-publication corpus with rows
# appended that repeat ids (each listed at its second occurrence), leave
# label cells blank and carry zero counts, recorded before validate moved
# from a loop over records to passes over the columns.
GOLDEN_VALIDATE = "c7324ff0f822437c8e2cbfd2a62f5ce1bc8514acd8be6b84acc1ac837660f769"

VALIDATE_ROWS = (
    "p7,0,,cat3,inst1\n"
    "p1999,5,kw1,,\n"
    "p7,2,kw2;KW2,cat1;cat4,\n"
    "p0,-0,,,\n"
    "p1999,1.5,kw9,cat29,inst2\n"
)


def test_validate_report_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "corpus.csv"
    _synthetic_csv(path, 2_000, 4, 400, 30, 50, seed=2026)
    with path.open("a") as fh:
        fh.write(VALIDATE_ROWS)
    assert main(["validate", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: 3 duplicate ids\n"
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == GOLDEN_VALIDATE


# --- hand-laid renderers against row-wise references -------------------------

awkward_labels = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from('"\\\x00\x07\x1f\x7f\n\t\r  é中@;,'),
    ),
    max_size=12,
)
weights = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(float),
    st.floats(min_value=0, max_value=1e300, allow_nan=False),
    st.integers(min_value=10**16 - 3, max_value=10**18).map(float),
    st.just(1e16),
    st.fractions(min_value=0, max_value=10**6),
    # values that tie across types and signs
    st.sampled_from([0.0, -0.0, 0, 2.5, Fraction(5, 2), 10**17, 1e17]),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | awkward_labels,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(awkward_labels, children, max_size=3),
    max_leaves=12,
)


@st.composite
def reports(draw):
    entries = draw(st.lists(st.tuples(awkward_labels, weights), max_size=25))
    kernel = draw(st.sampled_from((h_type_index, g_type_index)))
    result = kernel(entries, draw(st.sampled_from(INDEX_KINDS)))
    return Report(
        draw(awkward_labels),
        draw(st.sampled_from(("compute", "nested"))),
        result,
        draw(st.dictionaries(awkward_labels, json_values, max_size=4)),
        draw(st.lists(awkward_labels, max_size=3)),
    )


def _csv_from_rows(report: Report) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("rank", "label", "weight", "ratio"))
    for row in report.result.table.rows:
        writer.writerow([row.rank, row.label, format_number(row.weight), format_number(row.ratio)])
    return out.getvalue()


def _table_from_rows(report: Report) -> str:
    cells = [["rank", "label", "weight", "ratio"]]
    for row in report.result.table.rows:
        cells.append([str(row.rank), row.label, format_number(row.weight), format_number(row.ratio)])
    widths = [max(len(line[col]) for line in cells) for col in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in cells]
    result = report.result
    lines.extend(f"warning: {w}" for w in report.warnings)
    return "\n".join([f"{result.kind}-index ({result.ratio_type}-type)", *lines, str(result.value)]) + "\n"


@settings(deadline=None)
@given(reports())
def test_to_json_equals_indented_dumps_of_to_dict(report):
    assert report.render("json") == json.dumps(report_dict(report), indent=2, ensure_ascii=False) + "\n"


@settings(deadline=None)
@given(reports())
def test_csv_and_table_equal_row_wise_rendering(report):
    assert report.render("csv") == _csv_from_rows(report)
    assert report.render("table") == _table_from_rows(report)


def test_empty_table_and_envelope_layout():
    report = Report("0.1.0", "compute", h_type_index([]), {}, [])
    assert report.render("json") == (
        '{\n  "version": "0.1.0",\n  "command": "compute",\n  "index": "x",\n'
        '  "ratio_type": "h",\n  "value": 0,\n  "table": [],\n  "config": {},\n'
        '  "warnings": []\n}\n'
    )


# Reports that carry warnings: xdfn with a category its stats lack, and ivw
# with categories floored and one dropped. SHA-256 recorded while the index
# functions logged their warnings and the CLI collected them.
WARNING_CORPUS = (
    "id,citations,keywords,categories,institutions\n"
    'p1,9,"alpha; beta",A,I1\n'
    "p2,4,gamma,B,I2\n"
    "p3,2,delta,C,I1\n"
    "p4,2,alpha,D,I1\n"
    "p5,3,beta,A;B,I2\n"
)

WARNING_CASES = {
    "xdfn-dropped": (
        ("compute", "--index", "xdfn", "--lenient-stats"),
        "a,2,1,10\nb,1.5,1,10\n",
        ["dropped 2 categories without usable reference means: c, d"],
    ),
    "ivw-floored-dropped": (
        ("compute", "--index", "ivw", "--lenient-stats", "--variance-floor", "0.75"),
        "a,2,0.5,10\nb,1,,10\nc,1,4,10\n",
        [
            "variance floor 0.75 substituted for category a",
            "variance floor 0.75 substituted for category b",
            "dropped 1 categories without reference variances: d",
        ],
    ),
    "ivw-weighted-g": (
        (
            "compute", "--index", "ivw", "--lenient-stats", "--variance-floor", "0.75",
            "--rank-basis", "weighted", "--type", "g",
        ),
        "a,2,0.5,10\nb,1,,10\nc,1,4,10\n",
        [
            "variance floor 0.75 substituted for category a",
            "variance floor 0.75 substituted for category b",
            "dropped 1 categories without reference variances: d",
        ],
    ),
}

GOLDEN_WARNINGS = {
    ("xdfn-dropped", "json"): "37397ccc349f5046054c81c68093589e6543bbb0d8be0590732a88efdae5579c",
    ("xdfn-dropped", "csv"): "4c529006e449a263a224d2d23aeacc3939f8df88b84d602350a6fdd102848e5e",
    ("xdfn-dropped", "table"): "b4ca2f458d6fd810c4f579a99b138b633d46bf0c4ddaac23f2ea62e62f5926b2",
    ("ivw-floored-dropped", "json"): "84ae03881806ae62a1f8e1730c197700b4165f5333f641460b7f369907abbe18",
    ("ivw-floored-dropped", "csv"): "0c3ecdd77ba171b9bfd61d2ba6833152ab55ac3913ec358e3fb4cbbf38ad7ad0",
    ("ivw-floored-dropped", "table"): "f83c1a84b6c369426da831052e01b6b3591d2a5306d5730ea52e42d78163ad3c",
    # the rank-3 ratio is the exact sum of the three printed scores over 9,
    # 2.8703703703703702, not their running float sum's 2.8703703703703707
    ("ivw-weighted-g", "json"): "264237cfff9d9022d4a6fae2df8783256ae80af83aa74976553ecc91f3895475",
    ("ivw-weighted-g", "table"): "a5a199053725228eeca95e39f8782f5e6ffbd190a4fa88ab3f138410d88afdea",
}


@pytest.mark.parametrize(("case", "fmt"), sorted(GOLDEN_WARNINGS))
def test_warning_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, case, fmt):
    monkeypatch.chdir(tmp_path)
    argv, stats, warnings = WARNING_CASES[case]
    (tmp_path / "corpus.csv").write_text(WARNING_CORPUS)
    (tmp_path / "ref.csv").write_text("category,mean,variance,n\n" + stats)
    code = main(
        [*argv, "--ref-stats", "ref.csv", "--input", "corpus.csv", "--format", fmt, "--out", "report"]
    )
    assert (code, capsys.readouterr()) == (0, ("", ""))
    data = (tmp_path / "report").read_bytes()
    if fmt == "json":
        assert json.loads(data)["warnings"] == warnings
    if fmt == "table":
        assert data.decode().splitlines()[-1 - len(warnings) : -1] == [f"warning: {w}" for w in warnings]
    assert hashlib.sha256(data).hexdigest() == GOLDEN_WARNINGS[case, fmt]


# --- streamed writing ---------------------------------------------------------

BLOCK = 4  # _BLOCK_ROWS while these tests run


class RecordingSink(io.StringIO):
    """A text stream that keeps the text of each write call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def _streamed_weights(n_rows, ties):
    """n_rows weights. "none" mixes integral and fractional floats, a value
    past 1e16 and a Fraction, so blocks take both paths of format_column.
    "floats" ties plain floats in runs of 3 that cross the block edges,
    0.0 beside -0.0 in the last run. "mixed" ties an int 10**17 with
    1e17, 5/2 as a Fraction with 2.5, and 1 with 1.0, Fraction(1) and True."""
    if ties == "floats":
        return [float((n_rows - 1 - i) // 3) or (-0.0 if i % 2 else 0.0) for i in range(n_rows)]
    if ties == "mixed":
        cycle = [10**17, 1e17, 1e17, 10**17, Fraction(5, 2), 2.5, 2.5, 1, 1.0, Fraction(1), True, 0.0, -0.0]
        return [cycle[i % len(cycle)] for i in range(n_rows)]
    weights = [float(3 * i) / 2 for i in range(n_rows)]
    if n_rows > 2:
        weights[0], weights[1] = 2e16, Fraction(7, 3)
    return weights


def _streamed_report(n_rows, kernel, ties="none"):
    """A report whose n_rows labels each carry the marker "row-", with the
    weights of _streamed_weights."""
    entries = [(f"row-{i:03d}", w) for i, w in enumerate(_streamed_weights(n_rows, ties))]
    return Report("0.1.0", "compute", kernel(entries, "xc"), {"input": "t.csv"}, ["one warning"])


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("kernel", [h_type_index, g_type_index], ids=["h", "g"])
@pytest.mark.parametrize("n_rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 4 * BLOCK + 3])
def test_write_streams_blocks_that_add_up_to_render(monkeypatch, fmt, kernel, n_rows):
    monkeypatch.setattr(xindices.report, "_BLOCK_ROWS", BLOCK)
    for ties in ("none", "floats", "mixed"):
        report = _streamed_report(n_rows, kernel, ties)
        reference = {
            "json": lambda: json.dumps(report_dict(report), indent=2, ensure_ascii=False) + "\n",
            "csv": lambda: _csv_from_rows(report),
            "table": lambda: _table_from_rows(report),
        }[fmt]()
        sink = RecordingSink()
        report.write(sink, fmt)
        assert sink.getvalue() == report.render(fmt) == reference
        rows_per_write = [text.count("row-") for text in sink.writes]
        assert sum(rows_per_write) == n_rows
        # No write call carries more than one block of rows, so a report is
        # never held whole; n rows take at least ceil(n / BLOCK) writes.
        assert max(rows_per_write) <= BLOCK
        assert sum(map(bool, rows_per_write)) >= -(-n_rows // BLOCK)


def test_write_rejects_an_unknown_format_before_writing():
    sink = RecordingSink()
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        _streamed_report(3, h_type_index).write(sink, "xml")
    assert sink.writes == []
