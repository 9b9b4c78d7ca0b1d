"""The library surface perfbench/spans.py reads in a traced run: every
hooked entry point, TableData.records, Report.render and RankedTable.rows.
A library change that breaks one of those reads fails here, not only in
the next traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import io
import pathlib
import subprocess
import sys

import pytest

from xindices import build_corpus, read_table, xc_index
from xindices.report import Report

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# Hooks that still name code moved to tests/oracles.py; their layers read 0.
KNOWN_MISSING = {"xindices.corpus.partition_by_group", "xindices.indices.nested_index"}

TABLE = (
    "id,citations,keywords,categories,institutions\n"
    'p1,9,"alpha; beta",A,I1\n'
    "\n"
    "p2,4,gamma,B;A,I2\n"
    "p3,2,delta,C,I1\n"
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_importing_spans_loads_no_library_code():
    code = (
        f"import sys; sys.path.insert(0, {str(PERFBENCH)!r}); import spans; "
        "sys.exit(any(name.split('.')[0] == 'xindices' for name in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_every_hooked_name_resolves_but_the_known_missing():
    missing = set()
    for home, names in load_spans().LAYERS.values():
        module = importlib.import_module(home)
        for name in names:
            owner = module
            for attr in name.split("."):
                owner = getattr(owner, attr, None)
            if owner is None:
                missing.add(f"{home}.{name}")
    assert missing == KNOWN_MISSING


def test_read_table_records_count_the_publications(tmp_path):
    path = tmp_path / "pubs.csv"
    path.write_text(TABLE)
    with open(path, "rb") as fh:
        table = read_table(fh)
    assert len(table.records) == len(table.columns.ids) == 3
    assert load_spans()._counts("read_table", (fh,), table) == {"records": 3, "bytes": len(TABLE)}


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_render_equals_write_and_rows_match_the_columns(fmt):
    result = xc_index(build_corpus(read_table(io.BytesIO(TABLE.encode())).columns), "h")
    report = Report("v", "compute", result, {"index": "xc"}, ["a warning"])
    written = io.StringIO()
    report.write(written, fmt)
    rendered = report.render(fmt)
    assert rendered == written.getvalue()
    table = result.table
    assert table.rows == tuple(zip(range(1, len(table) + 1), table.labels, table.weights, table.ratios))
    counts = load_spans()._counts("Report.render", (report, fmt), rendered)
    assert counts == {"rows": len(table.labels), "bytes": len(rendered.encode("utf-8"))}
