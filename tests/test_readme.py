"""The README's Python examples run as written, against whichever
xindices package is imported, and print the value the CLI prints."""

from __future__ import annotations

import pathlib
import re

from xindices.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PUBS = (
    "id,citations,keywords,categories,institutions\n"
    'p1,9,"alpha; beta",A,I1\n'
    "p2,4,gamma,B,I2\n"
    "p3,2,delta,C,I1\n"
    "p4,2,alpha,D,I1\n"
)


def test_readme_examples_run_and_print_the_cli_value(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pubs.csv").write_text(PUBS)
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out
    assert main(["compute", "--index", "x", "--format", "table", "--input", "pubs.csv"]) == 0
    assert printed.splitlines()[0] == capsys.readouterr().out.splitlines()[-1]
