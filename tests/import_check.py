"""The modules each xindex command loads.

Each command runs in a fresh ``python -S`` interpreter with src on sys.path,
through xindices.cli.main, and its sys.modules is checked afterwards:

- dataclasses, inspect and logging are never loaded;
- fractions is loaded only by stats and --internal-stats runs;
- json is loaded only by runs that render a json report.

The commands are --version and those of both benchmark workloads, plus one
run of xdfn with each stats source and of ivw with internal stats. Run ``python tests/import_check.py`` to
check the interpreter that runs it without pytest; it exits 1 on a failure.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

NEVER = ("dataclasses", "inspect", "logging")

# In run order: ivw reads the stats file stats writes.
COMMANDS = (
    ("--version",),
    ("compute", "--index", "xc", "--type", "h", "--format", "json"),
    ("stats", "--out", "stats.csv"),
    (
        "compute", "--index", "ivw", "--ref-stats", "stats.csv", "--variance-floor", "1e-9",
        "--format", "csv",
    ),
    ("compute", "--index", "xo", "--format", "table"),
    ("nested", "--group-col", "institutions", "--inner", "x", "--type", "h", "--jobs", "2"),
    ("compute", "--index", "xdfn", "--ref-stats", "stats.csv", "--format", "csv"),
    ("compute", "--index", "xdfn", "--internal-stats", "--format", "table"),
    ("compute", "--index", "ivw", "--internal-stats", "--variance-floor", "0.5"),
    ("validate",),
)

INPUT = (
    "id,citations,keywords,categories,institutions\n"
    "p1,9,alpha;beta,A,I1\n"
    "p2,4.5,gamma,A;B,I2\n"
    "p3,2,delta,B,I1\n"
    "p4,7,alpha,C,I1;I2\n"
    "p5,3,beta,C,I3\n"
)

# Runs main(argv) and writes the names in sys.modules to a file, one a line.
CHILD = """
import sys
src, listing, *argv = sys.argv[1:]
sys.path.insert(0, src)
from xindices.cli import main
try:
    status = main(argv)
except SystemExit as exc:
    status = exc.code
with open(listing, "w") as fh:
    fh.write("\\n".join(sys.modules))
sys.exit(status)
"""


def expected(argv: tuple[str, ...]) -> dict[str, bool]:
    """Per checked module, whether the command should load it."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    return {
        **dict.fromkeys(NEVER, False),
        "fractions": argv[0] == "stats" or "--internal-stats" in argv,
        "json": argv[0] in ("compute", "nested") and fmt == "json",
    }


def loaded_modules(argv: tuple[str, ...], work: pathlib.Path) -> set[str]:
    """The modules a fresh interpreter holds after running argv in work."""
    listing = work / "modules.txt"
    args = list(argv) if argv[0].startswith("--") else [*argv, "--input", "input.csv"]
    if argv[0] in ("compute", "nested"):
        args += ["--out", "report"]
    run = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(SRC), str(listing), *args],
        cwd=work,
        capture_output=True,
        text=True,
    )
    if run.returncode != 0:
        raise AssertionError(f"{' '.join(argv)} exited {run.returncode}: {run.stderr.strip()}")
    return set(listing.read_text().split("\n"))


def problems() -> list[str]:
    """One line per command that loads a module it should not, or misses
    one it should load (which would show the check reads nothing)."""
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        (work / "input.csv").write_text(INPUT)
        for argv in COMMANDS:
            modules = loaded_modules(argv, work)
            for name, wanted in expected(argv).items():
                if (name in modules) != wanted:
                    found.append(f"{' '.join(argv)}: {name} {'not ' if wanted else ''}loaded")
    return found


if __name__ == "__main__":
    failures = problems()
    print("\n".join(failures) or f"import set ok on Python {sys.version.split()[0]}")
    sys.exit(1 if failures else 0)
