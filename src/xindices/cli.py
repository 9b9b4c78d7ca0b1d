"""Command-line surface: compute, nested, stats, validate.

Every command raises its failures, and main maps each to an exit code by
type: 2 for a computation failure (a ComputeError: missing stats, a
non-positive reference mean, unusable variance, unsupported rank basis,
citation totals, variances, or totals over a reference mean or variance
beyond the float range), 1 for every other XIndicesError or OSError
(ingest or validation failure, a bad flag value, an unreadable input, an
unwritable --out, a failed write of the report, a closed stdin or stdout,
or a stdout whose encoding cannot encode a label) and for a usage error
(an unknown flag, a bad choice, a missing or unparsable value). 0 is
success. Error messages go to stderr, one "error:" line each; a closed
or missing stderr drops the line, never sends it to stdout, and keeps the
exit code. Reports go to stdout or --out, written in blocks of rows as
they are formatted. Flag values are checked before the input is read.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import Callable, Sequence, TextIO

from . import __version__
from .corpus import build_corpus
from .errors import ComputeError, InvalidConfig, MissingStats, XIndicesError
from .indices import (
    INDEX_FIELDS,
    group_index,
    ivw_xd_index,
    x_index,
    xc_index,
    xd_index,
    xdf_index,
    xdfn_index,
    xo_index,
)
from .ingest import (
    LABEL_FIELDS,
    ROLES,
    SMALL_SAMPLE_THRESHOLD,
    IngestConfig,
    TableData,
    read_table,
    validate_records,
)
from .kernel import IndexResult
from .report import Report
from .stats import ReferenceStats, estimate_stats, load_reference_stats, write_reference_stats

INDEX_FUNCTIONS = {
    "x": x_index,
    "xc": xc_index,
    "xd": xd_index,
    "xdf": xdf_index,
    "xo": xo_index,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors print one error: line and exit 1, as a bad flag value
    does, instead of the usage text and exit 2, which is kept for
    computation failures."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


def _add_ingest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV/TSV file, or - for stdin")
    parser.add_argument("--id-col", default=None, help="header of the id column")
    parser.add_argument("--citations-col", default=None, help="header of the citations column")
    parser.add_argument("--keywords-col", default=None, help="header of the keywords column")
    parser.add_argument("--categories-col", default=None, help="header of the categories column")
    parser.add_argument("--institutions-col", default=None, help="header of the institutions column")
    parser.add_argument("--cell-delimiter", default=";", help="separator inside multi-value cells")
    parser.add_argument("--no-case-fold", action="store_true", help="keep label case as-is")
    parser.add_argument("--no-trim", action="store_true", help="keep surrounding whitespace in labels")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", default="json", choices=["json", "csv", "table"])
    parser.add_argument("--out", default=None, help="write the report to this file instead of stdout")
    parser.add_argument(
        "--jobs", type=int, default=1, help="at least 1; accepted for compatibility, every step runs serially"
    )


def _checked_config(args: argparse.Namespace, group_col: str | None = None) -> IngestConfig:
    """The ingest config the flags map to, once every flag value is
    checked; a bad value raises InvalidConfig before any input is read."""
    floor = getattr(args, "variance_floor", None)
    if floor is not None and not 0 < floor < math.inf:
        raise InvalidConfig(f"--variance-floor must be a positive finite number, got {floor}")
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise InvalidConfig(f"--jobs must be at least 1, got {jobs}")
    required = set()
    overrides = {}
    for role in ROLES[:-1]:  # the group column comes from group_col
        value = getattr(args, f"{role}_col")
        if value is not None:
            overrides[f"{role}_column"] = value
            required.add(role)
    if group_col is not None:
        required.add("group")
    return IngestConfig(
        group_column=group_col,
        cell_delimiter=args.cell_delimiter,
        case_fold=not args.no_case_fold,
        trim=not args.no_trim,
        required_columns=frozenset(required),
        **overrides,
    )


def _read_input(
    args: argparse.Namespace, config: IngestConfig, fields: Sequence[str] = LABEL_FIELDS
) -> TableData:
    """The input table, with only the record fields in fields read."""
    if args.input == "-":
        if sys.stdin is None:
            raise OSError("standard input is closed")
        return read_table(sys.stdin.buffer, config, fields=fields)
    with open(args.input, "rb") as stream:
        return read_table(stream, config, fields=fields)


def _config_echo(args: argparse.Namespace, config: IngestConfig) -> dict:
    return {
        "input": args.input,
        "cell_delimiter": config.cell_delimiter,
        "case_fold": config.case_fold,
        "trim": config.trim,
        "columns": {role: config.column_for(role) for role in ROLES},
    }


def _discard(stream: TextIO) -> None:
    """Point the descriptor behind stream at the null device after a
    failed write, so the interpreter's flush at exit of what the stream
    still buffers neither fails again nor prints "Exception ignored"."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor behind it
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _say(line: str) -> None:
    """Write line to stderr. A closed or missing stderr drops it, and never
    sends it to stdout, where it would mix into a report."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        _discard(sys.stderr)


def _emit(out: str | None, write: Callable[[TextIO], object]) -> None:
    """Call write on the open --out file, or on stdout when out is None;
    any given out is a path, the empty string included. A failed open or
    write, partway through the report included, raises OSError, and so do
    a closed stdout and one whose encoding cannot encode a label."""
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        return
    if sys.stdout is None:
        raise OSError("standard output is closed")
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError:
        _discard(sys.stdout)
        raise
    except UnicodeEncodeError as exc:
        _discard(sys.stdout)
        bad = exc.object[exc.start : exc.end]
        raise OSError(f"standard output encoding {exc.encoding!r} cannot encode {bad!a}") from None


def _resolve_stats(args: argparse.Namespace, ref_stats: ReferenceStats | None, corpus) -> tuple[ReferenceStats, str]:
    if ref_stats is not None:
        return ref_stats, args.ref_stats
    if args.internal_stats:
        return estimate_stats(corpus, args.variance), "internal"
    raise MissingStats()


def _warnings(result: IndexResult, variance_floor: float | None) -> list[str]:
    """One warning per floored variance, then one naming the dropped
    categories."""
    warnings = [f"variance floor {variance_floor} substituted for category {cat}" for cat in result.floored]
    if result.dropped:
        lacking = "usable reference means" if result.kind == "xdfn" else "reference variances"
        warnings.append(
            f"dropped {len(result.dropped)} categories without {lacking}: {', '.join(result.dropped)}"
        )
    return warnings


def cmd_compute(args: argparse.Namespace) -> int:
    config = _checked_config(args)
    table = _read_input(args, config, INDEX_FIELDS[args.index])
    corpus = build_corpus(table.columns)
    ref_stats = None
    if args.ref_stats:
        with open(args.ref_stats, "rb") as fh:
            ref_stats = load_reference_stats(fh)

    echo = _config_echo(args, config)
    echo.update({"index": args.index, "ratio_type": args.type, "stats_source": "none"})
    if args.index in INDEX_FUNCTIONS:
        result = INDEX_FUNCTIONS[args.index](corpus, args.type)
    else:
        stats, source = _resolve_stats(args, ref_stats, corpus)
        echo["stats_source"] = source
        echo["variance_kind"] = args.variance
        strict = not args.lenient_stats
        echo["lenient_stats"] = args.lenient_stats
        if args.index == "xdfn":
            result = xdfn_index(corpus, args.type, stats, strict=strict)
        else:
            echo["rank_basis"] = args.rank_basis
            echo["variance_floor"] = args.variance_floor
            result = ivw_xd_index(
                corpus,
                args.type,
                stats,
                rank_basis=args.rank_basis,
                variance_floor=args.variance_floor,
                strict=strict,
            )

    report = Report(__version__, "compute", result, echo, _warnings(result, args.variance_floor))
    _emit(args.out, lambda fh: report.write(fh, args.format))
    return 0


def cmd_nested(args: argparse.Namespace) -> int:
    if not args.group_col:
        raise InvalidConfig("--group-col is required")
    config = _checked_config(args, group_col=args.group_col)
    table = _read_input(args, config, INDEX_FIELDS[args.inner])
    corpus = build_corpus(table.columns)

    result = group_index(corpus, table.group_values, args.inner, args.type, strict=args.strict_groups)
    echo = _config_echo(args, config)
    echo.update(
        {
            "index": "nested",
            "inner": args.inner,
            "ratio_type": args.type,
            "group_column": args.group_col,
            "strict_groups": args.strict_groups,
        }
    )
    report = Report(__version__, "nested", result, echo)
    _emit(args.out, lambda fh: report.write(fh, args.format))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    table = _read_input(args, _checked_config(args), ("categories",))
    corpus = build_corpus(table.columns)

    stats = estimate_stats(corpus, args.variance)
    with open(args.out, "wb") as fh:
        write_reference_stats(stats, fh)
    for entry in stats.entries():
        if entry.n < SMALL_SAMPLE_THRESHOLD:
            _say(
                f"warning: category {entry.category} has {entry.n} publications "
                f"(fewer than {SMALL_SAMPLE_THRESHOLD}); estimated variance may not be "
                "robust for inverse-variance weighting"
            )
        if float(entry.mean) == 0:  # the mean as written
            _say(f"warning: category {entry.category} has mean 0 and cannot be loaded back as reference stats")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    table = _read_input(args, _checked_config(args), ("keywords", "categories"))

    report = validate_records(table.columns)
    lines = [f"records: {report.n_records}", f"{len(report.errors)} errors"]
    lines.extend(f"error: {msg}" for msg in report.errors)
    lines.append(f"{len(report.warnings)} warnings")
    lines.extend(f"warning: {msg}" for msg in report.warnings)
    lines.extend(f"note: {msg}" for msg in report.notes)
    if table.unused_columns:
        lines.append(f"note: ignored columns: {', '.join(table.unused_columns)}")
    lines.append("category publication counts:")
    lines.extend(f"  {cat}: {count}" for cat, count in report.category_counts.items())
    _emit(None, lambda fh: fh.write("\n".join(lines) + "\n"))
    if report.errors:
        _say(f"error: {len(report.errors)} duplicate ids")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xindex",
        description="Expertise indices (x family) over tabular bibliographic records.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute one index over an input table")
    _add_ingest_flags(compute)
    compute.add_argument("--index", required=True, choices=list(INDEX_FIELDS))
    compute.add_argument("--type", default="h", choices=["h", "g"], help="ratio type")
    compute.add_argument("--ref-stats", default=None, help="reference stats CSV (category,mean,variance,n)")
    compute.add_argument(
        "--internal-stats",
        action="store_true",
        help="estimate reference stats from the input corpus itself",
    )
    compute.add_argument("--variance", default="sample", choices=["sample", "population"])
    compute.add_argument("--rank-basis", default="raw", choices=["raw", "weighted"], help="ivw only")
    compute.add_argument("--variance-floor", type=float, default=None, metavar="EPS")
    compute.add_argument(
        "--lenient-stats",
        action="store_true",
        help="drop categories missing from the reference stats instead of failing",
    )
    _add_output_flags(compute)
    compute.set_defaults(func=cmd_compute)

    nested = sub.add_parser("nested", help="group-level xx / xx_d index")
    _add_ingest_flags(nested)
    nested.add_argument("--group-col", default=None, help="header of the grouping column")
    nested.add_argument("--inner", default="x", choices=["x", "xd"])
    nested.add_argument("--type", default="h", choices=["h", "g"])
    nested.add_argument(
        "--strict-groups",
        action="store_true",
        help="fail on records with no group label instead of using (ungrouped)",
    )
    _add_output_flags(nested)
    nested.set_defaults(func=cmd_nested)

    stats = sub.add_parser("stats", help="estimate and write per-category reference stats")
    _add_ingest_flags(stats)
    stats.add_argument("--out", required=True, help="output stats CSV path")
    stats.add_argument("--variance", default="sample", choices=["sample", "population"])
    stats.set_defaults(func=cmd_stats)

    validate = sub.add_parser("validate", help="sanity-check an input table")
    _add_ingest_flags(validate)
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command. A failure it raises, an XIndicesError or an
    OSError, is one error: line on stderr and exit 2 for a ComputeError,
    1 for any other. The cyclic garbage collector is off for the run: a
    run builds only acyclic containers, which reference counting frees,
    and the collector would only rescan them. The state found is put back
    on every exit, SystemExit from argparse included (exit 1 for a usage
    error, 0 for --version and --help)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (XIndicesError, OSError) as exc:
        _say(f"error: {exc}")
        return 2 if isinstance(exc, ComputeError) else 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
