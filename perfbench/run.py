"""Seeded end-to-end benchmark of the xindex CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from a checkout of the repository. Each workload is a synthetic
publication table generated from ``--seed`` plus a pass of one or more
``xindex`` commands. The load is a closed loop with one client: it spawns
one fresh interpreter per command, waits for it with ``os.wait4`` and only
then starts the next, repeating whole passes until their wall times add
up to ``--seconds``. Every output is checked against values recomputed
from the generated rows without the library (``check.py``); a failed
check, a non-zero exit or a timeout counts as a failed operation and makes
the exit code 1.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate (``spans.py``) and the per-layer
metrics are printed. The last line of standard output is one JSON object.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from gen import Row, Shape, ShapeError, check_shape, generate, shape_counts  # noqa: E402
from spans import LAYERS, analyse  # noqa: E402

# The same start-up as the installed ``xindex`` console script.
LAUNCH = "import sys; from xindices.cli import main; sys.exit(main())"
RUN_LIMIT_S = 170.0
SETUP_SPAWNS_FIRST = 8
SETUP_SPAWNS_PER_PASS = 1
VARIANCE_FLOOR = "1e-9"
MB = 1e6


class Expected:
    """Values the outputs must carry, recomputed lazily from the rows."""

    def __init__(self, rows: list[Row]):
        self.rows = rows

    @cached_property
    def pairs(self) -> dict[str, int]:
        return check.pair_totals(self.rows)

    @cached_property
    def inner_by_institution(self) -> dict[str, int]:
        return check.grouped_inner_x(self.rows, "institutions")

    @cached_property
    def inner_by_category(self) -> dict[str, int]:
        return check.grouped_inner_x(self.rows, "categories")

    @cached_property
    def categories(self) -> dict[str, int]:
        return check.category_totals(self.rows)

    @cached_property
    def validator(self):
        import jsonschema

        schema = json.loads((ROOT / "schema" / "report.schema.json").read_text("utf-8"))
        return jsonschema.validators.validator_for(schema)(schema)


Checker = Callable[[Expected, bytes, Path], "list[str]"]


def _check_xc(exp: Expected, data: bytes, work: Path) -> list[str]:
    return check.check_json_report(
        data, exp.validator, "xc", check.h_cents(exp.pairs.values()), exp.pairs, cents=True
    )


def _check_nested(exp: Expected, data: bytes, work: Path) -> list[str]:
    inner = exp.inner_by_institution
    return check.check_json_report(
        data, exp.validator, "nested", check.h_whole(inner.values()), inner, cents=False
    )


def _check_stats(exp: Expected, data: bytes, work: Path) -> list[str]:
    return check.check_stats(data, exp.rows)


def _check_ivw(exp: Expected, data: bytes, work: Path) -> list[str]:
    stats = check.read_stats((work / "stats.csv").read_bytes())
    value = check.ivw_value(exp.rows, stats, float(VARIANCE_FLOOR))
    return check.check_csv_report(data, exp.categories, value)


def _check_xo(exp: Expected, data: bytes, work: Path) -> list[str]:
    inner = exp.inner_by_category
    return check.check_table_report(data, "xo", inner, check.h_whole(inner.values()))


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # after "--input FILE"; "{work}" names the work dir
    output: str
    check: Checker


@dataclass(frozen=True)
class Workload:
    shape: Shape
    commands: tuple[Command, ...]


WORKLOADS = {
    "xc-json-25k": Workload(
        Shape(25_000),
        (
            Command(
                ("compute", "--index", "xc", "--type", "h", "--format", "json"),
                "xc.json",
                _check_xc,
            ),
        ),
    ),
    "breadth-decimal-25k": Workload(
        Shape(25_000, decimal=True),
        (
            Command(("stats",), "stats.csv", _check_stats),
            Command(
                (
                    "compute", "--index", "ivw", "--ref-stats", "{work}/stats.csv",
                    "--variance-floor", VARIANCE_FLOOR, "--format", "csv",
                ),
                "ivw.csv",
                _check_ivw,
            ),
            Command(("compute", "--index", "xo", "--format", "table"), "xo.txt", _check_xo),
            Command(
                ("nested", "--group-col", "institutions", "--inner", "x", "--type", "h", "--jobs", "2"),
                "nested.json",
                _check_nested,
            ),
        ),
    ),
}


@dataclass
class Outcome:
    wall: float
    status: int
    cpu: float
    maxrss_mb: float
    timed_out: bool


def spawn(args: list[str], env: dict, stdout: Path, stderr: Path, timeout: float) -> Outcome:
    """Run one child to completion; wall time covers spawn to reaping."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
        finally:
            os.close(pidfd)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Outcome(
        wall,
        os.waitstatus_to_exitcode(status),
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss * 1024 / MB,
        timed_out,
    )


@dataclass
class PassResult:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    spans: list[list[dict]] = field(default_factory=list)  # one list per command
    missing: set[str] = field(default_factory=set)


class Run:
    def __init__(self, name: str, seed: int, seconds: float, traced: bool, work: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        # Children cache bytecode under .bench_build, as an installed
        # package would have it, whatever the caller's environment says.
        self.env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.setup: list[float] = []
        self.check_s = 0.0

    def fail(self, what: str, problems: list[str]) -> None:
        """Record one operation's problems; any problem fails the operation."""
        self.failed += bool(problems)
        self.problems.extend(f"{what}: {p}" for p in problems)

    def _launch(self, cli_args: list[str], spans: Path | None, out: Path, err: Path) -> Outcome:
        if spans is None:
            args = [sys.executable, "-c", LAUNCH, *cli_args]
        else:
            args = [sys.executable, str(HERE / "spans.py"), str(spans), "--", *cli_args]
        return spawn(args, self.env, out, err, self.deadline - time.perf_counter())

    def _exit_problems(self, outcome: Outcome, err: Path) -> list[str]:
        if outcome.timed_out:
            return ["timed out"]
        if outcome.status != 0:
            tail = err.read_text("utf-8", "replace").strip().splitlines()[-1:]
            return [f"exit status {outcome.status} {' '.join(tail)}"]
        return []

    def measure_setup(self, count: int, record: bool = True) -> None:
        out, err = self.work / "version.out", self.work / "version.err"
        for _ in range(count):
            self.attempted += 1
            outcome = self._launch(["--version"], None, out, err)
            problems = self._exit_problems(outcome, err)
            if not problems and not out.read_text("utf-8").startswith("xindex "):
                problems = ["--version printed no version"]
            self.fail("xindex --version", problems)
            if record and not problems:
                self.setup.append(outcome.wall)

    def run_pass(self, expected: Expected, traced: bool) -> PassResult:
        result = PassResult(traced)
        out, err = self.work / "cmd.out", self.work / "cmd.err"
        for i, command in enumerate(self.workload.commands):
            target = self.work / command.output
            cli_args = [
                *(a.replace("{work}", str(self.work)) for a in command.args),
                "--input", str(self.work / "input.csv"), "--out", str(target),
            ]
            spans = self.work / f"spans{i}.json" if traced else None
            self.attempted += 1
            outcome = self._launch(cli_args, spans, out, err)
            result.wall += outcome.wall
            result.cpu += outcome.cpu
            result.peak_rss_mb = max(result.peak_rss_mb, outcome.maxrss_mb)
            what = " ".join(command.args[:3])
            problems = self._exit_problems(outcome, err)
            if problems:
                self.fail(what, problems)
                continue
            data = target.read_bytes()
            result.output_bytes += len(data)
            digest = hashlib.sha256(data).hexdigest()
            if i not in self.digests:
                self.digests[i] = digest
                started = time.perf_counter()
                try:
                    problems = command.check(expected, data, self.work)
                except Exception as exc:  # a malformed output can break a parser
                    problems = [f"output check raised {exc!r}"]
                self.check_s += time.perf_counter() - started
            elif digest != self.digests[i]:
                problems = ["output bytes differ from the first pass of this seed"]
            self.fail(what, problems)
            if traced:
                recorded = json.loads(spans.read_text("utf-8"))
                result.spans.append(recorded["spans"])
                result.missing.update(recorded["missing"])
        return result

    def execute(self) -> tuple[dict, list[str]]:
        started = time.perf_counter()
        data, rows = generate(self.workload.shape, self.seed)
        (self.work / "input.csv").write_bytes(data)
        expected = Expected(rows)
        counts = shape_counts(rows)
        check_shape(self.workload.shape, counts)
        notes = [f"corpus: {counts} ({len(data)} bytes, seed {self.seed})"]
        generate_s = time.perf_counter() - started
        self.measure_setup(1, record=False)  # fills the bytecode cache
        self.measure_setup(SETUP_SPAWNS_FIRST)
        passes: list[PassResult] = []
        # --seconds counts timed pass work only, not the untimed checks.
        order = (False, True) if self.traced else (False,)
        while not passes or sum(p.wall for p in passes) < self.seconds:
            for traced in order:
                passes.append(self.run_pass(expected, traced))
            self.measure_setup(SETUP_SPAWNS_PER_PASS)
            if self.problems or time.perf_counter() > self.deadline:
                break
        notes.append(f"untimed: generation {generate_s:.1f} s, output checks {self.check_s:.1f} s")
        plain = [p for p in passes if not p.traced]
        if self.traced:
            metrics = layer_metrics(plain, [p for p in passes if p.traced], notes)
        else:
            metrics = end_to_end_metrics(self.workload, plain, self.setup, notes)
        return metrics, notes


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(workload: Workload, passes: list[PassResult], setup: list[float], notes: list[str]) -> dict:
    """Wall time and throughput are totals over the run's passes: the
    machine's speed changes in steps that last tens of seconds, and a total
    averages over them where a median picks one side."""
    pubs = workload.shape.n_pubs * len(workload.commands)
    n = len(passes)
    timed = sum(p.wall for p in passes)
    metrics = {
        "wall_s": (timed / n, "s", f"mean of {n}"),
        "pubs_per_s": (pubs * n / timed, "1/s", f"{n} passes"),
        "peak_rss_mb": (_median([p.peak_rss_mb for p in passes]), "MB", f"median of {n}"),
        "output_mb": (_median([p.output_bytes / MB for p in passes]), "MB", f"median of {n}"),
        "setup_s": (_median(setup), "s", f"median of {len(setup)}"),
    }
    notes.append("pass walls: " + " ".join(f"{p.wall:.3f}" for p in passes) + " s")
    for name, (value, unit, samples) in metrics.items():
        notes.append(f"{name} = {value:.6g} {unit} ({samples})")
    return {name: value_unit[:2] for name, value_unit in metrics.items()}


# Span names whose self time is reported on its own.
_SPAN_METRICS = {
    "corpus.build_s": ("build_corpus",),
    "corpus.partition_s": ("partition_by_group",),
    "stats.estimate_s": ("estimate_stats",),
    "stats.io_s": ("load_reference_stats", "write_reference_stats"),
}


def pass_layers(result: PassResult) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    by_layer = {layer: 0.0 for layer in LAYERS}
    for spans in result.spans:
        self_time = analyse(spans)
        layer_of = {span["id"]: span["layer"] for span in spans}
        for span in spans:
            by_layer[span["layer"]] += self_time[span["id"]]
            for metric, names in _SPAN_METRICS.items():
                if span["name"] in names:
                    add(metric, self_time[span["id"]])
            entry = layer_of.get(span["parent"]) != span["layer"]
            if span["layer"] == "indices":
                add("indices.calls", 1)
            if not entry:
                continue
            layer, counts = span["layer"], span.get("counts", {})
            add(f"{layer}.errors", span["error"])
            if layer == "kernel":
                add("kernel.calls", 1)
            if "rss_delta" in span:
                key = f"{layer}.rss_delta_mb"
                m[key] = max(m.get(key, 0.0), span["rss_delta"] / MB)
            for name, value in counts.items():
                add(f"{layer}.{name}", value)
    for layer in ("ingest", "kernel", "indices", "report"):
        m[f"{layer}.self_s"] = by_layer[layer]
    m["cli.self_s"] = result.wall - sum(t for layer, t in by_layer.items() if layer != "cli")
    m["pass.wall_s"] = result.wall

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    records = m.get("ingest.records", 0.0)
    m["ingest.mb_per_s"] = rate(m.pop("ingest.bytes", 0.0) / MB, m["ingest.self_s"])
    m["corpus.pub_copies_ratio"] = rate(m.pop("corpus.pubs", 0.0), records)
    m["corpus.corpora_built"] = m.pop("corpus.corpora", 0.0)
    m["kernel.items_per_s"] = rate(m.get("kernel.items", 0.0), m["kernel.self_s"])
    m["report.mb"] = m.pop("report.bytes", 0.0) / MB
    m["report.mb_per_s"] = rate(m["report.mb"], m["report.self_s"])
    for name, _ in PER_LAYER:
        m.setdefault(name, 0.0)
    return m


# (metric, unit) in BENCHMARK.json order.
PER_LAYER = (
    ("ingest.self_s", "s"), ("ingest.mb_per_s", "MB/s"), ("ingest.records", "count"),
    ("ingest.rss_delta_mb", "MB"),
    ("corpus.build_s", "s"), ("corpus.rss_delta_mb", "MB"), ("corpus.partition_s", "s"),
    ("corpus.corpora_built", "count"), ("corpus.pub_copies_ratio", "ratio"),
    ("stats.estimate_s", "s"), ("stats.io_s", "s"), ("stats.samples", "count"),
    ("kernel.self_s", "s"), ("kernel.calls", "count"), ("kernel.items", "count"),
    ("kernel.items_per_s", "1/s"),
    ("indices.self_s", "s"), ("indices.calls", "count"),
    ("report.self_s", "s"), ("report.rows", "count"), ("report.mb", "MB"),
    ("report.mb_per_s", "MB/s"),
    ("cli.self_s", "s"), ("cli.cpu_s", "s"),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio"),
)

# Self times that add up to the traced pass wall time.
_BREAKDOWN = (
    "ingest.self_s", "corpus.build_s", "corpus.partition_s", "stats.estimate_s",
    "stats.io_s", "kernel.self_s", "indices.self_s", "report.self_s", "cli.self_s",
)


def layer_metrics(plain: list[PassResult], traced: list[PassResult], notes: list[str]) -> dict:
    per_pass = [pass_layers(p) for p in traced]
    values = {name: _median([m.get(name, 0.0) for m in per_pass]) for name, _ in PER_LAYER}
    values["cli.cpu_s"] = _median([p.cpu for p in plain])
    untraced_wall = _median([p.wall for p in plain])
    traced_wall = _median([m["pass.wall_s"] for m in per_pass])
    values["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    missing = sorted(set().union(*(p.missing for p in traced)))
    if missing:
        notes.append(f"missing entry points (their layers read 0): {', '.join(missing)}")
    notes.append(
        f"self time by layer, median of {len(traced)} traced pass(es); "
        f"untraced median {untraced_wall:.4f} s over {len(plain)} pass(es):"
    )
    for name in _BREAKDOWN:
        notes.append(f"  {name:<20} {values[name]:10.4f} s")
    first = per_pass[0]
    total = sum(first[name] for name in _BREAKDOWN)
    notes.append(f"  {'sum, first pass':<20} {total:10.4f} s = its wall {first['pass.wall_s']:.4f} s")
    units = dict(PER_LAYER)
    for name, value in values.items():
        notes.append(f"{name} = {value:.6g} {units[name]}")
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, bool]:
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    try:
        run = Run(name, seed, seconds, traced, work)
        try:
            metrics, notes = run.execute()
        except ShapeError as exc:
            metrics, notes = {}, []
            run.fail("generator", [str(exc)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = run.failed
    print(f"== {name} (seed {seed}, {'traced' if traced else 'untraced'})")
    for line in notes:
        print(line)
    print(f"failed_ops_ratio = {failed / max(run.attempted, 1):.6g} ({failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, failed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=33)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "xindices" / "cli.py").is_file():
        print(f"error: no xindices sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result, passed = run_one(name, args.seed, args.seconds, bool(args.trace))
        ok = ok and passed
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
