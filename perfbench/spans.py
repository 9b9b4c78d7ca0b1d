"""Span tracing for the traced run.

Run as ``python3 perfbench/spans.py SPANS_JSON -- <xindex arguments>`` with
the library on ``PYTHONPATH``: it rebinds each layer's public entry points,
in every ``xindices`` namespace that holds them, to wrappers that record a
span (name, layer, start, end, parent, counts), then calls
``xindices.cli.main(argv)`` in this process and writes the spans out when
``main`` returns. An entry point that no longer exists is listed as
missing instead of failing the run.

Imported, it only provides ``analyse``, which turns a pass's spans into
per-layer self times and counts; importing it loads no library code.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time

# layer -> (home module, entry points); "Report.render" is a method.
LAYERS = {
    "ingest": ("xindices.ingest", ("read_table",)),
    "corpus": ("xindices.corpus", ("build_corpus", "partition_by_group")),
    "stats": ("xindices.stats", ("estimate_stats", "load_reference_stats", "write_reference_stats")),
    "kernel": (
        "xindices.kernel",
        ("kernel_index", "h_type_index", "g_type_index", "first_crossing_index", "rank_items"),
    ),
    "indices": (
        "xindices.indices",
        (
            "x_index", "xc_index", "xd_index", "xdf_index", "xdfn_index",
            "ivw_xd_index", "xo_index", "nested_index",
        ),
    ),
    "report": ("xindices.report", ("Report.render",)),
    "cli": ("xindices.cli", ("main",)),
}

# Namespaces that import entry points by name; wrappers replace them there.
NAMESPACES = (
    "xindices", "xindices.cli", "xindices.indices", "xindices.kernel",
    "xindices.ingest", "xindices.corpus", "xindices.stats", "xindices.report",
)

_RSS_LAYERS = ("ingest", "corpus")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts read at the span boundary from arguments and result."""
    if name == "read_table":
        # read_table leaves the stream closed, so size the file by name.
        return {"records": len(result.records), "bytes": os.path.getsize(args[0].name)}
    if name == "build_corpus":
        return {"corpora": 1, "pubs": len(result)}
    if name == "partition_by_group":
        return {"corpora": len(result), "pubs": sum(len(c) for c in result.values())}
    if name == "estimate_stats":
        return {"samples": sum(entry.n for entry in result.entries())}
    if name == "Report.render":
        return {"rows": len(args[0].result.table.rows), "bytes": len(result.encode("utf-8"))}
    if name in LAYERS["kernel"][1]:
        return {"items": len(result.table) if hasattr(result, "table") else len(result)}
    return {}


class Tracer:
    """Records spans in memory. Spans opened on a pool thread with no open
    span of its own take the innermost open span of the main thread as
    parent, since the pools run inside an index function."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        main_stack = self._stacks.get(self._main)
        return main_stack[-1] if main_stack else None

    def wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            span = {"name": name, "layer": layer, "parent": self._parent(stack), "error": False}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            stack.append(span["id"])
            rss = _rss_bytes() if layer in _RSS_LAYERS else 0
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if layer in _RSS_LAYERS:
                span["rss_delta"] = _rss_bytes() - rss
            span["counts"] = _counts(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in NAMESPACES}
        for layer, (home, names) in LAYERS.items():
            for name in names:
                owner, attr = modules[home], name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(owner, cls, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{home}.{name}")
                    continue
                wrapper = self.wrap(layer, name, original)
                if owner is not modules[home]:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if key.startswith("__"):
                            continue
                        if value is original:
                            setattr(module, key, wrapper)
                        elif isinstance(value, dict) and original in value.values():
                            value.update({k: wrapper for k, v in value.items() if v is original})


def analyse(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: each stretch of time goes to the innermost
    spans open during it, shared equally when pool threads overlap, so the
    self times add up to the time the root spans cover."""
    # At equal times starts sort before ends, and parents (lower ids)
    # before children, so no span closes before it opens.
    events = []
    for span in spans:
        events.append((span["start"], 0, span["id"]))
        events.append((span["end"], 1, span["id"]))
    events.sort()
    by_id = {span["id"]: span for span in spans}
    open_children: dict[int, int] = {}
    innermost: set[int] = set()
    self_time = {span["id"]: 0.0 for span in spans}
    last = None
    for when, is_end, span_id in events:
        if last is not None and innermost:
            share = (when - last) / len(innermost)
            for open_id in innermost:
                self_time[open_id] += share
        last = when
        parent = by_id[span_id]["parent"]
        if not is_end:
            open_children[span_id] = 0
            innermost.add(span_id)
            if parent in open_children:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            del open_children[span_id]
            innermost.discard(span_id)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)
    return self_time


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("xindices.cli")
    try:
        code = cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
