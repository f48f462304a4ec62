"""Spans and counters around cfgprint's public functions.

`Tracer.installed()` rebinds each traced name where its caller looks it
up: `pipeline` imports the stage functions by name, `index_store`
imports `pair_report` by name, `cloneforge` imports `run_pipeline` by
name, `cluster` looks up `similarity.score_pair` at call time, and the
benchmark calls `index_directory`, `load_index`, `run_pipeline` and
`evaluate` through their modules. Methods are patched on
`FingerprintIndex`. Nothing inside the package changes.

Each call becomes a span (name, start, end, parent, request id) kept in
flat arrays, and written out by `dump()` when the run ends. The tracer's
own time per span (bookkeeping and the span's counter, outside its
start..end) is kept too. A layer's self time is its spans' durations
minus their children's durations and their children's tracer time; the
sum of tracer time is the tracing overhead. It leaves out only the call
into each wrapper and the return from it.
"""

from __future__ import annotations

import json
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from cfgprint import cloneforge, index_store, pipeline, similarity


def _count_cfg(result, args, kwargs, tracer):
    tracer.counts["cfg_builder.blocks"] += len(result.real_blocks)
    tracer.counts["cfg_builder.edges"] += len(result.edges)


def _count_enumerate(result, args, kwargs, tracer):
    tracer.counts["path_enum.paths"] += len(result.paths)
    tracer.counts["path_enum.path_blocks"] += sum(len(p.block_ids) for p in result.paths)
    tracer.counts["path_enum.truncated"] += int(result.truncated)


def _count_fingerprint(result, args, kwargs, tracer):
    paths, cfg = args[0], args[1]
    blocks = cfg.blocks
    tracer.counts["fingerprint.statement_hashes"] += sum(
        len(blocks[b].statements) for p in paths for b in p.block_ids
    )
    on_paths = {b for p in paths for b in p.block_ids}
    tracer.counts["fingerprint.distinct_statements"] += len(
        {s.text for b in on_paths for s in blocks[b].statements}
    )
    tracer.counts["fingerprint.fingerprints"] += len(result.fingerprints)


def _count_query(result, args, kwargs, tracer):
    tracer.counts["index_store.records_scanned"] += args[0].last_query_scorings
    tracer.counts["index_store.candidates"] += len(result)
    if tracer.open_spans["cloneforge.evaluate"]:
        tracer.counts["cloneforge.query_rounds"] += 1


def _count_pair_report(result, args, kwargs, tracer):
    tracer.counts["similarity.pair_report_calls"] += 1
    tracer.counts["similarity.distance_cells"] += len(args[0].fingerprints) * len(
        args[1].fingerprints
    )


def _count_save(result, args, kwargs, tracer):
    tracer.counts["index_store.cdx_bytes"] += os.path.getsize(args[1])


def _count_cluster(result, args, kwargs, tracer):
    n = sum(1 for r in args[0].records.values() if r.fingerprints)
    tracer.counts["index_store.cluster_pairs"] += n * (n - 1) // 2


def _counter(name: str, value: Callable = lambda result: 1):
    def count(result, args, kwargs, tracer):
        tracer.counts[name] += value(result)

    return count


FI = index_store.FingerprintIndex

# (owner, attribute, span name, counter run after the call)
TARGETS = [
    (pipeline, "tokenize", "frontend.tokenize", _counter("frontend.tokens", len)),
    (pipeline, "parse", "frontend.parse", None),
    (pipeline, "normalize", "frontend.normalize", None),
    (pipeline, "cfg_from_statements", "cfg_builder", _count_cfg),
    (pipeline, "enumerate_paths", "path_enum.enumerate", _count_enumerate),
    (pipeline, "filter_paths", "path_enum.filter", _counter("path_enum.paths_kept", len)),
    (pipeline, "fingerprint_program", "fingerprint", _count_fingerprint),
    (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
    (cloneforge, "run_pipeline", "pipeline.run_pipeline", None),
    (pipeline, "index_directory", "pipeline.index_directory", None),
    (index_store, "pair_report", "similarity.pair_report", _count_pair_report),
    (similarity, "score_pair", "similarity.score_pair",
     _counter("similarity.score_pair_calls")),
    (FI, "add_program", "index_store.add", None),
    (FI, "query", "index_store.query", _count_query),
    (FI, "cluster", "index_store.cluster", _count_cluster),
    (FI, "save", "index_store.save", _count_save),
    (index_store, "load_index", "index_store.load", None),
    (cloneforge, "evaluate", "cloneforge.evaluate", None),
]

# per-layer self-time metric -> the spans whose self time it sums
LAYER_TIMES = {
    "frontend.tokenize_ms": ("frontend.tokenize",),
    "frontend.parse_ms": ("frontend.parse",),
    "frontend.normalize_ms": ("frontend.normalize",),
    "cfg_builder.ms": ("cfg_builder",),
    "path_enum.enumerate_ms": ("path_enum.enumerate",),
    "path_enum.filter_ms": ("path_enum.filter",),
    "fingerprint.ms": ("fingerprint",),
    "pipeline.ms": ("pipeline.run_pipeline", "pipeline.index_directory"),
    "index_store.add_ms": ("index_store.add",),
    "index_store.save_ms": ("index_store.save",),
    "index_store.load_ms": ("index_store.load",),
    "index_store.query_ms": ("index_store.query",),
    "index_store.cluster_ms": ("index_store.cluster",),
    "similarity.ms": ("similarity.pair_report", "similarity.score_pair"),
    "cloneforge.evaluate_ms": ("cloneforge.evaluate",),
}

COUNTS = (
    "frontend.tokens",
    "cfg_builder.blocks",
    "cfg_builder.edges",
    "path_enum.paths",
    "path_enum.paths_kept",
    "path_enum.path_blocks",
    "path_enum.truncated",
    "fingerprint.statement_hashes",
    "fingerprint.distinct_statements",
    "fingerprint.fingerprints",
    "index_store.cdx_bytes",
    "index_store.records_scanned",
    "index_store.candidates",
    "index_store.cluster_pairs",
    "similarity.pair_report_calls",
    "similarity.distance_cells",
    "similarity.score_pair_calls",
    "cloneforge.query_rounds",
)


class Tracer:
    def __init__(self, now: Callable[[], float]):
        self.now = now
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_id = array("i")
        self.cost = array("d")  # tracer seconds per span outside start..end
        self.counts: Counter = Counter()
        self.open_spans: Counter = Counter()
        self._stack: list[int] = []
        self._request = 0

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request_id.append(self._request)
        self.end.append(0.0)
        self.cost.append(0.0)
        self._stack.append(sid)
        self.open_spans[name] += 1
        self.start.append(self.now())
        return sid

    def _close(self, sid: int, name: str) -> None:
        self.end[sid] = self.now()
        self._stack.pop()
        self.open_spans[name] -= 1

    @contextmanager
    def request(self, name: str):
        """Root span of one request; its descendants share its id."""
        entered = self.now()
        self._request += 1
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid, name)
            self._charge(sid, entered)

    def _charge(self, sid: int, entered: float) -> None:
        """Record the tracer time of span `sid`, entered at `entered`."""
        self.cost[sid] = self.now() - entered - (self.end[sid] - self.start[sid])

    def wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            entered = self.now()
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name)
            if count is not None:
                count(result, args, kwargs, self)
            self._charge(sid, entered)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        saved = []
        wrappers: dict[int, Callable] = {}
        try:
            for owner, attr, name, count in TARGETS:
                original = owner.__dict__[attr]
                # one wrapper per function, so a function bound under two
                # names (run_pipeline) records one span per call
                wrapper = wrappers.setdefault(id(original), self.wrap(original, name, count))
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self) -> tuple[int, Counter]:
        return len(self.start), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> dict:
        """Self time per layer (ms), counts, span total and tracing
        overhead (ms) for the spans opened after `since`, which must all
        be closed."""
        first, counts_before = since
        n = len(self.start)
        child = [0.0] * (n - first)
        for sid in range(first, n):
            parent = self.parent[sid]
            if parent >= first:
                child[parent - first] += self.end[sid] - self.start[sid] + self.cost[sid]
        self_ms: Counter = Counter()
        for sid in range(first, n):
            name = self.names[self.name_id[sid]]
            self_ms[name] += (self.end[sid] - self.start[sid] - child[sid - first]) * 1000.0
        out = {metric: sum(self_ms[s] for s in spans) for metric, spans in LAYER_TIMES.items()}
        out.update({name: self.counts[name] - counts_before[name] for name in COUNTS})
        out["trace.spans"] = n - first
        out["trace.overhead_ms"] = sum(self.cost[first:n]) * 1000.0
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid in range(len(self.start)):
                handle.write(
                    json.dumps(
                        [sid, self.names[self.name_id[sid]], self.start[sid], self.end[sid],
                         self.parent[sid], self.request_id[sid]]
                    )
                    + "\n"
                )
