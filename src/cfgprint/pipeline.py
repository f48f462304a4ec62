"""Source-to-fingerprint pipeline with per-stage timings."""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .cfg_builder import ControlFlowGraph, cfg_from_statements
from .config import ConfigStamp, RunConfig
from .fingerprint import ProgramFingerprint, fingerprint_program
from .frontend import MiniProcSyntaxError, NormalizedStatement, normalize, parse, tokenize
from .index_store import FingerprintIndex, record_from_program
from .path_enum import ExecutionPath, PathSet, enumerate_paths, filter_paths


@dataclass
class PipelineResult:
    statements: list[NormalizedStatement]
    cfg: ControlFlowGraph
    path_set: PathSet
    kept_paths: list[ExecutionPath]
    program: ProgramFingerprint
    timings_ms: dict[str, float] = field(default_factory=dict)


def run_pipeline(source: str, program_id: str, config: RunConfig) -> PipelineResult:
    """normalize -> CFG -> paths -> fingerprints for one source text.

    Raises MiniProcSyntaxError on unparseable input. A program whose
    paths all fall below min_blocks comes back with an empty (and
    therefore unscoreable) fingerprint set, not an error.
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    statements = normalize(parse(tokenize(source)))
    t1 = time.perf_counter()
    timings["frontend"] = (t1 - t0) * 1000.0

    cfg = cfg_from_statements(statements)
    t2 = time.perf_counter()
    timings["cfg"] = (t2 - t1) * 1000.0

    path_set = enumerate_paths(cfg, config.max_paths)
    kept = filter_paths(path_set.paths, config.min_blocks)
    t3 = time.perf_counter()
    timings["paths"] = (t3 - t2) * 1000.0

    program = fingerprint_program(
        kept, cfg, program_id, width=config.r, truncated=path_set.truncated
    )
    t4 = time.perf_counter()
    timings["fingerprint"] = (t4 - t3) * 1000.0

    return PipelineResult(
        statements=statements,
        cfg=cfg,
        path_set=path_set,
        kept_paths=kept,
        program=program,
        timings_ms=timings,
    )


def fingerprint_source(source: str, program_id: str, config: RunConfig) -> ProgramFingerprint:
    return run_pipeline(source, program_id, config).program


@dataclass
class IndexBuild:
    index: FingerprintIndex
    skipped: list[tuple[str, str]]  # (program id, diagnostic)
    unscoreable: list[str]
    timings_ms: dict[str, float]


def _fingerprint_task(task: tuple[str, str, RunConfig]) -> tuple[str, str, object]:
    """Worker for parallel indexing: (id, "ok", ProgramFingerprint) or
    (id, "error", message). Module-level so it pickles."""
    program_id, source_path, config = task
    try:
        source = Path(source_path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return (program_id, "error", f"not UTF-8 text: {exc}")
    except OSError as exc:
        return (program_id, "error", f"cannot read: {exc}")
    try:
        program = fingerprint_source(source, program_id, config)
    except MiniProcSyntaxError as exc:
        return (program_id, "error", str(exc))
    return (program_id, "ok", program)


def index_directory(directory: str | Path, config: RunConfig, jobs: int = 1) -> IndexBuild:
    """Fingerprint every .mp file under directory into a fresh index.

    Files are discovered recursively and processed in sorted relative
    path order, so the resulting index is deterministic regardless of
    filesystem ordering or worker count. Directories named `*.mp` are
    not programs and are not listed. Files that cannot be read, are not
    UTF-8 or do not parse are skipped with a diagnostic; programs with
    no surviving paths are indexed with an empty fingerprint list and
    reported as unscoreable.
    """
    config.validate()
    root = Path(directory)
    if not root.exists():
        raise FileNotFoundError(f"no such directory: {root}")
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")

    t0 = time.perf_counter()
    # relative names are unique, so the sort never compares the later fields
    tasks = sorted(
        (p.relative_to(root).as_posix(), str(p), config)
        for p in root.rglob("*.mp")
        if not p.is_dir()
    )
    t1 = time.perf_counter()

    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_fingerprint_task, tasks, chunksize=8))
    else:
        results = [_fingerprint_task(t) for t in tasks]
    t2 = time.perf_counter()

    stamp = ConfigStamp.from_config(config)
    index = FingerprintIndex(config_stamp=stamp)
    skipped: list[tuple[str, str]] = []
    unscoreable: list[str] = []
    for (program_id, source_path, _), (rid, status, payload) in zip(tasks, results):
        assert rid == program_id
        if status == "error":
            skipped.append((program_id, str(payload)))
            continue
        program: ProgramFingerprint = payload  # type: ignore[assignment]
        if not program.scoreable:
            unscoreable.append(program_id)
        index.add_program(record_from_program(program, source_path, stamp))
    t3 = time.perf_counter()

    return IndexBuild(
        index=index,
        skipped=skipped,
        unscoreable=unscoreable,
        timings_ms={
            "scan": (t1 - t0) * 1000.0,
            "fingerprint": (t2 - t1) * 1000.0,
            "assemble": (t3 - t2) * 1000.0,
        },
    )
