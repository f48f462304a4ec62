"""Source-to-fingerprint pipeline with per-stage timings."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .cfg_builder import ControlFlowGraph, cfg_from_statements
from .config import ConfigStamp, RunConfig
from .fingerprint import ProgramFingerprint, fingerprint_program, shared_work
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

    program = fingerprint_program(kept, cfg, program_id, truncated=path_set.truncated)
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


def program_files(root: Path) -> list[tuple[str, Path]]:
    """Every `.mp` file under root as (relative POSIX name, path), sorted
    by that name. Directories named `*.mp` are not programs and are not
    listed."""
    # relative names are unique, so the sort never compares the paths
    return sorted(
        (p.relative_to(root).as_posix(), p) for p in root.rglob("*.mp") if not p.is_dir()
    )


def read_source(source_path: str | Path) -> str:
    """The text of one program file, which is UTF-8 with or without a
    leading byte-order mark (the mark is dropped). Raises
    UnicodeDecodeError for other bytes and OSError when the file cannot
    be read. Every command reads its programs through here."""
    return Path(source_path).read_text(encoding="utf-8-sig")


def run_program_file(
    program_id: str, source_path: str | Path, config: RunConfig
) -> tuple[str, PipelineResult] | str:
    """Read one program file and run the pipeline on it: (source,
    result), or the diagnostic for a file that cannot be read, is not
    UTF-8 or does not parse. Every caller skips such a file."""
    try:
        source = read_source(source_path)
    except UnicodeDecodeError as exc:
        return f"not UTF-8 text: {exc}"
    except OSError as exc:
        return f"cannot read: {exc}"
    try:
        return source, run_pipeline(source, program_id, config)
    except MiniProcSyntaxError as exc:
        return str(exc)


def _fingerprint_task(task: tuple[str, str, RunConfig]) -> ProgramFingerprint | str:
    """One file of `index_directory`: its ProgramFingerprint, or
    `run_program_file`'s diagnostic. Module-level so it pickles."""
    outcome = run_program_file(*task)
    return outcome if isinstance(outcome, str) else outcome[1].program


def index_directory(directory: str | Path, config: RunConfig, jobs: int = 1) -> IndexBuild:
    """Fingerprint every .mp file under directory into a fresh index.

    Files are discovered by `program_files` and processed in its order,
    so the resulting index is deterministic regardless of filesystem
    ordering or worker count. At most `jobs` worker processes run, and
    never more than there are files or CPUs; with one, the call runs
    serially in this process, inside one `shared_work` scope. Files
    that cannot be read, are not UTF-8 or do not parse are skipped with
    `run_program_file`'s diagnostic, in file order; programs with no
    surviving paths are indexed with an empty fingerprint list and
    reported as unscoreable.
    """
    config.validate()
    root = Path(directory)
    if not root.exists():
        raise FileNotFoundError(f"no such directory: {root}")
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")

    t0 = time.perf_counter()
    tasks = [(name, str(p), config) for name, p in program_files(root)]
    t1 = time.perf_counter()

    # under the fork start method the pool starts all `max_workers`
    # processes at its first submit, so a large `jobs` must not reach it
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which every
        # other run (and `import cfgprint.cli`) would pay for unused
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fingerprint_task, tasks, chunksize=8))
    else:
        with shared_work():
            results = [_fingerprint_task(t) for t in tasks]
    t2 = time.perf_counter()

    stamp = ConfigStamp.from_config(config)
    index = FingerprintIndex(config_stamp=stamp)
    skipped: list[tuple[str, str]] = []
    unscoreable: list[str] = []
    # the pool's map and the list both keep task order
    for (program_id, source_path, _), program in zip(tasks, results):
        if isinstance(program, str):
            skipped.append((program_id, program))
            continue
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
