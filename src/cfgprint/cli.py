"""Command-line interface.

Subcommands: index, query, compare, dot, cluster. Every command but
dot builds one report dict and prints it through `_emit`: under --json
as JSON, otherwise as text made of a title, the config line, the body
lines and the timings line, with the same values as the JSON. JSON
output is deterministic for identical inputs except for the timings_ms
block. Exit codes: 0 success (including empty result sets), 1
operational failure (unparseable probe, incompatible index, invalid
configuration, out of memory), 2 usage or IO errors (a closed stdout
exits 2 with no message).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

from .config import (
    FINGERPRINT_BITS,
    HASH_NAME,
    MODES,
    NORMALIZATION_VERSION,
    ConfigStamp,
    RunConfig,
)
from .cfg_builder import cfg_from_statements, export_dot
from .fingerprint import shared, shared_work, to_hex
from .frontend import MiniProcSyntaxError, normalize_source
from .index_store import IndexCompatibilityError, IndexRecord, load_index
from .pipeline import index_directory, read_source, run_pipeline
from .similarity import _PairKernel, classify, score_pair


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--alpha", type=int, default=None,
                        help="max differing bits for two paths to match")
    shared.add_argument("--threshold", type=float, default=None,
                        help="min program score to report (0..1)")
    shared.add_argument("--min-blocks", type=int, default=None,
                        help="drop paths covering fewer real blocks")
    shared.add_argument("--max-paths", type=int, default=None,
                        help="cap on enumerated paths per program")
    shared.add_argument("--mode", choices=MODES, default=None,
                        help="program score: containment or resemblance")
    shared.add_argument("--json", action="store_true", help="emit the JSON report")

    parser = argparse.ArgumentParser(
        prog="cfgprint",
        description="Clone detection via control-flow path fingerprints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", parents=[shared], help="fingerprint a directory of .mp files")
    p.add_argument("directory")
    p.add_argument("-o", "--out", required=True, help="index file to write (.cdx)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel fingerprinting workers (default 1)")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", parents=[shared], help="rank index entries against a probe file")
    p.add_argument("file")
    p.add_argument("index_path")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("compare", parents=[shared], help="score two files against each other")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dot", help="emit the control-flow graph in DOT")
    p.add_argument("file")
    p.add_argument("-o", "--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("cluster", parents=[shared], help="group mutually similar index entries")
    p.add_argument("index_path")
    p.set_defaults(func=cmd_cluster)

    return parser


class UsageError(Exception):
    pass


def _run_config(args: argparse.Namespace, stamp: ConfigStamp | None = None) -> RunConfig:
    """The flags given, over the defaults. Against an index the header
    supplies the default alpha, and min_blocks comes from it: an
    explicit --min-blocks must agree with the header."""
    if stamp is None:
        defaults = RunConfig()
    else:
        if args.min_blocks is not None and args.min_blocks != stamp.min_blocks:
            raise IndexCompatibilityError(
                f"incompatible index configuration: --min-blocks {args.min_blocks} "
                f"vs index min_blocks {stamp.min_blocks}"
            )
        defaults = RunConfig(alpha=stamp.alpha, min_blocks=stamp.min_blocks)
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    config = replace(defaults, **{k: v for k, v in given.items() if v is not None})
    config.validate()
    return config


def _config_echo(config: RunConfig) -> dict:
    return {
        **asdict(config),
        "r": FINGERPRINT_BITS,
        "hash": HASH_NAME,
        "normalization": NORMALIZATION_VERSION,
    }


def _config_line(echo: dict) -> str:
    """The `_config_echo` fields in order, each value as the JSON
    echoes it: a float in full, `1.0` and not `1`."""
    return "config: " + " ".join(f"{k}={v}" for k, v in echo.items())


def _warnings_line(program_ids: list[str]) -> str:
    return "truncation warnings: " + (", ".join(program_ids) if program_ids else "none")


def _emit(args: argparse.Namespace, report: dict, title: str, body: list[str]) -> None:
    """The report as JSON under --json; otherwise the title, the config
    line, the body lines and the timings line."""
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    timings = " ".join(f"{k}={v:.2f}" for k, v in sorted(report["timings_ms"].items()))
    print("\n".join([title, _config_line(report["config"]), *body, f"timings_ms: {timings}"]))


@contextmanager
def _naming(path: str) -> Iterator[None]:
    """Name `path` in the error (exit 1) when the program file inside
    the block is not UTF-8 or does not parse, as `index` names the
    files it skips."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except MiniProcSyntaxError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- index ---------------------------------------------------------------


def cmd_index(args: argparse.Namespace) -> int:
    config = _run_config(args)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")

    build = index_directory(args.directory, config, jobs=args.jobs)
    for program_id, diagnostic in build.skipped:
        print(f"skipped {program_id}: {diagnostic}", file=sys.stderr)

    t0 = time.perf_counter()
    build.index.save(args.out)
    build.timings_ms["write"] = (time.perf_counter() - t0) * 1000.0

    truncated = [pid for pid, record in build.index.records.items() if record.truncated]
    report = {
        "report": "index",
        "directory": str(args.directory),
        "out_path": str(args.out),
        "indexed": len(build.index.records),
        "skipped": [{"program_id": pid, "error": msg} for pid, msg in build.skipped],
        "unscoreable": build.unscoreable,
        "truncated": truncated,
        "config": _config_echo(config),
        "timings_ms": build.timings_ms,
    }
    body = [
        f"skipped: {len(build.skipped)}",
        *(f"  {pid}: {msg}" for pid, msg in build.skipped),
        f"unscoreable: {len(build.unscoreable)}",
        *(f"  {pid}" for pid in build.unscoreable),
        f"truncated: {len(truncated)}",
        *(f"  {pid}" for pid in truncated),
    ]
    title = f"indexed {report['indexed']} programs from {args.directory} into {args.out}"
    _emit(args, report, title, body)
    return 0


# -- query ---------------------------------------------------------------


def _candidate_json(candidate) -> dict:
    return {
        "program_id": candidate.program_id,
        "score": candidate.score.value,
        "matched_count": candidate.score.matched_count,
        "denominator": candidate.score.denominator,
        "grade": candidate.grade,
        "evidence": [
            {"probe": p, "record": r, "distance": d}
            for p, r, d in candidate.matched_path_evidence
        ],
    }


def _resolves_to(path: str, resolved: str) -> bool:
    """Whether `path` resolves to `resolved`. A path that cannot be
    resolved at all, such as one holding a NUL byte or a symlink loop,
    names no file."""
    try:
        return str(Path(path).resolve()) == resolved
    except (ValueError, OSError, RuntimeError):
        return False


def _self_match(records: dict[str, IndexRecord], resolved: str) -> str | None:
    """The id of the first record whose source path resolves to
    `resolved`, or None. Resolving keeps a path's last component unless
    that component is a symlink, `.`, `..` or missing, so only a record
    whose last component is one of those or `resolved`'s own is
    resolved; the rest cost a string split and at most one `lstat`."""
    name = os.path.basename(resolved)
    for pid, record in records.items():
        path = record.source_path
        if not path:
            continue
        last = os.path.basename(path)
        if (
            last == name or last in ("", ".", "..") or os.path.islink(path)
        ) and _resolves_to(path, resolved):
            return pid
    return None


def cmd_query(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    index = load_index(args.index_path)
    t_load = (time.perf_counter() - t0) * 1000.0
    config = _run_config(args, index.config_stamp)

    # if the probe file is itself indexed, adopt the record's id so the
    # scan skips the trivial self-match
    probe_id = _self_match(index.records, str(Path(args.file).resolve()))
    if probe_id is None:
        # a record that merely shares the probe's name is a real
        # candidate, not a self-match; pick an id no record uses
        probe_id = str(args.file)
        while probe_id in index.records:
            probe_id = "probe:" + probe_id
    with _naming(args.file):
        result = run_pipeline(read_source(args.file), probe_id, config)
    probe = result.program

    timings = {**result.timings_ms, "load": t_load}

    # `index.query` refuses a probe with no surviving paths: it has no candidates
    body = []
    candidates = []
    if probe.scoreable:
        t1 = time.perf_counter()
        candidates = index.query(probe, config.alpha, config.threshold, config.mode)
        timings["scan"] = (time.perf_counter() - t1) * 1000.0
    else:
        body.append("probe has no surviving paths at this min_blocks; nothing to score")

    warnings = [probe.program_id] if probe.truncated else []
    for c in candidates:
        if index.records[c.program_id].truncated and c.program_id not in warnings:
            warnings.append(c.program_id)

    report = {
        "report": "query",
        "query_id": probe.program_id,
        "probe_unscoreable": not probe.scoreable,
        "candidates": [_candidate_json(c) for c in candidates],
        "truncation_warnings": warnings,
        "config": _config_echo(config),
        "timings_ms": timings,
    }
    body.append(f"{len(candidates)} candidates")
    for rank, c in enumerate(candidates, 1):
        body.append(
            f"  {rank}. {c.program_id} score={c.score.value:.4f} grade={c.grade} "
            f"matched={c.score.matched_count}/{c.score.denominator}"
        )
        body += [f"       probe {p} ~ record {r} d={d}" for p, r, d in c.matched_path_evidence]
    body.append(_warnings_line(warnings))
    _emit(args, report, f"query {args.file} against {args.index_path}", body)
    return 0


# -- compare -------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    config = _run_config(args)

    results = {}
    timings: dict[str, float] = {}
    for side, path in (("left", args.left), ("right", args.right)):
        with _naming(path):
            results[side] = run_pipeline(read_source(path), str(path), config)
        for stage, ms in results[side].timings_ms.items():
            timings[f"{side}_{stage}"] = ms
    a, b = results["left"].program, results["right"].program

    report = {
        "report": "compare",
        "left": a.program_id,
        "right": b.program_id,
        "config": _config_echo(config),
        "timings_ms": timings,
    }
    title = f"compare {args.left} ~ {args.right}"

    bad = [fp.program_id for fp in (a, b) if not fp.scoreable]
    if bad:
        report.update(verdict="unscoreable", unscoreable=bad)
        body = ["verdict: unscoreable (no surviving paths in: " + ", ".join(bad) + ")"]
        _emit(args, report, title, body)
        return 0

    t0 = time.perf_counter()
    # both modes and the printed matrix come from one kernel of the pair
    with shared_work():
        scores = {mode: score_pair(a, b, config.alpha, mode) for mode in MODES}
        kernel = shared(_PairKernel, a, b)
    timings["score"] = (time.perf_counter() - t0) * 1000.0

    matrix = kernel.matrix.tolist()
    row_hex = [to_hex(bits) for bits in a.fingerprints]
    col_hex = [to_hex(bits) for bits in b.fingerprints]
    path_grades = [
        {"probe": h, "distance": d, "grade": classify(d)}
        for h, d in zip(row_hex, kernel.row_minima)
    ]
    warnings = [fp.program_id for fp in (a, b) if fp.truncated]
    report.update(
        {
            mode: {"score": s.value, "matched_count": s.matched_count, "denominator": s.denominator}
            for mode, s in scores.items()
        },
        verdict="scored",
        grade=classify(kernel.min_distance),
        row_fingerprints=row_hex,
        col_fingerprints=col_hex,
        distance_matrix=matrix,
        path_grades=path_grades,
        truncation_warnings=warnings,
    )

    body = [
        "verdict: scored",
        *(
            f"{mode}: {s.value:.4f} (matched {s.matched_count}/{s.denominator}, "
            f"alpha={config.alpha})"
            for mode, s in scores.items()
        ),
        f"grade: {report['grade']}",
        f"distance matrix ({len(row_hex)} left paths x {len(col_hex)} right paths):",
        "           " + " ".join(h[:8] for h in col_hex),
        *(f"  {h[:8]} " + " ".join(f"{d:8d}" for d in row) for h, row in zip(row_hex, matrix)),
        "path grades:",
        *(f"  {g['probe']} min_distance={g['distance']} {g['grade']}" for g in path_grades),
        _warnings_line(warnings),
    ]
    _emit(args, report, title, body)
    return 0


# -- dot -----------------------------------------------------------------


def cmd_dot(args: argparse.Namespace) -> int:
    with _naming(args.file):
        statements = normalize_source(read_source(args.file))
    dot = export_dot(cfg_from_statements(statements))
    if args.out is None:
        sys.stdout.write(dot)
    else:
        Path(args.out).write_text(dot, encoding="utf-8")
    return 0


# -- cluster -------------------------------------------------------------


def cmd_cluster(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    index = load_index(args.index_path)
    t_load = (time.perf_counter() - t0) * 1000.0
    config = _run_config(args, index.config_stamp)

    t1 = time.perf_counter()
    groups = index.cluster(config.alpha, config.threshold, config.mode)
    timings = {"load": t_load, "cluster": (time.perf_counter() - t1) * 1000.0}

    warnings = [m for g in groups for m in g.members if index.records[m].truncated]
    report = {
        "report": "cluster",
        "index_path": str(args.index_path),
        "groups": [
            {"members": list(g.members), "mean_score": g.mean_score} for g in groups
        ],
        "truncation_warnings": warnings,
        "config": _config_echo(config),
        "timings_ms": timings,
    }
    body = [f"{len(groups)} groups"]
    for i, g in enumerate(groups, 1):
        body.append(f"  group {i} (mean score {g.mean_score:.4f}):")
        body += [f"    {m}" for m in g.members]
    body.append(_warnings_line(warnings))
    _emit(args, report, f"cluster {args.index_path}", body)
    return 0


# -- entry ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # a reader that closed stdout is seen here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; what is left in its buffer goes to
        # the null device, so the interpreter's final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # MiniProcSyntaxError, IndexFormatError and IndexCompatibilityError
        # are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; a smaller --max-paths may fit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
