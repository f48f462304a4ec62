"""Simple-path enumeration over a CFG.

A path runs from the entry block to the exit block and never repeats a
block, so each loop contributes at most one traversal per path. Search
is depth-first with successors explored in ascending block id, which
makes the output order deterministic (lexicographic by block id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cfg_builder import ControlFlowGraph


@dataclass(frozen=True)
class ExecutionPath:
    """One entry-to-exit block sequence.

    real_block_count excludes the synthetic exit block, so it reflects
    how much program the path actually covers.
    """

    block_ids: tuple[int, ...]
    real_block_count: int


@dataclass(frozen=True)
class PathSet:
    paths: tuple[ExecutionPath, ...]
    truncated: bool


def enumerate_paths(cfg: ControlFlowGraph, max_paths: int = 10000) -> PathSet:
    """All simple entry-to-exit paths, in deterministic order.

    If more than max_paths exist, the first max_paths (in search order)
    are returned with truncated=True.
    """
    if max_paths < 1:
        raise ValueError(f"max_paths must be >= 1, got {max_paths}")
    virtual = {b.id for b in cfg.blocks if b.is_virtual_exit}
    # collect one extra path so truncation is detectable without a
    # separate existence probe
    collected = _walk(cfg, max_paths + 1)
    truncated = len(collected) > max_paths
    # a simple path holds each block once, so the virtual blocks on it
    # are exactly the ids it shares with `virtual`
    paths = tuple(
        ExecutionPath(ids, len(ids) - len(virtual.intersection(ids)))
        for ids in collected[:max_paths]
    )
    return PathSet(paths=paths, truncated=truncated)


def filter_paths(
    paths: Sequence[ExecutionPath], min_blocks: int = 3
) -> list[ExecutionPath]:
    """Keep paths covering at least min_blocks real blocks.

    Short paths are mostly boilerplate and would make unrelated
    programs look alike, so they are dropped before fingerprinting.
    """
    if min_blocks < 1:
        raise ValueError(f"min_blocks must be >= 1, got {min_blocks}")
    return [p for p in paths if p.real_block_count >= min_blocks]


def _walk(cfg: ControlFlowGraph, limit: int) -> list[tuple[int, ...]]:
    """Depth-first search with an explicit stack, so path length is not
    bounded by the interpreter's recursion limit. Stops after `limit`
    paths."""
    entry, exit_id = cfg.entry_id, cfg.exit_id
    if entry == exit_id:
        return [(entry,)]
    collected: list[tuple[int, ...]] = []
    trail = [entry]
    on_trail = {entry}
    pending = [iter(cfg.successors(entry))]  # unexplored successors per trail block
    while pending:
        for nxt in pending[-1]:
            if nxt in on_trail:
                continue
            if nxt == exit_id:
                collected.append((*trail, nxt))
                if len(collected) >= limit:
                    return collected
                continue
            trail.append(nxt)
            on_trail.add(nxt)
            pending.append(iter(cfg.successors(nxt)))
            break
        else:
            on_trail.discard(trail.pop())
            pending.pop()
    return collected
