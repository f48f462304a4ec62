"""Simple-path enumeration over a CFG.

A path runs from the entry block to the exit block and never repeats a
block, so each loop contributes at most one traversal per path. Search
is depth-first over the graph's successor rows, ascending by block id,
so the output order is deterministic (lexicographic by block id). The
walk marks the blocks on its trail in a list of flags indexed by block
id, and copies the trail into a tuple once per path found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .cfg_builder import ControlFlowGraph
from .config import DEFAULT_MAX_PATHS, DEFAULT_MIN_BLOCKS


class ExecutionPath(NamedTuple):
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


def enumerate_paths(cfg: ControlFlowGraph, max_paths: int = DEFAULT_MAX_PATHS) -> PathSet:
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
    del collected[max_paths:]
    # every path ends at the exit, and a simple path holds each other
    # block once, so its other virtual blocks are the ids it shares
    # with `extra` (empty for graphs built from source)
    at_exit = int(cfg.exit_id in virtual)
    extra = virtual - {cfg.exit_id}
    new = tuple.__new__  # skips the Python-level NamedTuple constructor
    paths = tuple(
        new(
            ExecutionPath,
            (ids, len(ids) - at_exit - (len(extra.intersection(ids)) if extra else 0)),
        )
        for ids in collected
    )
    return PathSet(paths=paths, truncated=truncated)


def filter_paths(
    paths: Sequence[ExecutionPath], min_blocks: int = DEFAULT_MIN_BLOCKS
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
    succ = cfg.successors
    collected: list[tuple[int, ...]] = []
    trail = [entry]
    on_trail = [False] * len(succ)  # by block id
    on_trail[entry] = True
    pending = [iter(succ[entry])]  # unexplored successors per trail block
    while pending:
        for nxt in pending[-1]:
            if on_trail[nxt]:
                continue
            if nxt == exit_id:
                trail.append(nxt)
                collected.append(tuple(trail))
                trail.pop()
                if len(collected) >= limit:
                    return collected
                continue
            trail.append(nxt)
            on_trail[nxt] = True
            pending.append(iter(succ[nxt]))
            break
        else:
            on_trail[trail.pop()] = False
            pending.pop()
    return collected
