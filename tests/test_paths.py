"""Path enumeration against an independent brute-force search."""

import random

import pytest

from cfgprint.cfg_builder import BasicBlock, cfg_from_statements
from cfgprint.frontend import normalize_source
from cfgprint.path_enum import ExecutionPath, enumerate_paths, filter_paths
from oracles import graph_from_edges, simple_paths


def random_graph(rng, n):
    """Random digraph on n blocks: forward edges make it DAG-ish,
    sprinkled back edges add cycles, the last block is the exit."""
    exit_id = n - 1
    edges = set()
    for i in range(n - 1):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((i, j))
        if not any(s == i for s, d in edges):
            edges.add((i, rng.randrange(i + 1, n)))
    for i in range(1, n - 1):
        for j in range(i):
            if rng.random() < 0.15:
                edges.add((i, j))
    edges = {(s, d) for s, d in edges if s != exit_id}
    return graph_from_edges(n, edges, exit_id)


def test_brute_force_agreement_on_random_graphs():
    rng = random.Random(20260816)
    for trial in range(500):
        n = rng.randint(2, 8)
        cfg = random_graph(rng, n)
        expected = simple_paths(n, cfg.edges, 0, n - 1)
        got = sorted(p.block_ids for p in enumerate_paths(cfg).paths)
        assert got == expected, f"trial {trial}"


def test_paths_are_simple_and_ordered():
    src = "while (a > 0) if (b > 1) output 1; else output 2; endif endwhile output 3;"
    cfg = cfg_from_statements(normalize_source(src))
    result = enumerate_paths(cfg)
    assert not result.truncated
    seen = set()
    for path in result.paths:
        assert len(set(path.block_ids)) == len(path.block_ids)  # no revisits
        assert path.block_ids[0] == cfg.entry_id
        assert path.block_ids[-1] == cfg.exit_id
        for a, b in zip(path.block_ids, path.block_ids[1:]):
            assert (a, b) in cfg.edges
        seen.add(path.block_ids)
    assert len(seen) == len(result.paths)
    # deterministic: DFS explores successors in ascending block order
    assert [p.block_ids for p in enumerate_paths(cfg).paths] == [
        p.block_ids for p in result.paths
    ]


def test_loop_taken_once_or_skipped():
    src = "declare x; x = 0; while (x < 3) x = x + 1; endwhile output x;"
    cfg = cfg_from_statements(normalize_source(src))
    ids = sorted(p.block_ids for p in enumerate_paths(cfg).paths)
    # exactly two routes: skip the body, or run it once and leave
    assert ids == [(0, 1, 2, 3, 4), (0, 1, 3, 4)]


def test_real_block_count_excludes_virtual_exit():
    src = "if (x > 0) output 1; endif"
    cfg = cfg_from_statements(normalize_source(src))
    for path in enumerate_paths(cfg).paths:
        assert path.real_block_count == len(path.block_ids) - 1


def test_real_block_count_on_direct_graph_without_virtual_exit():
    cfg = graph_from_edges(2, {(0, 1)}, 1)
    paths = enumerate_paths(cfg).paths
    assert paths[0].block_ids == (0, 1)
    assert paths[0].real_block_count == 2


def test_real_block_count_with_a_virtual_block_besides_the_exit():
    # block 1 is virtual but is not the exit, so it must not count
    blocks = (
        BasicBlock(0, ()),
        BasicBlock(1, (), is_virtual_exit=True),
        BasicBlock(2, ()),
        BasicBlock(3, (), is_virtual_exit=True),
    )
    cfg = graph_from_edges(blocks, {(0, 1), (0, 2), (1, 2), (2, 3)}, 3)
    paths = enumerate_paths(cfg).paths
    assert [(p.block_ids, p.real_block_count) for p in paths] == [
        ((0, 1, 2, 3), 2),
        ((0, 2, 3), 2),
    ]


def test_execution_path_contract():
    path = ExecutionPath((0, 1, 2), 2)
    assert ExecutionPath._fields == ("block_ids", "real_block_count")
    assert (path.block_ids, path.real_block_count) == ((0, 1, 2), 2)
    assert path == ExecutionPath(block_ids=(0, 1, 2), real_block_count=2)
    assert hash(path) == hash(ExecutionPath((0, 1, 2), 2))
    with pytest.raises(AttributeError):
        path.block_ids = (0,)
    with pytest.raises(AttributeError):
        path.real_block_count = 5
    assert repr(path) == "ExecutionPath(block_ids=(0, 1, 2), real_block_count=2)"
    # enumerated paths are the same type as constructed ones
    cfg = cfg_from_statements(normalize_source("if (x > 0) output 1; endif"))
    for enumerated in enumerate_paths(cfg).paths:
        assert type(enumerated) is ExecutionPath
        assert enumerated == ExecutionPath(*enumerated)


def test_truncation_flag_and_cap():
    # complete DAG on 12 blocks has far more than 20 entry->exit paths
    n = 12
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    cfg = graph_from_edges(n, edges, n - 1)
    capped = enumerate_paths(cfg, max_paths=20)
    assert capped.truncated
    assert len(capped.paths) == 20
    full = enumerate_paths(cfg, max_paths=10**6)
    assert not full.truncated
    assert len(full.paths) == 2 ** (n - 2)  # subsets of the interior blocks
    assert capped.paths == full.paths[:20]


def test_max_paths_validation():
    cfg = cfg_from_statements(normalize_source("output 1;"))
    with pytest.raises(ValueError):
        enumerate_paths(cfg, max_paths=0)


def test_filter_paths_threshold():
    paths = [
        ExecutionPath((0, 5), 1),
        ExecutionPath((0, 1, 5), 2),
        ExecutionPath((0, 1, 2, 5), 3),
        ExecutionPath((0, 1, 2, 3, 5), 4),
    ]
    kept = filter_paths(paths, min_blocks=3)
    assert [p.real_block_count for p in kept] == [3, 4]
    assert filter_paths(paths, min_blocks=1) == list(paths)


def test_filter_paths_default_is_three():
    paths = [ExecutionPath((0, 9), 2), ExecutionPath((0, 1, 9), 3)]
    assert [p.real_block_count for p in filter_paths(paths)] == [3]


def test_filter_paths_rejects_min_blocks_below_one():
    with pytest.raises(ValueError, match="^min_blocks must be >= 1, got 0$"):
        filter_paths([ExecutionPath((0, 1), 1)], 0)


def test_entry_that_is_the_exit_gives_one_path():
    result = enumerate_paths(graph_from_edges(1, set(), 0))
    assert [(p.block_ids, p.real_block_count) for p in result.paths] == [((0,), 1)]
    assert not result.truncated


def test_unreachable_exit_yields_no_paths():
    cfg = graph_from_edges(3, {(0, 1)}, 2)
    result = enumerate_paths(cfg)
    assert result.paths == ()
    assert not result.truncated


def test_long_program_does_not_exhaust_recursion():
    # 500 sequential loops: 1002 blocks, and the first path visits all of them
    source = "declare x; " + " ".join(
        "while (x > 0) x = x - 1; endwhile" for _ in range(500)
    )
    cfg = cfg_from_statements(normalize_source(source))
    assert len(cfg.blocks) == 1002
    result = enumerate_paths(cfg, max_paths=50)
    assert result.truncated
    assert len(result.paths) == 50
    assert result.paths[0].block_ids == tuple(range(1002))
    ids = [p.block_ids for p in result.paths]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    for path in ids:
        assert path[0] == cfg.entry_id and path[-1] == cfg.exit_id
        assert all((a, b) in cfg.edges for a, b in zip(path, path[1:]))

