"""Hashing: statement hash vectors, the SimHash majority rule, hex form."""

import concurrent.futures
import os
import pickle
import random
import re

import numpy as np
import pytest

from cfgprint import cloneforge, fingerprint, pipeline
from cfgprint.cfg_builder import BasicBlock, cfg_from_statements
from cfgprint.cloneforge import SizeSpec, build_corpus, evaluate, generate_program
from cfgprint.config import ConfigStamp, RunConfig
from cfgprint.fingerprint import (
    ProgramFingerprint,
    fingerprint_path,
    fingerprint_program,
    fnv1a64,
    from_hex,
    shared,
    shared_work,
    simhash_bits,
    to_hex,
)
from cfgprint.frontend import normalize_source
from cfgprint.index_store import record_from_program
from cfgprint.path_enum import ExecutionPath, enumerate_paths, filter_paths
from cfgprint.pipeline import index_directory, program_files, run_pipeline
from oracles import graph_from_edges, majority_simhash


# -- statement hash ------------------------------------------------------------

# published FNV-1a 64-bit reference values
def test_fnv1a64_reference_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"abc") == 0xE71FA2190541574B


def test_fnv1a64_oracle_loop():
    def reference(data):
        h = 0xCBF29CE484222325
        for byte in data:
            h = ((h ^ byte) * 0x100000001B3) % 2**64
        return h

    rng = random.Random(99)
    for _ in range(200):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
        assert fnv1a64(blob) == reference(blob)


def test_fnv1a64_stays_in_64_bits():
    assert 0 <= fnv1a64(b"x" * 1000) < 2**64


# -- simhash ---------------------------------------------------------------------


def test_simhash_small_example():
    # bit set only where strictly more inputs have it set than clear
    assert simhash_bits([0b1100, 0b1010, 0b1001]) == 0b1000


def test_simhash_singleton_is_identity():
    assert simhash_bits([0xDEADBEEF]) == 0xDEADBEEF


def test_simhash_tie_clears_bit():
    assert simhash_bits([0b01, 0b10]) == 0


def test_simhash_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        simhash_bits([])


def test_simhash_oracle_equivalence():
    rng = random.Random(12345)
    for _ in range(1000):
        span = rng.choice([8, 16, 32, 64])
        hashes = [rng.randrange(2**span) for _ in range(rng.randint(1, 30))]
        assert simhash_bits(hashes) == majority_simhash(hashes)


def test_simhash_order_insensitive():
    hashes = [fnv1a64(t.encode()) for t in ("alpha", "beta", "gamma", "delta")]
    shuffled = list(reversed(hashes))
    assert simhash_bits(hashes) == simhash_bits(shuffled)


def test_simhash_similar_multisets_land_close():
    """One element swapped out of twelve should usually move fewer bits
    than replacing the whole multiset. Statistical, fixed seed."""
    rng = random.Random(777)
    near, far = [], []
    for _ in range(100):
        base = [rng.randrange(2**64) for _ in range(12)]
        tweaked = base.copy()
        tweaked[rng.randrange(12)] = rng.randrange(2**64)
        fresh = [rng.randrange(2**64) for _ in range(12)]
        h = simhash_bits(base)
        near.append((h ^ simhash_bits(tweaked)).bit_count())
        far.append((h ^ simhash_bits(fresh)).bit_count())
    near.sort()
    far.sort()
    assert near[50] < far[50], (near[50], far[50])


# -- hex round trip ----------------------------------------------------------------


def test_hex_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        bits = rng.randrange(2**64)
        assert from_hex(to_hex(bits)) == bits
    assert to_hex(0) == "0" * 16
    assert to_hex(2**64 - 1) == "f" * 16
    assert len(to_hex(1)) == 16


def test_from_hex_rejects_junk():
    with pytest.raises(ValueError):
        from_hex("xyz")
    with pytest.raises(ValueError):
        from_hex("12")  # wrong length


@pytest.mark.parametrize(
    "text",
    [
        "-00000000000000f",  # int() would read -15
        "+00000000000000f",
        "0x000000000000ff",
        "000000000000_0ff",
        " 00000000000000f",
        "00000000000000f\n",
        "00000000000000FF",  # to_hex never writes upper case
        "",
        "0" * 17,
        123,
        None,
    ],
)
def test_from_hex_accepts_only_sixteen_lower_hex_digits(text):
    with pytest.raises(ValueError, match="16 lower-case hex digits"):
        from_hex(text)


# -- program fingerprints ------------------------------------------------------------


def _pipeline_pieces(source):
    statements = normalize_source(source)
    cfg = cfg_from_statements(statements)
    paths = enumerate_paths(cfg).paths
    return cfg, paths


def test_fingerprint_path_uses_block_statements():
    cfg, paths = _pipeline_pieces(
        "declare x; if (x > 0) output 1; else output 2; endif output x;"
    )
    fp = fingerprint_path(paths[0].block_ids, cfg)
    texts = []
    for block_id in paths[0].block_ids:
        texts.extend(s.text for s in cfg.blocks[block_id].statements)
    assert fp == majority_simhash([fnv1a64(t.encode("utf-8")) for t in texts])


def test_virtual_exit_contributes_nothing():
    cfg, paths = _pipeline_pieces("if (x > 0) output 1; endif")
    with_exit = fingerprint_path(paths[0].block_ids, cfg)
    without = fingerprint_path(paths[0].block_ids[:-1], cfg)
    assert with_exit == without


def test_fingerprint_program_dedups_identical_paths():
    # two branches with identical bodies hash identically once joined
    src = "if (x > 0) output x; else output x; endif"
    cfg, paths = _pipeline_pieces(src)
    program = fingerprint_program(paths, cfg, "demo")
    assert program.path_count == len(paths)
    assert len(program.fingerprints) <= len(paths)
    assert len(set(program.fingerprints)) == len(program.fingerprints)
    assert program.fingerprints == tuple(sorted(program.fingerprints))


def test_scoreable_flag():
    cfg, paths = _pipeline_pieces("output 1;")
    program = fingerprint_program(paths, cfg, "p")
    assert program.scoreable
    empty = fingerprint_program([], cfg, "q")
    assert not empty.scoreable


def test_bits_array_is_cached_read_only_copy_of_bits():
    cfg, paths = _pipeline_pieces("declare x; if (x > 1) x = 2; else x = 3; endif output x;")
    program = fingerprint_program(paths, cfg, "p")
    array = program.bits_array
    assert array.dtype == np.uint64
    assert array.tolist() == list(program.fingerprints)
    assert program.bits_array is array
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 0


def test_cached_bits_leave_equality_hashing_and_pickling_alone():
    cfg, paths = _pipeline_pieces("declare x; while (x < 3) x = x + 1; endwhile output x;")
    fresh = fingerprint_program(paths, cfg, "p")
    used = fingerprint_program(paths, cfg, "p")
    used.bits_array
    assert used == fresh
    assert hash(used) == hash(fresh)
    copy = pickle.loads(pickle.dumps(used))
    assert copy == fresh
    assert not copy.bits_array.flags.writeable
    assert copy.bits_array.tolist() == list(fresh.fingerprints)
    empty = ProgramFingerprint("e", (), 0, False)
    assert empty.bits_array.dtype == np.uint64 and empty.bits_array.size == 0


# -- program fingerprints against the per-path oracle ---------------------------------

def fingerprint_program_oracle(paths, cfg):
    """(bits, first path index) pairs, sorted by bits: fingerprint_path on
    every path, then first-seen dedup."""
    first_seen = {}
    for idx, path in enumerate(paths):
        first_seen.setdefault(fingerprint_path(path.block_ids, cfg), idx)
    return sorted(first_seen.items())


def assert_matches_oracle(paths, cfg, truncated=False):
    program = fingerprint_program(paths, cfg, "prog", truncated=truncated)
    expected = fingerprint_program_oracle(paths, cfg)
    assert program.fingerprints == tuple(bits for bits, _ in expected)
    assert (program.path_count, program.truncated) == (len(paths), truncated)


@pytest.fixture(scope="module")
def cloneforge_programs():
    config = RunConfig()
    results = [
        run_pipeline(
            generate_program(seed, SizeSpec(statements=14 + seed % 20)), f"p{seed}", config
        )
        for seed in range(200)
    ]
    return [(r.kept_paths, r.cfg) for r in results]


def test_fingerprint_program_matches_oracle_on_cloneforge(cloneforge_programs):
    assert sum(len(paths) for paths, _ in cloneforge_programs) > 1000
    for paths, cfg in cloneforge_programs:
        assert_matches_oracle(paths, cfg)


def test_fingerprint_program_matches_oracle_on_truncated_branchy_program():
    # 20 sequential ifs: 2**20 paths, cut at the cap; the kept paths span
    # several chunks of the tally computation
    source = "declare x; " + " ".join(
        f"if (x > {i}) x = x + {i}; endif" for i in range(20)
    ) + " output x;"
    cfg = cfg_from_statements(normalize_source(source))
    path_set = enumerate_paths(cfg, max_paths=1000)
    assert path_set.truncated
    kept = filter_paths(path_set.paths)
    assert_matches_oracle(kept, cfg, truncated=True)


def test_fingerprint_program_empty_path_list():
    cfg, _ = _pipeline_pieces("output 1;")
    program = fingerprint_program([], cfg, "q", truncated=True)
    assert program.fingerprints == ()
    assert (program.path_count, program.truncated) == (0, True)


def test_fingerprint_program_rejects_path_without_statements():
    statement = normalize_source("output 1;")[0]
    blocks = (BasicBlock(0, (statement,)), BasicBlock(1, ()), BasicBlock(2, ()))
    cfg = graph_from_edges(blocks, {(0, 2), (1, 2)}, 2)
    full = ExecutionPath((0, 2), 2)
    empty = ExecutionPath((1, 2), 2)
    assert fingerprint_program([full], cfg, "ok").path_count == 1
    for paths in ([empty], [full, empty]):
        with pytest.raises(ValueError, match="empty path"):
            fingerprint_program(paths, cfg, "bad")
        with pytest.raises(ValueError, match="empty path"):
            fingerprint_path(paths[-1].block_ids, cfg)


def test_fingerprint_program_rejects_graph_without_statements():
    cfg = graph_from_edges(3, {(0, 1), (1, 2)}, 2)
    with pytest.raises(ValueError, match="empty path"):
        fingerprint_program([ExecutionPath((0, 1, 2), 2)], cfg, "bare")


# -- one statement-hash table per indexing call --------------------------------


def test_shared_hash_table_gives_the_per_program_fingerprints(cloneforge_programs):
    alone = [fingerprint_program(paths, cfg, "p") for paths, cfg in cloneforge_programs]
    with shared_work():
        in_scope = [fingerprint_program(paths, cfg, "p") for paths, cfg in cloneforge_programs]
        table = shared(dict)
    assert in_scope == alone
    assert table and all(h == fnv1a64(text.encode("utf-8")) for text, h in table.items())
    assert fingerprint._SHARED_WORK.get() is None


def test_hash_table_lives_exactly_as_long_as_one_indexing_call(tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    build_corpus(root, 6, 6, seed=5)
    config = RunConfig()
    real = pipeline.fingerprint_program
    tables = []

    def spy(*args, **kwargs):
        tables.append(fingerprint._SHARED_WORK.get())
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fingerprint_program", spy)
    for _ in range(2):
        build = index_directory(root, config)
        assert fingerprint._SHARED_WORK.get() is None
    # each call shares one table among its 18 programs, and opens a new
    # one; the scope holds the statement-hash table and nothing else
    first, second = tables[:18], tables[18:]
    assert len(second) == 18 and first[0] is not second[0]
    assert all(t is first[0] for t in first) and all(t is second[0] for t in second)
    assert list(first[0]) == [(dict,)]

    # `evaluate` indexes in one scope, closes it, then opens one scope
    # per probe outside any other: no probe sees the indexing table
    plain_scope = cloneforge.shared_work
    outside = []

    def scope():
        outside.append(fingerprint._SHARED_WORK.get())
        return plain_scope()

    monkeypatch.setattr(cloneforge, "shared_work", scope)
    tables.clear()
    evaluate(root, config, [5])
    assert fingerprint._SHARED_WORK.get() is None
    assert len(tables) == 18 and all(t is tables[0] is not None for t in tables)
    probes = len(build.index.records) - len(build.unscoreable)
    assert probes > 0 and outside == [None] * (1 + probes)

    def fails_on_the_second_file(*args, **kwargs):
        tables.append(fingerprint._SHARED_WORK.get())
        if len(tables) == 2:
            raise RuntimeError("fingerprinting failed")
        return real(*args, **kwargs)

    tables.clear()
    monkeypatch.setattr(pipeline, "fingerprint_program", fails_on_the_second_file)
    with pytest.raises(RuntimeError, match="fingerprinting failed"):
        index_directory(root, config)
    assert len(tables) == 2 and tables[0] is not None
    assert fingerprint._SHARED_WORK.get() is None


def test_serial_parallel_and_per_file_records_agree(tmp_path):
    root = tmp_path / "corpus"
    build_corpus(root, 6, 6, seed=9)
    config = RunConfig()
    serial = index_directory(root, config, jobs=1).index.records
    parallel = index_directory(root, config, jobs=2).index.records
    stamp = ConfigStamp.from_config(config)
    alone = {
        name: record_from_program(
            run_pipeline(path.read_text(encoding="utf-8"), name, config).program,
            str(path),
            stamp,
        )
        for name, path in program_files(root)
    }
    assert len(serial) == 18
    assert serial == parallel == alone


def test_serial_and_parallel_skip_with_the_per_file_diagnostics(tmp_path):
    # three files that cannot be indexed, between the six that can
    root = tmp_path / "corpus"
    build_corpus(root, 2, 2, seed=9)
    (root / "a_latin1.mp").write_bytes('output "caf\xe9";\n'.encode("latin-1"))
    (root / "n_broken.mp").write_text("while (x > 1) output x;")
    (root / "z_dangling.mp").symlink_to(tmp_path / "missing.mp")
    config = RunConfig()
    outcomes = [
        (name, pipeline.run_program_file(name, path, config))
        for name, path in program_files(root)
    ]
    expected = [(name, outcome) for name, outcome in outcomes if isinstance(outcome, str)]
    assert [name for name, _ in expected] == ["a_latin1.mp", "n_broken.mp", "z_dangling.mp"]
    assert [diagnostic.split(":")[0] for _, diagnostic in expected] == [
        "not UTF-8 text", "line 1", "cannot read",
    ]
    for jobs in (1, 2):
        build = index_directory(root, config, jobs=jobs)
        assert build.skipped == expected, jobs
        assert sorted(build.index.records) == [
            name for name, outcome in outcomes if not isinstance(outcome, str)
        ]


def test_index_directory_refuses_a_regular_file(tmp_path):
    target = tmp_path / "one.mp"
    target.write_text("output 1;\n")
    with pytest.raises(NotADirectoryError, match=f"^not a directory: {re.escape(str(target))}$"):
        index_directory(target, RunConfig())


def test_jobs_capped_by_files_and_cpus(tmp_path, monkeypatch):
    # a stand-in pool records its size and maps in this process, so no
    # worker process starts whatever `jobs` asks for
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    root = tmp_path / "corpus"
    build_corpus(root, 2, 2, seed=9)  # six files
    config = RunConfig()
    serial = index_directory(root, config, jobs=1).index.records
    assert len(serial) == 6 and sizes == []
    for cpus, jobs, workers in [
        (4, 100_000, 4),
        (4, 3, 3),
        (64, 100_000, 6),
        (None, 8, None),
        (1, 8, None),
    ]:
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert index_directory(root, config, jobs=jobs).index.records == serial
        assert sizes == ([] if workers is None else [workers]), (cpus, jobs)
