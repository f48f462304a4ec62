"""Hashing: statement hash vectors, SimHash majority rule, Hamming distance."""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgprint.cfg_builder import BasicBlock, ControlFlowGraph, cfg_from_statements
from cfgprint.cloneforge import SizeSpec, generate_program
from cfgprint.config import RunConfig
from cfgprint.fingerprint import (
    ProgramFingerprint,
    fingerprint_path,
    fingerprint_program,
    fnv1a64,
    from_hex,
    hamming_bits,
    simhash_bits,
    to_hex,
)
from cfgprint.frontend import normalize_source
from cfgprint.path_enum import ExecutionPath, enumerate_paths, filter_paths
from cfgprint.pipeline import run_pipeline


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


def simhash_oracle(hashes, width):
    """Per-bit majority vote, the long way."""
    out = 0
    for bit in range(width):
        count = 0
        for h in hashes:
            count += 1 if (h >> bit) & 1 else -1
        if count > 0:
            out |= 1 << bit
    return out


def test_simhash_small_example():
    # bit set only where strictly more inputs have it set than clear
    assert simhash_bits([0b1100, 0b1010, 0b1001], width=4) == 0b1000


def test_simhash_singleton_is_identity():
    assert simhash_bits([0xDEADBEEF], width=32) == 0xDEADBEEF


def test_simhash_tie_clears_bit():
    assert simhash_bits([0b01, 0b10], width=2) == 0


def test_simhash_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        simhash_bits([])


def test_simhash_width_validation():
    with pytest.raises(ValueError):
        simhash_bits([1], width=0)
    with pytest.raises(ValueError):
        simhash_bits([1], width=65)


def test_simhash_oracle_equivalence():
    rng = random.Random(12345)
    for _ in range(1000):
        width = rng.choice([8, 16, 32, 64])
        hashes = [rng.randrange(2**width) for _ in range(rng.randint(1, 30))]
        assert simhash_bits(hashes, width) == simhash_oracle(hashes, width)


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
        near.append(hamming_bits(h, simhash_bits(tweaked)))
        far.append(hamming_bits(h, simhash_bits(fresh)))
    near.sort()
    far.sort()
    assert near[50] < far[50], (near[50], far[50])


# -- hamming ----------------------------------------------------------------------


def hamming_oracle(a, b):
    diff = a ^ b
    count = 0
    while diff:
        count += diff & 1
        diff >>= 1
    return count


def test_hamming_bits_examples():
    assert hamming_bits(0, 0) == 0
    assert hamming_bits(0b1010, 0b0101) == 4
    assert hamming_bits(2**64 - 1, 0) == 64


def test_hamming_bits_oracle():
    rng = random.Random(4242)
    for _ in range(2000):
        a, b = rng.randrange(2**64), rng.randrange(2**64)
        assert hamming_bits(a, b) == hamming_oracle(a, b)


@settings(max_examples=200)
@given(
    a=st.integers(min_value=0, max_value=2**64 - 1),
    b=st.integers(min_value=0, max_value=2**64 - 1),
    c=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_hamming_is_a_metric(a, b, c):
    assert hamming_bits(a, b) == hamming_bits(b, a)
    assert (hamming_bits(a, b) == 0) == (a == b)
    assert hamming_bits(a, c) <= hamming_bits(a, b) + hamming_bits(b, c)


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
    fp = fingerprint_path(paths[0].block_ids, cfg, width=64)
    texts = []
    for block_id in paths[0].block_ids:
        texts.extend(s.text for s in cfg.blocks[block_id].statements)
    assert fp == simhash_oracle([fnv1a64(t.encode("utf-8")) for t in texts], 64)


def test_virtual_exit_contributes_nothing():
    cfg, paths = _pipeline_pieces("if (x > 0) output 1; endif")
    with_exit = fingerprint_path(paths[0].block_ids, cfg, width=64)
    without = fingerprint_path(paths[0].block_ids[:-1], cfg, width=64)
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

WIDTHS = (1, 7, 8, 9, 32, 63, 64)


def fingerprint_program_oracle(paths, cfg, width):
    """(bits, first path index) pairs, sorted by bits: fingerprint_path on
    every path, then first-seen dedup."""
    first_seen = {}
    for idx, path in enumerate(paths):
        first_seen.setdefault(fingerprint_path(path.block_ids, cfg, width), idx)
    return sorted(first_seen.items())


def assert_matches_oracle(paths, cfg, width, truncated=False):
    program = fingerprint_program(paths, cfg, "prog", width=width, truncated=truncated)
    expected = fingerprint_program_oracle(paths, cfg, width)
    assert program.fingerprints == tuple(bits for bits, _ in expected)
    assert (program.path_count, program.truncated, program.width) == (
        len(paths),
        truncated,
        width,
    )


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


@pytest.mark.parametrize("width", WIDTHS)
def test_fingerprint_program_matches_oracle_on_cloneforge(cloneforge_programs, width):
    assert sum(len(paths) for paths, _ in cloneforge_programs) > 1000
    for paths, cfg in cloneforge_programs:
        assert_matches_oracle(paths, cfg, width)


@pytest.mark.parametrize("width", WIDTHS)
def test_fingerprint_program_matches_oracle_on_truncated_branchy_program(width):
    # 20 sequential ifs: 2**20 paths, cut at the cap; the kept paths span
    # several chunks of the tally computation
    source = "declare x; " + " ".join(
        f"if (x > {i}) x = x + {i}; endif" for i in range(20)
    ) + " output x;"
    cfg = cfg_from_statements(normalize_source(source))
    path_set = enumerate_paths(cfg, max_paths=1000)
    assert path_set.truncated
    kept = filter_paths(path_set.paths)
    assert_matches_oracle(kept, cfg, width, truncated=True)


@pytest.mark.parametrize("width", WIDTHS)
def test_fingerprint_program_empty_path_list(width):
    cfg, _ = _pipeline_pieces("output 1;")
    program = fingerprint_program([], cfg, "q", width=width, truncated=True)
    assert program.fingerprints == ()
    assert (program.path_count, program.truncated, program.width) == (0, True, width)


def test_fingerprint_program_rejects_path_without_statements():
    statement = normalize_source("output 1;")[0]
    blocks = (BasicBlock(0, (statement,)), BasicBlock(1, ()), BasicBlock(2, ()))
    cfg = ControlFlowGraph(
        blocks=blocks, edges=frozenset({(0, 2), (1, 2)}), entry_id=0, exit_id=2
    )
    full = ExecutionPath((0, 2), 2)
    empty = ExecutionPath((1, 2), 2)
    assert fingerprint_program([full], cfg, "ok").path_count == 1
    for paths in ([empty], [full, empty]):
        with pytest.raises(ValueError, match="empty path"):
            fingerprint_program(paths, cfg, "bad")
        with pytest.raises(ValueError, match="empty path"):
            fingerprint_path(paths[-1].block_ids, cfg)


def test_fingerprint_program_width_validation():
    cfg, paths = _pipeline_pieces("output 1;")
    for width in (0, 65, 99):
        for some_paths in (paths, []):
            with pytest.raises(ValueError, match="width"):
                fingerprint_program(some_paths, cfg, "p", width=width)
