"""Acceptance gate: ten criteria, each with its stated tolerance and
time budget. The oracles they check against are the pure-Python ones
in `tests/oracles.py`, written independently of the library code paths
they check.

The criteria that need a labeled corpus (03, 04) share one module-scope
corpus of 100 originals + 100 mutants + 100 unrelated programs.
"""

import json
import random
import time

import numpy as np
import pytest

from cfgprint.cfg_builder import BasicBlock
from cfgprint.cloneforge import (
    MutationSpec,
    SizeSpec,
    build_corpus,
    evaluate,
    generate_program,
    mutate,
    scaling_run,
)
from cfgprint.config import ConfigStamp, RunConfig
from cfgprint.fingerprint import fingerprint_path, fnv1a64
from cfgprint.frontend import NormalizedStatement
from cfgprint.index_store import FingerprintIndex, load_index, record_from_program
from cfgprint.path_enum import enumerate_paths
from cfgprint.pipeline import fingerprint_source, index_directory
from cfgprint.similarity import distance_matrix, score_pair
from oracles import (
    graph_from_edges,
    majority_simhash,
    popcount,
    program,
    score_counts,
    simple_paths,
)


# -- shared corpus for criteria 03 and 04 ---------------------------------------


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("mixed") / "corpus"
    t0 = time.perf_counter()
    build_corpus(root, originals=100, unrelated=100,
                 types=("type1", "type2", "type3"), seed=20260816)
    build_seconds = time.perf_counter() - t0
    return root, build_seconds


# -- criteria ---------------------------------------------------------------------


def test_criterion_01_handbuilt_graph_path_set():
    t0 = time.perf_counter()
    edges = {(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)}
    cfg = graph_from_edges(6, edges, 5)
    result = enumerate_paths(cfg)
    got = {p.block_ids for p in result.paths}
    assert got == {(0, 1, 2, 4, 5), (0, 1, 2, 5), (0, 1, 2, 3, 5)}
    assert not result.truncated
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_type2_containment_exactly_one():
    t0 = time.perf_counter()
    config = RunConfig()
    checked = 0
    for seed in range(200):
        source = generate_program(seed, SizeSpec(statements=14 + seed % 20))
        mutated, label = mutate(source, MutationSpec("type2", seed=seed * 31 + 7))
        assert label["type"] == "type2"
        original = fingerprint_source(source, f"orig{seed}", config)
        clone = fingerprint_source(mutated, f"mut{seed}", config)
        value = score_pair(original, clone, alpha=0, mode="containment").value
        assert value == 1.0, f"seed {seed}: containment {value}"
        checked += 1
    assert checked >= 200
    assert time.perf_counter() - t0 < 60.0


def test_criterion_03_low_alpha_precision(mixed_corpus):
    root, build_seconds = mixed_corpus
    t0 = time.perf_counter()
    config = RunConfig(alpha=4, threshold=0.5)

    build = index_directory(root, config)
    assert len(build.index.records) == 300
    assert build.skipped == []
    assert build.unscoreable == [], "corpus must only hold >=3-block programs"

    (result,) = evaluate(root, config, alpha_values=[4])
    assert result.candidates > 0
    fp_rate = result.fp / result.candidates
    assert fp_rate <= 0.01, (
        f"false-positive rate {fp_rate:.4f} ({result.fp}/{result.candidates})"
    )
    assert build_seconds + (time.perf_counter() - t0) < 300.0


def test_criterion_04_alpha_monotonicity(mixed_corpus):
    root, _ = mixed_corpus
    results = evaluate(root, RunConfig(threshold=0.5), alpha_values=list(range(11)))
    candidates = [r.candidates for r in results]
    false_positives = [r.fp for r in results]
    for earlier, later in zip(candidates, candidates[1:]):
        assert later >= earlier, f"candidates not monotone: {candidates}"
    for earlier, later in zip(false_positives, false_positives[1:]):
        assert later >= earlier, f"FP not monotone: {false_positives}"


def test_criterion_05_linear_query_scaling():
    t0 = time.perf_counter()
    rows = scaling_run(
        [100, 200, 400], RunConfig(), seed=99, repeats=7, query_loops=40
    )
    sizes = np.array([row["size"] for row in rows], dtype=float)
    seconds = np.array([row["seconds"] for row in rows], dtype=float)
    slope, intercept = np.polyfit(sizes, seconds, 1)
    predicted = slope * sizes + intercept
    ss_res = float(np.sum((seconds - predicted) ** 2))
    ss_tot = float(np.sum((seconds - seconds.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    assert r_squared >= 0.95, f"R^2 {r_squared:.4f} over {list(zip(sizes, seconds))}"
    assert time.perf_counter() - t0 < 300.0


def test_criterion_06_simhash_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(606)
    vocabulary = ["L-Var", "G-Var", "LIT", "=", "+", "-", "*", "(", ")",
                  "Iterate", "Selection", "output", "declare", "<", ">", "call"]
    for _ in range(1000):
        texts = [
            " ".join(rng.choices(vocabulary, k=rng.randint(1, 8)))
            for _ in range(rng.randint(1, 12))
        ]
        statements = tuple(
            NormalizedStatement(text, "plain", "none", i) for i, text in enumerate(texts)
        )
        cfg = graph_from_edges(
            (BasicBlock(0, statements), BasicBlock(1, (), is_virtual_exit=True)),
            {(0, 1)},
            1,
        )
        got = fingerprint_path((0, 1), cfg)
        expected = majority_simhash([fnv1a64(t.encode("utf-8")) for t in texts])
        assert got == expected
    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_hamming_metric_suite():
    """The distances the scorer reads (`distance_matrix`) count the
    differing bits and form a metric, over every pair and triple of 15
    rounds of three 30-fingerprint programs."""
    t0 = time.perf_counter()
    rng = random.Random(707)
    for _ in range(15):
        # random values, each with near neighbours one or two bits away
        base = [rng.randrange(2**64) for _ in range(20)] + [0, 2**64 - 1]
        pool = base + [x ^ (1 << rng.randrange(64)) ^ (1 << rng.randrange(64)) for x in base]
        a, b, c = (program(name, rng.sample(pool, 30)) for name in "abc")
        ab, ba, bc, ac, aa = (
            distance_matrix(x, y).astype(int) for x, y in ((a, b), (b, a), (b, c), (a, c), (a, a))
        )
        for i, x in enumerate(a.fingerprints):
            for j, y in enumerate(b.fingerprints):
                assert ab[i, j] == popcount(x ^ y)
                assert (ab[i, j] == 0) == (x == y)
        assert (ab == ba.T).all()
        assert (np.diagonal(aa) == 0).all()
        assert (ac[:, None, :] <= ab[:, :, None] + bc[None, :, :]).all()
    assert time.perf_counter() - t0 < 5.0


def test_criterion_08_path_enumeration_oracle():
    t0 = time.perf_counter()
    rng = random.Random(808)
    for trial in range(500):
        n = rng.randint(2, 8)
        exit_id = n - 1
        edges = set()
        for i in range(n - 1):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.add((i, j))
            if not any(s == i for s, _ in edges):
                edges.add((i, rng.randrange(i + 1, n)))
        for i in range(1, n - 1):
            for j in range(i):
                if rng.random() < 0.15:
                    edges.add((i, j))
        edges = {(s, d) for s, d in edges if s != exit_id}
        cfg = graph_from_edges(n, edges, exit_id)
        got = sorted(p.block_ids for p in enumerate_paths(cfg).paths)
        assert got == simple_paths(n, edges, 0, exit_id), f"trial {trial}"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_09_index_round_trip(tmp_path):
    t0 = time.perf_counter()
    config = RunConfig()
    stamp = ConfigStamp.from_config(config)
    programs = []
    index = FingerprintIndex(config_stamp=stamp)
    for seed in range(100):
        source = generate_program(seed, SizeSpec(statements=12 + seed % 24))
        program = fingerprint_source(source, f"p{seed:03d}", config)
        programs.append(program)
        index.add_program(record_from_program(program, f"p{seed:03d}.mp", stamp))

    def ranked_json(idx):
        out = {}
        for probe in programs[:10]:
            hits = idx.query(probe, config.alpha, 0.3, config.mode)
            out[probe.program_id] = [
                {
                    "program_id": h.program_id,
                    "score": h.score.value,
                    "matched": h.score.matched_count,
                    "denominator": h.score.denominator,
                    "grade": h.grade,
                    "evidence": [list(e) for e in h.matched_path_evidence],
                }
                for h in hits
            ]
        return json.dumps(out, sort_keys=True).encode("utf-8")

    before = ranked_json(index)
    path = tmp_path / "programs.cdx"
    index.save(path)
    loaded = load_index(path)
    after = ranked_json(loaded)
    assert before == after
    path2 = tmp_path / "again.cdx"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()
    assert time.perf_counter() - t0 < 30.0


def test_criterion_10_similarity_properties_and_reference():
    t0 = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(1000):
        a_bits = [rng.randrange(2**64) for _ in range(rng.randint(1, 8))]
        b_bits = [rng.randrange(2**64) for _ in range(rng.randint(1, 8))]
        alpha = rng.randint(0, 16)
        a = program("a", a_bits)
        b = program("b", b_bits)
        a_twin = program("a2", a_bits)
        for mode in ("containment", "resemblance"):
            value = score_pair(a, b, alpha, mode).value
            assert 0.0 <= value <= 1.0
            assert value == score_pair(b, a, alpha, mode).value
            matched, denominator = score_counts(a.fingerprints, b.fingerprints, alpha, mode)
            assert value == pytest.approx(matched / denominator)
            assert score_pair(a, a_twin, alpha, mode).value == 1.0
            if alpha < 16:
                assert value <= score_pair(a, b, alpha + 1, mode).value
    assert time.perf_counter() - t0 < 30.0
