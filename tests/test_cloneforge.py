"""Generator, mutators, corpus assembly, and the evaluation loop."""

import json
import random
import re
from collections import Counter
from itertools import accumulate

import pytest

from cfgprint import cloneforge, index_store, similarity
from cfgprint.cfg_builder import cfg_from_statements
from cfgprint.cloneforge import (
    _BLOCK_BUCKETS,
    _CONSTRUCT_CUM,
    _CONSTRUCTS,
    _LINE_BUCKETS,
    EditOps,
    MutationSpec,
    SizeSpec,
    build_corpus,
    evaluate,
    generate_program,
    mutate,
    _bucket,
    _draw,
    scaling_run,
)
from cfgprint.config import ConfigStamp, RunConfig
from cfgprint.frontend import MiniProcSyntaxError, normalize_source, parse, tokenize
from cfgprint.index_store import FingerprintIndex, record_from_program
from cfgprint.pipeline import fingerprint_source, index_directory, program_files, run_program_file
from cfgprint.similarity import score_pair


def _norm_texts(source):
    return [s.text for s in normalize_source(source)]


# -- generator -----------------------------------------------------------------


def test_generator_deterministic():
    spec = SizeSpec(statements=20)
    assert generate_program(42, spec) == generate_program(42, spec)
    assert generate_program(42, spec) != generate_program(43, spec)


def test_generator_output_parses():
    for seed in range(200):
        parse(tokenize(generate_program(seed, SizeSpec(statements=12 + seed % 30))))


def test_generator_always_has_control_flow():
    for seed in range(100):
        statements = normalize_source(generate_program(seed, SizeSpec(statements=8)))
        assert any(s.kind == "control" for s in statements)
        assert statements[-1].kind == "plain"


def test_generator_block_count_distribution():
    counts = []
    for seed in range(100):
        statements = normalize_source(generate_program(seed, SizeSpec(statements=24)))
        counts.append(len(cfg_from_statements(statements).real_blocks))
    mode_value, _ = Counter(counts).most_common(1)[0]
    assert 5 <= mode_value <= 20, f"typical program has {mode_value} blocks"


def test_generator_programs_are_scoreable():
    config = RunConfig()
    for seed in range(50):
        program = fingerprint_source(generate_program(seed), f"s{seed}", config)
        assert program.scoreable


def _draw_cases():
    rng = random.Random(5)
    for n in range(2, 7):
        for _ in range(40):
            yield tuple(range(n)), [rng.uniform(0.05, 1.0) for _ in range(n)]
    yield _CONSTRUCTS, [45, 22, 18, 15]


def test_draw_matches_random_choices():
    # the generator's bytes rest on _draw picking what choices picks
    # from the same RNG state and leaving the RNG where choices leaves it
    cases = list(_draw_cases())
    assert list(accumulate(cases[-1][1])) == list(_CONSTRUCT_CUM)
    for seed, (population, weights) in enumerate(cases):
        expected, actual = random.Random(seed), random.Random(seed)
        cum = list(accumulate(weights))
        for _ in range(20):
            assert _draw(actual, population, cum) == expected.choices(population, weights)[0]
            assert actual.random() == expected.random()


# -- mutators ------------------------------------------------------------------


def test_type1_changes_text_not_meaning():
    for seed in range(40):
        source = generate_program(seed, SizeSpec(statements=16))
        mutated, label = mutate(source, MutationSpec("type1", seed=seed))
        assert label == {"type": "type1"}
        assert mutated != source
        assert _norm_texts(mutated) == _norm_texts(source)


def test_type2_renames_and_relits_but_normalizes_identically():
    for seed in range(40):
        source = generate_program(seed, SizeSpec(statements=16))
        mutated, label = mutate(source, MutationSpec("type2", seed=seed))
        assert label == {"type": "type2"}
        assert _norm_texts(mutated) == _norm_texts(source)
        # every original identifier is gone
        original_idents = {
            t.lexeme for t in tokenize(source) if t.kind == "identifier"
        }
        mutated_idents = {
            t.lexeme for t in tokenize(mutated) if t.kind == "identifier"
        }
        assert original_idents.isdisjoint(mutated_idents)
        # rename is injective: same token multiplicity per statement stream
        assert len(original_idents) == len(mutated_idents)


def test_type2_literals_change():
    source = "declare x; x = 123; output x;"
    mutated, _ = mutate(source, MutationSpec("type2", seed=9))
    literals = [t.lexeme for t in tokenize(mutated) if t.kind == "literal"]
    assert literals and "123" not in literals


def test_type2_containment_is_exactly_one_at_alpha_zero():
    config = RunConfig()
    for seed in range(30):
        source = generate_program(seed, SizeSpec(statements=20))
        mutated, _ = mutate(source, MutationSpec("type2", seed=seed + 500))
        a = fingerprint_source(source, "a", config)
        b = fingerprint_source(mutated, "b", config)
        assert score_pair(a, b, 0, "containment").value == 1.0


def test_type3_still_parses_and_differs():
    ops = EditOps(insert=1, delete=1, reorder=1)
    for seed in range(40):
        source = generate_program(seed, SizeSpec(statements=18))
        mutated, label = mutate(source, MutationSpec("type3", seed=seed, edit_ops=ops))
        assert label["edits"] == {"insert": 1, "delete": 1, "reorder": 1}
        parse(tokenize(mutated))
        assert _norm_texts(mutated) != _norm_texts(source)


def test_type3_requires_an_edit():
    with pytest.raises(ValueError, match="at least one edit"):
        mutate("output 1;", MutationSpec("type3", seed=0, edit_ops=EditOps(0, 0, 0)))


@pytest.mark.parametrize("field", ["insert", "delete", "reorder"])
def test_edit_ops_refuse_negative_counts(field):
    counts = {"insert": 0, "delete": 0, "reorder": 3, field: -2}
    with pytest.raises(ValueError, match=f"EditOps.{field} must be >= 0, got -2"):
        EditOps(**counts)


def test_type3_refuses_to_empty_program():
    with pytest.raises(ValueError, match="empty the program"):
        mutate("output 1;", MutationSpec("type3", seed=0,
                                         edit_ops=EditOps(insert=0, delete=1)))


@pytest.mark.parametrize(
    "source, line",
    [
        ("# c\n\n\noutput 1;\nx = ;\n", 5),
        # two unclosed quotes, which a rendered line would join into a string
        ('declare x;\nx = "abc\nx";\n', 2),
    ],
)
@pytest.mark.parametrize("kind", ["type2", "type3"])
def test_mutate_error_names_the_line_of_a_source_that_does_not_parse(kind, source, line):
    with pytest.raises(MiniProcSyntaxError, match="expected expression") as caught:
        mutate(source, MutationSpec(kind, seed=1))
    assert caught.value.line == line


def test_unknown_mutation_kind():
    with pytest.raises(ValueError, match="unknown mutation kind"):
        mutate("output 1;", MutationSpec("type9", seed=0))


def test_mutation_deterministic():
    source = generate_program(5, SizeSpec(statements=20))
    spec = MutationSpec("type3", seed=77, edit_ops=EditOps(insert=2, delete=0, reorder=1))
    assert mutate(source, spec) == mutate(source, spec)


# -- corpus ---------------------------------------------------------------------


def test_build_corpus_layout(tmp_path):
    manifest_path = build_corpus(tmp_path / "c", originals=6, unrelated=4, seed=3)
    manifest = json.loads(manifest_path.read_text())
    assert len(manifest) == 6
    kinds = [entry["type"] for entry in manifest]
    assert kinds == ["type1", "type2", "type3", "type1", "type2", "type3"]
    files = sorted(p.name for p in (tmp_path / "c").glob("*.mp"))
    assert len(files) == 16  # 6 originals + 6 mutants + 4 unrelated
    for entry in manifest:
        assert (tmp_path / "c" / entry["original"]).exists()
        assert (tmp_path / "c" / entry["mutant"]).exists()


def test_build_corpus_programs_distinct_after_normalization(tmp_path):
    build_corpus(tmp_path / "c", originals=8, unrelated=8, seed=1)
    shapes = set()
    for path in sorted((tmp_path / "c").glob("orig_*.mp")) + sorted(
        (tmp_path / "c").glob("unrel_*.mp")
    ):
        shape = tuple(_norm_texts(path.read_text()))
        assert shape not in shapes
        shapes.add(shape)


@pytest.mark.parametrize(
    "types, message",
    [((), r"at least one mutation type, got types=\(\)"),
     (("type1", "typo"), "unknown mutation kind 'typo'")],
    ids=["empty", "typo"],
)
def test_build_corpus_checks_types_before_writing(tmp_path, types, message):
    with pytest.raises(ValueError, match=message):
        build_corpus(tmp_path / "c", originals=3, unrelated=1, types=types, seed=1)
    assert not (tmp_path / "c").exists()


def test_build_corpus_deterministic(tmp_path):
    build_corpus(tmp_path / "one", originals=4, unrelated=2, seed=9)
    build_corpus(tmp_path / "two", originals=4, unrelated=2, seed=9)
    for path in sorted((tmp_path / "one").iterdir()):
        assert path.read_bytes() == (tmp_path / "two" / path.name).read_bytes()


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_counts_and_monotonicity(tmp_path):
    build_corpus(tmp_path / "c", originals=12, unrelated=12, seed=21)
    results = evaluate(tmp_path / "c", RunConfig(), alpha_values=[0, 2, 4])
    assert [r.alpha for r in results] == [0, 2, 4]
    for result in results:
        assert result.candidates == result.tp + result.fp
        if result.candidates:
            assert result.precision == pytest.approx(result.tp / result.candidates)
        else:
            assert result.precision is None
    for earlier, later in zip(results, results[1:]):
        assert later.candidates >= earlier.candidates
        assert later.fp >= earlier.fp


def test_evaluate_buckets_partition_candidates(tmp_path):
    build_corpus(tmp_path / "c", originals=10, unrelated=5, seed=2)
    (result,) = evaluate(tmp_path / "c", RunConfig(), alpha_values=[4])
    for table in (result.by_blocks, result.by_lines):
        assert sum(row["candidates"] for row in table.values()) == result.candidates
        assert sum(row["tp"] for row in table.values()) == result.tp


def test_evaluate_does_not_read_directories_named_like_programs(tmp_path):
    build_corpus(tmp_path / "c", originals=3, unrelated=3, seed=1)

    def rows():
        results = evaluate(tmp_path / "c", RunConfig(), alpha_values=[0, 5])
        return [{k: v for k, v in r.to_dict().items() if k != "wall_time_s"} for r in results]

    before = rows()
    (tmp_path / "c" / "notes.mp").mkdir()
    assert rows() == before


@pytest.mark.parametrize("payload", [b"\xff", b"x = ;"], ids=["not-utf8", "syntax-error"])
def test_evaluate_skips_files_index_directory_skips(tmp_path, payload):
    build_corpus(tmp_path / "c", originals=3, unrelated=3, seed=1)

    def rows():
        results = evaluate(tmp_path / "c", RunConfig(), alpha_values=[0, 5])
        return [{k: v for k, v in r.to_dict().items() if k != "wall_time_s"} for r in results]

    before = rows()
    (tmp_path / "c" / "bad.mp").write_bytes(payload)
    assert [name for name, _ in index_directory(tmp_path / "c", RunConfig()).skipped] == [
        "bad.mp"
    ]
    assert rows() == before
    # a skipped file the manifest names is a missing program
    manifest_path = tmp_path / "c" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.append({"original": "orig_000.mp", "mutant": "bad.mp", "type": "type1"})
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest names 'bad.mp' but the corpus lacks it"):
        evaluate(tmp_path / "c", RunConfig(), alpha_values=[0])


def alpha_major_sweep(corpus_dir, config, alpha_values, threshold):
    """The sweep as `evaluate` ran it before going probe-major: for each
    alpha, one plain `index.query` per probe, then the tally. Rows are
    `to_dict()` without `wall_time_s`."""
    stamp = ConfigStamp.from_config(config)
    index = FingerprintIndex(config_stamp=stamp)
    sizes = {}
    for program_id, path in program_files(corpus_dir):
        outcome = run_program_file(program_id, path, config)
        if isinstance(outcome, str):
            continue
        source, result = outcome
        index.add_program(record_from_program(result.program, str(path), stamp))
        sizes[program_id] = (len(result.cfg.real_blocks), len(source.splitlines()))
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    labeled = {frozenset({e["original"], e["mutant"]}) for e in manifest}
    probes = {pid: r for pid, r in sorted(index.records.items()) if r.fingerprints}
    rows = []
    for alpha in alpha_values:
        pairs = set()
        for pid, probe in probes.items():
            for candidate in index.query(probe, alpha, threshold, config.mode):
                pairs.add(frozenset({pid, candidate.program_id}))
        by_blocks, by_lines = {}, {}
        tp = fp = 0
        for pair in pairs:
            a, b = sorted(pair)
            hit = pair in labeled
            tp += hit
            fp += not hit
            block_key = _bucket(min(sizes[a][0], sizes[b][0]), _BLOCK_BUCKETS)
            line_key = _bucket(min(sizes[a][1], sizes[b][1]), _LINE_BUCKETS)
            for table, key in ((by_blocks, block_key), (by_lines, line_key)):
                row = table.setdefault(key, {"candidates": 0, "tp": 0, "fp": 0})
                row["candidates"] += 1
                row["tp"] += hit
                row["fp"] += not hit
        rows.append({
            "alpha": alpha,
            "candidates": len(pairs),
            "tp": tp,
            "fp": fp,
            "precision": (tp / len(pairs)) if pairs else None,
            "by_blocks": by_blocks,
            "by_lines": by_lines,
        })
    return rows


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("mode", ["containment", "resemblance"])
def test_evaluate_matches_the_alpha_major_sweep(tmp_path, seed, mode):
    build_corpus(tmp_path / "c", originals=8, unrelated=6, seed=seed)
    config = RunConfig(mode=mode)
    for alphas, threshold in ((list(range(11)), 0.5), ([6, 0, 6, 64], 0.2)):
        results = evaluate(tmp_path / "c", config, alphas, threshold=threshold)
        rows = [{k: v for k, v in r.to_dict().items() if k != "wall_time_s"} for r in results]
        assert rows == alpha_major_sweep(tmp_path / "c", config, alphas, threshold)
        assert all(r.wall_time_s > 0 for r in results)
    assert evaluate(tmp_path / "c", config, []) == []


def test_evaluate_sweep_makes_one_pass_per_probe_and_one_matrix_per_pair_within_reach(
    tmp_path, monkeypatch, built_matrices
):
    build_corpus(tmp_path / "c", originals=8, unrelated=6, seed=3)
    config = RunConfig()
    programs = [p for p in index_directory(tmp_path / "c", config).index.records.values()]
    scoreable = [p for p in programs if p.fingerprints]
    within = sorted(
        (a.program_id, b.program_id)
        for a in scoreable
        for b in scoreable
        if a is not b and int(similarity.distance_matrix(a, b).min()) <= 10
    )
    # the corpus has pairs past alpha 10 as well as within it
    assert 0 < len(within) < len(scoreable) * (len(scoreable) - 1)
    passes = []
    plain = index_store.record_minima

    def record_minima(*args):
        passes.append(1)
        return plain(*args)

    monkeypatch.setattr(index_store, "record_minima", record_minima)
    built_matrices.clear()
    evaluate(tmp_path / "c", config, range(11))
    assert len(passes) == len(scoreable)
    assert sorted(built_matrices) == within


def test_evaluate_requires_manifest(tmp_path):
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / "a.mp").write_text("output 1;")
    with pytest.raises(ValueError, match="manifest missing"):
        evaluate(tmp_path / "c", RunConfig(), alpha_values=[0])


def test_evaluate_rejects_manifest_corpus_mismatch(tmp_path):
    build_corpus(tmp_path / "c", originals=3, unrelated=0, seed=6)
    manifest_path = tmp_path / "c" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.append({"original": "ghost.mp", "mutant": "orig_000.mp", "type": "type1"})
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="ghost.mp"):
        evaluate(tmp_path / "c", RunConfig(), alpha_values=[0])


_PAIR = {"original": "orig_000.mp", "mutant": "mut_000_type1.mp", "type": "type1"}


@pytest.mark.parametrize(
    "manifest, message",
    [
        ([{"original": "orig_000.mp"}], "manifest entry 0: needs string 'original' and 'mutant'"),
        (_PAIR, "manifest must be a list of objects, got dict"),
        ("orig_000.mp", "manifest must be a list of objects, got str"),
        ([_PAIR, ["orig_001.mp", "mut_001_type2.mp"]], "manifest entry 1: needs string"),
        ([_PAIR, {**_PAIR, "original": 3}], "manifest entry 1: needs string"),
    ],
    ids=["no-mutant", "object", "string", "list-entry", "integer-name"],
)
def test_evaluate_rejects_a_malformed_manifest_before_reading_programs(
    tmp_path, monkeypatch, manifest, message
):
    build_corpus(tmp_path / "c", originals=3, unrelated=0, seed=6)
    (tmp_path / "c" / "manifest.json").write_text(json.dumps(manifest))

    def no_program_read(*args):
        raise AssertionError("a program was read before the manifest was checked")

    monkeypatch.setattr(cloneforge, "run_program_file", no_program_read)
    with pytest.raises(ValueError, match=message):
        evaluate(tmp_path / "c", RunConfig(), alpha_values=[0])


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ('[{"original": "orig_000.mp", "mutant": ', "Expecting value"),
    ],
    ids=["deep-array", "truncated"],
)
def test_evaluate_names_a_manifest_json_cannot_read(tmp_path, monkeypatch, text, reason):
    build_corpus(tmp_path / "c", originals=3, unrelated=0, seed=6)
    manifest_path = tmp_path / "c" / "manifest.json"
    manifest_path.write_text(text)

    def no_program_read(*args):
        raise AssertionError("a program was read before the manifest was checked")

    monkeypatch.setattr(cloneforge, "run_program_file", no_program_read)
    message = f"^{re.escape(str(manifest_path))}: malformed JSON \\({reason}"
    with pytest.raises(ValueError, match=message):
        evaluate(tmp_path / "c", RunConfig(), alpha_values=[0])


@pytest.mark.parametrize(
    "alphas, threshold, message",
    [
        ([0, 70], None, "alpha must be in 0..64, got 70"),
        ([-3], None, "alpha must be in 0..64, got -3"),
        ([5], -1.0, r"threshold must be in \[0, 1\], got -1.0"),
        ([5], 2.0, r"threshold must be in \[0, 1\], got 2.0"),
    ],
)
def test_evaluate_rejects_sweep_values_run_config_rejects(tmp_path, alphas, threshold, message):
    build_corpus(tmp_path / "c", originals=3, unrelated=0, seed=6)
    with pytest.raises(ValueError, match=message):
        evaluate(tmp_path / "c", RunConfig(), alpha_values=alphas, threshold=threshold)


# -- scaling -------------------------------------------------------------------------


def test_scaling_run_rows():
    rows = scaling_run([10, 20], RunConfig(), seed=1, repeats=2, query_loops=3)
    assert [row["size"] for row in rows] == [10, 20]
    for row in rows:
        assert row["seconds"] > 0
        assert row["scorings"] <= row["size"]
