"""Golden digests of cloneforge's corpora, programs and mutants.

The benchmark's digests see fingerprints, not source bytes, so a drift
in type-1 layout, comments or type-2 line breaks would pass every
other check. This file folds the bytes themselves into SHA-256s:

- corpora: the name and bytes of every file `build_corpus` writes,
  manifest included, for a few seeds and one type3-only corpus;
- programs: `generate_program` over a grid of `SizeSpec` budgets and
  nesting bounds;
- mutants: `repr(mutate(...))`, or the `ValueError` message, for
  seeded programs under type1, type2 and type3, type3 taking four
  `EditOps` in turn, plus a few tiny programs that reach the mutators' errors.

The digests were recorded before the mutators and the tree renderer
were reduced to one rename pass and one rendering rule, so any rework
of cloneforge must reproduce the old bytes exactly. Every source here
parses: a type3 error for a source that does not parse names the
source's line, which is pinned in `test_cloneforge.py` instead.
"""

from __future__ import annotations

import hashlib
import random

from cfgprint.cloneforge import (
    EditOps,
    MutationSpec,
    SizeSpec,
    build_corpus,
    generate_program,
    mutate,
)

GOLDEN = {
    "corpora": "a79368c8610e0c8e5d3cc2bdae1978e99f4daa0337f70e3b72f181bca8df7e6c",
    "programs": "b9eb76b4a7eb241d0c1cccec8d59d3ec1393cf99ce1a9b1e2965015c7b50c782",
    "mutants": "b47975a05b98ecee7650a2e446d2c36c59ee675cbb1c6739f1e196c01ce61aa1",
}

CORPUS_SEEDS = range(1, 6)
MUTATED_PROGRAMS = 300
TYPE3_OPS = (EditOps(1, 0, 1), EditOps(2, 1, 2), EditOps(0, 1, 0), EditOps(3, 2, 0))

# parseable programs small enough that edits run out of statements
_TINY = (
    "output 1;\n",
    "declare x;\nx = 1;\n",
    "if (1 > 2)\nendif\n",
    "case (x)\n  when (1)\n    output x;\nendcase\n",
    "while (x < 3)\n  x = x + 1;\nendwhile\noutput x;\n",
)


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _corpus_lines(root) -> list[str]:
    return [
        f"{path.name}\0{path.read_bytes().hex()}" for path in sorted(root.iterdir())
    ]


def _mutation_line(source: str, spec: MutationSpec) -> str:
    try:
        return repr(mutate(source, spec))
    except ValueError as exc:
        return repr((type(exc).__name__, str(exc)))


def mutation_cases() -> list[tuple[str, MutationSpec]]:
    rng = random.Random(31)
    cases = []
    for i in range(MUTATED_PROGRAMS):
        spec = SizeSpec(statements=rng.randint(3, 40), max_depth=rng.randint(1, 4))
        source = generate_program(rng.randrange(2**32), spec)
        cases.append((source, MutationSpec("type1", seed=rng.randrange(2**32))))
        cases.append((source, MutationSpec("type2", seed=rng.randrange(2**32))))
        ops = TYPE3_OPS[i % len(TYPE3_OPS)]
        cases.append((source, MutationSpec("type3", seed=rng.randrange(2**32), edit_ops=ops)))
    for source in _TINY:
        for seed, ops in enumerate((*TYPE3_OPS, EditOps(0, 0, 0), EditOps(0, 3, 0))):
            cases.append((source, MutationSpec("type3", seed=seed, edit_ops=ops)))
        cases.append((source, MutationSpec("type2", seed=5)))
    return cases


def test_corpora_match_recorded_digest(tmp_path):
    lines = []
    for seed in CORPUS_SEEDS:
        root = tmp_path / f"seed{seed}"
        build_corpus(root, 8, 4, seed=seed)
        lines += _corpus_lines(root)
    root = tmp_path / "type3"
    build_corpus(root, 6, 6, types=("type3",), seed=9)
    lines += _corpus_lines(root)
    assert len(lines) == len(CORPUS_SEEDS) * 21 + 19
    assert _digest(lines) == GOLDEN["corpora"]


def test_generated_programs_match_recorded_digest():
    lines = [
        generate_program(statements * 10 + depth, SizeSpec(statements, depth))
        for statements in range(8, 61)
        for depth in range(1, 5)
    ]
    assert _digest(lines) == GOLDEN["programs"]


def test_mutants_match_recorded_digest():
    lines = [_mutation_line(source, spec) for source, spec in mutation_cases()]
    assert any(line.startswith("('ValueError'") for line in lines)
    assert _digest(lines) == GOLDEN["mutants"]
