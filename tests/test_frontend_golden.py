"""Golden digests of the frontend on seeded sources.

About 3 000 sources go through `tokenize`, `parse` and `normalize`:
generated programs, token-level mutants of each (a piece deleted,
doubled, swapped with its neighbour or replaced), and soups of
keywords, symbols and characters beyond ASCII. Each stage's output is
folded into one SHA-256: the tokens as `(kind, lexeme, line)`, the
tree's `repr` or the error's `(type, message, line)`, and the
normalized statements' `repr`. The digests were recorded before the
tokenizer and the construct parser were each reduced to one path, so
any rework of the frontend must reproduce the old tokens, trees and
errors exactly. The sources come from `generate_program` and a seeded
`random.Random`; the mutants split a program with this file's own
pattern, not the frontend's.
"""

from __future__ import annotations

import hashlib
import random
import re

from cfgprint.cloneforge import SizeSpec, generate_program
from cfgprint.frontend import MiniProcSyntaxError, normalize, parse, tokenize

GOLDEN = {
    "tokens": "627d91a9354c2c0c66b6e810cb4b1c032e8336b2ac476d405d2f4a56d76cdb73",
    "trees": "06c16bc7e882a4419dcfdc7ebbb7361522066586f30e4913e16f7c241f38b581",
    "statements": "42bbf93687108ac73a102f11fea00a7ee8cf128a22d938d90afdc4a63c8e356a",
}

PROGRAMS = 500
MUTANTS_PER_PROGRAM = 4
SOUPS = 500

# words, numbers, strings, comments and single non-blank characters,
# with the blanks between them kept so a mutant keeps its layout
_PIECES = re.compile(r'"[^"\n]*"|#[^\n]*|\w+|\s+|\S')

_EXOTIC = ["é", "ß", "²", "٣", "½", "Ⅻ", "\u00a0", "café", "x²", "٣٣", "1.²", '"ü"', "# ç"]

_VOCABULARY = [
    "if", "IF", "elseif", "else", "endif", "while", "endwhile", "for", "to",
    "endfor", "case", "when", "endcase", "declare", "call", "output", "EndCase",
    "==", "!=", "<=", ">=", "&&", "||", "+", "-", "*", "/", "%", "<", ">", "=",
    "!", "(", ")", ",", ";", "x", "y", "total", "_t", "0", "42", "3.5", "7.",
    '"s"', '"', "#", "\n", "\t", "@",
] + _EXOTIC


def _mutant(source: str, rng: random.Random) -> str:
    pieces = _PIECES.findall(source)
    solid = [i for i, piece in enumerate(pieces) if not piece.isspace()]
    i = rng.choice(solid)
    op = rng.randrange(4)
    if op == 0:
        del pieces[i]
    elif op == 1:
        pieces.insert(i, pieces[i] + " ")
    elif op == 2:
        j = solid[(solid.index(i) + 1) % len(solid)]
        pieces[i], pieces[j] = pieces[j], pieces[i]
    else:
        pieces[i] = rng.choice(_VOCABULARY)
    return "".join(pieces)


def _soup(rng: random.Random) -> str:
    words = rng.choices(_VOCABULARY, k=rng.randint(1, 40))
    return rng.choice((" ", "")).join(words)


def frontend_sources() -> list[str]:
    rng = random.Random(23)
    sources = []
    for seed in range(PROGRAMS):
        program = generate_program(seed, SizeSpec(statements=rng.randint(6, 24)))
        sources.append(program)
        sources += [_mutant(program, rng) for _ in range(MUTANTS_PER_PROGRAM)]
    sources += [_soup(rng) for _ in range(SOUPS)]
    return sources


def frontend_digests(sources: list[str]) -> dict[str, str]:
    lines: dict[str, list[str]] = {name: [] for name in GOLDEN}
    for source in sources:
        tokens = tokenize(source)
        lines["tokens"].append(repr([(t.kind, t.lexeme, t.line) for t in tokens]))
        try:
            tree = parse(tokens)
        except MiniProcSyntaxError as exc:
            lines["trees"].append(repr((type(exc).__name__, str(exc), exc.line)))
            continue
        lines["trees"].append(repr(tree))
        lines["statements"].append(repr(normalize(tree)))
    return {
        name: hashlib.sha256("\n".join(text).encode("utf-8")).hexdigest()
        for name, text in lines.items()
    }


def test_frontend_matches_recorded_digests():
    sources = frontend_sources()
    assert len(sources) == PROGRAMS * (1 + MUTANTS_PER_PROGRAM) + SOUPS
    assert frontend_digests(sources) == GOLDEN
