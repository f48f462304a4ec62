"""Synthetic corpus generation, mutation, and benchmark harness.

generate_program() emits seeded, parseable MiniProc with enough shape
variety that unrelated programs land far apart after normalization.
Its weighted draws read cumulative weights summed once per program
(`_draw`), taking the RNG calls and picks `random.choices` would.
mutate() derives labeled clones: type1 touches only comments and
whitespace; type2 renames identifiers to m0, m1, ... in order of first
use and redraws every literal, in one pass over the tokens; type3 parses
that renamed token list and inserts, deletes, or reorders whole plain
statements in the tree, which one rule renders back to text.
build_corpus() writes originals, their mutants and unrelated programs
with a manifest of the true clone pairs; tests/test_cloneforge_golden.py
pins the bytes of programs, corpora and mutants. evaluate() runs the full
index+query loop over such a corpus and reports precision per alpha;
scaling_run() times queries against growing indexes. Both return rows
and write no files.
"""

from __future__ import annotations

import json
import random
import time
from bisect import bisect
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate
from pathlib import Path
from typing import Iterator, Sequence

from .config import ConfigStamp, RunConfig
from .frontend import (
    PLAIN_KINDS,
    Statement,
    Token,
    normalize_source,
    parse,
    tokenize,
)
from .fingerprint import shared_work
from .index_store import FingerprintIndex, record_from_program
from .pipeline import program_files, run_pipeline, run_program_file


@dataclass(frozen=True)
class SizeSpec:
    """Rough plain-statement budget and construct nesting bound."""

    statements: int = 24
    max_depth: int = 2


@dataclass(frozen=True)
class EditOps:
    insert: int = 1
    delete: int = 0
    reorder: int = 0

    def __post_init__(self) -> None:
        for name, count in asdict(self).items():
            if count < 0:
                raise ValueError(f"EditOps.{name} must be >= 0, got {count}")

    @property
    def total(self) -> int:
        return self.insert + self.delete + self.reorder


_MUTATION_KINDS = ("type1", "type2", "type3")


def _check_kind(kind: str) -> None:
    if kind not in _MUTATION_KINDS:
        raise ValueError(f"unknown mutation kind {kind!r}")


@dataclass(frozen=True)
class MutationSpec:
    kind: str  # one of _MUTATION_KINDS
    seed: int = 0
    edit_ops: EditOps = EditOps()

    def __post_init__(self) -> None:
        _check_kind(self.kind)


@dataclass
class EvalResult:
    alpha: int
    candidates: int
    tp: int
    fp: int
    precision: float | None
    by_blocks: dict[str, dict[str, int]] = field(default_factory=dict)
    by_lines: dict[str, dict[str, int]] = field(default_factory=dict)
    # this alpha's equal share of the probe-by-probe query pass, plus
    # the time of its own tally
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


# -- program generation ----------------------------------------------------


_ARITH_OPS = ("+", "-", "*", "/", "%")
_CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")
_CONSTRUCTS = ("if", "while", "for", "case")
_CONSTRUCT_CUM = tuple(accumulate((45, 22, 18, 15)))


def _draw(rng: random.Random, population: Sequence, cum: Sequence[float]):
    """`rng.choices(population, weights)[0]` for the running sums `cum`
    of `weights`: the same single `rng.random()` call and the same pick,
    without re-summing and re-checking the weights on every draw."""
    return population[bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)]


class _Generator:
    def __init__(self, rng: random.Random, spec: SizeSpec):
        self.rng = rng
        self.spec = spec
        n_locals = rng.randint(1, 4)
        self.locals = [f"v{i}" for i in range(n_locals)]
        self.globals = [f"g{i}" for i in range(rng.randint(2, 5))]
        self.variables = self.locals + self.globals
        self.funcs = [f"f{i}" for i in range(rng.randint(1, 3))]
        self.lines: list[str] = []
        self.constructs_emitted = 0
        # Per-program style: operator mix, expression length, operand mix,
        # call arity, and paren habits are all drawn once per program.
        # Statement shape is what survives normalization, so without this
        # every program samples the same narrow shape distribution and
        # unrelated long paths end up sharing most of their statement
        # multiset, which reads as a clone. Each weight list is held as
        # its running sums, summed once here for every `_draw`.
        self.op_cum = list(accumulate(rng.uniform(0.15, 1.0) for _ in _ARITH_OPS))
        self.cmp_cum = list(accumulate(rng.uniform(0.15, 1.0) for _ in _CMP_OPS))
        self.term_cum = list(accumulate((
            rng.uniform(0.05, 0.35),
            rng.uniform(0.4, 1.0),
            rng.uniform(0.4, 1.0),
            rng.uniform(0.15, 0.9),
        )))
        self.operand_cum = list(accumulate(rng.uniform(0.25, 1.0) for _ in range(4)))
        self.arity_cum = list(accumulate(rng.uniform(0.1, 1.0) for _ in range(5)))
        self.role_cum = list(accumulate((
            rng.uniform(0.45, 0.8),
            rng.uniform(0.1, 0.35),
            rng.uniform(0.1, 0.35),
        )))
        self.paren_p = rng.uniform(0.08, 0.4)

    def _operand(self) -> str:
        pick = _draw(self.rng, range(4), self.operand_cum)
        if pick == 0:
            return self.rng.choice(self.locals)
        if pick == 1:
            return self.rng.choice(self.globals)
        if pick == 2:
            return str(self.rng.randint(0, 99))
        return f'"s{self.rng.randint(0, 99)}"'

    def _expr(self, depth: int = 0) -> str:
        n_terms = _draw(self.rng, (1, 2, 3, 4), self.term_cum)
        parts = []
        for i in range(n_terms):
            if i:
                parts.append(_draw(self.rng, _ARITH_OPS, self.op_cum))
            if depth == 0 and self.rng.random() < self.paren_p:
                parts.append(f"( {self._expr(depth + 1)} )")
            else:
                parts.append(self._operand())
        return " ".join(parts)

    def _binary(self) -> str:
        op = _draw(self.rng, _ARITH_OPS, self.op_cum)
        return f"{self._operand()} {op} {self._operand()}"

    def _cmp_side(self) -> str:
        if self.rng.random() < 0.3:
            return self._binary()
        return self._operand()

    def _comparison(self) -> str:
        op = _draw(self.rng, _CMP_OPS, self.cmp_cum)
        return f"{self._cmp_side()} {op} {self._cmp_side()}"

    def _guard(self) -> str:
        # case discriminants and when labels; varied on purpose, since a
        # path crosses several of these and identical guard shapes would
        # stack up and drown out the rest of the path in the fingerprint
        if self.rng.random() < 0.45:
            return self._operand()
        return self._binary()

    def _condition(self) -> str:
        cond = self._comparison()
        if self.rng.random() < 0.2:
            cond = f"{cond} {self.rng.choice(['&&', '||'])} {self._comparison()}"
        return cond

    def _plain(self) -> str:
        role = _draw(self.rng, ("assign", "output", "call"), self.role_cum)
        if role == "assign":
            target = self.rng.choice(self.variables)
            return f"{target} = {self._expr()};"
        if role == "output":
            return f"output {self._expr()};"
        func = self.rng.choice(self.funcs)
        n_args = _draw(self.rng, range(5), self.arity_cum)
        args = ", ".join(self._operand() for _ in range(n_args))
        return f"call {func}({args});"

    def _body(self, budget: int, depth: int, pad: str) -> int:
        """Emit approximately `budget` statements at this depth;
        returns how many were actually spent."""
        spent = 0
        while spent < budget:
            remaining = budget - spent
            construct_p = 0.30 if depth < self.spec.max_depth and remaining >= 3 else 0.0
            if self.rng.random() < construct_p:
                spent += self._construct(remaining, depth, pad)
            else:
                self.lines.append(pad + self._plain())
                spent += 1
        return spent

    def _construct(self, budget: int, depth: int, pad: str) -> int:
        kind = _draw(self.rng, _CONSTRUCTS, _CONSTRUCT_CUM)
        self.constructs_emitted += 1
        inner = pad + "  "
        if kind == "if":
            self.lines.append(pad + f"if ({self._condition()})")
            spent = 1 + self._body(self.rng.randint(1, min(3, budget)), depth + 1, inner)
            if self.rng.random() < 0.25 and spent + 2 <= budget:
                self.lines.append(pad + f"elseif ({self._condition()})")
                spent += 1 + self._body(self.rng.randint(1, 2), depth + 1, inner)
            if self.rng.random() < 0.35 and spent + 2 <= budget:
                self.lines.append(pad + "else")
                spent += 1 + self._body(self.rng.randint(1, 2), depth + 1, inner)
            self.lines.append(pad + "endif")
            return spent
        if kind == "while":
            self.lines.append(pad + f"while ({self._condition()})")
            spent = 1 + self._body(self.rng.randint(1, min(3, budget)), depth + 1, inner)
            self.lines.append(pad + "endwhile")
            return spent
        if kind == "for":
            var = self.rng.choice(self.variables)
            self.lines.append(pad + f"for {var} = {self._expr()} to {self._expr()}")
            spent = 1 + self._body(self.rng.randint(1, min(3, budget)), depth + 1, inner)
            self.lines.append(pad + "endfor")
            return spent
        self.lines.append(pad + f"case ({self._guard()})")
        spent = 1
        for _ in range(self.rng.randint(2, 3)):
            self.lines.append(pad + f"when ({self._guard()})")
            spent += 1 + self._body(self.rng.randint(1, 2), depth + 1, inner)
        self.lines.append(pad + "endcase")
        return spent

    def generate(self) -> str:
        groups: list[list[str]] = []
        pool = list(self.locals)
        while pool:
            take = min(len(pool), self.rng.randint(1, 2))
            groups.append(pool[:take])
            pool = pool[take:]
        for group in groups:
            self.lines.append(f"declare {', '.join(group)};")
        for _ in range(self.rng.randint(1, 2)):
            self.lines.append(self._plain())
        self._body(max(4, self.spec.statements - len(self.lines) - 1), 0, "")
        if self.constructs_emitted == 0:
            # every program carries control flow so at least one path
            # spans three or more real blocks
            self._construct(3, 0, "")
        self.lines.append(f"output {self._expr()};")
        return "\n".join(self.lines) + "\n"


def generate_program(seed: int, size_spec: SizeSpec = SizeSpec()) -> str:
    """Deterministic random program for the given seed."""
    return _Generator(random.Random(seed), size_spec).generate()


# -- mutation ----------------------------------------------------------------


def _mutate_type1(source: str, rng: random.Random) -> str:
    out: list[str] = []
    for line in source.splitlines():
        if rng.random() < 0.20:
            line = "  " + line
        if line.strip() and rng.random() < 0.30:
            line = line + f"  # note {rng.randint(0, 999)}"
        out.append(line)
        if rng.random() < 0.15:
            out.append("")
    if rng.random() < 0.5:
        out.insert(0, f"# header {rng.randint(0, 999)}")
    return "\n".join(out) + "\n"


def _fresh_literal(lexeme: str, rng: random.Random) -> str:
    """A literal of the same sort (string, decimal or integer) that
    differs from `lexeme`."""
    while True:
        if lexeme.startswith('"'):
            candidate = f'"t{rng.randint(0, 999)}"'
        elif "." in lexeme:
            candidate = f"{rng.randint(0, 99)}.{rng.randint(1, 9)}"
        else:
            candidate = str(rng.randint(0, 999))
        if candidate != lexeme:
            return candidate


def _rename(tokens: Sequence[Token], rng: random.Random) -> list[Token]:
    """The type-2 token list: identifiers become m0, m1, ... in order of
    first use, and every literal is redrawn."""
    names: dict[str, str] = {}
    out: list[Token] = []
    for tok in tokens:
        if tok.kind == "identifier":
            tok = Token("identifier", names.setdefault(tok.lexeme, f"m{len(names)}"), tok.line)
        elif tok.kind == "literal":
            tok = Token("literal", _fresh_literal(tok.lexeme, rng), tok.line)
        out.append(tok)
    return out


def _render_tokens(tokens: Sequence[Token]) -> str:
    lines: list[str] = []
    current: list[str] = []
    for tok in tokens:
        current.append(tok.lexeme)
        if (tok.kind == "punctuation" and tok.lexeme == ";") or (
            tok.kind == "keyword" and tok.lexeme.startswith("end")
        ):
            lines.append(" ".join(current))
            current = []
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines) + "\n"


@dataclass
class _MutNode:
    kind: str
    tokens: tuple[Token, ...]
    children: list["_MutNode"]


# nodes that close a construct's body: its alternatives and end marker
_BODY_ENDS = frozenset({"elseif", "else", "when", "end-marker"})


def _to_mut(node: Statement) -> _MutNode:
    return _MutNode(node.kind, node.tokens, [_to_mut(c) for c in node.children])


def _render_lines(node: _MutNode, depth: int) -> Iterator[str]:
    """One line per descendant of `node`: a plain statement's tokens with `;`
    on the last, an end marker's keyword, or any other node's kind and
    header tokens. Alternatives and end markers sit at their
    construct's depth; bodies sit at `depth`."""
    for child in node.children:
        words = [t.lexeme for t in child.tokens]
        if child.kind in PLAIN_KINDS:
            words[-1] += ";"
        elif child.kind != "end-marker":
            words.insert(0, child.kind)
        at = depth - 1 if child.kind in _BODY_ENDS else depth
        yield "  " * at + " ".join(words)
        yield from _render_lines(child, at + 1)


def _body_slots(root: _MutNode) -> list[tuple[_MutNode, int]]:
    """(container, insert position) pairs where a plain statement can
    legally go. Every node but a plain statement, an end marker or a
    `case` holds a body, which runs up to its first alternative or end
    marker."""
    slots: list[tuple[_MutNode, int]] = []

    def walk(node: _MutNode) -> None:
        if node.kind not in PLAIN_KINDS and node.kind not in ("end-marker", "case"):
            kinds = [child.kind for child in node.children]
            limit = next((i for i, k in enumerate(kinds) if k in _BODY_ENDS), len(kinds))
            slots.extend((node, i) for i in range(limit + 1))
        for child in node.children:
            walk(child)

    walk(root)
    return slots


def _plain_positions(root: _MutNode) -> list[tuple[_MutNode, int]]:
    positions: list[tuple[_MutNode, int]] = []

    def walk(node: _MutNode) -> None:
        for i, child in enumerate(node.children):
            if child.kind in PLAIN_KINDS:
                positions.append((node, i))
            else:
                walk(child)

    walk(root)
    return positions


def _random_plain_statement(rng: random.Random) -> _MutNode:
    gen = _Generator(rng, SizeSpec())
    text = gen._plain()
    program = parse(tokenize(text))
    return _to_mut(program.children[0])


def _mutate_type3(source: str, rng: random.Random, ops: EditOps) -> str:
    if ops.total < 1:
        raise ValueError("type3 mutation needs at least one edit op")
    root = _to_mut(parse(_rename(tokenize(source), rng)))

    for _ in range(ops.insert):
        container, pos = rng.choice(_body_slots(root))
        container.children.insert(pos, _random_plain_statement(rng))
    for _ in range(ops.delete):
        positions = _plain_positions(root)
        if not positions:
            raise ValueError("no deletable statement left")
        container, pos = rng.choice(positions)
        del container.children[pos]
        if not root.children:
            raise ValueError("type3 edits would empty the program")
    for _ in range(ops.reorder):
        positions = _plain_positions(root)
        adjacent = [
            (container, i)
            for container, i in positions
            if i + 1 < len(container.children)
            and container.children[i + 1].kind in PLAIN_KINDS
        ]
        if not adjacent:
            continue  # nothing to swap; other ops already changed the text
        container, i = rng.choice(adjacent)
        container.children[i], container.children[i + 1] = (
            container.children[i + 1],
            container.children[i],
        )
    return "\n".join(_render_lines(root, 0)) + "\n"


def mutate(source: str, spec: MutationSpec) -> tuple[str, dict]:
    """Derive a labeled clone. The result always parses."""
    rng = random.Random(spec.seed)
    if spec.kind == "type1":
        mutated = _mutate_type1(source, rng)
        label = {"type": "type1"}
    elif spec.kind == "type2":
        tokens = tokenize(source)
        # refuse a source that does not parse, naming its own line: its
        # rendered text can join two bad lines into one that parses
        parse(tokens)
        mutated = _render_tokens(_rename(tokens, rng))
        label = {"type": "type2"}
    else:
        mutated = _mutate_type3(source, rng, spec.edit_ops)
        label = {"type": "type3", "edits": asdict(spec.edit_ops)}
    parse(tokenize(mutated))  # mutants must stay inside the language
    return mutated, label


# -- corpus assembly ---------------------------------------------------------


# plain-statement budget of each corpus program, drawn uniformly
_CORPUS_STATEMENTS = (14, 40)


def build_corpus(
    out_dir: str | Path,
    originals: int,
    unrelated: int,
    types: Sequence[str] = _MUTATION_KINDS,
    seed: int = 0,
) -> Path:
    """Write originals, one mutant per original (types cycling), and
    unrelated programs, plus manifest.json naming the true clone pairs.
    Distinct programs are guaranteed distinct after normalization.
    Returns the manifest path."""
    # checked before the first write, so a bad value leaves no files
    if not types:
        raise ValueError("build_corpus needs at least one mutation type, got types=()")
    for kind in types:
        _check_kind(kind)
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seen_shapes: set[tuple[str, ...]] = set()

    def fresh_program() -> str:
        for _ in range(64):
            spec = SizeSpec(statements=rng.randint(*_CORPUS_STATEMENTS),
                            max_depth=rng.choice([2, 2, 3]))
            text = generate_program(rng.randrange(2**32), spec)
            shape = tuple(s.text for s in normalize_source(text))
            if shape not in seen_shapes:
                seen_shapes.add(shape)
                return text
        raise RuntimeError("generator kept colliding; widen _CORPUS_STATEMENTS")

    manifest = []
    for i in range(originals):
        original = fresh_program()
        name = f"orig_{i:03d}.mp"
        (out / name).write_text(original, encoding="utf-8")
        kind = types[i % len(types)]
        mutated, label = mutate(
            original,
            MutationSpec(kind=kind, seed=rng.randrange(2**32),
                         edit_ops=EditOps(insert=1, delete=0, reorder=1)),
        )
        mut_name = f"mut_{i:03d}_{kind}.mp"
        (out / mut_name).write_text(mutated, encoding="utf-8")
        manifest.append({"original": name, "mutant": mut_name, "type": label["type"]})
    for i in range(unrelated):
        (out / f"unrel_{i:03d}.mp").write_text(fresh_program(), encoding="utf-8")

    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


# -- evaluation ---------------------------------------------------------------


_BLOCK_BUCKETS = ((1, 4), (5, 9), (10, 19), (20, 39), (40, None))
_LINE_BUCKETS = ((1, 19), (20, 39), (40, 79), (80, None))


def _bucket(value: int, buckets) -> str:
    for lo, hi in buckets:
        if hi is None:
            if value >= lo:
                return f"{lo}+"
        elif lo <= value <= hi:
            return f"{lo}-{hi}"
    return "0"


def _manifest_pairs(manifest: object) -> list[tuple[str, str]]:
    """The (original, mutant) pair of each manifest entry, in order. The
    manifest must be a list of objects whose `original` and `mutant` are
    strings; ValueError names the first entry that is not."""
    if not isinstance(manifest, list):
        raise ValueError(f"manifest must be a list of objects, got {type(manifest).__name__}")
    pairs = []
    for i, entry in enumerate(manifest):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("original"), str)
            and isinstance(entry.get("mutant"), str)
        ):
            raise ValueError(
                f"manifest entry {i}: needs string 'original' and 'mutant', got {entry!r}"
            )
        pairs.append((entry["original"], entry["mutant"]))
    return pairs


def evaluate(
    corpus_dir: str | Path,
    config: RunConfig,
    alpha_values: Sequence[int],
    threshold: float | None = None,
) -> list[EvalResult]:
    """Index the corpus once, sweep alpha, score candidate pairs
    against the manifest. The indexing runs in one `shared_work` scope,
    as a serial `index_directory` does. Precision is TP / (TP + FP);
    the false-positive rate quoted elsewhere is 1 - precision. The sweep
    goes probe by probe, with one `query` per alpha inside one
    `shared_work` scope per probe. A file that `index_directory` would
    skip (unreadable, not UTF-8, unparseable) is left out here too; if
    the manifest names it, that is the usual missing-program error,
    raised after indexing. Every swept alpha and the threshold must be
    ones a `RunConfig` accepts, and the manifest must be UTF-8 JSON (a
    ValueError names it otherwise) holding a list of objects whose
    `original` and `mutant` are strings, or ValueError is raised before
    any program is read."""
    alphas = list(alpha_values)
    threshold = config.threshold if threshold is None else threshold
    for alpha in alphas:
        replace(config, alpha=alpha)
    replace(config, threshold=threshold)
    root = Path(corpus_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"corpus manifest missing: {manifest_path}")
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # named as `load_index` names an index that is not UTF-8
        raise ValueError(f"{manifest_path}: not UTF-8 text: {exc}") from None
    try:
        manifest = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # named as `load_index` names a bad index line
        reason = getattr(exc, "msg", exc)
        raise ValueError(f"{manifest_path}: malformed JSON ({reason})") from exc
    named = _manifest_pairs(manifest)

    stamp = ConfigStamp.from_config(config)
    index = FingerprintIndex(config_stamp=stamp)
    sizes: dict[str, tuple[int, int]] = {}
    with shared_work():
        for program_id, path in program_files(root):
            outcome = run_program_file(program_id, path, config)
            if isinstance(outcome, str):
                continue
            source, result = outcome
            index.add_program(record_from_program(result.program, str(path), stamp))
            sizes[program_id] = (len(result.cfg.real_blocks), len(source.splitlines()))

    for pair in named:
        for pid in pair:
            if pid not in index.records:
                raise ValueError(f"manifest names {pid!r} but the corpus lacks it")
    labeled = {frozenset(pair) for pair in named}

    probes = {
        pid: record for pid, record in sorted(index.records.items()) if record.fingerprints
    }

    # probe-major: one scope per probe shares its minima pass and its
    # kernels across every alpha
    pair_sets: list[set[frozenset[str]]] = [set() for _ in alphas]
    t0 = time.perf_counter()
    for pid, probe in probes.items():
        with shared_work():
            for alpha, pairs in zip(alphas, pair_sets):
                for candidate in index.query(probe, alpha, threshold, config.mode):
                    pairs.add(frozenset({pid, candidate.program_id}))
    share = (time.perf_counter() - t0) / len(alphas) if alphas else 0.0

    results: list[EvalResult] = []
    for alpha, pairs in zip(alphas, pair_sets):
        t0 = time.perf_counter()
        by_blocks: dict[str, dict[str, int]] = {}
        by_lines: dict[str, dict[str, int]] = {}
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
        total = len(pairs)
        results.append(
            EvalResult(
                alpha=alpha,
                candidates=total,
                tp=tp,
                fp=fp,
                precision=(tp / total) if total else None,
                by_blocks=by_blocks,
                by_lines=by_lines,
                wall_time_s=share + time.perf_counter() - t0,
            )
        )

    return results


# -- scaling ------------------------------------------------------------------


def scaling_run(
    sizes: Sequence[int],
    config: RunConfig,
    seed: int = 0,
    repeats: int = 5,
    query_loops: int = 25,
) -> list[dict]:
    """Best wall time of one query against indexes of each size.

    One corpus of max(sizes) programs is generated; each index is a
    prefix, so per-record cost is identically distributed across sizes
    and only the record count varies. Record sizes are drawn from a
    narrow band to keep per-record cost roughly uniform; otherwise a
    few path-heavy programs early in the corpus would bend the curve.
    Repeats are interleaved across sizes and the minimum is kept, so
    load spikes and clock drift cannot skew one size against another.
    Runs single-worker by design.
    """
    rng = random.Random(seed)
    top = max(sizes)
    stamp = ConfigStamp.from_config(config)
    fingerprints = []
    for i in range(top):
        spec = SizeSpec(statements=rng.randint(20, 28))
        text = generate_program(rng.randrange(2**32), spec)
        result = run_pipeline(text, f"scale_{i:04d}", config)
        fingerprints.append(record_from_program(result.program, f"scale_{i:04d}.mp", stamp))
    probe = run_pipeline(
        generate_program(rng.randrange(2**32), SizeSpec(statements=26)),
        "probe", config,
    ).program

    indexes: list[tuple[int, FingerprintIndex]] = []
    for size in sizes:
        index = FingerprintIndex(config_stamp=stamp)
        for record in fingerprints[:size]:
            index.add_program(record)
        indexes.append((size, index))

    best: dict[int, float] = {size: float("inf") for size in sizes}
    candidates: dict[int, int] = {}
    scorings: dict[int, int] = {}
    for _, index in indexes:
        index.query(probe, config.alpha, config.threshold, config.mode)  # warmup
    for _ in range(repeats):
        for size, index in indexes:
            t0 = time.perf_counter()
            for _ in range(query_loops):
                found = len(index.query(probe, config.alpha, config.threshold, config.mode))
            best[size] = min(best[size], (time.perf_counter() - t0) / query_loops)
            candidates[size] = found
            scorings[size] = index.last_query_scorings

    return [
        {
            "size": size,
            "seconds": best[size],
            "candidates": candidates[size],
            "scorings": scorings[size],
        }
        for size in sizes
    ]
