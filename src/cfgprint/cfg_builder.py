"""Basic blocks and control-flow graph construction.

Works on the flat normalized statement sequence. Leaders are found by
the classic rules (first statement, every branch target, every
statement immediately after a control transfer), blocks are the
half-open runs between leaders, and edges come from per-statement
successor semantics:

  - a plain statement falls through; if the next statement opens an
    `elseif`/`else`/`when` alternative, control instead joins at the
    construct's end marker
  - selection headers and guarded alternatives branch to their body and
    to the next alternative (or the end marker)
  - a bare `else` enters its body unconditionally
  - loop headers branch to the body and past the loop
  - loop end markers branch back to the header and past the loop, so a
    path may run the body once and leave
  - selection end markers fall through

A synthetic exit block (no statements) terminates the graph; anything
that runs off the end of the program flows there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .frontend import NormalizedStatement

_EXIT = -1  # ordinal sentinel: control leaves the program


@dataclass(frozen=True)
class BasicBlock:
    id: int
    statements: tuple[NormalizedStatement, ...]
    is_virtual_exit: bool = False


@dataclass
class ControlFlowGraph:
    """Immutable-by-convention CFG over basic blocks.

    Block ids are contiguous from 0. entry_id is the first block,
    exit_id names the block paths terminate at (the synthetic exit for
    graphs built from source; any block with out-degree 0 for directly
    constructed graphs). unreachable_ids holds blocks that lie on no
    entry-to-exit walk; it is computed on first read and kept.
    """

    blocks: tuple[BasicBlock, ...]
    edges: frozenset[tuple[int, int]]
    entry_id: int
    exit_id: int
    _succ: dict[int, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        ids = {b.id for b in self.blocks}
        if ids != set(range(len(self.blocks))):
            raise ValueError("block ids must be contiguous from 0")
        if self.entry_id not in ids or self.exit_id not in ids:
            raise ValueError("entry_id and exit_id must name existing blocks")
        succ: dict[int, list[int]] = {b.id: [] for b in self.blocks}
        for src, dst in self.edges:
            if src not in ids or dst not in ids:
                raise ValueError(f"edge ({src}, {dst}) references a missing block")
            succ[src].append(dst)
        if succ[self.exit_id]:
            raise ValueError("exit block must have no successors")
        self._succ = {i: tuple(sorted(s)) for i, s in succ.items()}

    @cached_property
    def unreachable_ids(self) -> frozenset[int]:
        pred: dict[int, list[int]] = {i: [] for i in self._succ}
        for src, dst in self.edges:
            pred[dst].append(src)
        forward = _reach(self.entry_id, self._succ)
        backward = _reach(self.exit_id, pred)
        return frozenset(self._succ.keys() - (forward & backward))

    def successors(self, block_id: int) -> tuple[int, ...]:
        return self._succ[block_id]

    @property
    def real_blocks(self) -> tuple[BasicBlock, ...]:
        return tuple(b for b in self.blocks if not b.is_virtual_exit)


def _reach(start: int, neighbors: dict[int, Sequence[int]]) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in neighbors[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@dataclass
class _Construct:
    kind: str  # "loop" | "selection"
    header: int
    alts: list[int]
    end: int = -1


class _Structure:
    """Construct nesting recovered from control roles, plus the
    per-ordinal successor relation derived from it."""

    def __init__(self, statements: list[NormalizedStatement]):
        if not statements:
            raise ValueError("empty program")
        for i, s in enumerate(statements):
            if s.ordinal != i:
                raise ValueError("statement ordinals must be contiguous from 0")
        self.statements = statements
        self.constructs: list[_Construct] = []
        self._alt_end: dict[int, int] = {}
        self._guard_next: dict[int, int] = {}
        self._loop_end_header: dict[int, int] = {}
        self._loop_header_end: dict[int, int] = {}
        self._selection_end_kind: set[int] = set()

        stack: list[_Construct] = []
        for s in statements:
            role = s.control_role
            if role == "loop-header":
                c = _Construct("loop", s.ordinal, [])
                stack.append(c)
                self.constructs.append(c)
            elif role == "selection-header":
                c = _Construct("selection", s.ordinal, [])
                stack.append(c)
                self.constructs.append(c)
            elif role == "selection-alt":
                if not stack or stack[-1].kind != "selection":
                    raise ValueError(
                        f"ordinal {s.ordinal}: selection alternative outside a selection"
                    )
                stack[-1].alts.append(s.ordinal)
            elif role == "construct-end":
                if not stack:
                    raise ValueError(f"ordinal {s.ordinal}: end marker with no open construct")
                c = stack.pop()
                c.end = s.ordinal
        if stack:
            raise ValueError(f"ordinal {stack[-1].header}: construct never closed")

        for c in self.constructs:
            if c.kind == "loop":
                self._loop_end_header[c.end] = c.header
                self._loop_header_end[c.header] = c.end
            else:
                self._selection_end_kind.add(c.end)
                chain = [c.header, *c.alts, c.end]
                for guard, nxt in zip(chain, chain[1:]):
                    self._guard_next[guard] = nxt
                for alt in c.alts:
                    self._alt_end[alt] = c.end

    def effective_next(self, ordinal: int) -> int:
        """Where fall-through from `ordinal` lands: the next statement,
        the enclosing join if the next statement opens an alternative,
        or the program exit."""
        j = ordinal + 1
        if j >= len(self.statements):
            return _EXIT
        if self.statements[j].control_role == "selection-alt":
            return self._alt_end[j]
        return j

    def successors(self, ordinal: int) -> set[int]:
        s = self.statements[ordinal]
        role = s.control_role
        if role == "none":
            return {self.effective_next(ordinal)}
        if role == "loop-header":
            return {ordinal + 1, self.effective_next(self._loop_header_end[ordinal])}
        if role == "selection-header":
            return {ordinal + 1, self._guard_next[ordinal]}
        if role == "selection-alt":
            if s.condition:
                return {ordinal + 1, self._guard_next[ordinal]}
            return {ordinal + 1}
        if role == "construct-end":
            if ordinal in self._loop_end_header:
                return {self._loop_end_header[ordinal], self.effective_next(ordinal)}
            return {self.effective_next(ordinal)}
        raise ValueError(f"unknown control role {role!r}")

    @property
    def selection_ends(self) -> set[int]:
        return set(self._selection_end_kind)


def find_leaders(statements: list[NormalizedStatement]) -> list[int]:
    """Ordinals that begin basic blocks, sorted ascending.

    Rule set: ordinal 0; every ordinal-valued successor of a control or
    control-end statement; the ordinal immediately after every control
    or control-end statement; the end marker of every selection
    construct (target of the implicit branch-exit joins).
    """
    return _leaders(_Structure(statements))


def _leaders(structure: _Structure) -> list[int]:
    statements = structure.statements
    n = len(statements)
    leaders = {0}
    for s in statements:
        if s.control_role == "none":
            continue
        k = s.ordinal
        if k + 1 < n:
            leaders.add(k + 1)
        leaders.update(t for t in structure.successors(k) if t != _EXIT)
    leaders.update(structure.selection_ends)
    return sorted(leaders)


def build_blocks(
    statements: list[NormalizedStatement], leaders: list[int]
) -> list[BasicBlock]:
    """Partition the statement sequence into blocks, one per leader."""
    if not statements:
        raise ValueError("empty program")
    if not leaders or leaders[0] != 0:
        raise ValueError("leaders must start at ordinal 0")
    if sorted(set(leaders)) != list(leaders):
        raise ValueError("leaders must be sorted and unique")
    if leaders[-1] >= len(statements):
        raise ValueError("leader past the end of the statement sequence")
    bounds = leaders + [len(statements)]
    return [
        BasicBlock(i, tuple(statements[lo:hi]))
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def build_cfg(
    blocks: list[BasicBlock], statements: list[NormalizedStatement]
) -> ControlFlowGraph:
    """Wire blocks into a CFG, appending the synthetic exit block."""
    return _wire(blocks, _Structure(statements))


def _wire(blocks: list[BasicBlock], structure: _Structure) -> ControlFlowGraph:
    block_of_leader = {b.statements[0].ordinal: b.id for b in blocks}
    exit_id = len(blocks)
    edges: set[tuple[int, int]] = set()
    for b in blocks:
        last = b.statements[-1].ordinal
        for target in structure.successors(last):
            if target == _EXIT:
                edges.add((b.id, exit_id))
            else:
                if target not in block_of_leader:
                    raise ValueError(
                        f"block {b.id} targets ordinal {target}, which is not a leader"
                    )
                edges.add((b.id, block_of_leader[target]))
    all_blocks = tuple(blocks) + (BasicBlock(exit_id, (), is_virtual_exit=True),)
    return ControlFlowGraph(
        blocks=all_blocks,
        edges=frozenset(edges),
        entry_id=0,
        exit_id=exit_id,
    )


def cfg_from_statements(statements: list[NormalizedStatement]) -> ControlFlowGraph:
    """find_leaders + build_blocks + build_cfg in one step, over one
    construct structure."""
    structure = _Structure(statements)
    return _wire(build_blocks(statements, _leaders(structure)), structure)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_name(block: BasicBlock) -> str:
    return "exit" if block.is_virtual_exit else f"b{block.id}"


def export_dot(cfg: ControlFlowGraph) -> str:
    """Render the graph in DOT, deterministically ordered.

    Node labels carry the block name and its statement texts so the
    drawing shows the normalized code each block holds.
    """
    names = {b.id: _node_name(b) for b in cfg.blocks}
    lines = ["digraph cfg {"]
    for b in cfg.blocks:
        if b.is_virtual_exit:
            lines.append(f'  {names[b.id]} [shape=oval, label="exit"];')
            continue
        label = "\\n".join([names[b.id]] + [_dot_escape(s.text) for s in b.statements])
        lines.append(f'  {names[b.id]} [shape=box, label="{label}"];')
    for src, dst in sorted(cfg.edges):
        lines.append(f"  {names[src]} -> {names[dst]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
