"""Basic blocks and control-flow graph construction.

`cfg_from_statements` is the one builder. It works on the flat
normalized statement sequence and derives a single successor table:
a stack pass recovers construct nesting from the control roles, then
each statement's successors are read off by these rules:

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

Leaders (the first statement, every branch target and join, every
statement immediately after a control transfer), the blocks between
them and the edges all come from that table. A synthetic exit block
(no statements) terminates the graph; anything that runs off the end
of the program flows there. A `BasicBlock` is a NamedTuple, so a graph
of a few dozen blocks costs little to build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

from .frontend import NormalizedStatement

_EXIT = -1  # ordinal sentinel: control leaves the program


class BasicBlock(NamedTuple):
    """A maximal run of statements entered only at its first; the
    synthetic exit block holds none."""

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


def _successors(
    statements: list[NormalizedStatement],
) -> tuple[list[tuple[int, ...]], set[int]]:
    """Each ordinal's successor ordinals (`_EXIT` leaves the program),
    and the end markers of selections, where their branches join.

    A stack pass recovers construct nesting from the control roles;
    a second pass reads off the successors.
    """
    if not statements:
        raise ValueError("empty program")
    for i, s in enumerate(statements):
        if s.ordinal != i:
            raise ValueError("statement ordinals must be contiguous from 0")

    loop_partner: dict[int, int] = {}  # loop header <-> its end marker
    guard_next: dict[int, int] = {}  # selection guard -> next alternative or end
    alt_end: dict[int, int] = {}  # selection alternative -> its end marker
    joins: set[int] = set()
    stack: list[list[int]] = []  # open constructs: header, then alternatives
    for s in statements:
        role = s.control_role
        if role in ("loop-header", "selection-header"):
            stack.append([s.ordinal])
        elif role == "selection-alt":
            if not stack or statements[stack[-1][0]].control_role != "selection-header":
                raise ValueError(
                    f"ordinal {s.ordinal}: selection alternative outside a selection"
                )
            stack[-1].append(s.ordinal)
        elif role == "construct-end":
            if not stack:
                raise ValueError(f"ordinal {s.ordinal}: end marker with no open construct")
            chain = stack.pop()
            if statements[chain[0]].control_role == "loop-header":
                loop_partner[chain[0]] = s.ordinal
                loop_partner[s.ordinal] = chain[0]
            else:
                joins.add(s.ordinal)
                chain.append(s.ordinal)
                for guard, nxt in zip(chain, chain[1:]):
                    guard_next[guard] = nxt
                for alt in chain[1:-1]:
                    alt_end[alt] = s.ordinal
        elif role != "none":
            raise ValueError(f"unknown control role {role!r}")
    if stack:
        raise ValueError(f"ordinal {stack[-1][0]}: construct never closed")

    # where fall-through from each ordinal lands: the next statement, the
    # enclosing join if the next statement opens an alternative, or the exit
    fall = [alt_end.get(j, j) for j in range(1, len(statements))] + [_EXIT]
    succ: list[tuple[int, ...]] = []
    for s, after in zip(statements, fall):
        k = s.ordinal
        role = s.control_role
        if role == "none":
            succ.append((after,))
        elif role == "loop-header":
            succ.append((k + 1, fall[loop_partner[k]]))
        elif role == "selection-header" or (role == "selection-alt" and s.condition):
            succ.append((k + 1, guard_next[k]))
        elif role == "selection-alt":
            succ.append((k + 1,))
        elif k in loop_partner:
            succ.append((loop_partner[k], after))
        else:
            succ.append((after,))
    return succ, joins


def cfg_from_statements(statements: list[NormalizedStatement]) -> ControlFlowGraph:
    """Build the CFG of a normalized statement sequence, ending in the
    synthetic exit block.

    Leaders are ordinal 0, every successor of a control or control-end
    statement, the ordinal after each of them, and every selection join.
    """
    succ, joins = _successors(statements)
    n = len(statements)
    leaders = {0, *joins}
    for s, targets in zip(statements, succ):
        if s.control_role != "none":
            leaders.update(targets)
            leaders.add(s.ordinal + 1)
    leaders.discard(_EXIT)
    leaders.discard(n)
    bounds = sorted(leaders) + [n]
    exit_id = len(bounds) - 1
    block_of = {lo: i for i, lo in enumerate(bounds[:-1])}
    block_of[_EXIT] = exit_id
    blocks = [
        BasicBlock(i, tuple(statements[lo:hi]))
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    blocks.append(BasicBlock(exit_id, (), is_virtual_exit=True))
    edges = frozenset(
        (i, block_of[target])
        for i, hi in enumerate(bounds[1:])
        for target in succ[hi - 1]
    )
    return ControlFlowGraph(
        blocks=tuple(blocks), edges=edges, entry_id=0, exit_id=exit_id
    )


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
