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
them and the graph's own successor table all come from that table. A
synthetic exit block (no statements) terminates the graph; anything
that runs off the end of the program flows there.

The graph keeps its edges one way only: `successors[i]` is block i's
row of successor ids, strictly ascending. The path walk indexes those
rows, `export_dot` prints them in order, and `edges` derives the
(src, dst) pairs from them on first read. A `BasicBlock` is a
NamedTuple, so a graph of a few dozen blocks costs little to build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .frontend import NormalizedStatement

_EXIT = -1  # ordinal sentinel: control leaves the program


class BasicBlock(NamedTuple):
    """A maximal run of statements entered only at its first; the
    synthetic exit block holds none."""

    id: int
    statements: tuple[NormalizedStatement, ...]
    is_virtual_exit: bool = False


@dataclass(frozen=True)
class ControlFlowGraph:
    """Immutable CFG over basic blocks, held as one successor table.

    Block ids are contiguous from 0 and `blocks[i].id == i`.
    `successors[i]` holds block i's successor ids, strictly ascending.
    entry_id is the first block, exit_id names the block paths
    terminate at (the synthetic exit for graphs built from source; any
    block with no successors for directly constructed graphs). Every
    graph, built or constructed, is checked in one pass over its rows.
    """

    blocks: tuple[BasicBlock, ...]
    successors: tuple[tuple[int, ...], ...]
    entry_id: int
    exit_id: int

    def __post_init__(self):
        n = len(self.blocks)
        for i, b in enumerate(self.blocks):
            if b.id != i:
                raise ValueError("block ids must be contiguous from 0")
        if len(self.successors) != n:
            raise ValueError(
                f"successor table has {len(self.successors)} rows for {n} blocks"
            )
        if not (0 <= self.entry_id < n and 0 <= self.exit_id < n):
            raise ValueError("entry_id and exit_id must name existing blocks")
        for src, row in enumerate(self.successors):
            prev = -1
            for dst in row:
                if not 0 <= dst < n:
                    raise ValueError(f"edge ({src}, {dst}) references a missing block")
                if dst <= prev:
                    raise ValueError(
                        f"successors of block {src} must be strictly ascending, got {row}"
                    )
                prev = dst
        if self.successors[self.exit_id]:
            raise ValueError("exit block must have no successors")

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The (src, dst) pairs of the successor table."""
        return frozenset(
            (src, dst) for src, row in enumerate(self.successors) for dst in row
        )

    @property
    def real_blocks(self) -> tuple[BasicBlock, ...]:
        return tuple(b for b in self.blocks if not b.is_virtual_exit)


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
    # a block's row is its last statement's targets; two targets may
    # land in one block (an empty `if` body), so each row is deduplicated
    rows = [tuple(sorted({block_of[t] for t in succ[hi - 1]})) for hi in bounds[1:]]
    rows.append(())
    return ControlFlowGraph(
        blocks=tuple(blocks), successors=tuple(rows), entry_id=0, exit_id=exit_id
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
    for src, row in enumerate(cfg.successors):
        for dst in row:
            lines.append(f"  {names[src]} -> {names[dst]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
