"""Shared test helper: a directly constructed control-flow graph."""

from cfgprint.cfg_builder import BasicBlock, ControlFlowGraph


def graph_from_edges(blocks, edges, exit_id, entry_id=0):
    """The graph over `blocks` (or that many blocks with no statements)
    whose successor rows are `edges` grouped by source, each row
    sorted."""
    if isinstance(blocks, int):
        blocks = tuple(BasicBlock(i, ()) for i in range(blocks))
    rows = [[] for _ in blocks]
    for src, dst in edges:
        rows[src].append(dst)
    return ControlFlowGraph(
        blocks=tuple(blocks),
        successors=tuple(tuple(sorted(row)) for row in rows),
        entry_id=entry_id,
        exit_id=exit_id,
    )
