"""Basic-block and edge construction.

The main weapon here is an oracle that computes the statement-level
successor relation by structural recursion over the parse tree, with no
stack and no role scanning. The production code derives the same
relation from the flat normalized sequence; the two must agree on every
program, handwritten or generated.
"""

import re

import pytest

from cfgprint.cfg_builder import (
    BasicBlock,
    ControlFlowGraph,
    cfg_from_statements,
    export_dot,
)
from cfgprint.cloneforge import SizeSpec, generate_program
from cfgprint.frontend import (
    PLAIN_KINDS,
    NormalizedStatement,
    normalize_source,
    parse,
    tokenize,
)
from oracles import graph_from_edges, simple_paths

EXIT = -1


# -- oracle ------------------------------------------------------------------


def oracle_successors(source):
    """Ordinal -> successor ordinals (EXIT = leaves the program),
    computed from the parse tree alone."""
    program = parse(tokenize(source))
    counter = [0]
    first_of = {}   # id(node) -> first ordinal emitted for it
    span = {}       # id(node) -> (header ordinal, end-marker ordinal)

    def number(node):
        first_of[id(node)] = counter[0]
        if node.kind in PLAIN_KINDS:
            counter[0] += 1
            return
        header = counter[0]
        counter[0] += 1
        end_ordinal = None
        for child in node.children:
            if child.kind in ("elseif", "else", "when"):
                first_of[id(child)] = counter[0]
                counter[0] += 1
                for grand in child.children:
                    number(grand)
            elif child.kind == "end-marker":
                end_ordinal = counter[0]
                counter[0] += 1
            else:
                number(child)
        span[id(node)] = (header, end_ordinal)

    for child in program.children:
        number(child)

    succ = {}

    def enter(node):
        return first_of[id(node)]

    def visit_body(nodes, after):
        for i, node in enumerate(nodes):
            cont = enter(nodes[i + 1]) if i + 1 < len(nodes) else after
            visit(node, cont)

    def visit(node, after):
        if node.kind in PLAIN_KINDS:
            succ[first_of[id(node)]] = {after}
            return
        header, end = span[id(node)]
        if node.kind in ("while", "for"):
            body = [c for c in node.children if c.kind != "end-marker"]
            succ[header] = {enter(body[0]) if body else end, after}
            visit_body(body, end)
            succ[end] = {header, after}
            return
        # if/case: guarded parts chain to each other, bodies join at end
        parts = []
        if node.kind == "if":
            then_body = [
                c for c in node.children
                if c.kind not in ("elseif", "else", "end-marker")
            ]
            parts.append((header, True, then_body))
        else:
            # a case header tests nothing itself; control falls to the
            # first alternative either way
            parts.append((header, True, []))
        for child in node.children:
            if child.kind in ("elseif", "when"):
                parts.append((first_of[id(child)], True, list(child.children)))
            elif child.kind == "else":
                parts.append((first_of[id(child)], False, list(child.children)))
        for i, (ordinal, guarded, body) in enumerate(parts):
            fall = enter_part(parts, i + 1, end)
            into = enter(body[0]) if body else fall if guarded else end
            if guarded:
                succ[ordinal] = {into if body else fall, fall}
            else:
                succ[ordinal] = {into if body else end}
            visit_body(body, end)
        succ[end] = {after}

    def enter_part(parts, i, end):
        return parts[i][0] if i < len(parts) else end

    root_children = list(program.children)
    visit_body(root_children, EXIT)
    return succ, counter[0]


def check_against_oracle(source):
    statements = normalize_source(source)
    succ, count = oracle_successors(source)
    assert count == len(statements)

    cfg = cfg_from_statements(statements)
    leader_set = set(_leaders(cfg))

    # ordinal -> block, from the implementation's partition
    block_of = {}
    for block in cfg.real_blocks:
        for s in block.statements:
            block_of[s.ordinal] = block.id

    # inside a block, control must run straight through
    for block in cfg.real_blocks:
        for s in block.statements[:-1]:
            assert succ[s.ordinal] == {s.ordinal + 1}, (
                f"branch point mid-block at ordinal {s.ordinal}"
            )

    expected_edges = set()
    for block in cfg.real_blocks:
        last = block.statements[-1].ordinal
        for target in succ[last]:
            if target == EXIT:
                expected_edges.add((block.id, cfg.exit_id))
            else:
                assert target in leader_set, f"edge target {target} is not a leader"
                expected_edges.add((block.id, block_of[target]))
    assert set(cfg.edges) == expected_edges

    # every block lies on some entry-to-exit walk
    predecessors = [[] for _ in cfg.blocks]
    for src, dst in cfg.edges:
        predecessors[dst].append(src)
    every_block = set(range(len(cfg.blocks)))
    assert _reached(cfg.entry_id, cfg.successors) == every_block
    assert _reached(cfg.exit_id, predecessors) == every_block
    return cfg


def _reached(start, neighbors):
    """The ids reachable from start, neighbors indexed by id."""
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in neighbors[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# -- handwritten shapes --------------------------------------------------------


def test_straight_line_single_block():
    cfg = check_against_oracle("declare x; x = 1; output x;")
    assert len(cfg.real_blocks) == 1
    assert set(cfg.edges) == {(0, 1)}


def test_while_loop_shape():
    cfg = check_against_oracle(
        "declare x; x = 0; while (x < 3) x = x + 1; endwhile output x;"
    )
    # pre / header / body+endwhile / after, then exit
    assert len(cfg.real_blocks) == 4
    assert set(cfg.edges) == {(0, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 4)}


def test_loop_end_has_back_edge_and_fall_through():
    cfg = check_against_oracle("while (a > 1) output a; endwhile output a;")
    statements = normalize_source("while (a > 1) output a; endwhile output a;")
    end_block = next(
        b.id for b in cfg.real_blocks
        if b.statements and b.statements[-1].control_role == "construct-end"
    )
    assert len(cfg.successors[end_block]) == 2


def test_empty_selection_body_gives_one_successor():
    # the header's branch into its empty body and its branch past it
    # both land on the end marker's block
    cfg = check_against_oracle("if (x > 0) endif output 1;")
    assert cfg.successors[0] == (1,)
    assert cfg.edges == {(0, 1), (1, 2), (2, 3)}


def test_if_else_diamond():
    cfg = check_against_oracle("if (x > 0) output 1; else output 2; endif")
    assert len(cfg.real_blocks) == 5
    assert len(cfg.edges) == 6
    assert len(simple_paths(len(cfg.blocks), cfg.edges, cfg.entry_id, cfg.exit_id)) == 2


def test_diamond_with_surrounding_statements():
    # a leading plain statement merges into the header's block
    cfg = check_against_oracle(
        "declare x; if (x > 0) output 1; else output 2; endif output x;"
    )
    assert len(cfg.real_blocks) == 6
    assert len(simple_paths(len(cfg.blocks), cfg.edges, cfg.entry_id, cfg.exit_id)) == 2


def test_if_without_else():
    cfg = check_against_oracle("if (x > 0) output 1; endif output x;")
    assert len(simple_paths(len(cfg.blocks), cfg.edges, cfg.entry_id, cfg.exit_id)) == 2


def test_elseif_chain_routes():
    src = """
    if (x > 10) output 1;
    elseif (x > 5) output 2;
    else output 3;
    endif
    output 0;
    """
    cfg = check_against_oracle(src)
    assert len(simple_paths(len(cfg.blocks), cfg.edges, cfg.entry_id, cfg.exit_id)) == 3


def test_case_routes():
    src = """
    case (x)
    when (1) output 1;
    when (2) output 2;
    when (3) output 3;
    endcase
    output 0;
    """
    cfg = check_against_oracle(src)
    # guard chain can also fall past every when
    assert len(simple_paths(len(cfg.blocks), cfg.edges, cfg.entry_id, cfg.exit_id)) == 4


def test_for_loop_matches_while_shape():
    cfg = check_against_oracle("for i = 1 to 10 output i; endfor output 0;")
    assert len(simple_paths(len(cfg.blocks), cfg.edges, cfg.entry_id, cfg.exit_id)) == 2


def test_nested_loop_in_if():
    src = """
    declare s;
    if (n > 0)
      s = 0;
      while (s < n)
        s = s + 1;
      endwhile
    endif
    output s;
    """
    check_against_oracle(src)


def test_empty_selection_body():
    check_against_oracle("if (x > 0) elseif (x < 0) output 1; endif output 2;")


def test_deeply_nested():
    src = """
    while (a > 0)
      if (b > 1)
        for i = 1 to 3
          case (c)
          when (1) output 1;
          endcase
        endfor
      else
        output 2;
      endif
    endwhile
    output 3;
    """
    check_against_oracle(src)


# -- leaders -------------------------------------------------------------------


def _leaders(cfg):
    """The ordinals that begin the graph's real blocks."""
    return [block.statements[0].ordinal for block in cfg.real_blocks]


def test_leaders_after_control_end():
    # Selection, body, end, trailing statement: all four start blocks
    statements = normalize_source("if (x > 1) output 1; endif output 2;")
    assert _leaders(cfg_from_statements(statements)) == [0, 1, 2, 3]


def test_leaders_straight_line():
    statements = normalize_source("x = 1; y = 2; output x;")
    assert _leaders(cfg_from_statements(statements)) == [0]


# -- malformed statement sequences ------------------------------------------------


def _stmt(ordinal, control_role="none"):
    kind = {"none": "plain", "construct-end": "control-end"}.get(control_role, "control")
    return NormalizedStatement("s", kind, control_role, ordinal)


@pytest.mark.parametrize(
    "statements, message",
    [
        ([], "empty program"),
        ([_stmt(0), _stmt(2)], "statement ordinals must be contiguous from 0"),
        (
            [_stmt(0, "loop-header"), _stmt(1, "selection-alt"), _stmt(2, "construct-end")],
            "ordinal 1: selection alternative outside a selection",
        ),
        ([_stmt(0), _stmt(1, "construct-end")], "ordinal 1: end marker with no open construct"),
        (
            [_stmt(0, "loop-header"), _stmt(1, "selection-header"), _stmt(2, "construct-end")],
            "ordinal 0: construct never closed",
        ),
        ([_stmt(0, "goto")], "unknown control role 'goto'"),
    ],
    ids=["empty", "gap", "stray-alternative", "stray-end", "unclosed", "unknown-role"],
)
def test_malformed_statements_rejected(statements, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cfg_from_statements(statements)


# -- generated corpus ----------------------------------------------------------


def test_oracle_agreement_on_generated_corpus():
    for seed in range(150):
        source = generate_program(seed, SizeSpec(statements=10 + seed % 25))
        check_against_oracle(source)


# -- direct graph construction --------------------------------------------------


def test_basic_block_contract():
    statement = NormalizedStatement("x", "plain", "none", 1)
    block = BasicBlock(0, (statement,))
    assert BasicBlock._fields == ("id", "statements", "is_virtual_exit")
    assert BasicBlock._field_defaults == {"is_virtual_exit": False}
    assert block.is_virtual_exit is False
    # the repr the frozen dataclass this type replaced gave
    assert repr(block) == (
        "BasicBlock(id=0, statements=(NormalizedStatement(text='x', kind='plain', "
        "control_role='none', ordinal=1, condition=''),), is_virtual_exit=False)"
    )
    assert repr(BasicBlock(1, (), is_virtual_exit=True)) == (
        "BasicBlock(id=1, statements=(), is_virtual_exit=True)"
    )
    for name in BasicBlock._fields:
        with pytest.raises(AttributeError):
            setattr(block, name, None)
    plain = (0, (statement,), False)
    assert block == plain and hash(block) == hash(plain)
    assert block != BasicBlock(0, (statement,), is_virtual_exit=True)
    # built blocks are the same type as constructed ones
    for built in cfg_from_statements(normalize_source("if (x) output 1; endif")).blocks:
        assert type(built) is BasicBlock


def test_direct_graph_rejects_exit_successors():
    with pytest.raises(ValueError, match="exit block"):
        graph_from_edges(2, {(0, 1), (1, 0)}, 1)


def test_direct_graph_rejects_gap_ids():
    blocks = (BasicBlock(0, ()), BasicBlock(2, ()))
    with pytest.raises(ValueError, match="contiguous"):
        graph_from_edges(blocks, set(), 0)


def test_direct_graph_rejects_dangling_edge():
    with pytest.raises(ValueError, match="missing block"):
        graph_from_edges(2, {(0, 5)}, 1)


def test_direct_graph_rejects_missing_entry_or_exit():
    for entry_id, exit_id in ((0, 2), (2, 1), (-1, 1)):
        with pytest.raises(ValueError, match="existing blocks"):
            graph_from_edges(2, {(0, 1)}, exit_id, entry_id)


def test_direct_graph_rejects_unsorted_row():
    blocks = tuple(BasicBlock(i, ()) for i in range(4))
    for row in ((3, 1, 2), (1, 1, 2), (2, 1)):
        with pytest.raises(ValueError, match="block 0 must be strictly ascending"):
            ControlFlowGraph(
                blocks=blocks, successors=(row, (), (), ()), entry_id=0, exit_id=3
            )


@pytest.mark.parametrize("rows", [((1,),), ((1,), (), ())])
def test_direct_graph_rejects_row_count_mismatch(rows):
    blocks = (BasicBlock(0, ()), BasicBlock(1, ()))
    with pytest.raises(ValueError, match="rows for 2 blocks"):
        ControlFlowGraph(blocks=blocks, successors=rows, entry_id=0, exit_id=1)


def test_graph_is_frozen_and_edges_come_from_the_rows():
    cfg = graph_from_edges(4, {(0, 3), (0, 1), (0, 2), (1, 3), (2, 3)}, 3)
    assert cfg.successors == ((1, 2, 3), (3,), (3,), ())
    assert cfg.edges == {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    assert cfg.edges is cfg.edges  # derived once, on first read
    with pytest.raises(AttributeError):
        cfg.successors = ((), (), (), ())


# -- dot export ------------------------------------------------------------------


def test_export_dot_deterministic_and_labeled():
    statements = normalize_source("declare x; if (x > 0) output 1; endif output x;")
    cfg = cfg_from_statements(statements)
    dot = export_dot(cfg)
    assert dot == export_dot(cfg)
    assert dot.startswith("digraph cfg {")
    assert dot.rstrip().endswith("}")
    assert 'shape=oval, label="exit"' in dot
    assert "Selection ( L-Var > LIT )" in dot
    assert dot.count("->") == len(cfg.edges)


def test_export_dot_escapes_quotes():
    statements = normalize_source('output "tag";')
    cfg = cfg_from_statements(statements)
    # literals normalize to LIT, so craft a node label via direct CFG text
    dot = export_dot(cfg)
    assert "output LIT" in dot
