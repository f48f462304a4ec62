"""Basic-block and edge construction.

The main weapon here is an oracle that computes the statement-level
successor relation by structural recursion over the parse tree, with no
stack and no role scanning. The production code derives the same
relation from the flat normalized sequence; the two must agree on every
program, handwritten or generated.
"""

import pytest

from cfgprint.cfg_builder import (
    BasicBlock,
    ControlFlowGraph,
    build_blocks,
    build_cfg,
    cfg_from_statements,
    export_dot,
    find_leaders,
)
from cfgprint.cloneforge import SizeSpec, generate_program
from cfgprint.frontend import PLAIN_KINDS, normalize_source, parse, tokenize

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
    leaders = find_leaders(statements)
    leader_set = set(leaders)

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
    assert cfg.unreachable_ids == frozenset()
    return cfg


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
    assert len(cfg.successors(end_block)) == 2


def test_if_else_diamond():
    cfg = check_against_oracle("if (x > 0) output 1; else output 2; endif")
    assert len(cfg.real_blocks) == 5
    assert len(cfg.edges) == 6
    assert _route_count(cfg) == 2


def test_diamond_with_surrounding_statements():
    # a leading plain statement merges into the header's block
    cfg = check_against_oracle(
        "declare x; if (x > 0) output 1; else output 2; endif output x;"
    )
    assert len(cfg.real_blocks) == 6
    assert _route_count(cfg) == 2


def test_if_without_else():
    cfg = check_against_oracle("if (x > 0) output 1; endif output x;")
    assert _route_count(cfg) == 2


def test_elseif_chain_routes():
    src = """
    if (x > 10) output 1;
    elseif (x > 5) output 2;
    else output 3;
    endif
    output 0;
    """
    cfg = check_against_oracle(src)
    assert _route_count(cfg) == 3


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
    assert _route_count(cfg) == 4


def test_for_loop_matches_while_shape():
    cfg = check_against_oracle("for i = 1 to 10 output i; endfor output 0;")
    assert _route_count(cfg) == 2


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


def _route_count(cfg):
    total = [0]

    def dfs(node, seen):
        if node == cfg.exit_id:
            total[0] += 1
            return
        for nxt in cfg.successors(node):
            if nxt not in seen:
                dfs(nxt, seen | {nxt})

    dfs(cfg.entry_id, {cfg.entry_id})
    return total[0]


# -- leaders -------------------------------------------------------------------


def test_leaders_after_control_end():
    # Selection, body, end, trailing statement: all four start blocks
    statements = normalize_source("if (x > 1) output 1; endif output 2;")
    assert find_leaders(statements) == [0, 1, 2, 3]


def test_leaders_straight_line():
    statements = normalize_source("x = 1; y = 2; output x;")
    assert find_leaders(statements) == [0]


def test_build_blocks_validation():
    statements = normalize_source("x = 1; output x;")
    with pytest.raises(ValueError, match="start at ordinal 0"):
        build_blocks(statements, [1])
    with pytest.raises(ValueError, match="sorted"):
        build_blocks(statements, [0, 1, 1])
    with pytest.raises(ValueError, match="past the end"):
        build_blocks(statements, [0, 5])


# -- generated corpus ----------------------------------------------------------


def test_oracle_agreement_on_generated_corpus():
    for seed in range(150):
        source = generate_program(seed, SizeSpec(statements=10 + seed % 25))
        check_against_oracle(source)


def test_one_step_build_matches_the_three_public_steps():
    for seed in range(150):
        statements = normalize_source(
            generate_program(seed, SizeSpec(statements=10 + seed % 25))
        )
        one_step = cfg_from_statements(statements)
        three_steps = build_cfg(
            build_blocks(statements, find_leaders(statements)), statements
        )
        assert one_step.blocks == three_steps.blocks
        assert one_step.edges == three_steps.edges
        assert (one_step.entry_id, one_step.exit_id) == (
            three_steps.entry_id,
            three_steps.exit_id,
        )
        for block in one_step.blocks:
            assert one_step.successors(block.id) == three_steps.successors(block.id)


# -- direct graph construction --------------------------------------------------


def _graph(edges, n, exit_id):
    blocks = tuple(BasicBlock(i, ()) for i in range(n))
    return ControlFlowGraph(
        blocks=blocks, edges=frozenset(edges), entry_id=0, exit_id=exit_id
    )


def test_direct_graph_unreachable_flagging():
    # block 2 dangles off the walkable component
    cfg = _graph({(0, 1), (0, 2), (1, 3)}, 4, 3)
    assert "unreachable_ids" not in vars(cfg)  # computed on first read
    assert cfg.unreachable_ids == frozenset({2})
    assert cfg.unreachable_ids is cfg.unreachable_ids


def test_direct_graph_rejects_exit_successors():
    with pytest.raises(ValueError, match="exit block"):
        _graph({(0, 1), (1, 0)}, 2, 1)


def test_direct_graph_rejects_gap_ids():
    blocks = (BasicBlock(0, ()), BasicBlock(2, ()))
    with pytest.raises(ValueError, match="contiguous"):
        ControlFlowGraph(blocks=blocks, edges=frozenset(), entry_id=0, exit_id=0)


def test_direct_graph_rejects_dangling_edge():
    with pytest.raises(ValueError, match="missing block"):
        _graph({(0, 5)}, 2, 1)


def test_successors_sorted():
    cfg = _graph({(0, 3), (0, 1), (0, 2)}, 4, 3)
    assert cfg.successors(0) == (1, 2, 3)


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
