"""Tokenizer, parser, and normalization behavior."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgprint.cloneforge import build_corpus
from cfgprint.frontend import (
    _PUNCTUATION,
    KEYWORDS,
    MAX_NESTING,
    MiniProcSyntaxError,
    NormalizedStatement,
    Statement,
    Token,
    normalize,
    normalize_source,
    parse,
    tokenize,
)


def _kinds(source):
    return [(t.kind, t.lexeme) for t in tokenize(source)]


def _texts(source):
    return [s.text for s in normalize_source(source)]


# -- tokenizer ---------------------------------------------------------------


def test_tokenize_keywords_case_insensitive():
    assert _kinds("IF (a > 2)") == [
        ("keyword", "if"),
        ("punctuation", "("),
        ("identifier", "a"),
        ("operator", ">"),
        ("literal", "2"),
        ("punctuation", ")"),
    ]
    assert _kinds("WhIlE EndWhile") == [("keyword", "while"), ("keyword", "endwhile")]


def test_tokenize_identifiers_case_sensitive():
    toks = tokenize("Total total TOTAL_x")
    assert [t.lexeme for t in toks] == ["Total", "total", "TOTAL_x"]
    assert all(t.kind == "identifier" for t in toks)


def test_tokenize_numbers_and_strings():
    assert _kinds('x = 3.25 + "lit 42";') == [
        ("identifier", "x"),
        ("operator", "="),
        ("literal", "3.25"),
        ("operator", "+"),
        ("literal", '"lit 42"'),
        ("punctuation", ";"),
    ]


def test_tokenize_comments_vanish_and_lines_advance():
    toks = tokenize("x = 1; # trailing\n# whole line\ny = 2;")
    assert [t.lexeme for t in toks] == ["x", "=", "1", ";", "y", "=", "2", ";"]
    assert toks[0].line == 1
    assert toks[4].line == 3


def test_tokenize_two_char_operators_win():
    ops = [t.lexeme for t in tokenize("a <= b >= c == d != e && f || g")]
    assert ops == ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e", "&&", "f", "||", "g"]


def test_tokenize_never_raises_on_junk():
    toks = tokenize("x @ $ `")
    assert [t.kind for t in toks] == ["identifier", "operator", "operator", "operator"]


def test_tokenize_unterminated_string_left_for_parser():
    toks = tokenize('x = "oops\ny = 1;')
    assert ("operator", '"') in [(t.kind, t.lexeme) for t in toks]
    with pytest.raises(MiniProcSyntaxError):
        parse(tokenize('x = "oops;'))


def test_token_is_an_immutable_named_triple():
    tok = Token("keyword", "if", 1)
    assert Token._fields == ("kind", "lexeme", "line")
    assert repr(tok) == "Token(kind='keyword', lexeme='if', line=1)"
    with pytest.raises(AttributeError):
        tok.kind = "identifier"
    same = Token("keyword", "if", 1)
    assert tok == same and hash(tok) == hash(same)
    assert tok != Token("keyword", "if", 2)


# the oracle's own operator table, longest first so <= wins over <
_ORACLE_OPERATORS = (
    "==", "!=", "<=", ">=", "&&", "||", "+", "-", "*", "/", "%", "<", ">", "=", "!"
)


def tokenize_oracle(source):
    """The character-at-a-time tokenizer `tokenize` replaced, kept as
    the reference its output must equal on any input."""
    tokens = []
    line = 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j < n and source[j] == '"':
                tokens.append(Token("literal", source[i : j + 1], line))
                i = j + 1
                continue
            tokens.append(Token("operator", c, line))
            i += 1
            continue
        if c.isdigit():
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            if j < n - 1 and source[j] == "." and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            tokens.append(Token("literal", source[i:j], line))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word.lower() in KEYWORDS:
                tokens.append(Token("keyword", word.lower(), line))
            else:
                tokens.append(Token("identifier", word, line))
            i = j
            continue
        if c in _PUNCTUATION:
            tokens.append(Token("punctuation", c, line))
            i += 1
            continue
        for op in _ORACLE_OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("operator", op, line))
                i += len(op)
                break
        else:
            tokens.append(Token("operator", c, line))
            i += 1
    return tokens


def _triples(tokens):
    return [(t.kind, t.lexeme, t.line) for t in tokens]


def _lexemes(node):
    return " ".join(t.lexeme for t in node.tokens)


# every operator and punctuation character, quotes, comments, blanks
# that are and are not skipped, and characters `str.isdigit`,
# `str.isalpha` and `str.isalnum` classify beyond ASCII
_SOURCE_PIECES = st.sampled_from(
    list("+-*/%<>=!&|(),;\"#._ \t\r\x0b\x0c\n")
    + list("0123456789aZ_")
    + ["x", "If", "ENDIF", "declare", "1.5", "2.", ".7", "==", "<=", "||", '"s"']
    + list("éß²٣½Ⅻ\u00a0")
)


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(_SOURCE_PIECES, max_size=40))
def test_tokenize_matches_character_oracle(pieces):
    source = "".join(pieces)
    assert _triples(tokenize(source)) == _triples(tokenize_oracle(source))


# a string cannot span a line: runs of quotes and newlines, which the
# draws above rarely bring together
@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(st.sampled_from(['"', "\n", "x", " ", "#", "1", ";"]), max_size=12))
def test_tokenize_matches_character_oracle_across_quoted_lines(pieces):
    source = "".join(pieces)
    assert _triples(tokenize(source)) == _triples(tokenize_oracle(source))


def test_tokenize_matches_character_oracle_on_corpus(tmp_path):
    build_corpus(tmp_path, 20, 20, seed=1)
    programs = sorted(tmp_path.glob("*.mp"))
    assert programs
    for path in programs:
        source = path.read_text(encoding="utf-8")
        assert _triples(tokenize(source)) == _triples(tokenize_oracle(source)), path.name


def test_tokenize_non_ascii_line_keeps_character_rules():
    assert _kinds("café = ²3 + ½;\nx = 1;") == [
        ("identifier", "café"),
        ("operator", "="),
        ("literal", "²3"),
        ("operator", "+"),
        ("operator", "½"),
        ("punctuation", ";"),
        ("identifier", "x"),
        ("operator", "="),
        ("literal", "1"),
        ("punctuation", ";"),
    ]


@pytest.mark.parametrize(
    "source, expected",
    [
        # a quote left open at a line's end does not pair with one on the next
        (
            'a "\n" b',
            [("identifier", "a", 1), ("operator", '"', 1),
             ("operator", '"', 2), ("identifier", "b", 2)],
        ),
        # `\r` is blank, and a comment ends at the `\n` after it
        (
            'x = 1; # note "\r\ny = "s";\r\n# end\r\n',
            [("identifier", "x", 1), ("operator", "=", 1), ("literal", "1", 1),
             ("punctuation", ";", 1), ("identifier", "y", 2), ("operator", "=", 2),
             ("literal", '"s"', 2), ("punctuation", ";", 2)],
        ),
        # one line that is not ASCII sends the whole source line by line
        (
            'x = "q\ny = ½; # é\n"z" == 2',
            [("identifier", "x", 1), ("operator", "=", 1), ("operator", '"', 1),
             ("identifier", "q", 1), ("identifier", "y", 2), ("operator", "=", 2),
             ("operator", "½", 2), ("punctuation", ";", 2), ("literal", '"z"', 3),
             ("operator", "==", 3), ("literal", "2", 3)],
        ),
    ],
    ids=["open-quote-per-line", "crlf-and-comment", "one-non-ascii-line"],
)
def test_tokenize_line_boundaries(source, expected):
    assert _triples(tokenize(source)) == expected == _triples(tokenize_oracle(source))


# -- parser ------------------------------------------------------------------


def test_statement_contract():
    tok = Token("identifier", "x", 2)
    node = Statement("assign", 2, 3, (tok,))
    assert Statement._fields == ("kind", "line", "end_line", "tokens", "children")
    assert Statement._field_defaults == {"tokens": (), "children": ()}
    bare = Statement("program", 1, 1)
    assert (bare.tokens, bare.children) == ((), ())
    # the repr the frozen dataclass this type replaced gave
    assert repr(node) == (
        "Statement(kind='assign', line=2, end_line=3, "
        "tokens=(Token(kind='identifier', lexeme='x', line=2),), children=())"
    )
    assert repr(bare) == "Statement(kind='program', line=1, end_line=1, tokens=(), children=())"
    for name in Statement._fields:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    plain = ("assign", 2, 3, (tok,), ())
    assert node == plain and hash(node) == hash(plain)
    assert node == Statement(kind="assign", line=2, end_line=3, tokens=(tok,))
    assert node != Statement("assign", 2, 4, (tok,))
    cond = parse(tokenize("while (x < 10) x = x + 1; endwhile")).children[0]
    assert _lexemes(cond) == "( x < 10 )"
    assert _lexemes(bare) == ""
    # parsed nodes are the same type as constructed ones
    assert type(cond) is Statement and type(cond.children[0]) is Statement


def test_normalized_statement_contract():
    header = NormalizedStatement("Selection G-Var", "control", "selection-header", 0, "G-Var")
    plain = NormalizedStatement("x", "plain", "none", 1)
    assert NormalizedStatement._fields == ("text", "kind", "control_role", "ordinal", "condition")
    assert NormalizedStatement._field_defaults == {"condition": ""}
    assert plain.condition == ""
    assert repr(header) == (
        "NormalizedStatement(text='Selection G-Var', kind='control', "
        "control_role='selection-header', ordinal=0, condition='G-Var')"
    )
    assert repr(plain) == (
        "NormalizedStatement(text='x', kind='plain', control_role='none', "
        "ordinal=1, condition='')"
    )
    for name in NormalizedStatement._fields:
        with pytest.raises(AttributeError):
            setattr(plain, name, None)
    assert plain == ("x", "plain", "none", 1, "") and hash(plain) == hash(("x", "plain", "none", 1, ""))
    assert plain != NormalizedStatement("x", "plain", "none", 2)
    for statement in normalize_source("if (x) output 1; endif"):
        assert type(statement) is NormalizedStatement




def test_parse_plain_statements():
    program = parse(tokenize('declare x, y; x = 1; call f(x, "s"); output x + y;'))
    assert [c.kind for c in program.children] == ["declare", "assign", "call", "output"]


def test_parse_if_structure():
    src = """
    if (x > 0)
      y = 1;
    elseif (x < 0)
      y = 2;
    else
      y = 3;
    endif
    """
    node = parse(tokenize(src)).children[0]
    assert node.kind == "if"
    assert [c.kind for c in node.children] == ["assign", "elseif", "else", "end-marker"]
    assert _lexemes(node) == "( x > 0 )"


def test_parse_nested_constructs():
    src = """
    while (i < 10)
      if (i % 2 == 0)
        output i;
      endif
      i = i + 1;
    endwhile
    """
    loop = parse(tokenize(src)).children[0]
    assert loop.kind == "while"
    assert [c.kind for c in loop.children] == ["if", "assign", "end-marker"]


def test_parse_for_and_case():
    src = """
    for i = 1 to n * 2
      output i;
    endfor
    case (x)
    when (1)
      output 1;
    when (2)
      output 2;
    endcase
    """
    program = parse(tokenize(src))
    loop, sel = program.children
    assert loop.kind == "for"
    assert _lexemes(loop) == "i = 1 to n * 2"
    assert [c.kind for c in sel.children] == ["when", "when", "end-marker"]


def test_parse_error_carries_line():
    with pytest.raises(MiniProcSyntaxError) as info:
        parse(tokenize("x = 1;\ny = ;"))
    assert info.value.line == 2
    assert "line 2:" in str(info.value)


@pytest.mark.parametrize(
    "source, message, line",
    [
        ("x = ;", "expected expression, got ';'", 1),
        ("x = 1 +;", "expected expression, got ';'", 1),
        ("x = (1 + 2;", "expected ')', got ';'", 1),
        ("x = -;", "expected expression, got ';'", 1),
        ("output (a;", "expected ')', got ';'", 1),
        ("call f(1,);", "expected expression, got ')'", 1),
        ("x = 1 2;", "expected ';', got '2'", 1),
        ("declare a;\nx = a +", "expected expression, got end of input", 2),
        ("declare a;\nx = (a\n", "expected ')', got end of input", 2),
        ("x = (1 +\n\n2));", "expected ';', got ')'", 3),
    ],
)
def test_parse_expression_errors_keep_message_and_line(source, message, line):
    with pytest.raises(MiniProcSyntaxError) as info:
        parse(tokenize(source))
    assert str(info.value) == f"line {line}: {message}"
    assert info.value.line == line


def test_parse_unclosed_construct_points_at_opener():
    with pytest.raises(MiniProcSyntaxError) as info:
        parse(tokenize("x = 1;\nif (x > 0)\n  y = 2;\n"))
    assert info.value.line == 2
    assert "never closed" in str(info.value)


def test_parse_empty_program_rejected():
    with pytest.raises(MiniProcSyntaxError, match="empty program"):
        parse(tokenize("# only a comment\n"))


def test_parse_stray_end_keyword_rejected():
    with pytest.raises(MiniProcSyntaxError, match="unexpected"):
        parse(tokenize("x = 1; endif"))


def test_parse_missing_semicolon():
    with pytest.raises(MiniProcSyntaxError, match="expected ';'"):
        parse(tokenize("x = 1 y = 2;"))


def test_parse_case_rejects_statement_before_first_when():
    with pytest.raises(MiniProcSyntaxError, match="expected 'when' or 'endcase'"):
        parse(tokenize("case (x) output 1; when (1) output 2; endcase"))


def _nested_ifs(depth):
    return "declare x;\n" + "if (x > 0)\n" * depth + "x = 1;\n" + "endif\n" * depth


def test_parse_accepts_nesting_up_to_the_limit():
    program = parse(tokenize(_nested_ifs(MAX_NESTING)))
    assert len(normalize(program)) == 2 + 2 * MAX_NESTING


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400, 5000])
def test_parse_rejects_deep_construct_nesting(depth):
    with pytest.raises(MiniProcSyntaxError, match="nesting deeper than") as info:
        parse(tokenize(_nested_ifs(depth)))
    assert info.value.line == MAX_NESTING + 2  # the first if past the limit


def test_parse_rejects_deep_parentheses():
    deep = "x = " + "(" * 400 + "1" + ")" * 400 + ";"
    with pytest.raises(MiniProcSyntaxError, match="nesting deeper than"):
        parse(tokenize(deep))
    shallow = "x = " + "(" * 50 + "1" + ")" * 50 + ";"
    assert len(parse(tokenize(shallow)).children[0].tokens) == 2 + 101


def test_parse_long_unary_chain():
    program = parse(tokenize("x = " + "- " * 5000 + "1;"))
    assert len(program.children[0].tokens) == 2 + 5001


# -- normalization -----------------------------------------------------------


def test_normalize_declared_vs_undeclared():
    assert _texts("declare x; x = 5;") == ["declare L-Var", "L-Var = LIT"]
    assert _texts("y = 5;") == ["G-Var = LIT"]


def test_normalize_declare_is_program_wide():
    # use before the declare still counts as local
    texts = _texts("x = 1; declare x;")
    assert texts == ["L-Var = LIT", "declare L-Var"]


def test_normalize_loop_and_selection_headers():
    texts = _texts("while (count > 10) output count; endwhile")
    assert texts == ["Iterate ( G-Var > LIT )", "output G-Var", "endwhile"]
    texts = _texts("if (a == b) output a; endif")
    assert texts == ["Selection ( G-Var == G-Var )", "output G-Var", "endif"]


def test_normalize_for_header_is_iterate():
    texts = _texts("for i = 1 to 10 output i; endfor")
    assert texts == ["Iterate G-Var = LIT to LIT", "output G-Var", "endfor"]


def test_normalize_else_is_bare_selection():
    texts = _texts("if (x > 1) output 1; else output 2; endif")
    assert texts[2] == "Selection"
    statements = normalize_source("if (x > 1) output 1; else output 2; endif")
    assert statements[2].control_role == "selection-alt"
    assert statements[2].condition == ""


def test_normalize_roles_and_ordinals():
    statements = normalize_source(
        "declare n; while (n < 3) if (n > 1) output n; endif n = n + 1; endwhile"
    )
    assert [s.ordinal for s in statements] == list(range(len(statements)))
    roles = [s.control_role for s in statements]
    assert roles == [
        "none",
        "loop-header",
        "selection-header",
        "none",
        "construct-end",
        "none",
        "construct-end",
    ]
    kinds = [s.kind for s in statements]
    assert kinds == ["plain", "control", "control", "plain", "control-end", "plain", "control-end"]


def test_normalize_operator_shape_is_preserved():
    assert _texts("x = a + b;") != _texts("x = a * b;")


def test_consistent_rename_is_invisible():
    a = "declare x, y; x = 1; while (x < y) x = x + 1; endwhile output x;"
    b = "declare u, v; u = 9; while (u < v) u = u + 4; endwhile output u;"
    assert _texts(a) == _texts(b)


def test_keyword_case_is_invisible():
    a = "DECLARE x; IF (x > 1) OUTPUT x; ENDIF"
    b = "declare x; if (x > 1) output x; endif"
    assert _texts(a) == _texts(b)


_IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in {"if", "elseif", "else", "endif", "while", "endwhile",
                        "for", "to", "endfor", "case", "when", "endcase",
                        "declare", "call", "output"}
)


@settings(max_examples=60)
@given(name=_IDENT, value=st.integers(min_value=0, max_value=10**6))
def test_normalize_any_assignment_shape(name, value):
    texts = _texts(f"declare {name}; {name} = {value};")
    assert texts == ["declare L-Var", "L-Var = LIT"]


@settings(max_examples=60)
@given(
    names=st.lists(_IDENT, min_size=2, max_size=5, unique=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rename_invariance_property(names, seed):
    """Renaming through any injective map leaves normalization alone."""
    import random

    base = names
    rng = random.Random(seed)
    renamed = [f"r{i}_{rng.randint(0, 99)}" for i in range(len(base))]
    src_a = _program_over(base)
    src_b = _program_over(renamed)
    assert _texts(src_a) == _texts(src_b)


def _program_over(names):
    first, rest = names[0], names[1:]
    lines = [f"declare {first};", f"{first} = 1;"]
    for n in rest:
        lines.append(f"{n} = {first} + 2;")
    lines.append(f"while ({first} < 5)")
    lines.append(f"  {first} = {first} + 1;")
    lines.append("endwhile")
    lines.append(f"output {first};")
    return "\n".join(lines)
