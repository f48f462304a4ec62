"""MiniProc source frontend: tokenize, parse, normalize.

MiniProc is a small imperative language. Plain statements end with `;`:

    declare x, y;
    x = 2 * y + 1;
    call log(x, "tag");
    output x;

Control constructs are keyword-delimited, conditions in parentheses:

    if (x > 0) ... elseif (x < 0) ... else ... endif
    while (x < 10) ... endwhile
    for i = 1 to n ... endfor
    case (x) when (1) ... when (2) ... endcase

Comments run from `#` to end of line. Keywords are case-insensitive.
Identifiers are case-sensitive. Files use the `.mp` extension.

Tokens, parse-tree nodes and normalized statements are plain tuples
(`Token`, `Statement` and `NormalizedStatement` are NamedTuples), which
are cheaper to build than frozen dataclasses. No token spans a line.
So `tokenize` scans line by line, and one classifier gives every
lexeme of every line its kind. Lines differ only in how they are split:
one compiled pattern splits an ASCII line, and a line that is not ASCII
splits its numbers and words by the rules of `str.isdigit`,
`str.isalpha` and `str.isalnum`, which no `re` class reproduces.
Expressions are parsed in one loop, not by recursion, and the
per-statement loop and assignments read the token list directly rather
than through the parser's helper methods.

Normalization abstracts away naming and values so that consistently
renamed programs come out byte-identical: identifiers introduced by
`declare` become `L-Var`, every other identifier becomes `G-Var`,
literals become `LIT`. Loop headers render as `Iterate <condition>`,
selection headers (`if`/`elseif`/`case`/`when`) as
`Selection <condition>`, a bare `else` as `Selection`. Construct-end
keywords stay in the statement stream so block boundaries remain
visible downstream.
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = frozenset(
    {
        "if", "elseif", "else", "endif",
        "while", "endwhile",
        "for", "to", "endfor",
        "case", "when", "endcase",
        "declare", "call", "output",
    }
)

_PUNCTUATION = frozenset({"(", ")", ",", ";"})

_CONSTRUCT_KEYWORDS = frozenset({"if", "while", "for", "case"})

# Deepest nesting of constructs and parentheses, counted together, that
# the parser accepts. Each level costs a few Python frames in the parser
# and one in normalize, so this stays well inside the recursion limit.
MAX_NESTING = 100

PLAIN_KINDS = frozenset({"assign", "declare", "call", "output"})


class MiniProcSyntaxError(ValueError):
    """Parse failure; carries the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Token(NamedTuple):
    kind: str  # keyword | identifier | literal | operator | punctuation
    lexeme: str
    line: int


class Statement(NamedTuple):
    """Parsed statement node.

    `tokens` holds the statement payload: all tokens except the trailing
    `;` for plain statements, the parenthesized condition for
    `if`/`elseif`/`while`/`case`/`when`, the `ident = expr to expr` span
    for `for`, the end keyword for end markers. `children` nests bodies;
    an `if` node's children are its then-body followed by any
    `elseif`/`else` nodes and the end marker, a `case` node's children
    are its `when` nodes and the end marker.
    """

    kind: str
    line: int
    end_line: int
    tokens: tuple[Token, ...] = ()
    children: tuple["Statement", ...] = ()


class NormalizedStatement(NamedTuple):
    """One abstracted statement with its position in the flat sequence.

    kind: plain | control | control-end
    control_role: none | loop-header | selection-header | selection-alt
                  | construct-end
    condition is the normalized condition text; empty for plain
    statements, end markers, and bare `else`.
    """

    text: str
    kind: str
    control_role: str
    ordinal: int
    condition: str = ""


# One lexeme per match, tried in order: a string closed on its line, an
# ASCII number, an ASCII word, a comment (rest of the line), a
# two-character operator, then any single character that is not blank.
_LEXEME = re.compile(
    r'"[^"]*"|\d+(?:\.\d+)?|[A-Za-z_]\w*|#.*|==|!=|<=|>=|&&|\|\||[^ \t\r]',
    re.ASCII,
)


def _lexeme_kind(lexeme: str) -> tuple[str, str]:
    """(kind, lexeme as emitted) for one lexeme of any line."""
    c = lexeme[0]
    if c == '"':
        # a lone quote is an unterminated string, left for the parser
        return ("literal" if len(lexeme) > 1 else "operator"), lexeme
    if c.isdigit():
        return "literal", lexeme
    if c.isalpha() or c == "_":
        word = lexeme.lower()
        if word in KEYWORDS:
            return "keyword", word
        return "identifier", lexeme
    if c in _PUNCTUATION:
        return "punctuation", lexeme
    return "operator", lexeme


def _unicode_lexemes(text: str) -> list[str]:
    """The lexemes of one line that is not ASCII. Numbers and words
    are scanned with `str.isdigit`, `str.isalpha` and `str.isalnum`;
    every other lexeme is what `_LEXEME` matches where it starts."""
    lexemes = []
    match = _LEXEME.match
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r":
            i += 1
            continue
        j = i + 1
        if c.isdigit():
            while j < n and text[j].isdigit():
                j += 1
            if j < n - 1 and text[j] == "." and text[j + 1].isdigit():
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
        elif c.isalpha() or c == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
        else:
            j = match(text, i).end()
        lexemes.append(text[i:j])
        i = j
    return lexemes


_new_tuple = tuple.__new__


def tokenize(source: str) -> list[Token]:
    r"""Split source into tokens. Comments and whitespace vanish.

    Never raises: characters that fit nothing become single-character
    operator tokens and are left for the parser to reject.

    No token spans a line: strings and comments end at the line's end,
    and only `\n` advances the line number. So the source is split line
    by line, an ASCII line with one `_LEXEME.findall` and any other line
    with `_unicode_lexemes`, and `_lexeme_kind` classifies each distinct
    lexeme once per call, whichever line it came from. The two splits
    differ only in numbers and words: `\d` matches only decimal digits,
    not `²`, and `\w` also matches numerics such as `½`, which
    `str.isalpha` does not let start a word.
    """
    tokens: list[Token] = []
    append = tokens.append
    kinds: dict[str, tuple[str, str]] = {}
    findall = _LEXEME.findall
    for line, text in enumerate(source.split("\n"), 1):
        for lexeme in findall(text) if text.isascii() else _unicode_lexemes(text):
            known = kinds.get(lexeme)
            if known is None:
                if lexeme[0] == "#":
                    break  # a comment is always the line's last lexeme
                known = kinds[lexeme] = _lexeme_kind(lexeme)
            # tuple.__new__ skips the Python-level NamedTuple constructor
            append(_new_tuple(Token, (*known, line)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token plumbing ------------------------------------------------

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> Token:
        """The next token, which the caller has already peeked at."""
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expected(
        self, what: str, tok: Token | None, line: int | None = None
    ) -> MiniProcSyntaxError:
        """The error "expected `what`, got `tok`", where a `tok` of
        None is the end of input. It points at `line` if given, else at
        `tok`, else at the last token's line."""
        if tok is not None:
            got, at = repr(tok.lexeme), tok.line
        else:
            got, at = "end of input", self.tokens[-1].line if self.tokens else 1
        return MiniProcSyntaxError(f"expected {what}, got {got}", at if line is None else line)

    def _expect(self, kind: str, lexeme: str) -> Token:
        tok = self._peek()
        if tok is None or tok.kind != kind or tok.lexeme != lexeme:
            raise self._expected(repr(lexeme), tok)
        self.pos += 1
        return tok

    def _descend(self, tok: Token) -> None:
        """Enter one nesting level at `tok`; the caller leaves it with
        `self.depth -= 1` once the nested part is parsed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MiniProcSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok.line)

    def _at_keyword(self, *names: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "keyword" and tok.lexeme in names

    # -- expressions ---------------------------------------------------
    # expr    := unary (binop unary)*
    # unary   := ('!' | '-')* primary
    # primary := identifier | literal | '(' expr ')'
    # Only the shape is checked: normalization works on the token stream,
    # so no precedence tree is built and an expression is the contiguous
    # run of tokens it spans.

    _BINOPS = frozenset({"+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||"})

    def _expression(self) -> list[Token]:
        """Consume one expression in a single loop over the tokens.

        Each open parenthesis enters a nesting level through `_descend`
        and the matching `)` leaves it, so MAX_NESTING bounds
        parentheses without recursion.
        """
        tokens = self.tokens
        n = len(tokens)
        pos = start = self.pos
        outer = self.depth
        binops = self._BINOPS
        while True:
            # operand: unary operators, then a primary
            while pos < n and tokens[pos].kind == "operator" and tokens[pos].lexeme in ("!", "-"):
                pos += 1
            if pos == n:
                raise self._expected("expression", None)
            tok = tokens[pos]
            if tok.kind == "punctuation" and tok.lexeme == "(":
                self._descend(tok)
                pos += 1
                continue
            if tok.kind not in ("identifier", "literal"):
                raise self._expected("expression", tok)
            pos += 1
            # after an operand: a binary operator, a ')' closing an open
            # parenthesis, or the end of the expression
            while True:
                tok = tokens[pos] if pos < n else None
                if tok is not None and tok.kind == "operator" and tok.lexeme in binops:
                    pos += 1
                    break
                if self.depth == outer:
                    self.pos = pos
                    return tokens[start:pos]
                if tok is None or tok.kind != "punctuation" or tok.lexeme != ")":
                    raise self._expected("')'", tok)
                pos += 1
                self.depth -= 1

    def _paren_condition(self) -> list[Token]:
        open_tok = self._expect("punctuation", "(")
        inner = self._expression()
        close_tok = self._expect("punctuation", ")")
        return [open_tok, *inner, close_tok]

    # -- statements ----------------------------------------------------

    def parse_program(self) -> Statement:
        children = self._statements()
        tok = self._peek()
        if tok is not None:
            raise MiniProcSyntaxError(f"unexpected {tok.lexeme!r}", tok.line)
        if not children:
            raise MiniProcSyntaxError("empty program", 1)
        last = children[-1]
        return Statement("program", children[0].line, last.end_line, (), tuple(children))

    def _statements(self) -> list[Statement]:
        """Parse statements until end of input or a keyword that starts
        no statement: an end keyword, an alternative or `to`. Such a
        keyword closes an enclosing construct, whose parser checks it;
        at the top level `parse_program` rejects it. The token list is
        read directly: this loop runs once per statement."""
        out: list[Statement] = []
        tokens = self.tokens
        n = len(tokens)
        while self.pos < n:
            tok = tokens[self.pos]
            kind = tok.kind
            if kind == "identifier":
                out.append(self._assign())
                continue
            if kind != "keyword":
                raise MiniProcSyntaxError(f"unexpected {tok.lexeme!r}", tok.line)
            lexeme = tok.lexeme
            handler = self._HANDLERS.get(lexeme)
            if handler is None:
                return out
            if lexeme in _CONSTRUCT_KEYWORDS:
                self._descend(tok)
                out.append(handler(self))
                self.depth -= 1
            else:
                out.append(handler(self))
        return out

    def _semicolon(self) -> Token:
        return self._expect("punctuation", ";")

    def _ident(self) -> Token:
        tok = self._peek()
        if tok is None or tok.kind != "identifier":
            raise self._expected("identifier", tok)
        self.pos += 1
        return tok

    def _declare(self) -> Statement:
        kw = self._take()
        toks = [kw, self._ident()]
        while self._peek() is not None and self._peek().lexeme == ",":
            toks.append(self._take())
            toks.append(self._ident())
        end = self._semicolon()
        return Statement("declare", kw.line, end.line, tuple(toks))

    def _assign(self) -> Statement:
        """`name = expr;`, called at an identifier. Reads the token list
        directly: most statements are assignments."""
        tokens = self.tokens
        n = len(tokens)
        start = self.pos
        name = tokens[start]
        eq = tokens[start + 1] if start + 1 < n else None
        if eq is None or eq.lexeme != "=":
            raise self._expected("'='", eq, name.line)
        self.pos = start + 2
        self._expression()
        pos = self.pos
        end = tokens[pos] if pos < n else None
        if end is None or end.kind != "punctuation" or end.lexeme != ";":
            raise self._expected("';'", end)
        self.pos = pos + 1
        # name, `=` and the expression are one contiguous run
        return Statement("assign", name.line, end.line, tuple(tokens[start:pos]))

    def _call(self) -> Statement:
        kw = self._take()
        toks = [kw, self._ident(), self._expect("punctuation", "(")]
        if not (self._peek() is not None and self._peek().lexeme == ")"):
            toks.extend(self._expression())
            while self._peek() is not None and self._peek().lexeme == ",":
                toks.append(self._take())
                toks.extend(self._expression())
        toks.append(self._expect("punctuation", ")"))
        end = self._semicolon()
        return Statement("call", kw.line, end.line, tuple(toks))

    def _output(self) -> Statement:
        kw = self._take()
        toks = [kw]
        toks.extend(self._expression())
        end = self._semicolon()
        return Statement("output", kw.line, end.line, tuple(toks))

    def _close(self, kw: Token, tokens: list[Token], children: list[Statement]) -> Statement:
        """Take the end keyword of the construct `kw` opened and build
        its node: `tokens` is the header, `children` the body and
        alternatives, which gain the end marker."""
        kind = kw.lexeme
        closer = "end" + kind
        end = self._peek()
        if end is None or end.kind != "keyword" or end.lexeme != closer:
            raise MiniProcSyntaxError(
                f"{kind!r} opened here is never closed (expected {closer!r})", kw.line
            )
        self.pos += 1
        children.append(Statement("end-marker", end.line, end.line, (end,)))
        return Statement(kind, kw.line, end.line, tuple(tokens), tuple(children))

    def _alternative(self) -> Statement:
        """`elseif (cond) body`, `else body` or `when (cond) body`."""
        kw = self._take()
        cond = () if kw.lexeme == "else" else self._paren_condition()
        body = self._statements()
        last_line = body[-1].end_line if body else kw.line
        return Statement(kw.lexeme, kw.line, last_line, tuple(cond), tuple(body))

    def _if(self) -> Statement:
        kw = self._take()
        cond = self._paren_condition()
        children = self._statements()
        while self._at_keyword("elseif"):
            children.append(self._alternative())
        if self._at_keyword("else"):
            children.append(self._alternative())
        return self._close(kw, cond, children)

    def _while(self) -> Statement:
        kw = self._take()
        cond = self._paren_condition()
        return self._close(kw, cond, self._statements())

    def _for(self) -> Statement:
        kw = self._take()
        toks = [self._ident()]
        eq = self._peek()
        if eq is None or eq.lexeme != "=":
            raise self._expected("'='", eq, kw.line)
        toks.append(self._take())
        toks.extend(self._expression())
        to = self._peek()
        if to is None or to.kind != "keyword" or to.lexeme != "to":
            raise self._expected("'to'", to, kw.line)
        toks.append(self._take())
        toks.extend(self._expression())
        return self._close(kw, toks, self._statements())

    def _case(self) -> Statement:
        kw = self._take()
        cond = self._paren_condition()
        children: list[Statement] = []
        while self._at_keyword("when"):
            children.append(self._alternative())
        tok = self._peek()
        if tok is not None and not (tok.kind == "keyword" and tok.lexeme == "endcase"):
            raise self._expected("'when' or 'endcase'", tok)
        return self._close(kw, cond, children)

    # statement keyword -> handler, built once rather than per statement
    _HANDLERS = {
        "declare": _declare,
        "call": _call,
        "output": _output,
        "if": _if,
        "while": _while,
        "for": _for,
        "case": _case,
    }


def parse(tokens: list[Token]) -> Statement:
    """Parse a token stream into a program tree.

    Raises MiniProcSyntaxError (with a line number) on malformed
    statements, unbalanced constructs, nesting deeper than MAX_NESTING,
    or an empty program.
    """
    return _Parser(tokens).parse_program()


def _declared_names(program: Statement) -> frozenset[str]:
    names: set[str] = set()

    def walk(node: Statement) -> None:
        if node.kind == "declare":
            names.update(t.lexeme for t in node.tokens if t.kind == "identifier")
        for child in node.children:
            walk(child)

    walk(program)
    return frozenset(names)


def _abstract(tokens: tuple[Token, ...], local_names: frozenset[str]) -> str:
    parts = []
    for tok in tokens:
        if tok.kind == "identifier":
            parts.append("L-Var" if tok.lexeme in local_names else "G-Var")
        elif tok.kind == "literal":
            parts.append("LIT")
        else:
            parts.append(tok.lexeme)
    return " ".join(parts)


# control node kind -> (text prefix, control role)
_CONTROL = {
    "while": ("Iterate", "loop-header"),
    "for": ("Iterate", "loop-header"),
    "if": ("Selection", "selection-header"),
    "case": ("Selection", "selection-header"),
    "elseif": ("Selection", "selection-alt"),
    "when": ("Selection", "selection-alt"),
}


def normalize(program: Statement) -> list[NormalizedStatement]:
    """Flatten a program tree into the abstracted statement sequence.

    Local/global classification uses the program-wide set of declared
    names: a name declared anywhere is `L-Var` everywhere. Ordinals are
    contiguous from 0 in source order.
    """
    local_names = _declared_names(program)
    out: list[NormalizedStatement] = []
    append = out.append

    def visit(nodes: tuple[Statement, ...]) -> None:
        for node in nodes:
            kind = node.kind
            if kind in PLAIN_KINDS:
                append(NormalizedStatement(
                    _abstract(node.tokens, local_names), "plain", "none", len(out)
                ))
            elif kind == "end-marker":
                append(NormalizedStatement(
                    node.tokens[0].lexeme, "control-end", "construct-end", len(out)
                ))
            elif kind == "else":
                append(NormalizedStatement("Selection", "control", "selection-alt", len(out)))
                visit(node.children)
            elif kind in _CONTROL:
                prefix, role = _CONTROL[kind]
                cond = _abstract(node.tokens, local_names)
                append(NormalizedStatement(f"{prefix} {cond}", "control", role, len(out), cond))
                visit(node.children)
            else:
                raise ValueError(f"unexpected node kind {kind!r}")

    visit(program.children)
    return out


def normalize_source(source: str) -> list[NormalizedStatement]:
    """tokenize + parse + normalize in one step."""
    return normalize(parse(tokenize(source)))
