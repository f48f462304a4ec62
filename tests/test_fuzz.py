"""Fuzzing for tracebacks: malformed sources and corrupt index files
must end in a MiniProcSyntaxError or a CLI exit code, never in an
uncaught exception.

Example counts are bounded so the module adds only a few seconds to
tier-1; Hypothesis's own example generation stalls under pytest at a
few thousand examples of the soup strategy.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfgprint.cli import main
from cfgprint.config import RunConfig
from cfgprint.frontend import KEYWORDS, MAX_NESTING, MiniProcSyntaxError
from cfgprint.pipeline import run_pipeline

# -- token soup and nesting ---------------------------------------------------------

_VOCABULARY = sorted(KEYWORDS) + [
    "==", "!=", "<=", ">=", "&&", "||", "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "(", ")", ",", ";", "x", "y", "total", "report", "0", "1", "42", '"s"', "\n",
]

_SOUP = st.lists(st.sampled_from(_VOCABULARY), max_size=60).map(" ".join)


def parses_or_rejects(source):
    """run_pipeline returns or raises MiniProcSyntaxError, nothing else."""
    try:
        run_pipeline(source, "fuzz", RunConfig(max_paths=200))
    except MiniProcSyntaxError:
        pass


@settings(max_examples=300, deadline=None)
@given(source=_SOUP)
def test_token_soup_parses_or_raises_syntax_error(source):
    parses_or_rejects(source)


_CONSTRUCTS = {
    "if": ("if (x > 0)\n", "endif\n"),
    "while": ("while (x < 9)\n", "endwhile\n"),
    "for": ("for i = 1 to 3\n", "endfor\n"),
    "case": ("case (x)\nwhen (1)\n", "endcase\n"),
}


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(_CONSTRUCTS)), max_size=MAX_NESTING + 10),
    parens=st.integers(min_value=0, max_value=MAX_NESTING + 10),
    drop=st.one_of(st.none(), st.integers(min_value=0)),
)
def test_random_nesting_parses_or_raises_syntax_error(kinds, parens, drop):
    """Constructs, then parentheses inside the innermost statement,
    nested up to past MAX_NESTING, with one closer optionally dropped."""
    openers = [_CONSTRUCTS[k][0] for k in kinds] + ["x = " + "(" * parens + "1"]
    closers = [")"] * parens + [";\n"] + [_CONSTRUCTS[k][1] for k in reversed(kinds)]
    if drop is not None:
        del closers[drop % len(closers)]
    source = "declare x;\n" + "".join(openers) + "".join(closers)
    if len(kinds) + parens > MAX_NESTING:
        with pytest.raises(MiniProcSyntaxError, match="nesting deeper than"):
            run_pipeline(source, "deep", RunConfig())
    else:
        parses_or_rejects(source)


# -- the CLI in-process ---------------------------------------------------------------


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), f"argv={argv} exit {code}\nstderr={err.getvalue()}"
    return code


PROGRAM = """\
declare total, step;
total = 0;
step = 1;
while (total < 100)
  if (step > 5)
    total = total + step;
  else
    total = total + 1;
  endif
  step = step + 1;
endwhile
output total;
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# PROGRAM with one statement replaced by a few soup tokens, and programs
# stitched from valid snippets: these often parse, so compare also gets
# as far as scoring and reporting
_SPLICED = st.lists(st.sampled_from(_VOCABULARY), max_size=6).map(
    lambda tokens: PROGRAM.replace("step = step + 1;", " ".join(tokens))
)
_SNIPPETS = [
    "x = x + 1;", "output x;", "call f(x, 2);", "if (x > 1)\nx = 2;\nendif",
    "if (x < 3)\nx = 1;\nelse\noutput x;\nendif", "while (x < 9)\nx = x * 2;\nendwhile",
    "for i = 1 to 4\noutput i;\nendfor", "case (x)\nwhen (1)\nx = 0;\nendcase",
]
_STITCHED = st.lists(st.sampled_from(_SNIPPETS), max_size=10).map(
    lambda parts: "declare x;\n" + "\n".join(parts) + "\n"
)
_SOURCES = st.one_of(_SOUP, st.text(max_size=80), _SPLICED, _STITCHED)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(left=_SOURCES, right=_SOURCES, as_json=st.booleans())
def test_compare_on_fuzzed_sources_never_raises(workdir, left, right, as_json):
    (workdir / "left.mp").write_text(left, encoding="utf-8")
    (workdir / "right.mp").write_text(right, encoding="utf-8")
    argv = ["compare", workdir / "left.mp", workdir / "right.mp"]
    run_main(*argv, *(["--json"] if as_json else []))


@pytest.fixture(scope="module")
def index_lines(workdir):
    """A small valid index's lines: header plus four records."""
    corpus = workdir / "corpus"
    corpus.mkdir()
    (corpus / "a.mp").write_text(PROGRAM)
    (corpus / "b.mp").write_text(PROGRAM.replace("total", "acc").replace("5", "7"))
    (corpus / "c.mp").write_text(
        "declare x;\nfor i = 1 to 4\nif (x > i)\nx = 2;\nendif\nendfor\noutput x;\n"
    )
    (corpus / "tiny.mp").write_text("output 1;\n")
    assert run_main("index", corpus, "-o", workdir / "base.cdx") == 0
    return (workdir / "base.cdx").read_text().splitlines()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def corrupted(draw, lines):
    """(index text, whether loading must fail): the index with one line
    corrupted in one of seven ways."""
    lines = list(lines)
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    how = draw(st.sampled_from(
        ["truncate", "wrong_type", "non_string_id", "low_path_count", "shuffle", "duplicate_fp",
         "duplicate_record"]
    ))
    if how in ("non_string_id", "low_path_count"):
        i = draw(st.integers(min_value=1, max_value=len(lines) - 1))
        row = json.loads(lines[i])
        if how == "non_string_id":
            # a record's id or path as any JSON value but a string
            row[draw(st.sampled_from(["program_id", "source_path"]))] = draw(
                _JSON_VALUES.filter(lambda value: not isinstance(value, str))
            )
        else:
            # fewer paths than distinct fingerprints, negative included
            row["path_count"] = draw(st.integers(max_value=len(row["fingerprints"]) - 1))
        lines[i] = json.dumps(row)
        return "\n".join(lines) + "\n", True
    row = json.loads(lines[i])
    if how == "truncate":
        lines[i] = lines[i][: draw(st.integers(min_value=0, max_value=len(lines[i]) - 1))]
    elif how == "wrong_type":
        row[draw(st.sampled_from(sorted(row)))] = draw(_JSON_VALUES)
        lines[i] = json.dumps(row)
    elif how in ("shuffle", "duplicate_fp") and row.get("fingerprints"):
        fps = row["fingerprints"]
        if how == "shuffle":
            random.Random(draw(st.integers())).shuffle(fps)
        else:
            fps.insert(draw(st.integers(0, len(fps))), fps[draw(st.integers(0, len(fps) - 1))])
        lines[i] = json.dumps(row)
    else:
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), lines[max(i, 1)])
    return "\n".join(lines) + "\n", False


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["query", "cluster"]))
def test_query_and_cluster_on_corrupt_index_never_raise(workdir, index_lines, data, command):
    cdx = workdir / "corrupt.cdx"
    text, must_fail = data.draw(corrupted(index_lines))
    cdx.write_text(text, encoding="utf-8")
    (workdir / "probe.mp").write_text(PROGRAM)
    if command == "query":
        code = run_main("query", workdir / "probe.mp", cdx, "--json")
    else:
        code = run_main("cluster", cdx, "--json")
    if must_fail:
        assert code == 1


# -- running out of memory ------------------------------------------------------------

# 40 sequential if/else blocks: 2**40 paths, so the walk stops only at
# the cap, and 5 000 000 kept paths need several times the child's limit
_BRANCHY = "declare x;\n" + "".join(
    f"if (x > {i})\nx = x + {i};\nelse\nx = x - {i};\nendif\n" for i in range(40)
)
_CHILD_MEMORY = 768 * 2**20


def test_out_of_memory_exits_one_with_a_message(tmp_path):
    resource = pytest.importorskip("resource")
    program = tmp_path / "branchy.mp"
    program.write_text(_BRANCHY, encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        # one BLAS thread keeps numpy's import small on many-core machines
        "OPENBLAS_NUM_THREADS": "1",
    }

    def limit_child_memory():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_MEMORY, _CHILD_MEMORY))

    proc = subprocess.run(
        [sys.executable, "-m", "cfgprint.cli", "compare", str(program), str(program),
         "--max-paths", "5000000"],
        env=env, capture_output=True, text=True, timeout=300, preexec_fn=limit_child_memory,
    )
    assert proc.returncode == 1, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
