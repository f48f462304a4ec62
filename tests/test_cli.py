"""CLI behavior: subcommands, exit codes, report shapes, determinism.

Reports are validated against docs/report-schema.json so the schema
stays honest.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from cfgprint.cli import main
from cfgprint.index_store import load_index

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text()
)

CLONE_A = """\
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

# CLONE_A with every name changed and literals swapped
CLONE_B = """\
declare acc, k;
acc = 7;
k = 3;
while (acc < 40)
  if (k > 2)
    acc = acc + k;
  else
    acc = acc + 9;
  endif
  k = k + 8;
endwhile
output acc;
"""

UNRELATED = """\
declare a;
a = 1;
for i = 1 to 10
  case (i)
  when (1)
    a = a * 2;
  when (2)
    a = a - 1;
  endcase
endfor
output a;
call report(a, "done");
"""

TINY = "output 1;\n"  # single block, no path survives min_blocks=3

DEEP = "declare x;\n" + "if (x > 0)\n" * 400 + "x = 1;\n" + "endif\n" * 400


@pytest.fixture()
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "clone_a.mp").write_text(CLONE_A)
    (root / "clone_b.mp").write_text(CLONE_B)
    (root / "unrelated.mp").write_text(UNRELATED)
    return root


def run_cli(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, f"argv={argv}\nstdout={captured.out}\nstderr={captured.err}"
    return captured


def run_json(capsys, *argv, expect=0):
    captured = run_cli(capsys, *argv, "--json", expect=expect)
    report = json.loads(captured.out)
    jsonschema.validate(report, SCHEMA)
    return report


def _strip_timings(report):
    return {k: v for k, v in report.items() if k != "timings_ms"}


# -- index ----------------------------------------------------------------------


def test_index_builds_and_reports(corpus, tmp_path, capsys):
    out = tmp_path / "c.cdx"
    report = run_json(capsys, "index", str(corpus), "-o", str(out))
    assert report["report"] == "index"
    assert report["indexed"] == 3
    assert report["skipped"] == []
    assert report["unscoreable"] == []
    assert out.exists()


def test_index_skips_unparseable_files(corpus, tmp_path, capsys):
    (corpus / "broken.mp").write_text("while (x > 1) output x;")
    out = tmp_path / "c.cdx"
    report = run_json(capsys, "index", str(corpus), "-o", str(out))
    assert report["indexed"] == 3
    assert [s["program_id"] for s in report["skipped"]] == ["broken.mp"]
    assert "never closed" in report["skipped"][0]["error"]


def test_index_skips_non_utf8_files(corpus, tmp_path, capsys):
    (corpus / "latin1.mp").write_bytes("output \"caf\xe9\";\n".encode("latin-1"))
    out = tmp_path / "c.cdx"
    report = run_json(capsys, "index", str(corpus), "-o", str(out))
    assert report["indexed"] == 3
    assert [s["program_id"] for s in report["skipped"]] == ["latin1.mp"]
    assert "UTF-8" in report["skipped"][0]["error"]
    assert sorted(load_index(out).records) == ["clone_a.mp", "clone_b.mp", "unrelated.mp"]


def test_index_does_not_list_directories_named_like_programs(corpus, tmp_path, capsys):
    (corpus / "sub.mp").mkdir()
    (corpus / "sub.mp" / "inner.mp").write_text(CLONE_A)
    out = tmp_path / "c.cdx"
    report = run_json(capsys, "index", str(corpus), "-o", str(out))
    assert report["indexed"] == 4
    assert report["skipped"] == []
    assert "sub.mp" not in load_index(out).records
    assert "sub.mp/inner.mp" in load_index(out).records


def test_index_skips_unreadable_entries(corpus, tmp_path, capsys):
    (corpus / "broken.mp").symlink_to(tmp_path / "missing.mp")
    out = tmp_path / "c.cdx"
    report = run_json(capsys, "index", str(corpus), "-o", str(out))
    assert report["indexed"] == 3
    assert [s["program_id"] for s in report["skipped"]] == ["broken.mp"]
    assert "cannot read" in report["skipped"][0]["error"]
    assert sorted(load_index(out).records) == ["clone_a.mp", "clone_b.mp", "unrelated.mp"]


def test_index_skips_too_deeply_nested_files(corpus, tmp_path, capsys):
    (corpus / "deep.mp").write_text(DEEP)
    report = run_json(capsys, "index", str(corpus), "-o", str(tmp_path / "c.cdx"))
    assert report["indexed"] == 3
    assert [s["program_id"] for s in report["skipped"]] == ["deep.mp"]
    assert "nesting deeper than" in report["skipped"][0]["error"]


def test_index_missing_directory(tmp_path, capsys):
    run_cli(capsys, "index", str(tmp_path / "nope"), "-o", str(tmp_path / "x.cdx"),
            expect=2)


def test_index_reports_unscoreable_programs(tmp_path, capsys):
    root = tmp_path / "small"
    root.mkdir()
    (root / "tiny.mp").write_text(TINY)
    report = run_json(capsys, "index", str(root), "-o", str(tmp_path / "t.cdx"))
    assert report["indexed"] == 1
    assert report["unscoreable"] == ["tiny.mp"]


# -- query ----------------------------------------------------------------------


def _indexed(corpus, tmp_path, capsys):
    out = tmp_path / "c.cdx"
    run_json(capsys, "index", str(corpus), "-o", str(out))
    return out


def test_query_finds_renamed_clone(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    report = run_json(capsys, "query", str(corpus / "clone_a.mp"), str(idx),
                      "--alpha", "0", "--threshold", "0.5")
    assert report["probe_unscoreable"] is False
    assert [c["program_id"] for c in report["candidates"]] == ["clone_b.mp"]
    top = report["candidates"][0]
    assert top["score"] == 1.0
    assert top["grade"] == "identical"
    assert top["evidence"]
    for item in top["evidence"]:
        assert item["distance"] == 0


def test_query_name_collision_is_not_a_self_match(corpus, tmp_path, capsys, monkeypatch):
    # a probe that merely shares an indexed record's id (same file name,
    # different file) must still see that record in the results
    idx = _indexed(corpus, tmp_path, capsys)
    (tmp_path / "clone_a.mp").write_text(CLONE_B)
    monkeypatch.chdir(tmp_path)
    report = run_json(capsys, "query", "clone_a.mp", str(idx),
                      "--alpha", "0", "--threshold", "0.5")
    assert report["query_id"] == "probe:clone_a.mp"
    found = {c["program_id"] for c in report["candidates"]}
    assert found == {"clone_a.mp", "clone_b.mp"}


def test_query_text_and_json_agree(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    report = run_json(capsys, "query", str(corpus / "clone_a.mp"), str(idx))
    text = run_cli(capsys, "query", str(corpus / "clone_a.mp"), str(idx)).out
    for candidate in report["candidates"]:
        assert candidate["program_id"] in text
    assert f"{len(report['candidates'])} candidates" in text


def test_query_json_deterministic_modulo_timings(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    a = run_json(capsys, "query", str(corpus / "clone_a.mp"), str(idx))
    b = run_json(capsys, "query", str(corpus / "clone_a.mp"), str(idx))
    assert _strip_timings(a) == _strip_timings(b)


def test_query_alpha_defaults_from_index_header(corpus, tmp_path, capsys):
    out = tmp_path / "a2.cdx"
    run_json(capsys, "index", str(corpus), "-o", str(out), "--alpha", "2")
    report = run_json(capsys, "query", str(corpus / "clone_a.mp"), str(out))
    assert report["config"]["alpha"] == 2


def test_query_min_blocks_mismatch_fails(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    captured = run_cli(capsys, "query", str(corpus / "clone_a.mp"), str(idx),
                       "--min-blocks", "9", expect=1)
    assert "min_blocks" in captured.err


def test_query_unscoreable_probe_exits_zero(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    probe = tmp_path / "tiny.mp"
    probe.write_text(TINY)
    report = run_json(capsys, "query", str(probe), str(idx))
    assert report["probe_unscoreable"] is True
    assert report["candidates"] == []


def test_query_unparseable_probe_exits_one(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    probe = tmp_path / "bad.mp"
    probe.write_text("x = ;")
    captured = run_cli(capsys, "query", str(probe), str(idx), expect=1)
    assert captured.err.startswith("error: line 1:")


def test_query_corrupt_index_exits_one(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    idx.write_text("not json\n" + idx.read_text())
    run_cli(capsys, "query", str(corpus / "clone_a.mp"), str(idx), expect=1)


@pytest.mark.parametrize(
    "fingerprints",
    [["-00000000000000f"], [123], None, ["0000000000000002", "0000000000000001"]],
)
@pytest.mark.parametrize("command", ["query", "cluster"])
def test_corrupt_fingerprint_list_exits_one(corpus, tmp_path, capsys, command, fingerprints):
    idx = _indexed(corpus, tmp_path, capsys)
    lines = idx.read_text().splitlines()
    record = json.loads(lines[2])
    record["fingerprints"] = fingerprints
    lines[2] = json.dumps(record, sort_keys=True)
    idx.write_text("\n".join(lines) + "\n")
    argv = [str(idx)] if command == "cluster" else [str(corpus / "clone_a.mp"), str(idx)]
    captured = run_cli(capsys, command, *argv, expect=1)
    assert captured.err.startswith("error: ")
    assert "line 3:" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_query_too_deeply_nested_probe_exits_one(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    probe = tmp_path / "deep.mp"
    probe.write_text(DEEP)
    captured = run_cli(capsys, "query", str(probe), str(idx), expect=1)
    assert captured.err.startswith("error: line 102: nesting deeper than 100 levels")


def test_query_truncation_warnings(tmp_path, capsys):
    root = tmp_path / "wide"
    root.mkdir()
    # if-chains multiply routes; max-paths 4 forces truncation
    branchy = "".join(
        f"if (x > {i}) output {i}; endif\n" for i in range(6)
    ) + "output x;\n"
    (root / "branchy.mp").write_text(branchy)
    idx = tmp_path / "w.cdx"
    run_json(capsys, "index", str(root), "-o", str(idx), "--max-paths", "4")
    report = run_json(capsys, "query", str(root / "branchy.mp"), str(idx),
                      "--max-paths", "4", "--threshold", "0.0")
    assert "branchy.mp" in report["truncation_warnings"]


# -- compare --------------------------------------------------------------------


def test_compare_scored_report(corpus, capsys):
    report = run_json(capsys, "compare", str(corpus / "clone_a.mp"),
                      str(corpus / "clone_b.mp"), "--alpha", "0")
    assert report["verdict"] == "scored"
    assert report["containment"]["score"] == 1.0
    assert report["resemblance"]["score"] == 1.0
    assert report["grade"] == "identical"
    rows = len(report["row_fingerprints"])
    cols = len(report["col_fingerprints"])
    assert len(report["distance_matrix"]) == rows
    assert all(len(r) == cols for r in report["distance_matrix"])
    assert len(report["path_grades"]) == rows


def test_compare_dissimilar_programs(corpus, capsys):
    report = run_json(capsys, "compare", str(corpus / "clone_a.mp"),
                      str(corpus / "unrelated.mp"))
    assert report["verdict"] == "scored"
    assert report["containment"]["score"] < 1.0


def test_compare_unscoreable_exits_zero(corpus, tmp_path, capsys):
    tiny = tmp_path / "tiny.mp"
    tiny.write_text(TINY)
    report = run_json(capsys, "compare", str(corpus / "clone_a.mp"), str(tiny))
    assert report["verdict"] == "unscoreable"
    assert report["unscoreable"] == [str(tiny)]


def test_compare_missing_file_exits_two(corpus, tmp_path, capsys):
    run_cli(capsys, "compare", str(corpus / "clone_a.mp"),
            str(tmp_path / "ghost.mp"), expect=2)


def test_compare_too_deeply_nested_exits_one(corpus, tmp_path, capsys):
    deep = tmp_path / "deep.mp"
    deep.write_text(DEEP)
    captured = run_cli(capsys, "compare", str(corpus / "clone_a.mp"), str(deep), expect=1)
    assert captured.err == "error: line 102: nesting deeper than 100 levels\n"


# -- dot ------------------------------------------------------------------------


def test_dot_stdout_and_file_match(corpus, tmp_path, capsys):
    captured = run_cli(capsys, "dot", str(corpus / "clone_a.mp"))
    assert captured.out.startswith("digraph cfg {")
    out_file = tmp_path / "g.dot"
    run_cli(capsys, "dot", str(corpus / "clone_a.mp"), "-o", str(out_file))
    assert out_file.read_text() == captured.out


def test_dot_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.mp"
    bad.write_text("declare ;")
    run_cli(capsys, "dot", str(bad), expect=1)


# -- cluster ---------------------------------------------------------------------


def test_cluster_groups_clones(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    report = run_json(capsys, "cluster", str(idx), "--alpha", "0")
    assert report["report"] == "cluster"
    assert [sorted(g["members"]) for g in report["groups"]] == [
        ["clone_a.mp", "clone_b.mp"]
    ]
    assert report["groups"][0]["mean_score"] == 1.0


def test_cluster_empty_result_is_success(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    report = run_json(capsys, "cluster", str(idx), "--alpha", "0",
                      "--threshold", "1.0", "--mode", "resemblance")
    # resemblance 1.0 needs every path matched both ways; clones still pass
    assert [sorted(g["members"]) for g in report["groups"]] == [
        ["clone_a.mp", "clone_b.mp"]
    ]


@pytest.mark.parametrize("command", ["query", "cluster"])
def test_index_backed_commands_check_min_blocks_and_echo_max_paths(
    corpus, tmp_path, capsys, command
):
    idx = _indexed(corpus, tmp_path, capsys)
    argv = [str(idx)] if command == "cluster" else [str(corpus / "clone_a.mp"), str(idx)]
    captured = run_cli(capsys, command, *argv, "--min-blocks", "9", "--max-paths", "7",
                       expect=1)
    assert "--min-blocks 9 vs index min_blocks 3" in captured.err
    report = run_json(capsys, command, *argv, "--min-blocks", "3", "--max-paths", "7")
    assert (report["config"]["min_blocks"], report["config"]["max_paths"]) == (3, 7)
    run_cli(capsys, command, *argv, "--max-paths", "0", expect=1)


# -- flags and plumbing -------------------------------------------------------------


def test_jobs_flag_parity(corpus, tmp_path, capsys):
    seq = tmp_path / "seq.cdx"
    par = tmp_path / "par.cdx"
    run_json(capsys, "index", str(corpus), "-o", str(seq))
    run_json(capsys, "index", str(corpus), "-o", str(par), "--jobs", "2")
    assert seq.read_text().splitlines()[1:] == par.read_text().splitlines()[1:]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("dot", ["--alpha", "999"]),
        ("dot", ["--jobs", "-4"]),
        ("dot", ["--json"]),
        ("query", ["--jobs", "2"]),
        ("compare", ["--jobs", "-3"]),
        ("cluster", ["--jobs", "0"]),
    ],
)
def test_flags_a_subcommand_does_not_read_exit_two(corpus, tmp_path, capsys, command, flags):
    idx = _indexed(corpus, tmp_path, capsys)
    probe = str(corpus / "clone_a.mp")
    positional = {
        "dot": [probe],
        "query": [probe, str(idx)],
        "compare": [probe, str(corpus / "clone_b.mp")],
        "cluster": [str(idx)],
    }[command]
    captured = run_cli(capsys, command, *positional, *flags, expect=2)
    assert "unrecognized arguments" in captured.err


def test_jobs_env_fallback(corpus, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CFGPRINT_JOBS", "2")
    run_json(capsys, "index", str(corpus), "-o", str(tmp_path / "env.cdx"))
    monkeypatch.setenv("CFGPRINT_JOBS", "zero")
    run_cli(capsys, "index", str(corpus), "-o", str(tmp_path / "bad.cdx"), expect=2)
    monkeypatch.setenv("CFGPRINT_JOBS", "0")
    run_cli(capsys, "index", str(corpus), "-o", str(tmp_path / "bad2.cdx"), expect=2)


def test_invalid_flag_values(corpus, tmp_path, capsys):
    run_cli(capsys, "index", str(corpus), "-o", str(tmp_path / "x.cdx"),
            "--alpha", "-3", expect=1)
    run_cli(capsys, "index", str(corpus), "-o", str(tmp_path / "x.cdx"),
            "--threshold", "1.5", expect=1)
    run_cli(capsys, "index", str(corpus), "-o", str(tmp_path / "x.cdx"),
            "--max-paths", "0", expect=1)


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert main(["query"]) == 2  # missing positionals
    capsys.readouterr()
    assert main(["index", "--bogus"]) == 2
    capsys.readouterr()


def test_config_echoed_in_all_reports(corpus, tmp_path, capsys):
    idx = _indexed(corpus, tmp_path, capsys)
    for report in (
        run_json(capsys, "query", str(corpus / "clone_a.mp"), str(idx)),
        run_json(capsys, "compare", str(corpus / "clone_a.mp"), str(corpus / "clone_b.mp")),
        run_json(capsys, "cluster", str(idx)),
    ):
        config = report["config"]
        assert config["hash"] == "fnv1a64"
        assert config["normalization"] == "miniproc-1"
        assert config["r"] == 64


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, cfgprint.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
