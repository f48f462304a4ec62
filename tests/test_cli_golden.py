"""Golden digests of the CLI's reports on a seeded corpus.

`index`, `query`, `compare` and `cluster` run in text and `--json`
form, and `dot` once per file, over `build_corpus(8, 4, seed=3)` plus a
program too small to keep a path, one that does not parse and one
whose paths overflow a `--max-paths` cap, at three flag settings. A few
runs end in an error on purpose. Each run's arguments, exit code,
stdout and stderr are folded into one SHA-256 per command and form,
after the temporary directory and the values in `timings_ms` are
masked. Text queries whose probe keeps no path at the run's
`min_blocks` have a digest of their own.

The digests were recorded before each report was built once and
printed through one emitter; every one of them was kept except the
unscoreable-probe query text, which gained its `truncation warnings:`
line then. The index and cluster digests were re-recorded once more
when those reports began to name truncated records: the index report
gained its `truncated` list and text block, and the cluster report its
`truncation_warnings` list and line. With those removed from the
output, both reproduce their earlier digests. The query, compare and
dot digests were re-recorded when the error for a program file that
does not parse began to name the file (`error: <path>: line N: ...`);
with the path taken back out of those lines, all five reproduce their
earlier digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from cfgprint.cli import main
from cfgprint.cloneforge import build_corpus

GOLDEN = {
    "index json": "9def305f613a14dd359b7d93d33df664a93257f4d7ec5d66d49a81da89c76882",
    "index text": "f9d1920a6560feed738893b57091f96809cc9af072810266936d5e7722fa638b",
    "query json": "e0fed1d446153cc91d9c1a5ef09b0974d21efad58e45045c5074e34932dd81d9",
    "query text": "8fedc3a4f1fefa350deb5bd182df7157efae1bf9995f3f7341222e12434bdf74",
    "query text, unscoreable probe": "f35b273248afdf72928e75b4864c324154dfa9e8488d5a4a00eb862bf19ccfd1",
    "compare json": "26fc41f16af163d83e8dfd5d7c0613c58dd0d762c911d470475f487785336e8b",
    "compare text": "41fc0179014bf8a6b7b06333c6f6cfe5b119c89a66aee8f5579534e2bbeb13d3",
    "cluster json": "74c36042b1ec02455b8ff55c027fa6afd7b5026a3838f9cb140b9963fe67c2ab",
    "cluster text": "dff06bc671f6e424e3fc8dca3d501eacf3a199fbb174795fe703b03731b0a40f",
    "errors": "5f6f0641c96664405a4d450f2e9300e61389c97950219ec76665538eb31cc33d",
    "dot": "eff940c989719a31d8a26ade28457cec050b916923cfee4967a3052446420921",
}

SETTINGS = (
    (),
    ("--alpha", "2", "--threshold", "0.3", "--mode", "resemblance", "--max-paths", "8"),
    ("--min-blocks", "9", "--max-paths", "1"),
)

TINY = "output 1;\n"
UNPARSEABLE = "while (x > 1) output x;"
# six if-chains give 64 routes, more than either cap above keeps
BRANCHY = "".join(f"if (x > {i}) output {i}; endif\n" for i in range(6)) + "output x;\n"

_JSON_TIMINGS = re.compile(r'"timings_ms": \{[^}]*\}')
_TEXT_TIMINGS = re.compile(r"^timings_ms: .*$", re.M)
_NUMBER = re.compile(r"[0-9][0-9.e+-]*")


def _mask_timings(text: str) -> str:
    text = _JSON_TIMINGS.sub(lambda m: _NUMBER.sub("*", m.group(0)), text)
    return _TEXT_TIMINGS.sub(lambda m: _NUMBER.sub("*", m.group(0)), text)


def _mask_root(text: str, root: Path) -> str:
    for form in {str(root.resolve()), str(root)}:
        text = text.replace(form, "<tmp>")
    return text


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_runs(root: Path) -> list[tuple[str, str]]:
    """Every run as (group, masked record), in a fixed order."""
    corpus = root / "corpus"
    build_corpus(corpus, 8, 4, seed=3)
    (corpus / "tiny.mp").write_text(TINY)
    (corpus / "unparseable.mp").write_text(UNPARSEABLE)
    (corpus / "branchy.mp").write_text(BRANCHY)
    files = [str(p) for p in sorted(corpus.glob("*.mp"))]
    runs = []

    def run(group: str, *argv: str) -> tuple[int, str]:
        code, out, err = _run(list(argv))
        record = repr((argv, code, _mask_timings(out), err))
        runs.append((group, _mask_root(record, root)))
        return code, out

    for n, flags in enumerate(SETTINGS):
        index = str(root / f"s{n}.cdx")
        for command, argv in [
            ("index", ["index", str(corpus), "-o", index]),
            *(("query", ["query", probe, index]) for probe in files),
            *(("compare", ["compare", a, b]) for a, b in zip(files, files[1:] + files[:1])),
            ("cluster", ["cluster", index]),
        ]:
            code, out = run(f"{command} json", *argv, *flags, "--json")
            unscoreable = code == 0 and json.loads(out).get("probe_unscoreable")
            form = "text, unscoreable probe" if unscoreable else "text"
            run(f"{command} {form}", *argv, *flags)
        # a missing file, a missing index and a min_blocks the index disagrees with
        run("errors", "compare", files[0], str(root / "ghost.mp"), *flags)
        run("errors", "query", files[0], str(root / "ghost.cdx"), *flags)
        run("errors", "query", files[0], index, *flags, "--min-blocks", "4")
    for path in files:
        run("dot", "dot", path)
    return runs


def cli_digests(root: Path) -> dict[str, str]:
    folded: dict[str, list[str]] = {}
    for group, record in cli_runs(root):
        folded.setdefault(group, []).append(record)
    return {
        group: hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
        for group, records in folded.items()
    }


def test_cli_matches_recorded_digests(tmp_path):
    assert cli_digests(tmp_path) == GOLDEN
