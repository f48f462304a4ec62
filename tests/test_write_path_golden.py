"""Golden digests of the write path on one seeded corpus.

Every stage's output on `build_corpus(40, 40, seed=3)` is folded into
one SHA-256 per stage: the normalized statements, the CFG (blocks and
edges), the kept paths, and the index record fields other than
`source_path` (which names the temporary directory). The digests were
recorded before the write path was reworked for speed, so a faster
frontend, CFG builder, walk or fingerprinter must reproduce the old
outputs exactly.
"""

from __future__ import annotations

import hashlib

from cfgprint.cloneforge import build_corpus
from cfgprint.config import RunConfig
from cfgprint.fingerprint import to_hex
from cfgprint.pipeline import index_directory, program_files, run_program_file

GOLDEN = {
    "statements": "fd5d41587970a262560346734ec5c3a57b657e440e563481d8cebfd5f036c6ee",
    "cfg": "cf204b7d63fa419c66fc6c51c03a3951fcf9391c01f42ee661c558873c798146",
    "kept_paths": "7123ca0c16dce7f5feb63adc91784b8bee5184ddc45d96c6d17cd7505c3690b8",
    "records": "0e4070ce3e9dc7f72fe8e78aecfa9fcb79dc7ae50d0668486d6fc1507c51fe3c",
}


def _digests(root) -> dict[str, str]:
    build_corpus(root, 40, 40, seed=3)
    config = RunConfig()
    lines: dict[str, list[str]] = {name: [] for name in GOLDEN}
    for program_id, path in program_files(root):
        _, result = run_program_file(program_id, path, config)
        lines["statements"].append(repr([
            (s.text, s.kind, s.control_role, s.ordinal, s.condition)
            for s in result.statements
        ]))
        cfg = result.cfg
        lines["cfg"].append(repr((
            [(b.id, [s.ordinal for s in b.statements], b.is_virtual_exit) for b in cfg.blocks],
            sorted(cfg.edges),
            cfg.entry_id,
            cfg.exit_id,
        )))
        lines["kept_paths"].append(repr((
            [(p.block_ids, p.real_block_count) for p in result.kept_paths],
            result.path_set.truncated,
        )))
    build = index_directory(root, config)
    assert not build.skipped
    for program_id, record in sorted(build.index.records.items()):
        lines["records"].append(repr((
            program_id,
            [to_hex(bits) for bits in record.fingerprints],
            record.path_count,
            record.truncated,
            record.config_stamp.alpha,
            record.config_stamp.min_blocks,
        )))
    return {
        name: hashlib.sha256("\n".join(text).encode("utf-8")).hexdigest()
        for name, text in lines.items()
    }


def test_write_path_matches_recorded_digests(tmp_path):
    assert _digests(tmp_path) == GOLDEN
