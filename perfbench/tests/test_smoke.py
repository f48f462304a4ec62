"""Tiny-size smoke run of the benchmark: every workload, untraced and
traced, against the digests recorded for tiny seed 1.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )


def check_all(trace: str, key: str) -> str:
    proc = run("--workload", "all", "--seed", "1", "--seconds", "0.2",
               "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    units = {m["name"]: m["unit"] for m in BENCH[key]}
    for workload in WORKLOADS:
        record = json.loads(
            (ROOT / ".perfbench_work" / f"all-tiny-1-t{trace}" / f"{workload}.json").read_text()
        )
        assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
        assert {k: m["unit"] for k, m in record["metrics"].items()} == units
        assert all(v in (True, "ok") for v in record["checks"].values()), record["checks"]
    return proc.stdout


def test_all_workloads_untraced():
    out = check_all("0", "end_to_end")
    summary = json.loads(out.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == {
        *(f"{w}.{m}" for w in WORKLOADS for m in ("setup_s", "peak_rss_mb", "error_rate")),
        "ingest.programs_per_s", "query.p50_ms", "query.tail_ms",
        "allpairs.cluster_s", "allpairs.sweep_s",
    }


def test_all_workloads_traced():
    check_all("1", "per_layer")


def test_single_workload_prints_contract_line():
    proc = run("--workload", "query", "--seed", "1", "--seconds", "0.2", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "ingest", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
