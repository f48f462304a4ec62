"""Every demo script runs to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    # demos that write files do so in temporary directories, and must
    # remove them: the demo's TMPDIR has to be empty again at the end
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmpdir)}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"{demo.name}\nstdout={proc.stdout[-2000:]}\nstderr={proc.stderr[-2000:]}"
    assert list(tmpdir.iterdir()) == [], f"{demo.name} left files in its TMPDIR"
