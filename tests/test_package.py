"""The package's public surface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import cfgprint


def test_every_export_resolves_once():
    names = cfgprint.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cfgprint, name)]
    assert missing == []


def test_readme_stage_names_are_exported():
    readme = (Path(cfgprint.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"The stages are importable on their own:([^.]*)\.", readme)
    assert sentence is not None
    names = re.findall(r"`(\w+)`", sentence.group(1))
    assert len(names) >= 5
    assert [name for name in names if name not in cfgprint.__all__] == []


def test_cli_import_leaves_multiprocessing_unloaded():
    # the process pool is imported only when indexing asks for workers
    code = (
        "import sys, cfgprint.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cfgprint.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"
