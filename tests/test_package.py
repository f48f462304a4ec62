"""The package's public surface."""

import ast
import doctest
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


def test_package_docstring_example_runs():
    results = doctest.testmod(cfgprint)
    assert results == (0, 4)


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


def test_every_source_file_parses_at_the_declared_python_floor():
    # `ast.parse` with `feature_version` rejects syntax newer than the
    # `requires-python` floor (such as `except*`), so a 3.11-only
    # construct fails here even when the suite runs on 3.11
    root = Path(cfgprint.__file__).parents[2]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert floor is not None
    version = (int(floor.group(1)), int(floor.group(2)))
    files = [f for d in ("src", "tests", "demos", "perfbench") for f in (root / d).rglob("*.py")]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
