"""The demos are documentation that runs: every chaoslab name they import
must exist, and the quick ones must run to the end."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
QUICK = [p for p in DEMOS if p.name[:2] in ("01", "02", "03", "06")]


def _chaoslab_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chaoslab":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_imported_names_exist(path):
    missing = [f"{module}.{name}" for module, name in _chaoslab_imports(path)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


@pytest.mark.parametrize("path", QUICK, ids=lambda p: p.name)
def test_quick_demo_runs(path):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
