"""The demos and the README quick tour are documentation that runs: every
chaoslab name the demos import must exist, the quick ones must run to the
end, and the quick tour must give the values its comments state."""

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


def test_readme_quick_tour_does_what_its_comments_say():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## Quick tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    shown = []  # the value of each bare expression line, in order
    for node in ast.parse(block, "README.md").body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), scope))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    m4, ms, square_mean, grad_mean, tv = shown
    assert m4 == 60
    assert ms == [0.0, 2.0, 8.0, 60.0]
    assert (square_mean, grad_mean) == (2, 4)
    assert scope["values"].shape == (200_000,)
    assert tv.ci_low <= tv.value <= tv.ci_high
