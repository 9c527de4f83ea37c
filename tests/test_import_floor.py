import ast
import glob
import os
import subprocess
import sys

import pytest

import anisofrac


@pytest.mark.parametrize("module", ["anisofrac", "anisofrac.cli"])
def test_import_does_not_load_scipy_stats(module):
    # scipy.stats alone costs most of the start-up time and ~50 MB of
    # resident memory; only scipy.sparse belongs in a bare import
    src = os.path.dirname(os.path.dirname(anisofrac.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        f"import sys, {module}\n"
        "print(','.join(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def _imported_names(tree):
    """The names the module's own imports bind, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(
    glob.glob(os.path.join(os.path.dirname(anisofrac.__file__), "*.py"))
), ids=os.path.basename)
def test_every_import_is_used_or_exported(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    keep = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep |= _exported_names(tree)
    unused = [f"line {line}: {name}" for name, line in _imported_names(tree)
              if name not in keep]
    assert unused == []
