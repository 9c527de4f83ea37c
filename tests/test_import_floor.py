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


def _scipy_after(code, package):
    """The ``scipy.<package>`` modules loaded once ``code`` has run in a
    child interpreter that sees this checkout's package."""
    src = os.path.dirname(os.path.dirname(anisofrac.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += (
        "\nimport sys\n"
        f"print(','.join(m for m in sys.modules if m.split('.')[:2] == ['scipy', {package!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.strip()
    return names.split(",") if names else []


@pytest.mark.parametrize("module", ["anisofrac", "anisofrac.cli"])
def test_import_does_not_load_scipy_sparse(module):
    # scipy.sparse is imported where a sparse matrix is built, not at start-up
    assert _scipy_after(f"import {module}", "sparse") == []


@pytest.mark.parametrize("module", ["anisofrac", "anisofrac.cli"])
def test_import_does_not_load_scipy_linalg(module):
    # scipy.linalg is imported where a dense system is factorized
    assert _scipy_after(f"import {module}", "linalg") == []


_TINY_2D = """[kernel]
name = separable-angular
c0 = 1.0
c1 = 0.5

[grid]
n = 2
box = -1:1;-1:1
N = 9

[params]
"""

# (subcommand, params, extra flags, whether the run loads scipy.sparse and
# scipy.linalg)
_TINY_RUNS = {
    "energy": ("energy", "p = 2\ns = 0.5\n", ["--breakdown"], False),
    "bbm-sweep": ("bbm-sweep", "p = 2\ns_list = 0.75, 0.875, 0.9375\n", [], False),
    "ms-sweep": ("ms-sweep", "p = 2\ns_list = 0.25, 0.125, 0.0625\n", [], False),
    "verify-kernel": ("verify-kernel", "samples = 256\nseed = 0\n", [], False),
    # a solve loads it at its first Gram
    "solve-nonlocal": ("solve-nonlocal", "p = 2\ns = 0.5\nf = bump(0.25, -0.15, 0.6)\n",
                       [], True),
}


def _tiny_run(tmp_path, name):
    """Code that runs the tiny 2D config of ``name`` through ``cli.main``."""
    subcommand, params, extra, _ = _TINY_RUNS[name]
    config = tmp_path / f"{name}.ini"
    config.write_text(_TINY_2D + params)
    argv = [subcommand, "--config", str(config), "--out", str(tmp_path / f"{name}.csv"), *extra]
    return (
        "import contextlib, io\n"
        "from anisofrac import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0"
    )


@pytest.mark.parametrize("name", sorted(_TINY_RUNS))
def test_which_runs_load_scipy_sparse(tmp_path, name):
    # reports, sweeps and the kernel audit read every form in numpy; only
    # the solves build a sparse matrix
    loaded = _scipy_after(_tiny_run(tmp_path, name), "sparse")
    assert ("scipy.sparse" in loaded) == _TINY_RUNS[name][3], loaded


@pytest.mark.parametrize("name", sorted(_TINY_RUNS))
def test_which_runs_load_scipy_linalg(tmp_path, name):
    # only a solve factorizes a dense matrix (its p = 2 Cholesky solve)
    loaded = _scipy_after(_tiny_run(tmp_path, name), "linalg")
    assert ("scipy.linalg" in loaded) == _TINY_RUNS[name][3], loaded


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
