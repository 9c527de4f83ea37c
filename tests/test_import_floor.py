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
