"""Mutation catalogue: named one-line defects, and which test catches each.

Run from the root of a checkout (pytest does not collect this file, and
its runs are not part of the tier-1 suite: one pass of all entries took
about 5 minutes on two cores, and no entry reached the time-out):

    python3 tests/mutation_catalogue.py [--rev HEAD] [NAME ...]

Each entry names a file, the exact old text of one line and its new
text, and the defect it stands for.  The script first runs the suite
unmutated, then per entry unpacks ``git archive REV`` into a temporary
directory, applies the entry (its old text must occur exactly once), and
runs the tier-1 suite there with ``-x`` and a 300 s time-out.  It prints
one row per entry: what stopped the run and the first failing test.
The tier-1 ``test_mutation_catalogue.py`` checks that every entry still
applies to the tree; a mutant fails it by construction, so the runs
leave it out.

A kill by a pin, a test that compares against values stored from the
code of its day (the ``*_golden`` tests), is counted apart: a pin fails
for a fix as it does for a defect, so it shows a change, not a fault.
An entry killed only by a pin or by the time-out still wants a test.
Add an entry for each fixed defect, so that its fix cannot silently go.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    defect: str


E = "src/anisofrac/energy.py"
H = "src/anisofrac/homogenize.py"
V = "src/anisofrac/variational.py"

CATALOGUE = [
    Mutant("surrogate-dropped", E,
           "err = surro_sum * h_pow / (p * (1.0 - s))",
           "err = 0.0 * surro_sum * h_pow / (p * (1.0 - s))",
           "the 2D near-surrogate error term is left out"),
    Mutant("ladder-halved", E,
           "err += self.dt / 12.0 * float(np.abs(np.diff(S, 2)).sum())",
           "err += self.dt / 24.0 * float(np.abs(np.diff(S, 2)).sum())",
           "the bulk ladder's second-difference term is halved"),
    Mutant("tail-midpoint-to-lower-bound", E,
           "mu = np.full((n_nodes, n_ang), 0.5 * (lo + hi))",
           "mu = np.full((n_nodes, n_ang), lo)",
           "with no declared tail limit, the lower bound replaces the bracket's middle"),
    Mutant("no-snapping", E,
           "q = np.where(np.isclose(q, near, rtol=1e-12, atol=1e-12), near, q)",
           "q = np.where(np.isclose(q, near, rtol=1e-12, atol=1e-12), q, q)",
           "shifts within rounding of a node line are not snapped onto it"),
    Mutant("irls-floor-1e-3", V,
           "H = atoms.reweighted_hessian(v, 1e-10)",
           "H = atoms.reweighted_hessian(v, 1e-3)",
           "the IRLS floor on |ell| is raised from 1e-10 to 1e-3"),
    Mutant("newton-shift-1e-6", V,
           "Hf[np.diag_indices_from(Hf)] += 1e-14 * max(float(Hf.max()), 1.0)",
           "Hf[np.diag_indices_from(Hf)] += 1e-6 * max(float(Hf.max()), 1.0)",
           "the Newton diagonal shift is raised from 1e-14 to 1e-6"),
    Mutant("surrogate-denominator", E,
           "err = surro_sum * h_pow / (p * (1.0 - s))",
           "err = surro_sum * h_pow / (p * (1.0 - s) + 1.0)",
           "the surrogate bound integrates r^(p(1-s)) as r^(p(1-s)+1) does"),
    Mutant("far-bracket-halved", E,
           "err += 2.0 * rem_hw_sum * float(factor[n_out - 1])",
           "err += 1.0 * rem_hw_sum * float(factor[n_out - 1])",
           "the far bracket width is halved"),
    Mutant("angular-residual-dropped", E,
           "err += abs(self.dt * float(np.dot(cb, S - S_half)))",
           "err += 0.0 * abs(self.dt * float(np.dot(cb, S - S_half)))",
           "the angular-rule residual is left out"),
    Mutant("armijo-zero", V,
           "if np.isfinite(df) and df <= 1e-4 * (t * norm) * gd:",
           "if np.isfinite(df) and df <= 0.0 * (t * norm) * gd:",
           "the Armijo constant 1e-4 becomes 0"),
    Mutant("h3-dropped", E,
           "err += dev_sum * h_pow / (p * (1.0 - s) + 1.0)",
           "err += 0.0 * dev_sum * h_pow / (p * (1.0 - s) + 1.0)",
           "the kernel's deviation from its radial limit (H3) is left out"),
    Mutant("power-delta-naive", E,
           "small = (~zero_a) & (np.abs(r) < 0.5)",
           "small = zero_a & ~zero_a",
           "power_delta is the plain difference |a+e|^p - |a|^p"),
    Mutant("p2-always-converged", V,
           "return v, f, res, 1, res <= tol, (f,)",
           "return v, f, res, 1, True, (f,)",
           "a p = 2 solve reports convergence whatever its residual"),
    Mutant("gram-run-without-done", E,
           "omega[mask] = bulk[np.repeat(start[:-1] + done - (np.cumsum(run) - run), run)",
           "omega[mask] = bulk[np.repeat(start[:-1] - (np.cumsum(run) - run), run)",
           "the stencil Gram reads each node block's rows from the start of its box"),
    Mutant("scipy-at-import", E,
           "if TYPE_CHECKING:",
           "if True:",
           "energy.py imports scipy.sparse at module level, so every run loads it"),
    Mutant("near-forms-without-neighbour", E,
           "return (self._near_coef * v[self._near_idx]).sum(axis=1)",
           "return (self._near_coef[:, :1] * v[self._near_idx[:, :1]]).sum(axis=1)",
           "the numpy near forms drop the neighbour slots of the gradient stencil"),
    Mutant("bulk-runs-angle-major", E,
           "factor[self._labels].ravel(), self._counts.ravel()",
           "factor[self._labels].T.ravel(), self._counts.T.ravel()",
           "atoms() lays the (rung, angle) runs of bulk weights out angle-major"),
    Mutant("newton-exact-below-2", E,
           "w *= self.p * max(self.p - 1.0, 1.0) / 2.0",
           "w *= self.p * (self.p - 1.0) / 2.0",
           "Newton steps use the exact curvature p (p-1) also for p < 2"),
    Mutant("ray-start-with-fixed-values", V,
           "on_ray = z0 is None and not np.any(fixed[~free])",
           "on_ray = z0 is None",
           "the first step starts on the ray from zero although a fixed value is not 0"),
    Mutant("kernel-average-reads-x", H,
           "val = np.asarray(fn(t, h), dtype=float)",
           "val = np.asarray(fn(x + t, h), dtype=float)",
           "the period average samples the kernel at every x + t, not at the shifts alone"),
    Mutant("ray-start-unscaled", V,
           "norm = float(np.abs(d).max())",
           "norm = 1.0",
           "b.d, g.d and the first step's ray minimizer are formed from d itself, "
           "where b.d and E(d) can overflow"),
    Mutant("outside-pairs-not-doubled", E,
           "self.outside_w[:, :-1] *= 2.0",
           "self.outside_w[:, :-1] *= 1.0",
           "the pairs without a form are counted once in outside_w, not twice"),
    Mutant("far-deviation-from-weighted", E,
           "np.maximum(hw, np.abs(m - mu.T), out=hw)",
           "np.maximum(hw, np.abs(wkx * m - mu.T), out=hw)",
           "the far deviation hw is read from w_x w_k m, as after m is overwritten in place"),
]

_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)


def _unpack(rev: str, into: Path) -> None:
    subprocess.run(f"git archive {shlex.quote(rev)} | tar -x -C {shlex.quote(str(into))}",
                   shell=True, check=True)


def _apply(root: Path, m: Mutant) -> None:
    path = root / m.path
    text = path.read_text()
    if text.count(m.old) != 1:
        raise SystemExit(f"{m.name}: its old text occurs {text.count(m.old)} times in {m.path}")
    path.write_text(text.replace(m.old, m.new))


def _run(root: Path) -> tuple[str, str, float]:
    """Run tier-1 with -x in ``root``: (status, first failing test, seconds)."""
    # test_mutation_catalogue.py checks the catalogue against the tree, so
    # it fails on every mutant by construction and would kill them all
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--ignore=tests/test_mutation_catalogue.py"]
    start = time.perf_counter()
    try:
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                             timeout=300, env={**os.environ, "PYTHONPATH": "src"})
    except subprocess.TimeoutExpired:
        return "time-out", "", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if out.returncode == 0:
        return "passed", "", seconds
    failed = _FAILED.search(out.stdout)
    if out.returncode != 1 or failed is None:
        return f"error (exit {out.returncode})", "", seconds
    test = failed.group(1)
    pin = test.split("::")[-1].split("[")[0].endswith("_golden")
    return ("killed by a pin" if pin else "killed"), test, seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="entries to run (default: all)")
    ap.add_argument("--rev", default="HEAD", help="git revision to mutate")
    args = ap.parse_args(argv)
    unknown = set(args.names) - {m.name for m in CATALOGUE}
    if unknown:
        ap.error(f"no such entries: {sorted(unknown)}")
    entries = [m for m in CATALOGUE if not args.names or m.name in args.names]
    print("| entry | result | first failing test | s |\n|---|---|---|---|", flush=True)
    for m in [None] + entries:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            root = Path(tmp)
            _unpack(args.rev, root)
            if m is not None:
                _apply(root, m)
            status, test, seconds = _run(root)
        if m is None:
            name = "(unmutated)"
        else:
            name, status = m.name, "survived" if status == "passed" else status
        print(f"| {name} | {status} | {test} | {seconds:.0f} |", flush=True)
        if m is None and status != "passed":
            print("the unmutated suite does not pass; no entry can be judged")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
