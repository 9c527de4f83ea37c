"""Output checks, one per experiment kind.

Each check reads the CSV an experiment wrote and returns the problems it
found; an empty list means the output is correct.  The checks use only
the standard library and never import the package they check.

Tolerances, with their reasons and the values seen:

* SWEEP_TOL bounds the final ``rel_error`` of a sweep.  At each size it
  is about twice the largest value seen over the seed ranges of
  ``workloads.py``: full size, seeds 0-13, bbm 0.0127-0.0193 and
  ms 1.75e-4-2.47e-4; tiny size, seeds 0-40, bbm <= 0.177 and
  ms <= 0.018.
* MINIMIZER_RTOL bounds the sup-norm distance of a minimizer to the
  scaled reference, relative to its sup norm, at p = 2.  It is the
  solver's own tolerance (``variational.DEFAULT_TOL`` = 1e-8, a bound on
  the gradient).  The gradient is homogeneous of degree p - 1 in the
  minimizer and degenerates where the slopes vanish, so a gradient
  residual r moves the minimizer by up to about r^(1/(p-1)): the bound
  at exponent p is MINIMIZER_RTOL ** (1/(p-1)), 1e-4 at p = 3.  Seen:
  p = 2 within 5e-13; p = 3 up to 1.3e-8.
* Closed forms (homogenized coefficients, commute distance) must match
  within 1%.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SWEEP_TOL = {
    "full": {"bbm": 0.04, "ms": 5e-4},
    "tiny": {"bbm": 0.35, "ms": 0.04},
}
MINIMIZER_RTOL = 1e-8
CLOSED_FORM_RTOL = 0.01


def reference_path(size: str, name: str) -> Path:
    return REFERENCE_DIR / size / f"{name}.csv"


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(row: dict, key: str) -> float:
    return float(row[key])


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def energy_breakdown(path: Path) -> list[str]:
    """The reported value equals near + bulk + tail exactly."""
    (row,) = _rows(path)
    value = _num(row, "value")
    near, bulk, tail = (_num(row, k) for k in ("near_diagonal", "bulk", "tail"))
    problems = []
    if value != near + bulk + tail:
        problems.append(f"value {value!r} != near + bulk + tail {near + bulk + tail!r}")
    if not (value > 0.0 and math.isfinite(value)):
        problems.append(f"energy {value!r} is not positive and finite")
    if not (0.0 <= _num(row, "error_bound") < value):
        problems.append(f"error bound {row['error_bound']} outside [0, value)")
    return problems


def sweep(path: Path, tol: float, rows: int) -> list[str]:
    """Every row is present and the final relative error is below ``tol``."""
    table = _rows(path)
    if len(table) != rows:
        return [f"{len(table)} rows, expected {rows}"]
    rel = _num(table[-1], "rel_error")
    if not rel < tol:
        return [f"final rel_error {rel!r} not below {tol!r}"]
    return []


def kernel_passed(path: Path) -> list[str]:
    (row,) = _rows(path)
    return [] if row["passed"] == "1" else [f"hypothesis audit failed: {row}"]


def read_minimizer(path: Path) -> tuple[str, list[float]]:
    """Header line and node values of a grid-function CSV."""
    with open(path) as fh:
        header = fh.readline().strip()
        values = [float(line) for line in fh if line.strip()]
    return header, values


def minimizer(path: Path, ref: Path, scale: float, p: float) -> list[str]:
    """Match the reference minimizer scaled by homogeneity.

    Minimizing (lam/p-weighted energy) - amp * <f, v> gives
    v = (amp/lam)^(1/(p-1)) * v_ref for the unit problem's v_ref.
    """
    header, values = read_minimizer(path)
    ref_header, ref_values = read_minimizer(ref)
    if header != ref_header or len(values) != len(ref_values):
        return [f"grid {header!r} differs from reference {ref_header!r}"]
    factor = scale ** (1.0 / (p - 1.0))
    expected = [factor * v for v in ref_values]
    size = max(abs(v) for v in expected)
    err = max(abs(a - b) for a, b in zip(values, expected))
    rtol = MINIMIZER_RTOL ** (1.0 / (p - 1.0))
    if not err <= rtol * size:
        return [f"minimizer off the reference by {err:.3g} (sup norm {size:.3g}, "
                f"allowed {rtol:.3g} relative)"]
    return []


def harmonic_type_mean(A0: float, A1: float, p: float) -> float:
    """Cell-problem coefficient of A(y) = 2 (A0 + A1 sin 2 pi y) / p.

    (mean A^(-1/(p-1)))^(-(p-1)); at p = 2 the harmonic mean, which is
    sqrt(A0^2 - A1^2) in closed form.
    """
    if p == 2.0:
        return math.sqrt(A0 * A0 - A1 * A1)
    n = 4096
    acc = 0.0
    for i in range(n):
        a = 2.0 * (A0 + A1 * math.sin(2.0 * math.pi * (i + 0.5) / n)) / p
        acc += a ** (-1.0 / (p - 1.0))
    return (acc / n) ** (-(p - 1.0))


def homogenized(path: Path, A0: float, A1: float, p: float) -> list[str]:
    """A* from the cell problem matches its closed form, and A* <= A_bar."""
    (row,) = _rows(path)
    star = _num(row, "A_star_oracle")
    bar = _num(row, "A_bar")
    problems = []
    expected = harmonic_type_mean(A0, A1, p)
    if not _close(star, expected, CLOSED_FORM_RTOL):
        problems.append(f"A* {star!r} not within 1% of {expected!r}")
    if not star <= bar:
        problems.append(f"A* {star!r} exceeds A_bar {bar!r}")
    if not _close(bar, 2.0 * A0 / p, 1e-9):
        problems.append(f"A_bar {bar!r} is not the cell mean {2.0 * A0 / p!r}")
    return problems


def _trends_down(values: list[float]) -> bool:
    """Positive, finite, and the last value below the first.

    Only the trend is claimed: at the tiny size the s path of the commute
    experiment is not monotone.
    """
    return all(v > 0.0 and math.isfinite(v) for v in values) and values[-1] < values[0]


def localization(path: Path, rows: int) -> list[str]:
    """Distances to the local minimizer trend down as s -> 1."""
    dist = [_num(r, "value") for r in _rows(path)]
    if len(dist) != rows:
        return [f"{len(dist)} rows, expected {rows}"]
    if not _trends_down(dist):
        return [f"distances do not trend down: {dist}"]
    return []


def commute(path: Path, A0: float, A1: float, amplitude: float,
            n_eps: int, n_s: int) -> list[str]:
    """Both parameter paths trend down, and |u* - u_bar| has its closed form.

    At p = 2 with f = amplitude on (-1, 1) the local minimizers are
    amplitude (1 - x^2) / (4 A), so their L2 distance is
    amplitude/4 * |1/A* - 1/A_bar| * sqrt(16/15).
    """
    table = _rows(path)
    eps = [_num(r, "value") for r in table if r["path"] == "eps"]
    s = [_num(r, "value") for r in table if r["path"] == "s"]
    summary = [_num(r, "value") for r in table if r["path"] == "summary"]
    if (len(eps), len(s), len(summary)) != (n_eps, n_s, 1):
        return [f"rows eps/s/summary = {len(eps)}/{len(s)}/{len(summary)}"]
    problems = []
    if not all(_trends_down(path) for path in (eps, s) if len(path) > 1):
        problems.append(f"paths do not trend down: eps {eps}, s {s}")
    expected = amplitude / 4.0 * abs(
        1.0 / harmonic_type_mean(A0, A1, 2.0) - 1.0 / A0
    ) * math.sqrt(16.0 / 15.0)
    if not _close(summary[0], expected, CLOSED_FORM_RTOL):
        problems.append(f"distance {summary[0]!r} not within 1% of {expected!r}")
    return problems
