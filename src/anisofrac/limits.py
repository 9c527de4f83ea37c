"""Asymptotic limits of the weighted energies in the fractional order.

As s -> 1 the energies localize: (1-s) times the double integral tends
to an integral of the density

    A(x, xi) = (1/p) * int_{S^{n-1}} a(x, w) |xi . w|^p dH(w)

built from the kernel's small-offset radial limit.  As s -> 0 they
concentrate on the L^p mass: s times the double integral tends to
int |u|^p b(x) dx, where b comes from the kernel's large-offset limit.
This module evaluates the densities, the two sphere constants, the
finite-s weight b_s with certified brackets, and runs the convergence
sweeps with first-order Richardson extrapolation in (1-s) or s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._sphere import sphere_measure, sphere_rule
from .energy import get_scheme
from .gridfn import FractionalParams, GridFunction
from .kernel import Kernel

__all__ = [
    "LimitDensity",
    "TableRow",
    "ConvergenceTable",
    "limit_density",
    "limit_matrix",
    "bbm_constant",
    "ms_constant",
    "ms_weight",
    "ms_weight_limit",
    "ms_weight_extrapolated",
    "bbm_sweep",
    "ms_sweep",
    "default_bbm_s_list",
    "default_ms_s_list",
]


@dataclass(frozen=True)
class LimitDensity:
    """Gradient-limit density of a kernel, with its angular rule."""

    kern: Kernel
    p: float
    _dirs: np.ndarray = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.p < 1.0:
            raise ValueError("p must be >= 1")
        dirs, w = sphere_rule(self.kern.dimension)
        object.__setattr__(self, "_dirs", dirs)
        object.__setattr__(self, "_weights", w)
        total = float(w.sum())
        if abs(total - sphere_measure(self.kern.dimension)) > 1e-12 * total:
            raise AssertionError("angular rule does not integrate constants")


def limit_density(ld: LimitDensity, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """(1/p) * sum_w weights * a(x, w) |xi . w|^p; broadcasts over points.

    ``x`` and ``xi`` have shape (..., n); the result drops the last axis.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    x, xi = np.broadcast_arrays(x, xi)
    a = np.asarray(
        ld.kern.radial_limit(x[..., None, :], ld._dirs), dtype=float
    )
    dots = np.abs(xi @ ld._dirs.T) ** ld.p
    out = np.einsum("...k,...k,k->...", a, dots, ld._weights) / ld.p
    return out if out.shape else float(out)


def limit_matrix(ld: LimitDensity, x: np.ndarray) -> np.ndarray:
    """Matrix A(x) with A(x) xi . xi = limit_density(x, xi); p = 2 only."""
    if ld.p != 2.0:
        raise ValueError("the matrix form of the density exists only for p = 2")
    x = np.asarray(x, dtype=float)
    a = np.asarray(ld.kern.radial_limit(x[None, :], ld._dirs), dtype=float).ravel()
    W = ld._dirs * (ld._weights * a)[:, None]
    return 0.5 * (ld._dirs.T @ W)


def bbm_constant(p: float, n: int) -> float:
    """(1/p) * int_{S^{n-1}} |w_1|^p dH, by the sphere rule."""
    if n not in (1, 2, 3):
        raise ValueError("n must be in {1, 2, 3}")
    dirs, w = sphere_rule(n)
    return float(np.dot(w, np.abs(dirs[:, 0]) ** p) / p)


def ms_constant(p: float, n: int) -> float:
    """Closed form 4 pi^{n/2} / (p Gamma(n/2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    return 4.0 * math.pi ** (n / 2.0) / (p * math.gamma(n / 2.0))


_GL_NODES, _GL_WEIGHTS = leggauss(8)


def _radial_integral(fn, r0: float, r1: float) -> np.ndarray:
    """int_{r0}^{r1} fn(r) dr via 8-point Gauss per geometric octave.

    Exact to machine precision for the smooth, power-times-slow kernels
    met here, which is what makes constant-kernel brackets degenerate.
    """
    t0, t1 = math.log(r0), math.log(r1)
    n_seg = max(1, int(math.ceil((t1 - t0) / math.log(2.0))))
    edges = np.linspace(t0, t1, n_seg + 1)
    total = None
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + half * _GL_NODES
        r = np.exp(t)
        contrib = sum(
            w * fn(ri) * ri * half for w, ri in zip(_GL_WEIGHTS, r)
        )
        total = contrib if total is None else total + contrib
    return total


def ms_weight(
    k: Kernel, x: np.ndarray, fp: FractionalParams, r_cut: float
) -> tuple[float, float]:
    """Bracket for the finite-s weight b_s(x).

    b_s(x) = 2s * int_{S} int_{2|x|}^inf m(x, r w) r^{-sp-1} dr dH(w).
    The part up to ``r_cut`` is integrated on a geometric ladder; the
    rest is bracketed through the kernel bounds, shrunk around the
    declared large-offset limit when one exists (assuming the deviation
    observed at r_cut does not grow further out).  Rejects x = 0, where
    the lower limit collapses onto the non-integrable singularity.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != k.dimension:
        raise ValueError("point dimension mismatch")
    r0 = 2.0 * float(np.linalg.norm(x))
    if r0 == 0.0:
        raise ValueError("b_s is not defined at x = 0 (divergent lower limit)")
    if not r_cut > r0:
        raise ValueError("r_cut must exceed 2|x|")
    s, p = fp.s, fp.p
    dirs, w_dirs = sphere_rule(k.dimension)

    def integrand(r):
        return np.asarray(k.evaluate(x[None, :], r * dirs), dtype=float) * r ** (
            -s * p - 1.0
        )

    finite = 2.0 * s * float(np.dot(w_dirs, _radial_integral(integrand, r0, r_cut)))

    cut_factor = r_cut ** (-s * p) / (s * p)
    lo_b, hi_b = k.bounds
    lo_dir = np.full(dirs.shape[0], lo_b)
    hi_dir = np.full(dirs.shape[0], hi_b)
    if k.tail_limit is not None:
        m_inf = np.asarray(k.tail_limit(x[None, :], dirs), dtype=float).ravel()
        at_cut = np.asarray(k.evaluate(x[None, :], r_cut * dirs), dtype=float).ravel()
        dev = np.abs(at_cut - m_inf)
        lo_dir = np.maximum(lo_dir, m_inf - dev)
        hi_dir = np.minimum(hi_dir, m_inf + dev)
    tail_lo = 2.0 * s * float(np.dot(w_dirs, lo_dir)) * cut_factor
    tail_hi = 2.0 * s * float(np.dot(w_dirs, hi_dir)) * cut_factor
    return finite + tail_lo, finite + tail_hi


def ms_weight_limit(k: Kernel, x: np.ndarray, p: float) -> float | np.ndarray:
    """Limit weight b(x) = (2/p) * int_{S} m_inf(x, w) dH(w).

    ``x`` holds points of shape (..., n); the result drops the last axis,
    and one point of shape (n,) gives a float.
    """
    if k.tail_limit is None:
        raise ValueError(
            f"kernel {k.name!r} declares no tail limit; the s -> 0 weight needs one"
        )
    x = np.asarray(x, dtype=float)
    dirs, w_dirs = sphere_rule(k.dimension)
    m_inf = np.asarray(k.tail_limit(x[..., None, :], dirs), dtype=float)
    b = 2.0 / p * (m_inf @ w_dirs)
    return float(b) if b.ndim == 0 else b


_EXTRAPOLATION_S = (0.1, 0.05)  # orders of the two b_s midpoints extrapolated


def ms_weight_extrapolated(k: Kernel, x: np.ndarray, p: float) -> float:
    """Richardson-extrapolated b_s midpoints at s = 0.1 and 0.05.

    The ladder is cut at r_cut = 64 * max(2|x|, 1).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    r_cut = 64.0 * max(2.0 * float(np.linalg.norm(x)), 1.0)
    vals = []
    for s in _EXTRAPOLATION_S:
        lo, hi = ms_weight(k, x, FractionalParams(s, p), r_cut)
        vals.append(0.5 * (lo + hi))
    return _richardson(*_EXTRAPOLATION_S, *vals)


def _richardson(t1: float, t2: float, v1: float, v2: float) -> float:
    """First-order Richardson step: the value at t = 0 of the line
    through (t1, v1) and (t2, v2)."""
    return (t1 * v2 - t2 * v1) / (t1 - t2)


# ---------------------------------------------------------------------------
# convergence tables and sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    """One sweep row; ``converged`` is False when a solve behind it stopped short."""

    param: float
    value: float
    extrapolated: Optional[float]
    reference: Optional[float]
    rel_error: Optional[float]
    converged: bool = True

    def __post_init__(self):
        for name in ("param", "value", "extrapolated", "reference", "rel_error"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(
                    f"sweep {name} is {v!r}: the inputs overflow double precision"
                )


@dataclass(frozen=True)
class ConvergenceTable:
    """Sweep output; extrapolated entries appear from the third row on."""

    rows: tuple[TableRow, ...]

    def __post_init__(self):
        params = [r.param for r in self.rows]
        if params != sorted(params) and params != sorted(params, reverse=True):
            raise ValueError("rows must be monotone in the parameter")
        if len(self.rows) < 3 and any(r.extrapolated is not None for r in self.rows):
            raise ValueError("extrapolated values need at least 3 rows")

    @property
    def final(self) -> TableRow:
        return self.rows[-1]

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.rows)

    def best_estimate(self) -> float:
        last = self.rows[-1]
        return last.extrapolated if last.extrapolated is not None else last.value


def _assemble_table(
    params: Sequence[float],
    values: Sequence[float],
    reference: Optional[float],
    t_of_param,
) -> ConvergenceTable:
    rows = []
    n = len(params)
    for i, (q, v) in enumerate(zip(params, values)):
        extrap = None
        if n >= 3 and i >= 2:
            extrap = _richardson(t_of_param(params[i - 1]), t_of_param(params[i]),
                                 values[i - 1], values[i])
        best = extrap if extrap is not None else v
        rel = None
        if reference is not None and reference != 0.0:
            rel = abs(best - reference) / abs(reference)
        elif reference is not None:
            rel = abs(best)
        rows.append(TableRow(q, v, extrap, reference, rel))
    return ConvergenceTable(tuple(rows))


def default_bbm_s_list() -> list[float]:
    return [1.0 - 2.0 ** (-k) for k in range(2, 8)]


def default_ms_s_list() -> list[float]:
    return [2.0 ** (-k) for k in range(2, 8)]


def _orders(s_list: Optional[Sequence[float]], toward_one: bool) -> list[float]:
    """The orders of a sweep toward s = 1 or s = 0: the default list of
    that direction when ``s_list`` is None, else ``s_list`` checked to hold
    at least one order, each in (0,1), strictly monotone toward the limit."""
    if s_list is None:
        return default_bbm_s_list() if toward_one else default_ms_s_list()
    s_list = list(s_list)
    if not s_list:
        raise ValueError("s_list must hold at least one order")
    if any(not 0.0 < s < 1.0 for s in s_list):
        raise ValueError("s values must lie in (0,1)")
    pairs = list(zip(s_list, s_list[1:]))
    if toward_one and any(a >= b for a, b in pairs):
        raise ValueError("s_list must strictly increase toward 1")
    if not toward_one and any(a <= b for a, b in pairs):
        raise ValueError("s_list must strictly decrease toward 0")
    return s_list


def _energy_sweep(
    k: Kernel,
    u: GridFunction,
    p: float,
    s_list: Sequence[float],
    t_of_s,
    reference: float,
) -> ConvergenceTable:
    """t(s) times the weighted double integral for each s, from one
    scheme, in a table against the float ``reference``."""
    parts = get_scheme(k, u.grid).raw_components(u, p, s_list)
    values = [t_of_s(s) * (near + bulk + tail)
              for s, (near, bulk, tail, _) in zip(s_list, parts)]
    return _assemble_table(s_list, values, reference, t_of_s)


def bbm_sweep(
    k: Kernel,
    u: GridFunction,
    p: float,
    s_list: Optional[Sequence[float]] = None,
) -> ConvergenceTable:
    """Sweep of (1-s) times the weighted double integral as s -> 1.

    The reference is the localized energy int A(x, grad u) dx evaluated
    with cell-centered gradients, and the extrapolation is first-order
    in (1-s).  ``s_list=None`` means :func:`default_bbm_s_list`.
    """
    s_list = _orders(s_list, toward_one=True)
    ld = LimitDensity(k, p)
    centers, grads, vols = u.cell_gradients()
    reference = float(np.dot(vols, np.atleast_1d(limit_density(ld, centers, grads))))
    return _energy_sweep(k, u, p, s_list, lambda s: 1.0 - s, reference)


def ms_sweep(
    k: Kernel,
    u: GridFunction,
    p: float,
    s_list: Optional[Sequence[float]] = None,
) -> ConvergenceTable:
    """Sweep of s times the weighted double integral as s -> 0.

    The reference is int |u|^p b(x) dx with the limit weight b; use
    functions supported away from the origin, where the finite-s weight
    is tame.  Extrapolation is first-order in s.  ``s_list=None`` means
    :func:`default_ms_s_list`.
    """
    s_list = _orders(s_list, toward_one=False)
    b_vals = ms_weight_limit(k, u.grid.nodes(), p)
    w_x = u.grid.trapezoid_weights()
    reference = float(np.dot(w_x, np.abs(u.values.ravel()) ** p * b_vals))
    return _energy_sweep(k, u, p, s_list, lambda s: s, reference)
