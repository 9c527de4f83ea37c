"""Oracles for the paper's constants and inequalities, which only the tests call.

pytest does not collect this module; the tests import it by name, as
they import ``conftest``.  Each oracle is built from package functions
and checks them against the closed forms and bounds of the paper:

- the sphere constants of the two limits, :func:`bbm_constant` and
  :func:`ms_constant`, and the matrix form of the s -> 1 density,
  :func:`limit_matrix`;
- the extrapolated finite-s weight b_s, :func:`ms_weight_extrapolated`;
- the gradient norm ||grad u||_p, :func:`gradient_lp`;
- the bound chain of the s -> 1 side, :func:`bbm_upper_bound_check`,
  and the interpolation inequality between two orders,
  :func:`interpolation_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from anisofrac._sphere import sphere_measure, sphere_rule
from anisofrac.energy import anisotropic_energy, gagliardo
from anisofrac.gridfn import FractionalParams, GridFunction, lp_norm
from anisofrac.kernel import Kernel
from anisofrac.limits import LimitDensity, _richardson, ms_weight


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


def gradient_lp(u: GridFunction, p: float) -> float:
    """||grad u||_p from cell-centered finite differences."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    _, grads, vols = u.cell_gradients()
    mag = np.sqrt(np.sum(grads * grads, axis=1))
    return float(np.dot(vols, mag ** p) ** (1.0 / p))


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    slack: float
    lhs: float
    rhs: float
    tolerance: float


def bbm_upper_bound_check(k: Kernel, u: GridFunction, fp: FractionalParams) -> CheckResult:
    """Bound chain: raw weighted integral <= m_plus [u]^p <= sphere-constant bound.

    The right-hand bound is (n omega_n m_plus / p) *
    (||grad u||_p^p / (1-s) + 2^p ||u||_p^p / s); quadrature error
    bounds widen the comparison.
    """
    s, p = fp.s, fp.p
    rep = anisotropic_energy(k, u, fp)
    pref = (1.0 - s) / p
    raw = rep.value / pref
    raw_err = rep.error_bound / pref
    gag = gagliardo(u, fp)
    n_omega = sphere_measure(u.grid.dimension)
    mid = k.m_plus * gag.value
    mid_err = k.m_plus * gag.error_bound
    rhs = (n_omega * k.m_plus / p) * (
        gradient_lp(u, p) ** p / (1.0 - s) + 2.0 ** p * lp_norm(u, p) ** p / s
    )
    slack1 = mid - raw
    slack2 = rhs - mid
    tol = raw_err + mid_err
    passed = (slack1 >= -tol) and (slack2 >= -mid_err)
    return CheckResult(
        passed=passed,
        slack=rhs - raw,   # end-to-end slack of the chain
        lhs=raw,
        rhs=rhs,
        tolerance=tol,
    )


def interpolation_check(
    k: Kernel, u: GridFunction, s1: float, s2: float, p: float
) -> CheckResult:
    """Energy at a smaller order against the larger order plus an L^p term.

    Checks J(s1) <= 2^{p(1-s1)} J(s2) + 2^{p-1} m_plus n omega_n
    (1-s1)/s1 * ||u||_p^p, with quadrature error bounds as slack.
    """
    if not s1 < s2:
        raise ValueError("need s1 < s2")
    rep1 = anisotropic_energy(k, u, FractionalParams(s1, p))
    rep2 = anisotropic_energy(k, u, FractionalParams(s2, p))
    n_omega = sphere_measure(u.grid.dimension)
    factor = 2.0 ** (p * (1.0 - s1))
    rhs = factor * rep2.value + (
        2.0 ** (p - 1.0) * k.m_plus * n_omega * (1.0 - s1) / s1
    ) * lp_norm(u, p) ** p
    tol = rep1.error_bound + factor * rep2.error_bound
    slack = rhs - rep1.value
    return CheckResult(
        passed=slack >= -tol,
        slack=slack,
        lhs=rep1.value,
        rhs=rhs,
        tolerance=tol,
    )
