"""One-dimensional periodic homogenization and the order-of-limits gap.

For a kernel that is 1-periodic in x, the localized (s -> 1) energy
density reduces in 1D to A(y) |xi|^p with
A(y) = (a(y,-1) + a(y,1)) / p.  Squeezing the period out of the local
problem yields the cell-problem coefficient A*; homogenizing the kernel
first (averaging m over a period) and localizing afterwards yields the
plain average of the coefficient instead.  The two constants, hence the
two limit solutions, differ whenever A is non-constant:

    A* = min over periodic v of int A(y) |1 + v'(y)|^p dy  <=  int A(y) dy.

The cell-problem minimization is authoritative here; the closed-form
candidate (int A^{-1/(p-1)})^(-outer) is reported next to it with both
plausible outer exponents, and the report flags which one the
minimization actually matches (the classical -(p-1) one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .energy import AtomSet
from .gridfn import Grid, GridFunction, lp_distance, lp_norm
from .kernel import Kernel, builtin
from .limits import LimitDensity, _check_orders, default_bbm_s_list, limit_density
from .variational import (
    LocalProblem,
    NotConvergedError,
    _solve_atoms,
    localization_sweep,
    solve_local,
)

__all__ = [
    "PeriodicCoefficient",
    "EffectiveCoefficients",
    "EffectiveStarResult",
    "CommuteResult",
    "PathEntry",
    "coefficient_from_kernel",
    "effective_star",
    "effective_bar",
    "cell_problem_1d",
    "homogenized_kernel",
    "rescaled_kernel",
    "commute_experiment",
]

_AVG_SAMPLES = 4096
_KERNEL_SHIFTS = 64  # shifts over one period when averaging a kernel
_NODES_PER_PERIOD = 16  # minimum resolution of the eps grids


@dataclass(frozen=True)
class PeriodicCoefficient:
    """1-periodic coefficient A(y) of the reduced 1D density A(y)|xi|^p."""

    A: Callable[[np.ndarray], np.ndarray]
    p: float

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("need p > 1")

    def sample(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.A(np.asarray(y, dtype=float) % 1.0), dtype=float)

    def mean(self) -> float:
        y = (np.arange(_AVG_SAMPLES) + 0.5) / _AVG_SAMPLES
        return float(self.sample(y).mean())

    def variance(self) -> float:
        y = (np.arange(_AVG_SAMPLES) + 0.5) / _AVG_SAMPLES
        return float(self.sample(y).var())


@dataclass(frozen=True)
class EffectiveCoefficients:
    A_star: float
    A_bar: float

    @property
    def gap(self) -> float:
        return self.A_bar - self.A_star

    def __post_init__(self):
        if self.A_star > self.A_bar * (1.0 + 1e-9):
            raise ValueError("cell coefficient cannot exceed the plain average")


@dataclass(frozen=True)
class EffectiveStarResult:
    """Cell-problem value next to the closed-form candidates."""

    value: float                # the minimization result (authoritative)
    formula_value: float        # (int A^{-1/(p-1)})^{-1/(p-1)}
    formula_classical: float    # (int A^{-1/(p-1)})^{-(p-1)}
    matches: str                # which candidate the minimization matches


def coefficient_from_kernel(k: Kernel, p: float) -> PeriodicCoefficient:
    """A(y) = limit density of k at (y, xi = 1): (a(y,-1) + a(y,1)) / p in 1D."""
    if k.dimension != 1:
        raise ValueError("the reduced coefficient is 1D")
    if k.period is None:
        raise ValueError(f"kernel {k.name!r} is not periodic in x")
    ld = LimitDensity(k, p)

    def A(y):
        return limit_density(ld, np.asarray(y, dtype=float)[:, None], 1.0)

    return PeriodicCoefficient(A=A, p=p)


def cell_problem_1d(
    c: PeriodicCoefficient,
    xi: float,
    n_cells: int = 512,
    tol: float = 1e-10,
    max_iter: int = 20_000,
) -> float:
    """min over periodic v of int_0^1 A(y) |xi + v'(y)|^p dy.

    Midpoint coefficients on a uniform cell grid with wraparound, written
    as one atom A_i dy |v[i+1]/dy - v[i]/dy + xi v[n]|^p per cell on
    n_cells + 1 nodes: the last node is a constant node fixed at 1 that
    carries xi, and v[0] is pinned to 0 in place of a zero-mean
    constraint (only differences enter, so the minimum is the same).
    The shared reweighted-Newton engine of :mod:`anisofrac.variational`
    solves it: one direct solve at p = 2, lagged-weight Newton steps
    otherwise.  Raises :class:`NotConvergedError` when the gradient over
    all cell nodes, the pinned one included, stays above ``tol`` times
    |xi|^(p-1) max(max A, 1).
    """
    if xi == 0.0:
        return 0.0
    p = c.p
    n = n_cells
    dy = 1.0 / n
    A = c.sample((np.arange(n) + 0.5) * dy)
    i = np.arange(n)
    idx = np.column_stack([(i + 1) % n, i, np.full(n, n)])
    coef = np.tile([1.0 / dy, -1.0 / dy, float(xi)], (n, 1))
    atoms = AtomSet.from_stencil(A * dy, idx, coef, n + 1, p)
    free = np.ones(n + 1, dtype=bool)
    free[[0, n]] = False
    fixed = np.zeros(n + 1)
    fixed[n] = 1.0

    scale = abs(xi) ** (p - 1.0) * max(float(A.max()), 1.0)
    v, f, _, it, _, _ = _solve_atoms(
        atoms, 1.0, np.zeros(n + 1), free, fixed, tol * scale, max_iter
    )
    # the engine's residual covers the free nodes only; the pinned node's
    # gradient is minus the sum of the others
    res = float(np.abs(atoms.gradient(v)[:n]).max())
    if res > tol * scale:
        raise NotConvergedError(
            f"cell problem did not converge (residual {res:g} after {it} iterations)"
        )
    return f


def effective_star(c: PeriodicCoefficient) -> EffectiveStarResult:
    """Cell-problem coefficient with the closed-form candidates.

    Returns the minimization value at xi = 1 on 512 cells; the closed
    forms use the inner exponent -1/(p-1) and differ in the outer one.
    """
    p = c.p
    y = (np.arange(_AVG_SAMPLES) + 0.5) / _AVG_SAMPLES
    inner = float((c.sample(y) ** (-1.0 / (p - 1.0))).mean())
    formula = inner ** (-1.0 / (p - 1.0))
    classical = inner ** (-(p - 1.0))
    oracle = cell_problem_1d(c, 1.0)
    d_formula = abs(oracle - formula)
    d_classical = abs(oracle - classical)
    if abs(formula - classical) <= 1e-9 * max(formula, classical):
        matches = "both (p = 2)"
    elif d_classical <= d_formula:
        matches = "classical -(p-1)"
    else:
        matches = "printed -1/(p-1)"
    return EffectiveStarResult(
        value=oracle,
        formula_value=formula,
        formula_classical=classical,
        matches=matches,
    )


def effective_bar(k: Kernel, p: float) -> float:
    """Plain cell average of the reduced coefficient."""
    return coefficient_from_kernel(k, p).mean()


def homogenized_kernel(k: Kernel) -> Kernel:
    """Average the kernel over one x-period: the eps -> 0 kernel at fixed s.

    The average is the midpoint rule over 64 shifts.
    """
    if k.period is None:
        raise ValueError(f"kernel {k.name!r} is not periodic in x")
    if k.dimension != 1:
        raise ValueError("kernel averaging is implemented in 1D")
    per = k.period[0]
    shifts = per * (np.arange(_KERNEL_SHIFTS) + 0.5) / _KERNEL_SHIFTS

    def average(fn):
        def avg(x, h):
            x = np.asarray(x, dtype=float)
            h = np.asarray(h, dtype=float)
            acc = None
            for t in shifts:
                val = np.asarray(fn(x + t, h), dtype=float)
                acc = val if acc is None else acc + val
            return acc / _KERNEL_SHIFTS

        return avg

    tail = average(k.tail_limit) if k.tail_limit is not None else None
    return Kernel(
        evaluate=average(k.evaluate),
        dimension=1,
        bounds=k.bounds,
        radial_limit=average(k.radial_limit),
        tail_limit=tail,
        period=(per,),
        name=f"avg({k.name})",
    )


def rescaled_kernel(k: Kernel, eps: float) -> Kernel:
    """m(x/eps, h): the oscillating kernel at scale eps."""
    if k.period is None:
        raise ValueError(f"kernel {k.name!r} is not periodic in x")
    if eps <= 0.0:
        raise ValueError("eps must be positive")

    def scale_x(fn):
        return lambda x, h: fn(np.asarray(x, dtype=float) / eps, h)

    return Kernel(
        evaluate=scale_x(k.evaluate),
        dimension=k.dimension,
        bounds=k.bounds,
        radial_limit=scale_x(k.radial_limit),
        tail_limit=scale_x(k.tail_limit) if k.tail_limit is not None else None,
        period=tuple(eps * t for t in k.period),
        name=f"{k.name}@eps={eps:g}",
    )


class PathEntry(NamedTuple):
    """One point of a finite-parameter path of the commute experiment."""

    param: float
    value: float
    converged: bool  # False when a solve behind the point stopped short


@dataclass(frozen=True)
class CommuteResult:
    """Outputs of the order-of-limits experiment."""

    u_star: GridFunction
    u_bar: GridFunction
    distance: float
    coefficients: EffectiveCoefficients
    eps_path: tuple[PathEntry, ...]   # (eps, rel distance to u_star)
    s_path: tuple[PathEntry, ...]     # (s, rel distance to u_bar)
    limits_converged: bool            # the solves for u_star and u_bar

    @property
    def eps_final_rel(self) -> float:
        return self.eps_path[-1].value

    @property
    def s_final_rel(self) -> float:
        return self.s_path[-1].value

    @property
    def converged(self) -> bool:
        return self.limits_converged and all(
            e.converged for e in self.eps_path + self.s_path
        )


def _resample(u: GridFunction, grid: Grid) -> GridFunction:
    if u.grid == grid:
        return u
    return GridFunction(grid, u.eval(grid.nodes()).reshape(grid.shape),
                        boundary_flag=False)


def _eps_grid(base: Grid, eps: float) -> Grid:
    (a, b), = base.box
    need = int(math.ceil((b - a) / eps)) * _NODES_PER_PERIOD + 1
    N = max(base.nodes_per_axis, need)
    if N % 2 == 0:
        N += 1
    return Grid(1, base.box, N)


def commute_experiment(
    k: Kernel,
    p: float,
    f: GridFunction,
    eps_list: Sequence[float],
    s_list: Optional[Sequence[float]] = None,
) -> CommuteResult:
    """Compare the two iterated limits of the oscillating nonlocal problems.

    u_star solves the constant-coefficient problem with the cell
    coefficient A* (localize first, then average); u_bar the one with
    the plain average (average first, then localize).  The finite
    parameter paths are also run.  For each eps, the local solve of the
    oscillating kernel, which trends to u_star as eps -> 0; an eps
    entry's ``converged`` is that solve's flag.  For s, one localization
    sweep of the period-averaged kernel against u_bar, trending to u_bar
    as s -> 1.  Each path entry is a distance relative to the L^p norm
    of its limit.  ``s_list`` must increase toward 1; ``None`` means
    :func:`~anisofrac.limits.default_bbm_s_list`.  ``eps_list`` must not
    be empty, and every eps is 1/m for an integer m >= 1.  The eps cases
    run one after another, from the largest eps.
    """
    s_list = list(s_list) if s_list is not None else default_bbm_s_list()
    _check_orders(s_list, toward_one=True)
    if k.dimension != 1:
        raise ValueError("the experiment is 1D")
    if not eps_list:
        raise ValueError("eps_list must hold at least one eps")
    periods = set()
    for eps in eps_list:
        inv = 1.0 / eps if eps != 0.0 else math.inf
        if not (math.isfinite(inv) and round(inv) >= 1 and abs(inv - round(inv)) <= 1e-9):
            raise ValueError("eps values must be reciprocals of integers >= 1")
        if round(inv) in periods:
            raise ValueError(f"eps_list repeats eps = 1/{round(inv)}")
        periods.add(round(inv))
    grid = f.grid
    coeff = coefficient_from_kernel(k, p)
    coeffs = EffectiveCoefficients(A_star=effective_star(coeff).value, A_bar=coeff.mean())

    def solve_constant(A: float):
        # the constant kernel c has the 1D density (2c/p)|xi|^p
        kern = builtin("constant", {"c": p * A / 2.0})
        return solve_local(
            LocalProblem(grid=grid, source=f, density=LimitDensity(kern, p))
        )

    res_star, res_bar = solve_constant(coeffs.A_star), solve_constant(coeffs.A_bar)
    u_star, u_bar = res_star.minimizer, res_bar.minimizer
    norm_star = lp_norm(u_star, p)
    norm_bar = lp_norm(u_bar, p)

    # path (i): localize at fixed eps, then shrink eps
    def eps_case(eps: float) -> PathEntry:
        g_eps = _eps_grid(grid, eps)
        k_eps = rescaled_kernel(k, eps)
        f_eps = _resample(f, g_eps)
        ld = LimitDensity(k_eps, p)
        res_eps = solve_local(LocalProblem(grid=g_eps, source=f_eps, density=ld))
        rel = lp_distance(res_eps.minimizer, _resample(u_star, g_eps), p) / norm_star
        return PathEntry(eps, rel, res_eps.converged)

    eps_path = tuple(eps_case(eps) for eps in sorted(eps_list, reverse=True))

    # path (ii): average the kernel first, then localize
    s_table = localization_sweep(homogenized_kernel(k), p, f, s_list, local_solution=u_bar)
    s_path = tuple(PathEntry(r.param, r.value / norm_bar, r.converged)
                   for r in s_table.rows)

    return CommuteResult(
        u_star=u_star,
        u_bar=u_bar,
        distance=lp_distance(u_star, u_bar, p),
        coefficients=coeffs,
        eps_path=eps_path,
        s_path=s_path,
        limits_converged=res_star.converged and res_bar.converged,
    )
