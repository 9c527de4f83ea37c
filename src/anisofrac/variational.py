"""Variational solvers for the nonlocal and local Dirichlet problems.

The nonlocal problem minimizes

    (1-s) * iint m(x,h) |v(x)-v(x-h)|^p / |h|^{n+sp} dx dh  -  int f v

over grid functions pinned to zero on and outside the boundary; the
(1-s) scaling is the one under which the energies tend to the local
density integral, so the minimizers converge to the minimizer of

    int A(x, grad v) dx - int f v

as s -> 1.  One reweighted-Newton engine, ``_solve_atoms``, minimizes
every discrete energy of the package written as an ``AtomSet``: the
nonlocal and local problems here and the periodic cell problem of
:mod:`anisofrac.homogenize`.  It works on a free-node mask with fixed
values on the other nodes.  For p = 2 it assembles the dense symmetric
system and solves it directly; otherwise it takes Newton steps on the
lagged-weight (IRLS) Hessian with a backtracking (Armijo) line search
on the exact objective, evaluated as a cancellation-free difference.

The nonlocal discrete gradient is the derivative of the quadrature
itself: the principal-value singularity never appears because the
near-diagonal surrogate (symmetric in the offset direction) regularizes
it once and for all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .energy import AtomSet, check_grid_cap, get_scheme
from .gridfn import FractionalParams, Grid, GridFunction, lp_distance
from .kernel import Kernel
from .limits import (
    ConvergenceTable,
    LimitDensity,
    TableRow,
    _check_orders,
    default_bbm_s_list,
)

__all__ = [
    "NonlocalProblem",
    "LocalProblem",
    "SolveResult",
    "solve_nonlocal",
    "solve_local",
    "localization_sweep",
    "NotConvergedError",
    "IncreasingObjectiveError",
]

DEFAULT_TOL = 1e-8  # gradient sup-norm, relative to 1 + max|f|
DEFAULT_MAX_ITER = 10_000  # Newton steps of a p != 2 solve


class NotConvergedError(RuntimeError):
    """A solve stopped short of its tolerance (CLI exit status 3)."""


class IncreasingObjectiveError(RuntimeError):
    """A descent trace went up: a fault of the solver (CLI exit status 4)."""


@dataclass(frozen=True)
class NonlocalProblem:
    """Nonlocal Dirichlet problem on the default quadrature of (kern, grid).

    Solved to :data:`DEFAULT_TOL` in at most :data:`DEFAULT_MAX_ITER`
    Newton steps, like :class:`LocalProblem`.
    """

    kern: Kernel
    fp: FractionalParams
    grid: Grid
    source: GridFunction

    def __post_init__(self):
        if self.fp.p <= 1.0:
            raise ValueError("the solver needs p > 1 (strict convexity)")
        if self.source.grid != self.grid:
            raise ValueError("source must live on the problem grid")
        if not np.all(np.isfinite(self.source.values)):
            raise ValueError("source values must be finite")


@dataclass(frozen=True)
class LocalProblem:
    """Local limit problem: int A(x, grad v) dx - int f v, A from ``density``.

    p is the density's.  A constant 1D coefficient A|xi|^p is the
    density of the constant kernel c = p A / 2.  For p != 2 only 1D
    grids are supported.
    """

    grid: Grid
    source: GridFunction
    density: LimitDensity

    @property
    def p(self) -> float:
        return self.density.p

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("the solver needs p > 1 (strict convexity)")
        if self.density.kern.dimension != self.grid.dimension:
            raise ValueError("kernel and grid dimensions differ")
        if self.p != 2.0 and self.grid.dimension != 1:
            raise ValueError("p != 2 local solves are 1D only")
        check_grid_cap(self.grid)
        if self.source.grid != self.grid:
            raise ValueError("source must live on the problem grid")


@dataclass(frozen=True)
class SolveResult:
    minimizer: GridFunction
    objective: float
    residual: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] = field(repr=False, default=())

    def __post_init__(self):
        for a, b in zip(self.objective_trace, self.objective_trace[1:]):
            if b > a:
                raise IncreasingObjectiveError(
                    f"descent produced an increasing objective ({a!r} -> {b!r})"
                )


def _free_mask(grid: Grid) -> np.ndarray:
    return ~grid.boundary().ravel()


def _solve_atoms(
    atoms: AtomSet,
    scale: float,
    b: np.ndarray,
    free: np.ndarray,
    fixed: np.ndarray,
    tol: float,
    max_iter: int,
    z0: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, float, float, int, bool, tuple[float, ...]]:
    """Minimize scale * sum W |ell(v)|^p - b . v over the free nodes.

    Nodes outside the boolean mask ``free`` keep their values from
    ``fixed``.  When ``atoms.p`` is 2 the objective is quadratic and one
    dense direct solve minimizes it; otherwise damped Newton steps start
    from ``z0`` on the free nodes (zero by default).  Returns the full
    node vector of the minimizer, the objective, the sup-norm of the
    gradient over the free nodes, the iteration count, the convergence
    flag and the objective trace.
    """
    base = np.where(free, 0.0, fixed)

    def embed(z):
        v = base.copy()
        v[free] = z
        return v

    def embed_dir(dz):
        dv = np.zeros(base.size)
        dv[free] = dz
        return dv

    def fun(z):
        v = embed(z)
        return scale * atoms.objective(v) - float(np.dot(b, v))

    def grad(z):
        v = embed(z)
        return (scale * atoms.gradient(v) - b)[free]

    def delta(z, dz, t):
        dv = embed_dir(dz)
        return scale * atoms.delta(embed(z), dv, t) - t * float(np.dot(b, dv))

    if atoms.p == 2.0:
        # Newton would take the same step from the same Hessian with more
        # passes over L
        H = atoms.hessian_dense()
        H *= scale
        z = np.linalg.solve(H[np.ix_(free, free)], b[free] - (H @ base)[free])
        del H  # the residual's passes over L need the memory
        f = fun(z)
        res = float(np.max(np.abs(grad(z)), initial=0.0))
        return embed(z), f, res, 1, res <= tol, (f,)

    # damped Newton: direction from the reweighted form sum W |ell|^{p-2},
    # Armijo backtracking on the exact objective evaluated as a
    # cancellation-free difference
    z = np.zeros(int(free.sum())) if z0 is None else np.asarray(z0, dtype=float)
    f = fun(z)
    trace = [f]
    it = 0
    g = grad(z)
    converged = float(np.max(np.abs(g), initial=0.0)) <= tol
    while not converged and it < max_iter:
        it += 1
        H = atoms.reweighted_hessian(embed(z), 1e-10)
        H *= scale
        Hf = H[np.ix_(free, free)]
        del H  # Hf is a copy; the solve and the line search need the memory
        Hf[np.diag_indices_from(Hf)] += 1e-14 * max(float(Hf.max()), 1.0)
        try:
            d = np.linalg.solve(Hf, -g)
        except np.linalg.LinAlgError:
            d = -g
        del Hf
        gd = float(np.dot(g, d))
        if gd >= 0.0:
            d = -g
            gd = float(np.dot(g, d))
        t = 1.0
        accepted = False
        for _ in range(60):
            df = delta(z, d, t)
            if np.isfinite(df) and df <= 1e-4 * t * gd:
                accepted = True
                break
            t *= 0.5
        if not accepted or df > 0.0:
            break
        z = z + t * d
        f = f + df
        trace.append(f)
        g = grad(z)
        converged = float(np.max(np.abs(g), initial=0.0)) <= tol
    res = float(np.max(np.abs(g), initial=0.0))
    return embed(z), f, res, it, converged, tuple(trace)


def _solve_dirichlet(atoms: AtomSet, scale: float, source: GridFunction) -> SolveResult:
    """Minimize scale * sum W |ell(v)|^p - int f v, boundary pinned to zero.

    The gradient tolerance is :data:`DEFAULT_TOL` * (1 + max|f|).
    """
    grid = source.grid
    b = grid.trapezoid_weights() * source.values.ravel()
    tol = DEFAULT_TOL * (1.0 + float(np.abs(source.values).max()))
    free = _free_mask(grid)
    v, *rest = _solve_atoms(
        atoms, scale, b, free, np.zeros(free.size), tol, DEFAULT_MAX_ITER
    )
    return SolveResult(GridFunction(grid, v.reshape(grid.shape)), *rest)


def solve_nonlocal(prob: NonlocalProblem) -> SolveResult:
    """Minimize the nonlocal Dirichlet energy minus the source term.

    At p = 2 one dense direct solve; otherwise damped Newton on the
    lagged-weight Hessian.  Non-convergence returns the best iterate
    with ``converged=False``; it never raises.
    """
    atoms = get_scheme(prob.kern, prob.grid).atoms(prob.fp)
    return _solve_dirichlet(atoms, 1.0 - prob.fp.s, prob.source)


# P1 simplices of the unit cell, per dimension: corner offsets and, per
# corner, the gradient coefficients in units of 1/spacing.  In 2D the
# cell splits along its anti-diagonal into a lower and an upper triangle.
# The upper triangle's table swaps the x and y coefficients of its two
# outer corners, so on those triangles the forms mix up the two axes (see
# ROADMAP); the solve-2d benchmark references carry that table.
_SIMPLICES = {
    1: [(((1,), (0,)), ((1.0,), (-1.0,)))],
    2: [
        (((0, 0), (1, 0), (0, 1)), ((-1.0, -1.0), (1.0, 0.0), (0.0, 1.0))),
        (((1, 1), (0, 1), (1, 0)), ((1.0, 1.0), (0.0, -1.0), (-1.0, 0.0))),
    ],
}


def _local_atoms(prob: LocalProblem) -> AtomSet:
    """Simplexwise atoms of int A(x, grad v) dx.

    Each P1 simplex of each grid cell gives one atom per direction w of
    the density's angular rule: weight (vol/p) a(c, w) times the rule
    weight, a sampled at the simplex centroid c, and the form grad v . w
    of the simplex's piecewise-linear gradient.  For an isotropic
    density the 2D atoms reproduce the standard 5-point stiffness.
    """
    grid, ld, p = prob.grid, prob.density, prob.p
    dirs, w_dirs = ld._dirs, ld._weights
    n = grid.dimension
    spacing = np.array(grid.spacing)
    origin = np.array([a for a, _ in grid.box])
    vol = math.prod(grid.spacing) / math.factorial(n)
    cells = np.stack(
        np.meshgrid(*[np.arange(grid.nodes_per_axis - 1)] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)
    n_ang = dirs.shape[0]
    all_w, all_i, all_c = [], [], []
    for corners, units in _SIMPLICES[n]:
        corners = np.array(corners)
        centers = origin + spacing * (cells + corners.mean(axis=0))
        a_vals = np.asarray(
            ld.kern.radial_limit(centers[:, None, :], dirs[None, :, :]), dtype=float
        )
        all_w.append(((vol / p) * a_vals * w_dirs[None, :]).ravel())
        # node ids per (cell, corner); grad v . w per (direction, corner)
        ids = cells[:, None, :] + corners[None, :, :]
        nodes = np.ravel_multi_index(tuple(np.moveaxis(ids, -1, 0)), grid.shape)
        forms = (dirs[:, None, :] * (np.array(units) / spacing)).sum(axis=-1)
        shape = (cells.shape[0], n_ang, len(corners))
        all_i.append(np.broadcast_to(nodes[:, None, :], shape).reshape(-1, len(corners)))
        all_c.append(np.broadcast_to(forms, shape).reshape(-1, len(corners)))
    return AtomSet.from_stencil(
        np.concatenate(all_w),
        np.concatenate(all_i, axis=0),
        np.concatenate(all_c, axis=0),
        math.prod(grid.shape),
        p,
    )


def solve_local(prob: LocalProblem) -> SolveResult:
    """Minimize int A(x, grad v) dx - int f v over pinned grid functions.

    Same engine as :func:`solve_nonlocal`: one direct solve at p = 2,
    damped Newton otherwise; non-convergence returns the best iterate
    with ``converged=False``.
    """
    return _solve_dirichlet(_local_atoms(prob), 1.0, prob.source)


def localization_sweep(
    k: Kernel,
    p: float,
    f: GridFunction,
    s_list: Optional[Sequence[float]] = None,
    local_solution: Optional[GridFunction] = None,
) -> ConvergenceTable:
    """Distance of the nonlocal minimizers to the local one as s -> 1.

    Rows hold (s, ||u_s - u||_p) with reference 0; the tail of the table
    should trend down.  ``s_list=None`` means
    :func:`~anisofrac.limits.default_bbm_s_list`.  A row's ``converged``
    flag is False when its nonlocal solve, or the local solve, stopped
    short of its tolerance.  ``local_solution`` overrides the local solve
    (used by the homogenization experiment to compare against effective
    problems).  The nonlocal solves run one after another on the one
    cached scheme of (k, grid).
    """
    s_list = list(s_list) if s_list is not None else default_bbm_s_list()
    _check_orders(s_list, toward_one=True)
    grid = f.grid
    local_converged = True
    if local_solution is None:
        ld = LimitDensity(k, p)
        local = solve_local(LocalProblem(grid=grid, source=f, density=ld))
        local_solution, local_converged = local.minimizer, local.converged

    def distance(s: float) -> tuple[float, bool]:
        res = solve_nonlocal(
            NonlocalProblem(kern=k, fp=FractionalParams(s, p), grid=grid, source=f)
        )
        return lp_distance(res.minimizer, local_solution, p), res.converged

    results = [distance(s) for s in s_list]
    rows = tuple(
        TableRow(param=s, value=v, extrapolated=None, reference=0.0, rel_error=None,
                 converged=ok and local_converged)
        for s, (v, ok) in zip(s_list, results)
    )
    return ConvergenceTable(rows)
