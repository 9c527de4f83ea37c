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
:mod:`anisofrac.homogenize`.  Its one iterate is the full node vector:
a mask marks the free nodes, the others keep their fixed values, and
every Newton direction is zero on them.  Every system it solves is
symmetric positive definite and is solved by one Cholesky factorization
of its free-node block (:func:`_spd_solve`): in place for the dense Gram
of a scheme's atoms, in band storage for the sparse, banded Gram of the
local and cell problems.  For p = 2 it assembles the system, solves it
once and reads the residual from the same matrix;
otherwise it takes Newton steps on the curvature weight
p max(p-1, 1) W |ell|^(p-2), the exact Hessian for p >= 2 and the
lagged-weight (IRLS) majorizer for p < 2, where the exact weight is
smaller by the factor p - 1 and its steps overshoot near vanishing
forms, so the solve stalls.  A backtracking (Armijo) line search on
the exact objective, evaluated as a cancellation-free difference from
L v and L d formed once per step, damps each step; the first step from
zero starts at the exact minimizer on its ray.

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

from .energy import AtomSet, check_kernel_grid, get_scheme
from .gridfn import FractionalParams, Grid, GridFunction, check_finite, lp_distance
from .kernel import Kernel
from .limits import (
    ConvergenceTable,
    LimitDensity,
    TableRow,
    _orders,
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

    The grid is the source's (finite by construction), and the scheme
    build checks the kernel-grid pair.  Solved to :data:`DEFAULT_TOL` in
    at most :data:`DEFAULT_MAX_ITER` Newton steps, like :class:`LocalProblem`.
    """

    kern: Kernel
    fp: FractionalParams
    source: GridFunction

    @property
    def grid(self) -> Grid:
        return self.source.grid

    def __post_init__(self):
        if self.fp.p <= 1.0:
            raise ValueError("the solver needs p > 1 (strict convexity)")


@dataclass(frozen=True)
class LocalProblem:
    """Local limit problem: int A(x, grad v) dx - int f v, A from ``density``.

    The grid is the source's (finite by construction), p is the density's,
    and its kernel must pair with the grid (:func:`check_kernel_grid`).
    A constant 1D coefficient A|xi|^p is the density of the constant
    kernel c = p A / 2.  For p != 2 only 1D grids are supported.
    """

    source: GridFunction
    density: LimitDensity

    @property
    def grid(self) -> Grid:
        return self.source.grid

    @property
    def p(self) -> float:
        return self.density.p

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("the solver needs p > 1 (strict convexity)")
        check_kernel_grid(self.density.kern, self.grid)
        if self.p != 2.0 and self.grid.dimension != 1:
            raise ValueError("p != 2 local solves are 1D only")


@dataclass(frozen=True)
class SolveResult:
    minimizer: GridFunction
    objective: float
    residual: float
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] = field(repr=False, default=())

    def __post_init__(self):
        check_finite("solve", objective=self.objective, residual=self.residual)
        for a, b in zip(self.objective_trace, self.objective_trace[1:]):
            if b > a:
                raise IncreasingObjectiveError(
                    f"descent produced an increasing objective ({a!r} -> {b!r})"
                )


def _free_mask(grid: Grid) -> np.ndarray:
    return ~grid.boundary().ravel()


def _spd_solve(A, b: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """x with (A + shift I) x = b for a symmetric positive definite A, by
    Cholesky.

    A dense A is C-ordered and overwritten: A.T is the same matrix in
    Fortran order, which LAPACK factors in place, with no copy.  A sparse
    A is factored in LAPACK's upper band storage, whose width kd is the
    largest col - row of its nonzeros (1 for a 1D local or cell problem,
    N - 2 for a 2D local one), at O(n kd^2) cost and with no n x n array.
    A scheme's dense Gram reaches across the grid, so its band would be
    full width, where LAPACK's band factorization is the slower one: at
    n = 1764, the free block of a 2D N = 44 grid, 84 against 70 ms
    (medians of 7, copy included, one BLAS thread, 2-vCPU host).
    Raises ``np.linalg.LinAlgError`` when A is not numerically positive
    definite.
    """
    from scipy import linalg

    if isinstance(A, np.ndarray):
        A[np.diag_indices_from(A)] += shift
        return linalg.cho_solve(
            linalg.cho_factor(A.T, overwrite_a=True, check_finite=False), b, check_finite=False
        )
    A = A.tocoo()
    upper = A.col >= A.row
    rows, cols = A.row[upper], A.col[upper]
    kd = int((cols - rows).max(initial=0))
    ab = np.zeros((kd + 1, A.shape[0]))
    ab[kd + rows - cols, cols] = A.data[upper]
    ab[kd] += shift
    return linalg.cho_solve_banded(
        (linalg.cholesky_banded(ab, overwrite_ab=True, check_finite=False), False),
        b,
        check_finite=False,
    )


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

    The iterate is the full node vector v: nodes outside the boolean mask
    ``free`` hold their values from ``fixed`` throughout, and every
    Newton direction is zero on them.  When ``atoms.p`` is 2 the
    objective is the quadratic 1/2 v.Hv - b.v of the Hessian H:
    one Cholesky solve minimizes it, and the gradient over the free
    nodes is read from the same H, with no pass over the form matrix.
    Otherwise damped Newton steps start from ``z0`` on the free nodes
    (zero by default).  Each step forms L v and L d once, and its Armijo
    trials read them.  From v = 0 (no ``z0`` and every fixed value 0)
    the objective on the ray t d is scale t^p E(d) - t b.d, E(d) =
    sum W |L d|^p, so the first search starts at min(1, t*) with
    t* = (b.d / (p scale E(d)))^(1/(p-1)), its exact minimizer.  Every
    step forms g.d and b.d from d / max|d|, and its Armijo trials scale
    them back by t max|d|; t* is formed from d / max|d| too and scaled
    back (it scales as 1/|d|).  So a large source whose b.d or E(d)
    overflows still starts on its ray and takes its steps.  Returns
    the minimizer v, the objective, the sup-norm of the gradient over
    the free nodes, the iteration count, the convergence flag and the
    objective trace.
    """
    v = np.where(free, 0.0, fixed)

    if atoms.p == 2.0:
        # Newton would take the same step from the same Hessian; the
        # right-hand side sees the fixed values alone.  The objective is
        # 1/2 v.Hv - b.v, so its gradient is H v - b exactly; its value is
        # still summed over the forms, since 1/2 v.Hv rounds differently
        H = atoms.hessian_dense()
        H *= scale
        v[free] = _spd_solve(H[np.ix_(free, free)], b[free] - (H @ v)[free])
        res = float(np.max(np.abs((H @ v - b)[free]), initial=0.0))
        del H  # the objective's forms need the memory
        f = scale * atoms.objective(v) - float(np.dot(b, v))
        return v, f, res, 1, res <= tol, (f,)

    def grad(v):
        return (scale * atoms.gradient(v) - b)[free]

    # damped Newton: direction from the reweighted form sum W |ell|^{p-2},
    # Armijo backtracking on the exact objective evaluated as a
    # cancellation-free difference
    on_ray = z0 is None and not np.any(fixed[~free])
    if z0 is not None:
        v[free] = z0
    f = scale * atoms.objective(v) - float(np.dot(b, v))
    trace = [f]
    it = 0
    g = grad(v)
    converged = float(np.max(np.abs(g), initial=0.0)) <= tol
    while not converged and it < max_iter:
        it += 1
        H = atoms.reweighted_hessian(v, 1e-10)
        Hf = H[np.ix_(free, free)]
        del H  # Hf is a copy; the solve and the line search need the memory
        Hf *= scale
        d = np.zeros(v.size)
        try:
            d[free] = _spd_solve(Hf, -g, 1e-14 * max(float(Hf.max()), 1.0))
        except np.linalg.LinAlgError:
            d[free] = -g
        del Hf
        # g.d and b.d are formed from d / max|d|, and the trials scale them
        # back by t * max|d|: a huge source makes max|d| huge, and its
        # unscaled b.d overflows although the step t d does not.  A d that
        # is no descent direction, d = 0 included (0/0), gives way to -g
        if not float(np.dot(g, d[free] / np.abs(d).max())) < 0.0:
            d[free] = -g
        norm = float(np.abs(d).max())
        gd = float(np.dot(g, d[free] / norm))
        bd = float(np.dot(b, d / norm))
        lv, ld = atoms.forms(v), atoms.forms(d)
        t = 1.0
        if on_ray and it == 1:
            # t* scales as 1/|d|: formed from d / max|d|, E stays finite
            # where E(d) overflows; a root that overflows to inf is no
            # start below 1
            ratio = bd / (atoms.p * scale * atoms.power_sum(ld, norm))
            with np.errstate(over="ignore"):
                t_unit = np.power(ratio, 1.0 / (atoms.p - 1.0))
            if t_unit < norm:
                t = float(t_unit / norm)
        accepted = False
        for _ in range(60):
            df = scale * atoms.delta(lv, ld, t) - (t * norm) * bd
            if np.isfinite(df) and df <= 1e-4 * (t * norm) * gd:
                accepted = True
                break
            t *= 0.5
        del lv, ld
        if not accepted or df > 0.0:
            break
        v[free] += t * d[free]
        f = f + df
        trace.append(f)
        g = grad(v)
        converged = float(np.max(np.abs(g), initial=0.0)) <= tol
    res = float(np.max(np.abs(g), initial=0.0))
    return v, f, res, it, converged, tuple(trace)


def _solve_dirichlet(atoms: AtomSet, scale: float, source: GridFunction) -> SolveResult:
    """Minimize scale * sum W |ell(v)|^p - int f v, boundary pinned to zero.

    The gradient tolerance is :data:`DEFAULT_TOL` * (1 + max|f|).
    """
    grid = source.grid
    b = grid.trapezoid_weights() * source.values.ravel()
    tol = DEFAULT_TOL * (1.0 + float(np.abs(source.values).max()))
    free = _free_mask(grid)
    v, objective, residual, *rest = _solve_atoms(
        atoms, scale, b, free, np.zeros(free.size), tol, DEFAULT_MAX_ITER
    )
    # an iterate that overflowed is named by its objective, not by the
    # minimizer's values
    check_finite("solve", objective=objective, residual=residual)
    return SolveResult(GridFunction(grid, v.reshape(grid.shape)), objective, residual, *rest)


def solve_nonlocal(prob: NonlocalProblem) -> SolveResult:
    """Minimize the nonlocal Dirichlet energy minus the source term.

    At p = 2 one Cholesky solve; otherwise damped Newton steps, each a
    Cholesky solve with the curvature weight p max(p-1, 1) W |ell|^(p-2):
    the exact Hessian for p >= 2, the lagged (IRLS) weight below 2, where
    the exact one overshoots.  Non-convergence returns the best iterate
    with ``converged=False``.  Raises ``ValueError`` when the objective
    or the residual is not finite (the inputs overflow double
    precision), and :class:`IncreasingObjectiveError` when the descent
    trace goes up.
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

    Same engine as :func:`solve_nonlocal`: one Cholesky solve at p = 2,
    damped Newton with the curvature weight p max(p-1, 1) otherwise;
    non-convergence returns the best iterate with ``converged=False``.
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
    s_list = _orders(s_list, toward_one=True)
    local_converged = True
    if local_solution is None:
        local = solve_local(LocalProblem(source=f, density=LimitDensity(k, p)))
        local_solution, local_converged = local.minimizer, local.converged

    def distance(s: float) -> tuple[float, bool]:
        res = solve_nonlocal(NonlocalProblem(kern=k, fp=FractionalParams(s, p), source=f))
        return lp_distance(res.minimizer, local_solution, p), res.converged

    results = [distance(s) for s in s_list]
    rows = tuple(
        TableRow(param=s, value=v, extrapolated=None, reference=0.0, rel_error=None,
                 converged=ok and local_converged)
        for s, (v, ok) in zip(s_list, results)
    )
    return ConvergenceTable(rows)
