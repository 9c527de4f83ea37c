"""Quadrature of anisotropic fractional energies.

The double integral

    I(u) = iint m(x, h) |u(x) - u(x-h)|^p / |h|^{n+sp} dx dh

over all of space is reduced to the grid box: the pair swap
(x, h) -> (x-h, -h) leaves the integrand invariant once m is replaced by
its symmetrized version, and pairs whose second leg falls outside the
box contribute |u(x)|^p a second time.  The inner offset integral is
done in polar form on a geometric radius ladder:

    near   r < h_min          first-order surrogate a(x,w)|grad u . w|^p,
                              integrated in r analytically
    bulk   h_min..h_split     trapezoid in log r, piecewise-linear u
                              evaluated at the shifted points
    tail   h_split..h_max     supports of u and its shift are disjoint,
                              so only |u(x)|^p enters: far rungs of
                              the same ladder, with no rows of L
           beyond h_max       closed-form remainder from the kernel's
                              declared large-offset limit (bracketed by
                              the bounds when no limit is declared)

``value = near_diagonal + bulk + tail`` holds bit-exactly (single fixed
summation order).  ``error_bound`` collects the surrogate remainder, the
ladder second-difference estimates, the angular-rule residual and the
far bracket width.

The discrete energy is written down once, as one family of linear forms
of the node values that does not depend on (s, p):

    near forms   D_w v(x)            one-sided slope, per (angle, node)
    bulk forms   v(x) - v(x - r w)   multilinear interpolation, per
                                     (rung, angle, node) while x - r w
                                     stays in the box
    tail forms   v(x)                per node

Each near and bulk form carries a base weight, and its weight at (s, p)
is its base times a factor: the near factor, or for a bulk form that of
its label, 2 * rung + the parity of its angle.  The bulk forms of one
(rung, angle) are one run of rows, so the scheme keeps a label and a
row count per (rung, angle), not per form.  Every pair that has no form
is a |v(x)|^p term with a doubled weight (v vanishes at the far point,
and the pair swap counts the mirrored pair a second time): a bulk pair
whose shifted point has left the box, every pair of a far rung, and the
remainder beyond h_max.  Their weights form one table, ``outside_w``,
with a row per node and a column per label, and the tail form of x
weighs ``outside_w[x] @ factor``.  One method gives every label's
factor and the near factor (:meth:`EnergyScheme.label_factors`).

All bulk forms of one (rung, angle) are one interpolation stencil shifted
node by node over a box of nodes, and :class:`EnergyScheme` keeps them as
that: a cell shift, corner factors and a node box per (rung, angle).  A
report reads the forms from these tables, rung by rung, as sums of
shifted copies of the node array (:meth:`EnergyScheme._bulk_forms`); the
near forms are the gradient stencil summed over its slots
(:meth:`EnergyScheme._near_forms`) and the tail forms are v itself.
Then come a sum by label, in row order, and one product with
``outside_w``.  :meth:`EnergyScheme.atoms` hands the forms with the
weights of one (s, p) to the solvers.  Their Hessian is the Gram matrix
``L^T diag(2 w) L``, which the scheme assembles from the same stencil
tables, without a sparse product over the bulk rows: a diagonal, a
node-corner cross term read as windows of one sparse x dense product,
and per-cell corner blocks, each corner pair added along one diagonal
of the Gram (:meth:`EnergyScheme._gram`).  Their objective
reads every form, near, bulk and tail, into one array
(:meth:`EnergyScheme.forms`).  So a p = 2 solve, one Gram and one dense
solve, never needs the forms as a matrix.  The gradient ``L^T (...)``
and the line search of a p != 2 solve pass over the forms many times,
and there the CSR matrix :attr:`EnergyScheme.L` (one column per node,
one row per form) is faster: the stencil forms cost about 2x its
product in 2D and 8-9x in 1D.  The near rows, and atom sets that are
not a scheme's (local atoms, the cell problem), take one sparse product
``L^T diag(2 w) L`` each.  The near rows' product is written into the
scheme's dense Gram; that of the other sets is their Gram, kept in CSR:
its forms couple the corners of one cell, so it is banded, and the
solvers factor its free-node block in band storage.

``scipy.sparse`` is imported only where a sparse matrix is built or
multiplied: a stencil's CSR (:func:`_stencil_csr`, for the near rows'
``_near_L`` and :meth:`AtomSet.from_stencil`), :attr:`EnergyScheme.L`,
the Gram's cross table (:meth:`EnergyScheme._stencil`) and the single
product :func:`_gram_product`.  So a report, a sweep and a kernel audit
never load it, and a solve loads it at its first Gram.

Cost model: the scheme samples the kernel on a (rungs x angles x nodes)
lattice, bulk and far rungs alike, and there is one bulk form per
lattice point whose shifted point stays in the box.  The build loops
over blocks of whole rungs (two at 1D N = 257, a rung each at 2D N = 33),
read through the box mask in the layout of their bulk rows, with no
transposed copy.  In 1D this is ~1e5 forms for N = 257; in 2D it grows
like N^2 * rungs * angles (1.75M bulk forms at N = 33, whose rows of ``L``
hold 8.3M nonzeros, 107 MB), which is why 2D grids are capped at
N <= 48 (:data:`MAX_2D_NODES`).  A build samples the kernel and keeps one
base weight per form; it writes no row of ``L``, and neither do
``atoms``, a report or a p = 2 solve.  Writing the bulk rows, one (rung,
angle) stencil at a time, falls in the first gradient of a p != 2
solve, so perfbench's per-layer trace counts it in ``accel.gradient``.
A report allocates only temporaries of about ``_SLICE_ROWS`` (rung,
angle, node) points, one block of rungs at a time; the objective's
forms are one row-length array.  For the separable-angular kernel on a
2-vCPU host (numpy, BLAS on one thread, medians of 8, four rounds): at
N = 33 a build took 56-93 ms, a report 37-55 ms and the assembly of
``L`` 78-118 ms; at N = 44 they took 94-113 ms, 67-72 ms and 136-166 ms.
One build and one report trace 22 MB at N = 33 and 41 MB at N = 44
(175 and 337 MB when the build wrote ``L``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._sphere import sphere_measure, sphere_rule
from .gridfn import FractionalParams, Grid, GridFunction, check_finite
from .kernel import Kernel, builtin, symmetrize

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "QuadratureSettings",
    "QuadratureRecord",
    "EnergyReport",
    "EnergyScheme",
    "AtomSet",
    "MAX_2D_NODES",
    "check_kernel_grid",
    "gagliardo",
    "anisotropic_energy",
]

_FAR_OCTAVES = 10  # length of the far ladder beyond h_split
_GRAM_ROWS = 250_000  # (rung-angle, node) pairs per block of the stencil Gram
_SLICE_ROWS = 65_536  # rows of L, or kernel samples, per slice of an elementwise pass
MAX_2D_NODES = 48  # nodes per axis of a 2D grid (see the cost model above)


def check_kernel_grid(kern: Kernel, grid: Grid) -> None:
    """Reject a kernel and a grid of different dimensions, and a 2D grid
    with more than :data:`MAX_2D_NODES` nodes per axis."""
    if kern.dimension != grid.dimension:
        raise ValueError("kernel and grid dimensions differ")
    if grid.dimension == 2 and grid.nodes_per_axis > MAX_2D_NODES:
        raise ValueError(
            f"2D grids are capped at N <= {MAX_2D_NODES} per axis, "
            f"got N = {grid.nodes_per_axis}"
        )


@dataclass(frozen=True)
class QuadratureSettings:
    """Construction parameters of :class:`EnergyScheme`.

    The ladder ratio is 2**(1/points_per_octave) and h_min is (grid
    spacing) * h_min_fraction.  h_split is not a setting: it is always
    twice the box diameter, beyond which the shifted support of every
    admissible function has left the box.  ``angular_points`` is the
    size of the circle rule in 2D; in 1D the sphere is the two points
    +-1 whatever its value.
    """

    points_per_octave: int = 8
    h_min_fraction: float = 0.125
    angular_points: int = 32


@dataclass(frozen=True)
class QuadratureRecord:
    h_min: float
    h_split: float
    h_max: float
    points: int


@dataclass(frozen=True)
class EnergyReport:
    """Energy value, ``near_diagonal + bulk + tail``, with its split and error estimate."""

    near_diagonal: float
    bulk: float
    tail: float
    error_bound: float
    quadrature_settings: QuadratureRecord

    @property
    def value(self) -> float:
        return self.near_diagonal + self.bulk + self.tail

    def __post_init__(self):
        check_finite("energy", value=self.value)
        if not 0.0 <= self.error_bound < math.inf:
            raise ValueError(
                f"energy error bound {self.error_bound!r} is not in [0, inf): "
                "the inputs overflow double precision"
            )


def power_delta(a, e, p):
    """|a + e|^p - |a|^p elementwise, cancellation-free for small e.

    This is what lets the line search certify decreases far below
    eps * |objective|.  It allocates several arrays of the size of its
    arguments; :meth:`AtomSet.delta` calls it on slices.
    """
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, e.shape))
    a, e = np.broadcast_arrays(a, e)
    zero_a = a == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(zero_a, 0.0, e / np.where(zero_a, 1.0, a))
    small = (~zero_a) & (np.abs(r) < 0.5)
    out[small] = np.abs(a[small]) ** p * np.expm1(p * np.log1p(r[small]))
    rest = ~small
    out[rest] = np.abs(a[rest] + e[rest]) ** p - np.abs(a[rest]) ** p
    return out


class AtomSet:
    """The discrete energy sum_a W_a |(L v)_a|^p of a CSR form matrix L.

    The atoms of an :class:`EnergyScheme` (``scheme``) are given no
    matrix: their objective reads the forms from the scheme's stencil
    tables (:meth:`EnergyScheme.forms`) and their Gram Hessian is
    assembled from its bulk stencil, so only the gradient, the line
    search and the reweighted Hessian of a p != 2 solve read :attr:`L`,
    the scheme's, assembled on that first use.
    """

    def __init__(
        self,
        weights,
        L: Optional[sparse.csr_matrix],
        p,
        scheme: Optional[EnergyScheme] = None,
    ):
        self.W = np.ascontiguousarray(weights, dtype=float)
        rows = L.shape[0] if L is not None else scheme.base.shape[0]
        if self.W.shape != (rows,):
            raise ValueError("need one weight per row of the form matrix")
        self._L = L
        self.p = float(p)
        self.scheme = scheme

    @property
    def L(self) -> sparse.csr_matrix:
        """The form matrix: the one given, else the scheme's :attr:`EnergyScheme.L`."""
        return self._L if self._L is not None else self.scheme.L

    @classmethod
    def from_stencil(cls, weights, idx, coef, n_nodes: int, p) -> "AtomSet":
        """Atoms W_a |sum_k coef[a, k] v[idx[a, k]]|^p; zero slots are dropped."""
        return cls(weights, _stencil_csr(idx, coef, n_nodes), p)

    def __len__(self):
        return self.W.shape[0]

    def forms(self, v: np.ndarray) -> np.ndarray:
        """The linear forms ell_a(v), one per atom."""
        return self.L @ v

    def objective(self, v: np.ndarray) -> float:
        a = self.scheme.forms(v) if self.scheme is not None else self.forms(v)
        np.abs(a, out=a)
        a **= self.p
        return float(np.dot(self.W, a))

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """L^T (p W |ell|^(p-2) ell), formed on slices of ``_SLICE_ROWS``
        rows that write over L v, the only row-length array."""
        ell = self.forms(v)
        for lo in range(0, ell.shape[0], _SLICE_ROWS):
            rows = slice(lo, lo + _SLICE_ROWS)
            coeff = np.abs(ell[rows])
            # |ell|^(p-2) * ell is 0 at ell = 0 for p > 1; where= never
            # evaluates the 0**negative case
            np.power(coeff, self.p - 2.0, out=coeff, where=coeff > 0.0)
            coeff *= ell[rows]
            coeff *= self.W[rows]
            coeff *= self.p
            ell[rows] = coeff
        return self.L.T @ ell

    def delta(self, a: np.ndarray, e: np.ndarray, t: float) -> float:
        """objective(v + t d) - objective(v), cancellation-free, from the
        forms a = L v and e = L d.

        :func:`power_delta` runs on slices of ``_SLICE_ROWS`` rows, so a
        call allocates nothing of row length and leaves a and e as they
        are: a line search forms L v and L d once for all its trials.
        The sum runs slice by slice.
        """
        total = 0.0
        for lo in range(0, a.shape[0], _SLICE_ROWS):
            rows = slice(lo, lo + _SLICE_ROWS)
            total += float(np.dot(self.W[rows], power_delta(a[rows], t * e[rows], self.p)))
        return total

    def power_sum(self, e: np.ndarray, unit: float) -> float:
        """sum W |e / unit|^p of the forms e, on slices of ``_SLICE_ROWS`` rows.

        The division runs slice by slice, so a sum whose unscaled terms
        would overflow is formed without a scaled copy of e.
        """
        total = 0.0
        for lo in range(0, e.shape[0], _SLICE_ROWS):
            rows = slice(lo, lo + _SLICE_ROWS)
            total += float(np.dot(self.W[rows], np.abs(e[rows] / unit) ** self.p))
        return total

    def reweighted_hessian(self, v: np.ndarray, floor: float) -> np.ndarray | sparse.csr_matrix:
        """SPD model (c/2) sum W max(|ell|, f)^{p-2} * 2 ell ell^T,
        c = p max(p-1, 1), in the form of :meth:`_gram`.

        The floor f is ``floor`` times max(max |ell|, 1), so one product
        L v serves both.  For p >= 2 this is the exact Hessian, c = p (p-1),
        up to the floor.  For p < 2 it is the lagged-weight (IRLS)
        majorizer, c = p: the exact factor p (p-1) is smaller there, and
        its steps overshoot near vanishing forms, so a solve stalls (a
        p = 1.25 cell problem stood at residual 0.5 after 50 steps, against
        1e-8 with c = p).  The floor on |ell| keeps it positive definite.
        """
        w = self.forms(v)
        np.abs(w, out=w)
        np.maximum(w, floor * max(float(w.max()), 1.0), out=w)
        w **= self.p - 2.0
        w *= self.W
        w *= self.p * max(self.p - 1.0, 1.0) / 2.0
        return self._gram(w)

    def hessian_dense(self) -> np.ndarray | sparse.csr_matrix:
        """The p = 2 Hessian L^T diag(2 W) L, in the form of :meth:`_gram`.

        It is dense only for a scheme's atoms; the name stays because
        perfbench's tracer wraps it (``perfbench/tracing.py``).
        """
        if self.p != 2.0:
            raise ValueError("the Gram of W is the Hessian only at p = 2")
        return self._gram(self.W)

    def _gram(self, w: np.ndarray) -> np.ndarray | sparse.csr_matrix:
        """L^T diag(2 w) L: dense from the bulk stencil for a scheme's atoms,
        else the CSR of the single sparse product (:func:`_gram_product`).

        The form picks the factorization (:func:`anisofrac.variational._spd_solve`):
        the scheme's Gram couples a node with every node in reach of its
        rungs, while the other sets' forms (local atoms, the cell
        problem) couple the corners of one cell, so their Gram is banded.
        """
        if self.scheme is not None:
            return self.scheme._gram(w)
        return _gram_product(self.L, w)


def _stencil_csr(idx, coef, n_cols: int) -> sparse.csr_matrix:
    """The rows sum_k coef[a, k] v[idx[a, k]] as one CSR matrix, without
    the slots of coefficient 0."""
    from scipy import sparse

    coef = np.asarray(coef, dtype=float)
    keep = coef != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_matrix(
        (coef[keep], np.asarray(idx)[keep], indptr), shape=(coef.shape[0], n_cols)
    )


def _gram_product(L: sparse.csr_matrix, w: np.ndarray) -> sparse.csr_matrix:
    """L^T diag(2 w) L as one sparse product of L^T and L scaled, in CSR.

    ``scaled`` shares the index arrays of L; its data is each row's data
    of L times 2 w.  The product of the CSC L^T and ``scaled`` is CSC; it
    is returned in CSR, whose rows the solvers' free-node block takes and
    whose dense form is in C order, which the row-block adds of
    :meth:`EnergyScheme._gram` run faster on.
    """
    from scipy import sparse

    data = np.repeat(2.0 * w, np.diff(L.indptr))
    data *= L.data
    scaled = sparse.csr_matrix((data, L.indices, L.indptr), shape=L.shape)
    return (L.T @ scaled).tocsr()


def _resolve_geometry(grid: Grid, settings: QuadratureSettings):
    """h_min, h_split, h_max and the bulk and far radius ladders."""
    spacing = min(grid.spacing)
    h_min = spacing * settings.h_min_fraction
    h_split = 2.0 * grid.diameter
    if not 0.0 < h_min < h_split:
        raise ValueError("need 0 < h_min < h_split")
    dt = math.log(2.0) / settings.points_per_octave
    n_bulk = max(2, int(math.ceil(math.log(h_split / h_min) / dt)) + 1)
    t_bulk = np.linspace(math.log(h_min), math.log(h_split), n_bulk)
    n_far = max(2, _FAR_OCTAVES * settings.points_per_octave + 1)
    h_max = h_split * 2.0 ** _FAR_OCTAVES
    t_far = np.linspace(math.log(h_split), math.log(h_max), n_far)
    return h_min, h_split, h_max, np.exp(t_bulk), np.exp(t_far)


def _trapz_factors(n: int) -> np.ndarray:
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    return c


class EnergyScheme:
    """s-independent quadrature: the linear forms and their base weights.

    Built once per (kernel, grid, settings); reports and atom sets for
    any (s, p) reuse the forms' stencil tables, their base weights and
    the node table ``outside_w`` of the pairs without a form, which is
    what makes the parameter sweeps affordable.  Reports and the
    objective of atom sets read the forms from the tables (:meth:`forms`),
    and the form matrix :attr:`L` is assembled only when a p != 2 solve
    first passes over it.  Labels and bulk row counts are kept per (rung,
    angle), ``_labels`` and ``_counts``; no table holds one per form.
    The radius ladder ``radii`` is the bulk rungs ``r_bulk`` followed by
    the far rungs ``r_far``, with their trapezoid weights in log r in
    ``rung_dt``.  The plain Gagliardo seminorm is the scheme of the
    constant kernel c = 1.  The package always uses
    the default settings (through :func:`get_scheme`); other settings
    serve refinement studies.
    """

    def __init__(
        self,
        kern: Kernel,
        grid: Grid,
        settings: QuadratureSettings = QuadratureSettings(),
    ):
        check_kernel_grid(kern, grid)
        self.kern = kern
        self.grid = grid
        n = grid.dimension
        self.h_min, self.h_split, self.h_max, self.r_bulk, self.r_far = _resolve_geometry(
            grid, settings
        )
        self.dt = math.log(self.r_bulk[1] / self.r_bulk[0])
        self.dt_far = math.log(self.r_far[1] / self.r_far[0])
        self.radii = np.concatenate([self.r_bulk, self.r_far])
        self.rung_dt = np.concatenate([
            self.dt * _trapz_factors(self.r_bulk.shape[0]),
            self.dt_far * _trapz_factors(self.r_far.shape[0]),
        ])
        self.dirs, self.w_dirs = sphere_rule(n, settings.angular_points)
        self.nodes = grid.nodes()
        self.w_x = grid.trapezoid_weights()
        # the weight both builds sample: 0.5*(m(x,h) + m(x-h,-h))
        self._msym = symmetrize(kern).evaluate

        # radial limit at the nodes (near surrogate weight)
        self.a_vals = np.asarray(
            kern.radial_limit(self.nodes[:, None, :], self.dirs[None, :, :]),
            dtype=float,
        )

        self._build_operator()

    # -- the form matrix ----------------------------------------------------

    def _build_operator(self):
        """The stencil tables and base weights of the forms, and ``outside_w``.

        Forms, in the row order of :attr:`L`: near (angle-major), then bulk
        in (rung, angle, node) order, then tail.  Labels: 2 * rung + angle
        parity over the bulk and far rungs, then the remainder beyond
        h_max; these are the columns of ``outside_w``.  The bulk forms of
        (rung j, angle k) are one run of ``_counts[j, k]`` rows with label
        ``_labels[j, k]``.  A tail form has base 0: its weight is its
        node's row of ``outside_w`` at the factors of (s, p).  ``rem_hw``
        is the last octave's largest deviation from the tail limit, per
        node, which brackets the remainder.

        For rung j and angle k, x - r_j w_k lies in the cell of the node
        x + m_jk with corner factors phi_jk at every node x, so the bulk
        form of (j, k) at x is v(x) + sum_c phi_jk,c v(x + m_jk + c) over
        the corners c with a nonzero factor (axis 0's factors carry the
        minus sign).  A shift within rounding of a node line is snapped
        onto it, so its upper corner has factor 0 and is left out.  The
        nodes whose shifted point stays in the box form a box per (j, k),
        ``_box_lo`` plus ``range(_box_len)`` along each axis; the pairs of
        the other nodes, and every pair of a far rung, go to ``outside_w``.
        The near forms are kept as the gradient stencil's node indices and
        coefficients, ``_near_idx`` and ``_near_coef``.  No row of a matrix
        is written here: reports read the near forms from the stencil
        (:meth:`_near_forms`) and the bulk forms from these tables
        (:meth:`_bulk_forms`), and :attr:`L` assembles the rows.

        The symmetrized kernel is sampled on a (rung, angle, node) lattice,
        x = node and h = r_j w_k, and the loop runs once per block of whole
        rungs (127 at 1D N = 257, one at 2D N = 33), in the layout of
        :meth:`_inside` and of their bulk rows: the base weights are w_k
        w_x msym read through the mask of the block's bulk rungs, and the
        same array, box entries zeroed, sums per rung over the even angles,
        then the odd ones, in angle order, into the rung's two columns,
        doubled once at the end (exact).  ``rem_hw`` is contracted with
        ``w_dirs`` node-major, as a (node, angle) matrix.
        """
        grid = self.grid
        n = grid.dimension
        n_nodes = self.nodes.shape[0]
        n_ang = self.dirs.shape[0]
        n_bulk = self.r_bulk.shape[0]
        n_rungs = self.radii.shape[0]

        q = -self.r_bulk[:, None, None] * self.dirs[None, :, :] / np.array(grid.spacing)
        near = np.round(q)
        q = np.where(np.isclose(q, near, rtol=1e-12, atol=1e-12), near, q)
        shift = np.floor(q)
        phi = np.ones((n_bulk, n_ang, 1))
        for axis in range(n):
            t = q[:, :, axis, None] - shift[:, :, axis, None]
            f = (-(1.0 - t), -t) if axis == 0 else (1.0 - t, t)
            phi = np.concatenate([phi * f[0], phi * f[1]], axis=2)
        # per axis, whether the shifted coordinate stays in [a, b], as a
        # (rung, node index, angle) table: an interval of node indices, as
        # the coordinate grows with the node
        insides = []
        for x, (a, b), w_a in zip(grid.axes(), grid.box, self.dirs.T):
            y = x[None, :, None] - self.r_bulk[:, None, None] * w_a[None, None, :]
            insides.append((y >= a) & (y <= b))
        self._shift = shift.astype(np.int64)
        self._phi = phi
        self._box_lo = np.stack([ins.argmax(axis=1) for ins in insides], axis=2)
        self._box_len = np.stack([ins.sum(axis=1) for ins in insides], axis=2)
        self._counts = counts = self._box_len.prod(axis=2)
        self._labels = 2 * np.arange(n_bulk)[:, None] + np.arange(n_ang) % 2

        # near forms: a(x, w) |D_w v(x)|^p
        self._near_idx, self._near_coef = self._gradient_stencil()
        n_near = n_ang * n_nodes
        n_rows = n_near + int(counts.sum()) + n_nodes
        base = np.empty(n_rows)
        base[:n_near] = (self.w_dirs[:, None] * self.a_vals.T * self.w_x[None, :]).ravel()

        # mu: the large-offset limit of the symmetrized weight per (node,
        # angle), or the middle of the bounds when the kernel declares none
        if self.kern.tail_limit is not None:
            x, w = self.nodes[:, None, :], self.dirs[None, :, :]
            mu = 0.5 * (np.asarray(self.kern.tail_limit(x, w), dtype=float)
                        + np.asarray(self.kern.tail_limit(x, -w), dtype=float))
        else:
            lo, hi = self.kern.bounds
            mu = np.full((n_nodes, n_ang), 0.5 * (lo + hi))
        self.outside_w = np.empty((n_nodes, 2 * n_rungs + 1))
        self.outside_w[:, -1] = 2.0 * self.w_x * (mu @ self.w_dirs)

        # bulk forms: msym |v(x) - v(x - r w)|^p; the nodes outside the box
        # of (j, k), and all nodes on a far rung, add 2 msym to outside_w
        row = n_near
        wkx = self.w_dirs[:, None] * self.w_x[None, :]
        first_last = int(np.count_nonzero(self.radii < self.radii[-1] / 2.0))
        hw = np.zeros((n_ang, n_nodes))
        # about _SLICE_ROWS samples a block: few calls in 1D, small temporaries in 2D
        rungs = max(1, _SLICE_ROWS // (n_nodes * n_ang))
        for j in range(0, n_rungs, rungs):
            stop = min(j + rungs, n_rungs)
            h = self.radii[j:stop, None, None, None] * self.dirs[None, :, None]
            ms = self._msym(self.nodes[None, None], h)
            for m in ms[max(first_last - j, 0):]:  # the block's last-octave rungs
                np.maximum(hw, np.abs(m - mu.T), out=hw)
            mw = np.multiply(wkx, ms, out=ms)
            nb = min(stop, n_bulk) - j  # bulk rungs of the block
            if nb > 0:
                inside = self._inside(slice(j, j + nb)).reshape(nb, n_ang, -1)
                rows = slice(row, row + int(counts[j:j + nb].sum()))
                base[rows] = mw[:nb][inside]
                mw[:nb][inside] = 0.0
                row = rows.stop
            self.outside_w[:, 2 * j:2 * stop:2] = mw[:, 0::2].sum(axis=1).T
            self.outside_w[:, 2 * j + 1:2 * stop:2] = mw[:, 1::2].sum(axis=1).T
        # every pair without a form counts twice; doubling is exact
        self.outside_w[:, :-1] *= 2.0

        # tail forms: v(x), weighted by outside_w
        base[row:] = 0.0
        # contracted node-major, as an (angle, node) product rounds otherwise
        self.rem_hw = np.ascontiguousarray(hw.T) @ self.w_dirs

        self.base = base
        self.near_rows = slice(0, n_near)
        self.tail_rows = slice(row, n_rows)

    def _inside(self, j, cell: bool = False) -> np.ndarray:
        """Whether each node lies in the box of (rung j, angle k), per angle
        k: shape ``(n_ang,) + grid.shape``, or ``(rungs, n_ang) +
        grid.shape`` for a slice j of rungs.  Row-major, the nodes of (j, k)
        are those of its bulk forms, in the order of their rows.  With
        ``cell`` the box is shifted by m_jk: the cells of the same rows."""
        n, N = self.grid.dimension, self.grid.nodes_per_axis
        node = np.arange(N)
        inside = True
        for axis in range(n):
            lo = self._box_lo[j, :, axis, None]
            if cell:
                lo = lo + self._shift[j, :, axis, None]
            ins = (node >= lo) & (node < lo + self._box_len[j, :, axis, None])
            inside = inside & ins.reshape(ins.shape[:-1] + (1,) * axis + (N,)
                                          + (1,) * (n - axis - 1))
        return inside

    @cached_property
    def L(self) -> sparse.csr_matrix:
        """The forms as one CSR matrix, one column per node, assembled on
        first use: only the gradient, line search and reweighted Hessian
        of a p != 2 solve (:class:`AtomSet`) read it.

        Rows as in :meth:`_build_operator`: the rows of ``_near_L``, then
        per (rung, angle) the stencil's columns x and x + m_jk + c and its
        coefficients 1 and phi_jk,c written at every node x of its box,
        then one row v(x) per node.
        """
        from scipy import sparse

        n, N = self.grid.dimension, self.grid.nodes_per_axis
        n_bulk, n_ang = self._shift.shape[:2]
        near = self._near_L
        n_near, n_nodes = near.shape
        n_rows = self.base.shape[0]
        # per (rung, angle), the column offsets from x and the coefficients
        # of a row: v(x) first, then the corners with a nonzero factor
        corners = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        offsets = np.concatenate(
            [np.zeros((n_bulk, n_ang, 1), dtype=np.int64),
             (self._shift[:, :, None, :] + corners) @ (N ** np.arange(n - 1, -1, -1))],
            axis=2,
        )
        coefs = np.concatenate([np.ones((n_bulk, n_ang, 1)), self._phi], axis=2)
        order = np.argsort(coefs == 0.0, axis=2, kind="stable")
        offsets = np.take_along_axis(offsets, order, axis=2)
        coefs = np.take_along_axis(coefs, order, axis=2)
        widths = np.count_nonzero(coefs, axis=2)

        pos = near.nnz
        nnz = pos + int((self._counts * widths).sum()) + n_nodes
        data = np.empty(nnz)
        indices = np.empty(nnz, dtype=np.int32)
        indptr = np.empty(n_rows + 1, dtype=np.int32)
        data[:pos] = near.data
        indices[:pos] = near.indices
        indptr[:n_near] = near.indptr[:-1]
        row = n_near
        for j in range(n_bulk):
            inside = self._inside(j).reshape(n_ang, -1)
            for k in range(n_ang):
                x = np.flatnonzero(inside[k])
                w = widths[j, k]
                end = pos + x.size * w
                indices[pos:end].reshape(-1, w)[:] = x[:, None] + offsets[j, k, :w]
                data[pos:end].reshape(-1, w)[:] = coefs[j, k, :w]
                indptr[row:row + x.size] = np.arange(pos, end, w)
                pos = end
                row += x.size
        indptr[row:n_rows] = pos + np.arange(n_nodes)
        indptr[n_rows] = nnz
        data[pos:] = 1.0
        indices[pos:] = np.arange(n_nodes)
        return sparse.csr_matrix((data, indices, indptr), shape=(n_rows, n_nodes))

    @cached_property
    def _near_L(self) -> sparse.csr_matrix:
        """The near forms as one CSR matrix, the gradient stencil without its
        zero slots, built on first use: only :attr:`L` and :meth:`_gram`
        read it."""
        return _stencil_csr(self._near_idx, self._near_coef, self.nodes.shape[0])

    def _gradient_stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows of D_w v(x_i), angle-major: one-sided slopes toward -w.

        Returns node indices and coefficients, shape (n_ang * n_nodes,
        1 + n); slots of neighbors outside the grid (zero ghosts) and of
        zero direction components carry coefficient 0.
        """
        N = self.grid.nodes_per_axis
        shape = self.grid.shape
        n_nodes = self.nodes.shape[0]
        n = self.grid.dimension
        axis_index = np.unravel_index(np.arange(n_nodes), shape)
        idx = np.zeros((self.dirs.shape[0], n_nodes, 1 + n), dtype=np.int32)
        coef = np.zeros((self.dirs.shape[0], n_nodes, 1 + n))
        idx[:, :, 0] = np.arange(n_nodes)
        # per axis the limit is exactly |w_axis|/h * (v_center - v_neighbor)
        # with the neighbor on the -sign(w_axis) side: flipping the
        # direction component also flips which neighbor enters
        for k, w in enumerate(self.dirs):
            for axis, h in enumerate(self.grid.spacing):
                if w[axis] == 0.0:
                    continue
                nb = list(axis_index)
                nb[axis] = nb[axis] + (-1 if w[axis] > 0 else 1)
                ok = (nb[axis] >= 0) & (nb[axis] < N)
                flat = np.ravel_multi_index(nb, shape, mode="clip")
                coef[k, :, 0] += abs(w[axis]) / h
                idx[k, ok, 1 + axis] = flat[ok]
                coef[k, ok, 1 + axis] = -abs(w[axis]) / h
        return idx.reshape(-1, 1 + n), coef.reshape(-1, 1 + n)

    # -- reporting ----------------------------------------------------------

    def _near_forms(self, v: np.ndarray) -> np.ndarray:
        """The near forms of the node vector v: ``_near_L @ v`` up to the sign
        of a zero form.  Each row sums its stencil slots in order, as the
        CSR product sums its entries; a slot of coefficient 0, which the
        CSR drops, adds a zero."""
        return (self._near_coef * v[self._near_idx]).sum(axis=1)

    def _bulk_forms(self, v: np.ndarray):
        """Yield ``(rungs, rows, forms)`` per block of bulk rungs: the bulk
        forms of :attr:`L`'s rows ``rows``, equal to ``(L @ v.ravel())[rows]``
        bit for bit, read from the stencil tables.

        ``v`` is the node array in the grid's shape.  The forms v(x) +
        sum_c phi_jk,c v(x + m_jk + c) are formed at every (rung, angle,
        node) of the slice ``rungs`` at once: v, then per corner c in
        order its factor times v shifted by m_jk + c, gathered from a
        window view of v padded with zeros.  A corner of factor 0 adds an
        exact zero, so the sum rounds as the row's entries do.  The box
        nodes of each (rung, angle), in that order and row-major, are the
        rows.  A block holds whole rungs of about ``_SLICE_ROWS`` (rung,
        angle, node) points, as the build's kernel samples do.
        """
        n, N = self.grid.dimension, self.grid.nodes_per_axis
        n_bulk, n_ang = self._shift.shape[:2]
        corners = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        # view o of the padded array is v shifted by o - (N - 1); a nonempty
        # box has |m_jk| < N, so its corners reach o in [0, 2N]
        views = np.lib.stride_tricks.sliding_window_view(np.pad(v, (N - 1, N + 1)), v.shape)
        view_of = np.moveaxis(
            np.clip(self._shift[:, :, None, :] + corners + (N - 1), 0, 2 * N), 3, 0
        )
        phi = self._phi.reshape(self._phi.shape + (1,) * n)
        counts = self._counts.sum(axis=1)
        block = max(1, _SLICE_ROWS // (n_ang * v.size))
        row = self.near_rows.stop
        for j in range(0, n_bulk, block):
            rungs = slice(j, min(j + block, n_bulk))
            n_rows = int(counts[rungs].sum())
            if n_rows == 0:
                continue
            forms = v
            for c in range(corners.shape[0]):
                shifted = views[tuple(view_of[:, rungs, :, c])]
                shifted *= phi[rungs, :, c]
                forms = forms + shifted
            yield rungs, slice(row, row + n_rows), forms[self._inside(rungs)]
            row += n_rows

    def forms(self, v: np.ndarray) -> np.ndarray:
        """The forms of the node vector v, equal to ``L @ v`` bit for bit up
        to the sign of a zero near form, without :attr:`L`: the near forms
        from the gradient stencil (:meth:`_near_forms`), the bulk forms from
        the stencil tables (:meth:`_bulk_forms`) and the tail forms v
        itself, written into one preallocated array."""
        out = np.empty(self.base.shape[0])
        out[self.near_rows] = self._near_forms(v)
        for _, rows, forms in self._bulk_forms(v.reshape(self.grid.shape)):
            out[rows] = forms
        out[self.tail_rows] = v
        return out

    def raw_components(self, u: GridFunction, p: float, s_values):
        """Near/bulk/tail of the unprefactored double integral, with errors.

        One ``(near, bulk, tail, err)`` tuple per order in ``s_values``.
        The forms and every sum over forms or nodes are formed once; only
        their scalar factors depend on s.  The bulk forms come from the
        stencil tables (:meth:`_bulk_forms`), the near forms from the
        gradient stencil (:meth:`_near_forms`), and the tail forms are u
        itself, so a report builds no sparse matrix.
        """
        if u.grid != self.grid:
            raise ValueError("grid function does not live on the scheme grid")
        if np.any(u.values[self.grid.boundary()] != 0.0):
            raise ValueError(
                "energies need compactly supported functions: boundary values must be 0"
            )
        uflat = u.values.ravel()
        n_ang = self.dirs.shape[0]
        n_bulk = self.r_bulk.shape[0]
        n_out = self.outside_w.shape[1]
        # per label, its rows' base * |form|^p summed in row order, as a
        # bincount over all rows of L would; the near sum comes last
        sums = np.zeros(n_out + 1)
        for rungs, rows, forms in self._bulk_forms(u.values):
            np.abs(forms, out=forms)
            forms **= p
            forms *= self.base[rows]
            first = 2 * rungs.start
            sums[first:2 * rungs.stop] = np.bincount(
                np.repeat(self._labels[rungs].ravel() - first, self._counts[rungs].ravel()),
                forms, minlength=2 * (rungs.stop - rungs.start),
            )
        near_forms = np.abs(self._near_forms(uflat))
        sums[n_out] = np.cumsum(self.base[self.near_rows] * near_forms ** p)[-1]
        up = np.abs(uflat) ** p
        sums[:n_out] += up @ self.outside_w
        # labels: bulk rungs, then far rungs and the remainder (the tail)
        bulk_labels = slice(0, 2 * n_bulk)
        tail_labels = slice(2 * n_bulk, n_out)
        far_even, far_odd = sums[2 * n_bulk:n_out - 1:2], sums[2 * n_bulk + 1:n_out - 1:2]
        cb = _trapz_factors(n_bulk)
        rem_hw_sum = float(np.dot(self.w_x * up, self.rem_hw))
        # near surrogate: in 2D the bilinear cross term leaves an O(r)
        # residue in the difference quotient; in 1D the one-sided slopes
        # are the exact small-offset limit and only the kernel deviation
        # remains
        gmax = near_forms.reshape(n_ang, -1).max(axis=0)
        surro_sum = 0.0
        if self.grid.dimension == 2:
            d2 = self._second_difference_scale(u)
            surro_sum = self.kern.m_plus * sphere_measure(2) * float(
                np.dot(self.w_x, p * (gmax + d2) ** (p - 1.0) * d2)
            )
        # kernel deviation from its radial limit (H3) below h_min
        dev_sum = self._h3_deviation_rate() * sphere_measure(
            self.grid.dimension
        ) * float(np.dot(self.w_x, gmax ** p))

        out = []
        for s in s_values:
            factor = self.label_factors(s, p)
            near = float(factor[n_out] * sums[n_out])
            bulk = float(np.dot(factor[bulk_labels], sums[bulk_labels]))
            tail = float(np.dot(factor[tail_labels], sums[tail_labels]))

            # ---- error terms ----
            # per-rung sums of the bulk ladder, and the same over the even
            # angles (rescaled to the full rule) for the angular residual
            rpow = self.r_bulk ** (-s * p)
            S_even = rpow * sums[0:2 * n_bulk:2]
            S = S_even + rpow * sums[1:2 * n_bulk:2]
            S_half = S_even * (n_ang / len(range(0, n_ang, 2)))
            # per-rung sums of the far ladder
            T = self.r_far ** (-s * p) * (far_even + far_odd)
            h_pow = self.h_min ** (p * (1.0 - s) + 1.0)
            err = surro_sum * h_pow / (p * (1.0 - s))
            err += dev_sum * h_pow / (p * (1.0 - s) + 1.0)
            # ladder trapezoid: second differences in log r
            err += self.dt / 12.0 * float(np.abs(np.diff(S, 2)).sum()) if n_bulk > 2 else 0.0
            err += self.dt_far / 12.0 * float(np.abs(np.diff(T, 2)).sum()) if T.size > 2 else 0.0
            # angular residual
            if n_ang >= 4:
                err += abs(self.dt * float(np.dot(cb, S - S_half)))
            # far bracket width
            err += 2.0 * rem_hw_sum * float(factor[n_out - 1])
            out.append((near, bulk, tail, err))
        return out

    def _second_difference_scale(self, u: GridFunction) -> np.ndarray:
        """Per-node |second difference| / spacing: gradient-jump scale."""
        v = u.values
        scale = np.zeros(v.shape)
        for axis, h in enumerate(self.grid.spacing):
            # zero ghosts on both ends of the axis
            w = np.pad(np.moveaxis(v, axis, 0), [(1, 1)] + [(0, 0)] * (v.ndim - 1))
            scale += np.moveaxis(np.abs(w[2:] - 2.0 * w[1:-1] + w[:-2]), 0, axis) / h
        return scale.ravel()

    def _h3_deviation_rate(self) -> float:
        """max |m(x, h_min w) - a(x, w)| / h_min over the node lattice."""
        x = self.nodes[:, None, :]
        h = self.h_min * self.dirs[None, :, :]
        m = np.asarray(self.kern.evaluate(x, h), dtype=float)
        return float(np.abs(m - self.a_vals).max() / self.h_min)

    def report(self, u: GridFunction, fp: FractionalParams, prefactor: float) -> EnergyReport:
        (near, bulk, tail, err), = self.raw_components(u, fp.p, [fp.s])
        return EnergyReport(
            near_diagonal=prefactor * near,
            bulk=prefactor * bulk,
            tail=prefactor * tail,
            error_bound=abs(prefactor) * err,
            quadrature_settings=QuadratureRecord(
                h_min=self.h_min,
                h_split=self.h_split,
                h_max=self.h_max,
                points=self.radii.shape[0] * self.dirs.shape[0],
            ),
        )

    # -- the Gram Hessian of the atoms ---------------------------------------

    @cached_property
    def _stencil(self) -> tuple[sparse.csr_matrix, np.ndarray]:
        """S and 2 phi phi^T, the w-independent tables of :meth:`_gram`, built
        on its first call; the bulk row layout is not among them."""
        from scipy import sparse

        n, N = self.grid.dimension, self.grid.nodes_per_axis
        n_bulk, n_ang = self._shift.shape[:2]
        n_jk = n_bulk * n_ang
        corners = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        # displacements d = m_jk + c of the nonzero corners that stay in
        # [-(N-1), N-1]^n, numbered row-major
        span = (2 * N - 1) ** np.arange(n - 1, -1, -1)
        d = self._shift.reshape(n_jk, 1, n) + corners
        phi = self._phi.reshape(n_jk, -1)
        jk, c = np.nonzero((np.abs(d) < N).all(axis=2) & (phi != 0.0))
        S = sparse.csr_matrix(
            (2.0 * phi[jk, c], ((d[jk, c] + N - 1) @ span, jk)),
            shape=((2 * N - 1) ** n, n_jk),
        )
        return S, 2.0 * (phi[:, :, None] * phi[:, None, :]).reshape(n_jk, -1)

    def _gram(self, w: np.ndarray) -> np.ndarray:
        """Dense L^T diag(2 w) L for row weights w, from the bulk stencil.

        The bulk row of (rung j, angle k) at node x is v(x) + sum_c
        phi_jk,c v(x + m_jk + c) over the corners c of one cell, for the
        nodes x of the box of (j, k).  With omega[jk, x] the weight of that
        row, or 0 where x has none, the bulk rows add three terms:

            node     diag(sum_jk 2 omega), with the tail rows' 2 w
            cross    G[x, x + d] += T[d, x] and its transpose, where
                     T = S omega and S[d, jk] = 2 phi_jk,c for d = m_jk + c;
                     row x is the window at N - 1 - x of T, (2N - 1,)^n x m
            corner   per cell y, E[y] = sum_jk 2 omega phi_jk phi_jk^T over
                     its rows, like a mass matrix; G[y + c_a, y + c_b] +=
                     E[y, (a, b)] runs along one diagonal of G per (a, b)

        The cell of a row is the node x + m_jk, and a corner past the last
        node line has factor 0: where y + c wraps, the diagonal adds +-0.
        ``G`` starts as the near rows' single product (:func:`_gram_product`).
        Both bulk loops go in blocks of about ``_GRAM_ROWS`` (rung-angle,
        node) pairs and scatter the bulk weights through the box masks of
        :meth:`_inside`: the rows of jk at a block of nodes are one run of
        its rows, and its cells are its box shifted by m_jk, in row order.
        """
        S, phiphi = self._stencil
        n_nodes = self.nodes.shape[0]
        n_jk = phiphi.shape[0]
        # G is written out after the box mask is taken, once the product's
        # temporaries are freed: written out first, it raised the ru_maxrss
        # of a 2D N=33 then N=44 solve by 2.2 MB (heap layout: the arrays
        # are the same)
        near = _gram_product(self._near_L, w[self.near_rows])
        inside = self._inside(slice(None)).reshape(n_jk, n_nodes)
        G = near.toarray()
        del near
        diag = 2.0 * w[self.tail_rows]
        bulk = w[self.near_rows.stop:self.tail_rows.start]
        # the first bulk row of each (rung, angle), then the end of the last
        start = np.concatenate([[0], np.cumsum(self._counts.ravel())])

        # node and cross terms, over blocks of nodes; ``done`` counts the
        # rows of each jk at the nodes of the earlier blocks
        done = np.zeros(n_jk, dtype=np.int64)
        size = max(1, _GRAM_ROWS // n_jk)
        n, N = self.grid.dimension, self.grid.nodes_per_axis
        lead = [N - 1 - a for a in np.unravel_index(np.arange(n_nodes), self.grid.shape)]
        for lo in range(0, n_nodes, size):
            X = slice(lo, min(lo + size, n_nodes))
            m = X.stop - lo
            mask = inside[:, X]
            run = np.count_nonzero(mask, axis=1)
            omega = np.zeros((n_jk, m))
            omega[mask] = bulk[np.repeat(start[:-1] + done - (np.cumsum(run) - run), run)
                               + np.arange(run.sum())]
            done += run
            diag[X] += 2.0 * omega.sum(axis=0)
            T = (S @ omega).reshape((2 * N - 1,) * n + (m,))
            view = np.lib.stride_tricks.sliding_window_view(T, (N,) * n, axis=tuple(range(n)))
            cross = view[tuple(a[X] for a in lead) + (np.arange(m),)].reshape(m, n_nodes)
            G[X] += cross
            G[:, X] += cross.T
        del inside

        # corner term, over blocks of (rung, angle): V[jk, y] is the weight
        # of the row of jk whose cell is the node y, and E += V^T (2 phi phi^T)
        cells = self._inside(slice(None), cell=True).reshape(n_jk, n_nodes)
        group = max(1, _GRAM_ROWS // n_nodes)
        E = np.zeros((n_nodes, phiphi.shape[1]))
        for g0 in range(0, n_jk, group):
            J = slice(g0, min(g0 + group, n_jk))
            V = np.zeros((J.stop - g0, n_nodes))
            V[cells[J]] = bulk[start[J.start]:start[J.stop]]
            E += V.T @ phiphi[J]
        # column (a, b) of E runs along the diagonal of G from (o_a, o_b),
        # o_c the flat offset of corner c
        offset = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) @ N ** np.arange(n - 1, -1, -1)
        flat = G.reshape(-1)
        for a, o_a in enumerate(offset):
            for b, o_b in enumerate(offset):
                k = n_nodes - max(o_a, o_b)
                flat[o_a * n_nodes + o_b::n_nodes + 1][:k] += E[:k, a * offset.size + b]
        flat[::n_nodes + 1] += diag
        return G

    # -- (s, p) factors and atoms for the solvers ---------------------------

    def label_factors(self, s: float, p: float) -> np.ndarray:
        """The factor at (s, p) of every label, then the near factor.

        A bulk row of ``L`` weighs its base times the factor of its label,
        a near row its base times ``factor[n_out]``, and the tail row of x
        ``outside_w[x] @ factor[:n_out]`` over the ``n_out`` columns of
        ``outside_w``.  A rung's factor is its trapezoid weight in log r
        times r^(-sp), the same for both angle parities.  The remainder's
        is h_max^(-sp) / (sp), the r-integral beyond the far ladder.  The
        near factor is h_min^(p(1-s)) / (p(1-s)), the r-integral of the
        surrogate below h_min.
        """
        n_out = self.outside_w.shape[1]
        factor = np.zeros(n_out + 1)
        rung = self.rung_dt * self.radii ** (-s * p)
        factor[0:n_out - 1:2] = rung
        factor[1:n_out - 1:2] = rung
        factor[n_out - 1] = self.h_max ** (-s * p) / (s * p)
        factor[n_out] = self.h_min ** (p * (1.0 - s)) / (p * (1.0 - s))
        return factor

    def atoms(self, fp: FractionalParams) -> AtomSet:
        """The quadrature at (s, p) as powered linear forms; :attr:`L` is
        left to the atom set to ask for.  A near weight is its base times
        the near factor, a bulk weight its base times the factor of its
        (rung, angle), repeated over that run of rows, and the tail
        weights are ``outside_w @ factor``."""
        n_out = self.outside_w.shape[1]
        factor = self.label_factors(fp.s, fp.p)
        W = self.base.copy()
        W[self.near_rows] *= factor[n_out]
        W[self.near_rows.stop:self.tail_rows.start] *= np.repeat(
            factor[self._labels].ravel(), self._counts.ravel()
        )
        W[self.tail_rows] = self.outside_w @ factor[:n_out]
        return AtomSet(W, None, fp.p, scheme=self)


@lru_cache(maxsize=8)
def get_scheme(kern: Kernel, grid: Grid) -> EnergyScheme:
    """The default-settings scheme of (kernel, grid), built on the first call.

    Later calls with equal keys share it until the cache evicts it or
    ``cli.run`` clears it at the end of an experiment.
    """
    return EnergyScheme(kern, grid)


@cache
def _unit_kernel(n: int) -> Kernel:
    """The constant kernel c = 1, one object per dimension so that
    :func:`get_scheme` finds the scheme of an earlier call."""
    return builtin("constant", {"n": n})


def gagliardo(u: GridFunction, fp: FractionalParams) -> EnergyReport:
    """The seminorm double integral [u]^p, no prefactor: the unprefactored
    energy of the constant kernel c = 1."""
    return get_scheme(_unit_kernel(u.grid.dimension), u.grid).report(u, fp, 1.0)


def anisotropic_energy(k: Kernel, u: GridFunction, fp: FractionalParams) -> EnergyReport:
    """Weighted energy (1-s)/p * iint m |u(x)-u(x-h)|^p / |h|^{n+sp}.

    Kernels without the pair symmetry are handled by symmetrizing the
    weight inside the quadrature, which leaves the value unchanged.
    """
    prefactor = (1.0 - fp.s) / fp.p
    return get_scheme(k, u.grid).report(u, fp, prefactor)
