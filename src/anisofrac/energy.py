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

The discrete energy is written down once, as one sparse operator that
does not depend on (s, p).  :class:`EnergyScheme` builds a CSR matrix
``L`` with one column per node and one row per linear form of the node
values:

    near rows   D_w v(x)            one-sided slope, per (angle, node)
    bulk rows   v(x) - v(x - r w)   multilinear interpolation, per
                                    (rung, angle, node) while x - r w
                                    stays in the box
    tail rows   v(x)                per node

Each near and bulk row carries a base weight and a label (the rung and
the parity of the angle for a bulk row), and its weight at (s, p) is
its base times the factor of its label.  Every pair that has no row is
a |v(x)|^p term with a doubled weight (v vanishes at the far point, and
the pair swap counts the mirrored pair a second time): a bulk pair
whose shifted point has left the box, every pair of a far rung, and the
remainder beyond h_max.  Their weights form one table, ``outside_w``,
with a row per node and a column per label, and the tail row of x
weighs ``outside_w[x] @ factor``.  One method gives every label's
factor (:meth:`EnergyScheme.label_factors`).  A report is one product
``L v``, a bincount by label and one product with ``outside_w``;
:meth:`EnergyScheme.atoms` hands the same ``L`` with the weights of one
(s, p) to the solvers, whose gradient is ``L^T (...)`` and whose
Hessian is the Gram matrix ``L^T diag(2 w) L``.  All bulk rows of one (rung, angle) are one
interpolation stencil shifted node by node over a box of nodes, so the
scheme assembles that matrix without a sparse product over the bulk
rows: a diagonal, a node-corner cross term gathered from one sparse x
dense product, and per-cell corner blocks (:meth:`EnergyScheme._gram`).
Only the near rows, and atom sets that are not a scheme's, take the
sparse product ``L^T diag(2 w) L``.

Cost model: the scheme samples the kernel on a (nodes x rungs x angles)
lattice, bulk and far rungs alike, in blocks of whole rungs, and ``L``
has one bulk row per lattice point whose shifted point stays in the
box.  In 1D this is ~1e5 rows for N = 257; in 2D it grows like
N^2 * rungs * angles (1.75M bulk rows and 8.3M nonzeros at N = 33),
which is why 2D grids are capped at N <= 48 (:data:`MAX_2D_NODES`).
The node boxes of the (rung, angle) stencils size ``L``; the kernel
samples are the largest single cost of the build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse

from ._sphere import sphere_measure, sphere_rule
from .gridfn import FractionalParams, Grid, GridFunction, gradient_lp, lp_norm
from .kernel import Kernel, builtin, symmetrize

__all__ = [
    "QuadratureSettings",
    "QuadratureRecord",
    "EnergyReport",
    "EnergyScheme",
    "AtomSet",
    "MAX_2D_NODES",
    "check_grid_cap",
    "gagliardo",
    "anisotropic_energy",
    "CheckResult",
    "bbm_upper_bound_check",
    "interpolation_check",
]

_FAR_OCTAVES = 10  # length of the far ladder beyond h_split
_GRAM_ROWS = 250_000  # rows of L per block of the Gram Hessian
_SLICE_ROWS = 65_536  # rows of L, or kernel samples, per slice of an elementwise pass
MAX_2D_NODES = 48  # nodes per axis of a 2D grid (see the cost model above)


def check_grid_cap(grid: Grid) -> None:
    """Reject a 2D grid with more than :data:`MAX_2D_NODES` nodes per axis."""
    if grid.dimension == 2 and grid.nodes_per_axis > MAX_2D_NODES:
        raise ValueError(
            f"2D grids are capped at N <= {MAX_2D_NODES} per axis, "
            f"got N = {grid.nodes_per_axis}"
        )


@dataclass(frozen=True)
class QuadratureSettings:
    """Construction parameters of :class:`EnergyScheme`.

    The ladder ratio is 2**(1/points_per_octave); h_min is (grid
    spacing) * h_min_fraction and h_split defaults to twice the box
    diameter, beyond which the shifted support has left the box.
    ``angular_points`` is the size of the circle rule in 2D; in 1D the
    sphere is the two points +-1 whatever its value.
    """

    points_per_octave: int = 8
    h_min_fraction: float = 0.125
    angular_points: int = 32
    h_split: Optional[float] = None


@dataclass(frozen=True)
class QuadratureRecord:
    h_min: float
    h_split: float
    h_max: float
    points: int


@dataclass(frozen=True)
class EnergyReport:
    """Energy value with its three-part split and error estimate."""

    value: float
    near_diagonal: float
    bulk: float
    tail: float
    error_bound: float
    quadrature_settings: QuadratureRecord

    def __post_init__(self):
        if self.error_bound < 0.0:
            raise ValueError("error_bound must be nonnegative")


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

    ``scheme`` is the :class:`EnergyScheme` whose ``L`` this is, if any:
    its Gram Hessian is then assembled from the scheme's bulk stencil.
    """

    def __init__(
        self, weights, L: sparse.csr_matrix, p, scheme: Optional[EnergyScheme] = None
    ):
        self.W = np.ascontiguousarray(weights, dtype=float)
        if self.W.shape != (L.shape[0],):
            raise ValueError("need one weight per row of the form matrix")
        self.L = L
        self.p = float(p)
        self.scheme = scheme

    @classmethod
    def from_stencil(cls, weights, idx, coef, n_nodes: int, p) -> "AtomSet":
        """Atoms W_a |sum_k coef[a, k] v[idx[a, k]]|^p; zero slots are dropped."""
        coef = np.asarray(coef, dtype=float)
        keep = coef != 0.0
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        L = sparse.csr_matrix(
            (coef[keep], np.asarray(idx)[keep], indptr), shape=(coef.shape[0], n_nodes)
        )
        return cls(weights, L, p)

    def __len__(self):
        return self.W.shape[0]

    def forms(self, v: np.ndarray) -> np.ndarray:
        """The linear forms ell_a(v), one per atom."""
        return self.L @ v

    def objective(self, v: np.ndarray) -> float:
        a = self.forms(v)
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

    def delta(self, v: np.ndarray, d: np.ndarray, t: float) -> float:
        """objective(v + t d) - objective(v), cancellation-free.

        :func:`power_delta` runs on slices of ``_SLICE_ROWS`` rows and
        writes over L v, so L v and L d are the only row-length arrays.
        """
        a = self.forms(v)
        e = self.forms(d)
        for lo in range(0, a.shape[0], _SLICE_ROWS):
            rows = slice(lo, lo + _SLICE_ROWS)
            e[rows] *= t
            a[rows] = power_delta(a[rows], e[rows], self.p)
        return float(np.dot(self.W, a))

    def reweighted_hessian(self, v: np.ndarray, floor: float) -> np.ndarray:
        """Dense SPD model (p/2) sum W max(|ell|, f)^{p-2} * 2 ell ell^T.

        The floor f is ``floor`` times max(max |ell|, 1), so one product
        L v serves both.  Exact Hessian for p = 2; for other p the
        classical secant (lagged-weight) approximation, positive definite
        thanks to the floor on |ell|.
        """
        w = self.forms(v)
        np.abs(w, out=w)
        np.maximum(w, floor * max(float(w.max()), 1.0), out=w)
        w **= self.p - 2.0
        w *= self.W
        w *= self.p / 2.0
        return self._gram(w)

    def hessian_dense(self) -> np.ndarray:
        if self.p != 2.0:
            raise ValueError("dense assembly is the p = 2 path")
        return self._gram(self.W)

    def _gram(self, w: np.ndarray) -> np.ndarray:
        """Dense L^T diag(2 w) L: from the bulk stencil for a scheme's atoms,
        else from blocks of ``_GRAM_ROWS`` rows (:func:`_add_gram_rows`)."""
        if self.scheme is not None:
            return self.scheme._gram(w)
        n_rows, n_cols = self.L.shape
        G = np.zeros((n_cols, n_cols))
        _add_gram_rows(G, self.L, w, slice(0, n_rows))
        return G


def _add_gram_rows(G: np.ndarray, L: sparse.csr_matrix, w: np.ndarray, rows: slice) -> None:
    """Add L_r^T diag(2 w_r) L_r of the rows ``rows`` of L into G.

    The rows go in blocks of ``_GRAM_ROWS``.  Each block L_c views the
    index arrays of L and scales its own copy of the data, and the
    entries of its sparse product are added into G, so the temporaries
    stay one block long and a zero G plus a single block is the single
    product L^T diag(2 w) L bit for bit.
    """
    n_cols = L.shape[1]
    for a in range(rows.start, rows.stop, _GRAM_ROWS):
        b = min(a + _GRAM_ROWS, rows.stop)
        lo, hi = L.indptr[a], L.indptr[b]
        indptr = L.indptr[a:b + 1] - lo
        indices = L.indices[lo:hi]
        data = np.repeat(2.0 * w[a:b], np.diff(indptr))
        data *= L.data[lo:hi]
        block = sparse.csr_matrix((L.data[lo:hi], indices, indptr), shape=(b - a, n_cols))
        scaled = sparse.csr_matrix((data, indices, indptr), shape=(b - a, n_cols))
        part = (block.T @ scaled).tocoo()
        G[part.row, part.col] += part.data


class _StencilTables(NamedTuple):
    """Index tables of :meth:`EnergyScheme._gram` (see :meth:`EnergyScheme._stencil`)."""

    at: np.ndarray  # per node, its index along each axis
    by_node: list  # per axis, (inside, row part) of (rung-angle, node index x_a)
    by_cell: list  # the same at the index x_a + m_jk,a of the row's cell
    cross: sparse.csr_matrix  # 2 phi, (displacement, (rung, angle))
    node_d: np.ndarray  # per node, its displacement number minus that of 0
    center: int  # displacement number of d = 0
    phiphi: np.ndarray  # 2 phi phi^T, ((rung, angle), corner pair)
    corner_node: list  # per corner c, the node y + c of each node y, or -1


def _gather_bulk(bulk: np.ndarray, tables: list, jk: slice, at: np.ndarray) -> np.ndarray:
    """Bulk row weights per (rung-angle, node) pair, 0 where there is no row.

    ``tables`` is ``by_node`` or ``by_cell`` of :class:`_StencilTables`, so
    the node is x or the cell x + m_jk of the row; ``at`` holds the
    nodes' indices along each axis.  The row number of (j, k) at x is a
    sum of one term per axis.
    """
    has, row = True, 0
    for (inside, part), i in zip(tables, at.T):
        has = has & inside[jk][:, i]
        row = row + part[jk][:, i]
    return np.where(has, bulk.take(row, mode="clip"), 0.0)


def _resolve_geometry(grid: Grid, settings: QuadratureSettings):
    """h_min, h_split, h_max and the bulk and far radius ladders."""
    spacing = min(grid.spacing)
    h_min = spacing * settings.h_min_fraction
    h_split = settings.h_split if settings.h_split is not None else 2.0 * grid.diameter
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
    """s-independent quadrature: the form matrix ``L`` and its row weights.

    Built once per (kernel, grid, settings); reports and atom sets for
    any (s, p) reuse ``L``, its base weights and labels and the node
    table ``outside_w`` of the pairs without a row, which is what makes
    the parameter sweeps affordable.  The radius ladder ``radii`` is the
    bulk rungs ``r_bulk`` followed by the far rungs ``r_far``, with their
    trapezoid weights in log r in ``rung_dt``.  The plain Gagliardo seminorm
    is the scheme of the constant kernel c = 1.  The package always uses
    the default settings (through :func:`get_scheme`); other settings
    serve refinement studies.
    """

    def __init__(
        self,
        kern: Kernel,
        grid: Grid,
        settings: QuadratureSettings = QuadratureSettings(),
    ):
        if kern.dimension != grid.dimension:
            raise ValueError("kernel and grid dimensions differ")
        check_grid_cap(grid)
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
        """Assemble L, its base weights and row labels, and ``outside_w``.

        Rows: near (angle-major), then bulk in (rung, angle, node) order,
        then tail.  Labels: 2 * rung + angle parity over the bulk and far
        rungs, then the remainder beyond h_max; these are the columns of
        ``outside_w``.  Then come the near label and the tail label.  A
        tail row has base 0: its weight is its node's row of ``outside_w``
        at the factors of (s, p).  ``rem_hw`` is the last octave's largest
        deviation from the tail limit, per node, which brackets the
        remainder.

        For rung j and angle k, x - r_j w_k lies in the cell of the node
        x + m_jk with corner factors phi_jk at every node x, so the bulk
        row of (j, k) at x is v(x) + sum_c phi_jk,c v(x + m_jk + c) over
        the corners c with a nonzero factor (axis 0's factors carry the
        minus sign).  A shift within rounding of a node line is snapped
        onto it, so its upper corner has factor 0 and is left out.  The
        nodes whose shifted point stays in the box form a box per (j, k),
        ``_box_lo`` plus ``range(_box_len)`` along each axis; the pairs of
        the other nodes, and every pair of a far rung, go to ``outside_w``.
        """
        grid = self.grid
        n, N = grid.dimension, grid.nodes_per_axis
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
        # per (rung, angle), the column offsets from x and the coefficients
        # of a row: v(x) first, then the corners with a nonzero factor
        corners = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        offsets = np.concatenate(
            [np.zeros((n_bulk, n_ang, 1), dtype=np.int64),
             (self._shift[:, :, None, :] + corners) @ (N ** np.arange(n - 1, -1, -1))],
            axis=2,
        )
        coefs = np.concatenate([np.ones((n_bulk, n_ang, 1)), phi], axis=2)
        order = np.argsort(coefs == 0.0, axis=2, kind="stable")
        offsets = np.take_along_axis(offsets, order, axis=2)
        coefs = np.take_along_axis(coefs, order, axis=2)
        widths = np.count_nonzero(coefs, axis=2)
        counts = self._box_len.prod(axis=2)

        near_idx, near_coef = self._gradient_stencil()
        near_keep = near_coef != 0.0
        n_near = n_ang * n_nodes
        n_rows = n_near + int(counts.sum()) + n_nodes
        nnz = int(near_keep.sum()) + int((counts * widths).sum()) + n_nodes
        data = np.empty(nnz)
        indices = np.empty(nnz, dtype=np.int32)
        indptr = np.empty(n_rows + 1, dtype=np.int32)
        base = np.empty(n_rows)
        label = np.empty(n_rows, dtype=np.int32)

        # near rows: a(x, w) |D_w v(x)|^p
        row_nnz = near_keep.sum(axis=1)
        indptr[:n_near] = np.cumsum(row_nnz) - row_nnz
        pos = int(row_nnz.sum())
        data[:pos] = near_coef[near_keep]
        indices[:pos] = near_idx[near_keep]
        base[:n_near] = (self.w_dirs[:, None] * self.a_vals.T * self.w_x[None, :]).ravel()
        label[:n_near] = 2 * n_rungs + 1

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

        # bulk rows: msym |v(x) - v(x - r w)|^p; the nodes outside the box
        # of (j, k), and all nodes on a far rung, add 2 msym to outside_w
        row = n_near
        at = np.unravel_index(np.arange(n_nodes), grid.shape)
        parity = np.arange(n_ang) % 2
        wxk = self.w_x[:, None] * self.w_dirs[None, :]
        last_octave = self.radii >= self.radii[-1] / 2.0
        hw = np.zeros((n_nodes, n_ang))
        # the kernel is sampled in blocks of whole rungs of about _SLICE_ROWS
        # points: few calls where an evaluation loops in Python (averaged
        # kernels), small temporaries on 2D grids
        rungs = max(1, _SLICE_ROWS // (n_nodes * n_ang))
        for j in range(n_rungs):
            if j % rungs == 0:
                h = self.radii[j:j + rungs, None, None] * self.dirs[None, :, :]
                ms = self._msym(self.nodes[:, None, None, :], h[None])
            m = ms[:, j % rungs]
            mw = wxk * m
            if last_octave[j]:
                np.maximum(hw, np.abs(m - mu), out=hw)
            out = 2.0 * mw
            if j < n_bulk:
                inside = insides[0][j][at[0]]
                for ins, i in zip(insides[1:], at[1:]):
                    inside &= ins[j][i]
                out[inside] = 0.0
                rows = slice(row, row + int(counts[j].sum()))
                base[rows] = mw.T[inside.T]
                label[rows] = np.repeat(2 * j + parity, counts[j])
                for k in range(n_ang):
                    x = np.flatnonzero(inside[:, k])
                    w = widths[j, k]
                    end = pos + x.size * w
                    indices[pos:end].reshape(-1, w)[:] = x[:, None] + offsets[j, k, :w]
                    data[pos:end].reshape(-1, w)[:] = coefs[j, k, :w]
                    indptr[row:row + x.size] = np.arange(pos, end, w)
                    pos = end
                    row += x.size
            self.outside_w[:, 2 * j] = out[:, parity == 0].sum(axis=1)
            self.outside_w[:, 2 * j + 1] = out[:, parity == 1].sum(axis=1)

        # tail rows: v(x), weighted by outside_w
        indptr[row:n_rows] = pos + np.arange(n_nodes)
        indptr[n_rows] = nnz
        data[pos:] = 1.0
        indices[pos:] = np.arange(n_nodes)
        base[row:] = 0.0
        label[row:] = 2 * n_rungs + 2
        self.rem_hw = hw @ self.w_dirs

        self.L = sparse.csr_matrix((data, indices, indptr), shape=(n_rows, n_nodes))
        self.base = base
        self.label = label
        self.near_rows = slice(0, n_near)
        self.tail_rows = slice(row, n_rows)

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
        idx = np.zeros((self.dirs.shape[0], n_nodes, 1 + n), dtype=np.int64)
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

    def raw_components(self, u: GridFunction, p: float, s_values):
        """Near/bulk/tail of the unprefactored double integral, with errors.

        One ``(near, bulk, tail, err)`` tuple per order in ``s_values``.
        ``L u`` and every sum over rows or nodes are formed once; only
        their scalar factors depend on s.
        """
        if u.grid != self.grid:
            raise ValueError("grid function does not live on the scheme grid")
        if np.any(u.values[self.grid.boundary()] != 0.0):
            raise ValueError(
                "energies need compactly supported functions: boundary values must be 0"
            )
        uflat = u.values.ravel()
        nz = np.nonzero(uflat)[0]
        if nz.size:
            pts = self.nodes[nz]
            supp_diam = float(
                np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
            ) + max(self.grid.spacing)
            if self.h_split < 2.0 * supp_diam - 1e-12:
                raise ValueError(
                    f"h_split={self.h_split:g} is below twice the support "
                    f"diameter {supp_diam:g}; enlarge h_split"
                )
        n_ang = self.dirs.shape[0]
        n_bulk = self.r_bulk.shape[0]
        n_out = self.outside_w.shape[1]
        ell = self.L @ uflat
        sums = np.bincount(self.label, self.base * np.abs(ell) ** p, minlength=n_out + 2)
        up = np.abs(ell[self.tail_rows]) ** p
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
        gmax = np.abs(ell[self.near_rows].reshape(n_ang, -1)).max(axis=0)
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
        (near_raw, bulk_raw, tail_raw, err), = self.raw_components(u, fp.p, [fp.s])
        near = prefactor * near_raw
        bulk = prefactor * bulk_raw
        tail = prefactor * tail_raw
        return EnergyReport(
            value=near + bulk + tail,
            near_diagonal=near,
            bulk=bulk,
            tail=tail,
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
    def _stencil(self) -> _StencilTables:
        """The w-independent tables of :meth:`_gram`, built on its first call."""
        n, N = self.grid.dimension, self.grid.nodes_per_axis
        n_bulk, n_ang = self._shift.shape[:2]
        n_jk = n_bulk * n_ang
        corners = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        at = np.stack(np.unravel_index(np.arange(self.nodes.shape[0]), self.grid.shape), axis=1)
        # the rows of (j, k) are the nodes of its box in row-major order:
        # per axis, whether a node index lies in the box and the row
        # number's term of that index, tabulated at x_a and at x_a + m_jk,a
        lo = self._box_lo.reshape(n_jk, 1, n)
        length = self._box_len.reshape(n_jk, 1, n)
        stride = np.ones_like(length)
        for axis in range(n - 2, -1, -1):
            stride[..., axis] = stride[..., axis + 1] * length[..., axis + 1]
        count = length.prod(axis=2).ravel()
        tables = []
        for rel in (np.arange(N)[None, :, None] - lo,
                    np.arange(N)[None, :, None] - lo - self._shift.reshape(n_jk, 1, n)):
            part = rel * stride
            part[..., 0] += (np.cumsum(count) - count)[:, None]
            tables.append(list(zip(np.moveaxis((rel >= 0) & (rel < length), 2, 0),
                                   np.moveaxis(part, 2, 0))))
        # cross: displacements d = m_jk + c of the nonzero corners that stay
        # in [-(N-1), N-1]^n, numbered row-major; S carries 2 phi
        span = (2 * N - 1) ** np.arange(n - 1, -1, -1)
        d = self._shift.reshape(n_jk, 1, n) + corners
        phi = self._phi.reshape(n_jk, -1)
        jk, c = np.nonzero((np.abs(d) < N).all(axis=2) & (phi != 0.0))
        cross = sparse.csr_matrix(
            (2.0 * phi[jk, c], ((d[jk, c] + N - 1) @ span, jk)),
            shape=((2 * N - 1) ** n, n_jk),
        )
        # corner: the cell of a row is the node x + m_jk; a corner of it
        # past the last node (-1 here) has factor 0
        strides = N ** np.arange(n - 1, -1, -1)
        corner_node = []
        for c in corners:
            y = at + c
            corner_node.append(np.where((y < N).all(axis=1), y @ strides, -1))
        return _StencilTables(
            at=at,
            by_node=tables[0],
            by_cell=tables[1],
            cross=cross,
            node_d=at @ span,
            center=(N - 1) * int(span.sum()),
            phiphi=2.0 * (self._phi[:, :, :, None] * self._phi[:, :, None, :]).reshape(n_jk, -1),
            corner_node=corner_node,
        )

    def _gram(self, w: np.ndarray) -> np.ndarray:
        """Dense L^T diag(2 w) L for row weights w, from the bulk stencil.

        The bulk row of (rung j, angle k) at node x is v(x) + sum_c
        phi_jk,c v(x + m_jk + c) over the corners c of one cell, for the
        nodes x of the box of (j, k).  With omega[jk, x] the weight of that
        row, or 0 where x has none, the bulk rows add three terms:

            node     diag(sum_jk 2 omega), with the tail rows' 2 w
            cross    G[x, x + d] += T[d, x] and its transpose, where
                     T = S omega and S[d, jk] = 2 phi_jk,c for d = m_jk + c
            corner   per cell, sum_jk 2 omega phi_jk phi_jk^T over the
                     rows that interpolate in it, like a mass matrix

        The cell of a row is the node x + m_jk, and a corner past the last
        node has factor 0.  The near rows take the generic product.  Both
        loops go in blocks of about ``_GRAM_ROWS`` (rung-angle, node) pairs.
        """
        tab = self._stencil
        n_nodes = self.nodes.shape[0]
        n_jk = tab.phiphi.shape[0]
        G = np.zeros((n_nodes, n_nodes))
        _add_gram_rows(G, self.L, w, self.near_rows)
        diag = 2.0 * w[self.tail_rows]
        bulk = w[self.near_rows.stop:self.tail_rows.start]

        # node and cross terms, over blocks of nodes
        size = max(1, _GRAM_ROWS // n_jk)
        for lo in range(0, n_nodes, size):
            X = slice(lo, min(lo + size, n_nodes))
            m = X.stop - lo
            omega = _gather_bulk(bulk, tab.by_node, slice(None), tab.at[X])
            diag[X] += 2.0 * omega.sum(axis=0)
            T = tab.cross @ omega
            cross = T.ravel()[
                np.add.outer((tab.center - tab.node_d[X]) * m + np.arange(m), tab.node_d * m)
            ]
            G[X] += cross
            G[:, X] += cross.T

        # corner term, over blocks of (rung, angle): V[jk, y] is the weight
        # of the row of jk whose cell is the node y, and E += V^T (2 phi phi^T)
        group = max(1, _GRAM_ROWS // n_nodes)
        E = np.zeros((n_nodes, tab.phiphi.shape[1]))
        for g0 in range(0, n_jk, group):
            J = slice(g0, min(g0 + group, n_jk))
            E += _gather_bulk(bulk, tab.by_cell, J, tab.at).T @ tab.phiphi[J]
        n_corners = len(tab.corner_node)
        for ca, ya in enumerate(tab.corner_node):
            for cb, yb in enumerate(tab.corner_node):
                both = (ya >= 0) & (yb >= 0)
                G[ya[both], yb[both]] += E[both, ca * n_corners + cb]
        G[np.diag_indices(n_nodes)] += diag
        return G

    # -- (s, p) factors and atoms for the solvers ---------------------------

    def label_factors(self, s: float, p: float) -> np.ndarray:
        """The factor at (s, p) of every label.

        A row of ``L`` weighs its base times the factor of its label, and
        the tail row of x weighs ``outside_w[x] @ factor[:n_out]`` over the
        ``n_out`` columns of ``outside_w``.  A rung's factor is its
        trapezoid weight in log r times r^(-sp), the same for both angle
        parities.  The remainder's is h_max^(-sp) / (sp), the r-integral
        beyond the far ladder.  The near label's is h_min^(p(1-s)) /
        (p(1-s)), the r-integral of the surrogate below h_min.  The tail
        label's is 0.
        """
        n_out = self.outside_w.shape[1]
        factor = np.zeros(n_out + 2)
        rung = self.rung_dt * self.radii ** (-s * p)
        factor[0:n_out - 1:2] = rung
        factor[1:n_out - 1:2] = rung
        factor[n_out - 1] = self.h_max ** (-s * p) / (s * p)
        factor[n_out] = self.h_min ** (p * (1.0 - s)) / (p * (1.0 - s))
        return factor

    def atoms(self, fp: FractionalParams) -> AtomSet:
        """The quadrature at (s, p) as powered linear forms over ``L``."""
        factor = self.label_factors(fp.s, fp.p)
        W = self.base * factor[self.label]
        W[self.tail_rows] = self.outside_w @ factor[:self.outside_w.shape[1]]
        return AtomSet(W, self.L, fp.p, scheme=self)


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
