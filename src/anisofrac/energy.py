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
                              so only |u(x)|^p enters; ladder continues
           beyond h_max       closed form from the kernel's declared
                              large-offset limit (bracketed by the
                              bounds when no limit is declared)

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
                                    (node, rung, angle); v(x) alone
                                    (weight doubled) once x - r w has
                                    left the box
    tail rows   v(x)                per node

Each row carries a base weight and a label (the bulk rung and the
parity of the angle), and the weight of a row at (s, p) is its base
times a factor of its label; only the tail rows also need their node's
far-ladder sum.  A report is one product ``L v`` and a bincount by
label; :meth:`EnergyScheme.atoms` hands the same ``L`` with the weights
of one (s, p) to the solvers, whose gradient is ``L^T (...)`` and whose
Hessian is the Gram matrix ``L^T diag(2 w) L``.  The scheme assembles
that matrix without a sparse product over the bulk rows: all bulk rows
of one (rung, angle) are one interpolation stencil shifted node by
node, so the Gram is a diagonal, a node-corner cross term gathered from
one sparse x dense product, and per-cell corner blocks
(:meth:`EnergyScheme._gram`).  Only the near rows, and atom sets that
are not a scheme's, take the sparse product ``L^T diag(2 w) L``.

Cost model: the scheme samples the kernel on a (nodes x rungs x angles)
lattice and ``L`` has one bulk row per lattice point.  In 1D this is
~1e5 rows for N = 257; in 2D it grows like N^2 * rungs * angles (9.8M
nonzeros at N = 33), which is why 2D grids are capped at N <= 48
(:data:`MAX_2D_NODES`).  The interpolation cells of the shifted points
are tabulated per axis, once, on the (rungs x N x angles) lattice, and
their inside counts size ``L``; the kernel samples are the largest
single cost of the build.
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

_CHUNK = 512  # x-nodes per evaluation block
_FAR_OCTAVES = 10  # length of the far ladder beyond h_split
_GRAM_ROWS = 250_000  # rows of L per block of the Gram Hessian
_DELTA_ROWS = 65_536  # rows of L per slice of the line-search difference
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
        ell = self.forms(v)
        coeff = np.abs(ell)
        # |ell|^(p-2) * ell is 0 at ell = 0 for p > 1; where= never
        # evaluates the 0**negative case
        np.power(coeff, self.p - 2.0, out=coeff, where=coeff > 0.0)
        coeff *= ell
        coeff *= self.W
        coeff *= self.p
        return self.L.T @ coeff

    def delta(self, v: np.ndarray, d: np.ndarray, t: float) -> float:
        """objective(v + t d) - objective(v), cancellation-free.

        :func:`power_delta` runs on slices of ``_DELTA_ROWS`` rows and
        writes over L v, so L v and L d are the only row-length arrays.
        """
        a = self.forms(v)
        e = self.forms(d)
        for lo in range(0, a.shape[0], _DELTA_ROWS):
            rows = slice(lo, lo + _DELTA_ROWS)
            e[rows] *= t
            a[rows] = power_delta(a[rows], e[rows], self.p)
        return float(np.dot(self.W, a))

    def reweighted_hessian(self, v: np.ndarray, floor: float) -> np.ndarray:
        """Dense SPD model (p/2) sum W max(|ell|, floor)^{p-2} * 2 ell ell^T.

        Exact Hessian for p = 2; for other p the classical secant
        (lagged-weight) approximation, positive definite thanks to the
        floor on |ell|.
        """
        w = self.forms(v)
        np.abs(w, out=w)
        np.maximum(w, floor, out=w)
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
    cross: sparse.csr_matrix  # 2 phi, (displacement, (rung, angle))
    node_d: np.ndarray  # per node, its displacement number minus that of 0
    center: int  # displacement number of d = 0
    axis_cell: list  # per axis, (rung, node index, angle) cell coordinates
    phiphi: np.ndarray  # 2 phi phi^T, ((rung, angle), corner pair)
    corner_node: list  # per corner, the node of each padded cell, or -1


def _resolve_geometry(grid: Grid, settings: QuadratureSettings):
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
    any (s, p) reuse ``L``, its base weights and labels, which is what
    makes the parameter sweeps affordable.  The plain Gagliardo seminorm
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

        self._build_far()
        self._build_operator()

    # -- kernel sampling ---------------------------------------------------

    def _build_far(self):
        """Far-ladder weights and the beyond-ladder bracket, per node.

        Everything here multiplies |u(x)|^p at report time, so it is
        u-independent and computed once.
        """
        n_nodes = self.nodes.shape[0]
        n_far = self.r_far.shape[0]
        far_mw = np.empty((n_nodes, n_far))
        # mu: large-offset limit of the symmetrized weight; hw: observed
        # deviation over the last octave, used as the bracket half-width.
        if self.kern.tail_limit is not None:
            t1 = np.asarray(
                self.kern.tail_limit(self.nodes[:, None, :], self.dirs[None, :, :]),
                dtype=float,
            )
            t2 = np.asarray(
                self.kern.tail_limit(self.nodes[:, None, :], -self.dirs[None, :, :]),
                dtype=float,
            )
            mu_dir = 0.5 * (t1 + t2)
        else:
            lo, hi = self.kern.bounds
            mu_dir = np.full((n_nodes, self.dirs.shape[0]), 0.5 * (lo + hi))

        last_octave = self.r_far >= self.r_far[-1] / 2.0
        hw_dir = np.zeros((n_nodes, self.dirs.shape[0]))
        for chunk in range(0, n_nodes, _CHUNK):
            idx = np.arange(chunk, min(chunk + _CHUNK, n_nodes))
            x = self.nodes[idx][:, None, None, :]
            h = self.r_far[None, :, None, None] * self.dirs[None, None, :, :]
            ms = self._msym(x, h)
            far_mw[idx] = np.einsum("bjk,k->bj", ms, self.w_dirs)
            hw_dir[idx] = np.abs(
                ms[:, last_octave, :] - mu_dir[idx][:, None, :]
            ).max(axis=1)
        self.far_mw = far_mw
        self.rem_mu = mu_dir @ self.w_dirs
        self.rem_hw = hw_dir @ self.w_dirs

    # -- the form matrix ----------------------------------------------------

    def _build_operator(self):
        """Assemble L, its base weights and its row labels.

        Rows: near (angle-major), then one block per (node chunk, bulk
        rung) with rows in (node, angle) order, then tail.  Labels are
        2 * rung + angle parity for bulk rows, ``2 * n_bulk`` for near
        rows and ``2 * n_bulk + 1`` for tail rows.

        Coordinate a of x - r_j w_k depends only on the node's index
        along axis a, the rung j and the angle k, so each axis's
        interpolation cells are tabulated once, (n_bulk, N, n_ang), by
        :meth:`Grid.axis_cells`.  A block gathers its cells from the
        tables, writes its rows into (node, angle, slot) arrays and
        compacts them into ``data`` and ``indices``, which are sized
        from the per-axis inside counts, so the matrix is never held
        twice.
        """
        grid = self.grid
        N = grid.nodes_per_axis
        n_nodes = self.nodes.shape[0]
        n_ang = self.dirs.shape[0]
        n_bulk = self.r_bulk.shape[0]
        width = 1 + 2 ** grid.dimension  # v(x) and the interpolation corners
        chunks = [
            np.arange(start, min(start + _CHUNK, n_nodes))
            for start in range(0, n_nodes, _CHUNK)
        ]

        # per axis: cell, corner factors and inside flag of every rung and
        # angle at every node coordinate; axis 0's factors carry the minus
        # sign of the corner terms (negation commutes with rounding)
        lowers, factors, insides = [], [], []
        for axis, x in enumerate(grid.axes()):
            lower, t, inside = grid.axis_cells(
                axis,
                x[None, :, None] - self.r_bulk[:, None, None] * self.dirs[None, None, :, axis],
            )
            lowers.append(lower)
            factors.append((-(1.0 - t), -t) if axis == 0 else (1.0 - t, t))
            insides.append(inside)
        # the shifted lattice of one (rung, angle) is a tensor product
        n_inside = int(np.prod([ins.sum(axis=1) for ins in insides], axis=0).sum())
        # the bulk stencil of the Gram Hessian: per (rung, angle), x - r w
        # lies in the cell of x + shift with the corner factors phi, up to
        # the rounding of the per-node tables
        q = -self.r_bulk[:, None, None] * self.dirs[None, :, :] / np.array(grid.spacing)
        shift = np.floor(q)
        phi = np.ones((n_bulk, n_ang, 1))
        for axis in range(grid.dimension):
            t = q[:, :, axis, None] - shift[:, :, axis, None]
            f = (-(1.0 - t), -t) if axis == 0 else (1.0 - t, t)
            phi = np.concatenate([phi * f[0], phi * f[1]], axis=2)
        self._inside = insides
        self._shift = shift.astype(np.int64)
        self._phi = phi

        near_idx, near_coef = self._gradient_stencil()
        near_keep = near_coef != 0.0
        n_near = n_ang * n_nodes
        n_rows = n_near + n_bulk * n_ang * n_nodes + n_nodes
        nnz = (
            int(near_keep.sum())
            + n_bulk * n_ang * n_nodes + (width - 1) * n_inside
            + n_nodes
        )
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
        label[:n_near] = 2 * n_bulk

        # bulk rows: msym |v(x) - v(x - r w)|^p, or 2 msym |v(x)|^p once the
        # shifted point has left the box (v vanishes there, and the pair
        # swap counts the mirrored pair a second time)
        row = n_near
        parity = np.tile(np.arange(n_ang) % 2, _CHUNK)
        axis_index = np.unravel_index(np.arange(n_nodes), grid.shape)
        slot_shape = (chunks[0].size, n_ang, width)
        slot_data = np.empty(slot_shape)
        slot_cols = np.empty(slot_shape, dtype=np.int32)
        slot_keep = np.empty(slot_shape, dtype=bool)
        for sel in chunks:
            ms = self._msym(
                self.nodes[sel][:, None, None, :],
                self.r_bulk[None, :, None, None] * self.dirs[None, None, :, :],
            )
            block = sel.size * n_ang
            node_axis = [ia[sel] for ia in axis_index]
            sd, sc, sk = (a[:sel.size] for a in (slot_data, slot_cols, slot_keep))
            sd[:, :, 0] = 1.0
            sc[:, :, 0] = sel[:, None]
            sk[:, :, 0] = True
            for j in range(n_bulk):
                # corners in the order of Grid.interpolation_stencil
                cols, weights = [0], [1.0]
                ins = True
                for axis, i in enumerate(node_axis):
                    lower = lowers[axis][j, i]
                    cols = [N * c + lower + b for b in (0, 1) for c in cols]
                    weights = [w * f[j, i] for f in factors[axis] for w in weights]
                    ins = ins & insides[axis][j, i]
                for c in range(width - 1):
                    sd[:, :, 1 + c] = weights[c]
                    sc[:, :, 1 + c] = cols[c]
                sk[:, :, 1:] = ins[:, :, None]
                ins = ins.ravel()
                row_nnz = np.where(ins, width, 1)
                indptr[row:row + block] = pos + np.cumsum(row_nnz) - row_nnz
                end = pos + block + (width - 1) * int(np.count_nonzero(ins))
                keep = sk.ravel()
                np.compress(keep, sd.ravel(), out=data[pos:end])
                np.compress(keep, sc.ravel(), out=indices[pos:end])
                base[row:row + block] = (
                    self.w_x[sel][:, None] * self.w_dirs[None, :] * ms[:, j, :]
                ).ravel() * np.where(ins, 1.0, 2.0)
                label[row:row + block] = 2 * j + parity[:block]
                pos = end
                row += block

        # tail rows: v(x), weighted by the far ladder at report time
        indptr[row:n_rows] = pos + np.arange(n_nodes)
        indptr[n_rows] = nnz
        data[pos:] = 1.0
        indices[pos:] = np.arange(n_nodes)
        base[row:] = 2.0 * self.w_x
        label[row:] = 2 * n_bulk + 1

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
        ell = self.L @ uflat
        sums = np.bincount(
            self.label, self.base * np.abs(ell) ** p, minlength=2 * n_bulk + 2
        )
        cb = _trapz_factors(n_bulk)
        cf = _trapz_factors(self.r_far.shape[0])
        # tail: |u(x)|^p against the far ladder and the beyond-ladder limit
        wu = self.w_x * np.abs(ell[self.tail_rows]) ** p
        far_sums = wu @ self.far_mw
        rem_mu_sum = float(np.dot(wu, self.rem_mu))
        rem_hw_sum = float(np.dot(wu, self.rem_hw))
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
            # near: a(x,w) |D_w u(x)|^p integrated in r over [0, h_min)
            c_near = self.h_min ** (p * (1.0 - s)) / (p * (1.0 - s))
            near = c_near * float(sums[2 * n_bulk])

            # bulk ladder: per-rung sums, and the same over the even angles
            # (rescaled to the full rule) for the angular residual
            rpow = self.r_bulk ** (-s * p)
            S_even = rpow * sums[0:2 * n_bulk:2]
            S = S_even + rpow * sums[1:2 * n_bulk:2]
            S_half = S_even * (n_ang / len(range(0, n_ang, 2)))
            bulk = float(self.dt * np.dot(cb, S))

            # tail: far ladder (disjoint supports -> 2 |u(x)|^p) + remainder
            T = 2.0 * self.r_far ** (-s * p) * far_sums
            far_val = float(self.dt_far * np.dot(cf, T))
            rem_factor = self.h_max ** (-s * p) / (s * p)
            tail = far_val + 2.0 * rem_mu_sum * rem_factor

            # ---- error terms ----
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
            err += 2.0 * rem_hw_sum * rem_factor
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
                points=(self.r_bulk.shape[0] + self.r_far.shape[0]) * self.dirs.shape[0],
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
        # cross: displacements d = m_jk + c that stay in [-(N-1), N-1]^n,
        # numbered row-major; S carries 2 phi
        span = (2 * N - 1) ** np.arange(n - 1, -1, -1)
        d = self._shift.reshape(n_jk, 1, n) + corners
        jk, c = np.nonzero((np.abs(d) < N).all(axis=2))
        cross = sparse.csr_matrix(
            (2.0 * self._phi.reshape(n_jk, -1)[jk, c], ((d[jk, c] + N - 1) @ span, jk)),
            shape=((2 * N - 1) ** n, n_jk),
        )
        # corner: cells -1..N-1 per axis, numbered row-major from 0; per axis
        # the cell coordinate of each (rung, node index, angle) times the
        # axis stride, n_cells where the row is outside the box
        n_cells = (N + 1) ** n
        pad = (N + 1) ** np.arange(n - 1, -1, -1)
        axis_cell = [
            np.where(ins, (np.arange(N)[:, None] + self._shift[:, None, :, axis] + 1)
                     * pad[axis], n_cells)
            for axis, ins in enumerate(self._inside)
        ]
        cell_at = np.stack(np.unravel_index(np.arange(n_cells), (N + 1,) * n), axis=1)
        corner_node = []
        for c in corners:
            y = cell_at + c - 1
            real = ((y >= 0) & (y < N)).all(axis=1)
            corner_node.append(np.where(real, y @ (N ** np.arange(n - 1, -1, -1)), -1))
        return _StencilTables(
            at=at,
            cross=cross,
            node_d=at @ span,
            center=(N - 1) * int(span.sum()),
            axis_cell=axis_cell,
            phiphi=2.0 * (self._phi[:, :, :, None] * self._phi[:, :, None, :]).reshape(n_jk, -1),
            corner_node=corner_node,
        )

    def _gram(self, w: np.ndarray) -> np.ndarray:
        """Dense L^T diag(2 w) L for row weights w, from the bulk stencil.

        The bulk row of (rung j, angle k) at node x is v(x) + sum_c
        phi_jk,c v(x + m_jk + c) over the 2^n corners c of one cell while
        x - r_j w_k is inside the box, else v(x) alone.  With omega = w
        times the inside flag, the bulk rows add three terms:

            node     diag(sum_jk 2 w), with the tail rows' 2 w
            cross    G[x, x + d] += T[d, x] and its transpose, where
                     T = S omega and S[d, jk] = 2 phi_jk,c for d = m_jk + c
            corner   per cell, sum_jk 2 omega phi_jk phi_jk^T over the
                     rows that interpolate in it, like a mass matrix

        Cells run from -1 to N - 1 per axis: near an axis, x - r w can sit
        on a node with a zero-weight corner one node outside the grid,
        which is dropped.  m_jk and phi_jk are each row's own cell and
        factors up to rounding.  The near rows take the generic product.
        Both loops go in blocks of about ``_GRAM_ROWS`` bulk rows.
        """
        tab = self._stencil
        n, N = self.grid.dimension, self.grid.nodes_per_axis
        n_nodes = self.nodes.shape[0]
        n_bulk, n_ang = self._shift.shape[:2]
        n_jk = n_bulk * n_ang
        G = np.zeros((n_nodes, n_nodes))
        _add_gram_rows(G, self.L, w, self.near_rows)
        diag = 2.0 * w[self.tail_rows]
        # per node chunk of the build, the bulk weights as (rung, node, angle)
        bulk = w[self.near_rows.stop:self.tail_rows.start]
        chunks = []
        for a in range(0, n_nodes, _CHUNK):
            b = min(a + _CHUNK, n_nodes)
            chunks.append((a, b, bulk[n_jk * a:n_jk * b].reshape(n_bulk, b - a, n_ang)))

        # node and cross terms, over blocks of nodes
        size = max(1, min(_CHUNK, _GRAM_ROWS // n_jk))
        for a, b, rows in chunks:
            for lo in range(a, b, size):
                X = slice(lo, min(lo + size, b))
                m = X.stop - lo
                sub = rows[:, lo - a:X.stop - a, :]
                diag[X] += 2.0 * sub.sum(axis=(0, 2))
                inside = self._inside[0][:, tab.at[X, 0]]
                for axis in range(1, n):
                    inside &= self._inside[axis][:, tab.at[X, axis]]
                omega = np.empty((n_bulk, n_ang, m))
                np.multiply(sub.transpose(0, 2, 1), inside.transpose(0, 2, 1), out=omega)
                T = tab.cross @ omega.reshape(n_jk, m)
                cross = T.ravel()[
                    np.add.outer((tab.center - tab.node_d[X]) * m + np.arange(m), tab.node_d * m)
                ]
                G[X] += cross
                G[:, X] += cross.T

        # corner term, over groups of rungs: V[cell, (j, k)] is the weight
        # of the row of (j, k) that interpolates in the cell, and E += V
        # (2 phi phi^T).  A sum of axis cells of at least n_cells marks a
        # row outside the box; those rows go to one spare entry of V.
        n_cells = (N + 1) ** n
        group = max(1, min(n_bulk, _GRAM_ROWS // (n_ang * n_nodes)))
        E = np.zeros((n_cells, 4 ** n))
        for j0 in range(0, n_bulk, group):
            J = slice(j0, min(j0 + group, n_bulk))
            width = (J.stop - j0) * n_ang
            # (rung, node, angle), the layout of the rows of a chunk
            cell = tab.axis_cell[0][J]
            for axis in range(1, n):
                cell = cell[:, :, None, :] + tab.axis_cell[axis][J][:, None, :, :]
                cell = cell.reshape(J.stop - j0, -1, n_ang)
            cell = np.minimum(cell, n_cells)  # a new array: the tables stay
            cell *= width
            cell += np.arange(width).reshape(-1, 1, n_ang)
            V = np.zeros((n_cells + 1) * width)
            for a, b, rows in chunks:
                V[cell[:, a:b]] = rows[J]
            E += V[:n_cells * width].reshape(n_cells, width) @ tab.phiphi[j0 * n_ang:J.stop * n_ang]
        for ca, ya in enumerate(tab.corner_node):
            for cb, yb in enumerate(tab.corner_node):
                both = (ya >= 0) & (yb >= 0)
                G[ya[both], yb[both]] += E[both, ca * 2 ** n + cb]
        G[np.diag_indices(n_nodes)] += diag
        return G

    # -- atoms for the solvers ----------------------------------------------

    def atoms(self, fp: FractionalParams) -> AtomSet:
        """The quadrature at (s, p) as powered linear forms over ``L``."""
        s, p = fp.s, fp.p
        n_bulk = self.r_bulk.shape[0]
        factor = np.empty(2 * n_bulk + 2)
        rung = self.dt * _trapz_factors(n_bulk) * self.r_bulk ** (-s * p)
        factor[0:2 * n_bulk:2] = rung
        factor[1:2 * n_bulk:2] = rung
        factor[2 * n_bulk] = self.h_min ** (p * (1.0 - s)) / (p * (1.0 - s))
        factor[2 * n_bulk + 1] = 1.0
        W = self.base * factor[self.label]
        # tail ladder and remainder collapse to |v(x)|^p atoms
        cf = _trapz_factors(self.r_far.shape[0])
        W[self.tail_rows] *= (
            self.far_mw @ (self.dt_far * cf * self.r_far ** (-s * p))
            + self.rem_mu * (self.h_max ** (-s * p) / (s * p))
        )
        return AtomSet(W, self.L, p, scheme=self)


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
