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
Hessian is the Gram matrix ``L^T diag(2 w) L``.

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
from functools import cache, lru_cache
from typing import Optional

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
    eps * |objective|.
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
    """The discrete energy sum_a W_a |(L v)_a|^p of a CSR form matrix L."""

    def __init__(self, weights, L: sparse.csr_matrix, p):
        self.W = np.ascontiguousarray(weights, dtype=float)
        if self.W.shape != (L.shape[0],):
            raise ValueError("need one weight per row of the form matrix")
        self.L = L
        self.p = float(p)

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
        return float(np.dot(self.W, np.abs(self.forms(v)) ** self.p))

    def gradient(self, v: np.ndarray) -> np.ndarray:
        ell = self.forms(v)
        absell = np.abs(ell)
        # |ell|^(p-2) * ell is 0 at ell = 0 for p > 1; guard the 0**negative case
        with np.errstate(divide="ignore", invalid="ignore"):
            coeff = self.W * self.p * np.where(absell > 0.0, absell ** (self.p - 2.0) * ell, 0.0)
        return self.L.T @ coeff

    def delta(self, v: np.ndarray, d: np.ndarray, t: float) -> float:
        """objective(v + t d) - objective(v), cancellation-free."""
        return float(
            np.dot(self.W, power_delta(self.forms(v), t * self.forms(d), self.p))
        )

    def reweighted_hessian(self, v: np.ndarray, floor: float) -> np.ndarray:
        """Dense SPD model (p/2) sum W max(|ell|, floor)^{p-2} * 2 ell ell^T.

        Exact Hessian for p = 2; for other p the classical secant
        (lagged-weight) approximation, positive definite thanks to the
        floor on |ell|.
        """
        absell = np.maximum(np.abs(self.forms(v)), floor)
        return self._gram(self.W * (self.p / 2.0) * absell ** (self.p - 2.0))

    def hessian_dense(self) -> np.ndarray:
        if self.p != 2.0:
            raise ValueError("dense assembly is the p = 2 path")
        return self._gram(self.W)

    def _gram(self, w: np.ndarray) -> np.ndarray:
        """Dense L^T diag(2 w) L."""
        L = self.L
        data = np.repeat(2.0 * w, np.diff(L.indptr))
        data *= L.data
        scaled = sparse.csr_matrix((data, L.indices, L.indptr), shape=L.shape)
        return (L.T @ scaled).toarray()


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
        return AtomSet(W, self.L, p)


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
