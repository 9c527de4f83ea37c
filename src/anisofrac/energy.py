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

The same weights drive the solvers: :meth:`EnergyScheme.atoms`
materializes the discrete energy as a flat list of powered linear forms
(see :mod:`anisofrac._accel`), so minimization and reporting share one
quadrature.

Cost model: plans sample kernel values on a (nodes x rungs x angles)
lattice.  In 1D this is ~1e5 points for N = 257; in 2D it grows like
N^2 * rungs * angles, which is why 2D grids are capped at N <= 48.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _accel
from ._sphere import sphere_measure, sphere_rule
from .gridfn import FractionalParams, Grid, GridFunction, gradient_lp, lp_norm
from .kernel import Kernel

__all__ = [
    "QuadratureSettings",
    "QuadratureRecord",
    "EnergyReport",
    "EnergyScheme",
    "AtomSet",
    "gagliardo",
    "anisotropic_energy",
    "CheckResult",
    "bbm_upper_bound_check",
    "interpolation_check",
]

_CHUNK = 512  # x-nodes per evaluation block


@dataclass(frozen=True)
class QuadratureSettings:
    """Knobs of the radius ladder and angular rule.

    The ladder ratio is 2**(1/points_per_octave); h_min defaults to
    (grid spacing) * h_min_fraction and h_split to twice the box
    diameter, beyond which the shifted support has left the box.
    """

    points_per_octave: int = 8
    h_min_fraction: float = 0.125
    angular_points: Optional[int] = None
    far_octaves: int = 10
    h_min: Optional[float] = None
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


class AtomSet:
    """The discrete energy sum W_a * |sum_k C_ak v_(I_ak)|^p."""

    def __init__(self, weights, idx, coef, n_nodes, p):
        self.W = np.ascontiguousarray(weights, dtype=float)
        self.I = np.ascontiguousarray(idx, dtype=np.int64)
        self.C = np.ascontiguousarray(coef, dtype=float)
        self.n_nodes = n_nodes
        self.p = float(p)

    def __len__(self):
        return self.W.shape[0]

    def objective(self, v: np.ndarray) -> float:
        return float(_accel.atom_objective(self.W, self.I, self.C, v, self.p))

    def gradient(self, v: np.ndarray) -> np.ndarray:
        grad = np.zeros(self.n_nodes)
        _accel.atom_gradient(self.W, self.I, self.C, v, self.p, grad)
        return grad

    def delta(self, v: np.ndarray, d: np.ndarray, t: float) -> float:
        """objective(v + t d) - objective(v), cancellation-free."""
        return float(_accel.atom_delta(self.W, self.I, self.C, v, d, t, self.p))

    def forms(self, v: np.ndarray) -> np.ndarray:
        """The linear forms ell_a(v), one per atom."""
        return np.einsum("ak,ak->a", self.C, v[self.I])

    def reweighted_hessian(self, v: np.ndarray, floor: float) -> np.ndarray:
        """Dense SPD model (p/2) sum W max(|ell|, floor)^{p-2} * 2 C C^T.

        Exact Hessian for p = 2; for other p the classical secant
        (lagged-weight) approximation, positive definite thanks to the
        floor on |ell|.
        """
        absell = np.maximum(np.abs(self.forms(v)), floor)
        W_eff = self.W * (self.p / 2.0) * absell ** (self.p - 2.0)
        H = np.zeros((self.n_nodes, self.n_nodes))
        _accel.atom_hessian_dense(W_eff, self.I, self.C, H)
        return H

    def hessian_dense(self) -> np.ndarray:
        if self.p != 2.0:
            raise ValueError("dense assembly is the p = 2 path")
        H = np.zeros((self.n_nodes, self.n_nodes))
        _accel.atom_hessian_dense(self.W, self.I, self.C, H)
        return H


def _resolve_geometry(grid: Grid, settings: QuadratureSettings):
    spacing = min(grid.spacing)
    h_min = settings.h_min if settings.h_min is not None else spacing * settings.h_min_fraction
    h_split = settings.h_split if settings.h_split is not None else 2.0 * grid.diameter
    if not 0.0 < h_min < h_split:
        raise ValueError("need 0 < h_min < h_split")
    dt = math.log(2.0) / settings.points_per_octave
    n_bulk = max(2, int(math.ceil(math.log(h_split / h_min) / dt)) + 1)
    t_bulk = np.linspace(math.log(h_min), math.log(h_split), n_bulk)
    n_far = max(2, settings.far_octaves * settings.points_per_octave + 1)
    h_max = h_split * 2.0 ** settings.far_octaves
    t_far = np.linspace(math.log(h_split), math.log(h_max), n_far)
    return h_min, h_split, h_max, np.exp(t_bulk), np.exp(t_far)


def _trapz_factors(n: int) -> np.ndarray:
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    return c


class EnergyScheme:
    """s-independent quadrature geometry plus kernel samples.

    Built once per (kernel, grid, settings); reports and atom sets for
    any (s, p) reuse the sampled kernel values, which is what makes the
    parameter sweeps affordable.  ``kern=None`` means the unit weight
    (plain Gagliardo seminorm).
    """

    def __init__(self, kern: Optional[Kernel], grid: Grid, settings: QuadratureSettings):
        if kern is not None and kern.dimension != grid.dimension:
            raise ValueError("kernel and grid dimensions differ")
        if grid.dimension == 2 and grid.nodes_per_axis > 48:
            raise ValueError("2D energies are capped at N <= 48 per axis")
        self.kern = kern
        self.grid = grid
        self.settings = settings
        n = grid.dimension
        self.h_min, self.h_split, self.h_max, self.r_bulk, self.r_far = _resolve_geometry(
            grid, settings
        )
        self.dt = math.log(self.r_bulk[1] / self.r_bulk[0])
        self.dt_far = math.log(self.r_far[1] / self.r_far[0])
        ang = settings.angular_points if settings.angular_points is not None else (
            2 if n == 1 else 32
        )
        self.dirs, self.w_dirs = sphere_rule(n, ang if n == 2 else None)
        self.nodes = grid.nodes()
        self.w_x = grid.trapezoid_weights()
        self.box_lo = np.array([a for a, _ in grid.box])
        self.box_hi = np.array([b for _, b in grid.box])

        # radial limit at the nodes (near surrogate weight)
        if kern is None:
            self.a_vals = np.ones((self.nodes.shape[0], self.dirs.shape[0]))
        else:
            self.a_vals = np.asarray(
                kern.radial_limit(self.nodes[:, None, :], self.dirs[None, :, :]),
                dtype=float,
            )

        self._build_far()
        self._bulk_cache = None
        if self.nodes.shape[0] * self.r_bulk.shape[0] * self.dirs.shape[0] <= 4_000_000:
            self._bulk_cache = self._bulk_msym(np.arange(self.nodes.shape[0]))

    # -- kernel sampling ---------------------------------------------------

    def _msym(self, x, h):
        """Symmetrized weight 0.5*(m(x,h) + m(x-h,-h)); 1 without a kernel."""
        if self.kern is None:
            return np.ones(np.broadcast_shapes(x.shape, h.shape)[:-1])
        ev = self.kern.evaluate
        return 0.5 * (
            np.asarray(ev(x, h), dtype=float)
            + np.asarray(ev(x - h, -h), dtype=float)
        )

    def _bulk_msym(self, idx: np.ndarray) -> np.ndarray:
        """msym on the (chunk, bulk rung, angle) lattice."""
        if self._bulk_cache is not None:
            return self._bulk_cache[idx]
        x = self.nodes[idx][:, None, None, :]
        h = self.r_bulk[None, :, None, None] * self.dirs[None, None, :, :]
        return self._msym(x, h)

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
        if self.kern is None:
            mu_dir = np.ones((n_nodes, self.dirs.shape[0]))
        elif self.kern.tail_limit is not None:
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

    # -- reporting ----------------------------------------------------------

    def raw_components(self, u: GridFunction, fp: FractionalParams):
        """Near/bulk/tail of the unprefactored double integral, with errors."""
        if u.grid != self.grid:
            raise ValueError("grid function does not live on the scheme grid")
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
        s, p = fp.s, fp.p
        n_nodes = self.nodes.shape[0]
        upow = np.abs(uflat) ** p

        # near: a(x,w) |D_w u(x)|^p integrated in r over [0, h_min); the
        # one-sided slopes D_w are the exact small-offset limit of the
        # piecewise-linear difference quotient
        c_near = self.h_min ** (p * (1.0 - s)) / (p * (1.0 - s))
        slopes = u.directional_slopes(self.dirs)
        gdotw = np.abs(slopes) ** p
        near_x = c_near * np.einsum("bk,bk,k->b", self.a_vals, gdotw, self.w_dirs)
        near = float(np.dot(self.w_x, near_x))

        # bulk ladder
        n_bulk = self.r_bulk.shape[0]
        S = np.zeros(n_bulk)
        S_half = np.zeros(n_bulk)
        half = slice(0, None, 2) if self.dirs.shape[0] >= 4 else slice(None)
        rpow = self.r_bulk ** (-s * p)
        for start in range(0, n_nodes, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, n_nodes))
            xB = self.nodes[idx]
            P = xB[:, None, None, :] - self.r_bulk[None, :, None, None] * self.dirs[None, None, :, :]
            uP = u.eval(P)
            outside = np.any((P < self.box_lo) | (P > self.box_hi), axis=-1)
            ms = self._bulk_msym(idx)
            uB = uflat[idx][:, None, None]
            integ = ms * (np.abs(uB - uP) ** p + outside * (np.abs(uB) ** p))
            wB = self.w_x[idx]
            S += rpow * np.einsum("bjk,k,b->j", integ, self.w_dirs, wB)
            S_half += rpow * np.einsum(
                "bjk,k,b->j", integ[:, :, half], self.w_dirs[half], wB
            ) * (self.dirs.shape[0] / max(len(self.w_dirs[half]), 1))
        cb = _trapz_factors(n_bulk)
        bulk = float(self.dt * np.dot(cb, S))

        # tail: far ladder (disjoint supports -> 2 |u(x)|^p) + remainder
        wu = self.w_x * upow
        rpow_far = self.r_far ** (-s * p)
        T = 2.0 * rpow_far * (wu @ self.far_mw)
        cf = _trapz_factors(self.r_far.shape[0])
        far_val = float(self.dt_far * np.dot(cf, T))
        rem_factor = self.h_max ** (-s * p) / (s * p)
        rem_val = float(2.0 * np.dot(wu, self.rem_mu) * rem_factor)
        tail = far_val + rem_val

        # ---- error terms ----
        err = 0.0
        # near surrogate: in 2D the bilinear cross term leaves an O(r)
        # residue in the difference quotient; in 1D the slopes are exact
        # and only the kernel deviation below remains
        gmax = np.abs(slopes).max(axis=1)
        if self.grid.dimension == 2:
            d2 = self._second_difference_scale(u)
            surro = (
                p * (gmax + d2) ** (p - 1.0) * d2
                * self.h_min ** (p * (1.0 - s) + 1.0) / (p * (1.0 - s))
            )
            m_plus = 1.0 if self.kern is None else self.kern.m_plus
            err += m_plus * sphere_measure(2) * float(np.dot(self.w_x, surro))
        if self.kern is not None:
            kappa = self._h3_deviation_rate()
            err += kappa * sphere_measure(self.grid.dimension) * float(
                np.dot(self.w_x, gmax ** p)
            ) * self.h_min ** (p * (1.0 - s) + 1.0) / (p * (1.0 - s) + 1.0)
        # ladder trapezoid: second differences in log r
        err += self.dt / 12.0 * float(np.abs(np.diff(S, 2)).sum()) if n_bulk > 2 else 0.0
        err += self.dt_far / 12.0 * float(np.abs(np.diff(T, 2)).sum()) if T.size > 2 else 0.0
        # angular residual
        if self.dirs.shape[0] >= 4:
            err += abs(self.dt * float(np.dot(cb, S - S_half)))
        # far bracket width
        err += float(2.0 * np.dot(wu, self.rem_hw) * rem_factor)

        record = QuadratureRecord(
            h_min=self.h_min,
            h_split=self.h_split,
            h_max=self.h_max,
            points=(n_bulk + self.r_far.shape[0]) * self.dirs.shape[0],
        )
        return near, bulk, tail, err, record

    def _second_difference_scale(self, u: GridFunction) -> np.ndarray:
        """Per-node |second difference| / spacing: gradient-jump scale."""
        v = u.values
        if self.grid.dimension == 1:
            h, = self.grid.spacing
            padded = np.concatenate([[0.0], v, [0.0]])
            return np.abs(padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / h
        hx, hy = self.grid.spacing
        px = np.pad(v, ((1, 1), (0, 0)))
        py = np.pad(v, ((0, 0), (1, 1)))
        dx = np.abs(px[2:, :] - 2.0 * px[1:-1, :] + px[:-2, :]) / hx
        dy = np.abs(py[:, 2:] - 2.0 * py[:, 1:-1] + py[:, :-2]) / hy
        return (dx + dy).ravel()

    def _h3_deviation_rate(self) -> float:
        """max |m(x, h_min w) - a(x, w)| / h_min over the node lattice."""
        x = self.nodes[:, None, :]
        h = self.h_min * self.dirs[None, :, :]
        m = np.asarray(self.kern.evaluate(x, h), dtype=float)
        return float(np.abs(m - self.a_vals).max() / self.h_min)

    def report(self, u: GridFunction, fp: FractionalParams, prefactor: float) -> EnergyReport:
        near_raw, bulk_raw, tail_raw, err, record = self.raw_components(u, fp)
        near = prefactor * near_raw
        bulk = prefactor * bulk_raw
        tail = prefactor * tail_raw
        return EnergyReport(
            value=near + bulk + tail,
            near_diagonal=near,
            bulk=bulk,
            tail=tail,
            error_bound=abs(prefactor) * err,
            quadrature_settings=record,
        )

    # -- atoms for the solvers ----------------------------------------------

    def atoms(self, fp: FractionalParams) -> AtomSet:
        """Materialize the quadrature as powered linear forms in the node values."""
        n = self.grid.dimension
        n_nodes = self.nodes.shape[0]
        n_ang = self.dirs.shape[0]
        n_bulk = self.r_bulk.shape[0]
        if n_nodes * n_bulk * n_ang > 6_000_000:
            raise ValueError(
                "atom set too large; reduce N or the angular rule for solves"
            )
        s, p = fp.s, fp.p
        K = 3 if n == 1 else 5
        rows_w, rows_i, rows_c = [], [], []

        # near atoms: one-sided directional derivative
        c_near = self.h_min ** (p * (1.0 - s)) / (p * (1.0 - s))
        for k in range(n_ang):
            w = self.w_dirs[k] * c_near * self.a_vals[:, k] * self.w_x
            idx = np.zeros((n_nodes, K), dtype=np.int64)
            coef = np.zeros((n_nodes, K))
            self._gradient_stencil(self.dirs[k], idx, coef)
            rows_w.append(w)
            rows_i.append(idx)
            rows_c.append(coef)

        # bulk atoms
        cb = _trapz_factors(n_bulk)
        rpow = self.r_bulk ** (-s * p)
        for start in range(0, n_nodes, _CHUNK):
            sel = np.arange(start, min(start + _CHUNK, n_nodes))
            xB = self.nodes[sel]
            ms = self._bulk_msym(sel)
            for j in range(n_bulk):
                P = xB[:, None, :] - self.r_bulk[j] * self.dirs[None, :, :]
                outside = np.any((P < self.box_lo) | (P > self.box_hi), axis=-1)
                Wbase = (
                    self.w_x[sel][:, None]
                    * (self.dt * cb[j] * rpow[j])
                    * self.w_dirs[None, :]
                    * ms[:, j, :]
                )
                idx = np.zeros((sel.size, n_ang, K), dtype=np.int64)
                coef = np.zeros((sel.size, n_ang, K))
                idx[:, :, 0] = sel[:, None]
                coef[:, :, 0] = 1.0
                self._interp_stencil(P, outside, idx, coef)
                W = np.where(outside, 2.0 * Wbase, Wbase)
                rows_w.append(W.ravel())
                rows_i.append(idx.reshape(-1, K))
                rows_c.append(coef.reshape(-1, K))

        # tail ladder and remainder collapse to |v(x)|^p atoms
        cf = _trapz_factors(self.r_far.shape[0])
        rpow_far = self.r_far ** (-s * p)
        tail_coeff = 2.0 * self.w_x * (
            self.far_mw @ (self.dt_far * cf * rpow_far)
            + self.rem_mu * (self.h_max ** (-s * p) / (s * p))
        )
        idx = np.zeros((n_nodes, K), dtype=np.int64)
        coef = np.zeros((n_nodes, K))
        idx[:, 0] = np.arange(n_nodes)
        coef[:, 0] = 1.0
        rows_w.append(tail_coeff)
        rows_i.append(idx)
        rows_c.append(coef)

        W = np.concatenate(rows_w)
        I = np.concatenate(rows_i, axis=0)
        C = np.concatenate(rows_c, axis=0)
        keep = W > 0.0
        return AtomSet(W[keep], I[keep], C[keep], n_nodes, p)

    def _gradient_stencil(self, w, idx, coef):
        """Rows of D_w v(x_i): one-sided slopes toward -w (ghosts are 0)."""
        N = self.grid.nodes_per_axis
        n_nodes = self.nodes.shape[0]
        # per axis the limit is exactly |w_axis|/h * (v_center - v_neighbor)
        # with the neighbor on the -sign(w_axis) side: flipping the
        # direction component also flips which neighbor enters
        if self.grid.dimension == 1:
            h, = self.grid.spacing
            i = np.arange(n_nodes)
            shift = -1 if w[0] > 0 else 1
            coef[:, 0] = abs(w[0]) / h
            idx[:, 0] = i
            j = i + shift
            ok = (j >= 0) & (j < N)
            idx[ok, 1] = j[ok]
            coef[ok, 1] = -abs(w[0]) / h
            return
        hx, hy = self.grid.spacing
        ii, jj = np.divmod(np.arange(n_nodes), N)
        center = np.zeros(n_nodes)
        slot = 1
        for axis, (comp, h) in enumerate(((w[0], hx), (w[1], hy))):
            if comp == 0.0:
                continue
            shift = -1 if comp > 0 else 1
            ni = ii + (shift if axis == 0 else 0)
            nj = jj + (shift if axis == 1 else 0)
            center += abs(comp) / h
            ok = (ni >= 0) & (ni < N) & (nj >= 0) & (nj < N)
            idx[ok, slot] = (ni * N + nj)[ok]
            coef[ok, slot] = -abs(comp) / h
            slot += 1
        idx[:, 0] = np.arange(n_nodes)
        coef[:, 0] = center

    def _interp_stencil(self, P, outside, idx, coef):
        """Append -u(P) interpolation entries to atoms (slots 1..)."""
        N = self.grid.nodes_per_axis
        if self.grid.dimension == 1:
            (a, _), = self.grid.box
            h, = self.grid.spacing
            q = (P[..., 0] - a) / h
            j = np.clip(np.floor(q).astype(np.int64), 0, N - 2)
            t = np.clip(q - j, 0.0, 1.0)
            inside = ~outside
            idx[..., 1] = np.where(inside, j, 0)
            coef[..., 1] = np.where(inside, -(1.0 - t), 0.0)
            idx[..., 2] = np.where(inside, j + 1, 0)
            coef[..., 2] = np.where(inside, -t, 0.0)
            return
        (ax, _), (ay, _) = self.grid.box
        hx, hy = self.grid.spacing
        qx = (P[..., 0] - ax) / hx
        qy = (P[..., 1] - ay) / hy
        jx = np.clip(np.floor(qx).astype(np.int64), 0, N - 2)
        jy = np.clip(np.floor(qy).astype(np.int64), 0, N - 2)
        tx = np.clip(qx - jx, 0.0, 1.0)
        ty = np.clip(qy - jy, 0.0, 1.0)
        inside = ~outside
        base = jx * N + jy
        for slot, (off, cc) in enumerate(
            (
                (0, (1.0 - tx) * (1.0 - ty)),
                (N, tx * (1.0 - ty)),
                (1, (1.0 - tx) * ty),
                (N + 1, tx * ty),
            ),
            start=1,
        ):
            idx[..., slot] = np.where(inside, base + off, 0)
            coef[..., slot] = np.where(inside, -cc, 0.0)


@lru_cache(maxsize=8)
def _scheme(kern: Optional[Kernel], grid: Grid, settings: QuadratureSettings) -> EnergyScheme:
    return EnergyScheme(kern, grid, settings)


# one lock per scheme being built, so that threads missing the cache
# together build it once; entries live only while a build is in flight
_building: dict[tuple, threading.Lock] = {}
_building_guard = threading.Lock()


def get_scheme(
    kern: Optional[Kernel], grid: Grid, settings: Optional[QuadratureSettings] = None
) -> EnergyScheme:
    """The cached scheme of (kernel, grid, settings), built once per key."""
    key = (kern, grid, settings or QuadratureSettings())
    with _building_guard:
        lock = _building.setdefault(key, threading.Lock())
    try:
        with lock:
            return _scheme(*key)
    finally:
        with _building_guard:
            if _building.get(key) is lock:
                del _building[key]


def _check_admissible(u: GridFunction):
    vals = u.values
    if u.grid.dimension == 1:
        border = max(abs(vals[0]), abs(vals[-1]))
    else:
        border = max(
            np.abs(vals[0, :]).max(), np.abs(vals[-1, :]).max(),
            np.abs(vals[:, 0]).max(), np.abs(vals[:, -1]).max(),
        )
    if border != 0.0:
        raise ValueError(
            "energies need compactly supported functions: boundary values must be 0"
        )


def gagliardo(
    u: GridFunction, fp: FractionalParams, settings: Optional[QuadratureSettings] = None
) -> EnergyReport:
    """The seminorm double integral [u]^p, no prefactor."""
    _check_admissible(u)
    return get_scheme(None, u.grid, settings).report(u, fp, 1.0)


def anisotropic_energy(
    k: Kernel,
    u: GridFunction,
    fp: FractionalParams,
    settings: Optional[QuadratureSettings] = None,
) -> EnergyReport:
    """Weighted energy (1-s)/p * iint m |u(x)-u(x-h)|^p / |h|^{n+sp}.

    Kernels without the pair symmetry are handled by symmetrizing the
    weight inside the quadrature, which leaves the value unchanged.
    """
    _check_admissible(u)
    prefactor = (1.0 - fp.s) / fp.p
    return get_scheme(k, u.grid, settings).report(u, fp, prefactor)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    slack: float
    lhs: float
    rhs: float
    tolerance: float


def bbm_upper_bound_check(
    k: Kernel,
    u: GridFunction,
    fp: FractionalParams,
    settings: Optional[QuadratureSettings] = None,
) -> CheckResult:
    """Bound chain: raw weighted integral <= m_plus [u]^p <= sphere-constant bound.

    The right-hand bound is (n omega_n m_plus / p) *
    (||grad u||_p^p / (1-s) + 2^p ||u||_p^p / s); quadrature error
    bounds widen the comparison.
    """
    s, p = fp.s, fp.p
    rep = anisotropic_energy(k, u, fp, settings)
    pref = (1.0 - s) / p
    raw = rep.value / pref
    raw_err = rep.error_bound / pref
    gag = gagliardo(u, fp, settings)
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
    k: Kernel,
    u: GridFunction,
    s1: float,
    s2: float,
    p: float,
    settings: Optional[QuadratureSettings] = None,
) -> CheckResult:
    """Energy at a smaller order against the larger order plus an L^p term.

    Checks J(s1) <= 2^{p(1-s1)} J(s2) + 2^{p-1} m_plus n omega_n
    (1-s1)/s1 * ||u||_p^p, with quadrature error bounds as slack.
    """
    if not s1 < s2:
        raise ValueError("need s1 < s2")
    rep1 = anisotropic_energy(k, u, FractionalParams(s1, p), settings)
    rep2 = anisotropic_energy(k, u, FractionalParams(s2, p), settings)
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
