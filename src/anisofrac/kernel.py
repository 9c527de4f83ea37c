"""Two-point weight kernels m(x, h) and their hypothesis audit.

A kernel carries, besides its evaluation map, the analytic data the
rest of the package consumes: global bounds, the small-offset radial
limit a(x, w) = lim_{r->0} m(x, r*w), and (optionally) the large-offset
limit used by the s->0 weight.  Radial limits are *declared* by the
constructor rather than inferred numerically -- extracting them by
extrapolation is ill-conditioned -- and :func:`verify_hypotheses` audits
the declaration on quasi-random samples.

Evaluation maps are vectorized: ``evaluate(x, h)`` receives arrays of
shape (..., n) (broadcastable against each other) and returns weights of
the broadcast shape.  These may be views that are not contiguous (the
symmetrized kernel hands over the swapped point as a view of an
axis-first buffer), so a map reads them through indexing and ufuncs,
not through their memory layout.  Kernels are immutable, so the scheme
cache can key on them.

The library assumes kernels are continuous in x; this is not checked.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Kernel",
    "HypothesesReport",
    "symmetrize",
    "verify_hypotheses",
    "matrix_kernel",
    "builtin",
    "BUILTIN_NAMES",
    "builtin_param_names",
]

Map = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Kernel:
    """Spatially varying two-point weight with declared limit data.

    evaluate(x, h): weight at base point x and offset h != 0.
    radial_limit(x, w): limit of evaluate(x, r*w) as r -> 0 (unit w).
    tail_limit(x, w): limit as r -> infinity, when it exists; None
        otherwise.  Operations that need it fail fast when absent.
    period: per-axis x-period for cell-periodic kernels, else None.
    """

    evaluate: Map
    dimension: int
    bounds: tuple[float, float]
    radial_limit: Map
    tail_limit: Optional[Map] = None
    period: Optional[tuple[float, ...]] = None
    name: str = "kernel"

    def __post_init__(self):
        lo, hi = self.bounds
        if not (0.0 < lo <= hi):
            raise ValueError(f"bounds must satisfy 0 < m_minus <= m_plus, got {self.bounds}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def m_minus(self) -> float:
        return self.bounds[0]

    @property
    def m_plus(self) -> float:
        return self.bounds[1]

    def __repr__(self):
        return (
            f"Kernel({self.name!r}, n={self.dimension}, "
            f"bounds=({self.m_minus:g}, {self.m_plus:g}))"
        )


@dataclass(frozen=True)
class HypothesesReport:
    """Residuals of the boundedness / symmetry / radial-limit audit."""

    h1_violation: float
    h2_violation: float
    h3_slope: float
    h3_residual: float
    bounds_violation: float
    h1_passed: bool
    h2_passed: bool
    h3_passed: bool
    witness: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        return self.h1_passed and self.h2_passed and self.h3_passed


def symmetrize(k: Kernel) -> Kernel:
    """Average m over the two writings of a point pair.

    The result satisfies m(x, h) = m(x-h, -h) exactly, keeps the bounds,
    and leaves every energy unchanged (the double integral is invariant
    under the pair swap).  Averaging is idempotent.  The radial limit of
    the average is the even part of the declared one (continuity in x).
    The tail limit is always dropped, even for an input that is already
    symmetric: the swapped branch runs off to infinity in x, so a caller
    that needs the far field averages the declared limit over +-w itself.

    The swapped point x - h is formed one axis at a time into an
    axis-first buffer, and the kernel receives its (..., n) view.  A
    single broadcast subtraction would run numpy's inner loop over the
    trailing axis of length n, which on the scheme's rung x angle x node
    lattice cost several times the kernel's own evaluation; per axis, the
    loop runs over the lattice.  Each axis of x is read from an
    axis-first contiguous copy of x itself, which is small (the nodes),
    not from a strided view of x broadcast to the lattice.  Subtraction
    is elementwise, so every sample has the same bits either way.
    """

    ev = k.evaluate

    def evaluate(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        shape = np.broadcast_shapes(x.shape, h.shape)
        xa = np.moveaxis(x, -1, 0).copy()
        y = np.empty((shape[-1],) + shape[:-1])
        for a in range(shape[-1]):
            np.subtract(xa[a], h[..., a], out=y[a])
        return 0.5 * (
            np.asarray(ev(x, h), dtype=float)
            + np.asarray(ev(np.moveaxis(y, 0, -1), -h), dtype=float)
        )

    rad = k.radial_limit

    def radial_limit(x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        return 0.5 * (rad(x, w) + rad(x, -w))

    return Kernel(
        evaluate=evaluate,
        dimension=k.dimension,
        bounds=k.bounds,
        radial_limit=radial_limit,
        tail_limit=None,
        period=k.period,
        name=f"sym({k.name})",
    )


def _halton(n_dim: int, count: int, seed: int) -> np.ndarray:
    """First ``count`` points of a scrambled Halton sequence in [0, 1)^n_dim.

    Axis i is the radical inverse of the point index in the i-th prime
    b, with digit j sent through its own random permutation of range(b)
    (Owen, "A randomized Halton algorithm in R", arXiv:1706.02808).
    Every place with b**-(j+1) > 2**-54 is permuted, also those where
    the index has run out of digits (digit 0).  The permutations are
    drawn in order from ``np.random.default_rng(seed)``, and the place
    value is divided down by b one digit at a time (``b**-(j+1)`` rounds
    differently in the last bit), so the points equal scipy's
    ``qmc.Halton(d=n_dim, scramble=True, seed=seed).random(count)``
    bit for bit.
    """
    rng = np.random.default_rng(seed)
    primes: list[int] = []
    c = 2
    while len(primes) < n_dim:
        if all(c % q for q in primes):
            primes.append(c)
        c += 1
    out = np.zeros((count, n_dim))
    for axis, b in enumerate(primes):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        index = np.arange(count)
        scale = 1.0 / b
        for perm in perms:
            out[:, axis] += perm[index % b] * scale
            index //= b
            scale /= b
    return out


_AUDIT_RANGE = 2.0  # audited points and offsets lie in [-2, 2]^n


def verify_hypotheses(k: Kernel, sample_budget: int, seed: int = 0) -> HypothesesReport:
    """Audit boundedness, pair symmetry and the declared radial limit.

    Sampling is quasi-random: the in-tree scrambled Halton sequence
    :func:`_halton`, identical to scipy's ``qmc.Halton(scramble=True)``
    for an integer seed.  A kernel passes when the bound and symmetry
    violations vanish (to 1e-12 of the bound scale) and the small-r
    deviation |m(x, r*w) - a(x, w)| either sits below 1e-12
    (r-independent kernels) or decays with log-log slope >= 0.9 over r
    in [1e-4, 1e-1].  Failures are reported with a witnessing sample,
    never raised.
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    n = k.dimension
    lo, hi = k.bounds
    scale = max(hi, 1.0)
    tol = 1e-12 * scale

    count = max(sample_budget, 8)
    u = _halton(2 * n, count, seed)
    x = _AUDIT_RANGE * (2.0 * u[:, :n] - 1.0)
    h = _AUDIT_RANGE * (2.0 * u[:, n:] - 1.0)
    norm = np.linalg.norm(h, axis=1)
    keep = norm > 1e-9
    x, h = x[keep], h[keep]

    vals = np.asarray(k.evaluate(x, h), dtype=float)
    h1_res = np.maximum(lo - vals, vals - hi)
    i1 = int(np.argmax(h1_res))
    h1_violation = max(float(h1_res[i1]), 0.0)

    swapped = np.asarray(k.evaluate(x - h, -h), dtype=float)
    h2_res = np.abs(vals - swapped)
    i2 = int(np.argmax(h2_res))
    h2_violation = float(h2_res[i2])

    # radial-limit fit along quasi-random directions
    n_dirs = min(16, max(4, sample_budget // 8))
    w = _AUDIT_RANGE * (2.0 * _halton(n, n_dirs, seed + 1) - 1.0)
    w = w / np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-30)
    xs = _AUDIT_RANGE * (2.0 * _halton(n, n_dirs, seed + 2) - 1.0)
    radii = np.logspace(-4, -1, 13)
    a_ref = np.asarray(k.radial_limit(xs, w), dtype=float)
    dev = np.empty((n_dirs, radii.size))
    for j, r in enumerate(radii):
        dev[:, j] = np.abs(
            np.asarray(k.evaluate(xs, r * w), dtype=float) - a_ref
        )
    h3_residual = float(dev.max())
    if h3_residual <= tol:
        h3_slope = math.inf
        h3_passed = True
    else:
        worst = math.inf
        logr = np.log(radii)
        for i in range(n_dirs):
            d = dev[i]
            if d.max() <= tol:
                continue
            mask = d > 1e-300
            if mask.sum() < 2:
                continue
            slope = np.polyfit(logr[mask], np.log(d[mask]), 1)[0]
            worst = min(worst, float(slope))
        h3_slope = worst
        h3_passed = h3_slope >= 0.9

    bounds_res = np.maximum(lo - a_ref, a_ref - hi).max()
    if k.tail_limit is not None:
        t_ref = np.asarray(k.tail_limit(xs, w), dtype=float)
        bounds_res = max(bounds_res, np.maximum(lo - t_ref, t_ref - hi).max())
    bounds_violation = max(float(bounds_res), 0.0)

    h1_passed = h1_violation <= tol
    h2_passed = h2_violation <= tol
    witness = None
    if not h1_passed:
        witness = ("H1", x[i1].tolist(), h[i1].tolist(), float(vals[i1]))
    elif not h2_passed:
        witness = ("H2", x[i2].tolist(), h[i2].tolist(), float(h2_res[i2]))
    elif not h3_passed:
        iw = int(np.argmax(dev.max(axis=1)))
        witness = ("H3", xs[iw].tolist(), w[iw].tolist(), h3_residual)

    return HypothesesReport(
        h1_violation=h1_violation,
        h2_violation=h2_violation,
        h3_slope=h3_slope,
        h3_residual=h3_residual,
        bounds_violation=bounds_violation,
        h1_passed=h1_passed,
        h2_passed=h2_passed,
        h3_passed=h3_passed,
        witness=witness,
    )


def matrix_kernel(
    M: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: float,
    dimension: int,
    ellipticity: tuple[float, float],
    period: Optional[tuple[float, ...]] = None,
    name: str = "matrix",
) -> Kernel:
    """Weight |M(x,h) h/|h||^alpha from a symmetric elliptic matrix field.

    ``M(x, h)`` must return matrices of shape (..., n, n) with
    eigenvalues in ``ellipticity = (lam, Lam)`` and satisfy the pair
    symmetry M(x, h) = M(x-h, -h).  The radial limit is
    |M(x, 0) w|^alpha.  Positive definiteness is spot-checked on a few
    samples at construction.
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    lam, Lam = ellipticity
    if not 0.0 < lam <= Lam:
        raise ValueError("need 0 < lam <= Lam")

    def _apply(x, h, unit):
        mats = np.asarray(M(x, h), dtype=float)
        vec = np.einsum("...ij,...j->...i", mats, unit)
        return np.linalg.norm(vec, axis=-1) ** alpha

    def evaluate(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        x, h = np.broadcast_arrays(x, h)
        nr = np.linalg.norm(h, axis=-1, keepdims=True)
        unit = h / np.maximum(nr, 1e-300)
        return _apply(x, h, unit)

    def radial_limit(x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        x, w = np.broadcast_arrays(x, w)
        return _apply(x, np.zeros_like(x), w)

    # spot-check spd-ness
    rng = np.random.default_rng(12345)
    xs = rng.uniform(-1.0, 1.0, size=(8, dimension))
    hs = rng.uniform(-1.0, 1.0, size=(8, dimension))
    mats = np.asarray(M(xs, hs), dtype=float)
    if mats.shape[-2:] != (dimension, dimension):
        raise ValueError("M must return (..., n, n) matrices")
    if not np.allclose(mats, np.swapaxes(mats, -1, -2), atol=1e-10):
        raise ValueError("M samples are not symmetric")
    eig = np.linalg.eigvalsh(mats)
    if eig.min() <= 0.0:
        raise ValueError("M samples are not positive definite")

    if alpha > 0:
        bounds = (lam ** alpha, Lam ** alpha)
    else:
        bounds = (Lam ** alpha, lam ** alpha)
    return Kernel(
        evaluate=evaluate,
        dimension=dimension,
        bounds=bounds,
        radial_limit=radial_limit,
        tail_limit=None,
        period=period,
        name=name,
    )


# ---------------------------------------------------------------------------
# built-in kernel registry
# ---------------------------------------------------------------------------

def _constant(params):
    c = float(params.get("c", 1.0))
    if c <= 0.0:
        raise ValueError("constant kernel needs c > 0")
    n = int(params.get("n", 1))

    def const_map(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        shape = np.broadcast_shapes(x.shape, h.shape)[:-1]
        return np.full(shape, c)

    return Kernel(
        evaluate=const_map,
        dimension=n,
        bounds=(c, c),
        radial_limit=const_map,
        tail_limit=const_map,
        period=(1.0,) * n,
        name=f"constant({c:g})",
    )


def _periodic_1d(params):
    a0 = float(params.get("A0", 2.0))
    a1 = float(params.get("A1", 1.0))
    per = float(params.get("period_len", 1.0))
    if a0 - abs(a1) <= 0.0:
        raise ValueError("periodic-1d needs A0 - |A1| > 0")
    if per <= 0.0:
        raise ValueError("periodic-1d needs period_len > 0")

    def ev(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        shape = np.broadcast_shapes(x.shape, h.shape)[:-1]
        return np.broadcast_to(
            a0 + a1 * np.sin(2.0 * np.pi * x[..., 0] / per), shape
        ).copy()

    return Kernel(
        evaluate=ev,
        dimension=1,
        bounds=(a0 - abs(a1), a0 + abs(a1)),
        radial_limit=ev,
        tail_limit=ev,
        period=(per,),
        name=f"periodic-1d({a0:g},{a1:g})",
    )


def _matrix_alpha(params):
    n = int(params.get("n", 1))
    alpha = float(params.get("alpha", 1.0))
    if alpha == 0.0:
        raise ValueError("matrix-alpha needs alpha != 0")
    if n == 1:
        m0 = float(params.get("m0", 1.0))
        m1 = float(params.get("m1", 0.5))
        if m0 - abs(m1) <= 0.0:
            raise ValueError("matrix-alpha (n=1) needs m0 - |m1| > 0")

        # midpoint form keeps the pair symmetry exact
        def M(x, h):
            x = np.asarray(x, dtype=float)
            h = np.asarray(h, dtype=float)
            x, h = np.broadcast_arrays(x, h)
            mid = x[..., 0] - 0.5 * h[..., 0]
            return (m0 + m1 * np.sin(2.0 * np.pi * mid))[..., None, None]

        return matrix_kernel(
            M, alpha, 1, (m0 - abs(m1), m0 + abs(m1)),
            period=(1.0,), name=f"matrix-alpha(n=1,a={alpha:g})",
        )
    if n == 2:
        d1 = float(params.get("d1", 2.0))
        d2 = float(params.get("d2", 1.0))
        if min(d1, d2) <= 0.0:
            raise ValueError("matrix-alpha (n=2) needs d1, d2 > 0")

        def M(x, h):
            x = np.asarray(x, dtype=float)
            h = np.asarray(h, dtype=float)
            shape = np.broadcast_shapes(x.shape, h.shape)[:-1]
            out = np.zeros(shape + (2, 2))
            out[..., 0, 0] = d1
            out[..., 1, 1] = d2
            return out

        return matrix_kernel(
            M, alpha, 2, (min(d1, d2), max(d1, d2)),
            period=(1.0, 1.0), name=f"matrix-alpha(n=2,a={alpha:g})",
        )
    raise ValueError("matrix-alpha supports n in {1, 2}")


def _separable_angular(params):
    n = int(params.get("n", 2))
    if n != 2:
        raise ValueError("separable-angular is defined for n = 2")
    c0 = float(params.get("c0", 1.0))
    c1 = float(params.get("c1", 0.5))
    if c0 <= 0.0 or c0 + min(c1, 0.0) <= 0.0:
        raise ValueError("separable-angular needs positive range")

    def angular(w):
        # c0 + c1*cos^2(theta); even in w, so pair symmetry is exact
        return c0 + c1 * w[..., 0] ** 2 / np.maximum(
            np.sum(w * w, axis=-1), 1e-300
        )

    def ev(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        shape = np.broadcast_shapes(x.shape, h.shape)[:-1]
        return np.broadcast_to(angular(h), shape).copy()

    lo = min(c0, c0 + c1)
    hi = max(c0, c0 + c1)
    return Kernel(
        evaluate=ev,
        dimension=2,
        bounds=(lo, hi),
        radial_limit=lambda x, w: ev(x, w),
        tail_limit=lambda x, w: ev(x, w),
        period=(1.0, 1.0),
        name=f"separable-angular({c0:g},{c1:g})",
    )


def _tabulated(params):
    path = params.get("table")
    if path is None:
        raise ValueError("tabulated kernel needs a 'table' CSV path")
    xs, hs, vs = [], [], []
    seen = set()
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ValueError(f"tabulated kernel: cannot read {path}: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            where = f"tabulated kernel: {path} line {reader.line_num}"
            try:
                x, h, v = map(float, row[:3])
            except ValueError:
                raise ValueError(
                    f"{where}: {','.join(row)!r} is not an x,h,value triple"
                ) from None
            if not all(map(math.isfinite, (x, h, v))):
                raise ValueError(f"{where}: {','.join(row)!r} is not finite")
            if (x, h) in seen:
                raise ValueError(f"{where}: repeats the point (x, h) = ({x:g}, {h:g})")
            seen.add((x, h))
            xs.append(x)
            hs.append(h)
            vs.append(v)
    xg = np.unique(np.asarray(xs))
    hg = np.unique(np.asarray(hs))
    if xg.size < 2 or hg.size < 2:
        raise ValueError(
            f"tabulated kernel: {path} needs at least two x and two h values, "
            f"got {xg.size} and {hg.size}"
        )
    table = np.full((xg.size, hg.size), np.nan)
    ix = np.searchsorted(xg, xs)
    ih = np.searchsorted(hg, hs)
    table[ix, ih] = vs
    if np.isnan(table).any():
        raise ValueError(f"tabulated kernel: {path}: the (x, h) grid is not complete")
    if table.min() <= 0.0:
        raise ValueError(f"tabulated kernel: {path}: values must be positive")

    def _interp1(grid, q):
        # linear inside, nearest outside
        qc = np.clip(q, grid[0], grid[-1])
        j = np.clip(np.searchsorted(grid, qc) - 1, 0, grid.size - 2)
        t = (qc - grid[j]) / (grid[j + 1] - grid[j])
        return j, t

    def ev(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        x, h = np.broadcast_arrays(x, h)
        jx, tx = _interp1(xg, x[..., 0])
        jh, th = _interp1(hg, h[..., 0])
        return (
            table[jx, jh] * (1 - tx) * (1 - th)
            + table[jx + 1, jh] * tx * (1 - th)
            + table[jx, jh + 1] * (1 - tx) * th
            + table[jx + 1, jh + 1] * tx * th
        )

    def radial(x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        x, w = np.broadcast_arrays(x, w)
        eps = 0.5 * min(abs(hg[0]), abs(hg[-1]), hg[1] - hg[0])
        return ev(x, eps * w)

    def tail(x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        x, w = np.broadcast_arrays(x, w)
        far = 2.0 * max(abs(hg[0]), abs(hg[-1]))
        return ev(x, far * w)

    return Kernel(
        evaluate=ev,
        dimension=1,
        bounds=(float(table.min()), float(table.max())),
        radial_limit=radial,
        tail_limit=tail,
        period=None,
        name="tabulated",
    )


_REGISTRY = {
    "constant": (_constant, {"c", "n"}),
    "periodic-1d": (_periodic_1d, {"A0", "A1", "period_len"}),
    "matrix-alpha": (_matrix_alpha, {"n", "alpha", "m0", "m1", "d1", "d2"}),
    "separable-angular": (_separable_angular, {"n", "c0", "c1"}),
    "tabulated": (_tabulated, {"table"}),
}

BUILTIN_NAMES = tuple(sorted(_REGISTRY))


def builtin_param_names(name: str) -> set[str]:
    if name not in _REGISTRY:
        raise ValueError(f"unknown kernel {name!r}; choose from {BUILTIN_NAMES}")
    return set(_REGISTRY[name][1])


def builtin(name: str, params: dict | None = None) -> Kernel:
    """Construct a registered kernel family member by name."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown kernel {name!r}; choose from {BUILTIN_NAMES}")
    factory, allowed = _REGISTRY[name]
    params = dict(params or {})
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"kernel {name!r} does not accept {sorted(unknown)}")
    return factory(params)
