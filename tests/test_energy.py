import dataclasses
import decimal
import hashlib
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad

from anisofrac import energy
from anisofrac._sphere import sphere_measure
from anisofrac.energy import (
    EnergyScheme,
    QuadratureSettings,
    anisotropic_energy,
    gagliardo,
    get_scheme,
)
from anisofrac.gridfn import FractionalParams, Grid, GridFunction
from anisofrac.homogenize import _KERNEL_SHIFTS, homogenized_kernel
from anisofrac.kernel import Kernel, builtin
from anisofrac.limits import LimitDensity
from anisofrac.variational import LocalProblem, _local_atoms
from conftest import bump_profile, hat_profile
from oracles import bbm_upper_bound_check, interpolation_check


def brute_force_seminorm(u_vals, xs_u, s, p, M=2001, L=4.0, m_fn=None):
    """Excised double trapezoid on [-L, L]^2 plus far-field corrections.

    Independent of the package quadrature: plain (x, y) sampling with a
    symmetric diagonal excision, and the |y| > L legs handled by
    closed form (unit weight) or adaptive 1D quadrature (weighted).
    """
    xs = np.linspace(-L, L, M)
    h = xs[1] - xs[0]
    delta = 1.5 * h
    w = np.full(M, h)
    w[0] = w[-1] = 0.5 * h
    U = np.interp(xs, xs_u, u_vals, left=0.0, right=0.0)
    D = np.abs(U[:, None] - U[None, :]) ** p
    R = np.abs(xs[:, None] - xs[None, :])
    mask = R > delta
    Rsafe = np.where(mask, R, 1.0)
    K = np.where(mask, Rsafe ** (-(1.0 + s * p)), 0.0)
    if m_fn is not None:
        K = K * m_fn(xs[:, None], xs[:, None] - xs[None, :])
    core = float((w[:, None] * w[None, :] * D * K).sum())

    sup = np.abs(U) > 0
    far = 0.0
    for xi, wi, ui in zip(xs[sup], w[sup], U[sup]):
        up = abs(ui) ** p
        if m_fn is None:
            far += 2.0 * wi * up * (
                (L - xi) ** (-s * p) + (L + xi) ** (-s * p)
            ) / (s * p)
        else:
            # leg 1: x in the support, y beyond the box
            g1 = quad(lambda y: m_fn(xi, xi - y) * abs(xi - y) ** (-1 - s * p),
                      L, 40 * L, limit=200)[0]
            g2 = quad(lambda y: m_fn(xi, xi - y) * abs(xi - y) ** (-1 - s * p),
                      -40 * L, -L, limit=200)[0]
            # leg 2: x beyond the box, y in the support (x plays the base point)
            g3 = quad(lambda x: m_fn(x, x - xi) * abs(x - xi) ** (-1 - s * p),
                      L, 40 * L, limit=200)[0]
            g4 = quad(lambda x: m_fn(x, x - xi) * abs(x - xi) ** (-1 - s * p),
                      -40 * L, -L, limit=200)[0]
            far += wi * up * (g1 + g2 + g3 + g4)
    if m_fn is not None:
        # truncation of the quad legs at 40 L, bounded through the kernel cap
        far += 4.0 * float(np.dot(w[sup], np.abs(U[sup]) ** p)) * 3.0 * (
            (39.0 * L) ** (-s * p) / (s * p)
        )
    return core, far


def _x_dependent_kernel():
    """A 2D weight that varies with the base point x and the offset h."""
    def evaluate(x, h):
        x, h = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(h, dtype=float))
        return 1.0 + 0.4 * np.sin(3.0 * x[..., 0] + x[..., 1]) * np.cos(h[..., 0]) ** 2

    def radial_limit(x, w):
        x, w = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(w, dtype=float))
        return 1.0 + 0.4 * np.sin(3.0 * x[..., 0] + x[..., 1])

    return Kernel(evaluate=evaluate, dimension=2, bounds=(0.6, 1.4),
                  radial_limit=radial_limit, name="x-dependent")


def test_zero_function_energy_is_zero(grid129):
    z = GridFunction(grid129, np.zeros(129))
    rep = gagliardo(z, FractionalParams(0.5, 2.0))
    assert rep.value == 0.0
    assert rep.near_diagonal == 0.0 and rep.bulk == 0.0 and rep.tail == 0.0


def test_hat_seminorm_matches_brute_force(grid129, hat129):
    s, p = 0.5, 2.0
    rep = gagliardo(hat129, FractionalParams(s, p))
    xs = np.linspace(-1, 1, 129)
    c1, f1 = brute_force_seminorm(hat129.values, xs, s, p, M=1001)
    c2, f2 = brute_force_seminorm(hat129.values, xs, s, p, M=2001)
    oracle = 2.0 * (c2 + f2) - (c1 + f1)  # first-order Richardson in h
    assert rep.value == pytest.approx(oracle, rel=0.01)


def test_scaling_law(hat129):
    fp = FractionalParams(0.5, 2.0)
    r1 = gagliardo(hat129, fp)
    r2 = gagliardo(hat129.scaled(2.0), fp)
    assert r2.value == pytest.approx(2.0 ** fp.p * r1.value, rel=1e-10)


def test_decomposition_is_bit_exact(hat129):
    rep = gagliardo(hat129, FractionalParams(0.3, 1.5))
    assert rep.value == rep.near_diagonal + rep.bulk + rep.tail


def test_constant_kernel_matches_gagliardo(hat129):
    fp = FractionalParams(0.5, 2.0)
    k = builtin("constant", {"c": 1.0})
    rep_a = anisotropic_energy(k, hat129, fp)
    rep_g = gagliardo(hat129, fp)
    pref = (1.0 - fp.s) / fp.p
    assert rep_a.value == pytest.approx(pref * rep_g.value, rel=1e-12)


def test_kernel_bounds_sandwich(hat129):
    fp = FractionalParams(0.4, 2.0)
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    rep = anisotropic_energy(k, hat129, fp)
    base = gagliardo(hat129, fp)
    pref = (1.0 - fp.s) / fp.p
    tol = rep.error_bound + k.m_plus * base.error_bound
    assert rep.value <= k.m_plus * pref * base.value + tol
    assert rep.value >= k.m_minus * pref * base.value - tol


def test_shift_invariance_translation_kernel(grid129):
    # translate the hat by 32 whole cells; constant kernel sees the same energy
    xs = np.linspace(-1, 1, 129)
    u1 = GridFunction(grid129, hat_profile(2.0 * xs))
    shift = 32 * grid129.spacing[0]
    u2 = GridFunction(grid129, hat_profile(2.0 * (xs - shift)))
    k = builtin("constant", {"c": 1.0})
    fp = FractionalParams(0.6, 2.0)
    r1 = anisotropic_energy(k, u1, fp)
    r2 = anisotropic_energy(k, u2, fp)
    assert abs(r1.value - r2.value) <= 2.0 * max(r1.error_bound, r2.error_bound)


def test_anisotropic_brute_force_equivalence():
    # N <= 64, weighted by the oscillating kernel, against the naive
    # excised double sum with adaptive far legs
    grid = Grid(((-1.0, 1.0),), 57)
    xs = np.linspace(-1, 1, 57)
    u = GridFunction(grid, hat_profile(xs))
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    s, p = 0.55, 2.0
    rep = anisotropic_energy(k, u, FractionalParams(s, p))
    raw = rep.value / ((1.0 - s) / p)
    raw_err = rep.error_bound / ((1.0 - s) / p)

    def m_fn(x, h):
        return 2.0 + np.sin(2.0 * np.pi * x)

    c1, f1 = brute_force_seminorm(u.values, xs, s, p, M=1201, m_fn=m_fn)
    c2, f2 = brute_force_seminorm(u.values, xs, s, p, M=2401, m_fn=m_fn)
    oracle = 2.0 * c2 - c1 + f2
    oracle_err = abs(c2 - c1) + 0.05 * f2
    assert abs(raw - oracle) <= max(0.01 * abs(oracle), raw_err + oracle_err)


def test_monotone_refinement(hat129):
    fp = FractionalParams(0.5, 2.0)
    fine = QuadratureSettings(points_per_octave=16, h_min_fraction=0.0625)
    r1 = gagliardo(hat129, fp)
    r2 = EnergyScheme(builtin("constant", {"n": 1}), hat129.grid, fine).report(hat129, fp, 1.0)
    assert abs(r2.value - r1.value) <= r1.error_bound
    # 2D: the default scheme against twice the rungs, half h_min and twice
    # the angles, on the anisotropic kernel
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), 17)
    u = GridFunction.from_callable(g, lambda x, y: bump_profile(np.hypot(x, y) / 0.8))
    k = builtin("separable-angular", {"c0": 1.0, "c1": 0.5})
    fine = EnergyScheme(
        k, g, QuadratureSettings(points_per_octave=16, h_min_fraction=0.0625,
                                 angular_points=64)
    )
    for s in (0.1, 0.5, 0.9):
        fp = FractionalParams(s, 2.0)
        r1 = anisotropic_energy(k, u, fp)
        r2 = fine.report(u, fp, (1.0 - s) / fp.p)
        assert abs(r2.value - r1.value) <= r1.error_bound, s


def test_angular_refinement_stays_inside_the_bound():
    # the same ladder with 4 angles and with 64: the gap is the angular
    # rule's error, which the bound's angular residual term covers
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), 17)
    u = GridFunction.from_callable(g, lambda x, y: bump_profile(np.hypot(x, y) / 0.8))
    k = builtin("separable-angular", {"c0": 1.0, "c1": 0.5})
    coarse, fine = (
        EnergyScheme(k, g, QuadratureSettings(points_per_octave=32, h_min_fraction=1 / 64,
                                              angular_points=m))
        for m in (4, 64)
    )
    for s in (0.1, 0.5, 0.9):
        fp = FractionalParams(s, 2.0)
        r4 = coarse.report(u, fp, (1.0 - s) / fp.p)
        r64 = fine.report(u, fp, (1.0 - s) / fp.p)
        assert abs(r4.value - r64.value) <= r4.error_bound, s


@pytest.mark.parametrize("alpha", [1.0, -1.5])
@pytest.mark.parametrize("s", [0.9, 0.99])
def test_near_kernel_deviation_stays_inside_the_bound(alpha, s):
    # below h_min the scheme weighs |D_w u|^p by the radial limit a(x, w)
    # in place of m(x, r w); the gap, integrated exactly in r, is what the
    # H3 term of the bound covers, and near s = 1 it is most of the bound
    p = 2.0
    g = Grid(((-1.0, 1.0),), 33)
    u = GridFunction.from_callable(g, lambda x: hat_profile(x / 0.8))
    k = builtin("matrix-alpha", {"n": 1, "alpha": alpha, "m0": 1.0, "m1": 0.5})
    scheme = EnergyScheme(k, g)
    x = g.nodes()[:, 0]
    h = g.spacing[0]
    padded = np.pad(u.values, 1)  # zero ghosts
    t, wt = np.polynomial.legendre.leggauss(32)
    r = 0.5 * scheme.h_min * (t + 1.0)
    gap = 0.0
    for w, slope in ((1.0, (padded[1:-1] - padded[:-2]) / h),  # slopes toward -w
                     (-1.0, (padded[1:-1] - padded[2:]) / h)):
        m = k.evaluate(x[:, None, None], w * r[None, :, None])
        a = k.radial_limit(x[:, None], np.full((x.size, 1), w))
        dev = np.abs(m - a[:, None]) * r ** (p * (1.0 - s) - 1.0)
        gap += np.dot(g.trapezoid_weights() * np.abs(slope) ** p,
                      0.5 * scheme.h_min * dev @ wt)
    assert 0.0 < gap <= scheme.report(u, FractionalParams(s, p), 1.0).error_bound


def _far_field_cases():
    g1 = Grid(((-1.0, 1.0),), 129)
    g2 = Grid(((-1.0, 1.0), (-1.0, 1.0)), 17)
    yield "1d-hat", GridFunction.from_callable(g1, hat_profile)
    yield "2d-bump", GridFunction.from_callable(
        g2, lambda x, y: bump_profile(np.hypot(x, y) / 0.8)
    )


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_tail_of_a_constant_kernel_is_the_closed_form(c):
    # beyond h_split the supports of u and its shift are disjoint, so the
    # tail is 2 c |S^(n-1)| h_split^(-sp) / (sp) * sum w_x |u|^p; the far
    # ladder's trapezoid in log r overshoots the exact r-integral by at
    # most (sp dt)^2 / 12 relative, dt = ln 2 / 8
    for name, u in _far_field_cases():
        n = u.grid.dimension
        scheme = EnergyScheme(builtin("constant", {"n": n, "c": c}), u.grid)
        for p in (1.5, 2.0, 3.0):
            mass = float(np.dot(scheme.w_x, np.abs(u.values.ravel()) ** p))
            for s in (0.05, 0.5, 0.95):
                sp = s * p
                closed = 2.0 * c * sphere_measure(n) * scheme.h_split ** (-sp) / sp * mass
                ratio = scheme.report(u, FractionalParams(s, p), 1.0).tail / closed - 1.0
                assert 0.0 <= ratio < (sp * np.log(2.0) / 8.0) ** 2 / 12.0, (name, p, s)


@pytest.mark.parametrize("averaged", [False, True], ids=["periodic-1d", "homogenized"])
def test_1d_build_samples_the_kernel_in_few_calls(averaged):
    # a build samples the kernel once per block of rungs, not once per
    # rung, and an averaged kernel calls its base kernel once per call
    plain = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    points = []

    def base_evaluate(x, h):
        points.append(np.prod(np.broadcast_shapes(np.shape(x), np.shape(h))[:-1]))
        return plain.evaluate(x, h)

    base = dataclasses.replace(plain, evaluate=base_evaluate)
    kern = homogenized_kernel(base) if averaged else base
    calls = []

    def evaluate(x, h):
        calls.append(1)
        return kern.evaluate(x, h)

    scheme = EnergyScheme(dataclasses.replace(kern, evaluate=evaluate), Grid(((-1.0, 1.0),), 257))
    assert 0 < len(calls) <= 4
    if averaged:
        # the average does not depend on x: each of the two writings of a
        # pair samples the shifts against the offsets alone, never at the
        # nodes (which would cost 257 times as many points), in one call of
        # the base kernel per call of the average
        n_rungs, n_ang = scheme.radii.shape[0], scheme.dirs.shape[0]
        assert sum(points) <= 2 * _KERNEL_SHIFTS * n_rungs * n_ang
        assert len(points) <= len(calls)


def test_boundary_values_must_vanish(grid129):
    u = GridFunction(grid129, np.ones(129), boundary_flag=False)
    with pytest.raises(ValueError, match="compact"):
        gagliardo(u, FractionalParams(0.5, 2.0))


def test_boundary_values_must_vanish_2d():
    g = Grid(((-1.0, 1.0), (-0.5, 1.5)), 7)
    interior = np.zeros(g.shape)
    interior[1:-1, 1:-1] = 1.0
    gagliardo(GridFunction(g, interior, boundary_flag=False), FractionalParams(0.5, 2.0))
    for edge in ((0, 3), (-1, 3), (3, 0), (3, -1)):
        vals = interior.copy()
        vals[edge] = 1.0
        with pytest.raises(ValueError, match="compact"):
            gagliardo(GridFunction(g, vals, boundary_flag=False), FractionalParams(0.5, 2.0))


def test_energy_that_overflows_is_rejected(grid129, bump129):
    # |L u|^800 overflows: numpy warns the library caller, and the report
    # refuses the nan
    u = GridFunction(grid129, 40.0 * bump129.values)
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="energy value is nan"):
        anisotropic_energy(builtin("constant", {"c": 1.0}), u, FractionalParams(0.5, 800.0))
    rep = gagliardo(bump129, FractionalParams(0.5, 2.0))
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"error bound .* is not in \[0, inf\)"):
            dataclasses.replace(rep, error_bound=bad)


@pytest.mark.parametrize("case", ["gagliardo-1d", "separable-angular-2d"])
def test_atoms_agree_with_report(hat129, case):
    fp = FractionalParams(0.45, 2.5)
    if case == "gagliardo-1d":
        kern, u = builtin("constant", {"n": 1}), hat129
    else:
        kern, u, _ = _golden_case("separable-angular N=17 bump")
    scheme = get_scheme(kern, u.grid)
    (near, bulk, tail, _), = scheme.raw_components(u, fp.p, [fp.s])
    atoms = scheme.atoms(fp)
    assert atoms.objective(u.values.ravel()) == pytest.approx(
        near + bulk + tail, rel=1e-12
    )
    # one s-independent operator: atom sets at any s share the scheme's L
    assert scheme.atoms(FractionalParams(0.8, 2.5)).L is atoms.L is scheme.L


def _shifted_points(scheme, j):
    """x - r_j w_k per (node, angle), and whether it lies in the closed box."""
    P = scheme.nodes[:, None, :] - scheme.r_bulk[j] * scheme.dirs[None, :, :]
    lo, hi = np.array(scheme.grid.box).T
    return P, ((P >= lo) & (P <= hi)).all(axis=2)


def test_bulk_rows_are_shifted_differences():
    # every bulk row of L against an independent bilinear interpolant:
    # v(x) - v(x - r w) for each (rung, angle, node) whose shifted point
    # stays in the box, in that order
    from scipy.interpolate import RegularGridInterpolator

    g = Grid(((-1.0, 1.0), (-0.5, 1.5)), 9)
    rng = np.random.default_rng(7)
    u = GridFunction(g, rng.standard_normal(g.shape))
    scheme = EnergyScheme(builtin("constant", {"n": 2}), g,
                          QuadratureSettings(angular_points=8))
    ell = scheme.L @ u.values.ravel()
    n_ang, n_bulk = 8, scheme.r_bulk.shape[0]
    bulk = slice(scheme.near_rows.stop, scheme.tail_rows.start)
    interp = RegularGridInterpolator(g.axes(), u.values, bounds_error=False, fill_value=0.0)
    expected, labels = [], []
    for j in range(n_bulk):
        P, inside = _shifted_points(scheme, j)
        diff = u.values.ravel()[:, None] - interp(P)
        expected.append(diff.T[inside.T])  # (angle, node) order
        for k in range(n_ang):
            # one run of rows per (rung, angle), labelled by rung and angle parity
            assert scheme._labels[j, k] == 2 * j + k % 2
            assert scheme._counts[j, k] == inside[:, k].sum()
        labels.append(np.repeat(2 * j + np.arange(n_ang) % 2, inside.sum(axis=0)))
    expected = np.concatenate(expected)
    assert ell[bulk].shape == expected.shape
    assert np.abs(ell[bulk] - expected).max() <= 1e-13 * np.abs(u.values).max()
    # weights: base times the factor of the row's label, in the same layout,
    # at an (s, p) whose rung factors differ
    fp = FractionalParams(0.3, 2.5)
    factor = scheme.label_factors(fp.s, fp.p)
    assert np.unique(factor[:2 * n_bulk]).size == n_bulk
    assert np.array_equal(scheme.atoms(fp).W[bulk],
                          scheme.base[bulk] * factor[np.concatenate(labels)])


@pytest.mark.parametrize(
    "kernel_name, params, box, N",
    [
        # unequal spacings per axis
        ("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5}, ((-1.0, 3.0), (0.0, 1.0)), 25),
        # the default angles, four of them within rounding of an axis
        ("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5}, ((-1.0, 1.0), (-1.0, 1.0)), 9),
        ("periodic-1d", {"A0": 2.0, "A1": 1.0}, ((-1.0, 1.0),), 1100),
    ],
    ids=["separable-angular 2D N=25", "separable-angular 2D N=9", "periodic-1d N=1100"],
)
def test_bulk_rows_are_their_stencil(kernel_name, params, box, N):
    # each bulk row of (rung j, angle k) at node x is, bit for bit, the
    # stencil v(x) + sum_c phi_jk,c v(x + m_jk + c) over the corners with a
    # nonzero factor, for exactly the nodes whose shifted point stays in
    # the box; its columns lie in the grid along every axis, and L stores
    # no zero and no single-entry bulk row
    g = Grid(box, N)
    scheme = get_scheme(builtin(kernel_name, params), g)
    L = scheme.L
    n = g.dimension
    n_ang, n_bulk = scheme.dirs.shape[0], scheme.r_bulk.shape[0]
    at = np.stack(np.unravel_index(np.arange(scheme.nodes.shape[0]), g.shape), axis=1)
    corners = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    assert np.count_nonzero(L.data == 0.0) == 0
    fp = FractionalParams(0.3, 2.5)
    factor = scheme.label_factors(fp.s, fp.p)
    W = scheme.atoms(fp).W
    row = scheme.near_rows.stop
    for j in range(n_bulk):
        _, inside = _shifted_points(scheme, j)
        ms = scheme._msym(scheme.nodes[:, None, :], scheme.r_bulk[j] * scheme.dirs[None, :, :])
        for k in range(n_ang):
            x = np.flatnonzero(inside[:, k])
            keep = scheme._phi[j, k] != 0.0
            y = at[x][:, None, :] + scheme._shift[j, k] + corners[keep]
            assert ((y >= 0) & (y < N)).all(), (j, k)
            cols = np.column_stack([x, np.ravel_multi_index(tuple(np.moveaxis(y, 2, 0)), g.shape)])
            coef = np.concatenate([[1.0], scheme._phi[j, k, keep]])
            assert cols.shape[1] >= 2
            lo = L.indptr[row]
            assert np.array_equal(L.indptr[row:row + x.size + 1] - lo,
                                  cols.shape[1] * np.arange(x.size + 1))
            assert np.array_equal(L.indices[lo:lo + cols.size], cols.ravel())
            assert np.array_equal(L.data[lo:lo + cols.size], np.tile(coef, x.size))
            rows = slice(row, row + x.size)
            assert np.array_equal(scheme.base[rows],
                                  scheme.w_x[x] * scheme.w_dirs[k] * ms[x, k])
            assert scheme._labels[j, k] == 2 * j + k % 2
            assert scheme._counts[j, k] == x.size
            assert np.array_equal(W[rows], scheme.base[rows] * factor[2 * j + k % 2])
            row += x.size
    assert row == scheme.tail_rows.start
    # a report's forms, read from the stencil tables without L, are the
    # bulk rows of L v bit for bit, block of rungs by block of rungs
    v = np.random.default_rng(11).standard_normal(g.shape)
    ell = L @ v.ravel()
    row = scheme.near_rows.stop
    for rungs, rows, forms in scheme._bulk_forms(v):
        assert rows.start == row, rungs
        assert np.array_equal(forms, ell[rows]), rungs
        row = rows.stop
    assert row == scheme.tail_rows.start


@pytest.mark.parametrize(
    "kernel_name, params, box, N",
    [
        ("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5}, ((-1.0, 3.0), (0.0, 1.0)), 25),
        ("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5}, ((-1.0, 1.0), (-1.0, 1.0)), 9),
        ("periodic-1d", {"A0": 2.0, "A1": 1.0}, ((-1.0, 1.0),), 1100),
    ],
    ids=["separable-angular 2D N=25", "separable-angular 2D N=9", "periodic-1d N=1100"],
)
def test_near_forms_are_the_near_rows(kernel_name, params, box, N):
    # the near forms summed over the gradient stencil's slots, zero slots
    # included, are the rows of _near_L times v up to the sign of a zero
    # form, and reading them builds no CSR matrix
    g = Grid(box, N)
    scheme = EnergyScheme(builtin(kernel_name, params), g)
    v = np.random.default_rng(13).standard_normal(scheme.nodes.shape[0])
    vs = [v, np.where(np.arange(v.size) % 3 == 0, v, 0.0)]  # the second has many zero forms
    got = [scheme._near_forms(x) for x in vs]
    assert "_near_L" not in vars(scheme)
    for x, near in zip(vs, got):
        assert np.array_equal(np.abs(near), np.abs(scheme._near_L @ x))


@pytest.mark.parametrize(
    "kernel_name, params, box, N",
    [
        ("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5}, ((-1.0, 3.0), (0.0, 1.0)), 25),
        ("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5}, ((-1.0, 1.0), (-1.0, 1.0)), 9),
        ("periodic-1d", {"A0": 2.0, "A1": 1.0}, ((-1.0, 1.0),), 1100),
        ("periodic-1d", {"A0": 2.0, "A1": 1.0}, ((-1.0, 1.0),), 257),
    ],
    ids=["separable-angular 2D N=25", "separable-angular 2D N=9", "periodic-1d N=1100",
         "periodic-1d N=257"],
)
def test_scheme_forms_are_L_v(kernel_name, params, box, N):
    # the forms read from the stencil tables, near, bulk and tail rows,
    # are L v bit for bit, without assembling L
    g = Grid(box, N)
    scheme = EnergyScheme(builtin(kernel_name, params), g)
    v = np.random.default_rng(7).standard_normal(scheme.nodes.shape[0])
    got = scheme.forms(v)
    assert "L" not in vars(scheme)
    assert np.array_equal(got, scheme.L @ v)


def test_outside_table_folds_the_doubled_rows():
    # a pair that has no row is |v(x)|^p with a doubled weight, summed into
    # outside_w at (node, label): a bulk pair whose shifted point has left
    # the box and every pair of a far rung at 2 * rung + angle parity, and
    # the remainder beyond h_max, 2 w_x sum_k w_k mu(x, w_k), in the last
    # column
    g = Grid(((-1.0, 1.0), (-0.5, 1.5)), 9)
    scheme = EnergyScheme(_x_dependent_kernel(), g, QuadratureSettings(angular_points=8))
    n_bulk, n_ang = scheme.r_bulk.shape[0], scheme.dirs.shape[0]
    radii = np.concatenate([scheme.r_bulk, scheme.r_far])
    want = np.zeros((scheme.nodes.shape[0], 2 * radii.shape[0] + 1))
    n_inside = 0
    for j, r in enumerate(radii):
        if j < n_bulk:
            _, inside = _shifted_points(scheme, j)
        else:
            inside = np.zeros((scheme.nodes.shape[0], n_ang), dtype=bool)
        ms = scheme._msym(scheme.nodes[:, None, :], r * scheme.dirs[None, :, :])
        doubled = (scheme.w_x[:, None] * scheme.w_dirs[None, :] * ms) * 2.0
        for k in range(n_ang):
            want[:, 2 * j + k % 2] += np.where(inside[:, k], 0.0, doubled[:, k])
        n_inside += int(inside.sum())
    # the kernel declares no tail limit, so mu is the middle of its bounds
    want[:, -1] = 2.0 * scheme.w_x * 1.0 * scheme.w_dirs.sum()
    assert np.count_nonzero(want[:, :2 * n_bulk]) > 0
    assert np.allclose(scheme.outside_w, want, rtol=1e-14, atol=0.0)
    assert scheme.tail_rows.start - scheme.near_rows.stop == n_inside


_FAR_BRACKET_CASES = {
    # no tail limit: mu is the middle of the bounds
    "x-dependent N=17": (_x_dependent_kernel, ((-1.0, 1.0), (-0.5, 1.5)), 17),
    # a declared tail limit, averaged over +-w
    "separable-angular N=17": (
        lambda: builtin("separable-angular", {"c0": 1.0, "c1": 0.5}),
        ((-1.0, 1.0), (-1.0, 1.0)), 17,
    ),
}


@pytest.mark.parametrize("name", sorted(_FAR_BRACKET_CASES))
def test_far_bracket_width_is_the_last_octave_deviation(name):
    # rem_hw[x] = sum_k w_k max over the last-octave rungs r of
    # |msym(x, r w_k) - mu(x, w_k)|, the sum over angles taken node-major
    make_kernel, box, N = _FAR_BRACKET_CASES[name]
    kern = make_kernel()
    scheme = EnergyScheme(kern, Grid(box, N))
    x, w = scheme.nodes[:, None, :], scheme.dirs[None, :, :]
    if kern.tail_limit is not None:
        mu = 0.5 * (kern.tail_limit(x, w) + kern.tail_limit(x, -w))
    else:
        mu = np.full((x.shape[0], w.shape[1]), 0.5 * sum(kern.bounds))
    hw = np.zeros(mu.shape)
    for r in scheme.radii[scheme.radii >= scheme.radii[-1] / 2.0]:
        hw = np.maximum(hw, np.abs(scheme._msym(x, r * w) - mu))
    assert np.count_nonzero(hw) > 0
    assert np.array_equal(scheme.rem_hw, hw @ scheme.w_dirs)


_SAMPLING_BLOCK_CASES = {
    "x-dependent 2D N=9": (_x_dependent_kernel, ((-1.0, 1.0), (-0.5, 1.5)), 9),
    "separable-angular 2D N=17": (
        lambda: builtin("separable-angular", {"c0": 1.0, "c1": 0.5}),
        ((-1.0, 1.0), (-1.0, 1.0)), 17,
    ),
    "periodic-1d N=257": (lambda: builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}),
                          ((-1.0, 1.0),), 257),
    "avg(periodic-1d) N=257": (
        lambda: homogenized_kernel(builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})),
        ((-1.0, 1.0),), 257,
    ),
    "matrix-alpha n=1 N=129": (lambda: builtin("matrix-alpha", {"n": 1}), ((-1.0, 1.0),), 129),
}


@pytest.mark.parametrize("name", sorted(_SAMPLING_BLOCK_CASES))
def test_build_tables_do_not_depend_on_the_sampling_block(monkeypatch, name):
    # a block of whole rungs is sampled per kernel call; below one rung per
    # block, one rung per call, and at 10**8 every rung in one call.  In 1D
    # a block of several rungs can hold the last bulk rungs and the first
    # far ones (at N = 257 the default block of 127 rungs holds all 97 bulk
    # rungs; at N = 129, 5000 points make blocks of 19 rungs, and rungs
    # 76-94 hold bulk rung 88, the last)
    make_kernel, box, N = _SAMPLING_BLOCK_CASES[name]
    kern, grid = make_kernel(), Grid(box, N)
    digests = set()
    for rows in (1, 5000, 65_536, 10 ** 8):
        monkeypatch.setattr(energy, "_SLICE_ROWS", rows)
        scheme = EnergyScheme(kern, grid)
        digests.add(tuple(hashlib.sha256(a.tobytes()).hexdigest()
                          for a in (scheme.base, scheme.outside_w, scheme.rem_hw)))
    assert len(digests) == 1


def test_scheme_build_peak_stays_near_what_it_keeps():
    # 2D separable-angular N=17: the build and the assembly of L write L
    # and its weights once, and the kernel samples and index tables stay
    # small
    kern, u, _ = _golden_case("separable-angular N=17 bump")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        scheme = EnergyScheme(kern, u.grid)
        assert scheme.L.nnz > 0
        kept, peak = (b - start for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * kept, (peak, kept)


def test_reports_and_sweeps_leave_L_unassembled():
    # a report reads the bulk forms from the stencil tables, and a p = 2
    # solve its objective too; only a p != 2 solve assembles L
    from anisofrac.limits import bbm_sweep, ms_sweep
    from anisofrac.variational import NonlocalProblem, localization_sweep, solve_nonlocal

    kern, u, fp = _golden_case("separable-angular N=17 bump")
    get_scheme.cache_clear()
    anisotropic_energy(kern, u, fp)
    bbm_sweep(kern, u, 2.0, s_list=[0.9, 0.95])
    ms_sweep(kern, u, 2.0, s_list=[0.1, 0.05])
    scheme = get_scheme(kern, u.grid)
    assert get_scheme.cache_info().currsize == 1
    assert "L" not in vars(scheme)
    one = GridFunction(u.grid, np.ones(u.grid.shape), boundary_flag=False)
    assert solve_nonlocal(NonlocalProblem(kern=kern, fp=FractionalParams(0.5, 2.0),
                                          source=one)).converged
    assert "L" not in vars(scheme)
    g1 = Grid(((-1.0, 1.0),), 65)
    k1 = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    assert localization_sweep(k1, 2.0, GridFunction(g1, np.ones(65), boundary_flag=False),
                              s_list=[0.9, 0.95]).converged
    assert "L" not in vars(get_scheme(k1, g1))
    assert solve_nonlocal(NonlocalProblem(kern=kern, fp=FractionalParams(0.5, 3.0),
                                          source=one)).converged
    assert "L" in vars(scheme)


def test_report_peak_at_2d_n33_stays_small():
    # one separable-angular N=33 report, build included: the base weights
    # (14 MB) and per-rung temporaries, not the 107 MB of L
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), 33)
    u = GridFunction.from_callable(g, lambda x, y: bump_profile(np.hypot(x - 0.1, y) / 0.8))
    kern = builtin("separable-angular", {"c0": 1.0, "c1": 0.5})
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        scheme = EnergyScheme(kern, g)
        scheme.report(u, FractionalParams(0.5, 2.0), 0.25)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert "L" not in vars(scheme)
    assert peak < 64e6, peak


def test_near_rows_are_one_sided_slopes_hat(grid129, hat129):
    scheme = get_scheme(builtin("constant", {"n": 1}), grid129)
    slopes = (scheme.L @ hat129.values.ravel())[scheme.near_rows].reshape(2, -1)
    plus = int(np.flatnonzero(scheme.dirs[:, 0] > 0)[0])
    minus = 1 - plus
    i_peak = 64
    # toward +1 the offset lands on the rising cell: slope +1 then w=+1
    assert slopes[plus, i_peak] == pytest.approx(1.0)
    assert slopes[minus, i_peak] == pytest.approx(1.0)
    i_mid = 32  # x = -0.5, both sides slope +1
    assert slopes[plus, i_mid] == pytest.approx(1.0)
    assert slopes[minus, i_mid] == pytest.approx(-1.0)


def test_near_rows_are_one_sided_slopes_2d():
    # per axis |w_a| / h_a times the difference to the neighbour on the
    # -sign(w_a) side, with zero ghosts outside the grid
    g = Grid(((-1.0, 1.0), (-0.5, 2.5)), 7)
    v = np.random.default_rng(5).standard_normal(g.shape)
    scheme = EnergyScheme(builtin("constant", {"n": 2}), g,
                          QuadratureSettings(angular_points=8))
    slopes = (scheme.L @ v.ravel())[scheme.near_rows].reshape(8, *g.shape)
    padded = np.pad(v, 1)
    for k, w in enumerate(scheme.dirs):
        want = np.zeros(g.shape)
        for axis, h in enumerate(g.spacing):
            if w[axis] == 0.0:
                continue
            step = -1 if w[axis] > 0 else 1
            neighbour = np.roll(padded, -step, axis=axis)[1:-1, 1:-1]
            want += abs(w[axis]) / h * (v - neighbour)
        assert np.abs(slopes[k] - want).max() <= 1e-13 * np.abs(want).max(), k


# Reports pinned before the quadrature was rewritten as one operator;
# error_bound is pinned two-sided, which no inequality test does.
_GOLDEN = {
    "periodic-1d N=257 hat": dict(
        value=1.3729222994567973,
        near_diagonal=0.00124755859375,
        bulk=1.3106338749247612,
        tail=0.06104086593828613,
        error_bound=0.0010131064732353658,
    ),
    "separable-angular N=17 bump": dict(
        value=0.8356884624032442,
        near_diagonal=0.01270711257646517,
        bulk=0.7705623546013332,
        tail=0.05241899522544592,
        error_bound=0.002699846636266216,
    ),
    # the sweep extremes, pinned before the sweeps shared one product
    "separable-angular N=17 bump s=0.9921875": dict(
        value=0.8077861030819473,
        near_diagonal=0.762088291641822,
        bulk=0.04562270699110109,
        tail=7.510444902421227e-05,
        error_bound=0.08183071788605746,
    ),
    "separable-angular N=17 bump s=0.0078125": dict(
        value=38.077793327117824,
        near_diagonal=0.00021187926884835202,
        bulk=1.447564584132365,
        tail=36.63001686371661,
        error_bound=0.0023655402805304987,
    ),
}


def _golden_case(name):
    if name.startswith("periodic-1d"):
        g = Grid(((-1.0, 1.0),), 257)
        u = GridFunction.from_callable(g, hat_profile)
        k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
        return k, u, FractionalParams(0.6, 2.5)
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), 17)
    u = GridFunction.from_callable(
        g, lambda x, y: bump_profile(np.hypot(x - 0.1, y) / 0.8)
    )
    k = builtin("separable-angular", {"c0": 1.0, "c1": 0.5})
    s = float(name.split(" s=")[1]) if " s=" in name else 0.5
    return k, u, FractionalParams(s, 2.0)


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_report_golden(name):
    rep = anisotropic_energy(*_golden_case(name))
    for field, want in _GOLDEN[name].items():
        assert getattr(rep, field) == pytest.approx(want, rel=1e-10), field


def test_gagliardo_calls_share_one_scheme(hat129):
    get_scheme.cache_clear()
    gagliardo(hat129, FractionalParams(0.5, 2.0))
    gagliardo(hat129, FractionalParams(0.3, 1.5))
    info = get_scheme.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_bbm_upper_bound_check(hat129):
    k = builtin("constant", {"c": 1.0})
    res = bbm_upper_bound_check(k, hat129, FractionalParams(0.5, 2.0))
    assert res.passed and res.slack > 0.0
    res_high = bbm_upper_bound_check(k, hat129, FractionalParams(0.9, 2.0))
    assert res_high.passed
    z = GridFunction(hat129.grid, np.zeros(129))
    res_zero = bbm_upper_bound_check(k, z, FractionalParams(0.5, 2.0))
    assert res_zero.passed and res_zero.lhs == 0.0


def test_interpolation_check_cases(hat129):
    k = builtin("constant", {"c": 1.0})
    assert interpolation_check(k, hat129, 0.3, 0.7, 2.0).passed
    kp = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    assert interpolation_check(kp, hat129, 0.1, 0.95, 3.0).passed
    z = GridFunction(hat129.grid, np.zeros(129))
    res = interpolation_check(k, z, 0.3, 0.7, 2.0)
    assert res.passed and res.lhs == 0.0
    with pytest.raises(ValueError):
        interpolation_check(k, hat129, 0.7, 0.3, 2.0)


def test_interpolation_check_reports_violations_below_p_sqrt2(hat129):
    # the stated bound's far-field constant is too small for p < sqrt(2);
    # the check must report such violations instead of masking them
    k = builtin("constant", {"c": 1.0})
    res = interpolation_check(k, hat129, 0.05, 0.8, 1.0)
    assert not res.passed
    assert res.slack < -res.tolerance


def test_2d_energy_basics():
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), 17)
    u = GridFunction.from_callable(
        g, lambda x, y: np.maximum(0.0, 1.0 - np.maximum(np.abs(x), np.abs(y)))
    )
    fp = FractionalParams(0.5, 2.0)
    rep = gagliardo(u, fp)
    assert rep.value > 0.0
    rep2 = gagliardo(u.scaled(-3.0), fp)
    assert rep2.value == pytest.approx(9.0 * rep.value, rel=1e-10)
    k = builtin("constant", {"c": 2.0, "n": 2})
    rep_k = anisotropic_energy(k, u, fp)
    pref = (1.0 - fp.s) / fp.p
    assert rep_k.value == pytest.approx(2.0 * pref * rep.value, rel=1e-12)


def test_2d_grid_cap():
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), 49)
    u = GridFunction(g, np.zeros((49, 49)))
    with pytest.raises(ValueError, match="capped"):
        gagliardo(u, FractionalParams(0.5, 2.0))


def _gram_atoms(case):
    """Small atom sets of the three problems the Gram Hessian serves, and
    reweighted nonlocal sets with their point v."""
    if case == "cell-1d":
        # the periodic cell problem's atoms: A_i dy |v[i+1]/dy - v[i]/dy + v[n]|^2
        n = 64
        i = np.arange(n)
        A = 2.0 + np.sin(2.0 * np.pi * (i + 0.5) / n)
        idx = np.column_stack([(i + 1) % n, i, np.full(n, n)])
        coef = np.tile([float(n), -float(n), 1.0], (n, 1))
        return energy.AtomSet.from_stencil(A / n, idx, coef, n + 1, 2.0), None
    if case == "nonlocal-1d":
        g = Grid(((-1.0, 1.0),), 33)
        kern = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
        return get_scheme(kern, g).atoms(FractionalParams(0.5, 2.0)), None
    if case.startswith("local-2d"):
        N = 33 if case == "local-2d-N33" else 9
        g = Grid(((-1.0, 1.0), (-1.0, 1.0)), N)
        one = GridFunction(g, np.ones((N, N)), boundary_flag=False)
        kern = builtin("separable-angular", {"c0": 1.0, "c1": 0.5})
        return _local_atoms(LocalProblem(source=one, density=LimitDensity(kern, 2.0))), None
    if case.startswith("nonlocal-2d"):
        # small blocks cut through every (rung, angle) box: at 7 rows a node
        # block holds one node and a corner group one (rung, angle) pair
        g = Grid(((-1.0, 1.0), (-0.5, 1.5)), 9)
        scheme = get_scheme(builtin("separable-angular", {"c0": 1.0, "c1": 0.5}), g)
        if case == "nonlocal-2d":
            return scheme.atoms(FractionalParams(0.5, 2.0)), None
        v = np.random.default_rng(7).standard_normal(g.nodes().shape[0])
        return scheme.atoms(FractionalParams(0.5, 3.0)), v
    g = Grid(((-1.0, 1.0),), 33)
    kern = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    atoms = get_scheme(kern, g).atoms(FractionalParams(0.5, 3.0))
    v = GridFunction.from_callable(g, hat_profile).values
    return atoms, v


@pytest.mark.parametrize("rows", [7, 1000])
@pytest.mark.parametrize(
    "case", ["nonlocal-1d", "local-2d", "reweighted-p3", "nonlocal-2d", "nonlocal-2d-p3"]
)
def test_blocked_gram_matches_dense_product(monkeypatch, case, rows):
    atoms, v = _gram_atoms(case)
    if v is None:
        w = atoms.W
    else:
        ell = np.abs(atoms.forms(v))
        floor = 1e-8 * max(ell.max(), 1.0)  # relative to the largest form
        c = atoms.p * max(atoms.p - 1.0, 1.0) / 2.0  # exact for p >= 2, lagged below
        w = atoms.W * c * np.maximum(ell, floor) ** (atoms.p - 2.0)
    Ld = atoms.L.toarray()
    want = Ld.T @ (2.0 * w[:, None] * Ld)
    if atoms.scheme is not None:  # the blocks of the stencil Gram
        assert len(atoms) > rows  # more than one block, the last one partial
        monkeypatch.setattr(energy, "_GRAM_ROWS", rows)
    got = atoms.hessian_dense() if v is None else atoms.reweighted_hessian(v, 1e-8)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("case", ["cell-1d", "local-2d", "local-2d-N33"])
def test_one_block_gram_is_the_single_product(case):
    # local 2D N=33: 524,288 rows, all in the one product
    atoms, _ = _gram_atoms(case)
    L = atoms.L
    data = np.repeat(2.0 * atoms.W, np.diff(L.indptr)) * L.data
    scaled = sparse.csr_matrix((data, L.indices, L.indptr), shape=L.shape)
    got = atoms.hessian_dense()
    # kept sparse, the free-node block's banded Cholesky reads it
    assert got.format == "csr"
    assert (got != L.T @ scaled).nnz == 0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_and_objective_match_the_closed_formulas(p):
    g = Grid(((-1.0, 1.0),), 33)
    kern = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    atoms = get_scheme(kern, g).atoms(FractionalParams(0.5, p))
    # zero on [-1, 0]: the forms there vanish exactly
    v = GridFunction.from_callable(g, lambda x: hat_profile(2.0 * x - 1.0)).values
    ell = atoms.L @ v
    assert np.count_nonzero(ell == 0.0) > 0
    a = np.abs(ell)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad_want = atoms.L.T @ (atoms.W * p * np.where(a > 0.0, a ** (p - 2.0) * ell, 0.0))
    obj_want = float(np.dot(atoms.W, a ** p))
    grad = atoms.gradient(v)  # a RuntimeWarning here is an error
    obj = atoms.objective(v)
    if p == 2.0:
        assert np.array_equal(grad, grad_want)
        assert obj == obj_want
    else:
        assert np.abs(grad - grad_want).max() <= 1e-15 * np.abs(grad_want).max()
        assert obj == pytest.approx(obj_want, rel=1e-15, abs=0.0)


def test_gram_and_passes_make_no_row_length_copies(monkeypatch):
    # 2D separable-angular N=17, s = 0.5, p = 2: ~650k rows over 289 nodes
    kern, u, fp = _golden_case("separable-angular N=17 bump")
    atoms = get_scheme(kern, u.grid).atoms(fp)
    v = u.values.ravel()
    L = atoms.L
    l_bytes = L.data.nbytes + L.indices.nbytes
    row_bytes = atoms.W.nbytes
    monkeypatch.setattr(energy, "_GRAM_ROWS", 20_000)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        atoms.hessian_dense()
        gram_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        atoms.gradient(v)
        atoms.objective(v)
        pass_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the sparse temporaries are one block long, not copies of L
    assert gram_peak < l_bytes / 4, (gram_peak, l_bytes)
    # L v, written over on slices, not five or six row-length vectors
    assert pass_peak < 2 * row_bytes, (pass_peak, row_bytes)


def _exact_power_delta(a: float, e: float, p: float) -> float:
    """|a + e|^p - |a|^p of two doubles in exact arithmetic (p = 3), or
    in 50 decimal digits (p = 1.5), rounded once to a double."""
    if p == 3.0:
        a, e = Fraction(a), Fraction(e)
        return float(abs(a + e) ** 3 - abs(a) ** 3)
    with decimal.localcontext(decimal.Context(prec=50)):
        x, y = abs(Decimal(a)), abs(Decimal(a) + Decimal(e))
        return float(y * y.sqrt() - x * x.sqrt())


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_power_delta_against_exact_arithmetic(p):
    # e = a r: |r| from 1e-14, where the plain difference keeps about two
    # digits, to 0.4 (the series branch), then from 0.5 to 1.5 and a = 0
    # (the plain difference, which does not cancel there); both signs of a
    # and of r
    rng = np.random.default_rng(11)
    a = rng.choice([-1.0, 1.0], 80) * rng.uniform(0.5, 2.0, 80)
    r = rng.choice([-1.0, 1.0], 80) * np.concatenate(
        [10.0 ** rng.uniform(-14.0, np.log10(0.4), 64), rng.uniform(0.5, 1.5, 16)]
    )
    a[-4:] = 0.0
    e = np.where(a == 0.0, r, a * r)
    got = energy.power_delta(a, e, p)
    want = np.array([_exact_power_delta(x, y, p) for x, y in zip(a, e)])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), np.abs(got / want - 1.0).max()


_STENCIL_GRAM_CASES = {
    "periodic-1d N=33": (lambda: builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}),
                         ((-1.0, 1.0),), 33, 2.0),
    "square N=9": (lambda: builtin("separable-angular", {"c0": 1.0, "c1": 0.5}),
                   ((-1.0, 1.0), (-1.0, 1.0)), 9, 2.0),
    "box -1:3;0:1 N=9": (lambda: builtin("separable-angular", {"c0": 1.0, "c1": 0.5}),
                         ((-1.0, 3.0), (0.0, 1.0)), 9, 2.0),
    "x-dependent N=9": (_x_dependent_kernel, ((-1.0, 1.0), (-0.5, 1.5)), 9, 2.0),
    "reweighted p=3 N=9": (lambda: builtin("separable-angular", {"c0": 1.0, "c1": 0.5}),
                           ((-1.0, 1.0), (-1.0, 1.0)), 9, 3.0),
}


@pytest.mark.parametrize("name", sorted(_STENCIL_GRAM_CASES))
def test_stencil_gram_matches_dense_product(monkeypatch, name):
    make_kernel, box, N, p = _STENCIL_GRAM_CASES[name]
    g = Grid(box, N)
    scheme = EnergyScheme(make_kernel(), g)
    atoms = scheme.atoms(FractionalParams(0.5, p))
    generic = []
    real_product = energy._gram_product
    monkeypatch.setattr(energy, "_gram_product",
                        lambda L, w: generic.append((L, w)) or real_product(L, w))
    if p == 2.0:
        w = atoms.W
        got = atoms.hessian_dense()
    else:
        v = np.random.default_rng(3).standard_normal(g.nodes().shape[0])
        ell = atoms.forms(v)
        w = atoms.W * (p * max(p - 1.0, 1.0) / 2.0) * np.maximum(np.abs(ell), 1e-8) ** (p - 2.0)
        got = atoms.reweighted_hessian(v, 1e-8)
    # only the near rows take the single sparse product
    assert len(generic) == 1
    L_near, w_near = generic[0]
    assert L_near is scheme._near_L  # no copy of L's near rows per Gram
    assert L_near.shape == (scheme.near_rows.stop, g.nodes().shape[0])
    assert (L_near != atoms.L[scheme.near_rows]).nnz == 0
    assert w_near.shape == (scheme.near_rows.stop,)
    # a second call reuses the scheme's tables and gets the same matrix
    again = atoms.hessian_dense() if p == 2.0 else atoms.reweighted_hessian(v, 1e-8)
    assert np.array_equal(again, got)
    Ld = atoms.L.toarray()
    want = Ld.T @ (2.0 * w[:, None] * Ld)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_near_axis_angles_snap_onto_the_node_line():
    # the default angle rule has angles whose component along an axis is 0
    # or ~1e-16: their shift along that axis snaps to 0 and their upper
    # corners there get factor exactly 0, so the rows at the first and
    # last node of the axis interpolate in cells of the grid
    N = 9
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), N)
    scheme = get_scheme(builtin("separable-angular", {"c0": 1.0, "c1": 0.5}), g)
    for axis in range(2):
        near_axis = np.abs(scheme.dirs[:, axis]) < 1e-12
        assert near_axis.sum() == 2
        upper = (np.arange(4) >> axis) & 1 == 1
        assert (scheme._shift[:, near_axis, axis] == 0).all()
        assert (scheme._phi[:, near_axis][:, :, upper] == 0.0).all()
        assert (scheme._phi[:, near_axis][:, :, ~upper] != 0.0).any(axis=2).all()
        lo = scheme._box_lo[:, near_axis, axis]
        hi = lo + scheme._box_len[:, near_axis, axis] - 1
        assert (lo == 0).any() and (hi == N - 1).any()
    # every cell x + m_jk of a row lies in the grid
    lo = scheme._box_lo + scheme._shift
    hi = lo + scheme._box_len - 1
    rows = (scheme._box_len > 0).all(axis=2)
    assert (lo[rows] >= 0).all() and (hi[rows] <= N - 1).all()


@pytest.mark.parametrize("make_kernel, box, N, reaching", [
    (lambda: builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}), ((-1.0, 1.0),), 33, 6),
    (lambda: builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}), ((-1.0, 1.0),), 257, 9),
    (lambda: builtin("separable-angular", {"c0": 1.0, "c1": 0.5}), ((-1.0, 1.0),) * 2, 9, 204),
    (lambda: builtin("separable-angular", {"c0": 1.0, "c1": 0.5}), ((-1.0, 1.0),) * 2, 17, 232),
    (lambda: builtin("separable-angular", {"c0": 1.0, "c1": 0.5}), ((-1.0, 1.0),) * 2, 33, 274),
    (lambda: builtin("separable-angular", {"c0": 1.0, "c1": 0.5}),
     ((-1.0, 3.0), (0.0, 1.0)), 25, 280),
], ids=["1d-N33", "1d-N257", "2d-N9", "2d-N17", "2d-N33", "2d-box-N25"])
def test_cells_on_the_last_node_line_have_no_corner_past_it(make_kernel, box, N, reaching):
    # the stencil Gram adds its corner term along diagonals of G, where a
    # corner past the last node line wraps onto another node: the factors
    # of such corners must be 0 for every (rung, angle) whose cells reach
    # that line
    scheme = EnergyScheme(make_kernel(), Grid(box, N))
    n = len(box)
    rows = (scheme._box_len > 0).all(axis=2)
    last = scheme._box_lo + scheme._shift + scheme._box_len - 1 == N - 1
    last &= rows[:, :, None]
    assert np.count_nonzero(last) == reaching
    corners = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    for axis in range(n):
        past = corners[:, axis] == 1
        assert (scheme._phi[last[:, :, axis]][:, past] == 0.0).all(), axis


def test_delta_makes_no_row_length_copies(monkeypatch):
    # 2D separable-angular N=17, s = 0.5, p = 3: ~390k rows over 289 nodes
    kern, u, _ = _golden_case("separable-angular N=17 bump")
    atoms = get_scheme(kern, u.grid).atoms(FractionalParams(0.5, 3.0))
    rng = np.random.default_rng(5)
    v = u.values.ravel()
    d = rng.standard_normal(v.size)
    row_bytes = atoms.W.nbytes
    # L v and L d are formed once per Newton step, outside the trials
    a, e = atoms.forms(v), atoms.forms(d)
    monkeypatch.setattr(energy, "_SLICE_ROWS", 4096)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = atoms.delta(a, e, 0.25)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # power_delta's temporaries are one slice long, and a and e are read
    # in place, not copied or written
    assert peak < row_bytes / 4, (peak, row_bytes)
    assert np.array_equal(a, atoms.forms(v)) and np.array_equal(e, atoms.forms(d))
    terms = atoms.W * energy.power_delta(a, 0.25 * e, 3.0)
    # one rounding per slice sum beyond the single dot product's
    slices = -(-len(atoms) // 4096)
    assert abs(got - terms.sum()) <= slices * np.finfo(float).eps * np.abs(terms).sum()
