import math

import numpy as np
import pytest

from anisofrac._sphere import sphere_measure, sphere_rule
from anisofrac.energy import get_scheme
from anisofrac.gridfn import FractionalParams, Grid, GridFunction
from anisofrac.kernel import Kernel, builtin
from anisofrac.limits import (
    ConvergenceTable,
    LimitDensity,
    TableRow,
    bbm_sweep,
    limit_density,
    ms_sweep,
    ms_weight,
    ms_weight_limit,
)
from anisofrac.homogenize import commute_experiment
from anisofrac.variational import localization_sweep
from conftest import bump_profile, hat_profile
from oracles import bbm_constant, limit_matrix, ms_constant, ms_weight_extrapolated


def _angular_kernel_2d(fn, bounds, name="angular"):
    """x-independent kernel from an even angular profile fn(w)."""

    def ev(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        shape = np.broadcast_shapes(x.shape, h.shape)[:-1]
        r = np.maximum(np.linalg.norm(h, axis=-1), 1e-300)
        return np.broadcast_to(fn(h / r[..., None]), shape).copy()

    return Kernel(
        evaluate=ev, dimension=2, bounds=bounds,
        radial_limit=lambda x, w: ev(x, w), tail_limit=lambda x, w: ev(x, w),
        name=name,
    )


def test_sphere_rules_integrate_constants():
    for n in (1, 2, 3):
        dirs, w = sphere_rule(n)
        assert w.sum() == pytest.approx(sphere_measure(n), rel=1e-13)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


def test_bbm_constants():
    assert bbm_constant(2.0, 1) == pytest.approx(1.0, abs=1e-14)
    assert bbm_constant(1.0, 1) == pytest.approx(2.0, abs=1e-14)
    assert bbm_constant(2.0, 2) == pytest.approx(math.pi / 2.0, rel=1e-13)
    # n = 3, p = 2: (1/2) * int_{S^2} w_1^2 = (1/2)(4 pi / 3)
    assert bbm_constant(2.0, 3) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)
    with pytest.raises(ValueError):
        bbm_constant(2.0, 4)


def test_ms_constants_closed_forms():
    assert ms_constant(2.0, 1) == pytest.approx(2.0, abs=1e-14)
    assert ms_constant(1.0, 1) == pytest.approx(4.0, abs=1e-14)
    assert ms_constant(2.0, 2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    for n in (1, 2, 3):
        for p in (1.0, 1.5, 2.0, 3.0):
            assert ms_constant(p, n) == pytest.approx(
                2.0 * sphere_measure(n) / p, rel=1e-12
            )


def test_limit_density_two_point_and_circle():
    k1 = builtin("constant", {"c": 1.0})
    ld1 = LimitDensity(k1, 2.0)
    assert limit_density(ld1, np.zeros(1), np.ones(1)) == pytest.approx(1.0)
    assert limit_density(ld1, np.zeros(1), np.zeros(1)) == 0.0
    k2 = builtin("constant", {"c": 1.0, "n": 2})
    ld2 = LimitDensity(k2, 2.0)
    xi = np.array([1.0, 0.0])
    assert limit_density(ld2, np.zeros(2), xi) == pytest.approx(math.pi / 2, rel=1e-12)


def test_limit_density_positive_homogeneity():
    k = builtin("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5})
    ld = LimitDensity(k, 2.5)
    rng = np.random.default_rng(7)
    xi = rng.standard_normal(2)
    for c in (-3.0, 0.5, 2.0):
        assert limit_density(ld, np.zeros(2), c * xi) == pytest.approx(
            abs(c) ** 2.5 * limit_density(ld, np.zeros(2), xi), rel=1e-12
        )


def test_limit_matrix_isotropic_and_anisotropic():
    k = builtin("constant", {"c": 1.0, "n": 2})
    A = limit_matrix(LimitDensity(k, 2.0), np.zeros(2))
    assert np.allclose(A, (math.pi / 2) * np.eye(2), atol=1e-12)

    # a(w) = 1 + cos^2(theta): closed forms 7 pi / 8 and 5 pi / 8
    ka = _angular_kernel_2d(lambda w: 1.0 + w[..., 0] ** 2, (1.0, 2.0))
    ld = LimitDensity(ka, 2.0)
    Aa = limit_matrix(ld, np.zeros(2))
    assert Aa[0, 0] == pytest.approx(7.0 * math.pi / 8.0, rel=1e-12)
    assert Aa[1, 1] == pytest.approx(5.0 * math.pi / 8.0, rel=1e-12)
    assert abs(Aa[0, 1]) < 1e-12

    # quadratic-form consistency on random directions
    rng = np.random.default_rng(11)
    for _ in range(8):
        xi = rng.standard_normal(2)
        assert float(xi @ Aa @ xi) == pytest.approx(
            limit_density(ld, np.zeros(2), xi), rel=1e-10
        )


def test_limit_matrix_1d_scalar():
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    x = np.array([0.25])
    A = limit_matrix(LimitDensity(k, 2.0), x)
    # (a(-1) + a(1)) / 2 with a = 2 + sin(2 pi x) = 3 at x = 1/4
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        limit_matrix(LimitDensity(k, 3.0), x)


def test_density_sandwich():
    k = builtin("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5})
    ld = LimitDensity(k, 1.5)
    K = bbm_constant(1.5, 2)
    rng = np.random.default_rng(5)
    for _ in range(32):
        xi = rng.standard_normal(2)
        val = limit_density(ld, np.zeros(2), xi)
        lo = k.m_minus * K * np.linalg.norm(xi) ** 1.5
        hi = k.m_plus * K * np.linalg.norm(xi) ** 1.5
        assert lo * (1 - 1e-5) <= val <= hi * (1 + 1e-5)


def test_ms_weight_constant_closed_form():
    k = builtin("constant", {"c": 1.0})
    lo, hi = ms_weight(k, np.array([1.0]), FractionalParams(0.5, 2.0), r_cut=64.0)
    # 2s * sum_{w=+-1} int_2^inf r^{-2} dr = 2 * 0.5 * 2 * (1/2) = 1
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)


def test_ms_weight_sandwich_and_linearity():
    kp = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    x = np.array([0.7])
    fp = FractionalParams(0.3, 2.0)
    lo, hi = ms_weight(kp, x, fp, r_cut=50.0)
    n_omega = sphere_measure(1)
    cap = 2.0 ** (1 - fp.s * fp.p) * n_omega / fp.p * abs(x[0]) ** (-fp.s * fp.p)
    assert cap * kp.m_minus - 1e-9 <= lo <= hi <= cap * kp.m_plus + 1e-9

    k1 = builtin("constant", {"c": 1.0})
    k3 = builtin("constant", {"c": 3.0})
    lo1, hi1 = ms_weight(k1, x, fp, r_cut=50.0)
    lo3, hi3 = ms_weight(k3, x, fp, r_cut=50.0)
    assert lo3 == pytest.approx(3.0 * lo1, rel=1e-12)
    assert hi3 == pytest.approx(3.0 * hi1, rel=1e-12)


def test_ms_weight_rejects_origin_and_bad_cut():
    k = builtin("constant", {"c": 1.0})
    with pytest.raises(ValueError):
        ms_weight(k, np.array([0.0]), FractionalParams(0.5, 2.0), r_cut=4.0)
    with pytest.raises(ValueError):
        ms_weight(k, np.array([3.0]), FractionalParams(0.5, 2.0), r_cut=5.0)


def test_ms_weight_interval_nesting():
    kp = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    x = np.array([0.9])
    fp = FractionalParams(0.25, 2.0)
    lo1, hi1 = ms_weight(kp, x, fp, r_cut=16.0)
    lo2, hi2 = ms_weight(kp, x, fp, r_cut=256.0)
    slack = 1e-9 * max(abs(hi1), 1.0)
    assert lo1 - slack <= lo2 and hi2 <= hi1 + slack


def test_ms_weight_limit_identities():
    for n in (1, 2):
        k = builtin("constant", {"c": 1.0, "n": n})
        for p in (1.0, 2.0, 3.0):
            b = ms_weight_limit(k, np.ones(n), p)
            assert b == pytest.approx(ms_constant(p, n), abs=1e-10)
    k2 = builtin("constant", {"c": 2.0})
    assert ms_weight_limit(k2, np.array([1.0]), 2.0) == pytest.approx(
        2.0 * ms_constant(2.0, 1), abs=1e-10
    )


def _x_dependent_kernel_2d():
    """Tail 1 + sin^2(x1 + 2 x2) cos^2(theta) / 2: varies in x and w."""

    def ev(x, h):
        x, h = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(h, dtype=float))
        r2 = np.maximum(np.sum(h * h, axis=-1), 1e-300)
        return 1.0 + 0.5 * np.sin(x[..., 0] + 2.0 * x[..., 1]) ** 2 * h[..., 0] ** 2 / r2

    return Kernel(evaluate=ev, dimension=2, bounds=(1.0, 1.5), radial_limit=ev,
                  tail_limit=ev, name="x-dependent")


@pytest.mark.parametrize("n", [1, 2])
def test_ms_weight_limit_on_point_arrays(n):
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}) if n == 1 else _x_dependent_kernel_2d()
    x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(7, n))
    got = ms_weight_limit(k, x, 3.0)
    want = [ms_weight_limit(k, xi, 3.0) for xi in x]
    assert got.shape == (7,)
    assert all(isinstance(b, float) for b in want)
    assert np.ptp(want) > 0.1  # the weight really varies over the points
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_ms_weight_limit_two_point_tail():
    # tail limit 1 + 1/2 on the + direction only: b = (2/p)(1 + 3/2)
    def tail(x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        x, w = np.broadcast_arrays(x, w)
        return 1.0 + 0.5 * (w[..., 0] > 0)

    k = Kernel(
        evaluate=lambda x, h: tail(x, h),
        dimension=1,
        bounds=(1.0, 1.5),
        radial_limit=tail,
        tail_limit=tail,
        name="two-point-tail",
    )
    assert ms_weight_limit(k, np.array([1.0]), 2.0) == pytest.approx(2.5, abs=1e-12)


def test_ms_weight_limit_requires_tail():
    k = builtin("matrix-alpha", {"n": 1, "alpha": 2.0, "m0": 1.0, "m1": 0.5})
    assert k.tail_limit is None
    with pytest.raises(ValueError, match="tail"):
        ms_weight_limit(k, np.array([1.0]), 2.0)


def test_ms_weight_extrapolation_close_to_limit():
    k = builtin("constant", {"c": 1.0})
    b = ms_weight_limit(k, np.array([1.0]), 2.0)
    b_ex = ms_weight_extrapolated(k, np.array([1.0]), 2.0)
    assert abs(b_ex - b) / b < 0.05


def test_bbm_sweep_constant_kernel(bump129):
    from oracles import gradient_lp

    k = builtin("constant", {"c": 1.0})
    table = bbm_sweep(k, bump129, 2.0)
    ref = gradient_lp(bump129, 2.0) ** 2
    assert table.final.reference == pytest.approx(ref, rel=1e-10)
    assert abs(table.best_estimate() - ref) / ref < 0.02


def test_bbm_sweep_zero_function(grid129):
    z = GridFunction(grid129, np.zeros(129))
    k = builtin("constant", {"c": 1.0})
    table = bbm_sweep(k, z, 2.0)
    assert all(r.value == 0.0 for r in table.rows)


def test_bbm_sweep_periodic_kernel(bump129):
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    table = bbm_sweep(k, bump129, 2.0)
    # reference equals the trapezoid of (2 + sin 2 pi x)|u'|^2 over cells
    centers, grads, vols = bump129.cell_gradients()
    want = float(np.dot(vols, (2.0 + np.sin(2 * np.pi * centers[:, 0])) * grads[:, 0] ** 2))
    assert table.final.reference == pytest.approx(want, rel=1e-12)
    assert table.final.rel_error < 0.03


def test_ms_sweep_constant_and_linearity():
    grid = Grid(((0.75, 2.25),), 129)
    u = GridFunction.from_callable(grid, lambda x: bump_profile((x - 1.5) / 0.5))
    k1 = builtin("constant", {"c": 1.0})
    t1 = ms_sweep(k1, u, 2.0)
    assert t1.final.rel_error < 0.10
    k2 = builtin("constant", {"c": 2.0})
    t2 = ms_sweep(k2, u, 2.0)
    assert t2.final.reference == pytest.approx(2.0 * t1.final.reference, rel=1e-12)
    z = GridFunction(grid, np.zeros(129))
    tz = ms_sweep(k1, z, 2.0)
    assert all(r.value == 0.0 for r in tz.rows)


def test_ms_sweep_requires_tail(grid129, bump129):
    k = builtin("matrix-alpha", {"n": 1, "alpha": 2.0, "m0": 1.0, "m1": 0.5})
    with pytest.raises(ValueError, match="tail"):
        ms_sweep(k, bump129, 2.0)


@pytest.mark.parametrize("sweep", [bbm_sweep, ms_sweep])
def test_sweeps_need_compact_support(sweep):
    # the energies reject this function; the sweeps over the same
    # quadrature must too
    grid = Grid(((-1.0, 1.0),), 65)
    vals = np.maximum(0.0, 0.5 - np.abs(grid.axes()[0]))
    vals[0] = 0.5
    u = GridFunction(grid, vals, boundary_flag=False)
    with pytest.raises(ValueError, match="compact"):
        sweep(builtin("constant", {"c": 1.0}), u, 2.0)


@pytest.mark.parametrize("study", [
    lambda k, u: bbm_sweep(k, u, 2.0, []),
    lambda k, u: ms_sweep(k, u, 2.0, []),
    lambda k, u: localization_sweep(k, 2.0, u, []),
    lambda k, u: commute_experiment(k, 2.0, u, [0.25], []),
], ids=["bbm_sweep", "ms_sweep", "localization_sweep", "commute_experiment"])
def test_studies_reject_empty_order_list(study):
    grid = Grid(((-1.0, 1.0),), 33)
    one = GridFunction(grid, np.ones(33), boundary_flag=False)
    with pytest.raises(ValueError, match="at least one order"):
        study(builtin("constant", {"c": 1.0}), one)


def test_convergence_table_invariants():
    rows = tuple(
        TableRow(param=s, value=1.0, extrapolated=None, reference=None, rel_error=None)
        for s in (0.25, 0.5, 0.75)
    )
    ConvergenceTable(rows)
    with pytest.raises(ValueError):
        ConvergenceTable((rows[1], rows[0], rows[2]))
    short = (
        TableRow(0.25, 1.0, None, None, None),
        TableRow(0.5, 1.0, 0.9, None, None),
    )
    with pytest.raises(ValueError):
        ConvergenceTable(short)


@pytest.mark.parametrize("field", ["param", "value", "extrapolated", "reference", "rel_error"])
def test_table_row_fields_must_be_finite(field):
    row = dict(param=0.5, value=1.0, extrapolated=None, reference=None, rel_error=None)
    TableRow(**row)
    with pytest.raises(ValueError, match=f"sweep {field} is nan"):
        TableRow(**{**row, field: math.nan})


def test_sweep_extrapolated_from_third_row(bump129):
    k = builtin("constant", {"c": 1.0})
    table = bbm_sweep(k, bump129, 2.0, s_list=[0.75, 0.875, 0.9375])
    assert table.rows[0].extrapolated is None
    assert table.rows[1].extrapolated is None
    assert table.rows[2].extrapolated is not None


# (param, value, extrapolated, rel_error) of the default sweeps, pinned
# before the sweeps shared one operator product
_SWEEP_GOLDEN = {
    "bbm": [
        (0.75, 3.062863335599927, None, 0.042855207625022845),
        (0.875, 3.004453217525993, None, 0.06110836952312723),
        (0.9375, 3.062690555577199, 3.1209278936284046, 0.024710033241123613),
        (0.96875, 3.117968397041846, 3.173246238506493, 0.00836055046672099),
        (0.984375, 3.153113748463965, 3.188259099886084, 0.003669031285598867),
        (0.9921875, 3.1727198527542018, 3.1923259570444387, 0.002398138423612972),
    ],
    "ms": [
        (0.25, 2.447256847269782, None, 0.3382840266498621),
        (0.125, 2.080161724458933, None, 0.13753781577832672),
        (0.0625, 1.9430675340486523, 1.8059733436383714, 0.012402281745362488),
        (0.03125, 1.8833210735020285, 1.8235746129554047, 0.0027770159699179973),
        (0.015625, 1.855385121638495, 1.8274491697749613, 0.0006582120087625875),
        (0.0078125, 1.8418724425570834, 1.8283597634756719, 0.00016025324085129782),
    ],
}


def test_sweep_golden():
    g = Grid(((-1.0, 1.0),), 257)
    u = GridFunction.from_callable(g, hat_profile)
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    for name, sweep in (("bbm", bbm_sweep), ("ms", ms_sweep)):
        rows = sweep(k, u, 2.5).rows
        assert [r.param for r in rows] == [want[0] for want in _SWEEP_GOLDEN[name]]
        for r, (_, value, extrap, rel) in zip(rows, _SWEEP_GOLDEN[name]):
            assert r.value == pytest.approx(value, rel=1e-12), (name, r.param)
            if extrap is None:
                assert r.extrapolated is None
            else:
                assert r.extrapolated == pytest.approx(extrap, rel=1e-12), (name, r.param)
            assert r.rel_error == pytest.approx(rel, rel=1e-12), (name, r.param)


def test_sweep_references_2d():
    # pinned before the grid geometry lost its per-dimension branches:
    # the bbm reference integrates cell gradients, the ms reference
    # node values with trapezoid weights
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), 17)
    u = GridFunction.from_callable(
        g, lambda x, y: bump_profile(np.hypot(x - 0.1, y) / 0.8)
    )
    k = builtin("separable-angular", {"c0": 1.0, "c1": 0.5})
    assert bbm_sweep(k, u, 2.0).final.reference == pytest.approx(
        1.5273696425919243, rel=1e-12
    )
    assert ms_sweep(k, u, 2.0).final.reference == pytest.approx(
        0.5926828638229793, rel=1e-12
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_rows_are_the_reports(dim):
    # one operator product serves the whole sweep; each row must still be
    # exactly the report of its own order
    if dim == 1:
        g = Grid(((-1.0, 1.0),), 257)
        u = GridFunction.from_callable(g, hat_profile)
        k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
        p = 2.5
    else:
        g = Grid(((-1.0, 1.0), (-1.0, 1.0)), 17)
        u = GridFunction.from_callable(
            g, lambda x, y: bump_profile(np.hypot(x - 0.1, y) / 0.8)
        )
        k = builtin("separable-angular", {"c0": 1.0, "c1": 0.5})
        p = 2.0
    scheme = get_scheme(k, g)
    for sweep, factor in ((bbm_sweep, lambda s: 1.0 - s), (ms_sweep, lambda s: s)):
        for row in sweep(k, u, p).rows:
            rep = scheme.report(u, FractionalParams(row.param, p), 1.0)
            assert row.value == factor(row.param) * (rep.near_diagonal + rep.bulk + rep.tail)
