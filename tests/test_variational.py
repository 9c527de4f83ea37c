import tracemalloc

import numpy as np
import pytest

from anisofrac.energy import AtomSet, get_scheme
from anisofrac.gridfn import FractionalParams, Grid, GridFunction, lp_norm
from anisofrac.kernel import builtin
from anisofrac.limits import LimitDensity
from anisofrac.variational import (
    DEFAULT_TOL,
    LocalProblem,
    NonlocalProblem,
    _free_mask,
    _local_atoms,
    _solve_atoms,
    localization_sweep,
    solve_local,
    solve_nonlocal,
)


def p_laplace_exact(xs, p, A=1.0):
    """Closed form for -(p A |u'|^{p-2} u')' = 1 on (-1,1), zero boundary.

    First integral: p A |u'|^{p-2} u' = -x, so
    u = (p-1)/p * (p A)^{-1/(p-1)} * (1 - |x|^{p/(p-1)}).
    """
    c = (p - 1.0) / p * (p * A) ** (-1.0 / (p - 1.0))
    return c * (1.0 - np.abs(xs) ** (p / (p - 1.0)))


def test_local_p2_closed_form(grid129, one129):
    k = builtin("constant", {"c": 1.0})
    res = solve_local(
        LocalProblem(grid=grid129, source=one129, density=LimitDensity(k, 2.0))
    )
    xs = np.linspace(-1, 1, 129)
    exact = (1.0 - xs ** 2) / 4.0
    assert res.converged
    assert np.abs(res.minimizer.values - exact).max() <= 0.005 * exact.max()
    assert res.minimizer.values[64] == pytest.approx(0.25, rel=0.005)


def test_local_zero_source(grid129):
    z = GridFunction(grid129, np.zeros(129), boundary_flag=False)
    k = builtin("constant", {"c": 1.0})
    res = solve_local(
        LocalProblem(grid=grid129, source=z, density=LimitDensity(k, 2.0))
    )
    assert np.all(res.minimizer.values == 0.0)
    assert res.objective == 0.0


def test_local_p3_first_integral_oracle(grid129, one129):
    # the constant kernel c has the 1D density (2c/p)|xi|^p: A = 1 at c = 1.5
    k = builtin("constant", {"c": 1.5})
    res = solve_local(
        LocalProblem(grid=grid129, source=one129, density=LimitDensity(k, 3.0))
    )
    xs = np.linspace(-1, 1, 129)
    exact = p_laplace_exact(xs, 3.0)
    assert np.abs(res.minimizer.values - exact).max() <= 0.01 * exact.max()


def test_local_p15_first_integral_oracle(grid129, one129):
    k = builtin("constant", {"c": 1.5})  # A = 2 at p = 1.5
    res = solve_local(
        LocalProblem(grid=grid129, source=one129, density=LimitDensity(k, 1.5))
    )
    xs = np.linspace(-1, 1, 129)
    exact = p_laplace_exact(xs, 1.5, A=2.0)
    assert np.abs(res.minimizer.values - exact).max() <= 0.01 * exact.max()


def test_problem_validation(grid129, one129):
    k = builtin("constant", {"c": 1.0})
    with pytest.raises(ValueError):
        NonlocalProblem(kern=k, fp=FractionalParams(0.5, 1.0), grid=grid129,
                        source=one129)
    g2 = Grid(2, ((-1, 1), (-1, 1)), 9)
    one2 = GridFunction(g2, np.ones((9, 9)), boundary_flag=False)
    with pytest.raises(ValueError):
        LocalProblem(grid=g2, source=one2,
                     density=LimitDensity(builtin("constant", {"c": 1.0, "n": 2}), 3.0))


def test_nonlocal_zero_source(grid129):
    z = GridFunction(grid129, np.zeros(129), boundary_flag=False)
    k = builtin("constant", {"c": 1.0})
    res = solve_nonlocal(
        NonlocalProblem(kern=k, fp=FractionalParams(0.5, 2.0), grid=grid129, source=z)
    )
    assert np.all(res.minimizer.values == 0.0)
    assert res.objective == 0.0


def test_nonlocal_self_refinement(one129, grid129):
    k = builtin("constant", {"c": 1.0})
    fp = FractionalParams(0.5, 2.0)
    g65 = Grid(1, ((-1.0, 1.0),), 65)
    one65 = GridFunction(g65, np.ones(65), boundary_flag=False)
    r65 = solve_nonlocal(NonlocalProblem(kern=k, fp=fp, grid=g65, source=one65))
    r129 = solve_nonlocal(NonlocalProblem(kern=k, fp=fp, grid=grid129, source=one129))
    mid65 = r65.minimizer.values[32]
    mid129 = r129.minimizer.values[64]
    assert mid65 == pytest.approx(mid129, rel=0.02)
    # symmetry about the origin
    assert np.abs(r129.minimizer.values - r129.minimizer.values[::-1]).max() < 1e-10


def test_nonlocal_linearity_in_source(grid129, one129):
    k = builtin("constant", {"c": 1.0})
    fp = FractionalParams(0.5, 2.0)
    r1 = solve_nonlocal(NonlocalProblem(kern=k, fp=fp, grid=grid129, source=one129))
    two = GridFunction(grid129, 2.0 * np.ones(129), boundary_flag=False)
    r2 = solve_nonlocal(NonlocalProblem(kern=k, fp=fp, grid=grid129, source=two))
    assert np.allclose(r2.minimizer.values, 2.0 * r1.minimizer.values, atol=1e-10)


def test_boundary_pin_and_free_mask_2d():
    g = Grid(2, ((-1.0, 1.0), (-0.5, 1.5)), 6)
    edge = np.zeros(g.shape, dtype=bool)
    edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
    u = GridFunction(g, np.arange(1.0, 37.0).reshape(g.shape))
    assert np.array_equal(u.values == 0.0, edge)
    assert np.array_equal(_free_mask(g), ~edge.ravel())


def test_objective_trace_monotone(grid129, one129):
    k = builtin("constant", {"c": 1.0})
    prob = NonlocalProblem(
        kern=k, fp=FractionalParams(0.5, 2.5), grid=grid129, source=one129
    )
    res = solve_nonlocal(prob)
    trace = np.array(res.objective_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert len(trace) == res.iterations + 1


def test_first_order_optimality_random_directions(grid129, one129):
    k = builtin("constant", {"c": 1.0})
    fp = FractionalParams(0.5, 2.0)
    prob = NonlocalProblem(kern=k, fp=fp, grid=grid129, source=one129)
    res = solve_nonlocal(prob)
    scheme = get_scheme(k, grid129)
    atoms = scheme.atoms(fp)
    b = grid129.trapezoid_weights() * one129.values.ravel()
    grad = (1.0 - fp.s) * atoms.gradient(res.minimizer.values.ravel()) - b
    rng = np.random.default_rng(0)
    tol = DEFAULT_TOL * (1.0 + 1.0)
    for _ in range(50):
        d = rng.standard_normal(129)
        d[0] = d[-1] = 0.0
        d /= np.linalg.norm(d)
        assert abs(float(grad[1:-1] @ d[1:-1])) <= 20.0 * tol


def test_uniqueness_proxy_random_inits():
    g = Grid(1, ((-1.0, 1.0),), 33)
    one = GridFunction(g, np.ones(33), boundary_flag=False)
    k = builtin("constant", {"c": 1.0})
    b = g.trapezoid_weights() * one.values.ravel()
    free = _free_mask(g)
    rng = np.random.default_rng(42)
    for p in (2.0, 3.0):  # at p = 2 the engine solves directly and ignores z0
        fp = FractionalParams(0.5, p)
        atoms = get_scheme(k, g).atoms(fp)
        sols = []
        for _ in range(2):
            z0 = rng.standard_normal(31)
            v, _, _, _, converged, _ = _solve_atoms(
                atoms, 1.0 - fp.s, b, free, np.zeros(33), 1e-12, 200, z0=z0
            )
            assert converged
            sols.append(v)
        assert np.abs(sols[0] - sols[1]).max() <= 1e-6


def test_newton_step_forms_L_v_once_for_its_hessian(monkeypatch):
    # the lagged weights and their floor come from one product L v: between
    # a step's gradient and its Gram there is exactly one
    g = Grid(1, ((-1.0, 1.0),), 33)
    atoms = get_scheme(builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}), g).atoms(
        FractionalParams(0.5, 3.0))
    events = []
    forms, gradient, gram = AtomSet.forms, AtomSet.gradient, AtomSet._gram
    monkeypatch.setattr(AtomSet, "forms",
                        lambda self, v: events.append("L v") or forms(self, v))
    monkeypatch.setattr(AtomSet, "gradient",
                        lambda self, v: (gradient(self, v), events.append("gradient"))[0])
    monkeypatch.setattr(AtomSet, "_gram",
                        lambda self, w: events.append("gram") or gram(self, w))
    b = g.trapezoid_weights()
    *_, iterations, _, _ = _solve_atoms(atoms, 0.5, b, _free_mask(g), np.zeros(33), 1e-12, 4)
    grams = [i for i, e in enumerate(events) if e == "gram"]
    assert len(grams) == iterations == 4
    for i in grams:
        last_gradient = max(k for k in range(i) if events[k] == "gradient")
        assert events[last_gradient + 1:i] == ["L v"], events[last_gradient + 1:i]


def test_energy_comparison_sandwich(grid129, one129):
    fp = FractionalParams(0.5, 2.0)
    kp = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    k_lo = builtin("constant", {"c": kp.m_minus})
    k_hi = builtin("constant", {"c": kp.m_plus})
    objs = {}
    for tag, k in (("lo", k_lo), ("mid", kp), ("hi", k_hi)):
        res = solve_nonlocal(NonlocalProblem(kern=k, fp=fp, grid=grid129, source=one129))
        objs[tag] = res.objective
    # larger weights mean larger minima of the shifted energy
    assert objs["lo"] <= objs["mid"] + 1e-12
    assert objs["mid"] <= objs["hi"] + 1e-12


def test_localization_sweep_constant(grid129, one129):
    k = builtin("constant", {"c": 1.0})
    s_list = [1 - 2.0 ** -j for j in range(2, 8)]
    table = localization_sweep(k, 2.0, one129, s_list)
    u_ref = solve_local(
        LocalProblem(grid=grid129, source=one129, density=LimitDensity(k, 2.0))
    ).minimizer
    un = lp_norm(u_ref, 2.0)
    assert table.final.value <= 0.05 * un
    tail = [r.value for r in table.rows[-3:]]
    assert tail[1] <= tail[0] * 1.05 and tail[2] <= tail[1] * 1.05


def test_localization_sweep_zero_source(grid129):
    z = GridFunction(grid129, np.zeros(129), boundary_flag=False)
    k = builtin("constant", {"c": 1.0})
    table = localization_sweep(k, 2.0, z, [0.75, 0.875, 0.9375])
    assert all(r.value == 0.0 for r in table.rows)


def test_localization_sweep_periodic_frozen(grid129, one129):
    # oscillating kernel at scale 1: distances shrink, final below 8%
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    s_list = [1 - 2.0 ** -j for j in range(2, 8)]
    table = localization_sweep(k, 2.0, one129, s_list)
    vals = [r.value for r in table.rows]
    assert vals[-1] <= vals[0]
    u_ref = solve_local(
        LocalProblem(grid=grid129, source=one129, density=LimitDensity(k, 2.0))
    ).minimizer
    assert table.final.value <= 0.08 * lp_norm(u_ref, 2.0)


def test_2d_local_matches_isotropic_poisson():
    # K_{2,2} = pi/2 makes the problem -pi lap(u) = 1 on the square;
    # frozen oracle u(0,0) = 0.0938 (series solution 0.294685/pi)
    g = Grid(2, ((-1.0, 1.0), (-1.0, 1.0)), 33)
    one = GridFunction(g, np.ones((33, 33)), boundary_flag=False)
    k = builtin("constant", {"c": 1.0, "n": 2})
    res = solve_local(LocalProblem(grid=g, source=one, density=LimitDensity(k, 2.0)))
    assert res.converged
    assert res.minimizer.values[16, 16] == pytest.approx(0.2946854 / np.pi, rel=0.01)


def test_2d_nonlocal_runs_small():
    g = Grid(2, ((-1.0, 1.0), (-1.0, 1.0)), 13)
    one = GridFunction(g, np.ones((13, 13)), boundary_flag=False)
    k = builtin("constant", {"c": 1.0, "n": 2})
    res = solve_nonlocal(
        NonlocalProblem(kern=k, fp=FractionalParams(0.5, 2.0), grid=g, source=one)
    )
    assert res.converged
    v = res.minimizer.values
    assert v[6, 6] == v.max() > 0.0
    assert np.allclose(v, v.T, atol=1e-10)


# 2D nonlocal solves (separable-angular c0=1, c1=0.5, s = 0.5, source 1)
# pinned before the Gram Hessian was assembled from the bulk stencil.  At
# p = 3 the bound is the solver's tolerance carried to the minimizer,
# DEFAULT_TOL ** (1/(p-1)), as in the benchmark's checks.
_NONLOCAL_2D_GOLDEN = {
    "square N=17 p=2": dict(
        box=((-1.0, 1.0), (-1.0, 1.0)), N=17,
        objective=-0.05397751306476603,
        nodes={(4, 8): 0.038171815540044444, (8, 8): 0.043653996729205,
               (12, 5): 0.036000971935854074},
    ),
    "box -1:3;0:1 N=9 p=2": dict(
        box=((-1.0, 3.0), (0.0, 1.0)), N=9,
        objective=-0.03874148098411502,
        nodes={(2, 4): 0.030305607364000592, (4, 4): 0.03184223204095622,
               (6, 3): 0.02930206708808373},
    ),
    "square N=9 p=3": dict(
        box=((-1.0, 1.0), (-1.0, 1.0)), N=9,
        objective=-0.3187024021030542,
        nodes={(2, 4): 0.18123561355161444, (4, 4): 0.22468511626889498,
               (6, 3): 0.17739458505652253},
    ),
}


@pytest.mark.parametrize("name", sorted(_NONLOCAL_2D_GOLDEN))
def test_nonlocal_2d_golden(name):
    want = _NONLOCAL_2D_GOLDEN[name]
    g = Grid(2, want["box"], want["N"])
    k = builtin("separable-angular", {"c0": 1.0, "c1": 0.5})
    p = float(name.rsplit("p=", 1)[1])
    rel = 1e-10 if p == 2.0 else DEFAULT_TOL ** (1.0 / (p - 1.0))
    one = GridFunction(g, np.ones(g.shape), boundary_flag=False)
    res = solve_nonlocal(
        NonlocalProblem(kern=k, fp=FractionalParams(0.5, p), grid=g, source=one)
    )
    assert res.converged
    assert res.objective == pytest.approx(want["objective"], rel=rel)
    for ij, v in want["nodes"].items():
        assert res.minimizer.values[ij] == pytest.approx(v, rel=rel), ij


# Local solves pinned before the 1D and 2D assemblies became one loop over
# the unit cell's simplices.  The 2D values carry a defect of the upper
# triangle's gradient table (its x and y coefficients are swapped); the
# fix re-derives them and keeps the tolerance.
_LOCAL_GOLDEN = {
    "separable-angular 2D N=9 p=2": dict(
        objective=-0.035142626991893425,
        nodes={(2, 4): 0.029777376449451484, (4, 4): 0.03826362673575561,
               (6, 3): 0.02826736750171053},
    ),
    "periodic-1d N=33 p=2": dict(
        objective=-0.09360235709798075,
        nodes={(8,): 0.08001738531902908, (16,): 0.14433756709358583,
               (24,): 0.12838496659835755},
    ),
    "periodic-1d N=33 p=3": dict(
        objective=-0.2802103201089028,
        nodes={(8,): 0.19251400953611952, (16,): 0.35069550674325456,
               (24,): 0.2603143899704681},
    ),
}


@pytest.mark.parametrize("name", sorted(_LOCAL_GOLDEN))
def test_local_golden(name):
    if name.startswith("separable-angular"):
        g = Grid(2, ((-1.0, 3.0), (0.0, 1.0)), 9)
        k = builtin("separable-angular", {"c0": 1.0, "c1": 0.5})
    else:
        g = Grid(1, ((-1.0, 1.0),), 33)
        k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    p = float(name.rsplit("p=", 1)[1])
    one = GridFunction(g, np.ones(g.shape), boundary_flag=False)
    res = solve_local(LocalProblem(grid=g, source=one, density=LimitDensity(k, p)))
    want = _LOCAL_GOLDEN[name]
    assert res.converged
    assert res.objective == pytest.approx(want["objective"], rel=1e-10)
    for ij, v in want["nodes"].items():
        assert res.minimizer.values[ij] == pytest.approx(v, rel=1e-10), ij


@pytest.mark.parametrize("case", [
    "1d",
    "2d-lower",
    pytest.param("2d-upper", marks=pytest.mark.xfail(
        strict=True, reason="the upper triangle's table swaps the x and y "
                            "coefficients of its corners (0,1) and (1,0)")),
])
def test_local_forms_of_coordinate_functions(case):
    # grad v . w of v = x_axis is w_axis on every simplex of every cell
    n = 1 if case == "1d" else 2
    g = Grid(n, ((-1.0, 3.0), (0.0, 1.0))[:n], 9)
    one = GridFunction(g, np.ones(g.shape), boundary_flag=False)
    ld = LimitDensity(builtin("constant", {"n": n}), 2.0)
    atoms = _local_atoms(LocalProblem(grid=g, source=one, density=ld))
    n_cells, n_ang = 8 ** n, ld._dirs.shape[0]
    assert len(atoms) == (1 if n == 1 else 2) * n_cells * n_ang
    first = n_cells * n_ang if case == "2d-upper" else 0
    block = slice(first, first + n_cells * n_ang)
    for axis in range(n):
        forms = atoms.forms(g.nodes()[:, axis])[block].reshape(n_cells, n_ang)
        want = np.broadcast_to(ld._dirs[:, axis], forms.shape)
        np.testing.assert_allclose(forms, want, rtol=0.0, atol=1e-12, err_msg=f"axis {axis}")


def test_newton_steps_free_the_dense_hessian():
    # a step keeps one dense matrix at a time: H is freed once its
    # free-node block is taken, and that block once the step is solved
    g = Grid(1, ((-1.0, 1.0),), 801)
    one = GridFunction(g, np.ones(801), boundary_flag=False)
    atoms = _local_atoms(LocalProblem(grid=g, source=one,
                                      density=LimitDensity(builtin("constant", {"c": 1.5}), 3.0)))
    b = g.trapezoid_weights()
    h_bytes = 801 * 801 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        *_, it, _, _ = _solve_atoms(atoms, 1.0, b, _free_mask(g), np.zeros(801), 1e-300, 3)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert it == 3
    assert peak < 2.5 * h_bytes, peak / h_bytes
