import math
import tracemalloc

import numpy as np
import pytest

from anisofrac import homogenize, variational
from anisofrac.gridfn import Grid, GridFunction, lp_norm
from anisofrac.kernel import builtin
from anisofrac.variational import NotConvergedError
from anisofrac.homogenize import (
    EffectiveCoefficients,
    PeriodicCoefficient,
    cell_problem_1d,
    coefficient_from_kernel,
    commute_experiment,
    effective_coefficients,
    homogenized_kernel,
    rescaled_kernel,
)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def model_kernel():
    return builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})


def test_coefficient_from_kernel(model_kernel):
    c = coefficient_from_kernel(model_kernel, 2.0)
    y = np.array([0.0, 0.25, 0.5])
    assert np.allclose(c.sample(y), 2.0 + np.sin(2 * np.pi * y))
    c4 = coefficient_from_kernel(model_kernel, 4.0)
    assert np.allclose(c4.sample(y), (2.0 + np.sin(2 * np.pi * y)) / 2.0)
    k1 = builtin("constant", {"c": 1.0})
    c1 = coefficient_from_kernel(k1, 2.0)
    assert np.allclose(c1.sample(y), 1.0)


def test_coefficient_requires_periodic_1d():
    k2 = builtin("constant", {"c": 1.0, "n": 2})
    with pytest.raises(ValueError):
        coefficient_from_kernel(k2, 2.0)
    tab_free = builtin("matrix-alpha", {"n": 1, "alpha": 2.0, "m0": 1.0, "m1": 0.5})
    object.__setattr__(tab_free, "period", None)
    with pytest.raises(ValueError):
        coefficient_from_kernel(tab_free, 2.0)


def test_cell_problem_constant_coefficient(monkeypatch):
    monkeypatch.setattr(homogenize, "_CELL_COUNT", 64)
    c = PeriodicCoefficient(A=lambda y: np.full_like(y, 2.5), p=2.0)
    assert cell_problem_1d(c, 1.0) == pytest.approx(2.5, rel=1e-8)
    assert cell_problem_1d(c, 0.0) == 0.0


def test_cell_problem_homogeneity(monkeypatch):
    monkeypatch.setattr(homogenize, "_CELL_COUNT", 128)
    c = PeriodicCoefficient(A=lambda y: 2.0 + np.sin(2 * np.pi * y), p=3.0)
    v1 = cell_problem_1d(c, 1.0)
    v2 = cell_problem_1d(c, 2.0)
    assert v2 == pytest.approx(2.0 ** 3.0 * v1, rel=1e-6)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_cell_problem_full_gradient_converges(model_kernel, monkeypatch, p):
    # the engine checks only the free nodes; the pinned node counts too
    runs = []
    engine = homogenize._solve_atoms

    def spy(atoms, *args, **kwargs):
        out = engine(atoms, *args, **kwargs)
        runs.append((atoms, out))
        return out

    monkeypatch.setattr(homogenize, "_solve_atoms", spy)
    c = coefficient_from_kernel(model_kernel, p)
    n, tol = homogenize._CELL_COUNT, homogenize._CELL_TOL
    cell_problem_1d(c, 1.0)
    (atoms, (v, _, _, iterations, _, _)), = runs
    A = c.sample((np.arange(n) + 0.5) / n)
    scale = max(float(A.max()), 1.0)
    assert np.abs(atoms.gradient(v)[:n]).max() <= tol * scale
    if p == 2.0:
        assert iterations == 1


def test_cell_problem_allocates_no_dense_hessian(model_kernel):
    # p = 3 takes Newton steps; a dense Hessian of the n = 513 cell nodes
    # would take n^2 * 8 bytes per step
    n = homogenize._CELL_COUNT + 1
    c = coefficient_from_kernel(model_kernel, 3.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cell_problem_1d(c, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4, peak


def test_cell_problem_nonconvergence_raises(model_kernel, monkeypatch):
    monkeypatch.setattr(homogenize, "_CELL_COUNT", 64)
    monkeypatch.setattr(homogenize, "_CELL_MAX_ITER", 0)
    c = coefficient_from_kernel(model_kernel, 3.0)
    with pytest.raises(NotConvergedError):
        cell_problem_1d(c, 1.0)


def test_cell_problem_unconverged_residual_raises(model_kernel, monkeypatch):
    # 20 Newton steps at p = 1.5 leave a residual of about 1.7e-7, far above
    # tol * scale = 4e-10: that value must not come back as converged
    monkeypatch.setattr(homogenize, "_CELL_COUNT", 64)
    monkeypatch.setattr(homogenize, "_CELL_MAX_ITER", 20)
    c = coefficient_from_kernel(model_kernel, 1.5)
    with pytest.raises(NotConvergedError):
        cell_problem_1d(c, 1.0)


def test_effective_coefficients_closed_form_p2(model_kernel):
    # int dt / (2 + sin 2 pi t) = 1 / sqrt(3): harmonic mean is sqrt(3)
    c = coefficient_from_kernel(model_kernel, 2.0)
    res = effective_coefficients(c)
    assert res.A_star_formula == pytest.approx(SQRT3, rel=1e-9)
    assert res.A_star == pytest.approx(SQRT3, rel=0.01)


def test_effective_coefficients_two_phase():
    c = PeriodicCoefficient(A=lambda y: np.where(y < 0.5, 1.0, 3.0), p=2.0)
    res = effective_coefficients(c)
    assert res.A_star == pytest.approx(1.5, rel=0.01)
    assert res.A_star_formula == pytest.approx(1.5, rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_cell_oracle_matches_classical_exponent(model_kernel, p):
    c = coefficient_from_kernel(model_kernel, p)
    res = effective_coefficients(c)
    assert res.A_star == pytest.approx(res.A_star_formula, rel=0.01)
    if p != 2.0:
        # the outer exponent -1/(p-1) genuinely misses away from p = 2
        y = (np.arange(4096) + 0.5) / 4096
        inner = float((c.sample(y) ** (-1.0 / (p - 1.0))).mean())
        assert abs(inner ** (-1.0 / (p - 1.0)) - res.A_star) > 0.01


def test_effective_coefficients_mean(model_kernel):
    assert effective_coefficients(
        coefficient_from_kernel(model_kernel, 2.0)
    ).A_bar == pytest.approx(2.0, abs=1e-10)
    k = builtin("constant", {"c": 1.7})
    assert effective_coefficients(
        coefficient_from_kernel(k, 2.0)
    ).A_bar == pytest.approx(1.7, abs=1e-12)
    c = PeriodicCoefficient(A=lambda y: np.where(y < 0.5, 1.0, 3.0), p=2.0)
    assert effective_coefficients(c).A_bar == pytest.approx(2.0, abs=1e-12)


def test_means_ordering_and_gap(model_kernel):
    for p in (1.5, 2.0, 3.0):
        res = effective_coefficients(coefficient_from_kernel(model_kernel, p))
        assert res.A_star <= res.A_bar + 1e-10
    with pytest.raises(RuntimeError, match="exceeds the plain average"):
        EffectiveCoefficients(A_star=3.0, A_star_formula=3.0, A_bar=2.0)
    const = PeriodicCoefficient(A=lambda y: np.full_like(y, 2.0), p=2.0)
    assert abs(effective_coefficients(const).gap) < 1e-10
    assert const.sample((np.arange(4096) + 0.5) / 4096).var() < 1e-10


@pytest.mark.parametrize("field", ["A_star", "A_star_formula", "A_bar"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_effective_coefficients_reject_a_nonfinite_field(field, bad):
    values = dict(A_star=1.0, A_star_formula=1.0, A_bar=2.0)
    values[field] = bad
    with pytest.raises(ValueError, match=f"effective coefficient {field} is"):
        EffectiveCoefficients(**values)


def test_closed_form_that_overflows_is_rejected_without_a_warning(monkeypatch):
    # A finite with a finite mean, but A^(-1/(p-1)) underflows to 0 at
    # every sample, so the closed form (mean)^(-(p-1)) is inf
    monkeypatch.setattr(homogenize, "cell_problem_1d", lambda c, xi: 1e300)
    c = PeriodicCoefficient(A=lambda y: np.full_like(y, 1e300), p=1.01)
    with np.errstate(divide="raise", over="raise", invalid="raise"), pytest.raises(ValueError, match="A_star_formula is inf"):
        effective_coefficients(c)


def test_eps_independence_of_effective_coefficients(model_kernel):
    base = effective_coefficients(coefficient_from_kernel(model_kernel, 2.0))
    k_eps = rescaled_kernel(model_kernel, 0.25)
    res = effective_coefficients(coefficient_from_kernel(k_eps, 2.0))
    assert res.A_star == pytest.approx(base.A_star, rel=1e-4)
    assert res.A_bar == pytest.approx(base.A_bar, abs=1e-10)


def test_effective_coefficients_ignore_the_period(model_kernel):
    # A(y) is read on one period of the kernel, whatever its length
    base = effective_coefficients(coefficient_from_kernel(model_kernel, 3.0))
    k2 = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0, "period_len": 2.0})
    res = effective_coefficients(coefficient_from_kernel(k2, 3.0))
    for name in ("A_star", "A_star_formula", "A_bar"):
        assert getattr(res, name) == pytest.approx(getattr(base, name), rel=1e-12), name


def _per_shift_average(fn, period, x, h):
    """The period average of one map, one call per shift, summed in shift order."""
    n = homogenize._KERNEL_SHIFTS
    acc = None
    for t in (period * (np.arange(n) + 0.5) / n)[:, None]:
        val = np.asarray(fn(t, h), dtype=float)
        acc = val if acc is None else acc + val
    shape = np.broadcast_shapes(np.shape(x), np.shape(h))[:-1]
    return np.broadcast_to(acc / n, shape)


def test_homogenized_kernel_average(model_kernel):
    k_bar = homogenized_kernel(model_kernel)
    x = np.array([[0.3], [0.9]])
    h = np.array([[0.1], [0.5]])
    assert np.allclose(k_bar.evaluate(x, h), 2.0, atol=1e-12)
    xs = np.array([[-0.95], [-0.3], [0.0], [0.35], [0.7], [1.6]])[:, None, :]
    hs = np.array([[-0.8], [-0.05], [0.02], [0.5], [1.3]])[None, :, :]
    ws = np.array([[-1.0], [1.0]])[None, :, :]
    # (x, h) at a single offset, whose shapes numpy's sum adds pairwise,
    # and in the layouts of a scheme build: a block of (rung, angle)
    # offsets against the nodes, and the directions against the nodes
    nodes = np.linspace(-1.0, 1.0, 9)[:, None]
    layouts = [
        (np.array([0.3]), np.array([-1.0])),
        (np.array([[0.3]]), np.array([[1.0]])),
        (nodes[None, None], (0.01 * 2.0 ** np.arange(6))[:, None, None, None] * ws[..., None]),
        (nodes[:, None, :], ws),
    ]
    for k in (
        model_kernel,
        builtin("periodic-1d", {"A0": 3.0, "A1": 2.9, "period_len": 0.7}),
        builtin("matrix-alpha", {"n": 1}),
        builtin("constant", {"c": 1.5}),
    ):
        k_bar = homogenized_kernel(k)
        for avg, fn, h in (
            (k_bar.evaluate, k.evaluate, hs),
            (k_bar.radial_limit, k.radial_limit, ws),
            (k_bar.tail_limit, k.tail_limit, ws),
        ):
            if fn is None:
                continue
            # the period average does not depend on x: every map gives, at
            # any x, the bits it gives at x = 0, in the broadcast shape
            at_zero = avg(np.zeros_like(xs), h)
            assert at_zero.shape == (xs.shape[0], h.shape[1])
            for x in xs:
                assert np.array_equal(avg(np.broadcast_to(x, xs.shape), h), at_zero), k.name
            # and it is the per-shift sum, bit for bit
            for x, h in layouts:
                want = _per_shift_average(fn, k.period[0], x, h)
                assert np.array_equal(avg(x, h), want), (k.name, x.shape, h.shape)


def test_commute_constant_kernel_distance_zero():
    k = builtin("constant", {"c": 1.0})
    grid = Grid(((-1.0, 1.0),), 65)
    one = GridFunction(grid, np.ones(65), boundary_flag=False)
    res = commute_experiment(k, 2.0, one, eps_list=[0.25], s_list=[0.75, 0.875, 0.9375])
    assert res.distance <= 1e-8
    assert res.coefficients.gap == pytest.approx(0.0, abs=1e-8)


def test_commute_model_kernel_closed_form(model_kernel):
    grid = Grid(((-1.0, 1.0),), 257)
    one = GridFunction(grid, np.ones(257), boundary_flag=False)
    s_list = [1 - 2.0 ** -k for k in range(2, 8)]
    res = commute_experiment(
        model_kernel, 2.0, one, eps_list=[0.25, 0.125, 0.0625], s_list=s_list
    )
    # u* = (1-x^2)/(4 A*), ubar = (1-x^2)/(4 Abar), ||1-x^2||_2 = sqrt(16/15)
    closed = 0.25 * abs(1.0 / SQRT3 - 0.5) * math.sqrt(16.0 / 15.0)
    assert res.distance == pytest.approx(closed, rel=0.03)
    assert res.coefficients.gap == pytest.approx(2.0 - SQRT3, rel=0.01)
    # finite-parameter paths land on their respective limits
    assert res.eps_final_rel <= 0.10
    assert res.s_final_rel <= 0.10
    eps_rels = [e.value for e in res.eps_path]
    assert eps_rels == sorted(eps_rels, reverse=True)
    # non-commutation is strict and resolved beyond both path errors
    assert res.distance > 0.05 * lp_norm(res.u_bar, 2.0)
    rel_gap = res.distance / lp_norm(res.u_bar, 2.0)
    assert rel_gap > res.eps_final_rel + res.s_final_rel


def test_commute_eps_path_with_period_two():
    # the cell coefficient is read on the kernel's own period, so the eps
    # path of a period-2 kernel still lands on u_star
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0, "period_len": 2.0})
    grid = Grid(((-1.0, 1.0),), 65)
    one = GridFunction(grid, np.ones(65), boundary_flag=False)
    res = commute_experiment(k, 2.0, one, eps_list=[0.25, 0.125, 0.0625],
                             s_list=[0.75, 0.875])
    eps_rels = [e.value for e in res.eps_path]
    assert eps_rels == sorted(eps_rels, reverse=True)
    assert res.eps_final_rel < 0.1
    assert res.coefficients.A_star == pytest.approx(SQRT3, rel=0.01)
    assert res.coefficients.A_bar == pytest.approx(2.0, abs=1e-10)


def test_commute_distance_linear_in_source(model_kernel):
    grid = Grid(((-1.0, 1.0),), 129)
    one = GridFunction(grid, np.ones(129), boundary_flag=False)
    two = GridFunction(grid, 2.0 * np.ones(129), boundary_flag=False)
    r1 = commute_experiment(model_kernel, 2.0, one, eps_list=[0.25],
                            s_list=[0.75, 0.875, 0.9375])
    r2 = commute_experiment(model_kernel, 2.0, two, eps_list=[0.25],
                            s_list=[0.75, 0.875, 0.9375])
    assert r2.distance == pytest.approx(2.0 * r1.distance, rel=1e-8)


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(prob):
        calls.append(prob)
        return real(prob)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("eps_list", [[0.3], [], [0.0]], ids=["0.3", "empty", "0"])
def test_commute_rejects_bad_eps(model_kernel, monkeypatch, eps_list):
    calls = _spy(monkeypatch, homogenize, "solve_local")
    grid = Grid(((-1.0, 1.0),), 65)
    one = GridFunction(grid, np.ones(65), boundary_flag=False)
    with pytest.raises(ValueError):
        commute_experiment(model_kernel, 2.0, one, eps_list=eps_list,
                           s_list=[0.75, 0.875, 0.9375])
    assert len(calls) == 0


def test_commute_runs_only_the_solves_it_reports(model_kernel, monkeypatch):
    # the s path's nonlocal solves, all on the averaged kernel; local
    # solves for u_star, u_bar and one per eps
    nonlocal_calls = _spy(monkeypatch, variational, "solve_nonlocal")
    local_calls = _spy(monkeypatch, homogenize, "solve_local")
    grid = Grid(((-1.0, 1.0),), 33)
    one = GridFunction(grid, np.ones(33), boundary_flag=False)
    eps_list, s_list = [0.5, 0.25], [0.75, 0.875]
    commute_experiment(model_kernel, 2.0, one, eps_list=eps_list, s_list=s_list)
    assert len(nonlocal_calls) == len(s_list)
    assert all(prob.kern.name.startswith("avg(") for prob in nonlocal_calls)
    assert len(local_calls) == len(eps_list) + 2


def test_commute_checks_s_order_before_any_solve(model_kernel, monkeypatch):
    calls = _spy(monkeypatch, homogenize, "solve_local")
    grid = Grid(((-1.0, 1.0),), 33)
    one = GridFunction(grid, np.ones(33), boundary_flag=False)
    with pytest.raises(ValueError, match="strictly increase toward 1"):
        commute_experiment(model_kernel, 2.0, one, eps_list=[0.25],
                           s_list=[0.875, 0.75])
    assert len(calls) == 0


def test_commute_golden(model_kernel):
    # pinned before u_star and u_bar were solved with constant-kernel densities
    grid = Grid(((-1.0, 1.0),), 33)
    one = GridFunction(grid, np.ones(33), boundary_flag=False)
    res = commute_experiment(model_kernel, 2.0, one, eps_list=[0.5, 0.25],
                             s_list=[0.75, 0.875])
    assert res.converged
    assert res.distance == pytest.approx(0.01997174410312925, rel=1e-10)
    want_eps = [(0.5, 0.07975851337334454), (0.25, 0.040730289138198206)]
    want_s = [(0.75, 0.08529906388889778), (0.875, 0.05183516514686618)]
    for path, want in ((res.eps_path, want_eps), (res.s_path, want_s)):
        assert [e.param for e in path] == [w[0] for w in want]
        for e, (_, v) in zip(path, want):
            assert e.value == pytest.approx(v, rel=1e-10), e.param
