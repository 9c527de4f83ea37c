import math

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
    effective_bar,
    effective_star,
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


def test_cell_problem_constant_coefficient():
    c = PeriodicCoefficient(A=lambda y: np.full_like(y, 2.5), p=2.0)
    assert cell_problem_1d(c, 1.0, n_cells=64) == pytest.approx(2.5, rel=1e-8)
    assert cell_problem_1d(c, 0.0) == 0.0


def test_cell_problem_homogeneity():
    c = PeriodicCoefficient(A=lambda y: 2.0 + np.sin(2 * np.pi * y), p=3.0)
    v1 = cell_problem_1d(c, 1.0, n_cells=128)
    v2 = cell_problem_1d(c, 2.0, n_cells=128)
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
    n, tol = 512, 1e-10
    cell_problem_1d(c, 1.0, n_cells=n, tol=tol)
    (atoms, (v, _, _, iterations, _, _)), = runs
    A = c.sample((np.arange(n) + 0.5) / n)
    scale = max(float(A.max()), 1.0)
    assert np.abs(atoms.gradient(v)[:n]).max() <= tol * scale
    if p == 2.0:
        assert iterations == 1


def test_cell_problem_nonconvergence_raises(model_kernel):
    c = coefficient_from_kernel(model_kernel, 3.0)
    with pytest.raises(NotConvergedError):
        cell_problem_1d(c, 1.0, n_cells=64, max_iter=0)


def test_cell_problem_unconverged_residual_raises(model_kernel):
    # 20 Newton steps at p = 1.5 leave a residual of about 1.7e-7, far above
    # tol * scale = 4e-10: that value must not come back as converged
    c = coefficient_from_kernel(model_kernel, 1.5)
    with pytest.raises(NotConvergedError):
        cell_problem_1d(c, 1.0, n_cells=64, max_iter=20)


def test_effective_star_closed_form_p2(model_kernel):
    # int dt / (2 + sin 2 pi t) = 1 / sqrt(3): harmonic mean is sqrt(3)
    c = coefficient_from_kernel(model_kernel, 2.0)
    res = effective_star(c)
    assert res.formula_value == pytest.approx(SQRT3, rel=1e-9)
    assert res.value == pytest.approx(SQRT3, rel=0.01)
    assert res.matches == "both (p = 2)"


def test_effective_star_two_phase():
    c = PeriodicCoefficient(A=lambda y: np.where(y < 0.5, 1.0, 3.0), p=2.0)
    res = effective_star(c)
    assert res.value == pytest.approx(1.5, rel=0.01)
    assert res.formula_value == pytest.approx(1.5, rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_cell_oracle_matches_classical_exponent(model_kernel, p):
    c = coefficient_from_kernel(model_kernel, p)
    res = effective_star(c)
    assert res.value == pytest.approx(res.formula_classical, rel=0.01)
    if p != 2.0:
        assert res.matches == "classical -(p-1)"
        # the two printed candidates genuinely differ away from p = 2
        assert abs(res.formula_value - res.formula_classical) > 0.01


def test_effective_bar(model_kernel):
    assert effective_bar(model_kernel, 2.0) == pytest.approx(2.0, abs=1e-10)
    k = builtin("constant", {"c": 1.7})
    assert effective_bar(k, 2.0) == pytest.approx(1.7, abs=1e-12)
    c = PeriodicCoefficient(A=lambda y: np.where(y < 0.5, 1.0, 3.0), p=2.0)
    assert c.mean() == pytest.approx(2.0, abs=1e-12)


def test_means_ordering_and_gap(model_kernel):
    for p in (1.5, 2.0, 3.0):
        c = coefficient_from_kernel(model_kernel, p)
        star = effective_star(c).value
        bar = c.mean()
        assert star <= bar + 1e-10
        EffectiveCoefficients(A_star=star, A_bar=bar)
    const = PeriodicCoefficient(A=lambda y: np.full_like(y, 2.0), p=2.0)
    gap = const.mean() - effective_star(const).value
    assert abs(gap) < 1e-10
    assert const.variance() < 1e-10


def test_eps_independence_of_effective_coefficients(model_kernel):
    base = coefficient_from_kernel(model_kernel, 2.0)
    star0 = effective_star(base).value
    bar0 = effective_bar(model_kernel, 2.0)
    k_eps = rescaled_kernel(model_kernel, 0.25)
    c_eps = coefficient_from_kernel(k_eps, 2.0)
    assert effective_star(c_eps).value == pytest.approx(star0, rel=1e-4)
    assert c_eps.mean() == pytest.approx(bar0, abs=1e-10)


def test_homogenized_kernel_average(model_kernel):
    k_bar = homogenized_kernel(model_kernel)
    x = np.array([[0.3], [0.9]])
    h = np.array([[0.1], [0.5]])
    assert np.allclose(k_bar.evaluate(x, h), 2.0, atol=1e-12)


def test_commute_constant_kernel_distance_zero():
    k = builtin("constant", {"c": 1.0})
    grid = Grid(1, ((-1.0, 1.0),), 65)
    one = GridFunction(grid, np.ones(65), boundary_flag=False)
    res = commute_experiment(k, 2.0, one, eps_list=[0.25], s_list=[0.75, 0.875, 0.9375])
    assert res.distance <= 1e-8
    assert res.coefficients.gap == pytest.approx(0.0, abs=1e-8)


def test_commute_model_kernel_closed_form(model_kernel):
    grid = Grid(1, ((-1.0, 1.0),), 257)
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


def test_commute_distance_linear_in_source(model_kernel):
    grid = Grid(1, ((-1.0, 1.0),), 129)
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
    grid = Grid(1, ((-1.0, 1.0),), 65)
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
    grid = Grid(1, ((-1.0, 1.0),), 33)
    one = GridFunction(grid, np.ones(33), boundary_flag=False)
    eps_list, s_list = [0.5, 0.25], [0.75, 0.875]
    commute_experiment(model_kernel, 2.0, one, eps_list=eps_list, s_list=s_list)
    assert len(nonlocal_calls) == len(s_list)
    assert all(prob.kern.name.startswith("avg(") for prob in nonlocal_calls)
    assert len(local_calls) == len(eps_list) + 2


def test_commute_checks_s_order_before_any_solve(model_kernel, monkeypatch):
    calls = _spy(monkeypatch, homogenize, "solve_local")
    grid = Grid(1, ((-1.0, 1.0),), 33)
    one = GridFunction(grid, np.ones(33), boundary_flag=False)
    with pytest.raises(ValueError, match="strictly increase toward 1"):
        commute_experiment(model_kernel, 2.0, one, eps_list=[0.25],
                           s_list=[0.875, 0.75])
    assert len(calls) == 0


def test_commute_golden(model_kernel):
    # pinned before u_star and u_bar were solved with constant-kernel densities
    grid = Grid(1, ((-1.0, 1.0),), 33)
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
