"""Property suites over the shared corpus of kernels and grid functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisofrac.energy import anisotropic_energy, gagliardo, get_scheme
from anisofrac.gridfn import FractionalParams, Grid, GridFunction
from anisofrac.kernel import builtin, symmetrize
from anisofrac.limits import LimitDensity, limit_density, limit_matrix
from conftest import bump_profile, hat_profile

GRID = Grid(1, ((-1.0, 1.0),), 33)
XS = np.linspace(-1.0, 1.0, 33)
RNG = np.random.default_rng(2024)

KERNELS_1D = [
    builtin("constant", {"c": 1.0}),
    builtin("constant", {"c": 2.5}),
    builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}),
    builtin("matrix-alpha", {"n": 1, "alpha": 2.0, "m0": 1.0, "m1": 0.5}),
]

FUNCTIONS = [
    GridFunction(GRID, hat_profile(XS)),
    GridFunction(GRID, bump_profile(XS)),
    GridFunction(GRID, RNG.standard_normal(33)),
]

PARAMS = [FractionalParams(s, p) for s in (0.25, 0.5, 0.8) for p in (1.5, 2.0, 3.0)]


@pytest.mark.parametrize("k_idx", range(len(KERNELS_1D)))
@given(
    c=st.floats(min_value=0.1, max_value=16.0, allow_nan=False),
    u_idx=st.integers(min_value=0, max_value=len(FUNCTIONS) - 1),
    fp_idx=st.integers(min_value=0, max_value=len(PARAMS) - 1),
)
@settings(max_examples=250, deadline=None)
def test_p_homogeneity_of_energies(k_idx, c, u_idx, fp_idx):
    k = KERNELS_1D[k_idx]
    u = FUNCTIONS[u_idx]
    fp = PARAMS[fp_idx]
    r1 = anisotropic_energy(k, u, fp)
    r2 = anisotropic_energy(k, u.scaled(c), fp)
    assert r2.value == pytest.approx(c ** fp.p * r1.value, rel=1e-10)


@pytest.mark.parametrize("k", KERNELS_1D, ids=lambda k: k.name)
@pytest.mark.parametrize("u_idx", range(len(FUNCTIONS)))
def test_symmetrization_energy_invariance(k, u_idx):
    u = FUNCTIONS[u_idx]
    fp = FractionalParams(0.5, 2.0)
    r1 = anisotropic_energy(k, u, fp)
    r2 = anisotropic_energy(symmetrize(k), u, fp)
    tol = r1.error_bound + r2.error_bound + 1e-12 * abs(r1.value)
    assert abs(r1.value - r2.value) <= tol


@pytest.mark.parametrize("k", KERNELS_1D, ids=lambda k: k.name)
@pytest.mark.parametrize("fp", PARAMS, ids=lambda fp: f"s{fp.s}-p{fp.p}")
def test_bound_sandwich_everywhere(k, fp):
    for u in FUNCTIONS:
        raw = anisotropic_energy(k, u, fp)
        base = gagliardo(u, fp)
        pref = (1.0 - fp.s) / fp.p
        tol = raw.error_bound + k.m_plus * base.error_bound + 1e-12
        assert raw.value <= k.m_plus * pref * base.value + tol
        assert raw.value >= k.m_minus * pref * base.value - tol


def test_quadratic_form_matrix_consistency_100_directions():
    k = builtin("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5})
    ld = LimitDensity(k, 2.0)
    x = np.zeros(2)
    A = limit_matrix(ld, x)
    rng = np.random.default_rng(17)
    for _ in range(100):
        xi = rng.standard_normal(2) * rng.uniform(0.1, 10.0)
        qf = float(xi @ A @ xi)
        dens = limit_density(ld, x, xi)
        assert qf == pytest.approx(dens, rel=1e-10)


def test_monotone_bbm_floor_on_corpus():
    # at the finest sweep order, the localized density integral cannot
    # exceed the measured energy by more than 5% plus quadrature error
    s = 1.0 - 2.0 ** -7
    for k in KERNELS_1D:
        ld = LimitDensity(k, 2.0)
        for u in FUNCTIONS[:2]:
            scheme = get_scheme(k, u.grid)
            (near, bulk, tail, err), = scheme.raw_components(u, 2.0, [s])
            measured = (1.0 - s) * (near + bulk + tail)
            centers, grads, vols = u.cell_gradients()
            ref = float(np.dot(vols, np.atleast_1d(limit_density(ld, centers, grads))))
            assert ref <= measured * 1.05 + (1.0 - s) * err + 1e-12


def test_solver_traces_monotone_all_p():
    from anisofrac.limits import LimitDensity as LD
    from anisofrac.variational import LocalProblem, NonlocalProblem, solve_local, solve_nonlocal

    one = GridFunction(GRID, np.ones(33), boundary_flag=False)
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    for p in (1.5, 2.0, 3.0):
        res = solve_nonlocal(
            NonlocalProblem(kern=k, fp=FractionalParams(0.5, p), grid=GRID, source=one)
        )
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)
        res_l = solve_local(
            LocalProblem(grid=GRID, source=one, density=LD(k, p))
        )
        trace_l = np.array(res_l.objective_trace)
        assert np.all(np.diff(trace_l) <= 0.0)


@given(c=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_density_positive_homogeneity_hypothesis(c):
    k = builtin("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5})
    ld = LimitDensity(k, 1.5)
    xi = np.array([0.3, -0.7])
    lhs = limit_density(ld, np.zeros(2), c * xi)
    rhs = abs(c) ** 1.5 * limit_density(ld, np.zeros(2), xi)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_report_error_bounds_nonnegative_and_decomposition():
    for k in KERNELS_1D:
        for fp in (FractionalParams(0.3, 1.5), FractionalParams(0.7, 2.0)):
            r = anisotropic_energy(k, FUNCTIONS[0], fp)
            assert r.error_bound >= 0.0
            assert r.value == r.near_diagonal + r.bulk + r.tail
