"""Metamorphic tests: a symmetry of the box maps one problem onto another.

Swapping the axes of the square maps separable-angular(c0, c1) onto
separable-angular(c0 + c1, -c1), so the energy of u under the first is
the energy of u transposed under the second, and the minimizer of the
first, transposed, is the minimizer of the second.  The nonlocal 2D
scheme breaks this today: a pair whose shifted point lands on the box
edge is a row or a |v(x)|^p term depending on the last bit of the
angle's cosine or sine (ROADMAP item 18).  Those pins are strict
xfails; the symmetries that hold today are guards.
"""

import numpy as np
import pytest

from anisofrac.energy import get_scheme
from anisofrac.gridfn import FractionalParams, Grid, GridFunction
from anisofrac.kernel import builtin
from anisofrac.limits import LimitDensity
from anisofrac.variational import LocalProblem, NonlocalProblem, solve_local, solve_nonlocal
from conftest import bump_profile

SQUARE = Grid(((-1.0, 1.0), (-1.0, 1.0)), 17)
KERNEL = builtin("separable-angular", {"c0": 1.0, "c1": 0.5})
SWAPPED = builtin("separable-angular", {"c0": 1.5, "c1": -0.5})

ITEM_18 = pytest.mark.xfail(
    strict=True,
    reason="a pair on the box edge is classified from the unsnapped shift (ROADMAP item 18)",
)


def _source() -> GridFunction:
    return GridFunction.from_callable(
        SQUARE, lambda x, y: np.exp(-((x - 0.2) ** 2 + 2.0 * (y + 0.1) ** 2)),
        boundary_flag=False,
    )


def _bump(center, radius):
    return lambda *x: bump_profile(
        np.sqrt(sum((xi - ci) ** 2 for xi, ci in zip(x, center))) / radius
    )


def _energies(kern, u, p, s_list):
    return np.array([near + bulk + tail for near, bulk, tail, _ in
                     get_scheme(kern, u.grid).raw_components(u, p, s_list)])


def _sup_rel(a, b):
    return float(np.abs(a - b).max() / np.abs(a).max())


@ITEM_18
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_nonlocal_minimizers_swap_with_the_axes(p):
    # measured: 9.7e-5 at p = 2 and 1.3e-4 at p = 3
    f = _source()
    fT = GridFunction(SQUARE, f.values.T, boundary_flag=False)
    fp = FractionalParams(0.5, p)
    u = solve_nonlocal(NonlocalProblem(kern=KERNEL, fp=fp, source=f)).minimizer
    v = solve_nonlocal(NonlocalProblem(kern=SWAPPED, fp=fp, source=fT)).minimizer
    assert _sup_rel(u.values, v.values.T) <= 1e-12


@ITEM_18
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_energies_swap_with_the_axes(p):
    # an off-centre bump: the energy-2d seed-0 bump is its own transpose.
    # Measured: at most 2.5e-8 relative at p = 2 and 3.0e-9 at p = 3
    u = GridFunction.from_callable(SQUARE, _bump((0.1, -0.05), 0.8))
    uT = GridFunction(SQUARE, u.values.T)
    s_list = [0.1, 0.5, 0.9, 0.99]
    a, b = _energies(KERNEL, u, p, s_list), _energies(SWAPPED, uT, p, s_list)
    assert np.max(np.abs(a - b) / np.abs(a)) <= 1e-13


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_1d_energies_reflect_with_the_kernel(p):
    # x -> -x maps periodic-1d(A0, A1) onto periodic-1d(A0, -A1);
    # measured: at most 3.5e-16 relative
    grid = Grid(((-1.0, 1.0),), 33)
    u = GridFunction.from_callable(grid, _bump((0.2,), 0.7))
    ur = GridFunction(grid, u.values[::-1])
    s_list = [0.1, 0.5, 0.9]
    a = _energies(builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}), u, p, s_list)
    b = _energies(builtin("periodic-1d", {"A0": 2.0, "A1": -1.0}), ur, p, s_list)
    assert np.max(np.abs(a - b) / np.abs(a)) <= 1e-13


def test_2d_local_minimizers_swap_with_the_axes():
    # measured: 2.3e-14 sup-relative
    f = _source()
    fT = GridFunction(SQUARE, f.values.T, boundary_flag=False)
    u = solve_local(LocalProblem(source=f, density=LimitDensity(KERNEL, 2.0))).minimizer
    v = solve_local(LocalProblem(source=fT, density=LimitDensity(SWAPPED, 2.0))).minimizer
    assert _sup_rel(u.values, v.values.T) <= 1e-12


def test_2d_local_minimizers_reflect_through_the_centre():
    # separable-angular is even in the offset and independent of x, so
    # (x, y) -> (-x, -y) maps the problem onto itself; measured: 8.4e-16
    f = _source()
    fr = GridFunction(SQUARE, f.values[::-1, ::-1], boundary_flag=False)
    ld = LimitDensity(KERNEL, 2.0)
    u = solve_local(LocalProblem(source=f, density=ld)).minimizer
    v = solve_local(LocalProblem(source=fr, density=ld)).minimizer
    assert _sup_rel(u.values, v.values[::-1, ::-1]) <= 1e-12
