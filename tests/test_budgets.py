"""Step and trial budgets of the p != 2 solves.

A sound Newton step with an Armijo search converges in a few steps of a
few trials each.  A defect in the line search can leave a solve that
still converges, only after thousands of steps: the CLI tests' cell
problems then take minutes each.  This file sorts before them, and it
lowers each solve's step cap to its budget, so such a defect fails here
within seconds.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from anisofrac import homogenize, variational
from anisofrac.energy import AtomSet, get_scheme
from anisofrac.gridfn import FractionalParams, Grid, GridFunction
from anisofrac.kernel import builtin
from anisofrac.variational import NonlocalProblem, solve_nonlocal

# (Newton steps, line-search trials) of three p = 3 solves, each 25% above
# the count measured when this test was written, rounded up
_BUDGETS = {
    "cell A = 2 + sin 2 pi y": (5, 5),  # measured 4 steps, 4 trials
    "periodic-1d N=257": (7, 7),  # 5, 5
    "separable-angular 2D N=17": (7, 7),  # 5, 5
}


@pytest.mark.parametrize("case", sorted(_BUDGETS))
def test_newton_steps_and_trials_are_bounded(monkeypatch, case):
    # steps are counted as reweighted Hessians, trials as calls of delta
    max_steps, max_trials = _BUDGETS[case]
    counts = {"steps": 0, "trials": 0}
    hessian, delta = AtomSet.reweighted_hessian, AtomSet.delta

    def count_step(self, v, floor):
        counts["steps"] += 1
        return hessian(self, v, floor)

    def count_trial(self, v, d, t):
        counts["trials"] += 1
        return delta(self, v, d, t)

    monkeypatch.setattr(AtomSet, "reweighted_hessian", count_step)
    monkeypatch.setattr(AtomSet, "delta", count_trial)
    if case.startswith("cell"):
        monkeypatch.setattr(homogenize, "_CELL_MAX_ITER", max_steps)
        c = homogenize.PeriodicCoefficient(A=lambda y: 2.0 + np.sin(2 * np.pi * y), p=3.0)
        homogenize.cell_problem_1d(c, 1.0)  # raises if it does not converge
    else:
        monkeypatch.setattr(variational, "DEFAULT_MAX_ITER", max_steps)
        if case.startswith("periodic"):
            kern, g = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}), Grid(((-1.0, 1.0),), 257)
        else:
            kern = builtin("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5})
            g = Grid(((-1.0, 1.0), (-1.0, 1.0)), 17)
        one = GridFunction(g, np.ones(g.shape), boundary_flag=False)
        res = solve_nonlocal(NonlocalProblem(kern=kern, fp=FractionalParams(0.5, 3.0),
                                             source=one))
        assert res.converged and res.iterations == counts["steps"]
    assert 0 < counts["steps"] <= max_steps, counts
    assert counts["steps"] <= counts["trials"] <= max_trials, counts


def test_cell_steps_below_p2_keep_the_lagged_weight(monkeypatch):
    # at p < 2 the exact curvature p (p-1) W |ell|^(p-2) overshoots where
    # forms vanish: on 64 cells this problem stood at residual 1.5 after 50
    # steps with it, and at 9.2e-8 with the lagged weight p W |ell|^(p-2)
    monkeypatch.setattr(homogenize, "_CELL_COUNT", 64)
    monkeypatch.setattr(homogenize, "_CELL_MAX_ITER", 50)
    solved = []
    solve_atoms = homogenize._solve_atoms
    monkeypatch.setattr(homogenize, "_solve_atoms",
                        lambda *args: solved.append(solve_atoms(*args)) or solved[-1])
    c = homogenize.coefficient_from_kernel(builtin("periodic-1d", {"A0": 3.0, "A1": 2.9}), 1.25)
    with pytest.raises(variational.NotConvergedError):  # its tolerance is 1e-9
        homogenize.cell_problem_1d(c, 1.0)
    _, _, residual, iterations, _, _ = solved[0]
    assert iterations == 50
    assert residual < 1e-6, residual


def test_first_step_from_zero_lands_on_its_ray_minimizer():
    # from v = 0 with every fixed value 0 the objective on the ray of the
    # first step is scale t^p E - t b.d; the search starts at its minimizer
    # t* (here below 1) and accepts it, so scaling the step either way
    # raises the objective
    kern, g = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}), Grid(((-1.0, 1.0),), 65)
    atoms = get_scheme(kern, g).atoms(FractionalParams(0.5, 3.0))
    b, free = g.trapezoid_weights(), variational._free_mask(g)
    v, f, *_ = variational._solve_atoms(atoms, 0.5, b, free, np.zeros(g.shape[0]), 0.0, 1)

    def objective(u):
        return 0.5 * atoms.objective(u) - float(np.dot(b, u))

    assert f < 0.0
    assert objective(0.999 * v) > f and objective(1.001 * v) > f


def test_first_step_off_zero_starts_at_one(monkeypatch):
    # the cell problem's constant node holds 1, so the ray rule does not
    # apply and the first search starts at t = 1, where it is accepted
    trials = []
    delta = AtomSet.delta
    monkeypatch.setattr(AtomSet, "delta",
                        lambda self, a, e, t: trials.append(t) or delta(self, a, e, t))
    c = homogenize.PeriodicCoefficient(A=lambda y: 2.0 + np.sin(2 * np.pi * y), p=3.0)
    homogenize.cell_problem_1d(c, 1.0)
    assert trials[0] == 1.0


def test_armijo_rejects_a_step_of_too_little_decrease():
    # one node, f(v) = v^3 - v, started at v0 where the Newton step
    # d = -f'(v0) / f''(v0) overshoots to a point where f fell by only 5e-5
    # of the predicted decrease -f'(v0) d: the Armijo test (1e-4) rejects it
    # and halves t, so the step taken decreases f by at least 1e-4 of its
    # own prediction
    def f(x):
        return x ** 3 - x

    def short_of_armijo(v):
        d = -(3.0 * v * v - 1.0) / (6.0 * v)
        return (f(v + d) - f(v)) / ((3.0 * v * v - 1.0) * d) - 5e-5

    v0 = brentq(short_of_armijo, 0.05, 0.5)
    atoms = AtomSet.from_stencil([1.0], [[0]], [[1.0]], 1, 3.0)
    v, f1, *_ = variational._solve_atoms(atoms, 1.0, np.ones(1), np.ones(1, dtype=bool),
                                         np.zeros(1), 0.0, 1, z0=np.array([v0]))
    assert f1 - f(v0) <= 1e-4 * (3.0 * v0 * v0 - 1.0) * (v[0] - v0) < 0.0
