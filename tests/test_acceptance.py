"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS` line (run pytest with -s to see
them) alongside the measured numbers and elapsed time.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from anisofrac.gridfn import FractionalParams, Grid, GridFunction, lp_norm
from anisofrac.kernel import builtin
from anisofrac.homogenize import (
    coefficient_from_kernel,
    commute_experiment,
    effective_coefficients,
)
from anisofrac.limits import (
    bbm_sweep,
    default_bbm_s_list,
    default_ms_s_list,
    ms_sweep,
    ms_weight_limit,
)
from anisofrac.variational import NonlocalProblem, solve_nonlocal
from conftest import bump_profile, hat_profile
from oracles import gradient_lp, interpolation_check, ms_constant, ms_weight_extrapolated

SQRT3 = math.sqrt(3.0)


def _report(num, label, ok, detail, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status}  [{detail}; {elapsed:.1f}s of {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_gradient_constant_recovery():
    t0 = time.time()
    grid = Grid(((-1.0, 1.0),), 257)
    u = GridFunction.from_callable(grid, bump_profile)
    k = builtin("constant", {"c": 1.0})
    table = bbm_sweep(k, u, 2.0, s_list=default_bbm_s_list())
    target = gradient_lp(u, 2.0) ** 2
    rel = abs(table.best_estimate() - target) / target
    _report(1, "s->1 constant recovery", rel < 0.02,
            f"extrapolated={table.best_estimate():.6f} target={target:.6f} rel={rel:.4f}",
            30.0, time.time() - t0)


def test_criterion_2_anisotropic_localization():
    t0 = time.time()
    grid = Grid(((-1.0, 1.0),), 257)
    u = GridFunction.from_callable(grid, bump_profile)
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    table = bbm_sweep(k, u, 2.0, s_list=default_bbm_s_list())
    centers, grads, vols = u.cell_gradients()
    target = float(
        np.dot(vols, (2.0 + np.sin(2 * np.pi * centers[:, 0])) * grads[:, 0] ** 2)
    )
    rel = abs(table.best_estimate() - target) / target
    _report(2, "s->1 oscillating weight", rel < 0.03,
            f"extrapolated={table.best_estimate():.6f} target={target:.6f} rel={rel:.4f}",
            60.0, time.time() - t0)


def test_criterion_3_mass_constant_recovery():
    t0 = time.time()
    grid = Grid(((0.75, 2.25),), 257)
    u = GridFunction.from_callable(grid, lambda x: bump_profile((x - 1.5) / 0.5))
    k = builtin("constant", {"c": 1.0})
    table = ms_sweep(k, u, 2.0, s_list=default_ms_s_list())
    target = 2.0 * lp_norm(u, 2.0) ** 2
    rel = abs(table.best_estimate() - target) / target
    _report(3, "s->0 constant recovery", rel < 0.10,
            f"extrapolated={table.best_estimate():.6f} target={target:.6f} rel={rel:.4f}",
            60.0, time.time() - t0)


def test_criterion_4_limit_weight_identity():
    t0 = time.time()
    ok = True
    details = []
    for n in (1, 2):
        k = builtin("constant", {"c": 1.0, "n": n})
        x = np.ones(n) / math.sqrt(n)
        for p in (1.0, 2.0, 3.0):
            b = ms_weight_limit(k, x, p)
            if abs(b - ms_constant(p, n)) > 1e-10:
                ok = False
                details.append(f"closed form off at n={n} p={p}")
    k1 = builtin("constant", {"c": 1.0})
    for p in (1.0, 2.0, 3.0):
        b = ms_weight_limit(k1, np.array([1.0]), p)
        b_ex = ms_weight_extrapolated(k1, np.array([1.0]), p)
        if abs(b_ex - b) / b > 0.05:
            ok = False
            details.append(f"extrapolated path off at p={p}: {b_ex} vs {b}")
    _report(4, "limit weight identity", ok,
            "; ".join(details) if details else "closed form exact, sweep within 5%",
            60.0, time.time() - t0)


def test_criterion_5_interpolation_inequality_suite():
    t0 = time.time()
    rng = np.random.default_rng(1234)
    kernels = [
        builtin("constant", {"c": 1.0}),
        builtin("constant", {"c": 2.5}),
        builtin("periodic-1d", {"A0": 2.0, "A1": 1.0}),
        builtin("matrix-alpha", {"n": 1, "alpha": 2.0, "m0": 1.0, "m1": 0.5}),
    ]
    grid = Grid(((-1.0, 1.0),), 65)
    xs = np.linspace(-1, 1, 65)
    shapes = [
        hat_profile(xs),
        bump_profile(xs),
        rng.standard_normal(65),
        np.where(np.abs(xs) < 0.1, 1.0, 0.0),
    ]
    violations = 0
    for case in range(200):
        k = kernels[case % len(kernels)]
        u = GridFunction(grid, shapes[case % len(shapes)] * rng.uniform(0.5, 2.0))
        # the stated far-field constant only covers p >= sqrt(2); below
        # that genuine counterexamples exist (see the energy tests)
        p = float(rng.uniform(1.5, 3.5))
        s1 = float(rng.uniform(0.02, 0.9))
        s2 = float(rng.uniform(s1 + 0.02, 0.97))
        res = interpolation_check(k, u, s1, s2, p)
        if not res.passed:
            violations += 1
    _report(5, "interpolation inequality suite", violations == 0,
            f"200 cases, {violations} violations", 300.0, time.time() - t0)


def test_criterion_6_solver_localization():
    t0 = time.time()
    grid = Grid(((-1.0, 1.0),), 129)
    one = GridFunction(grid, np.ones(129), boundary_flag=False)
    k = builtin("constant", {"c": 1.0})
    s = 1.0 - 2.0 ** -7
    res = solve_nonlocal(
        NonlocalProblem(kern=k, fp=FractionalParams(s, 2.0), source=one)
    )
    xs = np.linspace(-1, 1, 129)
    exact = (1.0 - xs ** 2) / 4.0
    diff = GridFunction(grid, res.minimizer.values - exact, boundary_flag=False)
    rel = lp_norm(diff, 2.0) / math.sqrt(16.0 / 15.0) * 4.0
    _report(6, "nonlocal -> local solver", rel <= 0.05,
            f"||u_s - u||/||u|| = {rel:.4f} at s={s}", 300.0, time.time() - t0)


def test_criterion_7_homogenized_coefficients():
    t0 = time.time()
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    eff = effective_coefficients(coefficient_from_kernel(k, 2.0))
    ok = abs(eff.A_star - SQRT3) / SQRT3 < 0.01
    ok &= abs(eff.A_star_formula - SQRT3) / SQRT3 < 0.01
    ok &= abs(eff.A_bar - 2.0) < 1e-10
    grid = Grid(((-1.0, 1.0),), 257)
    one = GridFunction(grid, np.ones(257), boundary_flag=False)
    res = commute_experiment(k, 2.0, one, eps_list=[0.25],
                             s_list=[0.75, 0.875, 0.9375])
    closed = 0.25 * abs(1.0 / SQRT3 - 0.5) * math.sqrt(16.0 / 15.0)
    rel = abs(res.distance - closed) / closed
    ok &= rel < 0.03
    _report(7, "effective coefficients", ok,
            f"A*={eff.A_star:.6f} (formula {eff.A_star_formula:.6f}), "
            f"Abar={eff.A_bar:.12f}, distance rel={rel:.4f}",
            300.0, time.time() - t0)


def test_criterion_8_non_commutation_paths():
    t0 = time.time()
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    grid = Grid(((-1.0, 1.0),), 257)
    one = GridFunction(grid, np.ones(257), boundary_flag=False)
    res = commute_experiment(
        k, 2.0, one,
        eps_list=[0.25, 0.125, 0.0625],
        s_list=default_bbm_s_list(),
    )
    ok = res.eps_final_rel <= 0.10 and res.s_final_rel <= 0.10
    # the two limit solutions must be separated by more than the achieved
    # path tolerances combined
    rel_gap = res.distance / lp_norm(res.u_bar, 2.0)
    ok &= rel_gap > res.eps_final_rel + res.s_final_rel
    _report(8, "non-commutation paths", ok,
            f"eps-path rel={res.eps_final_rel:.4f}, s-path rel={res.s_final_rel:.4f}, "
            f"limit gap rel={rel_gap:.4f}",
            900.0, time.time() - t0)


def test_criterion_9_property_suites():
    t0 = time.time()
    # the detailed suites live in test_properties.py and
    # test_config_cli.py; here they are run as one gate
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "tests/test_properties.py",
         "tests/test_config_cli.py::test_cli_threads_determinism"],
        capture_output=True,
        text=True,
    )
    ok = proc.returncode == 0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    _report(9, "property suites", ok, tail, 600.0, time.time() - t0)
