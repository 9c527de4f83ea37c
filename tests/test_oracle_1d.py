"""The exact 1D energy of a P1 grid function, against the scheme.

For p = 2 and the constant kernel c, Plancherel turns the whole-space
double integral of a piecewise-linear function with node values v_j
and spacing h into

    I = 4 c K_s h (2/h)^(2s) pi^(2s-4)
        int_0^1 |V(2 pi a/h)|^2 sin^4(pi a) [zeta(4-2s, a) + zeta(4-2s, 1-a)] da

with V the trigonometric polynomial sum_j v_j exp(-i xi x_j), zeta
Hurwitz's zeta (it sums the aliases a + k of the frequency) and
K_s = pi / (2 Gamma(1+2s) sin(pi s)).  The oracle lives here, not in
the package, which imports only ``scipy.sparse``.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, zeta

from anisofrac.energy import gagliardo
from anisofrac.gridfn import FractionalParams, Grid, GridFunction
from conftest import bump_profile, hat_profile


def exact_energy(values: np.ndarray, h: float, s: float, c: float = 1.0) -> float:
    """iint c |u(x) - u(y)|^2 / |x - y|^(1+2s) over R x R, u the P1
    interpolant of ``values`` at spacing ``h``, zero outside."""
    v = np.asarray(values, dtype=float)
    j = np.arange(v.size)

    def integrand(a):
        V = np.dot(v, np.exp(-2j * np.pi * a * j))
        aliases = zeta(4.0 - 2.0 * s, a) + zeta(4.0 - 2.0 * s, 1.0 - a)
        return abs(V) ** 2 * math.sin(math.pi * a) ** 4 * aliases

    K_s = math.pi / (2.0 * gamma(1.0 + 2.0 * s) * math.sin(math.pi * s))
    integral, _ = quad(integrand, 0.0, 1.0, limit=400, epsrel=1e-12)
    return 4.0 * c * K_s * h * (2.0 / h) ** (2.0 * s) * math.pi ** (2.0 * s - 4.0) * integral


def unit_hat_energy(s: float) -> float:
    """The same integral for u = max(0, 1 - |x|), in real space.

    With R(t) = int u(x) u(x + t) dx the autocorrelation,
    I = 4 int_0^inf t^(-1-2s) (R(0) - R(t)) dt.  R is the cubic B-spline
    2/3 - t^2 + t^3/2 on [0, 1] and (2 - t)^3/6 on [1, 2], zero beyond;
    each piece is integrated on its own, so no kink lies inside a piece.
    """
    near = 1.0 / (2.0 - 2.0 * s) - 0.5 / (3.0 - 2.0 * s)
    mid, _ = quad(lambda t: t ** (-1.0 - 2.0 * s) * (2.0 / 3.0 - (2.0 - t) ** 3 / 6.0),
                  1.0, 2.0, epsrel=1e-13)
    far = (2.0 / 3.0) * 2.0 ** (-2.0 * s) / (2.0 * s)
    return 4.0 * (near + mid + far)


def test_oracle_single_hat_at_one_half_is_8_ln_2():
    assert exact_energy([1.0], 1.0, 0.5) == pytest.approx(8.0 * math.log(2.0), rel=1e-12)


def test_oracle_matches_the_real_space_hat_energy():
    # the unit hat is the single node value 1 at spacing 1
    assert exact_energy([1.0], 1.0, 0.9) == pytest.approx(unit_hat_energy(0.9), rel=1e-10)


PROFILES = {
    "hat": hat_profile,
    "1-x^2": lambda x: 1.0 - x ** 2,
    "bump": lambda x: bump_profile(x / 0.8),
}

# cases where the scheme's value lies within error_bound of the oracle and
# the bound is within 10x of the error; every other case fails today
PASSING = {("hat", 33, 0.5), ("1-x^2", 33, 0.5)}
# cases where the scheme lies below the oracle: the boundary cells of the
# near-diagonal term count 3/4 (ROADMAP item 2)
BELOW = {(name, N, s) for name in ("hat", "1-x^2") for N in (9, 17, 33) for s in (0.9, 0.99)}


def _case(name, N, s):
    case = (name, N, s)
    if case in PASSING:
        return pytest.param(*case, id=f"{name}-N{N}-s{s}")
    reason = "ROADMAP item 15: error_bound has no term for the rule over the nodes"
    if case in BELOW:
        reason += "; ROADMAP item 2: the near term under-weights the boundary cells"
    return pytest.param(*case, id=f"{name}-N{N}-s{s}",
                        marks=pytest.mark.xfail(strict=True, reason=reason))


@pytest.mark.parametrize("name, N, s", [
    _case(name, N, s) for name in PROFILES for N in (9, 17, 33) for s in (0.1, 0.5, 0.9, 0.99)
])
def test_scheme_against_the_exact_energy(name, N, s):
    grid = Grid(((-1.0, 1.0),), N)
    u = GridFunction.from_callable(grid, PROFILES[name])
    rep = gagliardo(u, FractionalParams(s, 2.0))
    oracle = exact_energy(u.values, grid.spacing[0], s)
    error = abs(rep.value - oracle)
    assert error <= rep.error_bound
    if error > 1e-10 * oracle:
        # the bound is an error bar, not a blanket
        assert rep.error_bound <= 10.0 * error
