import math

import numpy as np
import pytest

from anisofrac.energy import anisotropic_energy
from anisofrac.gridfn import FractionalParams
from anisofrac.kernel import (
    BUILTIN_NAMES,
    Kernel,
    _halton,
    builtin,
    matrix_kernel,
    symmetrize,
    verify_hypotheses,
)


def _sample_pairs(n, count=50, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(count, n))
    h = rng.uniform(-2, 2, size=(count, n))
    h[np.linalg.norm(h, axis=1) < 1e-6] += 0.5
    return x, h


def test_builtin_registry():
    assert set(BUILTIN_NAMES) == {
        "constant", "matrix-alpha", "periodic-1d", "separable-angular", "tabulated",
    }
    with pytest.raises(ValueError):
        builtin("nope")
    with pytest.raises(ValueError):
        builtin("constant", {"c": -1.0})
    with pytest.raises(ValueError):
        builtin("constant", {"weird": 1.0})


def test_constant_kernel():
    k = builtin("constant", {"c": 1.0})
    assert k.bounds == (1.0, 1.0)
    x, h = _sample_pairs(1)
    assert np.all(k.evaluate(x, h) == 1.0)
    rep = verify_hypotheses(k, 128)
    assert rep.passed
    assert rep.h1_violation == 0.0 and rep.h2_violation == 0.0
    assert rep.h3_residual == 0.0


def test_periodic_1d_kernel():
    k = builtin("periodic-1d", {"A0": 2.0, "A1": 1.0})
    assert k.bounds == (1.0, 3.0)
    assert k.period == (1.0,)
    x, h = _sample_pairs(1)
    vals = k.evaluate(x, h)
    assert np.allclose(vals, 2.0 + np.sin(2 * np.pi * x[:, 0]))
    # radial and tail limits coincide with the evaluation map
    w = np.sign(h)
    assert np.allclose(k.radial_limit(x, w), vals)
    assert np.allclose(k.tail_limit(x, w), vals)
    # x-dependent h-independent weights are not pair symmetric
    rep = verify_hypotheses(k, 128)
    assert not rep.h2_passed and rep.witness[0] == "H2"
    assert rep.h1_passed and rep.h3_passed


def test_symmetrize_fixed_point_and_idempotence():
    k = builtin("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5})
    ks = symmetrize(k)
    x, h = _sample_pairs(2)
    assert np.allclose(ks.evaluate(x, h), k.evaluate(x, h), atol=1e-14)
    kss = symmetrize(ks)
    assert np.allclose(kss.evaluate(x, h), ks.evaluate(x, h), atol=1e-14)


def test_symmetrize_cancels_antisymmetric_part():
    # q(x) - q(x-h) flips sign under the pair swap, so averaging kills it
    def q(x):
        return 0.3 * np.sin(1.7 * x[..., 0])

    def ev(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        return 2.0 + q(x) - q(x - h)

    k = Kernel(
        evaluate=ev, dimension=1, bounds=(1.4, 2.6),
        radial_limit=lambda x, w: np.full(np.broadcast_shapes(
            np.asarray(x).shape, np.asarray(w).shape)[:-1], 2.0),
        name="skewed",
    )
    ks = symmetrize(k)
    x, h = _sample_pairs(1)
    assert np.allclose(ks.evaluate(x, h), 2.0, atol=1e-14)
    rep = verify_hypotheses(ks, 128)
    assert rep.h2_passed


def test_symmetrize_preserves_energy(hat129):
    fp = FractionalParams(0.5, 2.0)
    for name, params in (
        ("periodic-1d", {"A0": 2.0, "A1": 1.0}),
        ("matrix-alpha", {"n": 1, "alpha": 2.0, "m0": 1.0, "m1": 0.5}),
    ):
        k = builtin(name, params)
        r1 = anisotropic_energy(k, hat129, fp)
        r2 = anisotropic_energy(symmetrize(k), hat129, fp)
        tol = r1.error_bound + r2.error_bound + 1e-12 * abs(r1.value)
        assert abs(r1.value - r2.value) <= tol


def test_verify_hypotheses_h3_slope_one():
    # m = 1 + |h| with declared limit 1: deviation is exactly r
    def ev(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        x, h = np.broadcast_arrays(x, h)
        return 1.0 + np.linalg.norm(h, axis=-1)

    k = Kernel(
        evaluate=ev, dimension=1, bounds=(1.0, 4.0),
        radial_limit=lambda x, w: np.ones(np.broadcast_shapes(
            np.asarray(x).shape, np.asarray(w).shape)[:-1]),
        name="one-plus-r",
    )
    rep = verify_hypotheses(k, 128)
    assert rep.h3_passed
    assert rep.h3_slope == pytest.approx(1.0, abs=0.05)


def test_verify_hypotheses_reports_h1_witness():
    def ev(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        x, h = np.broadcast_arrays(x, h)
        return np.full(x.shape[:-1], 5.0)

    k = Kernel(
        evaluate=ev, dimension=1, bounds=(1.0, 2.0),
        radial_limit=lambda x, w: np.full(np.broadcast_shapes(
            np.asarray(x).shape, np.asarray(w).shape)[:-1], 5.0),
        name="out-of-bounds",
    )
    rep = verify_hypotheses(k, 64)
    assert not rep.passed and not rep.h1_passed
    assert rep.witness[0] == "H1"
    assert rep.h1_violation == pytest.approx(3.0)


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("count", [8, 256, 1000])
@pytest.mark.parametrize("n_dim", [1, 2, 4])
def test_halton_matches_scipy(n_dim, count, seed):
    # the audit samples scipy's scrambled Halton points, bit for bit
    from scipy.stats import qmc

    want = qmc.Halton(d=n_dim, scramble=True, seed=seed).random(count)
    assert np.array_equal(_halton(n_dim, count, seed), want)


def test_halton_stratifies_each_axis():
    # b**k points of the base-b axis fill each interval [j/b**k, (j+1)/b**k)
    # exactly once: scrambling permutes digits and keeps the net property
    for seed in range(20):
        for axis, (base, digits) in enumerate([(2, 10), (3, 6), (5, 4), (7, 3)]):
            count = base ** digits
            u = _halton(4, count, seed)
            assert np.all((u >= 0.0) & (u < 1.0))
            cells = np.sort(np.floor(u[:, axis] * count).astype(int))
            assert np.array_equal(cells, np.arange(count))


def test_matrix_kernel_identity_and_diag():
    def ident(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        shape = np.broadcast_shapes(x.shape, h.shape)[:-1]
        out = np.zeros(shape + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        return out

    k = matrix_kernel(ident, alpha=3.0, dimension=2, ellipticity=(1.0, 1.0))
    x, h = _sample_pairs(2)
    assert np.allclose(k.evaluate(x, h), 1.0)
    assert np.allclose(k.radial_limit(x, h / np.linalg.norm(h, axis=1, keepdims=True)), 1.0)

    def diag(x, h):
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        shape = np.broadcast_shapes(x.shape, h.shape)[:-1]
        out = np.zeros(shape + (2, 2))
        out[..., 0, 0] = 2.0
        out[..., 1, 1] = 1.0
        return out

    k2 = matrix_kernel(diag, alpha=1.0, dimension=2, ellipticity=(1.0, 2.0))
    x0 = np.zeros((1, 2))
    for theta, want in ((0.0, 2.0), (np.pi / 2, 1.0)):
        w = np.array([[np.cos(theta), np.sin(theta)]])
        assert k2.radial_limit(x0, w) == pytest.approx(
            math.sqrt(4 * np.cos(theta) ** 2 + np.sin(theta) ** 2), abs=1e-12
        )
        assert k2.radial_limit(x0, w) == pytest.approx(want, abs=1e-12)
    assert k2.bounds == (1.0, 2.0)


def test_matrix_kernel_rejections():
    def ident(x, h):
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(np.asarray(x).shape, np.asarray(h).shape)[:-1]
        out = np.zeros(shape + (1, 1))
        out[..., 0, 0] = 1.0
        return out

    with pytest.raises(ValueError):
        matrix_kernel(ident, alpha=0.0, dimension=1, ellipticity=(1.0, 1.0))

    def indefinite(x, h):
        shape = np.broadcast_shapes(np.asarray(x).shape, np.asarray(h).shape)[:-1]
        out = np.zeros(shape + (1, 1))
        out[..., 0, 0] = -1.0
        return out

    with pytest.raises(ValueError):
        matrix_kernel(indefinite, alpha=1.0, dimension=1, ellipticity=(1.0, 1.0))


def test_matrix_alpha_1d_bounds_and_symmetry():
    # scalar field 1 + sin(2 pi .)/2, alpha = 2: range [1/4, 9/4]
    k = builtin("matrix-alpha", {"n": 1, "alpha": 2.0, "m0": 1.0, "m1": 0.5})
    assert k.bounds == (0.25, 2.25)
    rep = verify_hypotheses(k, 256)
    assert rep.passed, rep
    assert rep.h2_violation <= 1e-12


def test_separable_angular_passes():
    k = builtin("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5})
    rep = verify_hypotheses(k, 256)
    assert rep.passed
    # radial limit independent of x
    w = np.array([[0.6, 0.8]])
    a1 = k.radial_limit(np.zeros((1, 2)), w)
    a2 = k.radial_limit(np.full((1, 2), 7.3), w)
    assert a1 == pytest.approx(a2)


def test_bound_consistency_of_limits():
    for name, params in (
        ("constant", {"c": 2.5}),
        ("periodic-1d", {"A0": 2.0, "A1": 1.0}),
        ("separable-angular", {"n": 2, "c0": 1.0, "c1": 0.5}),
    ):
        k = builtin(name, params)
        rep = verify_hypotheses(k, 128)
        assert rep.bounds_violation <= 1e-12


def test_tabulated_kernel(tmp_path):
    path = tmp_path / "table.csv"
    xs = np.linspace(-2, 2, 9)
    hs = np.linspace(-3, 3, 11)
    rows = ["# x, h, value"]
    for x in xs:
        for h in hs:
            rows.append(f"{x},{h},{2.0 + 0.5 * np.tanh(x)}")
    path.write_text("\n".join(rows) + "\n")
    k = builtin("tabulated", {"table": str(path)})
    lo, hi = k.bounds
    assert lo == pytest.approx(2.0 + 0.5 * np.tanh(-2.0))
    assert hi == pytest.approx(2.0 + 0.5 * np.tanh(2.0))
    # bilinear interpolation between x-samples, nearest beyond the table
    val = k.evaluate(np.array([[0.25]]), np.array([[0.1]]))
    x0, x1 = xs[4], xs[5]
    t = (0.25 - x0) / (x1 - x0)
    want = (1 - t) * (2.0 + 0.5 * np.tanh(x0)) + t * (2.0 + 0.5 * np.tanh(x1))
    assert val == pytest.approx(want, rel=1e-12)
    far = k.evaluate(np.array([[99.0]]), np.array([[99.0]]))
    assert far == pytest.approx(2.0 + 0.5 * np.tanh(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        builtin("tabulated", {})
