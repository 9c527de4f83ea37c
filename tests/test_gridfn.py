import io
import re
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisofrac.gridfn import (
    FractionalParams,
    Grid,
    GridFunction,
    lp_norm,
    read_csv,
    write_csv,
)
from conftest import bump_profile, hat_profile
from oracles import gradient_lp


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(((-1, 1),) * 3, 9)
    with pytest.raises(ValueError):
        Grid(((-1.0, 1.0),), 2)
    with pytest.raises(ValueError):
        Grid(((1.0, 1.0),), 9)
    g = Grid(((-1.0, 1.0), (0.0, 2.0)), 5)
    assert g.spacing == (0.5, 0.5)
    assert g.nodes().shape == (25, 2)


def test_fractional_params_open_interval():
    FractionalParams(0.5, 2.0)
    for bad_s in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            FractionalParams(bad_s, 2.0)
    with pytest.raises(ValueError):
        FractionalParams(0.5, 0.9)


def test_eval_hat(grid129, hat129):
    assert hat129.eval(np.array([[0.0]])) == pytest.approx(1.0)
    # exactly zero outside the box
    out = hat129.eval(np.array([[1.5], [-2.0], [100.0]]))
    assert np.all(out == 0.0)
    # midpoint between nodes is the average of the node values
    h = grid129.spacing[0]
    mid = -1.0 + 1.5 * h
    expected = 0.5 * (hat129.values[1] + hat129.values[2])
    assert hat129.eval(np.array([[mid]])) == pytest.approx(expected, rel=1e-12)


def test_eval_2d_zero_extension():
    g = Grid(((-1.0, 1.0), (-1.0, 1.0)), 9)
    u = GridFunction.from_callable(g, lambda x, y: np.cos(x) * np.cos(y))
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, -1.01], [5.0, 5.0]])
    vals = u.eval(pts)
    assert vals[0] == pytest.approx(float(np.cos(0) ** 2), rel=1e-2)
    assert np.all(vals[1:] == 0.0)


def test_lp_norm_zero_and_hat():
    g = Grid(((-1.0, 1.0),), 2049)
    z = GridFunction(g, np.zeros(2049))
    assert lp_norm(z, 2.0) == 0.0
    hat = GridFunction.from_callable(g, hat_profile)
    # closed form: 2 * int_0^1 (1-x)^2 dx = 2/3
    assert lp_norm(hat, 2.0) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-5)


def test_lp_norm_refinement_second_order():
    # frozen oracle: adaptive quadrature of the bump profile gives
    # ||u||_2 = 0.3648097049764345 (abs err < 6e-10)
    ref = 0.3648097049764345
    errs = []
    for N in (65, 129, 257):
        g = Grid(((-1.0, 1.0),), N)
        u = GridFunction.from_callable(g, bump_profile)
        errs.append(abs(lp_norm(u, 2.0) - ref))
    # halving h divides the trapezoid error by ~4
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < errs[0] / 8.0


@given(c=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_lp_norm_homogeneity(c):
    g = Grid(((-1.0, 1.0),), 33)
    u = GridFunction.from_callable(g, hat_profile)
    assert lp_norm(u.scaled(c), 2.0) == pytest.approx(abs(c) * lp_norm(u, 2.0), abs=1e-12)


def test_gradient_lp_hat_and_constant(grid129, hat129):
    for p in (1.0, 2.0, 3.0):
        assert gradient_lp(hat129, p) == pytest.approx(2.0 ** (1.0 / p), rel=1e-12)
    z = GridFunction(grid129, np.zeros(129))
    assert gradient_lp(z, 2.0) == 0.0


def test_gradient_lp_refinement_bump():
    # frozen oracle: adaptive quadrature of (u')^2 for the bump profile
    # gives ||u'||_2^2 = 0.4095870607527702 (abs err < 4e-13)
    ref = math.sqrt(0.4095870607527702)
    vals = []
    for N in (129, 257):
        g = Grid(((-1.0, 1.0),), N)
        u = GridFunction.from_callable(g, bump_profile)
        vals.append(gradient_lp(u, 2.0))
    # cell-centered differences converge; N and 2N-1 differ by O(1/N)
    assert abs(vals[1] - ref) < abs(vals[0] - ref)
    assert abs(vals[0] - vals[1]) < 10.0 / 129


def test_boundary_flag_pins_and_subspace(grid129):
    vals = np.ones(129)
    u = GridFunction(grid129, vals, boundary_flag=True)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    v = GridFunction(grid129, np.linspace(0, 1, 129), boundary_flag=True)
    w = GridFunction(grid129, 2.0 * u.values + 3.0 * v.values, boundary_flag=True)
    assert w.values[0] == 0.0 and w.values[-1] == 0.0
    assert np.allclose(w.values, 2.0 * u.values + 3.0 * v.values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("boundary_flag", [True, False])
def test_grid_function_values_must_be_finite(grid129, bad, boundary_flag):
    vals = np.ones(129)
    vals[64] = bad
    with pytest.raises(ValueError, match="grid function values must be finite"):
        GridFunction(grid129, vals, boundary_flag=boundary_flag)


def test_pinning_drops_a_nan_on_the_boundary(grid129):
    # the check runs on the values kept, after pinning
    vals = np.ones(129)
    vals[0] = math.nan
    u = GridFunction(grid129, vals, boundary_flag=True)
    assert u.values[0] == 0.0 and np.all(np.isfinite(u.values))
    with pytest.raises(ValueError, match="grid function values must be finite"):
        GridFunction(grid129, vals, boundary_flag=False)


def test_cell_gradients_2d_averaged_differences():
    # per axis: the difference across the cell, averaged over the other axis
    g = Grid(((-1.0, 1.0), (-0.5, 2.5)), 7)
    v = np.random.default_rng(3).standard_normal(g.shape)
    centers, grads, vols = GridFunction(g, v, boundary_flag=False).cell_gradients()
    hx, hy = g.spacing
    gx = 0.5 * ((v[1:, 1:] - v[:-1, 1:]) + (v[1:, :-1] - v[:-1, :-1])) / hx
    gy = 0.5 * ((v[1:, 1:] - v[1:, :-1]) + (v[:-1, 1:] - v[:-1, :-1])) / hy
    assert np.array_equal(grads, np.column_stack([gx.ravel(), gy.ravel()]))
    cx = -1.0 + hx * (np.arange(6) + 0.5)
    cy = -0.5 + hy * (np.arange(6) + 0.5)
    assert np.array_equal(centers, np.column_stack([np.repeat(cx, 6), np.tile(cy, 6)]))
    assert np.array_equal(vols, np.full(36, hx * hy))


def test_csv_roundtrip(tmp_path, hat129):
    path = tmp_path / "u.csv"
    write_csv(hat129, path)
    back = read_csv(path)
    assert back.grid == hat129.grid
    assert np.array_equal(back.values, hat129.values)
    buf = io.StringIO()
    write_csv(hat129, buf)
    assert buf.getvalue().startswith("# grid n=1 box=-1:1 N=129\n")


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("no header\n1\n2\n")
    with pytest.raises(ValueError):
        read_csv(path)


@pytest.mark.parametrize("header, message", [
    ("# grid n=1 box=-1:1", "no N= field"),
    ("# grid n=1 box=-1:1 N", "malformed header field 'N'"),
    ("# grid box=-1:1 N=3", "no n= field"),
    ("# grid n=one box=-1:1 N=3", "malformed header field n='one'"),
    ("# grid n=1 box=-1-1 N=3", "malformed header field box='-1-1'"),
], ids=["no-N", "bare-N", "no-n", "bad-n", "bad-box"])
def test_csv_header_errors_name_the_field(header, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_csv(io.StringIO(header + "\n0\n1\n0\n"))


def test_csv_rejects_a_nan_value():
    with pytest.raises(ValueError, match="grid function values must be finite"):
        read_csv(io.StringIO("# grid n=1 box=-1:1 N=3\n0\nnan\n0\n"))


def test_csv_header_n_must_match_the_box():
    # the box fixes the dimension; an n= that disagrees is a corrupt file
    with pytest.raises(ValueError, match=re.escape("header field n=2 does not match box=-1:1")):
        read_csv(io.StringIO("# grid n=2 box=-1:1 N=3\n0\n1\n0\n"))
