import os
import subprocess
import sys

import numpy as np
import pytest

from anisofrac import cli, homogenize, variational
from anisofrac.config import ConfigError, compile_expression, parse_config

MINIMAL = """
[kernel]
name = constant
c = 1.0

[params]
s = 0.5
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.kernel_name == "constant"
    assert cfg.grid.dimension == 1
    assert cfg.grid.nodes_per_axis == 129
    assert cfg.grid.box == ((-1.0, 1.0),)
    assert cfg.p == 2.0
    assert cfg.s == 0.5
    assert cfg.u_expr.startswith("bump")
    assert cfg.f_expr == "const(1)"
    assert cfg.seed == 0


def test_default_u_fills_the_box():
    # centred in the box, radius the smallest half-width
    head = "[kernel]\nname = constant\nn = {n}\n\n[grid]\nn = {n}\nbox = {box}\n"
    assert parse_config(head.format(n=1, box="-1:3")).u_expr == "bump(1, 2)"
    assert parse_config(head.format(n=2, box="-1:3;0:1")).u_expr == "bump(1, 0.5, 0.5)"


def test_s_out_of_range_message():
    with pytest.raises(ConfigError) as exc:
        parse_config("[kernel]\nname = constant\n\n[params]\ns = 1.0\n")
    assert any("s must lie in (0,1)" in msg for _, msg in exc.value.errors)


def test_s_list_parsing():
    cfg = parse_config(
        "[kernel]\nname = constant\n\n[params]\ns_list = 0.75, 0.875, 0.9375\n"
    )
    assert cfg.s_list == [0.75, 0.875, 0.9375]


def test_all_errors_collected_with_line_numbers():
    text = "\n".join(
        [
            "[kernel]",        # 1
            "name = bogus",    # 2
            "c = x",           # 3
            "",                # 4
            "[params]",        # 5
            "s = 2.0",         # 6
            "mystery = 1",     # 7
            "",                # 8
            "[wrong]",         # 9
            "k = v",           # 10
        ]
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    lines = [ln for ln, _ in exc.value.errors]
    assert 2 in lines and 6 in lines and 7 in lines and 9 in lines


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("[kernel]\nname = constant\nname = constant\n")
    assert any("duplicate" in msg for _, msg in exc.value.errors)


def test_breakdown_is_a_flag_not_a_key():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\n[output]\nbreakdown = true\n")
    assert any("unknown key 'breakdown'" in msg for _, msg in exc.value.errors)


def test_expression_grammar():
    f = compile_expression("const(2) + sin(pi * x) * 0.5", 1)
    xs = np.array([0.0, 0.5])
    assert np.allclose(f(xs), 2.0 + 0.5 * np.sin(np.pi * xs))
    b = compile_expression("bump(0, 1)", 1)
    assert b(np.array([0.0]))[0] == pytest.approx(np.exp(-1.0))
    assert b(np.array([1.0]))[0] == 0.0
    g = compile_expression("bump(0, 0, 1)", 2)
    assert g(np.zeros(1), np.zeros(1))[0] == pytest.approx(np.exp(-1.0))
    k = compile_expression("-x * x + 1", 1)
    assert k(np.array([0.5]))[0] == pytest.approx(0.75)


def test_expression_rejections():
    for bad in ("y", "sin(x", "x ? 2", "frob(x)", "bump(0)"):
        with pytest.raises((ConfigError, ValueError)):
            compile_expression(bad, 1)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_energy_breakdown(tmp_path):
    cfg = _write(
        tmp_path,
        "e.ini",
        "[kernel]\nname = constant\nc = 1.0\n\n[grid]\nN = 65\n\n"
        "[params]\ns = 0.5\np = 2.0\nu = bump(0, 1)\n\n"
        "[output]\npath = out.csv\n",
    )
    out = tmp_path / "e.csv"
    rc = cli.main(["energy", "--config", cfg, "--out", str(out), "--breakdown"])
    assert rc == 0
    header, row = out.read_text().splitlines()
    assert header == "s,p,value,error_bound,near_diagonal,bulk,tail"
    vals = [float(v) for v in row.split(",")]
    assert vals[2] == pytest.approx(vals[4] + vals[5] + vals[6], rel=1e-15)


def test_cli_invalid_kernel_exit_2_no_output(tmp_path):
    cfg = _write(tmp_path, "bad.ini", "[kernel]\nname = nope\n")
    out = tmp_path / "never.csv"
    rc = cli.main(["energy", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


_BAD_TABLES = {
    "short-row": "# x, h, value\n0.0,-1.0,2.0\n0.0,1.0\n",
    "one-x": "0.0,-1.0,2.0\n0.0,1.0,2.0\n",
    "one-h": "-1.0,0.5,2.0\n1.0,0.5,2.0\n",
    "repeated-point": "-1,-1,2\n-1,1,2\n1,-1,2\n1,1,2\n1,1,3\n",
    "non-finite": "-1,-1,2\n-1,1,nan\n1,-1,2\n1,1,2\n",
}


@pytest.mark.parametrize("table", ["missing", *_BAD_TABLES])
def test_cli_bad_tabulated_table_exit_2(tmp_path, capsys, table):
    path = tmp_path / "table.csv"
    if table != "missing":
        path.write_text(_BAD_TABLES[table])
    cfg = _write(tmp_path, "t.ini", f"[kernel]\nname = tabulated\ntable = {path}\n\n"
                 "[params]\ns = 0.5\n")
    out = tmp_path / "never.csv"
    rc = cli.main(["energy", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert str(path) in err
    if table == "short-row":
        assert "line 3" in err and "'0.0,1.0'" in err
    if table == "repeated-point":
        assert "line 5" in err
    if table == "non-finite":
        assert "line 2" in err and "finite" in err


@pytest.mark.parametrize("subcommand, s_list", [
    ("bbm-sweep", "0.75, 0.875, 0.875"),
    ("ms-sweep", "0.25, 0.125, 0.125"),
    ("localize", "0.75, 0.875, 0.875"),
], ids=["bbm-sweep", "ms-sweep", "localize"])
def test_cli_sweep_repeated_order_exit_2(tmp_path, capsys, subcommand, s_list):
    cfg = _write(tmp_path, "r.ini", "[kernel]\nname = constant\n\n[grid]\nN = 33\n\n"
                 f"[params]\ns_list = {s_list}\n")
    out = tmp_path / "never.csv"
    rc = cli.main([subcommand, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "strictly" in err


def test_cli_commute_repeated_eps_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "r.ini", "[kernel]\nname = periodic-1d\n\n[grid]\nN = 33\n\n"
                 "[params]\neps_list = 0.25, 0.25\n")
    out = tmp_path / "never.csv"
    rc = cli.main(["commute", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "repeats" in err


@pytest.mark.parametrize("subcommand, key", [
    ("commute", "eps_list"),
    ("bbm-sweep", "s_list"),
], ids=["eps_list", "s_list"])
def test_cli_empty_list_key_exit_2(tmp_path, capsys, subcommand, key):
    for value in ("", ","):
        cfg = _write(tmp_path, "e.ini", "[kernel]\nname = periodic-1d\n\n[grid]\nN = 33\n\n"
                     f"[params]\n{key} = {value}\n")
        out = tmp_path / "never.csv"
        rc = cli.main([subcommand, "--config", cfg, "--out", str(out)])
        assert rc == 2, value
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"line 8: params.{key} must list at least one number" in err


def test_cli_increasing_trace_exit_4(tmp_path, monkeypatch, capsys):
    from anisofrac.gridfn import GridFunction
    from anisofrac.variational import SolveResult

    def rising_solve(prob):
        z = GridFunction(prob.grid, np.zeros(prob.grid.shape))
        return SolveResult(minimizer=z, objective=1.0, residual=0.0,
                           iterations=2, converged=True,
                           objective_trace=(0.0, 1.0))

    monkeypatch.setattr(cli, "solve_nonlocal", rising_solve)
    cfg = _write(
        tmp_path, "s.ini",
        "[kernel]\nname = constant\nc = 1.0\n\n[grid]\nN = 33\n\n[params]\ns = 0.5\n",
    )
    out = tmp_path / "never.csv"
    rc = cli.main(["solve-nonlocal", "--config", cfg, "--out", str(out)])
    assert rc == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "IncreasingObjectiveError" in err


def test_cli_internal_runtime_error_exit_4(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise RuntimeError("injected fault\nsecond line")

    monkeypatch.setitem(cli._RUNNERS, "energy", broken)
    cfg = _write(tmp_path, "e.ini", "[kernel]\nname = constant\n\n[params]\ns = 0.5\n")
    rc = cli.main(["energy", "--config", cfg])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: RuntimeError: injected fault second line"]


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing dir", "directory"])
def test_cli_unwritable_out_exit_2_before_run(tmp_path, monkeypatch, capsys, target):
    # the output path is checked before the experiment, not after it
    calls = []
    monkeypatch.setitem(cli._RUNNERS, "energy", lambda cfg: calls.append(cfg) or 0)
    cfg = _write(tmp_path, "e.ini", "[kernel]\nname = constant\n\n[params]\ns = 0.5\n")
    out = str(tmp_path / target)
    rc = cli.main(["energy", "--config", cfg, "--out", out])
    assert rc == 2
    assert calls == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and out in err[0]


def test_cli_solve_nonconvergence_exit_3(tmp_path, monkeypatch):
    from anisofrac.gridfn import GridFunction
    from anisofrac.variational import DEFAULT_MAX_ITER, SolveResult

    def fake_solve(prob):
        z = GridFunction(prob.grid, np.zeros(prob.grid.shape))
        return SolveResult(minimizer=z, objective=0.0, residual=1.0,
                           iterations=DEFAULT_MAX_ITER, converged=False,
                           objective_trace=(0.0,))

    monkeypatch.setattr(cli, "solve_nonlocal", fake_solve)
    cfg = _write(
        tmp_path, "s.ini",
        "[kernel]\nname = constant\nc = 1.0\n\n[grid]\nN = 33\n\n[params]\ns = 0.5\n",
    )
    rc = cli.main(["solve-nonlocal", "--config", cfg])
    assert rc == 3


@pytest.mark.parametrize("subcommand", ["homogenize", "commute"])
def test_cli_cell_problem_nonconvergence_exit_3(tmp_path, monkeypatch, subcommand):
    from anisofrac.variational import NotConvergedError

    def fake_cell(c, xi, n_cells=512, tol=1e-10, max_iter=20_000):
        raise NotConvergedError("cell problem did not converge")

    monkeypatch.setattr(homogenize, "cell_problem_1d", fake_cell)
    cfg = _write(
        tmp_path, "h.ini",
        "[kernel]\nname = periodic-1d\nA0 = 2.0\nA1 = 1.0\n\n[grid]\nN = 33\n\n"
        "[params]\ns = 0.5\n",
    )
    out = tmp_path / "h.csv"
    rc = cli.main([subcommand, "--config", cfg, "--out", str(out)])
    assert rc == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, module, solver, picks",
    [
        ("localize", variational, "solve_nonlocal", lambda prob: True),
        ("commute", homogenize, "solve_local",
         lambda prob: "@eps=" in prob.density.kern.name),
        ("commute", variational, "solve_nonlocal",
         lambda prob: prob.kern.name.startswith("avg(")),
    ],
    ids=["localize", "commute-eps-path", "commute-s-path"],
)
def test_cli_inner_solve_nonconvergence_exit_3(tmp_path, monkeypatch, subcommand, module,
                                               solver, picks):
    # the localization sweep's nonlocal solves go through
    # variational.solve_nonlocal, and so do those of commute's s path (the
    # averaged kernel "avg(...)"); commute's eps path is one local solve
    # per eps of the rescaled kernel "...@eps=..."; the first solve the
    # case picks stops short
    from anisofrac.variational import DEFAULT_MAX_ITER, SolveResult

    real_solve = getattr(module, solver)
    stopped = []

    def short_solve(prob):
        res = real_solve(prob)
        if stopped or not picks(prob):
            return res
        stopped.append(prob)
        return SolveResult(minimizer=res.minimizer, objective=res.objective,
                           residual=1.0, iterations=DEFAULT_MAX_ITER,
                           converged=False, objective_trace=res.objective_trace)

    monkeypatch.setattr(module, solver, short_solve)
    cfg = _write(
        tmp_path, "c.ini",
        "[kernel]\nname = periodic-1d\nA0 = 2.0\nA1 = 1.0\n\n[grid]\nN = 33\n\n"
        "[params]\ns_list = 0.75, 0.875, 0.9375\neps_list = 0.25\n",
    )
    out = tmp_path / "c.csv"
    rc = cli.main([subcommand, "--config", cfg, "--out", str(out)])
    assert len(stopped) == 1
    assert rc == 3
    # the table is still written, with the CSV header unchanged
    header = "param,value,extrapolated,reference,rel_error" if subcommand == "localize" \
        else "path,param,value"
    assert out.read_text().splitlines()[0] == header


@pytest.mark.parametrize("subcommand, section, key, value", [
    ("energy", "params", "p", "nan"),
    ("energy", "params", "p", "inf"),
    ("commute", "params", "eps_list", "inf"),
    ("energy", "kernel", "c", "inf"),
    ("energy", "grid", "box", "-inf:1"),
], ids=["p=nan", "p=inf", "eps_list=inf", "c=inf", "box=-inf:1"])
def test_cli_nonfinite_number_exit_2(tmp_path, capsys, subcommand, section, key, value):
    kernel = "periodic-1d" if subcommand == "commute" else "constant"
    body = {"kernel": [f"name = {kernel}"], "grid": ["N = 33"], "params": ["s = 0.5"]}
    body[section].append(f"{key} = {value}")
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n" for name, lines in body.items())
    cfg = _write(tmp_path, "n.ini", text)
    out = tmp_path / "never.csv"
    rc = cli.main([subcommand, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    line = text.splitlines().index(f"{key} = {value}") + 1
    assert f"line {line}:" in err and "finite" in err


def test_cli_solve_nonlocal_2d_at_the_grid_cap(tmp_path):
    cfg = _write(
        tmp_path, "cap.ini",
        "[kernel]\nname = separable-angular\nn = 2\n\n"
        "[grid]\nn = 2\nbox = -1:1;-1:1\nN = 48\n\n"
        "[params]\ns = 0.5\nf = bump(0, 0, 0.6)\n",
    )
    out = tmp_path / "u.csv"
    assert cli.main(["solve-nonlocal", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().startswith("# grid n=2 box=-1:1;-1:1 N=48\n")


@pytest.mark.parametrize("N, rc", [(48, 0), (49, 2)])
def test_cli_solve_local_2d_grid_cap(tmp_path, capsys, N, rc):
    cfg = _write(
        tmp_path, "cap.ini",
        "[kernel]\nname = separable-angular\nn = 2\n\n"
        f"[grid]\nn = 2\nbox = -1:1;-1:1\nN = {N}\n\n"
        "[params]\nf = bump(0, 0, 0.6)\n",
    )
    out = tmp_path / "u.csv"
    assert cli.main(["solve-local", "--config", cfg, "--out", str(out)]) == rc
    err = capsys.readouterr().err.splitlines()
    if rc == 0:
        assert out.read_text().startswith(f"# grid n=2 box=-1:1;-1:1 N={N}\n")
    else:
        assert not out.exists()
        assert err == ["error: 2D grids are capped at N <= 48 per axis, got N = 49"]


@pytest.mark.parametrize("subcommand", ["solve-local", "localize"])
@pytest.mark.parametrize(
    "kernel, grid",
    [("separable-angular", "n = 1\nN = 33"), ("periodic-1d", "n = 2\nbox = -1:1;-1:1\nN = 9")],
    ids=["2D kernel on 1D grid", "1D kernel on 2D grid"],
)
def test_cli_kernel_grid_dimension_mismatch_exit_2(
    tmp_path, monkeypatch, capsys, subcommand, kernel, grid
):
    # rejected when the problem is set up, before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a problem whose dimensions differ")

    monkeypatch.setattr(variational, "_solve_atoms", no_solve)
    cfg = _write(tmp_path, "m.ini", f"[kernel]\nname = {kernel}\n\n[grid]\n{grid}\n")
    out = tmp_path / "m.csv"
    assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: kernel and grid dimensions differ"]


def test_cli_solve_writes_grid_csv(tmp_path):
    from anisofrac.gridfn import read_csv

    cfg = _write(
        tmp_path, "s.ini",
        "[kernel]\nname = constant\nc = 1.0\n\n[grid]\nN = 33\n\n"
        "[params]\ns = 0.5\nf = const(1)\n",
    )
    out = tmp_path / "u.csv"
    rc = cli.main(["solve-nonlocal", "--config", cfg, "--out", str(out)])
    assert rc == 0
    u = read_csv(out)
    assert u.grid.nodes_per_axis == 33
    assert u.values.max() > 0.0


def test_cli_verify_kernel(tmp_path):
    cfg = _write(
        tmp_path, "v.ini",
        "[kernel]\nname = separable-angular\nn = 2\nc0 = 1.0\nc1 = 0.5\n\n"
        "[params]\nsamples = 64\n",
    )
    out = tmp_path / "rep.csv"
    rc = cli.main(["verify-kernel", "--config", cfg, "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().splitlines()
    assert row.endswith(",1")


def test_cli_threads_determinism(tmp_path):
    cfg = _write(
        tmp_path, "t.ini",
        "[kernel]\nname = periodic-1d\nA0 = 2.0\nA1 = 1.0\n\n[grid]\nN = 65\n\n"
        "[params]\np = 2.0\nu = bump(0, 1)\ns_list = 0.75, 0.875, 0.9375, 0.96875\n",
    )
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}.csv"
        rc = cli.main(["bbm-sweep", "--config", cfg, "--out", str(out),
                       "--threads", str(workers)])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_atomic_write_leaves_nothing_on_crash(tmp_path, monkeypatch):
    target = tmp_path / "x.csv"

    def boom(src, dst):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(RuntimeError):
        cli._atomic_write(str(target), "data\n")
    assert not target.exists()
    assert not any(p.name.startswith(".anisofrac-") for p in tmp_path.iterdir())


def test_console_entrypoint_runs():
    # the child process imports the same package as this suite
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "anisofrac.cli", "energy", "--config", "/nonexistent"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
