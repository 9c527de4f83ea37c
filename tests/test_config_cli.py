import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from anisofrac import cli, energy, homogenize, variational
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
    assert any("unknown section [output]" in msg for _, msg in exc.value.errors)


def test_table_key_only_for_tabulated_kernel():
    text = "[kernel]\nname = constant\ntable = x.csv\n\n[params]\ns = 2.0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [
        (3, "kernel 'constant' does not accept parameter 'table'"),
        (6, "s must lie in (0,1), got '2.0'"),
    ]


@pytest.mark.parametrize("key, value, message", [
    ("seed", "-1", "seed must be >= 0"),
    ("samples", "0", "samples must be >= 1"),
])
def test_integer_param_out_of_range(key, value, message):
    text = MINIMAL + f"{key} = {value}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [(len(text.splitlines()), f"{message}, got {value!r}")]


def test_readme_config_example_parses():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```ini\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    parse_config(blocks[0])


def test_readme_library_example_runs(capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "+-" in capsys.readouterr().out


def test_missing_kernel_name_has_no_line(tmp_path, capsys):
    cfg = _write(tmp_path, "n.ini", "[grid]\nN = 33\n")
    assert cli.main(["energy", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "missing kernel.name" in err
    assert "line 1:" not in err


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


def test_expression_parentheses_and_binary_minus_in_2d():
    f = compile_expression("(x - y) * (x + y)", 2)
    x, y = np.meshgrid(np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 2.0, 4), indexing="ij")
    assert np.array_equal(f(x, y), (x - y) * (x + y))
    np.testing.assert_allclose(f(x, y), x ** 2 - y ** 2, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("body, line, message", [
    ("[params]\njunk", 5, "expected 'key = value', got 'junk'"),
    ("[grid]\nn = 3", 5, "grid.n must be 1 or 2"),
    ("[grid]\nbox = 1-2", 5, "grid.box must look like 'a:b[;a:b]', got '1-2'"),
    ("[grid]\nn = 2\nbox = -1:1", 6, "grid.box lists 1 axes but n = 2"),
    ("[grid]\nN = 2", 5, "grid.N must be >= 3"),
    ("[params]\nseed = 1.5", 5, "params.seed must be an integer, got '1.5'"),
    ("[params]\ns_list = a, b", 5, "params.s_list must be a comma-separated number list"),
    ("[params]\nu = frob(x)", 5, "params.u: unknown name 'frob' in expression"),
    ("[params]\nu = const(1, 2)", 5, "params.u: const takes one argument"),
    ("[params]\nf = sin(1, 2)", 5, "params.f: sin takes one argument"),
    ("[params]\nu = x x", 5, "params.u: trailing 'x' in expression"),
], ids=["no-equals", "grid-n", "box-grammar", "box-axes", "grid-N", "seed-float",
        "s_list-words", "unknown-name", "const-arity", "sin-arity", "trailing-token"])
def test_config_error_messages_and_lines(body, line, message):
    with pytest.raises(ConfigError) as exc:
        parse_config("[kernel]\nname = constant\n\n" + body + "\n")
    assert exc.value.errors == [(line, message)]


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
        "[params]\ns = 0.5\np = 2.0\nu = bump(0, 1)\n",
    )
    out = tmp_path / "e.csv"
    rc = cli.main(["energy", "--config", cfg, "--out", str(out), "--breakdown"])
    assert rc == 0
    header, row = out.read_text().splitlines()
    assert header == "s,p,value,error_bound,near_diagonal,bulk,tail"
    vals = [float(v) for v in row.split(",")]
    assert vals[2] == pytest.approx(vals[4] + vals[5] + vals[6], rel=1e-15)


_SWEEP_HEADER = "param,value,extrapolated,reference,rel_error"
_GRID_HEADER = "# grid n=1 box=-1:1 N=33"

# subcommand -> (kernel, params, what, CSV header, summary prefix)
_CONTRACT = {
    "energy": ("constant", "s = 0.5", "energy report", "s,p,value,error_bound",
               "energy s=0.5 p=2:"),
    "bbm-sweep": ("constant", "s_list = 0.75, 0.875, 0.9375", "sweep table",
                  _SWEEP_HEADER, "bbm-sweep: 3 rows"),
    "ms-sweep": ("constant", "s_list = 0.25, 0.125, 0.0625", "sweep table",
                 _SWEEP_HEADER, "ms-sweep: 3 rows"),
    "solve-nonlocal": ("constant", "s = 0.5", "minimizer", _GRID_HEADER,
                       "solve-nonlocal s=0.5 p=2:"),
    "solve-local": ("constant", "", "minimizer", _GRID_HEADER, "solve-local p=2:"),
    "localize": ("periodic-1d", "s_list = 0.75, 0.875, 0.9375", "distance table",
                 _SWEEP_HEADER, "localize: 3 rows"),
    "homogenize": ("periodic-1d", "", "coefficients",
                   "A_star_formula,A_star_oracle,A_bar,gap", "homogenize p=2:"),
    "commute": ("periodic-1d", "s_list = 0.75, 0.875, 0.9375\neps_list = 0.25",
                "commute table", "path,param,value", "commute p=2:"),
    "verify-kernel": ("constant", "", "hypothesis report",
                      "h1_violation,h2_violation,h3_slope,h3_residual,"
                      "bounds_violation,passed", "verify-kernel constant(1):"),
}


@pytest.mark.parametrize("subcommand", list(_CONTRACT))
def test_cli_output_contract(tmp_path, capsys, subcommand):
    # what every subcommand writes and prints: with --out, one "<what> ->
    # <path>" line, then the same stdout as without --out, which ends in
    # the summary line and writes no file
    assert set(_CONTRACT) == set(cli.SUBCOMMANDS)
    kernel, params, what, header, prefix = _CONTRACT[subcommand]
    cfg = _write(tmp_path, "c.ini", f"[kernel]\nname = {kernel}\n\n[grid]\nN = 33\n\n"
                 f"[params]\n{params}\n")
    out = tmp_path / "out.csv"
    assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{what} -> {out}"
    assert lines[-1].startswith(prefix)
    assert out.read_text().splitlines()[0] == header
    if subcommand == "energy":
        assert lines[1:-1] == out.read_text().splitlines()
    else:
        assert len(lines) == 2

    out.unlink()
    assert cli.main([subcommand, "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines() == lines[1:]
    assert os.listdir(tmp_path) == ["c.ini"]


def test_cli_output_section_exit_2_no_output(tmp_path, monkeypatch, capsys):
    # the output path has one way in, --out
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "o.ini", MINIMAL + "\n[output]\npath = out.csv\n")
    assert cli.main(["energy", "--config", cfg]) == 2
    assert not (tmp_path / "out.csv").exists()
    line = (MINIMAL + "\n[output]\n").count("\n")
    assert f"line {line}: unknown section [output]" in capsys.readouterr().err


def test_cli_seed_flag_rejected(tmp_path, capsys):
    # the seed has one way in, params.seed
    cfg = _write(tmp_path, "v.ini", "[kernel]\nname = constant\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-kernel", "--config", cfg, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["energy", "solve-nonlocal"])
def test_cli_missing_s_exit_2_without_line(tmp_path, capsys, subcommand):
    cfg = _write(tmp_path, "m.ini", "[kernel]\nname = constant\n\n[grid]\nN = 33\n")
    out = tmp_path / "never.csv"
    assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {subcommand} needs params.s"]


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


def test_cli_relative_table_path_is_read_next_to_the_config(tmp_path, monkeypatch):
    d = tmp_path / "dir"
    d.mkdir()
    (d / "w.csv").write_text("-1,-1,2\n-1,1,2\n1,-1,2\n1,1,2\n")
    (d / "e.ini").write_text("[kernel]\nname = tabulated\ntable = w.csv\n\n"
                             "[grid]\nN = 33\n\n[params]\ns = 0.5\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["energy", "--config", os.path.join("dir", "e.ini")]) == 0


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


@pytest.mark.parametrize("target", ["missing/x.csv", ".", "x.csv"],
                         ids=["missing dir", "directory", "refused"])
def test_cli_unwritable_out_exit_2_before_run(tmp_path, monkeypatch, capsys, target):
    # the output path is checked before the experiment, not after it
    calls = []
    monkeypatch.setitem(cli._RUNNERS, "energy", lambda cfg: calls.append(cfg) or 0)
    cfg = _write(tmp_path, "e.ini", "[kernel]\nname = constant\n\n[params]\ns = 0.5\n")
    if target == "x.csv":
        # what a read-only or foreign-owned directory gives a user other
        # than root, who may write anywhere
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(tempfile, "mkstemp", refuse)
    out = str(tmp_path / target)
    rc = cli.main(["energy", "--config", cfg, "--out", out])
    assert rc == 2
    assert calls == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and out in err[0]
    assert os.listdir(tmp_path) == ["e.ini"]


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


def test_cli_homogenize_formula_matches_oracle(tmp_path):
    cfg = _write(tmp_path, "h.ini", "[kernel]\nname = periodic-1d\nA0 = 2.0\n"
                 "A1 = 1.0\n\n[grid]\nN = 33\n\n[params]\np = 3.0\n")
    out = tmp_path / "h.csv"
    assert cli.main(["homogenize", "--config", cfg, "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert values["A_star_formula"] == pytest.approx(values["A_star_oracle"], rel=1e-9)


def test_cli_homogenize_star_above_bar_exit_4(tmp_path, monkeypatch, capsys):
    # A_bar = 2 for A0 = 2, A1 = 1 at p = 2; a cell value of 3 is a fault
    monkeypatch.setattr(homogenize, "cell_problem_1d", lambda c, xi: 3.0)
    cfg = _write(tmp_path, "h.ini", "[kernel]\nname = periodic-1d\nA0 = 2.0\n"
                 "A1 = 1.0\n\n[grid]\nN = 33\n")
    out = tmp_path / "h.csv"
    assert cli.main(["homogenize", "--config", cfg, "--out", str(out)]) == 4
    assert not out.exists()
    assert "exceeds the plain average" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["homogenize", "commute"])
@pytest.mark.parametrize("A0", ["1e308", "1e307"])
def test_cli_overflowing_coefficient_exit_2_before_the_cell_problem(
    tmp_path, monkeypatch, capsys, subcommand, A0
):
    # A0 = 1e308: A(y) overflows to inf; A0 = 1e307: A is finite but its
    # mean overflows.  Either way A_bar is inf, checked before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved on an overflowing coefficient")

    monkeypatch.setattr(homogenize, "cell_problem_1d", no_solve)
    monkeypatch.setattr(variational, "_solve_atoms", no_solve)
    cfg = _write(tmp_path, "h.ini", f"[kernel]\nname = periodic-1d\nA0 = {A0}\nA1 = 1\n\n"
                 "[grid]\nN = 33\n\n[params]\ns = 0.5\n")
    out = tmp_path / "h.csv"
    assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: effective coefficient A_bar is inf: the inputs overflow double precision"
    ]


def test_cli_overflowing_solve_names_its_objective(tmp_path, capsys):
    # the iterate overflows; the error names the solve's objective, not
    # the values of the minimizer it would have been wrapped in
    cfg = _write(tmp_path, "s.ini", "[kernel]\nname = periodic-1d\nA0 = 1e308\nA1 = 1\n\n"
                 "[grid]\nN = 33\n\n[params]\ns = 0.5\nf = 1\n")
    out = tmp_path / "u.csv"
    assert cli.main(["solve-nonlocal", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: solve objective is ")
    assert err[0].endswith(": the inputs overflow double precision")


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


_NONFINITE_GRIDS = {
    "1D": "[kernel]\nname = periodic-1d\nA0 = 2.0\nA1 = 1.0\n\n[grid]\nN = 33\n\n",
    "2D N=33": "[kernel]\nname = separable-angular\n\n[grid]\nn = 2\nbox = -1:1;-1:1\nN = 33\n\n",
}


@pytest.mark.parametrize("subcommand, key, expr, grid", [
    ("energy", "u", "const(1e308) * 10 * bump(0, 0.5)", "1D"),
    ("bbm-sweep", "u", "const(1e308) * 10 * bump(0, 0.5)", "1D"),
    ("ms-sweep", "u", "const(1e308) * 10 * bump(0, 0.5)", "1D"),
    ("solve-nonlocal", "f", "const(1e308) * 10", "1D"),
    ("solve-local", "f", "const(1e308) * 10", "1D"),
    ("localize", "f", "const(1e308) * 10", "1D"),
    ("commute", "f", "const(1e308) * 10", "1D"),
    ("energy", "u", "const(1e308) * 10 * bump(0, 0, 0.8)", "2D N=33"),
    ("bbm-sweep", "u", "const(1e308) * 10 * bump(0, 0, 0.8)", "2D N=33"),
])
def test_cli_nonfinite_function_exit_2_before_any_solve(
    tmp_path, monkeypatch, capsys, subcommand, key, expr, grid
):
    # the expression parses; its values overflow to inf, and inf * 0 is
    # nan.  Sampling rejects them before any scheme, cell problem or solve
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a non-finite function")

    monkeypatch.setattr(variational, "_solve_atoms", no_work)
    monkeypatch.setattr(energy.EnergyScheme, "__init__", no_work)
    monkeypatch.setattr(homogenize, "cell_problem_1d", no_work)
    cfg = _write(tmp_path, "n.ini",
                 _NONFINITE_GRIDS[grid] + f"[params]\ns = 0.5\n{key} = {expr}\n")
    out = tmp_path / "never.csv"
    assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == ["error: grid function values must be finite"]


@pytest.mark.parametrize("subcommand, params", [
    ("energy", "s = 1e-320"),
    ("energy", "s = 0.5\np = 800\nu = const(40) * bump(0, 1)"),
    ("bbm-sweep", "p = 800\nu = const(40) * bump(0, 1)"),
    ("solve-local", "f = const(1e306)"),
    ("solve-nonlocal", "s = 0.5\nf = const(1e306)"),
    ("localize", "f = const(1e306)"),
], ids=["energy s=1e-320", "energy p=800", "bbm-sweep p=800", "solve-local f=1e306",
        "solve-nonlocal f=1e306", "localize f=1e306"])
def test_cli_nonfinite_result_exit_2(tmp_path, capsys, subcommand, params):
    # finite inputs whose energies or objectives overflow double precision
    cfg = _write(tmp_path, "o.ini",
                 f"[kernel]\nname = constant\n\n[grid]\nN = 33\n\n[params]\n{params}\n")
    out = tmp_path / "never.csv"
    assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith("the inputs overflow double precision")


@pytest.mark.parametrize("subcommand, box, rc", [
    ("energy", "-1e200:1e200", 2),
    ("bbm-sweep", "-1e200:1e200", 0),
    ("ms-sweep", "-1e200:1e200", 2),
    ("solve-nonlocal", "-1e200:1e200", 2),
    ("energy", "-1e200:1e200;0:1", 0),
    ("energy", "-1.7e308:1.7e308", 2),
])
def test_cli_huge_box_is_no_internal_error(tmp_path, capsys, subcommand, box, rc):
    # a finite box whose size overflows a Python float power of the
    # scheme (OverflowError) exits 2, not 4, unless its table stays
    # finite; a box whose width is inf is rejected at its config line
    n = box.count(";") + 1
    text = (f"[kernel]\nname = constant\nn = {n}\n\n[grid]\nn = {n}\nbox = {box}\nN = 5\n\n"
            "[params]\ns = 0.5\nf = 1\n")
    cfg = _write(tmp_path, "b.ini", text)
    out = tmp_path / "b.csv"
    assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == rc
    err = capsys.readouterr().err.splitlines()
    if rc == 0:
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows and all(np.isfinite(float(v)) for row in rows for v in row if v)
    elif "1.7e308" in box:
        assert not out.exists()
        assert err[-1] == "  line 7: box interval (-1.7e+308, 1.7e+308) must have a finite width"
    else:
        assert not out.exists()
        assert len(err) == 1 and err[0].endswith("the inputs overflow double precision")


def test_cli_bare_number_is_a_constant_source(tmp_path):
    outputs = []
    for name, f in (("bare", "2"), ("const", "const(2)")):
        cfg = _write(
            tmp_path, f"{name}.ini",
            f"[kernel]\nname = periodic-1d\n\n[grid]\nN = 33\n\n[params]\nf = {f}\n",
        )
        out = tmp_path / f"{name}.csv"
        assert cli.main(["solve-local", "--config", cfg, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_expression_has_the_shape_of_its_coordinates():
    x, y = np.meshgrid(np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 2.0, 4), indexing="ij")
    out = compile_expression("pi", 2)(x, y)
    assert out.shape == x.shape
    assert np.all(out == np.pi)


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


@pytest.mark.parametrize("N, rc", [(48, 0), (49, 2)])
def test_cli_verify_kernel_2d_grid_cap(tmp_path, capsys, N, rc):
    # the audit samples no grid, but its config is held to the same cap
    cfg = _write(
        tmp_path, "cap.ini",
        "[kernel]\nname = separable-angular\nn = 2\n\n"
        f"[grid]\nn = 2\nbox = -1:1;-1:1\nN = {N}\n\n"
        "[params]\nsamples = 64\n",
    )
    out = tmp_path / "rep.csv"
    assert cli.main(["verify-kernel", "--config", cfg, "--out", str(out)]) == rc
    err = capsys.readouterr().err.splitlines()
    if rc == 0:
        assert out.read_text().splitlines()[1].endswith(",1")
    else:
        assert not out.exists()
        assert err == ["error: 2D grids are capped at N <= 48 per axis, got N = 49"]


@pytest.mark.parametrize("subcommand", ["solve-local", "localize", "commute", "verify-kernel"])
@pytest.mark.parametrize(
    "kernel, grid",
    [("separable-angular", "n = 1\nN = 33"), ("periodic-1d", "n = 2\nbox = -1:1;-1:1\nN = 9")],
    ids=["2D kernel on 1D grid", "1D kernel on 2D grid"],
)
def test_cli_kernel_grid_dimension_mismatch_exit_2(
    tmp_path, monkeypatch, capsys, subcommand, kernel, grid
):
    # rejected when the problem is set up, before any solve or cell problem
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a problem whose dimensions differ")

    monkeypatch.setattr(variational, "_solve_atoms", no_solve)
    monkeypatch.setattr(homogenize, "cell_problem_1d", no_solve)
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
        "[grid]\nn = 2\nbox = -1:1;-1:1\nN = 9\n\n"
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
