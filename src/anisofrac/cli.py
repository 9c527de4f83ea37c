"""Command-line entry point.

One config file describes one experiment; the subcommand picks what to
run.  Tables land in CSV files (written atomically: temp file in the
target directory, then rename), and every run prints a one-line
summary.  Exit status: 0 on success, 2 on a config or validation
error (an output path that cannot take the file included: it is
checked before the experiment runs), 3 when a solver stopped without
reaching its tolerance (inside a sweep or the commute experiment too;
the table is still written), 4 on any other error, with a one-line
message on stderr.

Every experiment runs on one thread; ``--threads`` is accepted for
compatibility with older scripts and ignored.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile
from typing import Optional

from .config import ConfigError, ExperimentConfig, parse_config
from .energy import anisotropic_energy, get_scheme
from .gridfn import FractionalParams, write_csv
from .homogenize import coefficient_from_kernel, commute_experiment, effective_star
from .kernel import verify_hypotheses
from .limits import ConvergenceTable, LimitDensity, bbm_sweep, ms_sweep
from .variational import (
    LocalProblem,
    NonlocalProblem,
    NotConvergedError,
    localization_sweep,
    solve_local,
    solve_nonlocal,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4

SUBCOMMANDS = (
    "energy",
    "bbm-sweep",
    "ms-sweep",
    "solve-nonlocal",
    "solve-local",
    "localize",
    "homogenize",
    "commute",
    "verify-kernel",
)


def _fmt(v) -> str:
    if v is None:
        return ""
    return format(float(v), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".anisofrac-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_out_path(path: str) -> None:
    """Fail before the experiment runs if ``path`` cannot take the output."""
    if os.path.isdir(path):
        raise ValueError(f"output path {path!r} is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"output path {path!r}: directory {directory!r} does not exist")


def _table_csv(table: ConvergenceTable) -> str:
    lines = ["param,value,extrapolated,reference,rel_error"]
    for r in table.rows:
        lines.append(
            ",".join(
                [_fmt(r.param), _fmt(r.value), _fmt(r.extrapolated),
                 _fmt(r.reference), _fmt(r.rel_error)]
            )
        )
    return "\n".join(lines) + "\n"


def _emit(cfg: ExperimentConfig, text: str, what: str) -> None:
    if cfg.out_path:
        _atomic_write(cfg.out_path, text)
        print(f"{what} -> {cfg.out_path}")


def _run_energy(cfg: ExperimentConfig) -> int:
    kern = cfg.make_kernel()
    u = cfg.sample_u()
    if cfg.s is None:
        raise ConfigError([(1, "energy needs params.s")])
    rep = anisotropic_energy(kern, u, FractionalParams(cfg.s, cfg.p))
    cols = ["s", "p", "value", "error_bound"]
    vals = [cfg.s, cfg.p, rep.value, rep.error_bound]
    if cfg.breakdown:
        cols += ["near_diagonal", "bulk", "tail"]
        vals += [rep.near_diagonal, rep.bulk, rep.tail]
    text = ",".join(cols) + "\n" + ",".join(_fmt(v) for v in vals) + "\n"
    _emit(cfg, text, "energy report")
    print(text, end="")
    print(
        f"energy s={cfg.s:g} p={cfg.p:g}: value={rep.value:.8g} "
        f"(error bound {rep.error_bound:.2g})"
    )
    return EXIT_OK


def _run_sweep(cfg: ExperimentConfig, sweep, name: str) -> int:
    table = sweep(cfg.make_kernel(), cfg.sample_u(), cfg.p, cfg.s_list)
    _emit(cfg, _table_csv(table), "sweep table")
    last = table.final
    print(
        f"{name}: {len(table.rows)} rows, best={table.best_estimate():.8g} "
        f"reference={last.reference:.8g} rel_error={last.rel_error:.3g}"
    )
    return EXIT_OK


def _run_solve(cfg: ExperimentConfig, res, what: str) -> int:
    buf = io.StringIO()
    write_csv(res.minimizer, buf)
    _emit(cfg, buf.getvalue(), "minimizer")
    print(
        f"{what}: objective={res.objective:.8g} "
        f"residual={res.residual:.2g} iterations={res.iterations} "
        f"converged={res.converged}"
    )
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _run_solve_nonlocal(cfg: ExperimentConfig) -> int:
    kern = cfg.make_kernel()
    f = cfg.sample_f()
    if cfg.s is None:
        raise ConfigError([(1, "solve-nonlocal needs params.s")])
    res = solve_nonlocal(
        NonlocalProblem(
            kern=kern, fp=FractionalParams(cfg.s, cfg.p), grid=cfg.grid, source=f
        )
    )
    return _run_solve(cfg, res, f"solve-nonlocal s={cfg.s:g} p={cfg.p:g}")


def _run_solve_local(cfg: ExperimentConfig) -> int:
    kern = cfg.make_kernel()
    f = cfg.sample_f()
    res = solve_local(
        LocalProblem(grid=cfg.grid, source=f, density=LimitDensity(kern, cfg.p))
    )
    return _run_solve(cfg, res, f"solve-local p={cfg.p:g}")


def _run_localize(cfg: ExperimentConfig) -> int:
    table = localization_sweep(cfg.make_kernel(), cfg.p, cfg.sample_f(), cfg.s_list)
    _emit(cfg, _table_csv(table), "distance table")
    print(
        f"localize: {len(table.rows)} rows, final distance={table.final.value:.8g} "
        f"converged={table.converged}"
    )
    return EXIT_OK if table.converged else EXIT_NO_CONVERGENCE


def _run_homogenize(cfg: ExperimentConfig) -> int:
    kern = cfg.make_kernel()
    coeff = coefficient_from_kernel(kern, cfg.p)
    star = effective_star(coeff)
    a_bar = coeff.mean()
    gap = a_bar - star.value
    text = (
        "A_star_formula,A_star_oracle,A_bar,gap\n"
        + ",".join(_fmt(v) for v in (star.formula_value, star.value, a_bar, gap))
        + "\n"
    )
    _emit(cfg, text, "coefficients")
    print(
        f"homogenize p={cfg.p:g}: A*={star.value:.8g} "
        f"(formula {star.formula_value:.8g}, matches {star.matches}), "
        f"A_bar={a_bar:.8g}, gap={gap:.8g}"
    )
    return EXIT_OK


def _run_commute(cfg: ExperimentConfig) -> int:
    res = commute_experiment(cfg.make_kernel(), cfg.p, cfg.sample_f(), cfg.eps_list,
                             cfg.s_list)
    lines = ["path,param,value"]
    for e in res.eps_path:
        lines.append(f"eps,{_fmt(e.param)},{_fmt(e.value)}")
    for e in res.s_path:
        lines.append(f"s,{_fmt(e.param)},{_fmt(e.value)}")
    lines.append(f"summary,distance,{_fmt(res.distance)}")
    _emit(cfg, "\n".join(lines) + "\n", "commute table")
    print(
        f"commute p={cfg.p:g}: |u*-ubar|={res.distance:.8g} "
        f"gap={res.coefficients.gap:.8g} eps-path rel={res.eps_final_rel:.3g} "
        f"s-path rel={res.s_final_rel:.3g} converged={res.converged}"
    )
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _run_verify_kernel(cfg: ExperimentConfig) -> int:
    kern = cfg.make_kernel()
    rep = verify_hypotheses(kern, cfg.samples, seed=cfg.seed)
    text = (
        "h1_violation,h2_violation,h3_slope,h3_residual,bounds_violation,passed\n"
        + ",".join(
            [_fmt(rep.h1_violation), _fmt(rep.h2_violation), _fmt(rep.h3_slope),
             _fmt(rep.h3_residual), _fmt(rep.bounds_violation),
             "1" if rep.passed else "0"]
        )
        + "\n"
    )
    _emit(cfg, text, "hypothesis report")
    verdict = "passes" if rep.passed else f"FAILS (witness {rep.witness})"
    print(
        f"verify-kernel {kern.name}: {verdict} "
        f"[H1 {rep.h1_violation:.2g}, H2 {rep.h2_violation:.2g}, "
        f"H3 slope {rep.h3_slope:.3g} residual {rep.h3_residual:.2g}]"
    )
    return EXIT_OK


_RUNNERS = {
    "energy": _run_energy,
    "bbm-sweep": lambda cfg: _run_sweep(cfg, bbm_sweep, "bbm-sweep"),
    "ms-sweep": lambda cfg: _run_sweep(cfg, ms_sweep, "ms-sweep"),
    "solve-nonlocal": _run_solve_nonlocal,
    "solve-local": _run_solve_local,
    "localize": _run_localize,
    "homogenize": _run_homogenize,
    "commute": _run_commute,
    "verify-kernel": _run_verify_kernel,
}


def run(cfg: ExperimentConfig, subcommand: str) -> int:
    """Execute one experiment; returns the process exit status."""
    try:
        return _RUNNERS[subcommand](cfg)
    finally:
        # each experiment builds its own kernel, so its schemes (~150 MB
        # of form matrix at 2D N=33) can never be hit again
        get_scheme.cache_clear()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="anisofrac",
        description="anisotropic fractional energy laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", help="override output.path")
        sp.add_argument("--threads", type=int, default=None,
                        help="ignored; every experiment runs on one thread")
        sp.add_argument("--seed", type=int, default=None,
                        help="override params.seed")
        if name == "energy":
            sp.add_argument("--breakdown", action="store_true",
                            help="add the near/bulk/tail split to the report")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
        if args.out:
            cfg.out_path = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.breakdown = getattr(args, "breakdown", False)
        if cfg.out_path:
            _check_out_path(cfg.out_path)
        return run(cfg, args.subcommand)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
