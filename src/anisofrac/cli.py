"""Command-line entry point.

One config file describes one experiment; the subcommand picks what to
run.  Each experiment returns its table and summary, and ``run`` alone
writes and prints them.  Tables land in CSV files (written atomically:
temp file in the target directory, then rename).  With ``--out`` the
first stdout line is ``<what> -> <path>``; then ``energy`` echoes its
CSV, and every subcommand prints one summary line.  Exit status: 0 on
success, 2 on a config or validation error (an output path that cannot
take the file included: it is checked before the experiment runs; so
is a sampled function or a result that is not finite), 3
when a solver stopped without reaching its tolerance (inside a sweep or
the commute experiment too; the table is still written), 4 on any other
error, with a one-line message on stderr.

Every experiment runs on one thread; ``--threads`` is accepted for
compatibility with older scripts and ignored.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tempfile
from typing import NamedTuple, Optional

import numpy as np

from .config import ConfigError, ExperimentConfig, parse_config
from .energy import anisotropic_energy, check_kernel_grid, get_scheme
from .gridfn import FractionalParams, write_csv
from .homogenize import coefficient_from_kernel, commute_experiment, effective_coefficients
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


class Outcome(NamedTuple):
    """One experiment's result; ``run`` writes, prints and picks the exit status."""

    csv: str  # the table written to ``--out``
    what: str  # what the table holds, for the "<what> -> <path>" line
    summary: str  # printed to stdout
    converged: bool = True


def _fmt(v) -> str:
    if v is None:
        return ""
    return format(float(v), ".17g")


def _csv(header: str, rows) -> str:
    """CSV text: numbers at full precision, ``None`` empty, strings as they are."""
    lines = [header] + [
        ",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows
    ]
    return "\n".join(lines) + "\n"


def _temp_file(directory: str) -> tuple[int, str]:
    return tempfile.mkstemp(dir=directory, prefix=".anisofrac-", suffix=".tmp")


def _atomic_write(path: str, text: str) -> None:
    fd, tmp = _temp_file(os.path.dirname(os.path.abspath(path)))
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
    # the write itself is the only test that holds for every user, root too
    try:
        fd, tmp = _temp_file(directory)
    except OSError as exc:
        raise ValueError(
            f"output path {path!r}: cannot write in {directory!r} ({exc.strerror or exc})"
        ) from None
    os.close(fd)
    os.unlink(tmp)


def _order(cfg: ExperimentConfig, subcommand: str) -> FractionalParams:
    if cfg.s is None:
        raise ValueError(f"{subcommand} needs params.s")
    return FractionalParams(cfg.s, cfg.p)


def _sweep_csv(table: ConvergenceTable) -> str:
    return _csv("param,value,extrapolated,reference,rel_error", [
        (r.param, r.value, r.extrapolated, r.reference, r.rel_error) for r in table.rows
    ])


def _run_energy(cfg: ExperimentConfig) -> Outcome:
    rep = anisotropic_energy(cfg.make_kernel(), cfg.sample_u(), _order(cfg, "energy"))
    cols = ["s", "p", "value", "error_bound"]
    vals = [cfg.s, cfg.p, rep.value, rep.error_bound]
    if cfg.breakdown:
        cols += ["near_diagonal", "bulk", "tail"]
        vals += [rep.near_diagonal, rep.bulk, rep.tail]
    text = _csv(",".join(cols), [vals])
    # stdout echoes the report before the summary line
    return Outcome(text, "energy report", text + (
        f"energy s={cfg.s:g} p={cfg.p:g}: value={rep.value:.8g} "
        f"(error bound {rep.error_bound:.2g})"
    ))


def _run_sweep(cfg: ExperimentConfig, sweep, name: str) -> Outcome:
    table = sweep(cfg.make_kernel(), cfg.sample_u(), cfg.p, cfg.s_list)
    last = table.final
    return Outcome(_sweep_csv(table), "sweep table", (
        f"{name}: {len(table.rows)} rows, best={table.best_estimate():.8g} "
        f"reference={last.reference:.8g} rel_error={last.rel_error:.3g}"
    ))


def _solved(res, what: str) -> Outcome:
    buf = io.StringIO()
    write_csv(res.minimizer, buf)
    return Outcome(buf.getvalue(), "minimizer", (
        f"{what}: objective={res.objective:.8g} "
        f"residual={res.residual:.2g} iterations={res.iterations} "
        f"converged={res.converged}"
    ), res.converged)


def _run_solve_nonlocal(cfg: ExperimentConfig) -> Outcome:
    res = solve_nonlocal(NonlocalProblem(
        kern=cfg.make_kernel(), source=cfg.sample_f(), fp=_order(cfg, "solve-nonlocal"),
    ))
    return _solved(res, f"solve-nonlocal s={cfg.s:g} p={cfg.p:g}")


def _run_solve_local(cfg: ExperimentConfig) -> Outcome:
    res = solve_local(LocalProblem(
        density=LimitDensity(cfg.make_kernel(), cfg.p), source=cfg.sample_f(),
    ))
    return _solved(res, f"solve-local p={cfg.p:g}")


def _run_localize(cfg: ExperimentConfig) -> Outcome:
    table = localization_sweep(cfg.make_kernel(), cfg.p, cfg.sample_f(), cfg.s_list)
    return Outcome(_sweep_csv(table), "distance table", (
        f"localize: {len(table.rows)} rows, final distance={table.final.value:.8g} "
        f"converged={table.converged}"
    ), table.converged)


def _run_homogenize(cfg: ExperimentConfig) -> Outcome:
    eff = effective_coefficients(coefficient_from_kernel(cfg.make_kernel(), cfg.p))
    text = _csv("A_star_formula,A_star_oracle,A_bar,gap",
                [(eff.A_star_formula, eff.A_star, eff.A_bar, eff.gap)])
    return Outcome(text, "coefficients", (
        f"homogenize p={cfg.p:g}: A*={eff.A_star:.8g} "
        f"(formula {eff.A_star_formula:.8g}), "
        f"A_bar={eff.A_bar:.8g}, gap={eff.gap:.8g}"
    ))


def _run_commute(cfg: ExperimentConfig) -> Outcome:
    res = commute_experiment(cfg.make_kernel(), cfg.p, cfg.sample_f(), cfg.eps_list,
                             cfg.s_list)
    text = _csv("path,param,value", [
        *(("eps", e.param, e.value) for e in res.eps_path),
        *(("s", e.param, e.value) for e in res.s_path),
        ("summary", "distance", res.distance),
    ])
    return Outcome(text, "commute table", (
        f"commute p={cfg.p:g}: |u*-ubar|={res.distance:.8g} "
        f"gap={res.coefficients.gap:.8g} eps-path rel={res.eps_final_rel:.3g} "
        f"s-path rel={res.s_final_rel:.3g} converged={res.converged}"
    ), res.converged)


def _run_verify_kernel(cfg: ExperimentConfig) -> Outcome:
    kern = cfg.make_kernel()
    check_kernel_grid(kern, cfg.grid)
    rep = verify_hypotheses(kern, cfg.samples, seed=cfg.seed)
    text = _csv(
        "h1_violation,h2_violation,h3_slope,h3_residual,bounds_violation,passed",
        [(rep.h1_violation, rep.h2_violation, rep.h3_slope, rep.h3_residual,
          rep.bounds_violation, "1" if rep.passed else "0")],
    )
    verdict = "passes" if rep.passed else f"FAILS (witness {rep.witness})"
    return Outcome(text, "hypothesis report", (
        f"verify-kernel {kern.name}: {verdict} "
        f"[H1 {rep.h1_violation:.2g}, H2 {rep.h2_violation:.2g}, "
        f"H3 slope {rep.h3_slope:.3g} residual {rep.h3_residual:.2g}]"
    ))


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
    """Execute one experiment, write its table and summary; returns the exit status."""
    try:
        # overflow gives inf or nan without a warning; the result types
        # reject a value that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = _RUNNERS[subcommand](cfg)
    finally:
        # each experiment builds its own kernel, so its schemes (~20 MB of
        # base weights at 2D N=33, ~125 MB once a p != 2 solve assembled
        # the form matrix) can never be hit again
        get_scheme.cache_clear()
    if cfg.out_path:
        _atomic_write(cfg.out_path, outcome.csv)
        print(f"{outcome.what} -> {cfg.out_path}")
    print(outcome.summary)
    return EXIT_OK if outcome.converged else EXIT_NO_CONVERGENCE


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="anisofrac",
        description="anisotropic fractional energy laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", help="write the experiment's CSV to this file")
        sp.add_argument("--threads", type=int, default=None,
                        help="ignored; every experiment runs on one thread")
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
        if "table" in cfg.kernel_params:
            # a relative table path is relative to the config file
            cfg.kernel_params["table"] = os.path.join(
                os.path.dirname(args.config), cfg.kernel_params["table"]
            )
        cfg.out_path = args.out
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
    except OverflowError:
        print("error: the inputs overflow double precision", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
