"""Workload generator: seed -> INI configs and the experiment list.

Each workload is a fixed list of CLI experiments.  The seed varies only
inputs that keep the amount of work the same, so runs with different
seeds are comparable:

* energy-2d      separable-angular kernel (c0, c1) and the bump centre;
* solve-2d       a common scale of the kernel and the source amplitude;
                 the minimizers then follow from the recorded reference
                 by exact homogeneity, which is what the checks use;
* homogenize-1d  the source amplitude.  The kernel stays at the
                 canonical A0=2, A1=1: the Barzilai-Borwein iteration
                 count of the cell problem jumps by up to 45% between
                 nearby (A0, A1), which would swamp the timing.

Seed 0 gives the canonical parameters (periodic-1d A0=2, A1=1;
separable-angular c0=1, c1=0.5; unit scale and amplitude).  Grid sizes,
s lists and experiment lists depend only on the size ("full" or the
"tiny" size of the self-test), never on the seed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

SIZES = ("full", "tiny")

BBM_S = (0.75, 0.875, 0.9375, 0.96875, 0.984375, 0.9921875)
MS_S = (0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125)
EPS = (0.25, 0.125, 0.0625)

# grid sizes and lists per size
_DIMS = {
    "full": {
        "e2": 33, "s2": (33, 44), "l2": 33, "n1": 257,
        "bbm": BBM_S, "ms": MS_S, "loc_s": BBM_S, "eps": EPS,
    },
    "tiny": {
        "e2": 9, "s2": (9, 11), "l2": 9, "n1": 33,
        "bbm": BBM_S[:3], "ms": MS_S[:3], "loc_s": BBM_S[:3], "eps": EPS[:1],
    },
}

# fixed shape of the solve-2d source; the seed scales its amplitude
SOURCE_2D = "bump(0.25, -0.15, 0.6)"


@dataclass(frozen=True)
class Experiment:
    """One CLI run: ``anisofrac <subcommand> --config <name>.ini ...``."""

    name: str
    subcommand: str
    config: str
    check: Callable[[Path], list[str]]
    extra: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    params: dict
    experiments: tuple[Experiment, ...]

    def write(self, directory: Path) -> None:
        """Write every experiment's config under ``directory``."""
        directory.mkdir(parents=True, exist_ok=True)
        for exp in self.experiments:
            (directory / f"{exp.name}.ini").write_text(exp.config)

    def argv(self, exp: Experiment, directory: Path) -> list[str]:
        return [
            exp.subcommand,
            "--config", str(directory / f"{exp.name}.ini"),
            "--out", str(directory / f"{exp.name}.csv"),
            "--threads", str(self.threads),
            *exp.extra,
        ]


def _ini(kernel: dict, n: int, N: int, params: dict) -> str:
    box = "-1:1" if n == 1 else "-1:1;-1:1"
    lines = ["[kernel]"]
    lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
              for k, v in kernel.items()]
    lines += ["", "[grid]", f"n = {n}", f"box = {box}", f"N = {N}", "", "[params]"]
    for k, v in params.items():
        if isinstance(v, (tuple, list)):
            v = ", ".join(repr(float(x)) for x in v)
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{k} = {v}")
    return "\n".join(lines) + "\n"


def _draw(rng: random.Random, seed: int, lo: float, hi: float, canonical: float) -> float:
    """Uniform draw in [lo, hi]; the canonical value for seed 0."""
    x = rng.uniform(lo, hi)
    return canonical if seed == 0 else x


def energy_2d(seed: int, size: str) -> Workload:
    d = _DIMS[size]
    rng = random.Random(f"energy-2d:{seed}")
    c0 = _draw(rng, seed, 0.8, 1.25, 1.0)
    c1 = _draw(rng, seed, 0.25, 0.75, 0.5)
    cx = _draw(rng, seed, -0.15, 0.15, 0.0)
    cy = _draw(rng, seed, -0.15, 0.15, 0.0)
    r = 1.0 if seed == 0 else 0.8
    kern = {"name": "separable-angular", "c0": c0, "c1": c1}
    u = f"bump({cx!r}, {cy!r}, {r!r})"
    N = d["e2"]
    exps = (
        Experiment("energy", "energy",
                   _ini(kern, 2, N, {"p": 2.0, "s": 0.5, "u": u}),
                   checks.energy_breakdown, ("--breakdown",)),
        Experiment("bbm-sweep", "bbm-sweep",
                   _ini(kern, 2, N, {"p": 2.0, "s_list": d["bbm"], "u": u}),
                   functools.partial(checks.sweep, tol=checks.SWEEP_TOL[size]["bbm"],
                                     rows=len(d["bbm"]))),
        Experiment("ms-sweep", "ms-sweep",
                   _ini(kern, 2, N, {"p": 2.0, "s_list": d["ms"], "u": u}),
                   functools.partial(checks.sweep, tol=checks.SWEEP_TOL[size]["ms"],
                                     rows=len(d["ms"]))),
        Experiment("verify-kernel", "verify-kernel",
                   _ini(kern, 2, N, {"samples": 256, "seed": seed}),
                   checks.kernel_passed),
    )
    return Workload("energy-2d", 1, {"c0": c0, "c1": c1, "u": u}, exps)


def solve_2d(seed: int, size: str) -> Workload:
    d = _DIMS[size]
    rng = random.Random(f"solve-2d:{seed}")
    lam = _draw(rng, seed, 0.8, 1.25, 1.0)
    amp = _draw(rng, seed, 0.8, 1.25, 1.0)
    k2 = {"name": "separable-angular", "c0": lam, "c1": 0.5 * lam}
    k1 = {"name": "periodic-1d", "A0": 2.0 * lam, "A1": lam}
    f2 = f"{amp!r}*{SOURCE_2D}"
    f1 = f"const({amp!r})"

    def solve(name: str, subcommand: str, kern: dict, n: int, N: int, params: dict):
        ref = checks.reference_path(size, name)
        return Experiment(name, subcommand, _ini(kern, n, N, params),
                          functools.partial(checks.minimizer, ref=ref,
                                            scale=amp / lam, p=params["p"]))

    exps = [solve(f"nonlocal-2d-N{N}", "solve-nonlocal", k2, 2, N,
                  {"p": 2.0, "s": 0.5, "f": f2}) for N in d["s2"]]
    exps.append(solve(f"local-2d-N{d['l2']}", "solve-local", k2, 2, d["l2"],
                      {"p": 2.0, "f": f2}))
    exps.append(solve(f"nonlocal-1d-p3-N{d['n1']}", "solve-nonlocal", k1, 1, d["n1"],
                      {"p": 3.0, "s": 0.5, "f": f1}))
    return Workload("solve-2d", 1, {"scale": lam, "amplitude": amp}, tuple(exps))


def homogenize_1d(seed: int, size: str) -> Workload:
    d = _DIMS[size]
    rng = random.Random(f"homogenize-1d:{seed}")
    amp = _draw(rng, seed, 0.8, 1.25, 1.0)
    A0, A1 = 2.0, 1.0
    kern = {"name": "periodic-1d", "A0": A0, "A1": A1}
    N = d["n1"]
    f = f"const({amp!r})"
    exps = (
        Experiment("homogenize-p2", "homogenize",
                   _ini(kern, 1, N, {"p": 2.0}),
                   functools.partial(checks.homogenized, A0=A0, A1=A1, p=2.0)),
        Experiment("homogenize-p3", "homogenize",
                   _ini(kern, 1, N, {"p": 3.0}),
                   functools.partial(checks.homogenized, A0=A0, A1=A1, p=3.0)),
        Experiment("localize", "localize",
                   _ini(kern, 1, N, {"p": 2.0, "s_list": d["loc_s"], "f": f}),
                   functools.partial(checks.localization, rows=len(d["loc_s"]))),
        Experiment("commute", "commute",
                   _ini(kern, 1, N, {"p": 2.0, "s_list": d["loc_s"],
                                     "eps_list": d["eps"], "f": f}),
                   functools.partial(checks.commute, A0=A0, A1=A1, amplitude=amp,
                                     n_eps=len(d["eps"]), n_s=len(d["loc_s"]))),
    )
    return Workload("homogenize-1d", 2, {"A0": A0, "A1": A1, "amplitude": amp}, exps)


WORKLOADS = {"energy-2d": energy_2d, "solve-2d": solve_2d, "homogenize-1d": homogenize_1d}


def make(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    return WORKLOADS[name](seed, size)
