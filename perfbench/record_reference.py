#!/usr/bin/env python3
"""Record the reference minimizers that the solve-2d checks compare with.

    python3 perfbench/record_reference.py [--size full|tiny]

Runs the solve-2d experiments at the canonical seed 0 and copies each
minimizer CSV to ``perfbench/reference/<size>/``.  Other seeds are
checked against these files scaled by homogeneity (``checks.minimizer``),
so rerun this only when a change is meant to move the minimizers.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--size", choices=workloads.SIZES, default=None,
                    help="one size (default: every size)")
    args = ap.parse_args()
    os.environ.update(run.BLAS_PIN)
    sys.path.insert(0, str(run.SRC))
    import anisofrac.cli as cli

    for size in [args.size] if args.size else workloads.SIZES:
        workload = workloads.make("solve-2d", 0, size)
        directory = run.OUT / f"reference-{size}"
        workload.write(directory)
        _, outcomes = run.run_pass(cli, workload, directory)
        for exp, outcome in zip(workload.experiments, outcomes):
            if outcome.exit_code != 0:
                print(f"{exp.name} failed: {outcome.problems}", file=sys.stderr)
                return 1
            dest = checks.reference_path(size, exp.name)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(directory / f"{exp.name}.csv", dest)
            print(f"{exp.name} -> {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
