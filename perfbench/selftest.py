#!/usr/bin/env python3
"""Self-test of the benchmark at the tiny size (about three minutes).

    python3 perfbench/selftest.py

* Every workload, untraced and traced, prints exactly the metrics that
  BENCHMARK.json names, with their units, and passes its checks.
* Two traced runs of one seed report identical per-layer counts (on
  homogenize-1d this can fail because of a cache race in the package;
  see README.md).
* A corrupted output CSV is counted as a failed experiment.
* Without the package source the benchmark exits nonzero and prints no
  result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

SEED = 3
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"], run.ROOT)
    _expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
            f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _expect(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
    _expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{workload} trace={trace} failed checks:\n{proc.stdout}")
    return result


def test_metrics_emitted() -> dict:
    """Returns the traced metrics per workload, for the repeat test."""
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    _expect(sorted(names) == sorted(workloads.WORKLOADS), f"workloads {names}")
    traced = {}
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            metrics = _result(name, trace)["metrics"]
            got = {k: v["unit"] for k, v in metrics.items()}
            _expect(got == want, f"{name} trace={trace}: metrics {got} != {want}")
            _expect(all(isinstance(v["value"], (int, float)) for v in metrics.values()),
                    "non-numeric value")
        traced[name] = metrics
        print(f"ok metrics {name}")
    return traced


def test_counts_repeat(traced: dict) -> None:
    """A second traced run of the same seed gives the same counts.

    With --threads > 1 this can fail: two pmap workers may both miss the
    get_scheme cache and build the same scheme (see README.md).
    """
    differ = {}
    for name, first in traced.items():
        again = _result(name, 1)["metrics"]
        for k in tracing.COUNT_METRICS:
            if again[k]["value"] != first[k]["value"]:
                differ[f"{name}/{k}"] = (first[k]["value"], again[k]["value"])
        print(f"{'ok' if not differ else 'checked'} counts {name}")
    _expect(not differ, f"counts differ between traced runs of one seed: {differ}")


def _set_cell(column: str, change) -> callable:
    """Corruption of a one-row CSV: ``change`` the float in ``column``."""
    def corrupt(text: str) -> str:
        header, row = text.splitlines()
        cells = row.split(",")
        k = header.split(",").index(column)
        cells[k] = repr(change(float(cells[k])))
        return f"{header}\n{','.join(cells)}\n"
    return corrupt


def _nudge_node(text: str) -> str:
    lines = text.splitlines()
    mid = len(lines) // 2
    lines[mid] = repr(float(lines[mid]) * (1.0 + 1e-6))
    return "\n".join(lines) + "\n"


# (workload, experiment, corruption of its CSV text)
CORRUPTIONS = (
    ("energy-2d", "energy", _set_cell("value", lambda v: v * (1.0 + 1e-12))),
    ("energy-2d", "verify-kernel", _set_cell("passed", lambda v: 0)),
    ("solve-2d", "nonlocal-2d-N9", _nudge_node),
    ("homogenize-1d", "homogenize-p2", _set_cell("A_star_oracle", lambda v: 1.8)),
)


def test_corrupted_output_counts_as_failed() -> None:
    sys.path.insert(0, str(run.SRC))
    import anisofrac.cli as cli

    for name in sorted({c[0] for c in CORRUPTIONS}):
        workload = workloads.make(name, SEED, "tiny")
        directory = run.OUT / "selftest" / name
        workload.write(directory)
        outcomes = run.run_pass(cli, workload, directory, [run.speed.probe()])
        _expect(not any(o.failed for o in outcomes), f"{name}: clean pass failed")
        for _, exp, corrupt in (c for c in CORRUPTIONS if c[0] == name):
            path = directory / f"{exp}.csv"
            clean = path.read_text()
            path.write_text(corrupt(clean))
            fresh = [run.Outcome(o.name, o.seconds, o.exit_code) for o in outcomes]
            run.check_outputs(workload, directory, fresh)
            path.write_text(clean)
            failed = [o.name for o in fresh if o.failed]
            _expect(failed == [exp], f"corrupted {exp}: failed experiments {failed}")
            print(f"ok corrupted {name}/{exp} counted as failed")


def test_fails_without_package() -> None:
    bare = run.OUT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(["--workload", "energy-2d", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], bare)
    shutil.rmtree(bare)
    _expect(proc.returncode != 0, "benchmark succeeded without the package")
    _expect("correct" not in proc.stdout, "benchmark printed a result without the package")
    print("ok no package -> exit", proc.returncode)


def main() -> int:
    os.environ.update(run.BLAS_PIN)
    test_fails_without_package()
    test_corrupted_output_counts_as_failed()
    test_counts_repeat(test_metrics_emitted())
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
