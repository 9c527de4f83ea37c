#!/usr/bin/env python3
"""Benchmark of the anisofrac CLI: one workload per run, closed loop.

    python3 perfbench/run.py --workload energy-2d --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; nothing needs building.  The
process is the workload's only client.  It generates the INI configs
of the workload from ``--seed`` (see ``workloads.py``), imports
``anisofrac.cli`` once, then runs the workload's experiment list through
``anisofrac.cli.main(argv)`` again and again, one pass after the other,
for about ``--seconds`` seconds (at least one pass; a pass is not
started when the previous one says it would not finish in time).  After
each pass every output CSV is checked (``checks.py``).

End-to-end metrics (``--trace 0``):

    wall_s       median wall time of one pass of the experiment list,
                 at reference speed
    setup_s      median time to import anisofrac.cli, taken in
                 SETUP_PROBES fresh interpreter processes, at reference
                 speed
    peak_rss_mb  peak resident memory of this process (ru_maxrss)

"At reference speed": the speed of the host is probed before and after
each experiment and each import (``speed.py``).  Each experiment's time
is scaled by ``speed.REF_S`` over the mean of the two probes around it,
so that the drift of a shared host's speed cancels.  An import's time
correlates with its neighbouring probes only weakly (0.36 in 24 imports)
but follows the drift over minutes, so the median import time is scaled
by ``speed.REF_S`` over the median of all probes of the run.  The raw
times go to the record.

With ``--trace 1`` an untraced warm-up pass is followed by traced and
untraced passes in turn (at least one of each), and the per-layer
metrics of ``tracing.py`` are reported; ``trace.overhead_s`` is the
median traced pass minus the median untraced pass after the warm-up,
both at reference speed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An experiment
fails when it exits nonzero, raises, or its output fails its check;
``failed / attempted`` is the failed-operations fraction, also printed
on the summary line.  The full record (machine facts, per-pass times,
failures, per-seed iteration counts) goes to
``perfbench/out/<workload>-s<seed>-t<trace>/record.json`` and the spans
of traced passes to ``spans.jsonl`` next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# pin BLAS before numpy loads (speed.py imports it)
os.environ.update(BLAS_PIN)
import speed  # noqa: E402
SETUP_PROBES = 3
PROBE = (
    "import time; t = time.perf_counter(); import anisofrac.cli; "
    "print(time.perf_counter() - t)"
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    name: str
    seconds: float
    exit_code: int | None
    problems: list[str] = field(default_factory=list)
    scale: float = 1.0  # speed.REF_S over the mean probe around the experiment

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def run_experiment(cli, argv: list[str]) -> tuple[float, int | None, list[str]]:
    """Run one CLI experiment; returns (seconds, exit code, problems)."""
    sink = io.StringIO()
    problems = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is a failed experiment
        code = None
        problems.append(traceback.format_exc(limit=3))
    seconds = time.perf_counter() - t0
    if code not in (0, None):
        problems.append(f"exit {code}: {sink.getvalue().strip()[-300:]}")
    return seconds, code, problems


def check_outputs(workload, directory: Path, outcomes: list[Outcome]) -> None:
    """Add each experiment's check results to its outcome."""
    for exp, outcome in zip(workload.experiments, outcomes):
        if outcome.exit_code != 0:
            continue
        try:
            outcome.problems += exp.check(directory / f"{exp.name}.csv")
        except (OSError, ValueError, KeyError) as exc:
            outcome.problems.append(f"unreadable output: {exc!r}")


def run_pass(cli, workload, directory: Path, probes: list[float]) -> list[Outcome]:
    """One pass of the experiment list; returns the outcomes.

    ``probes`` ends with a speed probe taken just before the pass; one
    more is appended after each experiment.  Old outputs are removed
    first, so a stale file can never pass a check.  Checks run after the
    timed experiments.
    """
    outcomes = []
    for exp in workload.experiments:
        (directory / f"{exp.name}.csv").unlink(missing_ok=True)
        seconds, code, problems = run_experiment(cli, workload.argv(exp, directory))
        probes.append(speed.probe())
        scale = speed.REF_S / (0.5 * (probes[-2] + probes[-1]))
        outcomes.append(Outcome(exp.name, seconds, code, problems, scale))
    check_outputs(workload, directory, outcomes)
    return outcomes


def pass_walls(outcomes: list[Outcome]) -> tuple[float, float]:
    """(raw, reference-speed) wall time of one pass."""
    return sum(o.seconds for o in outcomes), sum(o.seconds * o.scale for o in outcomes)


def setup_times(env: dict, probes: list[float]) -> list[float]:
    """Import time of anisofrac.cli in fresh interpreter processes.

    A speed probe is appended to ``probes`` after each import.
    """
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        probes.append(speed.probe())
    return times


def _last_level_cache() -> str:
    """Size of the highest cache level of CPU 0, as sysfs reports it."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "blas_pin": BLAS_PIN,
        "threads": threads,
    }


def _metrics(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", help="full, or tiny for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "anisofrac" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'anisofrac'}", file=sys.stderr)
        return 2
    import workloads

    try:
        workload = workloads.make(args.workload, args.seed, args.size)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # nested pmap calls default to one thread
    os.environ.pop("ANISOFRAC_THREADS", None)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    directory = OUT / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(directory, ignore_errors=True)
    workload.write(directory)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import anisofrac.cli as cli
    import_in_process = time.perf_counter() - t0
    probes = [speed.probe()]
    setups = setup_times(env, probes)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    # traced runs: one untraced warm-up pass, then traced and untraced
    # passes alternate, so the overhead compares passes equally warm
    min_passes = 3 if tracer else 1
    # walls and warmup hold (raw, reference-speed) pairs; traced adds the spans
    walls, traced, outcomes, warmup = [], [], [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(outcomes) % 2 == 1
        pass_start = time.perf_counter()
        if trace_this:
            tracer.install()
        try:
            passed = run_pass(cli, workload, directory, probes)
        finally:
            if trace_this:
                tracer.uninstall()
        wall = pass_walls(passed)
        if trace_this:
            traced.append((*wall, tracer.take()))
        elif tracer is not None and not outcomes:
            warmup.append(wall)
        else:
            walls.append(wall)
        outcomes.append(passed)
        now = time.perf_counter()
        if len(outcomes) >= min_passes and now - start + (now - pass_start) > args.seconds:
            break

    flat = [o for passed in outcomes for o in passed]
    failed = sum(o.failed for o in flat)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "params": workload.params,
        "machine": machine_facts(workload.threads),
        "speed_ref_s": speed.REF_S,
        "speed_probes_s": probes,
        "setup_samples_s": setups,
        "import_in_process_s": import_in_process,
        "warmup_pass_wall_s": [w for w, _ in warmup],
        "pass_walls_s": [w for w, _ in walls],
        "pass_walls_ref_s": [w for _, w in walls],
        "traced_pass_walls_s": [w for w, _, _ in traced],
        "traced_pass_walls_ref_s": [w for _, w, _ in traced],
        "experiments": [[{"name": o.name, "seconds": o.seconds, "scale": o.scale,
                          "exit": o.exit_code} for o in passed] for passed in outcomes],
        "failures": [{"name": o.name, "exit": o.exit_code, "problems": o.problems}
                     for o in flat if o.failed],
    }
    if args.trace:
        per_pass = [tracing.layer_metrics(spans, wall) for wall, _, spans in traced]
        layer = {k: statistics.median(m[k] for m in per_pass) for k in tracing.PER_LAYER_UNITS}
        for k in tracing.COUNT_METRICS:
            layer[k] = per_pass[0][k]
        layer["trace.overhead_s"] = (
            statistics.median(w for _, w, _ in traced) - statistics.median(w for _, w in walls)
        )
        record["counts_repeat_within_run"] = all(
            m[k] == per_pass[0][k] for m in per_pass for k in tracing.COUNT_METRICS
        )
        record["per_layer"] = layer
        tracing.write_spans(directory / "spans.jsonl", [s for _, _, s in traced])
        metrics = _metrics(layer, tracing.PER_LAYER_UNITS)
    else:
        values = {
            "wall_s": statistics.median(w for _, w in walls),
            "setup_s": statistics.median(setups) * speed.REF_S / statistics.median(probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["end_to_end"] = values
        metrics = _metrics(values, END_TO_END_UNITS)
    (directory / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    for f in record["failures"]:
        print(f"FAILED {f['name']}: {' | '.join(f['problems'])}")
    print(
        f"{workload.name} seed={args.seed} size={args.size} trace={args.trace}: "
        f"{len(walls)} untraced + {len(traced)} traced + {len(warmup)} warm-up passes, "
        f"failed_ops_frac={failed / len(flat):.6g} ({failed}/{len(flat)}) [1]"
    )
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(flat),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
