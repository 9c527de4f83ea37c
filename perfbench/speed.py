"""Machine-speed probe: a fixed piece of work timed next to each experiment.

The host this benchmark was written on lends its CPUs to other tenants,
and the speed of the same code drifts by up to 2x within minutes (CPU
time follows wall time, so it is not waiting).  A run of half a minute
cannot average that out.  ``probe()`` times a fixed mix of the work the
package does -- interpreted Python, numpy calls on arrays of a 1D grid,
streaming over arrays larger than a core's caches, small dense matrix
products -- and never calls the package, so a change to the package
cannot move it.  ``run.py`` probes once before its first timed import
and again after each import and each experiment, and scales each
experiment's time by ``REF_S`` over the mean of the probes on either
side of it: a time "at reference speed", the speed at which one probe
takes ``REF_S`` seconds.  A probe is the median
of ``ROUNDS`` rounds of the work, so that a stall of a few milliseconds
that hits one round, and that a run of seconds would average out, does
not set the scale of a whole experiment.

On the 2-vCPU host, over 12-13 repeats of each experiment of the three
workloads, the probe's time correlated with the experiment's at 0.5-0.9,
and scaling cut the quartile spread of 9 of the 12 experiments (e.g. 0.20
to 0.10 on homogenize-p2, 0.29 to 0.11 on verify-kernel).

The arrays are allocated once, at import, so the probe adds a constant
32 MB to the process's peak resident memory and never raises it after.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.2  # a probe's time when the host is quiet (about 0.05 s per part)
ROUNDS = 3

_rng = np.random.default_rng(0)
_GRID = _rng.random(257)
_MAT = _rng.random((160, 160))
_BIG = _rng.random(2_000_000)  # 16 MB: beyond a core's own caches
_TMP = np.empty_like(_BIG)


def _round() -> float:
    """Seconds one round, a ROUNDS-th of the fixed work, takes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(480_000 // ROUNDS):
        acc += i * i % 7
    x = 0.0
    for _ in range(2500 // ROUNDS):
        y = np.sin(_GRID) * _GRID + 1.0
        x += float(np.diff(y) @ y[1:])
    for _ in range(6 // ROUNDS):
        np.multiply(_BIG, 1.5, out=_TMP)
        np.add(_TMP, 1.0, out=_TMP)
        x += float(_TMP.sum())
    for _ in range(180 // ROUNDS):
        x += float((_MAT @ _MAT)[0, 0])
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the fixed work takes now, from the median of its rounds."""
    return ROUNDS * statistics.median(_round() for _ in range(ROUNDS))
