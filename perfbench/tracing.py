"""Span recorder for the traced run, installed from the benchmark's side.

``Tracer.install()`` wraps the public functions and methods of the
package's layer modules in the running process, and the ``evaluate``
map of every kernel built by ``ExperimentConfig.make_kernel``.  The
package's source is not touched; ``uninstall()`` restores every
original.  Each call of a wrapped function records a span
``(id, parent id, name, start, end, info)`` in memory; ``info`` is a
count taken at the boundary (points evaluated, atoms built, solver
iterations, ...).  Spans carry the parent that was open on their thread
when they began; the items of ``_parallel.pmap`` are parented to the
pmap span explicitly, so work on worker threads nests correctly.

``layer_metrics`` turns one traced pass into the per-layer metrics.  A
layer's time counts only its outermost spans (a span inside another of
the same layer is not counted twice); its self time is that time minus
the part its child spans cover.  Names that the package no longer
defines simply report zero.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import sys
import threading
import time
import types
from pathlib import Path
from typing import Callable, Optional

PACKAGE = "anisofrac"
LAYER_MODULES = (
    "config", "kernel", "gridfn", "energy", "limits", "variational",
    "homogenize", "_accel", "_parallel", "_sphere",
)
KERNEL_EVAL = "kernel.Kernel.evaluate"
PMAP = "_parallel.pmap"
PMAP_ITEM = "_parallel.pmap.item"


def _size(out) -> int:
    return int(getattr(out, "size", 1))


def _atom_info(out) -> tuple[int, int]:
    arrays = [getattr(out, k, None) for k in ("W", "I", "C")]
    if any(a is None for a in arrays):
        return (0, 0)
    return (int(arrays[0].shape[0]), int(sum(a.nbytes for a in arrays)))


def _scatter_adds(args) -> int:
    atoms = args[0]
    W, I = getattr(atoms, "W", None), getattr(atoms, "I", None)
    if W is None or I is None:
        return 0
    width = I.shape[1] if I.ndim == 2 else 1
    return int(W.shape[0]) * width * width


# span name -> info(args, kwargs, result)
_INFO: dict[str, Callable] = {
    KERNEL_EVAL: lambda a, k, out: _size(out),
    "gridfn.GridFunction.eval": lambda a, k, out: _size(out),
    "energy.EnergyScheme.atoms": lambda a, k, out: _atom_info(out),
    "energy.AtomSet.hessian_dense": lambda a, k, out: _scatter_adds(a),
    "energy.AtomSet.reweighted_hessian": lambda a, k, out: _scatter_adds(a),
    "variational.solve_nonlocal": lambda a, k, out: int(getattr(out, "iterations", 0)),
    "variational.solve_local": lambda a, k, out: int(getattr(out, "iterations", 0)),
    "variational.minimize_descent": lambda a, k, out: int(out[3]),
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, parent: Optional[int] = None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        info_fn = _INFO.get(name)
        info = info_fn(args, kwargs, out) if info_fn else None
        self.spans.append((sid, parent, name, t0, t1, info))
        return out

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        wrapper.__traced__ = True
        return wrapper

    def _wrap_pmap(self, fn: Callable) -> Callable:
        from anisofrac._parallel import resolve_threads

        @functools.wraps(fn)
        def pmap(work, items, threads=None):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)

            def item(it):
                return self.call(PMAP_ITEM, work, (it,), {}, parent=sid)

            t0 = time.perf_counter()
            try:
                out = fn(item, items, threads)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            self.spans.append((sid, parent, PMAP, t0, t1, resolve_threads(threads)))
            return out

        pmap.__traced__ = True
        return pmap

    def _wrap_make_kernel(self, fn: Callable) -> Callable:
        traced = self._wrap("config.ExperimentConfig.make_kernel", fn)

        @functools.wraps(fn)
        def make_kernel(*args, **kwargs):
            kern = traced(*args, **kwargs)
            return dataclasses.replace(kern, evaluate=self._wrap(KERNEL_EVAL, kern.evaluate))

        make_kernel.__traced__ = True
        return make_kernel

    def _set(self, target, attr: str, value) -> None:
        self._restore.append((target, attr, inspect.getattr_static(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules.

        A function imported into other modules of the package (``cli``
        included) is replaced there by the same wrapper.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        layers = {f"{PACKAGE}.{m}" for m in LAYER_MODULES}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers: dict[int, Callable] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (isinstance(obj, types.FunctionType) and obj.__module__ in layers):
                    continue
                if obj.__name__.startswith("_") or getattr(obj, "__traced__", False):
                    continue
                name = f"{obj.__module__[len(PACKAGE) + 1:]}.{obj.__qualname__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = (
                        self._wrap_pmap(obj) if name == PMAP else self._wrap(name, obj)
                    )
                self._set(mod, attr, wrappers[id(obj)])
        for mod in modules:
            if mod.__name__ not in layers:
                continue
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    self._wrap_class(cls, f"{mod.__name__[len(PACKAGE) + 1:]}.{cls.__qualname__}")

    def _wrap_class(self, cls: type, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, types.FunctionType):
                if name == "config.ExperimentConfig.make_kernel":
                    self._set(cls, attr, self._wrap_make_kernel(obj))
                else:
                    self._set(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, (staticmethod, classmethod)):
                self._set(cls, attr, type(obj)(self._wrap(name, obj.__func__)))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)


def write_spans(path: Path, passes: list[list[tuple]]) -> None:
    """One JSON line per span: pass, id, parent, name, start, end, info."""
    with open(path, "w") as fh:
        for k, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps([k, *span]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# layer group -> span names
GROUPS = {
    "kernel.eval": {KERNEL_EVAL},
    "energy.scheme_build": {"energy.EnergyScheme.__init__"},
    "energy.report": {"energy.EnergyScheme.raw_components"},
    "energy.atoms": {"energy.EnergyScheme.atoms"},
    "gridfn.eval": {"gridfn.GridFunction.eval"},
    "limits.sweep": {"limits.bbm_sweep", "limits.ms_sweep"},
    "accel.hessian": {"energy.AtomSet.hessian_dense", "energy.AtomSet.reweighted_hessian"},
    "accel.gradient": {"energy.AtomSet.gradient"},
    "accel.objective": {"energy.AtomSet.objective", "energy.AtomSet.delta"},
    "variational.solve": {"variational.solve_nonlocal", "variational.solve_local"},
    "homogenize.cell": {"homogenize.cell_problem_1d"},
    "homogenize.commute": {"homogenize.commute_experiment"},
    "parallel.pmap": {PMAP},
    "descent": {"variational.minimize_descent"},
}

# metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "kernel.eval_points": "count",
    "kernel.eval_s": "s",
    "energy.scheme_build_s": "s",
    "energy.scheme_builds": "count",
    "energy.report_s": "s",
    "energy.report_self_s": "s",
    "energy.reports": "count",
    "energy.atoms_s": "s",
    "energy.atom_count": "count",
    "energy.atom_bytes": "bytes",
    "gridfn.eval_s": "s",
    "gridfn.eval_points": "count",
    "limits.sweep_s": "s",
    "limits.sweep_self_s": "s",
    "accel.hessian_s": "s",
    "accel.hessian_calls": "count",
    "accel.hessian_scatter_adds": "count",
    "accel.gradient_s": "s",
    "accel.objective_s": "s",
    "accel.pass_calls": "count",
    "variational.solve_s": "s",
    "variational.solve_self_s": "s",
    "variational.solves": "count",
    "variational.iterations": "count",
    "homogenize.cell_s": "s",
    "homogenize.cell_calls": "count",
    "homogenize.cell_iterations": "count",
    "homogenize.commute_s": "s",
    "parallel.pmap_s": "s",
    "parallel.items": "count",
    "parallel.busy_frac": "frac",
    "trace.overhead_s": "s",
    "trace.coverage_frac": "frac",
    "trace.spans": "count",
}


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _Pass:
    """Index over the spans of one traced pass."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[tuple]] = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def outermost(self, names: set[str]) -> list[tuple]:
        out = []
        for s in self.spans:
            if s[2] not in names:
                continue
            p = self.by_id.get(s[1])
            while p is not None and p[2] not in names:
                p = self.by_id.get(p[1])
            if p is None:
                out.append(s)
        return out

    def self_time(self, span: tuple) -> float:
        t0, t1 = span[3], span[4]
        kids = [(max(c[3], t0), min(c[4], t1)) for c in self.children.get(span[0], ())]
        return (t1 - t0) - _union([k for k in kids if k[1] > k[0]])


def layer_metrics(spans: list[tuple], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds.

    ``trace.overhead_s`` needs the untraced passes and is set by the caller.
    """
    ix = _Pass(spans)
    g = {name: ix.outermost(names) for name, names in GROUPS.items()}

    def total(group):
        return sum(s[4] - s[3] for s in g[group])

    def self_total(group):
        return sum(ix.self_time(s) for s in g[group])

    def info(group, k=None):
        vals = [s[5] for s in g[group] if s[5] is not None]
        return sum(v if k is None else v[k] for v in vals)

    pmaps = g["parallel.pmap"]
    items = [c for s in pmaps for c in ix.children.get(s[0], ()) if c[2] == PMAP_ITEM]
    capacity = sum((s[4] - s[3]) * s[5] for s in pmaps)
    top = [(s[3], s[4]) for s in spans if s[1] == 0]
    m = {
        "kernel.eval_points": info("kernel.eval"),
        "kernel.eval_s": total("kernel.eval"),
        "energy.scheme_build_s": total("energy.scheme_build"),
        "energy.scheme_builds": len(g["energy.scheme_build"]),
        "energy.report_s": total("energy.report"),
        "energy.report_self_s": self_total("energy.report"),
        "energy.reports": len(g["energy.report"]),
        "energy.atoms_s": total("energy.atoms"),
        "energy.atom_count": info("energy.atoms", 0),
        "energy.atom_bytes": info("energy.atoms", 1),
        "gridfn.eval_s": total("gridfn.eval"),
        "gridfn.eval_points": info("gridfn.eval"),
        "limits.sweep_s": total("limits.sweep"),
        "limits.sweep_self_s": self_total("limits.sweep"),
        "accel.hessian_s": total("accel.hessian"),
        "accel.hessian_calls": len(g["accel.hessian"]),
        "accel.hessian_scatter_adds": info("accel.hessian"),
        "accel.gradient_s": total("accel.gradient"),
        "accel.objective_s": total("accel.objective"),
        "accel.pass_calls": len(g["accel.gradient"]) + len(g["accel.objective"]),
        "variational.solve_s": total("variational.solve"),
        "variational.solve_self_s": self_total("variational.solve"),
        "variational.solves": len(g["variational.solve"]),
        "variational.iterations": info("variational.solve"),
        "homogenize.cell_s": total("homogenize.cell"),
        "homogenize.cell_calls": len(g["homogenize.cell"]),
        "homogenize.cell_iterations": info("descent"),
        "homogenize.commute_s": total("homogenize.commute"),
        "parallel.pmap_s": total("parallel.pmap"),
        "parallel.items": len(items),
        "parallel.busy_frac": sum(c[4] - c[3] for c in items) / capacity if capacity else 0.0,
        "trace.overhead_s": 0.0,
        "trace.coverage_frac": _union(top) / wall_s if wall_s > 0 else 0.0,
        "trace.spans": len(spans),
    }
    return m


COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u in ("count", "bytes"))
