"""Experiment configuration: strict INI-style files plus a tiny
expression grammar for grid functions.

Sections are ``[kernel]``, ``[grid]`` and ``[params]``; the output
path is not part of the document (the CLI takes it from ``--out``).
Unknown sections or keys are errors (silent typos corrupt experiments),
and validation collects *every* problem with its line number before
reporting.  The number keys of ``[params]`` must be finite and lie in
range: ``s`` and each ``s_list`` entry in (0, 1), ``p >= 1``, each
``eps_list`` entry > 0, integers ``seed >= 0`` and ``samples >= 1``.
Grid functions are written in a fixed grammar::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | 'x' | 'y' | 'pi' | '-' factor | '(' expr ')'
            | 'const' '(' expr ')' | 'sin' '(' expr ')'
            | 'cos' '(' expr ')' | 'bump' '(' args ')'

``bump(c, r)`` (1D) and ``bump(cx, cy, r)`` (2D) are the smooth bumps
exp(-1/(1 - t^2)) with t the scaled distance to the center, cut to zero
at |t| >= 1.  A bare NUMBER is a constant function, like ``const``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .gridfn import Grid, GridFunction, parse_box
from .kernel import BUILTIN_NAMES, builtin, builtin_param_names

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "compile_expression"]


class ConfigError(ValueError):
    """All validation problems of a config document, with line numbers
    (line 0: a missing key, printed without one)."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = sorted(errors)
        lines = "\n".join(
            f"  line {ln}: {msg}" if ln else f"  {msg}" for ln, msg in self.errors
        )
        super().__init__(f"invalid config:\n{lines}")


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[()+\-*,]))"
)


def _tokenize(src: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ValueError(f"bad character {src[pos]!r} in expression")
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                out.append((kind, m.group(kind)))
                break
    out.append(("end", ""))
    return out


class _Parser:
    def __init__(self, tokens, dimension):
        self.toks = tokens
        self.i = 0
        self.dimension = dimension

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        k, v = self.toks[self.i]
        if (kind and k != kind) or (value and v != value):
            raise ValueError(f"unexpected {v!r} in expression")
        self.i += 1
        return v

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing {self.peek()[1]!r} in expression")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take("op")
            rhs = self.term()
            lhs = node
            node = (
                (lambda e, a=lhs, b=rhs: a(e) + b(e))
                if op == "+"
                else (lambda e, a=lhs, b=rhs: a(e) - b(e))
            )
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*"):
            self.take("op")
            rhs = self.factor()
            lhs = node
            node = lambda e, a=lhs, b=rhs: a(e) * b(e)
        return node

    def factor(self):
        kind, val = self.peek()
        if kind == "num":
            self.take()
            c = float(val)
            return lambda e, c=c: c
        if (kind, val) == ("op", "-"):
            self.take()
            inner = self.factor()
            return lambda e, f=inner: -f(e)
        if (kind, val) == ("op", "("):
            self.take()
            inner = self.expr()
            self.take("op", ")")
            return inner
        if kind == "name":
            self.take()
            if val == "x":
                return lambda e: e["x"]
            if val == "y":
                if self.dimension < 2:
                    raise ValueError("'y' needs a 2D grid")
                return lambda e: e["y"]
            if val == "pi":
                return lambda e: np.pi
            if val in ("const", "sin", "cos", "bump"):
                self.take("op", "(")
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.take()
                    args.append(self.expr())
                self.take("op", ")")
                return self._call(val, args)
            raise ValueError(f"unknown name {val!r} in expression")
        raise ValueError(f"unexpected {val!r} in expression")

    def _call(self, name, args):
        if name == "const":
            if len(args) != 1:
                raise ValueError("const takes one argument")
            a = args[0]
            return lambda e, a=a: a(e) * np.ones_like(e["x"])
        if name in ("sin", "cos"):
            if len(args) != 1:
                raise ValueError(f"{name} takes one argument")
            fn = np.sin if name == "sin" else np.cos
            a = args[0]
            return lambda e, a=a, fn=fn: fn(a(e))
        # bump
        want = self.dimension + 1
        if len(args) != want:
            raise ValueError(
                f"bump takes {want} arguments in {self.dimension}D (center..., radius)"
            )
        if self.dimension == 1:
            c, r = args
            def bump1(e, c=c, r=r):
                t = (e["x"] - c(e)) / r(e)
                out = np.zeros_like(t)
                inside = np.abs(t) < 1.0
                out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
                return out
            return bump1
        cx, cy, r = args
        def bump2(e, cx=cx, cy=cy, r=r):
            t2 = ((e["x"] - cx(e)) ** 2 + (e["y"] - cy(e)) ** 2) / r(e) ** 2
            out = np.zeros_like(t2)
            inside = t2 < 1.0
            out[inside] = np.exp(-1.0 / (1.0 - t2[inside]))
            return out
        return bump2


def compile_expression(src: str, dimension: int) -> Callable[..., np.ndarray]:
    """Compile an expression to a sampler fn(*coords) -> array.

    ``coords`` holds one coordinate array per axis: x, then y in 2D.  The
    result has the coordinates' broadcast shape, so a bare number is a
    constant function.  Overflow and invalid operations give inf and nan
    without a warning; :class:`~anisofrac.gridfn.GridFunction` rejects them.
    """
    ast = _Parser(_tokenize(src), dimension).parse()

    def sample(*coords):
        env = {name: np.asarray(c, dtype=float) for name, c in zip("xy", coords)}
        with np.errstate(all="ignore"):
            out = np.asarray(ast(env), dtype=float)
        shape = np.broadcast_shapes(*(c.shape for c in env.values()))
        return np.array(np.broadcast_to(out, shape))

    return sample


# ---------------------------------------------------------------------------
# config document
# ---------------------------------------------------------------------------

_SECTIONS = ("kernel", "grid", "params")


@dataclass
class ExperimentConfig:
    """Validated experiment description (kernel, grid, parameters)."""

    kernel_name: str
    kernel_params: dict
    grid: Grid
    p: float = 2.0
    s: Optional[float] = None
    s_list: Optional[list[float]] = None
    u_expr: str = ""
    f_expr: str = "const(1)"
    eps_list: list[float] = field(default_factory=lambda: [0.25, 0.125, 0.0625])
    seed: int = 0
    samples: int = 256
    # no config keys: set by the CLI's --out and --breakdown
    out_path: Optional[str] = None
    breakdown: bool = False

    def make_kernel(self):
        return builtin(self.kernel_name, self.kernel_params)

    def sample_u(self):
        return self._sample(self.u_expr, boundary_flag=True)

    def sample_f(self):
        return self._sample(self.f_expr, boundary_flag=False)

    def _sample(self, expr: str, boundary_flag: bool):
        fn = compile_expression(expr, self.grid.dimension)
        return GridFunction.from_callable(self.grid, fn, boundary_flag)


def _parse_lines(text: str, errors):
    """Raw (section, key) -> (value, line) mapping with strict structure."""
    table: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                errors.append((ln, f"unknown section [{section}]"))
                section = None
            continue
        if "=" not in line:
            errors.append((ln, f"expected 'key = value', got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split(" #", 1)[0].split(" ;", 1)[0].strip()
        if section is None:
            errors.append((ln, f"key {key!r} outside any known section"))
            continue
        if (section, key) in table:
            errors.append((ln, f"duplicate key {key!r} in [{section}]"))
            continue
        table[(section, key)] = (value, ln)
    return table


def _take(table, section, key):
    return table.pop((section, key), (None, -1))


def _to_float(value, ln, key, errors):
    try:
        v = float(value)
    except ValueError:
        errors.append((ln, f"{key} must be a number, got {value!r}"))
        return None
    if not math.isfinite(v):
        errors.append((ln, f"{key} must be finite, got {value!r}"))
        return None
    return v


def _to_int(value, ln, key, errors):
    try:
        return int(value)
    except ValueError:
        errors.append((ln, f"{key} must be an integer, got {value!r}"))
        return None


def _to_float_list(value, ln, key, errors):
    try:
        values = [float(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        errors.append((ln, f"{key} must be a comma-separated number list"))
        return None
    if not values:
        errors.append((ln, f"{key} must list at least one number"))
        return None
    if not all(math.isfinite(v) for v in values):
        errors.append((ln, f"{key} entries must be finite, got {value!r}"))
        return None
    return values


# every number key of [params]: (key, converter, admissible, message); the
# key is also the ExperimentConfig field it sets
_PARAM_NUMBERS = (
    ("s", _to_float, lambda v: 0.0 < v < 1.0, "s must lie in (0,1)"),
    ("s_list", _to_float_list, lambda v: all(0.0 < s < 1.0 for s in v),
     "s_list entries must lie in (0,1)"),
    ("p", _to_float, lambda v: v >= 1.0, "p must be >= 1"),
    ("eps_list", _to_float_list, lambda v: all(e > 0.0 for e in v),
     "eps_list entries must be positive"),
    ("seed", _to_int, lambda v: v >= 0, "seed must be >= 0"),
    ("samples", _to_int, lambda v: v >= 1, "samples must be >= 1"),
)


def parse_config(text: str) -> ExperimentConfig:
    """Validate a config document; raises :class:`ConfigError` with every
    problem found, not just the first."""
    errors: list[tuple[int, str]] = []
    table = _parse_lines(text, errors)

    # kernel
    name, ln_name = _take(table, "kernel", "name")
    kernel_params: dict = {}
    if name is None:
        errors.append((0, "missing kernel.name"))
        name = "constant"
    elif name not in BUILTIN_NAMES:
        errors.append((ln_name, f"unknown kernel {name!r}; choose from {BUILTIN_NAMES}"))
        name = "constant"
    allowed = builtin_param_names(name)
    for (section, key) in [k for k in table if k[0] == "kernel"]:
        value, ln = table.pop((section, key))
        if key not in allowed:
            errors.append((ln, f"kernel {name!r} does not accept parameter {key!r}"))
            continue
        if key == "table":
            v = value
        elif key == "n":
            v = _to_int(value, ln, "kernel.n", errors)
        else:
            v = _to_float(value, ln, f"kernel.{key}", errors)
        if v is not None:
            kernel_params[key] = v

    # grid: built only when its keys added no error
    grid_errors = len(errors)
    n_val, ln = _take(table, "grid", "n")
    n = _to_int(n_val, ln, "grid.n", errors) if n_val is not None else 1
    if n is not None and n not in (1, 2):
        errors.append((ln, "grid.n must be 1 or 2"))
        n = 1
    box_val, ln_box = _take(table, "grid", "box")
    box = ((-1.0, 1.0),) * (n or 1)
    if box_val is not None:
        try:
            box = parse_box(box_val)
        except ValueError:
            errors.append((ln_box, f"grid.box must look like 'a:b[;a:b]', got {box_val!r}"))
    if len(box) != (n or 1):
        errors.append((ln_box, f"grid.box lists {len(box)} axes but n = {n}"))
        box = ((-1.0, 1.0),) * (n or 1)
    N_val, ln_N = _take(table, "grid", "N")
    N = _to_int(N_val, ln_N, "grid.N", errors) if N_val is not None else 129
    if N is not None and N < 3:
        errors.append((ln_N, "grid.N must be >= 3"))
        N = 3
    grid = None
    if len(errors) == grid_errors:
        try:
            grid = Grid(box, N)
        except ValueError as exc:
            errors.append((ln_box if box_val else 1, str(exc)))
    if grid is None:
        grid = Grid(((-1.0, 1.0),), 129)

    # params
    cfg = ExperimentConfig(kernel_name=name, kernel_params=kernel_params, grid=grid)
    for key, conv, admissible, message in _PARAM_NUMBERS:
        val, ln_k = _take(table, "params", key)
        if val is None:
            continue
        v = conv(val, ln_k, f"params.{key}", errors)
        if v is None:
            continue
        if admissible(v):
            setattr(cfg, key, v)
        else:
            errors.append((ln_k, f"{message}, got {val!r}"))
    for key, attr in (("u", "u_expr"), ("f", "f_expr")):
        val, ln_e = _take(table, "params", key)
        if val is not None:
            try:
                compile_expression(val, grid.dimension)
                setattr(cfg, attr, val)
            except ValueError as exc:
                errors.append((ln_e, f"params.{key}: {exc}"))
    if not cfg.u_expr:
        # default: a bump centred in the box, its radius the smallest half-width
        centres = ", ".join(f"{0.5 * (a + b):g}" for a, b in grid.box)
        radius = min(0.5 * (b - a) for a, b in grid.box)
        cfg.u_expr = f"bump({centres}, {radius:g})"

    # anything left is unknown
    for (section, key), (_, ln_k) in sorted(table.items(), key=lambda kv: kv[1][1]):
        errors.append((ln_k, f"unknown key {key!r} in [{section}]"))

    if errors:
        raise ConfigError(errors)
    return cfg
