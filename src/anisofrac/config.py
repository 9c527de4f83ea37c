"""Experiment configuration: strict INI-style files plus a tiny
expression grammar for grid functions.

Sections are ``[kernel]``, ``[grid]``, ``[params]`` and ``[output]``.
Unknown sections or keys are errors (silent typos corrupt experiments),
and validation collects *every* problem with its line number before
reporting.  Grid functions are written in a fixed grammar::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | 'x' | 'y' | 'pi' | '-' factor | '(' expr ')'
            | 'const' '(' expr ')' | 'sin' '(' expr ')'
            | 'cos' '(' expr ')' | 'bump' '(' args ')'

``bump(c, r)`` (1D) and ``bump(cx, cy, r)`` (2D) are the smooth bumps
exp(-1/(1 - t^2)) with t the scaled distance to the center, cut to zero
at |t| >= 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .gridfn import Grid
from .kernel import BUILTIN_NAMES, builtin_param_names

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "compile_expression"]


class ConfigError(ValueError):
    """All validation problems of a config document, with line numbers."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = sorted(errors)
        lines = "\n".join(f"  line {ln}: {msg}" for ln, msg in self.errors)
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

    ``coords`` holds one coordinate array per axis: x, then y in 2D.
    """
    ast = _Parser(_tokenize(src), dimension).parse()
    return lambda *coords: np.asarray(
        ast({name: np.asarray(c, dtype=float) for name, c in zip("xy", coords)}),
        dtype=float,
    )


# ---------------------------------------------------------------------------
# config document
# ---------------------------------------------------------------------------

_SECTIONS = ("kernel", "grid", "params", "output")


@dataclass
class ExperimentConfig:
    """Validated experiment description (kernel, grid, parameters, output)."""

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
    out_path: Optional[str] = None
    breakdown: bool = False  # no config key: set by the CLI's --breakdown

    def make_kernel(self):
        from .kernel import builtin

        return builtin(self.kernel_name, self.kernel_params)

    def sample_u(self):
        from .gridfn import GridFunction

        fn = compile_expression(self.u_expr, self.grid.dimension)
        return GridFunction.from_callable(self.grid, fn)

    def sample_f(self):
        from .gridfn import GridFunction

        fn = compile_expression(self.f_expr, self.grid.dimension)
        return GridFunction.from_callable(self.grid, fn, boundary_flag=False)


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


def parse_config(text: str) -> ExperimentConfig:
    """Validate a config document; raises :class:`ConfigError` with every
    problem found, not just the first."""
    errors: list[tuple[int, str]] = []
    table = _parse_lines(text, errors)

    # kernel
    name, ln_name = _take(table, "kernel", "name")
    kernel_params: dict = {}
    if name is None:
        errors.append((1, "missing kernel.name"))
        name = "constant"
    elif name not in BUILTIN_NAMES:
        errors.append((ln_name, f"unknown kernel {name!r}; choose from {BUILTIN_NAMES}"))
        name = "constant"
    allowed = builtin_param_names(name)
    for (section, key) in [k for k in table if k[0] == "kernel"]:
        value, ln = table.pop((section, key))
        if key == "table":
            kernel_params["table"] = value
            continue
        if key not in allowed:
            errors.append((ln, f"kernel {name!r} does not accept parameter {key!r}"))
            continue
        if key == "n":
            v = _to_int(value, ln, "kernel.n", errors)
        else:
            v = _to_float(value, ln, f"kernel.{key}", errors)
        if v is not None:
            kernel_params[key] = v

    # grid
    n_val, ln = _take(table, "grid", "n")
    n = _to_int(n_val, ln, "grid.n", errors) if n_val is not None else 1
    if n is not None and n not in (1, 2):
        errors.append((ln, "grid.n must be 1 or 2"))
        n = 1
    box_val, ln_box = _take(table, "grid", "box")
    box = ((-1.0, 1.0),) * (n or 1)
    if box_val is not None:
        try:
            parts = []
            for chunk in box_val.split(";"):
                a, b = chunk.split(":")
                parts.append((float(a), float(b)))
            box = tuple(parts)
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
    if not errors or all("grid." not in m and "[grid]" not in m for _, m in errors):
        try:
            grid = Grid(n, box, N)
        except ValueError as exc:
            errors.append((ln_box if box_val else 1, str(exc)))
    if grid is None:
        grid = Grid(1, ((-1.0, 1.0),), 129)

    # params
    cfg = ExperimentConfig(kernel_name=name, kernel_params=kernel_params, grid=grid)
    s_val, ln_s = _take(table, "params", "s")
    if s_val is not None:
        s = _to_float(s_val, ln_s, "params.s", errors)
        if s is not None:
            if not 0.0 < s < 1.0:
                errors.append((ln_s, "s must lie in (0,1)"))
            else:
                cfg.s = s
    sl_val, ln_sl = _take(table, "params", "s_list")
    if sl_val is not None:
        sl = _to_float_list(sl_val, ln_sl, "params.s_list", errors)
        if sl is not None:
            bad = [s for s in sl if not 0.0 < s < 1.0]
            if bad:
                errors.append((ln_sl, f"s_list entries must lie in (0,1), got {bad}"))
            else:
                cfg.s_list = sl
    p_val, ln_p = _take(table, "params", "p")
    if p_val is not None:
        p = _to_float(p_val, ln_p, "params.p", errors)
        if p is not None:
            if p < 1.0:
                errors.append((ln_p, "p must be >= 1"))
            else:
                cfg.p = p
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
    el_val, ln_el = _take(table, "params", "eps_list")
    if el_val is not None:
        el = _to_float_list(el_val, ln_el, "params.eps_list", errors)
        if el is not None:
            if any(e <= 0.0 for e in el):
                errors.append((ln_el, "eps_list entries must be positive"))
            else:
                cfg.eps_list = el
    for key, attr, conv in (("seed", "seed", _to_int), ("samples", "samples", _to_int)):
        val, ln_k = _take(table, "params", key)
        if val is not None:
            v = conv(val, ln_k, f"params.{key}", errors)
            if v is not None:
                setattr(cfg, attr, v)

    # output
    path_val, _ = _take(table, "output", "path")
    if path_val is not None:
        cfg.out_path = path_val

    # anything left is unknown
    for (section, key), (_, ln_k) in sorted(table.items(), key=lambda kv: kv[1][1]):
        errors.append((ln_k, f"unknown key {key!r} in [{section}]"))

    if errors:
        raise ConfigError(errors)
    return cfg
