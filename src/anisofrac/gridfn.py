"""Piecewise-linear functions on uniform grids, extended by zero.

A :class:`GridFunction` interpolates its node values multilinearly
inside the grid box and is identically zero outside.  With the boundary
nodes pinned to zero this is the discrete stand-in for functions that
vanish outside the domain, which is the admissible class for every
energy and solver in the package.

The grid geometry (node lattice, trapezoid weights, boundary mask,
sampling, cell gradients, interpolation) is written once for any
dimension.  :class:`Grid` still accepts only n = 1 and n = 2: the
energies integrate over pairs of points, so n = 2 already means
4-dimensional quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "FractionalParams",
    "lp_norm",
    "lp_distance",
    "check_finite",
    "parse_box",
    "write_csv",
    "read_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a box, same node count per axis; the box's
    (a, b) pairs, one per axis, fix the :attr:`dimension`."""

    box: tuple[tuple[float, float], ...]
    nodes_per_axis: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.nodes_per_axis < 3:
            raise ValueError("need at least 3 nodes per axis")
        for a, b in self.box:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"box interval ({a}, {b}) must be finite")
            if not b > a:
                raise ValueError(f"degenerate box interval ({a}, {b})")

    @property
    def dimension(self) -> int:
        return len(self.box)

    @property
    def spacing(self) -> tuple[float, ...]:
        n = self.nodes_per_axis
        return tuple((b - a) / (n - 1) for a, b in self.box)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis,) * self.dimension

    def axes(self) -> list[np.ndarray]:
        """Node coordinates along each axis."""
        return [
            np.linspace(a, b, self.nodes_per_axis) for a, b in self.box
        ]

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dimension), row-major."""
        return _lattice(self.axes())

    def trapezoid_weights(self) -> np.ndarray:
        """Composite trapezoid weights over the node lattice, flattened."""
        w1 = np.full(self.nodes_per_axis, 1.0)
        w1[0] = w1[-1] = 0.5
        return functools.reduce(np.multiply.outer, [w1 * h for h in self.spacing]).ravel()

    def boundary(self) -> np.ndarray:
        """Boolean mask of the boundary nodes, shape :attr:`shape`."""
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.dimension] = False
        return mask

    def interpolation_stencil(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Multilinear interpolation at points of shape (m, n).

        Returns the flat indices and weights of the 2**n corner nodes of
        each point's cell, both (m, 2**n), and whether each point lies in
        the closed box.  Along each axis a coordinate is clipped to the
        interval, so points outside get the weights of the nearest cell,
        and the zero extension is the caller's business.
        """
        N = self.nodes_per_axis
        cols = np.zeros((points.shape[0], 1), dtype=np.int64)
        weights = np.ones((points.shape[0], 1))
        inside = np.ones(points.shape[0], dtype=bool)
        for (a, b), h, x in zip(self.box, self.spacing, points.T):
            q = np.clip((x - a) / h, 0.0, N - 1.0)
            j = np.minimum(q.astype(np.int64), N - 2)
            t = (q - j)[:, None]
            lower = N * cols + j[:, None]
            cols = np.concatenate([lower, lower + 1], axis=1)
            weights = np.concatenate([weights * (1.0 - t), weights * t], axis=1)
            inside &= (x >= a) & (x <= b)
        return cols, weights, inside

    @property
    def diameter(self) -> float:
        return math.sqrt(sum((b - a) ** 2 for a, b in self.box))


def _lattice(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The tensor product of per-axis coordinates, shape (m, n), row-major."""
    return np.column_stack([X.ravel() for X in np.meshgrid(*axes, indexing="ij")])


@dataclass(frozen=True)
class FractionalParams:
    """Differentiability order s in (0,1) and a finite integrability p >= 1."""

    s: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if not 1.0 <= self.p < math.inf:
            raise ValueError(f"p must be a finite number >= 1, got {self.p}")


@dataclass(frozen=True)
class GridFunction:
    """Node values on a :class:`Grid`; multilinear inside, zero outside.

    ``boundary_flag`` pins every boundary node to exactly 0, so the
    zero-extension is continuous and the function vanishes outside the
    open box.  The values kept, after pinning, must be finite: every
    energy, norm and solver downstream relies on it.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    boundary_flag: bool = True

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if self.boundary_flag:
            vals = vals.copy()
            vals[self.grid.boundary()] = 0.0
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(
        cls, grid: Grid, fn: Callable[..., np.ndarray], boundary_flag: bool = True
    ) -> "GridFunction":
        """Sample ``fn`` at the nodes; fn takes one coordinate array per axis."""
        vals = np.asarray(fn(*np.meshgrid(*grid.axes(), indexing="ij")), dtype=float)
        return cls(grid, vals, boundary_flag)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., n); exactly 0 outside the box."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 0 or (self.grid.dimension == 1 and pts.shape[-1] != 1):
            pts = pts.reshape(pts.shape + (1,))
        lead = pts.shape[:-1]
        cols, weights, inside = self.grid.interpolation_stencil(
            pts.reshape(-1, self.grid.dimension)
        )
        vals = np.einsum("mk,mk->m", weights, self.values.ravel()[cols])
        return np.where(inside, vals, 0.0).reshape(lead)

    def cell_gradients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell-centered gradients: (centers, gradients, cell volumes).

        Component ``a`` is the difference across the cell along axis
        ``a``, averaged over the cell's two faces in every other axis:
        the gradient of the multilinear interpolant at the cell center.
        """
        v = self.values
        spacing = self.grid.spacing
        grads = []
        for axis, h in enumerate(spacing):
            g = np.diff(v, axis=axis)
            for other in range(v.ndim):
                if other != axis:
                    g = np.moveaxis(g, other, 0)
                    g = np.moveaxis(0.5 * (g[1:] + g[:-1]), 0, other)
            grads.append((g / h).ravel())
        n_cells = self.grid.nodes_per_axis - 1
        centers = _lattice(
            [a + h * (np.arange(n_cells) + 0.5) for (a, _), h in zip(self.grid.box, spacing)]
        )
        return centers, np.column_stack(grads), np.full(centers.shape[0], math.prod(spacing))

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, c * self.values, self.boundary_flag)


def lp_norm(u: GridFunction, p: float) -> float:
    """||u||_p over the box: composite trapezoid on nodes, then p-th root."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    w = u.grid.trapezoid_weights()
    return float(np.dot(w, np.abs(u.values.ravel()) ** p) ** (1.0 / p))


def lp_distance(u: GridFunction, v: GridFunction, p: float) -> float:
    """||u - v||_p of two functions on the same grid."""
    if u.grid != v.grid:
        raise ValueError("the two functions live on different grids")
    return lp_norm(GridFunction(u.grid, u.values - v.values, boundary_flag=False), p)


def check_finite(what: str, **values: Optional[float]) -> None:
    """Raise ``ValueError`` naming the first value that is not finite, in
    the order given, as ``<what> <name> is <value>``; ``None`` is skipped."""
    for name, v in values.items():
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{what} {name} is {v!r}: the inputs overflow double precision")


def _format_box(box: Sequence[tuple[float, float]]) -> str:
    return ";".join(f"{a:.17g}:{b:.17g}" for a, b in box)


def parse_box(text: str) -> tuple[tuple[float, float], ...]:
    """Parse ``a:b[;a:b]``, one interval per axis; raises ValueError."""
    out = []
    for part in text.split(";"):
        a, b = part.split(":")
        out.append((float(a), float(b)))
    return tuple(out)


def write_csv(u: GridFunction, path_or_file) -> None:
    """Write the header line and node values in row-major order."""
    header = (
        f"# grid n={u.grid.dimension} box={_format_box(u.grid.box)} "
        f"N={u.grid.nodes_per_axis}\n"
    )
    body = "".join(f"{v:.17g}\n" for v in u.values.ravel())
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w") as fh:
            fh.write(header)
            fh.write(body)
    else:
        path_or_file.write(header)
        path_or_file.write(body)


def read_csv(path_or_file) -> GridFunction:
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file) as fh:
            text = fh.read()
    else:
        text = path_or_file.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# grid"):
        raise ValueError("missing '# grid' header line")
    fields = {}
    for tok in lines[0][2:].split()[1:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"malformed header field {tok!r}: expected key=value")
        fields[key] = value

    def header_field(key, parse):
        if key not in fields:
            raise ValueError(f"header has no {key}= field")
        try:
            return parse(fields[key])
        except ValueError:
            raise ValueError(f"malformed header field {key}={fields[key]!r}") from None

    n = header_field("n", int)
    grid = Grid(header_field("box", parse_box), header_field("N", int))
    if n != grid.dimension:
        raise ValueError(f"header field n={n} does not match box={fields['box']}")
    count = math.prod(grid.shape)
    vals = np.array([float(s) for s in lines[1:] if s.strip()])
    if vals.size != count:
        raise ValueError(f"expected {count} values, found {vals.size}")
    return GridFunction(grid, vals.reshape(grid.shape), boundary_flag=False)
