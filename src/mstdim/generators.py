"""Deterministic and random point-cloud generators.

Fractal approximants are produced by applying every depth-k composition of a
shape's similarities x -> ratio * x + offset to the origin, which gives
reproducible clouds with exact separation scales. All maps of a shape share
one ratio r, so its dimension is log m / log(1/r) for m maps (Hutchinson
1981); it is carried as metadata only, estimators never read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError
from .metric import PointCloud

__all__ = [
    "generate_uniform",
    "generate_grid",
    "builtin_shape",
    "ShapeFamily",
    "SHAPE_NAMES",
    "DEFAULT_POINT_BUDGET",
]

DEFAULT_POINT_BUDGET = 1_000_000

SHAPE_NAMES = (
    "uniform-cube",
    "grid",
    "cantor",
    "cantor-dust",
    "sierpinski-triangle",
    "sierpinski-carpet",
    "interval",
)

# name -> (ratio, offsets) of the maps x -> ratio * x + offset, in map order;
# the origin, where every composition starts, is the first map's fixed point
_IFS = {
    "cantor": (1.0 / 3.0, np.array([(0.0,), (2.0 / 3.0,)])),
    "cantor-dust": (
        1.0 / 3.0,
        np.array([(0.0, 0.0), (2.0 / 3.0, 0.0), (0.0, 2.0 / 3.0), (2.0 / 3.0, 2.0 / 3.0)]),
    ),
    "sierpinski-triangle": (0.5, np.array([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)])),
    "sierpinski-carpet": (
        1.0 / 3.0,
        np.array(
            [(i / 3.0, j / 3.0) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
        ),
    ),
}


def _over_budget(base: int, exponent: int) -> bool:
    """Whether base**exponent (base >= 2) exceeds DEFAULT_POINT_BUDGET.

    Every exponent past the budget's bit length is over it, so the power is
    never formed for a huge exponent from the command line.
    """
    return base ** min(exponent, DEFAULT_POINT_BUDGET.bit_length()) > DEFAULT_POINT_BUDGET


def generate_uniform(n: int, d: int, seed: int) -> PointCloud:
    """n i.i.d. uniform points in [0,1]^d, deterministic given the seed."""
    if n < 1:
        raise InputError("n must be >= 1")
    if d < 1:
        raise InputError("d must be >= 1")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    # the grids within the point budget hold at most 2^19 points in 19
    # dimensions, 9,961,472 coordinates: both shapes share one ceiling
    if n * d > 10 * DEFAULT_POINT_BUDGET:
        raise ResourceError(
            f"{n} points in {d} dimensions exceed the coordinate budget "
            f"{10 * DEFAULT_POINT_BUDGET}"
        )
    rng = np.random.default_rng(seed)
    return PointCloud(rng.random((n, d)))


def generate_grid(side: int, d: int) -> PointCloud:
    """The side^d lattice {0, 1/(side-1), ..., 1}^d in row-major order."""
    if side < 2:
        raise InputError("side must be >= 2")
    if d < 1:
        raise InputError("d must be >= 1")
    if _over_budget(side, d):
        raise ResourceError(
            f"grid would contain {side}^{d} points, budget is {DEFAULT_POINT_BUDGET}"
        )
    axis = np.linspace(0.0, 1.0, side)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return PointCloud(np.stack(mesh, axis=-1).reshape(-1, d))


def builtin_shape(name: str, size: int, dim: int | None = None, seed: int = 0):
    """Produce a named reference cloud plus its analytic dimension.

    ``size`` means: point count for uniform-cube and interval, points per side
    for grid, and composition depth for the fractals. ``dim`` applies to
    uniform-cube and grid only (default 2); the other shapes refuse any other
    value than their own dimension.

    Returns (PointCloud, known_dim).
    """
    if name == "uniform-cube":
        d = 2 if dim is None else dim
        if size > DEFAULT_POINT_BUDGET:
            raise ResourceError(f"{size} points exceed the budget {DEFAULT_POINT_BUDGET}")
        return generate_uniform(size, d, seed), float(d)
    if name == "grid":
        d = 2 if dim is None else dim
        return generate_grid(size, d), float(d)
    if name == "interval":
        if dim not in (None, 1):
            raise InputError("interval is one-dimensional, dim must be 1")
        return generate_grid(size, 1), 1.0
    if name in _IFS:
        ratio, offsets = _IFS[name]
        m, d = offsets.shape
        if dim not in (None, d):
            raise InputError(f"{name} lives in dimension {d}, got dim={dim}")
        if size < 0:
            raise InputError("depth must be >= 0")
        if _over_budget(m, size):
            raise ResourceError(
                f"{name} at depth {size} would produce {m}^{size} compositions, "
                f"budget is {DEFAULT_POINT_BUDGET}"
            )
        # every depth-fold composition applied to the origin, sorted
        # lexicographically; within the budget no two of them meet
        pts = np.zeros((1, d))
        for _ in range(size):
            pts = np.concatenate([ratio * pts + offset for offset in offsets])
        return PointCloud(pts[np.lexsort(pts.T[::-1])]), math.log(m) / math.log(1.0 / ratio)
    raise InputError(f"unknown shape {name!r}, expected one of {SHAPE_NAMES}")


@dataclass(frozen=True)
class ShapeFamily:
    """A built-in shape viewed as a family indexed by target point count."""

    name: str
    dim: int | None = None

    def __post_init__(self):
        if self.name not in SHAPE_NAMES:
            raise InputError(f"unknown shape {self.name!r}")
        if self.dim is not None and self.dim < 1:
            raise InputError(f"dim must be >= 1, got {self.dim}")

    @property
    def is_random(self) -> bool:
        return self.name == "uniform-cube"

    def generate(self, size: int, seed: int = 0) -> PointCloud:
        """Generate the family member with exactly ``size`` points."""
        arg = size
        if self.name == "grid":
            d = 2 if self.dim is None else self.dim
            side = round(size ** (1.0 / d))
            arg = next((s for s in (side - 1, side, side + 1) if s >= 2 and s**d == size), None)
            if arg is None:
                raise InputError(f"{size} is not side^{d} for any integer side")
        elif self.name in _IFS:
            m = len(_IFS[self.name][1])
            arg = round(math.log(size, m)) if size > 1 else 0
            if m**arg != size:
                raise InputError(f"{size} is not a power of {m} (shape {self.name})")
        return builtin_shape(self.name, arg, self.dim, seed)[0]
