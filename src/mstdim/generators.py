"""Deterministic and random point-cloud generators.

Fractal approximants are produced by applying every depth-k composition of an
iterated function system to a fixed base point, which gives reproducible
clouds with exact separation scales. The similarity dimension of each system
(the s solving sum r_i^s = 1) is carried as metadata only; estimators never
read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError
from .metric import PointCloud

__all__ = [
    "SimilarityMap",
    "IfsSystem",
    "generate_uniform",
    "generate_grid",
    "generate_ifs_depth",
    "builtin_shape",
    "shape_family",
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


@dataclass(frozen=True)
class SimilarityMap:
    """x -> ratio * Q x + offset with Q orthogonal (identity when omitted)."""

    ratio: float
    offset: tuple
    orthogonal: tuple | None = None

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise InputError(f"similarity ratio must lie in (0, 1), got {self.ratio}")
        off = np.asarray(self.offset, dtype=np.float64)
        if off.ndim != 1 or not np.all(np.isfinite(off)):
            raise InputError("offset must be a finite vector")
        object.__setattr__(self, "offset", tuple(float(v) for v in off))
        if self.orthogonal is not None:
            q = np.asarray(self.orthogonal, dtype=np.float64)
            d = off.shape[0]
            if q.shape != (d, d):
                raise InputError("orthogonal part must be a d x d matrix")
            if not np.allclose(q.T @ q, np.eye(d), atol=1e-12):
                raise InputError("orthogonal part is not orthonormal")
            object.__setattr__(
                self, "orthogonal", tuple(tuple(float(v) for v in row) for row in q)
            )

    @property
    def dim(self) -> int:
        return len(self.offset)

    def matrix(self) -> np.ndarray | None:
        if self.orthogonal is None:
            return None
        return np.asarray(self.orthogonal, dtype=np.float64)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        off = np.asarray(self.offset, dtype=np.float64)
        q = self.matrix()
        if q is None:
            return self.ratio * pts + off
        return self.ratio * (pts @ q.T) + off

    def fixed_point(self) -> np.ndarray:
        off = np.asarray(self.offset, dtype=np.float64)
        q = self.matrix()
        if q is None:
            return off / (1.0 - self.ratio)
        d = off.shape[0]
        return np.linalg.solve(np.eye(d) - self.ratio * q, off)


def _solve_similarity_dim(ratios, upper: float) -> float:
    """Bisection root of sum r_i^s = 1 on (0, upper]."""
    ratios = np.asarray(ratios, dtype=np.float64)

    def f(s):
        return float((ratios**s).sum()) - 1.0

    lo, hi = 1e-12, upper
    if f(hi) > 0.0:
        raise InputError(
            f"similarity dimension exceeds the bisection range (0, {upper}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    s = 0.5 * (lo + hi)
    if abs(f(s)) > 1e-10:
        raise InputError("similarity-dimension root did not converge")
    return s


@dataclass(frozen=True)
class IfsSystem:
    """A finite list of contracting similarities mapping [0,1]^d into itself."""

    maps: tuple
    ambient_dim: int
    similarity_dim: float = field(init=False)

    def __post_init__(self):
        maps = tuple(self.maps)
        if len(maps) < 2:
            raise InputError("an IFS needs at least 2 maps")
        for m in maps:
            if m.dim != self.ambient_dim:
                raise InputError("all maps must share the system's ambient dimension")
            self._check_cube_invariance(m)
        object.__setattr__(self, "maps", maps)
        s = _solve_similarity_dim(
            [m.ratio for m in maps], 2.0 * max(self.ambient_dim, 1)
        )
        object.__setattr__(self, "similarity_dim", s)

    def _check_cube_invariance(self, m: SimilarityMap) -> None:
        d = self.ambient_dim
        if m.orthogonal is None:
            off = np.asarray(m.offset)
            lo = off
            hi = m.ratio + off
            if np.any(lo < -1e-12) or np.any(hi > 1.0 + 1e-12):
                raise InputError(
                    f"map with offset {m.offset} does not send [0,1]^{d} into itself"
                )
            return
        if d > 12:
            raise InputError("corner check for rotated maps is limited to d <= 12")
        corners = np.array(
            np.meshgrid(*([[0.0, 1.0]] * d), indexing="ij")
        ).reshape(d, -1).T
        image = m.apply(corners)
        if np.any(image < -1e-12) or np.any(image > 1.0 + 1e-12):
            raise InputError(
                f"map with offset {m.offset} does not send [0,1]^{d} into itself"
            )


def generate_uniform(n: int, d: int, seed: int) -> PointCloud:
    """n i.i.d. uniform points in [0,1]^d, deterministic given the seed."""
    if n < 1:
        raise InputError("n must be >= 1")
    if d < 1:
        raise InputError("d must be >= 1")
    rng = np.random.default_rng(seed)
    return PointCloud(rng.random((n, d)))


def generate_grid(side: int, d: int, budget: int = DEFAULT_POINT_BUDGET) -> PointCloud:
    """The side^d lattice {0, 1/(side-1), ..., 1}^d in row-major order."""
    if side < 2:
        raise InputError("side must be >= 2")
    if d < 1:
        raise InputError("d must be >= 1")
    total = side**d
    if total > budget:
        raise ResourceError(f"grid would contain {total} points, budget is {budget}")
    axis = np.linspace(0.0, 1.0, side)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return PointCloud(np.stack(mesh, axis=-1).reshape(-1, d))


def generate_ifs_depth(
    system: IfsSystem, depth: int, budget: int = DEFAULT_POINT_BUDGET
) -> PointCloud:
    """All depth-fold compositions of the system's maps applied to the fixed
    point of map 0, exactly deduplicated and sorted lexicographically."""
    if depth < 0:
        raise InputError("depth must be >= 0")
    total = len(system.maps) ** depth
    if total > budget:
        raise ResourceError(
            f"IFS at depth {depth} would produce {total} compositions, "
            f"budget is {budget}"
        )
    pts = system.maps[0].fixed_point().reshape(1, -1)
    for _ in range(depth):
        pts = np.concatenate([m.apply(pts) for m in system.maps])
    pts = np.unique(pts, axis=0)
    return PointCloud(pts)


def _cantor_system() -> IfsSystem:
    return IfsSystem(
        maps=(
            SimilarityMap(1.0 / 3.0, (0.0,)),
            SimilarityMap(1.0 / 3.0, (2.0 / 3.0,)),
        ),
        ambient_dim=1,
    )


def _cantor_dust_system() -> IfsSystem:
    offs = [(0.0, 0.0), (2.0 / 3.0, 0.0), (0.0, 2.0 / 3.0), (2.0 / 3.0, 2.0 / 3.0)]
    return IfsSystem(
        maps=tuple(SimilarityMap(1.0 / 3.0, o) for o in offs), ambient_dim=2
    )


def _sierpinski_triangle_system() -> IfsSystem:
    offs = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)]
    return IfsSystem(maps=tuple(SimilarityMap(0.5, o) for o in offs), ambient_dim=2)


def _sierpinski_carpet_system() -> IfsSystem:
    offs = [
        (i / 3.0, j / 3.0) for i in range(3) for j in range(3) if not (i == 1 and j == 1)
    ]
    return IfsSystem(
        maps=tuple(SimilarityMap(1.0 / 3.0, o) for o in offs), ambient_dim=2
    )


_IFS_BUILDERS = {
    "cantor": _cantor_system,
    "cantor-dust": _cantor_dust_system,
    "sierpinski-triangle": _sierpinski_triangle_system,
    "sierpinski-carpet": _sierpinski_carpet_system,
}


def builtin_shape(
    name: str,
    size: int,
    dim: int | None = None,
    seed: int = 0,
    budget: int = DEFAULT_POINT_BUDGET,
):
    """Produce a named reference cloud plus its analytic dimension when known.

    ``size`` means: point count for uniform-cube and interval, points per side
    for grid, and composition depth for the IFS fractals. ``dim`` applies to
    uniform-cube and grid only (default 2).

    Returns (PointCloud, known_dim or None). Known dimensions of the fractal
    shapes come from the similarity-dimension equation of their systems.
    """
    if name == "uniform-cube":
        d = 2 if dim is None else dim
        if size > budget:
            raise ResourceError(f"{size} points exceed the budget {budget}")
        return generate_uniform(size, d, seed), float(d)
    if name == "grid":
        d = 2 if dim is None else dim
        return generate_grid(size, d, budget), float(d)
    if name == "interval":
        if dim not in (None, 1):
            raise InputError("interval is one-dimensional, dim must be 1")
        return generate_grid(size, 1, budget), 1.0
    if name in _IFS_BUILDERS:
        system = _IFS_BUILDERS[name]()
        if dim is not None and dim != system.ambient_dim:
            raise InputError(
                f"{name} lives in dimension {system.ambient_dim}, got dim={dim}"
            )
        cloud = generate_ifs_depth(system, size, budget)
        return cloud, system.similarity_dim
    raise InputError(f"unknown shape {name!r}, expected one of {SHAPE_NAMES}")


@dataclass(frozen=True)
class ShapeFamily:
    """A generator viewed as a family indexed by target point count."""

    name: str
    dim: int | None = None
    budget: int = DEFAULT_POINT_BUDGET

    def __post_init__(self):
        if self.name not in SHAPE_NAMES:
            raise InputError(f"unknown shape {self.name!r}")

    @property
    def is_random(self) -> bool:
        return self.name == "uniform-cube"

    def generate(self, size: int, seed: int = 0) -> PointCloud:
        """Generate the family member with exactly ``size`` points."""
        if self.name == "uniform-cube":
            return generate_uniform(size, 2 if self.dim is None else self.dim, seed)
        if self.name == "interval":
            return generate_grid(size, 1, self.budget)
        if self.name == "grid":
            d = 2 if self.dim is None else self.dim
            side = round(size ** (1.0 / d))
            for candidate in (side - 1, side, side + 1):
                if candidate >= 2 and candidate**d == size:
                    cloud = generate_grid(candidate, d, self.budget)
                    return cloud
            raise InputError(f"{size} is not side^{d} for any integer side")
        system = _IFS_BUILDERS[self.name]()
        m = len(system.maps)
        depth = round(math.log(size, m)) if size > 1 else 0
        if m**depth != size:
            raise InputError(f"{size} is not a power of {m} (shape {self.name})")
        cloud = generate_ifs_depth(system, depth, self.budget)
        if cloud.n != size:
            raise InputError(
                f"{self.name} at depth {depth} produced {cloud.n} points, "
                f"expected {size}"
            )
        return cloud


def shape_family(
    name: str, dim: int | None = None, budget: int = DEFAULT_POINT_BUDGET
) -> ShapeFamily:
    return ShapeFamily(name=name, dim=dim, budget=budget)
