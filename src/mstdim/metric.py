"""Point clouds and pluggable distance oracles.

Distances come in three user-facing families:

* ``Lp(p)``, the usual Minkowski metrics on coordinates,
* ``Snowflake(base, theta)``, the theta-th power of a metric (still a metric
  for theta in (0, 1], multiplies dimension by 1/theta),
* ``PowerQuasi(base, p)``, the p-th power for p >= 1, which is only a
  quasi-metric: it satisfies d(x,y) <= C_w (d(x,z) + d(z,y)) with
  C_w = 2**(p-1) instead of the triangle inequality.

Both build one ``Power(base, e)`` spec; they differ only in the range of e
they accept.

Each spec declares its weak-triangle constant analytically from its kind;
``validate_quasi_metric`` can only falsify the declaration, never tighten it.
All oracles are pure functions of their arguments and exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .reports import format_float

__all__ = [
    "PointCloud",
    "DistanceSpec",
    "Lp",
    "Power",
    "Snowflake",
    "PowerQuasi",
    "distance",
    "validate_quasi_metric",
    "QuasiMetricReport",
    "diameter",
    "spec_from_string",
    "read_cloud",
    "write_cloud",
]


class PointCloud:
    """An ordered, immutable list of d-dimensional points.

    Point order is significant: it seeds deterministic tie-breaking in tree
    construction and the scan order of greedy packing. Duplicate points are
    allowed; downstream code treats the zero-length edges they induce
    explicitly.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        try:
            pts = np.asarray(points, dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise InputError(f"points are not a rectangular numeric array: {exc}")
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise InputError(f"points must form a 2-d array, got shape {pts.shape}")
        if pts.shape[0] == 0:
            raise InputError("point cloud must contain at least one point")
        if pts.shape[1] == 0:
            raise InputError("ambient dimension must be at least 1")
        if not np.all(np.isfinite(pts)):
            raise InputError("all coordinates must be finite")
        with np.errstate(over="ignore"):  # coordinate differences must be finite too
            if not np.all(np.isfinite(pts.max(axis=0) - pts.min(axis=0))):
                raise InputError("coordinate spans must be finite (a difference overflows)")
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PointCloud(n={self.n}, ambient_dim={self.ambient_dim})"


class DistanceSpec:
    """Base class for distance oracles. Subclasses implement ``one_to_many``."""

    @property
    def weak_triangle_const(self) -> float:
        raise NotImplementedError

    def one_to_many(self, a, pts, out=None):
        """Distances from point ``a`` to every row of ``pts`` (m, d)."""
        raise NotImplementedError

    def pairs(self, lhs, rhs):
        """Row-wise distances between two (m, d) arrays: entry i equals
        ``one_to_many(rhs[i], lhs[i:i + 1])[0]`` bit for bit. This default
        makes one ``one_to_many`` call per pair; kernels override it."""
        lhs, rhs = _pair_arrays(lhs, rhs)
        out = np.empty(lhs.shape[0])
        for i in range(lhs.shape[0]):
            out[i] = self.one_to_many(rhs[i], lhs[i : i + 1])[0]
        return out

    def coordinate_radius(self, t: float) -> float:
        """Upper bound on every |a_k - b_k| over pairs whose computed distance
        is at most ``t``, rounding included. ``inf`` means no bound is known,
        so spatial pruning must consider every point."""
        return math.inf

    def describe(self) -> str:
        raise NotImplementedError


# Relative slack for coordinate bounds: covers the rounding of the row
# kernels, about 750 * 2**-53 at worst for pow with a rounded 1/p exponent.
_BOUND_SLACK = 2.0**-40


def _power_preimage(t: float, e: float) -> float:
    """Upper bound on every x >= 0 whose computed power x ** e is at most t.

    The rounding of 1 / e and of both powers is amplified by 1 / e when
    e < 1. Powers of x below 2 ** (-1022 / e) underflow and may read 0, so the
    bound never drops under that level.
    """
    try:
        root = float(t) ** (1.0 / e)
    except OverflowError:
        return math.inf
    return max(root * (1.0 + _BOUND_SLACK / min(e, 1.0)), 2.0 ** (-1022.0 / max(e, 1.0)))


def _pair_arrays(lhs, rhs):
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if lhs.shape != rhs.shape or lhs.ndim != 2:
        raise InputError("pairs requires two (m, d) arrays of identical shape")
    return lhs, rhs


def _check_dims(a, pts):
    if a.shape[-1] != pts.shape[-1]:
        raise InputError(
            f"dimension mismatch: point has {a.shape[-1]} coordinates, "
            f"cloud has {pts.shape[-1]}"
        )


@dataclass(frozen=True)
class Lp(DistanceSpec):
    """Minkowski metric (sum |a_i - b_i|^p)^(1/p) for p >= 1."""

    p: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p >= 1.0):
            raise InputError(f"Lp requires p >= 1, got {self.p}")

    @property
    def weak_triangle_const(self) -> float:
        return 1.0

    def _term(self, x):
        """|x| ** p in place, with the exact forms for p = 2 and p = 1."""
        if self.p == 2.0:
            np.multiply(x, x, out=x)
        else:
            np.abs(x, out=x)
            if self.p != 1.0:
                np.power(x, self.p, out=x)
        return x

    def _root(self, x):
        """x ** (1 / p) in place."""
        if self.p == 2.0:
            np.sqrt(x, out=x)
        elif self.p != 1.0:
            np.power(x, 1.0 / self.p, out=x)
        return x

    def _rows(self, lhs, rhs, out):
        """Root of the terms of lhs[:, k] - rhs[..., k], summed in coordinate
        order k = 0 .. d - 1; ``rhs`` is one point or one point per row."""
        m, d = lhs.shape
        if out is None:
            out = np.empty(m)
        self._term(np.subtract(lhs[:, 0], rhs[..., 0], out=out))
        if d > 1:
            tmp = np.empty(m)
            for k in range(1, d):
                np.add(out, self._term(np.subtract(lhs[:, k], rhs[..., k], out=tmp)), out=out)
        return self._root(out)

    def one_to_many(self, a, pts, out=None):
        a = np.asarray(a, dtype=np.float64)
        pts = np.asarray(pts, dtype=np.float64)
        _check_dims(a, pts)
        return self._rows(pts, a, out)

    def pairs(self, lhs, rhs):
        return self._rows(*_pair_arrays(lhs, rhs), None)

    def coordinate_radius(self, t: float) -> float:
        # The largest term |a_k - b_k| ** p alone reaches the distance; below
        # 2 ** (-1022 / p) that term underflows and may vanish from the sum.
        return max(t * (1.0 + _BOUND_SLACK), 2.0 ** (-1022.0 / self.p))

    def describe(self) -> str:
        if self.p == 2.0:
            return "l2"
        if self.p == 1.0:
            return "l1"
        return f"lp:{format_float(self.p)}"


@dataclass(frozen=True)
class Power(DistanceSpec):
    """e-th power of a base distance, e > 0. A metric when e <= 1 and the
    base is one (a snowflake), a quasi-metric for e > 1."""

    base: DistanceSpec
    e: float

    def __post_init__(self):
        if not (np.isfinite(self.e) and self.e > 0.0):
            raise InputError(f"Power requires a finite exponent > 0, got {self.e}")

    @property
    def weak_triangle_const(self) -> float:
        # (C (a+b))^e <= C^e (a^e + b^e) for e <= 1, and
        # <= C^e 2^(e-1) (a^e + b^e) for e >= 1 by convexity of t^e
        return self.base.weak_triangle_const**self.e * 2.0 ** max(0.0, self.e - 1.0)

    def one_to_many(self, a, pts, out=None):
        d = self.base.one_to_many(a, pts, out)
        np.power(d, self.e, out=d)
        return d

    def pairs(self, lhs, rhs):
        return self.base.pairs(lhs, rhs) ** self.e

    def coordinate_radius(self, t: float) -> float:
        return self.base.coordinate_radius(_power_preimage(t, self.e))

    def describe(self) -> str:
        kind = "snowflake" if self.e <= 1.0 else "powerquasi"
        return f"{kind}:{format_float(self.e)}({self.base.describe()})"


def Snowflake(base: DistanceSpec, theta: float) -> Power:
    """theta-th power of a base distance, 0 < theta <= 1 (multiplies
    dimension by 1 / theta)."""
    if not (0.0 < theta <= 1.0):
        raise InputError(f"Snowflake requires theta in (0, 1], got {theta}")
    return Power(base, theta)


def PowerQuasi(base: DistanceSpec, p: float) -> Power:
    """p-th power of a base distance, p >= 1. A quasi-metric for p > 1."""
    if not (np.isfinite(p) and p >= 1.0):
        raise InputError(f"PowerQuasi requires p >= 1, got {p}")
    return Power(base, p)


def distance(spec: DistanceSpec, a, b) -> float:
    """Distance between two points under ``spec``.

    Deterministic and exactly symmetric; zero iff the points coincide
    (in exact arithmetic on the inputs).
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise InputError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]} coordinates"
        )
    return float(spec.one_to_many(a, b.reshape(1, -1))[0])


# Cells are keyed on at most this many leading coordinates (3**3 neighbours).
_GRID_AXES = 3
# Relative margin of the cell side over the coordinate bound; it dominates the
# rounding of (x - lo) / side, at most about 2**-31 cells at 2**20 cells.
_GRID_MARGIN = 1.0 + 2.0**-20
_GRID_MAX_CELLS = 2**20


def _cell_keys(pts: np.ndarray, radius: float):
    """Integer cell keys of side just above ``radius`` on the leading
    coordinates, plus the key offsets that bound the neighbour runs.

    Two points whose coordinates differ by at most ``radius`` lie in
    neighbouring cells. The last keyed axis has stride 1, so the 3**k
    neighbours of key K are the 3**(k-1) runs of consecutive keys
    ``[K + runs[2j], K + runs[2j + 1])``. An axis with no finite positive
    side is dropped, which only merges cells.
    """
    coords = pts[:, :_GRID_AXES]
    lo_corner = coords.min(axis=0)
    side = np.maximum(radius * _GRID_MARGIN, (coords.max(axis=0) - lo_corner) / _GRID_MAX_CELLS)
    key = np.zeros(pts.shape[0], dtype=np.int64)
    offsets = np.zeros(1, dtype=np.int64)
    for a in np.flatnonzero(np.isfinite(side) & (side > 0.0)):
        q = coords[:, a] - lo_corner[a]
        q /= side[a]
        np.floor(q, out=q)
        # cell index + 1: indices 0 and width - 1 stay empty, so neighbour
        # keys never wrap into another row
        width = int(q.max()) + 3
        key *= width
        key += q.astype(np.int64)
        key += 1
        offsets = (offsets[:, None] * width + np.array([-1, 0, 1])).ravel()
    if offsets.size == 1:  # no keyed axis: a single cell
        return key, np.array([0, 1])
    # offsets list the 3**k neighbours in key order, in triples of one run
    runs = np.stack([offsets[0::3], offsets[2::3] + 1], axis=1).ravel()
    return key, runs


def diameter(cloud: PointCloud, spec: DistanceSpec) -> float:
    """Maximum pairwise distance, by a row-wise scan of the upper triangle
    (O(n^2) evaluations)."""
    pts = cloud.points
    rows = (spec.one_to_many(pts[i], pts[i + 1 :]) for i in range(len(pts) - 1))
    return max((float(row.max()) for row in rows), default=0.0)


@dataclass
class QuasiMetricReport:
    spec: str
    weak_triangle_const: float
    trials: int
    max_ratio: float
    witness: tuple[int, int, int] | None
    passed: bool

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} weak-triangle {self.spec}: max ratio "
            f"{self.max_ratio:.6g} vs declared constant {self.weak_triangle_const:.6g}"
            f" (witness triple {self.witness})"
        )


def validate_quasi_metric(
    spec: DistanceSpec, cloud: PointCloud, trials: int, seed: int
) -> QuasiMetricReport:
    """Sample random triples and compare d(x,y)/(d(x,z)+d(z,y)) against the
    declared weak-triangle constant (relative tolerance 1e-9).

    The declared constant is analytic, derived from the distance kind;
    sampling can only falsify it, so a PASS means "not contradicted at this
    sample size".
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if cloud.n < 3:
        raise InputError("quasi-metric validation needs at least 3 points")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, cloud.n, size=(trials, 3))
    pts = cloud.points
    x, y, z = pts[idx[:, 0]], pts[idx[:, 1]], pts[idx[:, 2]]
    num = spec.pairs(x, y)
    den = spec.pairs(x, z) + spec.pairs(z, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(num == 0.0, 0.0, num / den)
    ratio = np.where((den == 0.0) & (num > 0.0), np.inf, ratio)
    k = int(np.argmax(ratio))
    max_ratio = float(ratio[k])
    c_w = spec.weak_triangle_const
    return QuasiMetricReport(
        spec=spec.describe(),
        weak_triangle_const=c_w,
        trials=trials,
        max_ratio=max_ratio,
        witness=(int(idx[k, 0]), int(idx[k, 1]), int(idx[k, 2])),
        passed=max_ratio <= c_w * (1.0 + 1e-9),
    )


def spec_from_string(text: str) -> DistanceSpec:
    """Parse the CLI metric notation.

    Accepted forms: ``l2``, ``l1``, ``lp:<p>``, ``snowflake:<theta>``
    (base l2), ``powerquasi:<p>`` (base l2).
    """
    text = text.strip().lower()
    if text == "l2":
        return Lp(2.0)
    if text == "l1":
        return Lp(1.0)
    kind, sep, arg = text.partition(":")
    if not sep:
        raise InputError(f"unknown metric {text!r}")
    try:
        value = float(arg)
    except ValueError:
        raise InputError(f"bad numeric parameter in metric {text!r}") from None
    if kind == "lp":
        return Lp(value)
    if kind == "snowflake":
        return Snowflake(Lp(2.0), value)
    if kind == "powerquasi":
        return PowerQuasi(Lp(2.0), value)
    raise InputError(f"unknown metric {text!r}")


def write_cloud(cloud: PointCloud, path) -> None:
    """Write the point-cloud text format: one point per line, coordinates as
    comma-separated decimals (17 significant digits), LF endings, no header.
    """
    lines = []
    for row in cloud.points:
        lines.append(",".join(format_float(float(v)) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_cloud(path) -> PointCloud:
    """Read the point-cloud text format, enforcing a uniform dimension.

    Malformed lines are reported with their 1-based line number.
    """
    rows = []
    dim = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                row = [float(part) for part in parts]
            except ValueError:
                raise InputError(f"{path}:{lineno}: malformed coordinate in {line!r}")
            if dim is None:
                dim = len(row)
            elif len(row) != dim:
                raise InputError(
                    f"{path}:{lineno}: expected {dim} coordinates, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise InputError(f"{path}: no points found")
    return PointCloud(np.array(rows, dtype=np.float64))
