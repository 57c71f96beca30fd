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

import io
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
            if not all(math.isfinite(c.max() - c.min()) for c in pts.T):
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

    def distance_bound(self, extent):
        """Upper bound, one per row of the (m, d) array ``extent``, on every
        computed distance between two points whose gaps |a_k - b_k| are at
        most that row, rounding included. ``inf`` means no bound is known,
        so a pruned search must evaluate every pair."""
        return np.full(len(extent), math.inf)

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

    def distance_bound(self, extent):
        # Each kernel step is monotone in each gap: subtraction, abs or
        # square, pow, addition in coordinate order and the root. Lifting the
        # gaps by 2 ** (-1022 / p) keeps every term a normal float, where the
        # rounding of pow is relative and the slack covers it.
        lifted = np.asarray(extent, dtype=np.float64) + 2.0 ** (-1022.0 / self.p)
        with np.errstate(over="ignore"):
            return self._rows(lifted, np.zeros(lifted.shape[1]), None) * (1.0 + _BOUND_SLACK)

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
        # <= C^e 2^(e-1) (a^e + b^e) for e >= 1 by convexity of t^e; inf past
        # the float range
        try:
            return self.base.weak_triangle_const**self.e * 2.0 ** max(0.0, self.e - 1.0)
        except OverflowError:
            return math.inf

    def one_to_many(self, a, pts, out=None):
        d = self.base.one_to_many(a, pts, out)
        np.power(d, self.e, out=d)
        return d

    def pairs(self, lhs, rhs):
        return self.base.pairs(lhs, rhs) ** self.e

    def coordinate_radius(self, t: float) -> float:
        return self.base.coordinate_radius(_power_preimage(t, self.e))

    def distance_bound(self, extent):
        # one ulp more covers a subnormal power, whose rounding is absolute
        with np.errstate(over="ignore"):
            bound = self.base.distance_bound(extent) ** self.e * (1.0 + _BOUND_SLACK)
        return np.nextafter(bound, math.inf)

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
# Candidate pairs per ``spec.pairs`` call, and sorted points per chunk of
# neighbour ranges.
_BLOCK_PAIRS = 1 << 12
_CHUNK_POINTS = 1 << 10


class _CellPairs:
    """The cell grid for computed distances <= ``radius`` under ``spec``:
    cells of side just above ``spec.coordinate_radius(radius)`` on the
    leading coordinates, so two points within ``radius`` lie in neighbouring
    cells. ``total`` is the exact count of unordered pairs of points in
    neighbouring cells and ``blocks`` measures them; greedy packing reads
    the neighbour runs of its centers from ``table`` itself.

    Cell keys: the last keyed axis has stride 1, so the 3**k neighbours of
    key K are the 3**(k-1) runs of consecutive keys ``[K + runs[2j],
    K + runs[2j + 1])``, the middle one holding K. An axis with no finite
    positive side is dropped, which only merges cells. ``order`` is the
    stable sort of the keys. The occupied cells are numbered in key order:
    ``cell[i]`` is point i's, and row c of ``table`` holds the sorted
    positions that bound cell c's runs, laid out like ``runs``
    (``_run_positions`` lists a run's positions). The lowest corner and the
    extent of the keyed coordinates are taken one column at a time, which on
    a few columns is several times faster than ``min(axis=0)``.
    """

    def __init__(self, pts, spec, radius):
        self.pts, self.spec = pts, spec
        coords = pts[:, :_GRID_AXES]
        lo_corner = np.array([c.min() for c in coords.T])
        extent = np.array([c.max() for c in coords.T]) - lo_corner
        side = np.maximum(spec.coordinate_radius(radius) * _GRID_MARGIN, extent / _GRID_MAX_CELLS)
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
        # offsets list the 3**k neighbours in key order, three consecutive
        # keys a run (one key if no axis is keyed: a single cell)
        trio = offsets.reshape(-1, min(3, offsets.size))
        self.runs = runs = np.stack([trio[:, 0], trio[:, -1] + 1], axis=1).ravel()
        self.order = np.argsort(key, kind="stable").astype(np.int32)  # 4-byte candidates
        key = key[self.order]
        head = np.empty(len(key), dtype=bool)  # the first position of a cell
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        at = np.cumsum(head)
        at -= 1  # the cell of each sorted position
        self.cell = np.empty(len(key), dtype=np.int32)
        self.cell[self.order] = at
        # sorted needles search faster: one row per run bound, then transposed
        bounds = np.searchsorted(key, key[head] + runs[:, None]).astype(np.int32)
        self.table = np.ascontiguousarray(bounds.T)
        # sorted position s of cell c has ahead[c] - s - 1 later positions in
        # c's runs: [s + 1, end) of the middle run and all of each later run
        mid = runs.size // 2
        ahead = bounds[mid::2].sum(axis=0)
        ahead -= bounds[mid + 1 :: 2].sum(axis=0)
        self.total = int(ahead.take(at).sum()) - len(key) * (len(key) + 1) // 2

    def blocks(self, label=None):
        """(i, j, distance) arrays of at most about _BLOCK_PAIRS pairs each,
        every pair once: sorted position s pairs with the later positions of
        its key runs, and ``spec.pairs`` measures it. Given ``label``, only the
        pairs whose endpoints have different labels are kept, before they are
        measured. The earlier runs hold no later position, so only the runs
        from the middle one on are read.
        """
        pts, spec, order = self.pts, self.spec, self.order
        forward = self.table[:, self.runs.size // 2 - 1 :]  # from the middle run on
        for first in range(0, len(order), _CHUNK_POINTS):
            # per sorted position from ``first``: the start and the length of
            # its later positions in each run
            rows = forward.take(self.cell.take(order[first : first + _CHUNK_POINTS]), axis=0)
            lo, count = rows[:, 0::2], rows[:, 1::2]
            lo[:, 0] = np.arange(first + 1, first + 1 + len(rows))
            count -= lo
            per_point = count[:, 0].copy()
            for k in range(1, count.shape[1]):  # column adds: far faster than sum(axis=1)
                per_point += count[:, k]
            ends = np.cumsum(per_point)
            start = 0
            while start < len(ends):
                done = int(ends[start - 1]) if start else 0
                stop = max(start + 1, int(np.searchsorted(ends, done + _BLOCK_PAIRS, "right")))
                runs = count[start:stop].ravel()
                size = int(ends[stop - 1]) - done
                if size:
                    src = np.repeat(np.arange(first + start, first + stop), per_point[start:stop])
                    dst = _run_positions(lo[start:stop].ravel(), runs)
                    i, j = order.take(src), order.take(dst)
                    if label is not None:
                        cross = np.flatnonzero(label.take(i) != label.take(j))
                        i, j = i.take(cross), j.take(cross)
                    # take: several times faster than a fancy row gather
                    yield i, j, spec.pairs(pts.take(i, 0), pts.take(j, 0))
                start = stop


def _run_positions(lo, count):
    """The positions of the runs ``[lo[k], lo[k] + count[k])``, in order."""
    at = np.repeat(lo - (np.cumsum(count) - count), count)
    at += np.arange(at.size)
    return at


def _kd_pyramid(pts: np.ndarray):
    """Median-split kd-tree over all axes, as levels of one permutation.

    Returns ``perm`` and, per level from the root down, ``(edges, lo, hi,
    child)``: node i holds the points ``perm[edges[i]:edges[i + 1]]``, whose
    box is ``lo[i]`` .. ``hi[i]``, and its children at the next level start
    at index ``child[i]``. A node of two or more points splits at its middle
    along its widest box axis, into nodes ``child[i]`` and ``child[i] + 1``;
    a single point is its own only child. The last level holds n singletons.
    """
    n = pts.shape[0]
    perm = np.arange(n)
    edges = np.array([0, n])
    levels = []
    while True:
        sizes = np.diff(edges)
        held = pts.take(perm, axis=0)
        lo = np.minimum.reduceat(held, edges[:-1], axis=0)
        hi = np.maximum.reduceat(held, edges[:-1], axis=0)
        split = sizes >= 2
        if not split.any():
            levels.append((edges, lo, hi, None))
            return perm, levels
        # sort by node, then by the position in [0, 1] along the node's axis;
        # each node's axis, corner and width are gathered once, then repeated
        node = np.arange(sizes.size)
        width = hi - lo
        axis = np.argmax(width, axis=1)
        width = width[node, axis]
        corner = np.repeat(lo[node, axis], sizes)
        place = held.ravel()[np.arange(0, held.size, held.shape[1]) + np.repeat(axis, sizes)]
        place -= corner
        place /= np.repeat(np.where(width > 0.0, width, 1.0), sizes)
        place += np.repeat(2.0 * node, sizes)
        perm = perm[np.argsort(place, kind="stable")]
        # each child starts where its parent or the parent's middle does
        child = np.arange(sizes.size) + np.cumsum(split) - split
        mids = edges[:-1][split] + sizes[split] // 2
        levels.append((edges, lo, hi, child))
        edges = np.sort(np.concatenate([edges, mids]))


# Node pairs of at most this many point pairs are evaluated in full; at most
# this many node pairs are expanded at once, which bounds the memory.
_LEAF_PAIRS = 64
_PAIR_CHUNK = 2**12


def diameter(cloud: PointCloud, spec: DistanceSpec) -> float:
    """Maximum pairwise distance: the largest value of the row scan
    ``spec.one_to_many(pts[i], pts[i + 1:])`` over all i, bit for bit.

    Two farthest-point hops from point 0 give a first best distance (specs
    are exactly symmetric). If ``spec.distance_bound`` of the whole cloud's
    box extent is ``inf``, one row scan settles the rest: n (n - 1) / 2 + 2 n
    evaluations. Otherwise a branch and bound walks node pairs (x <= y) of
    ``_kd_pyramid`` from the root down, breadth-first within batches of at
    most 4,096 pairs. It drops a pair when the bound of the pair's joint box
    extent is below the best distance so far, evaluates the point pairs of a
    node pair when there are at most 64 of them (through ``spec.pairs``),
    and otherwise moves on to the pairs of children. Every pair that can
    reach the maximum is evaluated, so only the work depends on the bound:
    2.0-2.2 n evaluations on the built-in shapes up to d = 4 and about 10 n
    in d = 5.
    """
    pts = cloud.points
    if len(pts) < 2:
        return 0.0
    hop = spec.one_to_many(pts[0], pts)
    best = max(float(hop.max()), float(spec.one_to_many(pts[int(np.argmax(hop))], pts).max()))
    extent = np.array([c.max() - c.min() for c in pts.T])
    if spec.distance_bound(extent[None])[0] == math.inf:
        rows = (spec.one_to_many(pts[i], pts[i + 1 :]).max() for i in range(len(pts) - 1))
        return max(best, float(max(rows)))
    perm, levels = _kd_pyramid(pts)
    stack = [(0, np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))]
    while stack and best < math.inf:
        depth, x, y = stack.pop()
        edges, lo, hi, child = levels[depth]
        extent = np.maximum(hi[x], hi[y]) - np.minimum(lo[x], lo[y])
        keep = spec.distance_bound(extent) >= best
        x, y = x[keep], y[keep]
        nx, ny = edges[x + 1] - edges[x], edges[y + 1] - edges[y]
        leaf = nx * ny <= _LEAF_PAIRS
        if leaf.any():
            best = max(best, _block_max(pts, spec, perm, edges, x[leaf], y[leaf]))
        x, y, nx, ny = x[~leaf], y[~leaf], nx[~leaf], ny[~leaf]
        if not x.size:
            continue
        # children (cx + a, cy + b); a pair of one node keeps cx + 1 <= cy + 1
        sx, sy = nx >= 2, ny >= 2
        cx, cy = child[x], child[y]
        mask = np.concatenate([np.ones_like(sx), sy, sx & (x != y), sx & sy])
        x = np.concatenate([cx, cx, cx + 1, cx + 1])[mask]
        y = np.concatenate([cy, cy + 1, cy, cy + 1])[mask]
        for k in range(0, x.size, _PAIR_CHUNK):
            stack.append((depth + 1, x[k : k + _PAIR_CHUNK], y[k : k + _PAIR_CHUNK]))
    return best


def _block_max(pts, spec, perm, edges, x, y) -> float:
    """Largest distance over the point pairs of node pairs (x, y), each
    unordered pair once and measured from its lower index like the rows of
    the upper triangle."""
    nx, ny = edges[x + 1] - edges[x], edges[y + 1] - edges[y]
    count = nx * ny
    pair = np.repeat(np.arange(count.size), count)
    offset = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count)
    i = perm[edges[x][pair] + offset // ny[pair]]
    j = perm[edges[y][pair] + offset % ny[pair]]
    # a node paired with itself contributes each of its pairs twice
    once = (x[pair] != y[pair]) | (i < j)
    i, j = i[once], j[once]
    if not i.size:
        return 0.0
    return float(spec.pairs(pts.take(np.maximum(i, j), 0), pts.take(np.minimum(i, j), 0)).max())


def _closest_distance(pts, spec, radius) -> float:
    """Least computed distance over all pairs of rows of ``pts``. A pass at
    ``radius`` measures the pairs in neighbouring cells, which hold every pair
    within ``radius``; it ends the search if one is, or if the pass measured
    every pair. The next pass runs at twice the radius, or at the least value
    found if smaller (sure to end)."""
    while True:
        cells = _CellPairs(pts, spec, radius)
        least = min((float(d.min()) for _, _, d in cells.blocks()), default=math.inf)
        if least <= radius or 2 * cells.total == len(pts) * (len(pts) - 1):
            return least
        radius = min(2.0 * radius, least) or least


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
    sample size". A triple whose two sides both overflow to ``inf`` says
    nothing against the constant and counts as ratio 0, like one with
    d(x, y) = 0; so ``max_ratio`` is never ``nan``.
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
    x, y, z = (pts.take(column, 0) for column in idx.T)
    with np.errstate(over="ignore"):
        num = spec.pairs(x, y)
        den = spec.pairs(x, z) + spec.pairs(z, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((num == 0.0) | (den == math.inf), 0.0, num / den)
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


# Rows formatted per string by write_cloud: about 0.5 MiB of text at d = 2.
_WRITE_ROWS = 4096


def write_cloud(cloud: PointCloud, path) -> None:
    """Write the point-cloud text format: one point per line, coordinates as
    comma-separated decimals (17 significant digits), LF endings, no header.
    """
    pts = cloud.points
    line = ",".join(["%.17g"] * pts.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        # np.savetxt's bytes, formatted a block of rows at a time
        for first in range(0, len(pts), _WRITE_ROWS):
            block = pts[first : first + _WRITE_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


# Bytes that np.loadtxt strips around a coordinate and float() does not.
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def read_cloud(path) -> PointCloud:
    """Read the point-cloud text format, enforcing a uniform dimension.

    A well-formed file is parsed in one ``np.loadtxt`` call, which gives the
    values ``float`` gives. Anything else (malformed or non-UTF-8 text, no
    points, a byte that only loadtxt reads as a space) goes through a scan
    line by line, which reports the first fault with its 1-based line number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    blank = data.isspace() or not data  # loadtxt warns on no lines
    if not blank and not any(byte in data for byte in _LOADTXT_ONLY_SPACE):
        try:
            with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as text:
                return PointCloud(np.loadtxt(text, delimiter=",", ndmin=2, comments=None))
        except ValueError:  # UnicodeDecodeError too: the scan names the fault
            pass
    return PointCloud(_scan_cloud(path))


def _scan_cloud(path) -> np.ndarray:
    """Parse the cloud line by line with ``float``, or raise the first fault
    as an ``InputError`` naming its line."""
    rows = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        try:
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
        except UnicodeDecodeError:
            raise InputError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise InputError(f"{path}: no points found")
    return np.array(rows, dtype=np.float64)
