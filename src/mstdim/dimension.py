"""Dimension estimation from finite samples.

Two estimators that theory says must agree:

* ``box_dimension``: greedy ball packings at a geometric cascade of scales,
  then a log-log regression of packing count against inverse scale. Each
  packing reads one cell grid and its exact pair count: at the fine scales,
  where it holds at most 16 pairs per point, every pair is measured once
  through ``spec.pairs``; at the coarse scales the points are resolved a
  prefix batch of 64 at a time, also through ``spec.pairs``. The grid is
  ``metric._CellPairs``, the one the tree builder reads. Its window and
  scale cap are the constants ``BOX_MIN_COUNT``, ``BOX_MAX_FRACTION`` and
  ``BOX_MAX_SCALES``.
* ``mst_dimension``: growth-rate regression of tree energies against sample
  size across a generator family, inverted through d = alpha / (1 - slope).
  Its replicate count, slope band and crossover slope are the constants
  ``MST_REPLICATES``, ``MST_SLOPE_BAND`` and ``MST_CROSSOVER_SLOPE``.

Energy growth is measured once, by ``_energy_sweep`` (argument checks and
trees) and ``_growth_fits`` (a line per alpha), for ``mst_dimension``, the
``scale`` command and ``theorem1_check`` alike.

Both report their fit points and windows so estimates can be re-examined or
re-fit externally.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .energy import check_alphas, energies
from .errors import EstimationError, InputError, InsufficientScalesError
from .generators import ShapeFamily
from .metric import DistanceSpec, PointCloud, _CellPairs, diameter
from .mst import build_mst_kruskal
from .reports import _jsonable, format_float

__all__ = [
    "PackingResult",
    "greedy_packing",
    "DimensionEstimate",
    "box_dimension",
    "mst_dimension",
    "least_squares_line",
    "eps_count_csv",
    "energy_table_csv",
]

# mst_dimension: replicates per size for random families, the slope band an
# alpha's slope must fall in to be inverted, and the slope below which
# energies count as no longer growing.
MST_REPLICATES = 3
MST_SLOPE_BAND = (0.15, 0.85)
MST_CROSSOVER_SLOPE = 0.05
# box_dimension: a scale is fitted when its count lies in [BOX_MIN_COUNT,
# n * BOX_MAX_FRACTION] (saturation guards at both ends); at most
# BOX_MAX_SCALES scales are packed.
BOX_MIN_COUNT = 8
BOX_MAX_FRACTION = 0.125
BOX_MAX_SCALES = 60
# Greedy packing measures every candidate pair of its grid once, in place of
# the prefix batches, when the grid holds at most this many pairs per point.
_PACK_PAIRS = 16
# Prefix batches: at most this many live points per batch (a row of the
# batch's triangle packs into one 8-byte word), found among this many
# positions from the first live point.
_BATCH_POINTS = 64
_BATCH_WINDOW = 1 << 10


@dataclass
class PackingResult:
    """Centers of a maximal family of disjoint radius-eps balls.

    Chosen centers are pairwise more than 2 eps apart (so closed balls are
    disjoint), and every cloud point lies within 2 eps of some center (the
    greedy packing is maximal, hence also a 2 eps net).
    """

    eps: float
    center_indices: list

    @property
    def count(self) -> int:
        return len(self.center_indices)


@np.errstate(over="ignore")  # a distance that overflows is inf, never a conflict
def greedy_packing(cloud: PointCloud, spec: DistanceSpec, eps: float) -> PackingResult:
    """First-come packing: scan points in cloud order, keep a point iff its
    distance to every kept center exceeds 2 eps (strict).

    The count is a maximal-packing size, a deterministic lower bound on the
    true maximum packing number at the same scale.

    Candidates come from one cell grid, ``metric._CellPairs`` for 2 eps,
    whose neighbouring cells hold every pair within 2 eps; its table of
    occupied cells counts those pairs exactly. Where the grid holds at most
    ``_PACK_PAIRS`` (16) pairs per point, its ``blocks`` measure each pair
    once through ``spec.pairs`` before the scan, and each center evicts its
    later conflicts by one slice. Otherwise ``_batch_scan`` resolves the
    points a prefix batch at a time and evicts through the same grid's
    ``blocks``, given the centers. Entry i of ``pairs`` equals
    ``one_to_many`` bit for bit and specs are exactly symmetric, so either
    way each distance is the one a point-by-point scan computes, and the
    centers are the same, in order.
    """
    if not eps > 0:
        raise InputError("eps must be > 0")
    threshold = 2.0 * eps
    cells = _CellPairs(cloud.points, spec, threshold)
    if cells.total > _PACK_PAIRS * cloud.n:
        return PackingResult(eps=eps, center_indices=_batch_scan(cells, threshold))
    blocks = cells.blocks()
    del cells  # freed once the blocks are spent, before they are joined
    start, later = _conflicts(blocks, threshold, cloud.n)
    live = bytearray(b"\x01") * cloud.n
    live_view = np.frombuffer(live, dtype=np.uint8)
    kept = []
    i = 0
    while i >= 0:
        kept.append(i)
        live_view[later[start[i] : start[i + 1]]] = 0
        i = live.find(1, i + 1)
    return PackingResult(eps=eps, center_indices=kept)


def _batch_scan(cells, threshold) -> list:
    """The first-come centers at ``threshold`` of the points of the grid
    ``cells``, resolved a prefix batch at a time (the prefix scan of
    Blelloch, Fineman and Shun, SPAA 2012).

    A batch is the next live points in index order: those among the
    ``_BATCH_WINDOW`` positions from the first live point, at most
    ``_BATCH_POINTS`` of them. Every live point lies beyond 2 eps of every
    earlier center, and every live point before the batch's last member is
    in the batch, so the batch's own conflicts decide its centers. One
    ``spec.pairs`` call measures its k (k - 1) / 2 pairs, the later point as
    ``lhs``, so each entry is ``one_to_many`` from the earlier point bit for
    bit. Each member's earlier far points become one bitset, and a member is
    a center iff its bitset covers the centers before it. The batch is then
    dead, so ``cells.blocks(live_view, centers)`` with the live flags as its
    label measures exactly the centers' live neighbours, each read when its
    block is reached, and clears those within ``threshold``. A pair is
    measured as (center, neighbour), the same bits as the other way round
    since every spec is exactly symmetric."""
    pts, spec = cells.pts, cells.spec
    live = bytearray(b"\x01") * len(pts)
    live_view = np.frombuffer(live, dtype=np.uint8)
    # row by row: a batch of k members takes the first k (k - 1) / 2 pairs
    later, earlier = np.tril_indices(_BATCH_POINTS, -1)
    entry = later * _BATCH_POINTS + earlier
    kept = []
    i = 0
    while i >= 0:
        batch = np.flatnonzero(live_view[i : i + _BATCH_WINDOW])[:_BATCH_POINTS]
        batch += i
        # far[t, s] for s < t: member s lies beyond 2 eps of member t
        far = np.zeros(_BATCH_POINTS * _BATCH_POINTS, dtype=bool)
        size = len(batch) * (len(batch) - 1) // 2
        if size:
            lhs, rhs = batch.take(later[:size]), batch.take(earlier[:size])
            far[entry[:size]] = spec.pairs(pts.take(lhs, 0), pts.take(rhs, 0)) > threshold
        rows = np.packbits(far, bitorder="little").view("<u8").tolist()
        chosen, picked = 0, []
        for t in range(len(batch)):
            if not chosen & ~rows[t]:
                chosen |= 1 << t
                picked.append(t)
        centers = batch.take(picked)
        kept += centers.tolist()
        live_view[batch] = 0
        for _, j, distance in cells.blocks(live_view, centers):
            live_view[j.take(np.flatnonzero(~(distance > threshold)))] = 0
        i = live.find(1, batch[-1] + 1)
    return kept


def _conflicts(blocks, threshold, n):
    """The pairs of the (i, j, distance) ``blocks`` of n points at distance
    not above ``threshold``, grouped by earlier point: the later points of
    point i are ``later[start[i]:start[i + 1]]``. Each pair is held as one
    int64, the earlier point in the high 32 bits, so one in-place sort groups
    them and the masked result is the intp index array the scan assigns
    through."""
    keys = [np.empty(0, dtype=np.int64)]
    for i, j, distance in blocks:
        # take, flatnonzero: several times faster than fancy and mask indexing
        near = np.flatnonzero(~(distance > threshold))
        i, j = i.take(near), j.take(near)
        key = np.minimum(i, j).astype(np.int64)
        key <<= 32
        key |= np.maximum(i, j)
        keys.append(key)
    later = np.concatenate(keys)
    del keys
    later.sort()
    start = np.searchsorted(later, np.arange(n + 1, dtype=np.int64) << 32)
    later &= 0xFFFFFFFF
    return start, later


def least_squares_line(xs, ys):
    """Slope, intercept and r^2 of the ordinary least-squares line."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size < 2:
        raise InputError("need at least 2 points to fit a line")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise InputError("degenerate fit: all x values identical")
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    residuals = y - (slope * x + intercept)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


@dataclass
class DimensionEstimate:
    """A fitted dimension plus everything needed to audit the fit."""

    method: str
    value: float
    slope: float
    r_squared: float
    fit_points: list
    window: str
    details: dict = field(default_factory=dict)

    def to_text(self) -> str:
        return json.dumps(_jsonable(asdict(self)), indent=2)


def box_dimension(
    cloud: PointCloud,
    spec: DistanceSpec,
    ratio: float = 0.5,
    anchor: float | None = None,
) -> DimensionEstimate:
    """Packing-count dimension: slope of log count against log (1/eps).

    Packs at ``anchor * ratio**j``, j = 1 .. ``BOX_MAX_SCALES`` (anchor
    default: the diameter, measured once the other arguments pass), stopping
    once counts leave the window from above or at the first scale that
    rounds to 0. Where ``ratio**j`` is subnormal or 0 the scale is
    ``ldexp(anchor * m**j, e * j)`` with ``ratio = m * 2**e``, exact to
    rounding. At least 4 scales must survive the window, counts in
    [``BOX_MIN_COUNT``, n * ``BOX_MAX_FRACTION``], or the estimate is
    refused.
    """
    n = cloud.n
    if not 0.0 < ratio < 1.0:
        raise InputError("schedule ratio must lie in (0, 1)")
    if anchor is None:
        anchor = diameter(cloud, spec)
        if anchor == 0.0:
            raise InputError("cannot estimate dimension of coincident points")
    if not 0.0 < anchor < math.inf:
        raise InputError(f"schedule anchor must be finite and > 0, got {anchor}")
    cap = n * BOX_MAX_FRACTION
    window = f"counts in [{BOX_MIN_COUNT}, {cap:g}] of n={n}"
    series = []
    mantissa, exponent = math.frexp(ratio)
    for j in range(1, BOX_MAX_SCALES + 1):
        power = ratio**j
        if power >= 2.0**-1022:
            eps = anchor * power
        else:  # a subnormal or 0 power has lost bits the scale can hold
            eps = math.ldexp(anchor * mantissa**j, exponent * j)
        if eps == 0.0:
            break  # the schedule underflows: no finer scale exists
        count = greedy_packing(cloud, spec, eps).count
        series.append((float(eps), count))
        if count > cap:
            break
    usable = [(eps, count) for eps, count in series if BOX_MIN_COUNT <= count <= cap]
    if len(usable) < 4:
        raise InsufficientScalesError(
            f"only {len(usable)} scales inside the window ({window}); need at least 4",
            details={"series": series},
        )
    xs = [math.log(1.0 / eps) for eps, _ in usable]
    ys = [math.log(count) for _, count in usable]
    slope, intercept, r2 = least_squares_line(xs, ys)
    return DimensionEstimate(
        method="box",
        value=slope,
        slope=slope,
        r_squared=r2,
        fit_points=list(zip(xs, ys)),
        window=window,
        details={
            "series": [[eps, count] for eps, count in series],
            "used": [[eps, count] for eps, count in usable],
            "intercept": intercept,
        },
    )


def _energy_sweep(member, spec: DistanceSpec, sizes, alphas, seeds):
    """Energies indexed [size, seed, alpha] and longest edges indexed [size,
    seed] of the Kruskal trees of the clouds ``member(sizes[i], seeds[i][j])``,
    where ``member`` is a function such as ``ShapeFamily.generate``. Checks
    before the first build: alphas (``check_alphas``, at least one,
    distinct), sizes >= 2 and distinct (kept in order), seeds >= 0 and
    distinct within each size."""
    alphas = check_alphas(alphas)
    if not alphas:
        raise InputError("need at least one alpha")
    if len(set(alphas)) != len(alphas):
        raise InputError("alphas must be distinct")
    if len(set(sizes)) != len(sizes):
        raise InputError("sizes must be distinct")
    if any(len(set(row)) != len(row) for row in seeds):
        raise InputError("seeds must be distinct")
    if min(sizes) < 2:
        raise InputError(f"sizes must be >= 2 (a tree with edges), got {min(sizes)}")
    least_seed = min((s for row in seeds for s in row), default=0)
    if least_seed < 0:
        raise InputError(f"seed must be >= 0, got {least_seed}")
    energy = np.empty((len(sizes), len(seeds[0]), len(alphas)))
    longest = np.empty(energy.shape[:2])
    for i, size in enumerate(sizes):
        for j, seed in enumerate(seeds[i]):
            lengths = build_mst_kruskal(member(size, seed), spec).length
            energy[i, j] = energies(lengths, alphas)
            longest[i, j] = lengths.max()
    return energy, longest


def _growth_fits(sizes, alphas, energy) -> list:
    """Per alpha of an ``_energy_sweep`` table: the series of (log n, mean
    over seeds of log energy) and its least-squares line, whose slope,
    r_squared and intercept are None for a single size."""
    log_n = [math.log(s) for s in sizes]
    fits = []
    for k, a in enumerate(alphas):
        log_e = []
        for size, values in zip(sizes, energy[:, :, k].tolist()):
            if min(values) <= 0.0:
                details = {"size": size, "alpha": a}
                raise EstimationError(f"zero energy at size {size}, alpha {a}", details)
            log_e.append(float(np.mean([math.log(v) for v in values])))
        slope, intercept, r2 = least_squares_line(log_n, log_e) if len(sizes) > 1 else [None] * 3
        series = [[x, y] for x, y in zip(log_n, log_e)]
        fits.append({"slope": slope, "r_squared": r2, "intercept": intercept, "series": series})
    return fits


def mst_dimension(
    family: ShapeFamily,
    spec: DistanceSpec,
    sizes,
    alphas,
    seed: int = 0,
) -> DimensionEstimate:
    """Energy-growth dimension over a generator family.

    For each alpha, fits the slope s(alpha) of log energy against log n.
    Slopes inside ``MST_SLOPE_BAND`` are inverted to an implied dimension
    alpha / (1 - s); the estimate is their median. Random families average
    log energies over ``MST_REPLICATES`` replicates (a geometric mean of
    energies). Also reports the first alpha whose slope falls below
    ``MST_CROSSOVER_SLOPE``, the scale at which energies stop growing, as an
    independent readout.
    """
    sizes = sorted(int(s) for s in sizes)
    alphas = sorted(float(a) for a in alphas)
    if len(sizes) < 3:
        raise InputError("need at least 3 sizes for a growth fit")
    # a random family's replicates draw their seeds from the base seed, fixed
    # shapes ignore it; a negative seed or size passes on to be refused
    draw = family.is_random and min(seed, sizes[0]) >= 0
    seeds = [
        [int(np.random.SeedSequence([seed, n, r]).generate_state(1)[0])
         for r in range(MST_REPLICATES)] if draw else [seed]
        for n in sizes
    ]
    energy, _ = _energy_sweep(family.generate, spec, sizes, alphas, seeds)
    per_alpha_fits = dict(zip(alphas, _growth_fits(sizes, alphas, energy)))
    lo, hi = MST_SLOPE_BAND
    implied = {}
    for a in alphas:
        s = per_alpha_fits[a]["slope"]
        if lo <= s <= hi:
            implied[a] = a / (1.0 - s)
    crossover = next(
        (a for a in alphas if per_alpha_fits[a]["slope"] < MST_CROSSOVER_SLOPE), None
    )
    if not implied:
        raise EstimationError(
            f"no alpha produced a slope inside [{lo}, {hi}]",
            details={
                "fits": {str(a): per_alpha_fits[a] for a in alphas},
                "sizes": sizes,
            },
        )
    used = sorted(implied)
    value = float(np.median([implied[a] for a in used]))
    slope_med = float(np.median([per_alpha_fits[a]["slope"] for a in used]))
    r2_min = min(per_alpha_fits[a]["r_squared"] for a in used)
    span = sizes[-1] / sizes[0]
    return DimensionEstimate(
        method="mst",
        value=value,
        slope=slope_med,
        r_squared=float(r2_min),
        fit_points=[(a, per_alpha_fits[a]["slope"]) for a in alphas],
        window=(
            f"slopes in [{lo}, {hi}] kept alphas {used}; sizes {sizes[0]}..{sizes[-1]}"
            f" ({math.log10(span):.2f} decades)"
        ),
        details={
            "per_alpha": {str(a): per_alpha_fits[a] for a in alphas},
            "implied_dimension": {str(a): implied[a] for a in used},
            "crossover_alpha": crossover,
            "replicates": energy.shape[1],
            "family": family.name,
        },
    )


def eps_count_csv(estimate: DimensionEstimate) -> str:
    """CSV of the full (eps, count) series behind a box estimate."""
    if estimate.method != "box":
        raise InputError("eps/count table exists only for box estimates")
    lines = ["eps,count"]
    for eps, count in estimate.details["series"]:
        lines.append(f"{format_float(float(eps))},{int(count)}")
    return "\n".join(lines) + "\n"


def energy_table_csv(estimate: DimensionEstimate) -> str:
    """CSV of the (n, alpha, energy) table behind an mst estimate."""
    if estimate.method != "mst":
        raise InputError("energy table exists only for mst estimates")
    lines = ["n,alpha,energy"]
    for alpha_text, fit in estimate.details["per_alpha"].items():
        for log_n, log_e in fit["series"]:
            n = round(math.exp(log_n))
            lines.append(
                f"{n},{format_float(float(alpha_text))},{format_float(math.exp(log_e))}"
            )
    return "\n".join(lines) + "\n"
