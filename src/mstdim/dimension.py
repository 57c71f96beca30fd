"""Dimension estimation from finite samples.

Two estimators that theory says must agree:

* ``box_dimension``: greedy ball packings at a geometric cascade of scales,
  then a log-log regression of packing count against inverse scale.
* ``mst_dimension``: growth-rate regression of tree energies against sample
  size across a generator family, inverted through d = alpha / (1 - slope).

Both report their fit points and windows so estimates can be re-examined or
re-fit externally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import check_alphas, energies
from .errors import EstimationError, InputError, InsufficientScalesError
from .generators import ShapeFamily
from .metric import DistanceSpec, PointCloud, _cell_keys, diameter
from .mst import build_mst_kruskal
from .reports import CheckReport, _jsonable, format_float

__all__ = [
    "PackingResult",
    "greedy_packing",
    "WindowPolicy",
    "DimensionEstimate",
    "box_dimension",
    "mst_dimension",
    "packing_lower_bound_check",
    "least_squares_line",
    "eps_count_csv",
    "energy_table_csv",
]


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


def greedy_packing(cloud: PointCloud, spec: DistanceSpec, eps: float) -> PackingResult:
    """First-come packing: scan points in cloud order, keep a point iff its
    distance to every kept center exceeds 2 eps (strict).

    The count is a maximal-packing size, a deterministic lower bound on the
    true maximum packing number at the same scale.

    The scan is driven by centers: the first point not yet within 2 eps of a
    center is the next center, and one ``one_to_many`` call evicts every live
    point of the neighbouring grid cells within 2 eps of it. The cells are
    sized by ``spec.coordinate_radius(2 eps)``, so no conflicting point is
    missed; IEEE subtraction is antisymmetric, so each distance equals the one
    a point-by-point scan computes, and the centers are the same, in order.
    """
    if not eps > 0:
        raise InputError("eps must be > 0")
    pts = cloud.points
    threshold = 2.0 * eps
    key, runs = _cell_keys(pts, spec.coordinate_radius(threshold))
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    live = bytearray(b"\x01") * cloud.n
    live_view = np.frombuffer(live, dtype=np.uint8)
    kept = []
    i = 0
    while i >= 0:
        kept.append(i)
        ends = np.searchsorted(sorted_key, key[i] + runs).tolist()
        cand = np.concatenate(
            [order[a:b] for a, b in zip(ends[0::2], ends[1::2]) if a < b]
        )
        cand = cand[live_view[cand].view(bool)]
        dists = spec.one_to_many(pts[i], pts[cand])
        live_view[cand[~(dists > threshold)]] = 0
        i = live.find(1, i + 1)
    return PackingResult(eps=eps, center_indices=kept)


@dataclass(frozen=True)
class WindowPolicy:
    """Scale filter for box fits: keep scales with
    min_count <= count <= n * max_fraction (saturation guards at both ends).
    """

    min_count: int = 8
    max_fraction: float = 0.125

    def __post_init__(self):
        if not (self.min_count >= 1 and 0.0 < self.max_fraction <= 1.0):
            raise InputError(f"window needs min count >= 1 and fraction in (0, 1]: {self}")

    def keep(self, count: int, n: int) -> bool:
        return self.min_count <= count <= n * self.max_fraction

    def describe(self, n: int) -> str:
        return f"counts in [{self.min_count}, {n * self.max_fraction:g}] of n={n}"


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
        record = {
            "method": self.method,
            "value": self.value,
            "slope": self.slope,
            "r_squared": self.r_squared,
            "fit_points": self.fit_points,
            "window": self.window,
            "details": self.details,
        }
        return json.dumps(_jsonable(record), indent=2)


def default_eps_schedule(diam: float, ratio: float = 0.5, max_scales: int = 60):
    """Geometric cascade eps_j = diam * ratio^j, j = 1..max_scales."""
    if not (0.0 < ratio < 1.0):
        raise InputError("schedule ratio must lie in (0, 1)")
    if not (0.0 < diam < math.inf and max_scales >= 1):
        raise InputError(f"need a finite anchor > 0 and max scales >= 1, got {diam}, {max_scales}")
    return [diam * ratio**j for j in range(1, max_scales + 1)]


def box_dimension(
    cloud: PointCloud,
    spec: DistanceSpec,
    window: WindowPolicy | None = None,
    ratio: float = 0.5,
    anchor: float | None = None,
    max_scales: int = 60,
) -> DimensionEstimate:
    """Packing-count dimension: slope of log count against log (1/eps).

    Scales shrink geometrically (``ratio`` per step, default halving) from
    ``anchor`` (default: the cloud diameter) downward, stopping once counts
    leave the window from above. At least 4 scales must survive the window or
    the estimate is refused.
    """
    window = window or WindowPolicy()
    n = cloud.n
    if anchor is None:
        anchor = diameter(cloud, spec)
    if anchor <= 0.0:
        raise InputError("cannot estimate dimension of coincident points")
    cap = n * window.max_fraction
    series = []
    for eps in default_eps_schedule(anchor, ratio, max_scales):
        count = greedy_packing(cloud, spec, eps).count
        series.append((float(eps), count))
        if count > cap or count >= n:
            break
    usable = [(eps, count) for eps, count in series if window.keep(count, n)]
    if len(usable) < 4:
        raise InsufficientScalesError(
            f"only {len(usable)} scales inside the window "
            f"({window.describe(n)}); need at least 4",
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
        window=window.describe(n),
        details={
            "series": [[eps, count] for eps, count in series],
            "used": [[eps, count] for eps, count in usable],
            "intercept": intercept,
        },
    )


def _replicate_seed(base_seed: int, size: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([base_seed, size, rep])


def mst_dimension(
    family: ShapeFamily,
    spec: DistanceSpec,
    sizes,
    alphas,
    seed: int = 0,
    reps: int = 3,
    slope_band=(0.15, 0.85),
    crossover_slope: float = 0.05,
) -> DimensionEstimate:
    """Energy-growth dimension over a generator family.

    For each alpha, fits the slope s(alpha) of log energy against log n.
    Slopes inside ``slope_band`` are inverted to an implied dimension
    alpha / (1 - s); the estimate is their median. Random families average
    log energies over ``reps`` replicates (a geometric mean of energies).
    Also reports the first alpha whose slope falls below ``crossover_slope``,
    the scale at which energies stop growing, as an independent readout.
    """
    sizes = sorted(int(s) for s in sizes)
    alphas = sorted(check_alphas(float(a) for a in alphas))
    if len(sizes) < 3:
        raise InputError("need at least 3 sizes for a growth fit")
    if not alphas:
        raise InputError("need at least one alpha")
    if len(set(sizes)) != len(sizes):
        raise InputError("sizes must be distinct")
    if sizes[0] < 2:
        raise InputError(f"sizes must be >= 2 (a tree with edges), got {sizes[0]}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    n_reps = reps if family.is_random else 1
    if family.is_random and reps < 3:
        raise InputError("random families need at least 3 replicates")
    log_energy = {a: [] for a in alphas}
    for size in sizes:
        per_alpha = {a: [] for a in alphas}
        for rep in range(n_reps):
            if family.is_random:
                rep_seed = int(_replicate_seed(seed, size, rep).generate_state(1)[0])
            else:
                rep_seed = 0
            cloud = family.generate(size, seed=rep_seed)
            tree = build_mst_kruskal(cloud, spec)
            for a, val in zip(alphas, energies(tree.length, alphas)):
                if val <= 0.0:
                    raise EstimationError(
                        f"zero energy at size {size}, alpha {a}",
                        details={"size": size, "alpha": a},
                    )
                per_alpha[a].append(math.log(val))
        for a in alphas:
            log_energy[a].append(float(np.mean(per_alpha[a])))
    log_n = [math.log(s) for s in sizes]
    per_alpha_fits = {}
    for a in alphas:
        slope, intercept, r2 = least_squares_line(log_n, log_energy[a])
        per_alpha_fits[a] = {
            "slope": slope,
            "r_squared": r2,
            "intercept": intercept,
            "series": [[x, y] for x, y in zip(log_n, log_energy[a])],
        }
    lo, hi = slope_band
    implied = {}
    for a in alphas:
        s = per_alpha_fits[a]["slope"]
        if lo <= s <= hi:
            implied[a] = a / (1.0 - s)
    crossover = next(
        (a for a in alphas if per_alpha_fits[a]["slope"] < crossover_slope), None
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
            "replicates": n_reps,
            "family": family.name,
        },
    )


def packing_lower_bound_check(
    cloud: PointCloud, spec: DistanceSpec, eps: float, alpha: float
) -> CheckReport:
    """Energy floor from a packing: over the packing centers every tree edge
    must exceed 2 eps, hence the alpha-energy of their tree is at least
    (count - 1) (2 eps)^alpha. Reports both sides.
    """
    check_alphas([alpha])
    packing = greedy_packing(cloud, spec, eps)
    if packing.count < 2:
        raise InputError("packing produced fewer than 2 centers, nothing to check")
    centers = PointCloud(cloud.points[packing.center_indices])
    lengths = build_mst_kruskal(centers, spec).length
    min_edge = float(lengths.min())
    (energy_value,) = energies(lengths, [alpha])
    bound = (packing.count - 1) * (2.0 * eps) ** alpha
    edges_ok = min_edge > 2.0 * eps
    energy_ok = energy_value >= bound * (1.0 - 1e-12)
    return CheckReport(
        name="packing-lower-bound",
        parameters={"eps": eps, "alpha": alpha, "count": packing.count},
        passed=bool(edges_ok and energy_ok),
        min_slack=min(min_edge - 2.0 * eps, energy_value - bound),
        details={
            "min_edge": min_edge,
            "edge_threshold": 2.0 * eps,
            "energy": energy_value,
            "energy_bound": bound,
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
