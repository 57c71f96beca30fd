"""Executable verifiers for the geometric facts behind the energy bounds.

Each checker returns a CheckReport with the smallest observed slack rather
than a bare boolean, so a drifting margin is visible before it ever flips a
result. The numbered names follow the toolkit's verification catalogue:

* lemma1: midpoint inequality for near-unit vectors,
* lemma2: disjointness of the balls of radius length/10 around edge midpoints
  of a minimal tree (Euclidean only, midpoints must exist),
* lemma4: disjointness of the balls of radius eps/3 around the later endpoint
  of every tree edge longer than eps (any quasi-metric; closest pair found
  over the cell grid),
* theorem1: boundedness of the normalized energy constant across a sweep of
  uniform clouds.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .generators import generate_uniform
from .energy import check_alphas, energies
from .metric import DistanceSpec, Lp, PointCloud
from .mst import SpanningTree, _closest_distance, build_mst_kruskal
from .reports import CheckReport

__all__ = [
    "lemma1_check",
    "lemma1_sweep",
    "lemma2_check",
    "lemma4_check",
    "theorem1_check",
    "normalized_constant",
]

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0
# lemma2 compares all edge midpoints pairwise in row blocks of about this many
# coordinate differences (32 MiB of float64), not as one m x m x d array.
LEMMA2_BLOCK_ELEMENTS = 1 << 22


def lemma1_check(w1, w2, tol: float = 1e-12) -> CheckReport:
    """Midpoint inequality: norms >= 1 and separation <= 1 force the midpoint
    norm up to at least sqrt(3)/2.

    A counterexample is flagged only when the hypotheses hold (within tol)
    and the conclusion fails; pairs violating the hypotheses pass vacuously.
    """
    w1 = np.asarray(w1, dtype=np.float64).reshape(-1)
    w2 = np.asarray(w2, dtype=np.float64).reshape(-1)
    if w1.shape != w2.shape:
        raise InputError("vectors must have equal dimension")
    n1 = float(np.linalg.norm(w1))
    n2 = float(np.linalg.norm(w2))
    sep = float(np.linalg.norm(w1 - w2))
    mid = float(np.linalg.norm((w1 + w2) / 2.0))
    hypotheses = n1 >= 1.0 - tol and n2 >= 1.0 - tol and sep <= 1.0 + tol
    conclusion = mid >= SQRT3_OVER_2 - tol
    counterexample = hypotheses and not conclusion
    return CheckReport(
        name="lemma1",
        parameters={"dim": int(w1.shape[0]), "tol": tol},
        passed=not counterexample,
        min_slack=mid - SQRT3_OVER_2,
        details={
            "norm_w1": n1,
            "norm_w2": n2,
            "separation": sep,
            "midpoint_norm": mid,
            "hypotheses_hold": hypotheses,
            "conclusion_holds": conclusion,
        },
    )


def lemma1_sweep(
    trials: int, d: int, seed: int, near_boundary: bool = True
) -> CheckReport:
    """Rejection-sample hypothesis-satisfying pairs and hunt for midpoint
    counterexamples. ``near_boundary`` keeps both norms within 5% of 1, where
    the inequality is tightest."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if d < 1:
        raise InputError("d must be >= 1")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    norm_hi = 1.05 if near_boundary else 3.0
    accepted = 0
    counterexamples = 0
    min_slack = math.inf
    attempts = 0
    while accepted < trials:
        attempts += 1
        if attempts > 2000:
            raise InputError("sampler failed to reach the requested trial count")
        batch = max(4096, trials - accepted)
        u = rng.normal(size=(batch, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        w1 = u * rng.uniform(1.0, norm_hi, size=(batch, 1))
        delta = rng.normal(size=(batch, d))
        delta /= np.linalg.norm(delta, axis=1, keepdims=True)
        delta *= rng.uniform(0.0, 1.0, size=(batch, 1)) ** (1.0 / d)
        w2 = w1 + delta
        norms2 = np.linalg.norm(w2, axis=1)
        ok = (norms2 >= 1.0) & (norms2 <= norm_hi)
        w1, w2 = w1[ok], w2[ok]
        take = min(len(w1), trials - accepted)
        if take == 0:
            continue
        w1, w2 = w1[:take], w2[:take]
        mids = np.linalg.norm((w1 + w2) / 2.0, axis=1)
        slack = mids - SQRT3_OVER_2
        min_slack = min(min_slack, float(slack.min()))
        counterexamples += int(np.count_nonzero(mids < SQRT3_OVER_2 - 1e-12))
        accepted += take
    return CheckReport(
        name="lemma1-sweep",
        parameters={"trials": trials, "dim": d, "seed": seed},
        passed=counterexamples == 0,
        min_slack=min_slack,
        details={"counterexamples": counterexamples, "near_boundary": near_boundary},
    )


def lemma2_check(cloud: PointCloud, tree: SpanningTree, tol: float = 1e-12) -> CheckReport:
    """Midpoint-ball disjointness on a Euclidean minimal tree: for every edge
    pair the midpoints must be at least (len_e + len_f)/10 apart.

    Edge midpoints are taken in coordinates, which only matches ball centers
    under the l2 metric: the tree must be built under l2.
    """
    m = len(tree.length)
    min_slack, worst_pair = None, None
    if m >= 2:
        pts, lengths = cloud.points, tree.length
        mids = (pts[tree.u] + pts[tree.v]) / 2.0
        # row-major blocks with a strict < keep the first minimum of the triangle
        rows = max(1, LEMMA2_BLOCK_ELEMENTS // (m * mids.shape[1]))
        for r0 in range(0, m - 1, rows):
            r1 = min(r0 + rows, m - 1)
            diff = mids[r0:r1, None, :] - mids[None, r0 + 1 :, :]
            mid_dist = np.sqrt((diff**2).sum(-1))
            required = (lengths[r0:r1, None] + lengths[None, r0 + 1 :]) / 10.0
            slack = mid_dist - required
            # column c of the block is edge r0 + 1 + c; keep only j > i
            slack[np.tril_indices(r1 - r0, k=-1, m=slack.shape[1])] = np.inf
            k = int(np.argmin(slack))
            if worst_pair is None or slack.flat[k] < min_slack:
                min_slack = float(slack.flat[k])
                i, c = divmod(k, slack.shape[1])
                worst_pair = [r0 + i, r0 + 1 + c]
    return CheckReport(
        name="lemma2",
        parameters={"n": cloud.n, "edges": m, "tol": tol},
        passed=min_slack is None or bool(min_slack >= -tol),
        min_slack=min_slack,
        details={"worst_pair": worst_pair},
    )


def lemma4_check(
    cloud: PointCloud,
    spec: DistanceSpec,
    tree: SpanningTree,
    eps: float,
    tol: float = 1e-12,
) -> CheckReport:
    """Separation of the later endpoints of long edges in a greedily grown
    tree: for every edge longer than eps, take the endpoint that entered the
    tree last; all collected vertices must be pairwise at least 2 eps / 3
    apart (divided by the weak-triangle constant for quasi-metrics).

    The exact least distance comes from a closest-pair search over the cell
    grid, from twice the threshold up. In up to 3 dimensions it evaluates a
    few distances per collected vertex (at most 5.4 on 2,000 points, uniform,
    cantor and carpet). The grid keys 3 coordinates, so d >= 4 is the
    quadratic regime. A pass that measures all m (m - 1) / 2 pairs of m
    vertices ends the search: at most 1.07 times that count on 2,000
    uniform points in d = 5, and one pass without a coordinate bound."""
    if not eps > 0:
        raise InputError("eps must be > 0")
    if tree.insertion_rank is None:
        raise InputError("tree lacks insertion ranks, build it with prim")
    rank = np.asarray(tree.insertion_rank)
    long = tree.length > eps
    u, v = tree.u[long], tree.v[long]
    chosen = np.where(rank[v] > rank[u], v, u)
    c_w = spec.weak_triangle_const
    threshold = 2.0 * eps / (3.0 * c_w)
    min_dist = None
    if len(chosen) >= 2:
        min_dist = _closest_distance(cloud.points[chosen], spec, 2.0 * threshold)
    return CheckReport(
        name="lemma4",
        parameters={
            "eps": eps,
            "threshold": threshold,
            "weak_triangle_const": c_w,
            "n": cloud.n,
        },
        passed=min_dist is None or bool(min_dist >= threshold - tol),
        min_slack=None if min_dist is None else min_dist - threshold,
        details={"long_edges": len(chosen), "min_center_distance": min_dist},
    )


def normalized_constant(energy_value: float, n: int, d: int, alpha: float) -> float:
    """Empirical absolute constant implied by an energy sample:
    (E / n^max(0, 1 - alpha/d))^(1/alpha) / sqrt(d)."""
    if energy_value <= 0 or n < 1 or d < 1 or alpha <= 0:
        raise InputError("all arguments must be positive")
    exponent = max(0.0, 1.0 - alpha / d)
    return (energy_value / n**exponent) ** (1.0 / alpha) / math.sqrt(d)


def theorem1_check(
    d: int,
    alphas,
    sizes,
    seeds,
    threshold: float = 1.0,
    trend_factor: float = 1.1,
) -> CheckReport:
    """Sweep uniform clouds and test that the normalized energy constant stays
    bounded and does not drift upward with n.

    For each size the constant is averaged over seeds; per alpha, the mean of
    the last third of sizes must not exceed the mean of the first third by
    more than ``trend_factor``.
    """
    sizes = sorted(int(s) for s in sizes)
    alphas = check_alphas(float(a) for a in alphas)
    seeds = list(seeds)
    if len(sizes) < 3:
        raise InputError("need at least 3 sizes for a trend check")
    table = {a: {n: [] for n in sizes} for a in alphas}
    for n in sizes:
        for seed in seeds:
            cloud = generate_uniform(n, d, seed)
            tree = build_mst_kruskal(cloud, Lp(2.0))
            for a, value in zip(alphas, energies(tree.length, alphas)):
                table[a][n].append(normalized_constant(value, n, d, a))
    max_c = 0.0
    trends = {}
    all_ok = True
    third = max(1, len(sizes) // 3)
    for a in alphas:
        means = [float(np.mean(table[a][n])) for n in sizes]
        max_c = max(max_c, max(float(np.max(table[a][n])) for n in sizes))
        first = float(np.mean(means[:third]))
        last = float(np.mean(means[-third:]))
        ok = last <= first * trend_factor
        trends[a] = {"first_third": first, "last_third": last, "ok": ok, "means": means}
        all_ok = all_ok and ok
    passed = all_ok and max_c <= threshold
    return CheckReport(
        name="theorem1",
        parameters={
            "d": d,
            "alphas": alphas,
            "sizes": sizes,
            "seeds": seeds,
            "threshold": threshold,
            "trend_factor": trend_factor,
        },
        passed=bool(passed),
        min_slack=threshold - max_c,
        details={
            "max_constant": max_c,
            "trends": {str(a): trends[a] for a in alphas},
        },
    )
