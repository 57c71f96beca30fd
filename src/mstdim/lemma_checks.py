"""Executable verifiers for the geometric facts behind the energy bounds.

Each checker returns a CheckReport with the smallest observed slack rather
than a bare boolean, so a drifting margin is visible before it ever flips a
result. The numbered names follow the toolkit's verification catalogue:

* lemma1: midpoint inequality for near-unit vectors, sampled with both
  norms within 5% of 1,
* lemma2: disjointness of the balls of radius length/10 around edge midpoints
  of a minimal tree (Euclidean only, midpoints must exist),
* lemma4: disjointness of the balls of radius eps/3 around the later endpoint
  of every tree edge longer than eps (any quasi-metric; closest pair found
  by ``metric._closest_distance`` over the cell grid of ``metric._CellPairs``),
* theorem1: boundedness of the normalized energy constant across a sweep of
  uniform clouds.

Every inequality is tested with the rounding slack ``TOL``; theorem1's bound
and trend factor are ``THEOREM1_THRESHOLD`` and ``THEOREM1_TREND_FACTOR``.
"""

from __future__ import annotations

import math

import numpy as np

from .dimension import _energy_sweep
from .errors import InputError
from .generators import ShapeFamily
from .metric import DistanceSpec, Lp, PointCloud, _closest_distance
from .mst import SpanningTree
from .reports import CheckReport

__all__ = [
    "lemma1_sweep",
    "lemma2_check",
    "lemma4_check",
    "theorem1_check",
    "normalized_constant",
]

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0
# Absolute slack for rounding in every inequality the lemma checks test.
TOL = 1e-12
# theorem1: the bound on the normalized constant, and the most the mean of
# the last third of sizes may exceed the mean of the first third by.
THEOREM1_THRESHOLD = 1.0
THEOREM1_TREND_FACTOR = 1.1


def lemma1_sweep(trials: int, d: int, seed: int) -> CheckReport:
    """Midpoint inequality for near-unit vectors: norms >= 1 and separation
    <= 1 force the midpoint norm up to at least sqrt(3)/2. Rejection-samples
    pairs that satisfy the hypotheses, with both norms within 5% of 1 where
    the inequality is tightest, and counts midpoint counterexamples."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if d < 1:
        raise InputError("d must be >= 1")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    norm_hi = 1.05
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
        counterexamples += int(np.count_nonzero(mids < SQRT3_OVER_2 - TOL))
        accepted += take
    return CheckReport(
        name="lemma1-sweep",
        parameters={"trials": trials, "dim": d, "seed": seed},
        passed=counterexamples == 0,
        min_slack=min_slack,
        details={"counterexamples": counterexamples},
    )


def lemma2_check(cloud: PointCloud, tree: SpanningTree) -> CheckReport:
    """Midpoint-ball disjointness on a Euclidean minimal tree: for every edge
    pair the midpoints must be at least (len_e + len_f)/10 apart.

    Edge midpoints are taken in coordinates, which only matches ball centers
    under the l2 metric: the tree must be built under l2. Each edge's row of
    ``Lp(2.0).one_to_many`` measures its midpoint against the later edges'.
    """
    m = len(tree.length)
    min_slack, worst_pair = None, None
    pts, lengths = cloud.points, tree.length
    mids = (pts[tree.u] + pts[tree.v]) / 2.0
    l2 = Lp(2.0)
    for i in range(m - 1):
        slack = l2.one_to_many(mids[i], mids[i + 1 :])
        slack -= (lengths[i] + lengths[i + 1 :]) / 10.0
        k = int(np.argmin(slack))
        # a strict < keeps the first minimum in row-major triangle order
        if worst_pair is None or slack[k] < min_slack:
            min_slack, worst_pair = float(slack[k]), [i, i + 1 + k]
    return CheckReport(
        name="lemma2",
        parameters={"n": cloud.n, "edges": m, "tol": TOL},
        passed=min_slack is None or bool(min_slack >= -TOL),
        min_slack=min_slack,
        details={"worst_pair": worst_pair},
    )


def lemma4_check(
    cloud: PointCloud, spec: DistanceSpec, tree: SpanningTree, eps: float
) -> CheckReport:
    """Separation of the later endpoints of long edges in a greedily grown
    tree: for every edge longer than eps, take the endpoint that entered the
    tree last; all collected vertices must be pairwise at least 2 eps / 3
    apart (divided by the weak-triangle constant for quasi-metrics). The
    tree must come from ``"prim"``, whose edge order is the growth order.

    The exact least distance comes from a closest-pair search over the cell
    grid, from twice the threshold up, or from the least length of a long
    edge between two collected vertices if larger: that length bounds the
    closest pair, so the first pass ends the search. In up to 3 dimensions
    it evaluates a few distances per collected vertex (at most 3.6 on 2,000
    points, uniform, cantor and carpet, eps 2^-1 to 2^-10). The grid keys 3
    coordinates, so d >= 4 is the quadratic regime. A pass that measures all
    m (m - 1) / 2 pairs of m vertices ends the search: at most 1.07 times
    that count on 2,000 uniform points in d = 5, and one pass without a
    coordinate bound."""
    if not eps > 0:
        raise InputError("eps must be > 0")
    if tree.builder != "prim":
        raise InputError(f"lemma 4 reads the growth order of a prim tree, got {tree.builder!r}")
    # edge k's v joined the tree at step k + 1, after its u
    long = tree.length > eps
    chosen = tree.v[long]
    c_w = spec.weak_triangle_const
    threshold = 2.0 * eps / (3.0 * c_w)
    min_dist = None
    if len(chosen) >= 2:
        # a long edge between two chosen vertices bounds the closest pair:
        # searching from its length up, the first pass finds it
        radius = 2.0 * threshold
        mark = np.zeros(cloud.n, dtype=bool)
        mark[chosen] = True
        inner = tree.length[long][mark[tree.u[long]]]
        if inner.size:
            radius = max(radius, float(inner.min()))
        min_dist = _closest_distance(cloud.points[chosen], spec, radius)
    return CheckReport(
        name="lemma4",
        parameters={
            "eps": eps,
            "threshold": threshold,
            "weak_triangle_const": c_w,
            "n": cloud.n,
        },
        passed=min_dist is None or bool(min_dist >= threshold - TOL),
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


def theorem1_check(d: int, alphas, sizes, seeds) -> CheckReport:
    """Sweep uniform clouds under l2 (every seed at every size) and test
    that the normalized energy constant stays at most ``THEOREM1_THRESHOLD``
    and does not drift upward with n.

    For each size the constant is averaged over seeds; per alpha, the mean of
    the last third of sizes must not exceed the mean of the first third by
    more than the factor ``THEOREM1_TREND_FACTOR``.
    """
    sizes = sorted(int(s) for s in sizes)
    alphas = [float(a) for a in alphas]
    seeds = list(seeds)
    if len(sizes) < 3:
        raise InputError("need at least 3 sizes for a trend check")
    member = ShapeFamily("uniform-cube", d).generate
    energy, _ = _energy_sweep(member, Lp(2.0), sizes, alphas, [seeds] * len(sizes))
    max_c = 0.0
    trends = {}
    all_ok = True
    third = max(1, len(sizes) // 3)
    for k, a in enumerate(alphas):
        constants = [
            [normalized_constant(value, n, d, a) for value in values]
            for n, values in zip(sizes, energy[:, :, k].tolist())
        ]
        means = [float(np.mean(c)) for c in constants]
        max_c = max(max_c, max(float(np.max(c)) for c in constants))
        first = float(np.mean(means[:third]))
        last = float(np.mean(means[-third:]))
        ok = last <= first * THEOREM1_TREND_FACTOR
        trends[a] = {"first_third": first, "last_third": last, "ok": ok, "means": means}
        all_ok = all_ok and ok
    passed = all_ok and max_c <= THEOREM1_THRESHOLD
    return CheckReport(
        name="theorem1",
        parameters={
            "d": d,
            "alphas": alphas,
            "sizes": sizes,
            "seeds": seeds,
            "threshold": THEOREM1_THRESHOLD,
            "trend_factor": THEOREM1_TREND_FACTOR,
        },
        passed=bool(passed),
        min_slack=THEOREM1_THRESHOLD - max_c,
        details={
            "max_constant": max_c,
            "trends": {str(a): trends[a] for a in alphas},
        },
    )
