"""Acceptance suite: one test per criterion, every tolerance pinned here.

Each criterion prints a PASS/FAIL line (collected into the terminal summary
by conftest). Criteria 7 and 8 run per shape. The box estimates reuse one
frozen schedule per shape: the library default (diameter-anchored halving)
for the full-dimensional grid, and schedules aligned with each fractal's
contraction ratio for the self-similar sets.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from mstdim.cli import main
from mstdim.dimension import box_dimension, mst_dimension
from mstdim.energy import energies
from mstdim.generators import ShapeFamily, builtin_shape, generate_uniform
from mstdim.lemma_checks import lemma2_check, lemma4_check, normalized_constant
from mstdim.metric import (
    Lp,
    PointCloud,
    PowerQuasi,
    Snowflake,
    validate_quasi_metric,
    write_cloud,
)
from mstdim.mst import build_mst_kruskal, build_mst_prim
from specs import brute_force_min_tree, packing_lower_bound_check

L2 = Lp(2.0)
REL = 1e-12


def relerr(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def geometric_mean(values):
    return float(np.exp(np.mean(np.log(values))))


def fit_slope(xs, ys):
    x = np.asarray(xs, float)
    y = np.asarray(ys, float)
    xm, ym = x.mean(), y.mean()
    return float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="session")
def thm1_sweep():
    """Uniform d=2 sweep shared by criteria 5 and 6: sorted MST edge lengths
    for n in {2^8..2^14}, 5 seeds per size."""
    sizes = [2**k for k in range(8, 15)]
    seeds = [0, 1, 2, 3, 4]
    started = time.monotonic()
    lengths = {}
    for n in sizes:
        for seed in seeds:
            cloud = generate_uniform(n, 2, seed=seed * 1_000_003 + n)
            tree = build_mst_prim(cloud, L2)
            lengths[(n, seed)] = np.sort(tree.length)
    elapsed = time.monotonic() - started
    return {"sizes": sizes, "seeds": seeds, "lengths": lengths, "elapsed": elapsed}


BOX_SETTINGS = {
    # shape key: (builder args, schedule ratio, schedule anchor or None=diam)
    "grid-64": (("grid", 64, 2), 0.5, None),
    "cantor-9": (("cantor", 9, None), 1.0 / 3.0, None),
    "sierpinski-7": (("sierpinski-triangle", 7, None), 0.5, 1.0),
    "carpet-5": (("sierpinski-carpet", 5, None), 3.0**-0.5, 1.0),
}

BOX_TARGETS = {
    "grid-64": (2.00, 0.05),
    "cantor-9": (0.631, 0.05),
    "sierpinski-7": (1.585, 0.07),
    "carpet-5": (1.893, 0.08),
}

MST_SETTINGS = {
    # shape key: (family name, dim, sizes, alphas)
    "grid-64": ("grid", 2, [36, 81, 169, 361, 784, 1764, 4096], [0.5, 0.8, 1.1, 1.4]),
    "cantor-9": ("cantor", None, [2**k for k in range(5, 13)], [0.15, 0.25, 0.35, 0.45]),
    "sierpinski-7": ("sierpinski-triangle", None, [3**k for k in range(3, 9)], [0.4, 0.7, 1.0, 1.3]),
    "carpet-5": ("sierpinski-carpet", None, [8**k for k in range(2, 6)], [0.4, 0.8, 1.2, 1.6]),
}


@pytest.fixture(scope="session")
def shape_clouds():
    return {
        key: builtin_shape(name, size, dim=dim)[0]
        for key, ((name, size, dim), _, _) in BOX_SETTINGS.items()
    }


@pytest.fixture(scope="session")
def box_estimates(shape_clouds):
    started = time.monotonic()
    estimates = {}
    for key, (_, ratio, anchor) in BOX_SETTINGS.items():
        estimates[key] = box_dimension(
            shape_clouds[key], L2, ratio=ratio, anchor=anchor
        )
    elapsed = time.monotonic() - started
    return {"estimates": estimates, "elapsed": elapsed}


@pytest.fixture(scope="session")
def mst_estimates():
    estimates = {}
    for key, (name, dim, sizes, alphas) in MST_SETTINGS.items():
        family = ShapeFamily(name, dim=dim)
        estimates[key] = mst_dimension(family, L2, sizes=sizes, alphas=alphas, seed=0)
    return estimates


# -------------------------------------------------------------- criterion 1


def test_criterion_1_mst_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(1, 4))
        cloud = PointCloud(rng.random((n, d)))
        prim_total = energies(build_mst_prim(cloud, L2).length, [1.0])[0]
        kruskal_total = energies(build_mst_kruskal(cloud, L2).length, [1.0])[0]
        _, brute = brute_force_min_tree(cloud, L2, 1.0)
        worst = max(worst, relerr(prim_total, brute), relerr(kruskal_total, brute))
    elapsed = time.monotonic() - started
    ok = worst <= REL and elapsed < 10.0
    record_criterion(
        f"[criterion 1] {'PASS' if ok else 'FAIL'} prim/kruskal vs brute force: "
        f"max rel err {worst:.3g} (tol 1e-12), {elapsed:.1f}s (< 10s)"
    )
    assert worst <= REL
    assert elapsed < 10.0


# -------------------------------------------------------------- criterion 2


def test_criterion_2_energy_minimizer_universality():
    rng = np.random.default_rng(202)
    started = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        cloud = PointCloud(rng.random((n, 2)))
        kruskal = build_mst_kruskal(cloud, L2)
        lengths = np.sort(kruskal.length)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            value = float(np.sum(lengths**alpha))
            _, brute = brute_force_min_tree(cloud, L2, alpha)
            worst = max(worst, relerr(value, brute))
    elapsed = time.monotonic() - started
    ok = worst <= REL and elapsed < 20.0
    record_criterion(
        f"[criterion 2] {'PASS' if ok else 'FAIL'} length-minimal tree minimizes "
        f"every alpha-energy: max rel err {worst:.3g}, {elapsed:.1f}s (< 20s)"
    )
    assert worst <= REL
    assert elapsed < 20.0


# -------------------------------------------------------------- criterion 3


def test_criterion_3_midpoint_ball_disjointness():
    violations = 0
    min_slack = math.inf
    for i in range(100):
        d = 2 if i < 50 else 3
        cloud = generate_uniform(100, d, seed=300 + i)
        tree = build_mst_prim(cloud, L2)
        report = lemma2_check(cloud, tree)
        min_slack = min(min_slack, report.min_slack)
        if not report.passed:
            violations += 1
    ok = violations == 0
    record_criterion(
        f"[criterion 3] {'PASS' if ok else 'FAIL'} midpoint balls disjoint on "
        f"100 trees: {violations} violations, min slack {min_slack:.4g}"
    )
    assert violations == 0


# -------------------------------------------------------------- criterion 4


def test_criterion_4_long_edge_endpoint_separation():
    clouds = [generate_uniform(500, 2, seed=41), generate_uniform(500, 2, seed=42),
              generate_uniform(500, 3, seed=43), generate_uniform(500, 3, seed=44),
              builtin_shape("cantor", 8)[0],
              builtin_shape("sierpinski-triangle", 6)[0]]
    violations = 0
    checks = 0
    for spec in (L2, PowerQuasi(L2, 2.0)):
        for cloud in clouds:
            tree = build_mst_prim(cloud, spec)
            for k in range(1, 9):
                report = lemma4_check(cloud, spec, tree, eps=2.0**-k)
                checks += 1
                if not report.passed:
                    violations += 1
    ok = violations == 0
    record_criterion(
        f"[criterion 4] {'PASS' if ok else 'FAIL'} later-endpoint separation "
        f"(incl. quasi-metric, relaxed threshold): {violations}/{checks} violations"
    )
    assert violations == 0


# -------------------------------------------------------------- criterion 5


def test_criterion_5_growth_exponent_subcritical(thm1_sweep):
    sizes, seeds = thm1_sweep["sizes"], thm1_sweep["seeds"]
    log_n = [math.log(n) for n in sizes]
    geo = {
        n: geometric_mean(
            [float(np.sum(thm1_sweep["lengths"][(n, s)])) for s in seeds]
        )
        for n in sizes
    }
    slope = fit_slope(log_n, [math.log(geo[n]) for n in sizes])
    constants = {
        n: np.mean(
            [
                normalized_constant(
                    float(np.sum(thm1_sweep["lengths"][(n, s)])), n, 2, 1.0
                )
                for s in seeds
            ]
        )
        for n in sizes
    }
    means = [constants[n] for n in sizes]
    third = max(1, len(sizes) // 3)
    trend_ok = float(np.mean(means[-third:])) <= 1.1 * float(np.mean(means[:third]))
    elapsed = thm1_sweep["elapsed"]
    ok = 0.43 <= slope <= 0.57 and trend_ok and elapsed < 60.0
    record_criterion(
        f"[criterion 5] {'PASS' if ok else 'FAIL'} alpha=1 growth: slope "
        f"{slope:.4f} in [0.43, 0.57], constant trend "
        f"{'ok' if trend_ok else 'UPWARD'}, sweep {elapsed:.1f}s (< 60s)"
    )
    assert 0.43 <= slope <= 0.57
    assert trend_ok
    assert elapsed < 60.0


# -------------------------------------------------------------- criterion 6


def test_criterion_6_bounded_energy_supercritical(thm1_sweep):
    """For alpha = 3 > d = 2 the MST energy of uniform clouds is bounded
    independently of n: it must not grow (slope at most 0.1) and its
    normalized constant must not drift upward (same trend rule as criterion 5
    and theorem1_check).

    Bounded does not mean flat. The typical MST edge of n uniform points is
    about n^-1/2, so E_3 ~ n * n^-3/2 = n^-1/2 (Steele, Ann. Probab. 1988):
    the expected slope is 1 - alpha/d = -0.5, and a decaying energy is
    bounded.
    """
    alpha, d = 3.0, 2
    sizes, seeds = thm1_sweep["sizes"], thm1_sweep["seeds"]
    log_n = [math.log(n) for n in sizes]
    energies = {
        (n, s): float(np.sum(thm1_sweep["lengths"][(n, s)] ** alpha))
        for n in sizes
        for s in seeds
    }
    geo = {n: geometric_mean([energies[(n, s)] for s in seeds]) for n in sizes}
    slope = fit_slope(log_n, [math.log(geo[n]) for n in sizes])
    means = [
        np.mean([normalized_constant(energies[(n, s)], n, d, alpha) for s in seeds])
        for n in sizes
    ]
    third = max(1, len(sizes) // 3)
    trend_ok = float(np.mean(means[-third:])) <= 1.1 * float(np.mean(means[:third]))
    ok = slope <= 0.1 and trend_ok
    record_criterion(
        f"[criterion 6] {'PASS' if ok else 'FAIL'} alpha=3 energy bounded: slope "
        f"{slope:.4f} <= 0.1 (reference 1 - alpha/d = {1.0 - alpha / d:.1f}), "
        f"constant trend {'ok' if trend_ok else 'UPWARD'}"
    )
    assert slope <= 0.1
    assert trend_ok


# -------------------------------------------------------------- criterion 7


@pytest.mark.parametrize("key", list(BOX_SETTINGS))
def test_criterion_7_box_dimension(key, box_estimates):
    estimate = box_estimates["estimates"][key]
    target, tol = BOX_TARGETS[key]
    ok = abs(estimate.value - target) <= tol
    elapsed = box_estimates["elapsed"]
    runtime_ok = elapsed < 60.0
    record_criterion(
        f"[criterion 7][{key}] {'PASS' if ok and runtime_ok else 'FAIL'} box "
        f"dimension {estimate.value:.4f} vs {target} +/- {tol} "
        f"(all-shape runtime {elapsed:.1f}s < 60s)"
    )
    assert runtime_ok
    assert abs(estimate.value - target) <= tol


# -------------------------------------------------------------- criterion 8


@pytest.mark.parametrize("key", list(MST_SETTINGS))
def test_criterion_8_two_estimators_agree(key, box_estimates, mst_estimates):
    sizes = MST_SETTINGS[key][2]
    decades = math.log10(sizes[-1] / sizes[0])
    assert decades >= 2.0, "size schedule must span two decades"
    box = box_estimates["estimates"][key].value
    mst = mst_estimates[key].value
    gap = abs(mst - box)
    ok = gap <= 0.1
    record_criterion(
        f"[criterion 8][{key}] {'PASS' if ok else 'FAIL'} |mst {mst:.4f} - box "
        f"{box:.4f}| = {gap:.4f} (tol 0.1, sizes span {decades:.2f} decades)"
    )
    assert gap <= 0.1


# -------------------------------------------------------------- criterion 9


PACKING_SCALES = {
    "grid-64": [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
    "cantor-9": [3.0**-2 / 2.0, 3.0**-3 / 2.0, 3.0**-4 / 2.0],
    "sierpinski-7": [2.0**-3, 2.0**-4, 2.0**-5],
    "carpet-5": [3.0**-2 / 2.0, 3.0**-3 / 2.0, 3.0**-4 / 2.0],
}


@pytest.mark.parametrize("key", list(PACKING_SCALES))
def test_criterion_9_packing_energy_floor(key, shape_clouds):
    cloud = shape_clouds[key]
    known = BOX_TARGETS[key][0]
    failures = 0
    runs = 0
    for eps in PACKING_SCALES[key]:
        for alpha in (1.0, known):
            report = packing_lower_bound_check(cloud, L2, eps=eps, alpha=alpha)
            runs += 1
            if not report.passed:
                failures += 1
    ok = failures == 0
    record_criterion(
        f"[criterion 9][{key}] {'PASS' if ok else 'FAIL'} packing energy floor: "
        f"{failures}/{runs} violations"
    )
    assert failures == 0


# ------------------------------------------------------------- criterion 10


def test_criterion_10_quasi_metric_support():
    cloud, _ = builtin_shape("interval", 4096)
    snow = Snowflake(L2, 0.5)
    box = box_dimension(cloud, snow, ratio=2.0**-0.5)
    box_ok = abs(box.value - 2.0) <= 0.1

    family = ShapeFamily("interval")
    mst = mst_dimension(
        family,
        snow,
        sizes=[40, 80, 160, 320, 640, 1280, 2560, 4096],
        alphas=[0.5, 0.8, 1.1, 1.4],
        seed=0,
    )
    gap = abs(mst.value - box.value)
    mst_ok = gap <= 0.15

    quasi = validate_quasi_metric(PowerQuasi(L2, 2.0), cloud, trials=2000, seed=10)
    quasi_ok = (
        quasi.details["max_ratio"] <= 2.0 * (1.0 + 1e-9)
        and quasi.details["max_ratio"] >= 1.9
        and quasi.passed
    )
    ok = box_ok and mst_ok and quasi_ok
    record_criterion(
        f"[criterion 10] {'PASS' if ok else 'FAIL'} snowflake interval: box "
        f"{box.value:.4f} (2.0 +/- 0.1), |mst-box| {gap:.4f} (<= 0.15), "
        f"weak-triangle max ratio {quasi.details['max_ratio']:.4f} (<= 2, witness >= 1.9)"
    )
    assert box_ok
    assert mst_ok
    assert quasi_ok


# ------------------------------------------------------------- criterion 11


def test_criterion_11_bitwise_determinism(tmp_path, capsys):
    scale_args = [
        "scale", "--shape", "uniform-cube", "--dim", "2", "--sizes", "256,512",
        "--alphas", "1.0,3.0", "--seeds", "0,1,2",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(scale_args + ["--out", str(a)]) == 0
    assert main(scale_args + ["--out", str(b)]) == 0
    scale_same = a.read_bytes() == b.read_bytes()

    cloud, _ = builtin_shape("cantor", 9)
    cloud_path = tmp_path / "c.csv"
    write_cloud(cloud, cloud_path)
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    box_args = ["dim-box", "--in", str(cloud_path), "--ratio", str(1.0 / 3.0)]
    assert main(box_args + ["--csv", str(c1)]) == 0
    assert main(box_args + ["--csv", str(c2)]) == 0
    box_same = c1.read_bytes() == c2.read_bytes()
    capsys.readouterr()

    ok = scale_same and box_same
    record_criterion(
        f"[criterion 11] {'PASS' if ok else 'FAIL'} repeated commands are "
        f"bitwise identical (scale: {scale_same}, dim-box csv: {box_same})"
    )
    assert scale_same
    assert box_same
