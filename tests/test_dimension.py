import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstdim import dimension
from mstdim.dimension import (
    BOX_MAX_FRACTION,
    BOX_MAX_SCALES,
    BOX_MIN_COUNT,
    box_dimension,
    energy_table_csv,
    eps_count_csv,
    greedy_packing,
    least_squares_line,
    mst_dimension,
)
from mstdim.errors import EstimationError, InputError, InsufficientScalesError
from mstdim.generators import ShapeFamily, builtin_shape, generate_grid
from mstdim.metric import Lp, PointCloud, PowerQuasi, Snowflake, _CellPairs, diameter
from mstdim.mst import build_mst_prim
from specs import Chebyshev, Counting, packing_lower_bound_check

L2 = Lp(2.0)


# ------------------------------------------------------------------ packing


def test_packing_two_far_points():
    cloud = PointCloud([[0.0], [1.0]])
    result = greedy_packing(cloud, L2, 0.25)
    assert result.count == 2 and result.center_indices == [0, 1]


def test_packing_strict_boundary():
    # middle point sits exactly at distance 2 eps: not strictly farther, dropped
    cloud = PointCloud([[0.0], [0.5], [1.0]])
    result = greedy_packing(cloud, L2, 0.25)
    assert result.center_indices == [0, 2]


def test_packing_eps_validation():
    with pytest.raises(InputError):
        greedy_packing(PointCloud([[0.0]]), L2, 0.0)
    with pytest.raises(InputError):
        greedy_packing(PointCloud([[0.0]]), L2, float("nan"))


def test_cantor_packing_counts_match_branching():
    # oracle: at eps = 3^-k / 2 the depth-8 approximant keeps exactly one
    # point per level-k cluster, 2^k in total (cluster gaps exceed 3^-k)
    cloud, _ = builtin_shape("cantor", 8)
    for k in range(1, 7):
        result = greedy_packing(cloud, L2, 3.0**-k / 2.0)
        assert result.count == 2**k, k


def _reference_packing(cloud, spec, eps):
    """Point-by-point scan: keep a point iff its distance to every kept center
    exceeds 2 eps. The packing must return exactly these centers."""
    pts = cloud.points
    kept = [0]
    for i in range(1, cloud.n):
        if np.all(spec.one_to_many(pts[i], pts[kept]) > 2.0 * eps):
            kept.append(i)
    return kept


PACKING_SPECS = [
    Lp(1.0),
    L2,
    Lp(3.0),
    PowerQuasi(L2, 2.0),
    Snowflake(L2, 0.5),
]


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 70),
    d=st.integers(1, 5),
    lattice=st.booleans(),
    spec_idx=st.integers(0, len(PACKING_SPECS) - 1),
    eps_from_pair=st.booleans(),
    eps=st.floats(min_value=1e-3, max_value=3.0),
)
def test_packing_matches_point_by_point_scan(
    seed, n, d, lattice, spec_idx, eps_from_pair, eps
):
    rng = np.random.default_rng(seed)
    if lattice:
        pts = rng.integers(0, 4, (n, d)).astype(np.float64)  # ties and duplicates
    else:
        pts = rng.random((n, d))
        pts[rng.integers(0, n, n // 4)] = pts[rng.integers(0, n, n // 4)]
    cloud = PointCloud(pts)
    spec = PACKING_SPECS[spec_idx]
    if eps_from_pair:
        # 2 eps equals a pair distance exactly: the strict keep rule decides
        i, j = rng.integers(0, n, 2)
        eps = float(spec.one_to_many(pts[i], pts[j : j + 1])[0]) / 2.0 or eps
    result = greedy_packing(cloud, spec, eps)
    assert result.center_indices == _reference_packing(cloud, spec, eps)


@pytest.mark.parametrize(
    "offset, spread, eps",
    [
        (1e15, 40.0, 0.5),  # coordinates near 1e15, integer gaps, ties at 2 eps
        (1e15, 4.0, 0.5),  # the same, dense: over 16 pairs per point
        (0.0, 1e6, 1e-9),  # far more than 2**20 cells per axis: side is coarsened
        (-3.0, 1e-6, 1e-3),  # every point in one cell
    ],
)
def test_packing_grid_extremes_match_scan(offset, spread, eps):
    rng = np.random.default_rng(11)
    pts = rng.random((300, 3)) * spread
    if spread > 1.0:
        pts = np.round(pts)  # integer gaps: pair distances tie with 2 eps
    cloud = PointCloud(offset + pts)
    for spec in (L2, Lp(1.0), PowerQuasi(L2, 2.0)):
        result = greedy_packing(cloud, spec, eps)
        assert result.center_indices == _reference_packing(cloud, spec, eps)


def test_packing_without_coordinate_bound_is_exact():
    spec = Chebyshev()
    assert spec.coordinate_radius(0.5) == math.inf
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.integers(0, 6, (200, 2)).astype(np.float64))
    for eps in (0.5, 1.0, 1.25, 2.0):
        result = greedy_packing(cloud, spec, eps)
        assert result.center_indices == _reference_packing(cloud, spec, eps)


def test_packing_measures_sparse_scales_pair_by_pair():
    # the last scale of dim-box on grid 64 (7.8 pairs per point): every pair
    # of neighbouring cells once, no kernel call per center; the first scale
    # (every point near every other) resolves its first batch of 64 points
    # with one call, and its one center evicts the rest with one more
    cloud = generate_grid(64, 2)
    anchor = diameter(cloud, L2)
    last = Counting(L2)
    assert greedy_packing(cloud, last, anchor * 0.5**7).count == 2048
    assert last.calls["one_to_many"] == 0 and last.evals <= 16 * cloud.n
    first = Counting(L2)
    assert greedy_packing(cloud, first, anchor * 0.5).count == 1
    assert first.calls == {"one_to_many": 0, "pairs": 2}


def _batch_cases(n):
    """Clouds of n points whose packing grid holds over 16 pairs per point,
    with eps: the grid keys 3 coordinates, so points apart only in the
    fourth share one cell."""
    rng = np.random.default_rng(n)
    line = np.zeros((n, 4))
    line[:, 3] = np.arange(n) * 0.3
    apart = np.zeros((n, 4))
    apart[:, 3] = np.arange(n)
    lattice = rng.integers(0, [2, 2, 2, 4], (n, 4)).astype(np.float64)
    return [
        (apart, 0.4),  # every point a center
        (line, 0.45),  # 2 eps = 3 steps: in-batch and cross-batch conflicts
        (line[::-1].copy(), 0.2),
        (rng.random((n, 2)) * 1e-6, 1e-3),  # all points in one cell
        (rng.integers(0, 3, (n, 2)).astype(np.float64), 0.5),  # duplicates, ties at 2 eps
        (lattice, 0.5),  # lattice ties at 2 eps
        (lattice, 1.0),
    ]


@pytest.mark.parametrize("spec", [L2, Lp(1.0), PowerQuasi(L2, 2.0)], ids=str)
@pytest.mark.parametrize("n", [63, 64, 65, 129])
@pytest.mark.parametrize("small", [False, True], ids=["constants", "small-chunks"])
def test_packing_batches_match_scan(spec, n, small, monkeypatch):
    # the prefix batches meet the batch and eviction boundaries; with small
    # chunks, runs are cut into pieces and batches end at their window
    if small:
        monkeypatch.setattr(dimension, "_EVICT_PAIRS", 5)
        monkeypatch.setattr(dimension, "_BATCH_WINDOW", 40)
    for pts, eps in _batch_cases(n):
        cloud = PointCloud(pts)
        assert _CellPairs(cloud.points, spec, 2.0 * eps).total > dimension._PACK_PAIRS * n
        result = greedy_packing(cloud, spec, eps)
        assert result.center_indices == _reference_packing(cloud, spec, eps)


def test_packing_batch_work_bound():
    # carpet depth 5 at 3^-4.5 (35.7 pairs per point, 3,114 centers): batches
    # of 64 live points and chunked evictions make at most 300 kernel calls
    # and 12 distance evaluations per point (275 and 11.1 measured)
    cloud, _ = builtin_shape("sierpinski-carpet", 5)
    counting = Counting(L2)
    assert greedy_packing(cloud, counting, 3.0**-4.5).count == 3114
    assert counting.calls["one_to_many"] == 0 and counting.calls["pairs"] <= 300
    assert counting.evals <= 12 * cloud.n


def test_packing_memory_bound():
    cloud, _ = builtin_shape("sierpinski-carpet", 5)
    tracemalloc.start()
    try:
        greedy_packing(cloud, L2, 3.0**-5)  # 12.7 pairs per point, 7,401 centers
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_packing_single_point():
    assert greedy_packing(PointCloud([[2.0, 3.0]]), L2, 0.1).center_indices == [0]


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), eps=st.floats(min_value=0.01, max_value=0.6))
def test_packing_invariants(seed, eps):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((60, 2)))
    result = greedy_packing(cloud, L2, eps)
    centers = cloud.points[result.center_indices]
    # separation: pairwise strictly beyond 2 eps
    for i in range(len(centers) - 1):
        d = np.linalg.norm(centers[i + 1 :] - centers[i], axis=1)
        assert np.all(d > 2.0 * eps)
    # maximality: every point within 2 eps of some center
    for p in cloud.points:
        assert np.linalg.norm(centers - p, axis=1).min() <= 2.0 * eps


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10**6))
def test_packing_monotone_on_dyadic_schedule(seed):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((80, 2)))
    counts = [
        greedy_packing(cloud, L2, math.sqrt(2.0) * 2.0**-j).count
        for j in range(1, 8)
    ]
    assert counts == sorted(counts)  # nonincreasing in eps


# ------------------------------------------------------------ box dimension


def test_box_cantor_exact_with_aligned_schedule():
    cloud, _ = builtin_shape("cantor", 9)
    est = box_dimension(cloud, L2, ratio=1.0 / 3.0)
    assert est.method == "box"
    assert est.value == pytest.approx(math.log(2) / math.log(3), abs=1e-9)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert len(est.fit_points) >= 4


def test_box_cantor_default_dyadic():
    cloud, _ = builtin_shape("cantor", 9)
    est = box_dimension(cloud, L2)
    assert abs(est.value - 0.6309) <= 0.05


def test_box_grid_full_dimensional():
    est = box_dimension(generate_grid(64, 2), L2)
    # the packing count on a bounded square carries a strong boundary bias at
    # this sample size; the estimate lands well below 2 (see also acceptance)
    assert 1.6 <= est.value <= 2.05
    assert est.r_squared > 0.99


def test_box_snowflake_interval_doubles_dimension():
    cloud, _ = builtin_shape("interval", 4096)
    est = box_dimension(
        cloud, Snowflake(L2, 0.5), ratio=2.0**-0.5
    )
    assert abs(est.value - 2.0) <= 0.1


def test_box_insufficient_scales():
    cloud = PointCloud(np.random.default_rng(0).random((12, 2)))
    with pytest.raises(InsufficientScalesError) as err:
        box_dimension(cloud, L2)
    assert "series" in err.value.details


@pytest.mark.parametrize(
    "schedule",
    [{"ratio": 1.5}, {"ratio": 0.0}, {"ratio": 1.0},
     {"anchor": 0.0}, {"anchor": -1.0}, {"anchor": math.nan}, {"anchor": math.inf}],
    ids=["ratio-1.5", "ratio-0", "ratio-1", "anchor-0", "anchor-negative",
         "anchor-nan", "anchor-inf"],
)
def test_box_schedule_checked_before_the_diameter(monkeypatch, schedule):
    def no_diameter(*args):
        raise AssertionError("measured the diameter before checking the schedule")

    monkeypatch.setattr(dimension, "diameter", no_diameter)
    with pytest.raises(InputError) as err:
        box_dimension(generate_grid(8, 2), L2, **schedule)
    # an explicit anchor is refused as such, not as coincident points
    assert "coincident" not in str(err.value)


def test_box_scales_are_anchor_times_powers_of_ratio():
    cloud, _ = builtin_shape("cantor", 9)
    est = box_dimension(cloud, L2, ratio=1.0 / 3.0, anchor=1.0)
    series = [eps for eps, _ in est.details["series"]]
    assert series == [1.0 * (1.0 / 3.0) ** j for j in range(1, len(series) + 1)]


def test_box_window_respected():
    # the fit keeps exactly the scales whose counts lie in the window, and
    # packing stops at the first scale past its top
    cloud, _ = builtin_shape("cantor", 9)
    est = box_dimension(cloud, L2, ratio=1.0 / 3.0)
    cap = BOX_MAX_FRACTION * cloud.n
    counts = [c for _, c in est.details["series"]]
    assert [c for _, c in est.details["used"]] == [c for c in counts if BOX_MIN_COUNT <= c <= cap]
    assert all(c <= cap for c in counts[:-1]) and counts[-1] > cap
    assert len(counts) <= BOX_MAX_SCALES
    assert est.window == f"counts in [{BOX_MIN_COUNT}, {cap:g}] of n={cloud.n}"


# ----------------------------------------------------------- least squares


def test_least_squares_known_line():
    slope, intercept, r2 = least_squares_line([0, 1, 2, 3], [1, 3, 5, 7])
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert intercept == pytest.approx(1.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_least_squares_validation():
    with pytest.raises(InputError):
        least_squares_line([1.0], [2.0])
    with pytest.raises(InputError):
        least_squares_line([1.0, 1.0], [1.0, 2.0])


# ------------------------------------------------------------ mst dimension


def test_mst_dim_interval_exact():
    # path of n equispaced points: energy (n-1) h^alpha is an exact power law
    fam = ShapeFamily("interval")
    est = mst_dimension(
        fam, L2, sizes=[64, 128, 256, 512, 1024], alphas=[0.4, 0.6, 0.8], seed=0
    )
    assert abs(est.value - 1.0) <= 0.05
    assert est.r_squared > 0.999


def test_mst_dim_grid():
    fam = ShapeFamily("grid", dim=2)
    est = mst_dimension(
        fam,
        L2,
        sizes=[36, 81, 169, 361, 784, 1764, 4096],
        alphas=[0.5, 0.8, 1.1, 1.4],
        seed=0,
    )
    assert abs(est.value - 2.0) <= 0.15


def test_mst_dim_cantor_low_alpha():
    fam = ShapeFamily("cantor")
    est = mst_dimension(
        fam,
        L2,
        sizes=[32, 64, 128, 256, 512, 1024, 2048, 4096],
        alphas=[0.2, 0.3, 0.4],
        seed=0,
    )
    assert abs(est.value - 0.6309) <= 0.1


def test_mst_dim_uniform_with_replicates():
    fam = ShapeFamily("uniform-cube", dim=2)
    est = mst_dimension(
        fam,
        L2,
        sizes=[256, 512, 1024, 2048],
        alphas=[0.6, 1.0, 1.4],
        seed=11,
    )
    assert abs(est.value - 2.0) <= 0.25
    assert est.details["replicates"] == 3
    one_alpha = est.details["per_alpha"]["1.0"]
    assert abs(one_alpha["slope"] - 0.5) <= 0.08


def test_mst_dim_crossover_reported():
    fam = ShapeFamily("interval")
    est = mst_dimension(
        fam,
        L2,
        sizes=[64, 128, 256, 512, 1024],
        alphas=[0.5, 1.0, 1.5, 2.0, 2.5],
        seed=0,
    )
    # energies stop growing once alpha reaches the dimension (1 here)
    assert est.details["crossover_alpha"] == pytest.approx(1.0, abs=0.51)


def test_mst_dim_estimation_failure_carries_diagnostics():
    fam = ShapeFamily("interval")
    with pytest.raises(EstimationError) as err:
        mst_dimension(fam, L2, sizes=[64, 128, 256], alphas=[5.0], seed=0)
    assert "fits" in err.value.details
    assert "5.0" in err.value.details["fits"]


def test_mst_dim_validation():
    fam = ShapeFamily("interval")
    with pytest.raises(InputError):
        mst_dimension(fam, L2, sizes=[64, 128], alphas=[0.5], seed=0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            mst_dimension(fam, L2, sizes=[64, 128, 256], alphas=[bad, 1.0], seed=0)


# ------------------------------------------------- packing lower bound check


def test_packing_bound_trivial_pair():
    cloud = PointCloud([[0.0], [1.0]])
    report = packing_lower_bound_check(cloud, L2, eps=0.25, alpha=1.0)
    assert report.passed
    assert report.details["min_edge"] == 1.0
    assert report.details["energy_bound"] == pytest.approx(0.5, rel=1e-15)


def test_packing_bound_cantor():
    cloud, _ = builtin_shape("cantor", 8)
    report = packing_lower_bound_check(cloud, L2, eps=3.0**-4 / 2.0, alpha=0.63)
    assert report.passed


def test_packing_bound_grid():
    cloud = generate_grid(32, 2)
    report = packing_lower_bound_check(cloud, L2, eps=1.0 / 16.0, alpha=2.0)
    assert report.passed


def test_packing_bound_needs_two_centers():
    cloud = PointCloud([[0.0], [0.1]])
    with pytest.raises(InputError):
        packing_lower_bound_check(cloud, L2, eps=0.5, alpha=1.0)


# ----------------------------------------------------- volume count bound


def _long_edge_volume_bound(d, eps):
    """Volume cap on the number of edges longer than eps in a greedy tree over
    [0,1]^d with the l2 metric: disjoint balls of radius eps/3 around the
    later endpoints all fit inside the eps/3-fattened cube."""
    ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * (eps / 3.0) ** d
    box = (1.0 + 2.0 * eps / 3.0) ** d
    return box / ball


@pytest.mark.parametrize("d", [2, 3])
def test_long_edge_count_under_volume_bound(d):
    from mstdim.generators import generate_uniform

    cloud = generate_uniform(500, d, seed=4)
    tree = build_mst_prim(cloud, L2)
    for k in range(1, 9):
        eps = 2.0**-k
        assert np.count_nonzero(tree.length > eps) <= _long_edge_volume_bound(d, eps)


# ----------------------------------------------------------------- exports


def test_eps_count_csv_roundtrip():
    cloud, _ = builtin_shape("cantor", 9)
    est = box_dimension(cloud, L2, ratio=1.0 / 3.0)
    text = eps_count_csv(est)
    lines = text.strip().splitlines()
    assert lines[0] == "eps,count"
    eps0, count0 = lines[1].split(",")
    assert float(eps0) == est.details["series"][0][0]
    assert int(count0) == est.details["series"][0][1]


def test_energy_table_csv():
    fam = ShapeFamily("interval")
    est = mst_dimension(
        fam, L2, sizes=[64, 128, 256, 512], alphas=[0.5, 1.0], seed=0
    )
    text = energy_table_csv(est)
    lines = text.strip().splitlines()
    assert lines[0] == "n,alpha,energy"
    assert len(lines) == 1 + 2 * 4
    with pytest.raises(InputError):
        eps_count_csv(est)


def test_estimate_record_serializes():
    cloud, _ = builtin_shape("cantor", 9)
    est = box_dimension(cloud, L2, ratio=1.0 / 3.0)
    import json

    record = json.loads(est.to_text())
    assert record["method"] == "box"
    assert record["value"] == pytest.approx(est.value, rel=1e-15)
    assert len(record["fit_points"]) == len(est.fit_points)
