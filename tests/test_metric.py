import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstdim.errors import InputError
from mstdim.metric import (
    DistanceSpec,
    Lp,
    PointCloud,
    Power,
    PowerQuasi,
    Snowflake,
    diameter,
    distance,
    read_cloud,
    spec_from_string,
    validate_quasi_metric,
    write_cloud,
)

L2 = Lp(2.0)


# ---------------------------------------------------------------- distances


def test_pythagorean_triple():
    assert distance(L2, (0, 0), (3, 4)) == 5.0


def test_snowflake_quarter():
    spec = Snowflake(Lp(1.0), 0.5)
    assert distance(spec, (0.0,), (0.25,)) == 0.5


def test_powerquasi_squares_distance():
    spec = PowerQuasi(L2, 2.0)
    assert distance(spec, (0.0,), (2.0,)) == 4.0


def _reference_terms(p, diff):
    return diff * diff if p == 2.0 else np.abs(diff) if p == 1.0 else np.abs(diff) ** p


def _reference_root(p, total):
    return np.sqrt(total) if p == 2.0 else total if p == 1.0 else total ** (1.0 / p)


def _reference_distances(p, diff):
    """|x_k| ** p summed coordinate by coordinate in order, then the root."""
    terms = _reference_terms(p, diff)
    total = terms[:, 0].copy()
    for k in range(1, diff.shape[1]):
        total += terms[:, k]
    return _reference_root(p, total)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 1.5, 7.25])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 9, 12])
def test_lp_kernels_match_reference_bitwise(p, d):
    # both kernels sum in coordinate order, so pairs equals one_to_many bit
    # for bit (numpy's pairwise .sum differs from d = 8 up)
    rng = np.random.default_rng(d)
    for pts in (rng.random((200, d)) * 10.0 - 5.0, rng.integers(0, 3, (200, d)) * 0.5):
        spec = Lp(p)
        rows = spec.one_to_many(pts[7], pts)
        assert np.array_equal(rows, _reference_distances(p, pts - pts[7]))
        lhs, rhs = pts, np.broadcast_to(pts[7], pts.shape)
        assert np.array_equal(spec.pairs(lhs, rhs), rows)
        lhs, rhs = pts[:100], pts[100:]
        assert np.array_equal(spec.pairs(lhs, rhs), _reference_distances(p, lhs - rhs))


def test_default_pairs_uses_one_to_many_rows():
    class Rows(DistanceSpec):
        def one_to_many(self, a, pts, out=None):
            return Lp(3.0).one_to_many(a, pts, out)

    rng = np.random.default_rng(4)
    lhs, rhs = rng.random((30, 4)), rng.random((30, 4))
    assert np.array_equal(Rows().pairs(lhs, rhs), Lp(3.0).pairs(lhs, rhs))
    with pytest.raises(InputError):
        Rows().pairs(lhs, rhs[:5])


def test_power_specs_are_one_kind():
    snow, quasi = Snowflake(L2, 0.5), PowerQuasi(L2, 2.0)
    assert snow == Power(L2, 0.5) and quasi == Power(L2, 2.0)
    assert snow.describe() == "snowflake:0.5(l2)"
    assert quasi.describe() == "powerquasi:2(l2)"
    assert PowerQuasi(Lp(1.0), 1.0).describe() == "snowflake:1(l1)"
    for e in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            Power(L2, e)


def test_diameter_matches_pairwise_max():
    corners = [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert diameter(PointCloud(corners), L2) == math.sqrt(2.0)
    assert diameter(PointCloud([[0.5, 0.5]]), L2) == 0.0
    assert diameter(PointCloud([[1.0, 2.0], [1.0, 2.0]]), L2) == 0.0
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.random((30, 3)))
    for spec in (L2, Lp(1.0), PowerQuasi(L2, 2.0), Snowflake(L2, 0.5)):
        best = max(
            distance(spec, a, b) for a, b in itertools.combinations(cloud.points, 2)
        )
        assert diameter(cloud, spec) == best


def test_distance_dimension_mismatch():
    with pytest.raises(InputError):
        distance(L2, (0, 0), (1, 2, 3))


def test_distance_zero_iff_equal():
    assert distance(L2, (0.3, 0.7), (0.3, 0.7)) == 0.0
    assert distance(L2, (0.3, 0.7), (0.3, 0.70001)) > 0.0


def test_parameter_validation():
    with pytest.raises(InputError):
        Lp(0.5)
    with pytest.raises(InputError):
        Snowflake(L2, 0.0)
    with pytest.raises(InputError):
        Snowflake(L2, 1.5)
    with pytest.raises(InputError):
        PowerQuasi(L2, 0.9)


def test_weak_triangle_constants():
    assert L2.weak_triangle_const == 1.0
    assert Snowflake(L2, 0.5).weak_triangle_const == 1.0
    assert PowerQuasi(L2, 2.0).weak_triangle_const == 2.0
    assert PowerQuasi(L2, 3.0).weak_triangle_const == 4.0
    # composition: power of a snowflake keeps track of both factors
    assert PowerQuasi(Snowflake(L2, 0.5), 2.0).weak_triangle_const == 2.0


ALL_SPECS = [
    Lp(2.0),
    Lp(1.0),
    Lp(3.0),
    Snowflake(Lp(2.0), 0.5),
    Snowflake(Lp(1.0), 0.7),
    PowerQuasi(Lp(2.0), 2.0),
    PowerQuasi(Lp(2.0), 1.5),
]


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    spec_idx=st.integers(0, len(ALL_SPECS) - 1),
    d=st.integers(1, 4),
)
def test_distance_exactly_symmetric(seed, spec_idx, d):
    spec = ALL_SPECS[spec_idx]
    rng = np.random.default_rng(seed)
    a, b = rng.random(d), rng.random(d)
    assert distance(spec, a, b) == distance(spec, b, a)  # bit-identical


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), spec_idx=st.integers(0, len(ALL_SPECS) - 1))
def test_weak_triangle_never_exceeded(seed, spec_idx):
    spec = ALL_SPECS[spec_idx]
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((30, 2)))
    report = validate_quasi_metric(spec, cloud, trials=300, seed=seed)
    assert report.max_ratio <= spec.weak_triangle_const * (1.0 + 1e-9)
    assert report.passed


# ------------------------------------------------------------ quasi-metric


def test_validate_l2_is_metric():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.random((100, 2)))
    report = validate_quasi_metric(L2, cloud, trials=1000, seed=1)
    assert report.max_ratio <= 1.0 + 1e-9
    assert report.passed


def test_validate_powerquasi_tight_midpoint():
    # d(0,1)/(d(0,1/2)+d(1/2,1)) = 1/(1/4+1/4) = 2, exactly the declared constant
    cloud = PointCloud([[0.0], [0.5], [1.0]])
    spec = PowerQuasi(L2, 2.0)
    assert distance(spec, (0.0,), (1.0,)) / (
        distance(spec, (0.0,), (0.5,)) + distance(spec, (0.5,), (1.0,))
    ) == 2.0
    report = validate_quasi_metric(spec, cloud, trials=2000, seed=3)
    assert report.passed
    assert report.max_ratio == 2.0


def test_snowflake_is_metric_exhaustive_grid():
    # independent oracle: enumerate all triples of a 20-point grid and check
    # the triangle inequality for |x-y|^(1/2) directly
    xs = np.linspace(0.0, 1.0, 20)
    theta = 0.5
    worst = 0.0
    for x, y, z in itertools.product(xs, repeat=3):
        lhs = abs(x - y) ** theta
        rhs = abs(x - z) ** theta + abs(z - y) ** theta
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    assert worst <= 1.0 + 1e-12

    spec = Snowflake(L2, theta)
    cloud = PointCloud(xs.reshape(-1, 1))
    report = validate_quasi_metric(spec, cloud, trials=4000, seed=5)
    assert report.passed
    assert report.max_ratio <= 1.0 + 1e-9


def test_validate_needs_three_points():
    with pytest.raises(InputError):
        validate_quasi_metric(L2, PointCloud([[0.0], [1.0]]), trials=10, seed=0)
    with pytest.raises(InputError):
        validate_quasi_metric(L2, PointCloud([[0.0], [0.5], [1.0]]), trials=0, seed=0)


# --------------------------------------------------------------- PointCloud


def test_cloud_invariants():
    with pytest.raises(InputError):
        PointCloud(np.empty((0, 2)))
    with pytest.raises(InputError):
        PointCloud([[0.0, np.inf]])
    with pytest.raises(InputError):
        PointCloud([[0.0, np.nan]])
    with pytest.raises(InputError):  # finite points, but the span overflows
        PointCloud([[1e308, 0.0], [-1e308, 0.0]])
    assert PointCloud([[1e308, 0.0], [-7e307, 0.0]]).n == 2
    cloud = PointCloud([[0.0, 1.0], [0.0, 1.0]])  # duplicates are legal
    assert cloud.n == 2 and cloud.ambient_dim == 2
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 5.0  # immutable after construction


def test_cloud_1d_list_is_column():
    cloud = PointCloud([0.0, 0.5, 1.0])
    assert cloud.ambient_dim == 1 and cloud.n == 3


def test_cloud_rejects_ragged_and_non_numeric():
    with pytest.raises(InputError):
        PointCloud([[0.0, 1.0], [2.0]])
    with pytest.raises(InputError):
        PointCloud([["a", "b"]])


# ------------------------------------------------------------------ file IO


def test_cloud_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(42)
    cloud = PointCloud(rng.random((50, 3)))
    path = tmp_path / "cloud.csv"
    write_cloud(cloud, path)
    back = read_cloud(path)
    assert np.array_equal(back.points, cloud.points)
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF endings
    assert raw.decode().count("\n") == 50


def test_cloud_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n0.5,oops\n")
    with pytest.raises(InputError, match=":2:"):
        read_cloud(path)
    path.write_text("0.0,1.0\n0.5\n")
    with pytest.raises(InputError, match=":2:"):
        read_cloud(path)
    path.write_text("")
    with pytest.raises(InputError, match="no points"):
        read_cloud(path)


# ------------------------------------------------------------ spec parsing


def test_spec_from_string():
    assert spec_from_string("l2") == Lp(2.0)
    assert spec_from_string("l1") == Lp(1.0)
    assert spec_from_string("lp:2.5") == Lp(2.5)
    assert spec_from_string("snowflake:0.5") == Snowflake(Lp(2.0), 0.5)
    assert spec_from_string("powerquasi:2") == PowerQuasi(Lp(2.0), 2.0)
    with pytest.raises(InputError):
        spec_from_string("linf")
    with pytest.raises(InputError):
        spec_from_string("snowflake:abc")


# ------------------------------------------------------- coordinate bounds

BOUND_SPECS = [
    Lp(1.0),
    L2,
    Lp(3.0),
    Lp(400.0),  # p-th powers underflow: distinct points can read distance 0
    PowerQuasi(L2, 2.0),
    PowerQuasi(Lp(3.0), 3.5),
    Snowflake(L2, 0.5),
    Snowflake(L2, 0.1),
]


@settings(deadline=None, max_examples=120)
@given(
    seed=st.integers(0, 10**6),
    spec_idx=st.integers(0, len(BOUND_SPECS) - 1),
    d=st.integers(1, 4),
    log_scale=st.sampled_from([-200, -160, -20, -1, 0, 3, 100]),
)
def test_coordinate_radius_bounds_coordinate_gaps(seed, spec_idx, d, log_scale):
    # every pair with d(x, y) <= t has max_k |x_k - y_k| <= coordinate_radius(t);
    # t = d(x, y) is the tightest case
    spec = BOUND_SPECS[spec_idx]
    rng = np.random.default_rng(seed)
    pts = rng.random((25, d)) * 10.0**log_scale
    pts[rng.integers(0, 25, 5)] = pts[rng.integers(0, 25, 5)]
    with np.errstate(over="ignore", under="ignore"):
        for i in range(len(pts)):
            dists = spec.one_to_many(pts[i], pts)
            gaps = np.abs(pts - pts[i]).max(axis=1)
            for t, gap in zip(dists.tolist(), gaps.tolist()):
                assert gap <= spec.coordinate_radius(t)
            t = float(np.median(dists))
            assert np.all(gaps[dists <= t] <= spec.coordinate_radius(t))
