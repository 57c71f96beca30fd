import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstdim.errors import InputError
from mstdim.generators import builtin_shape, generate_uniform
from mstdim.metric import (
    DistanceSpec,
    Lp,
    PointCloud,
    Power,
    PowerQuasi,
    Snowflake,
    _CellPairs,
    diameter,
    distance,
    read_cloud,
    spec_from_string,
    validate_quasi_metric,
    write_cloud,
)
from specs import Chebyshev, Counting
from specs import diameter as row_scan_diameter

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


def _outlier_cloud():
    pts = np.random.default_rng(6).random((500, 2))
    pts[123] = (1e9, 1e9)
    return PointCloud(pts)


DIAMETER_CASES = {
    "n-1": (lambda: PointCloud([[0.5, 0.5]]), L2),
    "n-2": (lambda: PointCloud([[0.1, 0.7], [3.0, -5.5]]), Lp(3.0)),
    "coincident": (lambda: PointCloud(np.full((40, 3), 0.25)), L2),
    "grid-l2": (lambda: builtin_shape("grid", 64)[0], L2),  # many tied maxima
    "grid-l1": (lambda: builtin_shape("grid", 64)[0], Lp(1.0)),
    "outlier": (_outlier_cloud, L2),
    "uniform-d5-lp3": (lambda: generate_uniform(3000, 5, 2), Lp(3.0)),
    "cantor-powerquasi": (lambda: builtin_shape("cantor", 10)[0], PowerQuasi(L2, 2.0)),
    "chebyshev": (lambda: PointCloud(np.random.default_rng(7).random((300, 3))), Chebyshev()),
}


@pytest.mark.parametrize("case", list(DIAMETER_CASES))
def test_diameter_equals_the_row_scan_bitwise(case):
    make, spec = DIAMETER_CASES[case]
    cloud = make()
    assert diameter(cloud, spec) == row_scan_diameter(cloud, spec)


DIAMETER_SPECS = [L2, Lp(1.0), Lp(3.0), Lp(400.0), PowerQuasi(L2, 2.0), Snowflake(L2, 0.5), Chebyshev()]


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 400),
    d=st.integers(1, 5),
    spec_idx=st.integers(0, len(DIAMETER_SPECS) - 1),
)
def test_diameter_equals_the_row_scan_on_random_clouds(seed, n, d, spec_idx):
    spec = DIAMETER_SPECS[spec_idx]
    rng = np.random.default_rng(seed)
    # anisotropic clouds, with repeated points: the first hops miss the
    # farthest pair more often
    pts = rng.random((n, d)) * 10.0 ** rng.integers(-2, 3, d)
    pts[rng.integers(0, n, n // 4)] = pts[rng.integers(0, n, n // 4)]
    cloud = PointCloud(pts)
    with np.errstate(over="ignore", under="ignore"):  # lp:400
        assert diameter(cloud, spec) == row_scan_diameter(cloud, spec)


# Stated before the work: the pyramid keeps diameter within 8 n evaluations
# (the two hops cost 2 n) on these clouds.
@pytest.mark.parametrize(
    "make, spec",
    [
        (lambda: builtin_shape("sierpinski-carpet", 5)[0], L2),
        (lambda: builtin_shape("grid", 64)[0], L2),
        (lambda: generate_uniform(8192, 3, 1), PowerQuasi(L2, 2.0)),
    ],
    ids=["carpet-5", "grid-64", "uniform-d3-powerquasi"],
)
def test_diameter_work_bound(make, spec):
    cloud = make()
    counting = Counting(spec)
    diameter(cloud, counting)
    assert counting.evals <= 8 * cloud.n


@pytest.mark.parametrize("n", [2, 3, 9, 200])
def test_diameter_without_a_bound_evaluates_each_pair_at_most_once(n):
    cloud = PointCloud(np.random.default_rng(n).random((n, 2)))
    counting = Counting(Chebyshev())
    assert diameter(cloud, counting) == row_scan_diameter(cloud, Chebyshev())
    assert counting.evals <= n * (n - 1) // 2 + 2 * n


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


def test_weak_triangle_constant_past_the_float_range_is_inf():
    # 2 ** 1999 overflows a float; every ratio satisfies an infinite constant
    spec = spec_from_string("powerquasi:2000")
    assert spec.weak_triangle_const == math.inf
    cloud = PointCloud(np.random.default_rng(4).random((30, 2)))
    report = validate_quasi_metric(spec, cloud, trials=200, seed=4)
    assert report.weak_triangle_const == math.inf
    assert report.passed


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_cell_keys_count_their_keyed_axes(d):
    pts = np.random.default_rng(d).random((50, d))
    runs = _CellPairs(pts, L2, 0.1, math.inf).runs
    # the runs cover the 3**k neighbour cells of k keyed axes
    assert int((runs[1::2] - runs[0::2]).sum()) == 3 ** min(d, 3)
    # an infinite cell side keys no axis: one cell
    cells = _CellPairs(pts, L2, math.inf, math.inf)
    assert cells.runs.tolist() == [0, 1] and not cells.key.any()


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


def test_validate_skips_triples_that_overflow_on_both_sides():
    # 4 ** 2000 overflows: triples whose two sides both read inf give no ratio
    spec = spec_from_string("powerquasi:2000")
    cloud = PointCloud(builtin_shape("grid", 5)[0].points * 4.0)
    report = validate_quasi_metric(spec, cloud, trials=50, seed=0)
    assert not math.isnan(report.max_ratio)
    assert report.passed


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


def test_cloud_text_format(tmp_path):
    values = [-0.0, 5e-324, 1e308, -1e-310, 1 / 3, 0.1]
    path = tmp_path / "cloud.csv"
    write_cloud(PointCloud(np.array(values).reshape(3, 2)), path)
    # each coordinate at 17 significant digits, one LF-terminated line a point
    rows = [values[k : k + 2] for k in range(0, 6, 2)]
    text = "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in rows)
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
def test_cloud_text_is_savetxt(tmp_path, n, d):
    # the rows are written in blocks: the bytes are np.savetxt's on either
    # side of a block boundary
    rng = np.random.default_rng(n + d)
    pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-320, 300, (n, d))
    pts.flat[:4] = [-0.0, 5e-324, 1 / 3, 1e308][: pts.size]
    path = tmp_path / "cloud.csv"
    write_cloud(PointCloud(pts), path)
    expected = tmp_path / "savetxt.csv"
    np.savetxt(expected, pts, fmt="%.17g", delimiter=",")
    assert path.read_bytes() == expected.read_bytes()


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


def _reference_cloud(data: bytes):
    """The points a line-by-line float() reading of the cloud format gives,
    or None where the bytes must be refused."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    rows = []
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        if line.isspace() or not line:
            continue
        try:
            rows.append([float(part) for part in line.split(",")])
        except ValueError:
            return None
    if not rows or len({len(row) for row in rows}) != 1:
        return None
    pts = np.array(rows)
    with np.errstate(over="ignore"):
        if not (np.isfinite(pts).all() and np.isfinite(pts.max(0) - pts.min(0)).all()):
            return None
    return pts


_COORDINATE = st.one_of(
    st.floats().map(repr),
    st.text(alphabet=" \t0123456789.eE+-_naifINF", max_size=8),
)
_CLOUD_TEXT = st.lists(
    st.lists(_COORDINATE, min_size=1, max_size=3).map(",".join), max_size=5
).map("\n".join)


@settings(deadline=None, max_examples=150)
@given(data=st.one_of(st.binary(max_size=40), _CLOUD_TEXT.map(str.encode)))
def test_read_cloud_fuzz(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    expected = _reference_cloud(data)
    if expected is None:
        with pytest.raises(InputError):
            read_cloud(path)
    else:
        points = read_cloud(path).points
        assert points.shape == expected.shape and points.tobytes() == expected.tobytes()


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


def _reference_spec(text: str):
    """The spec the metric notation names, or None where it must be refused."""
    text = text.strip().lower()
    if text in ("l1", "l2"):
        return Lp(float(text[1]))
    match = re.fullmatch(r"(lp|snowflake|powerquasi):(.*)", text, re.S)
    if match is None:
        return None
    try:
        value = float(match[2])
    except ValueError:
        return None
    if match[1] == "snowflake":
        return Power(L2, value) if 0.0 < value <= 1.0 else None
    if not (math.isfinite(value) and value >= 1.0):
        return None
    return Lp(value) if match[1] == "lp" else Power(L2, value)


@settings(deadline=None, max_examples=300)
@given(
    text=st.one_of(
        st.text(max_size=16),
        st.sampled_from(["l1", " L2\n", "l3", "linf", "lp", "snowflake:"]),
        st.tuples(
            st.sampled_from([" lp", "LP", "snowflake", "powerquasi", "pq"]),
            st.sampled_from([":", "::", " :"]),
            st.one_of(st.floats(0.0, 4.0).map(repr), st.floats().map(repr), st.text(max_size=6)),
        ).map("".join),
    )
)
def test_spec_from_string_fuzz(text):
    expected = _reference_spec(text)
    if expected is None:
        with pytest.raises(InputError):
            spec_from_string(text)
    else:
        assert spec_from_string(text) == expected


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


# ------------------------------------------------------- distance bounds

# (spec, log10 of the coordinate magnitude)
DISTANCE_BOUND_CASES = [
    (Lp(1.0), 0),
    (Lp(1.5), 0),
    (L2, 0),
    (Lp(3.0), 0),
    (Lp(400.0), 15),  # p-th powers overflow
    (Lp(400.0), -3),  # p-th powers underflow
    (spec_from_string("snowflake:0.5"), 0),
    (spec_from_string("powerquasi:2"), 0),
    (spec_from_string("powerquasi:2000"), 0),
]


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 10**6),
    case=st.integers(0, len(DISTANCE_BOUND_CASES) - 1),
    d=st.integers(1, 4),
    log_spread=st.sampled_from([-15, -12, -6, -3, 0]),
)
def test_distance_bound_covers_every_computed_distance(seed, case, d, log_spread):
    spec, log_scale = DISTANCE_BOUND_CASES[case]
    rng = np.random.default_rng(seed)
    # two boxes of corners 10**log_scale * (1 + 10**log_spread * u), and points
    # inside each
    corners = 10.0**log_scale * (1.0 + 10.0**log_spread * rng.random((2, 2, d)))
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    a, b = (np.minimum(lo[k] + rng.random((30, d)) * (hi[k] - lo[k]), hi[k]) for k in (0, 1))
    extent = np.maximum(hi[0], hi[1]) - np.minimum(lo[0], lo[1])
    bound = spec.distance_bound(extent.reshape(1, d))[0]
    with np.errstate(over="ignore", under="ignore"):
        assert np.all(spec.pairs(a, b) <= bound)
        assert np.all(spec.pairs(b, a) <= bound)
        for point in a:
            assert np.all(spec.one_to_many(point, b) <= bound)


def test_distance_bound_default_is_inf():
    extent = np.ones((3, 2))
    assert DistanceSpec().distance_bound(extent).tolist() == [math.inf] * 3
    assert Chebyshev().distance_bound(extent).tolist() == [math.inf] * 3
