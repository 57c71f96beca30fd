import json
import math

import numpy as np
import pytest

from mstdim import dimension, metric
from mstdim.errors import InputError
from mstdim.generators import builtin_shape, generate_grid, generate_uniform
from mstdim.lemma_checks import (
    lemma1_sweep,
    lemma2_check,
    lemma4_check,
    normalized_constant,
    theorem1_check,
)
from mstdim.metric import Lp, PointCloud, PowerQuasi, distance, spec_from_string
from mstdim.mst import SpanningTree, build_mst_kruskal, build_mst_prim
from specs import Chebyshev, Counting

L2 = Lp(2.0)


# ------------------------------------------------------------------- lemma1


@pytest.mark.parametrize("d", [2, 3, 5])
def test_lemma1_sweep_no_counterexamples(d):
    report = lemma1_sweep(20_000, d, seed=d)
    assert report.passed
    assert report.details["counterexamples"] == 0
    assert report.min_slack >= -1e-12


def test_lemma1_sweep_validation():
    with pytest.raises(InputError):
        lemma1_sweep(0, 2, seed=0)
    with pytest.raises(InputError):
        lemma1_sweep(10, 0, seed=1)


# ------------------------------------------------------------------- lemma2


def test_lemma2_two_edge_path():
    cloud = PointCloud([[0.0], [1.0], [3.0]])
    tree = build_mst_prim(cloud, L2)
    report = lemma2_check(cloud, tree)
    assert report.passed
    # midpoints 0.5 and 2.0, required gap (1+2)/10
    assert report.min_slack == pytest.approx(1.5 - 0.3, rel=1e-12)


def test_lemma2_unit_square():
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tree = build_mst_prim(cloud, L2)
    report = lemma2_check(cloud, tree)
    assert report.passed
    assert report.min_slack == pytest.approx(math.sqrt(0.5) - 0.2, rel=1e-12)


def test_lemma2_uniform_cloud():
    cloud = generate_uniform(100, 2, seed=0)
    tree = build_mst_prim(cloud, L2)
    report = lemma2_check(cloud, tree)
    assert report.passed
    assert report.min_slack > 0


def test_lemma2_single_edge_vacuous():
    cloud = PointCloud([[0.0], [1.0]])
    tree = build_mst_prim(cloud, L2)
    report = lemma2_check(cloud, tree)
    assert report.passed and report.min_slack is None


@pytest.mark.parametrize("seed", [1, 7, 40, 1 << 22])
def test_lemma2_row_blocks_match_full_matrix(seed):
    # the m x m x d formula, first minimum in row-major triangle order; the
    # grid's points are shuffled so that each seed orders its many equal
    # slacks differently
    grid, _ = builtin_shape("grid", 5)
    cloud = PointCloud(np.random.default_rng(seed).permutation(grid.points))
    tree = build_mst_prim(cloud, L2)
    pts, lengths = cloud.points, tree.length
    us = np.array([e[0] for e in tree.edges])
    vs = np.array([e[1] for e in tree.edges])
    mids = (pts[us] + pts[vs]) / 2.0
    diff = mids[:, None, :] - mids[None, :, :]
    slack = np.sqrt((diff**2).sum(-1)) - (lengths[:, None] + lengths[None, :]) / 10.0
    iu = np.triu_indices(len(lengths), k=1)
    worst = int(np.argmin(slack[iu]))
    report = lemma2_check(cloud, tree)
    assert report.min_slack == float(slack[iu].min())
    assert report.details["worst_pair"] == [int(iu[0][worst]), int(iu[1][worst])]


def test_lemma2_kruskal_trees_also_pass():
    for seed in range(5):
        cloud = generate_uniform(80, 3, seed=seed)
        tree = build_mst_kruskal(cloud, L2)
        assert lemma2_check(cloud, tree).passed


# ------------------------------------------------------------------- lemma4


def test_lemma4_two_edge_path():
    cloud = PointCloud([[0.0], [1.0], [3.0]])
    tree = build_mst_prim(cloud, L2, root=0)
    report = lemma4_check(cloud, L2, tree, eps=0.5)
    assert report.passed
    assert report.details["long_edges"] == 2
    # later endpoints are the points 1 and 3, distance 2, threshold 1/3
    assert report.min_slack == pytest.approx(2.0 - 1.0 / 3.0, rel=1e-12)


def test_lemma4_requires_ranks():
    cloud = PointCloud([[0.0], [1.0], [3.0]])
    tree = build_mst_kruskal(cloud, L2)
    with pytest.raises(InputError):
        lemma4_check(cloud, L2, tree, eps=0.5)
    prim = build_mst_prim(cloud, L2)
    for eps in (0.0, math.nan):  # a NaN eps would collect nothing and pass
        with pytest.raises(InputError):
            lemma4_check(cloud, L2, prim, eps=eps)


@pytest.mark.parametrize("k", range(1, 7))
def test_lemma4_cantor_scales(k):
    cloud, _ = builtin_shape("cantor", 8)
    tree = build_mst_prim(cloud, L2)
    report = lemma4_check(cloud, L2, tree, eps=3.0**-k)
    assert report.passed


def test_lemma4_uniform_3d():
    cloud = generate_uniform(500, 3, seed=2)
    tree = build_mst_prim(cloud, L2)
    for k in range(1, 9):
        assert lemma4_check(cloud, L2, tree, eps=2.0**-k).passed


def test_lemma4_quasi_metric_relaxed_threshold():
    spec = PowerQuasi(L2, 2.0)
    cloud = generate_uniform(300, 2, seed=3)
    tree = build_mst_prim(cloud, spec)
    report = lemma4_check(cloud, spec, tree, eps=2.0**-4)
    assert report.passed
    eps = 2.0**-4
    assert report.parameters["threshold"] == pytest.approx(
        2.0 * eps / (3.0 * 2.0), rel=1e-15
    )


def test_lemma4_vacuous_when_no_long_edges():
    cloud = PointCloud([[0.0], [0.1], [0.2]])
    tree = build_mst_prim(cloud, L2)
    report = lemma4_check(cloud, L2, tree, eps=1.0)
    assert report.passed and report.min_slack is None


def _record_keys(report):
    record = json.loads(report.to_text())
    return set(record), set(record["parameters"]), set(record["details"])


def test_vacuous_records_have_the_same_keys():
    cloud = PointCloud([[0.0], [1.0], [3.0]])
    tree = build_mst_prim(cloud, L2, root=0)
    pair = PointCloud([[0.0], [1.0]])
    vacuous = lemma2_check(pair, build_mst_prim(pair, L2))
    full = lemma2_check(cloud, tree)
    assert vacuous.min_slack is None and full.min_slack is not None
    assert _record_keys(vacuous) == _record_keys(full)
    assert vacuous.details["worst_pair"] is None
    vacuous = lemma4_check(cloud, L2, tree, eps=5.0)
    full = lemma4_check(cloud, L2, tree, eps=0.5)
    assert vacuous.min_slack is None and full.min_slack is not None
    assert _record_keys(vacuous) == _record_keys(full)
    assert vacuous.details["min_center_distance"] is None


# ------------------------------------------------ lemma4 closest-pair search


def _collected(tree, eps):
    """The later endpoints of the edges longer than eps, as lemma4 takes them:
    a Prim edge's v joins the tree after its u."""
    return [v for _, v, length in tree.edges if length > eps]


def _brute_min(spec, pts):
    """Least ``distance`` over every pair, one call per pair."""
    return min(
        distance(spec, pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
    )


_EXACT_CLOUDS = {
    "uniform-2": lambda: generate_uniform(300, 2, seed=11),
    "uniform-3": lambda: generate_uniform(300, 3, seed=12),
    "uniform-5": lambda: generate_uniform(300, 5, seed=13),
    "cantor-8": lambda: builtin_shape("cantor", 8)[0],
    "sierpinski-triangle-6": lambda: builtin_shape("sierpinski-triangle", 6)[0],
}


@pytest.mark.parametrize("metric", ["l2", "lp:3", "snowflake:0.5", "powerquasi:2"])
@pytest.mark.parametrize("shape", sorted(_EXACT_CLOUDS))
def test_lemma4_min_distance_is_exact(shape, metric):
    cloud = _EXACT_CLOUDS[shape]()
    spec = spec_from_string(metric)
    tree = build_mst_prim(cloud, spec)
    pts = cloud.points
    # the brute-force table, one row per point; its entries are ``distance``
    dist = np.array([spec.one_to_many(p, pts) for p in pts])
    for i, j in np.random.default_rng(0).integers(0, cloud.n, size=(200, 2)):
        assert dist[i, j] == distance(spec, pts[i], pts[j])
    # eps 2^-1..2^-8, then on down until every edge is long (squared
    # distances under powerquasi are short)
    checked = 0
    for k in range(1, 25):
        chosen = np.array(_collected(tree, 2.0**-k))
        report = lemma4_check(cloud, spec, tree, 2.0**-k)
        if len(chosen) < 2:
            assert report.details["min_center_distance"] is None
            continue
        i, j = np.triu_indices(len(chosen), k=1)
        assert report.details["min_center_distance"] == float(dist[chosen[i], chosen[j]].min())
        checked += 1
    assert checked >= 3


def test_lemma4_min_distance_of_coincident_points():
    # not a minimal tree: two long edges end on the same point
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    edges = np.array([0, 0, 1]), np.array([1, 2, 3]), np.array([1.0, 1.0, 2.0])
    tree = SpanningTree(4, "prim", edges)
    report = lemma4_check(cloud, L2, tree, eps=0.5)
    assert report.details["min_center_distance"] == 0.0
    assert not report.passed


def test_lemma4_min_distance_with_far_outlier():
    rng = np.random.default_rng(5)
    cloud = PointCloud(np.vstack([rng.random((120, 2)), [[1e9, 1e9]]]))
    tree = build_mst_prim(cloud, L2)
    for k in range(3, 8):
        chosen = _collected(tree, 2.0**-k)
        assert cloud.n - 1 in chosen and len(chosen) >= 2
        report = lemma4_check(cloud, L2, tree, 2.0**-k)
        assert report.details["min_center_distance"] == _brute_min(L2, cloud.points[chosen])


def test_lemma4_min_distance_far_apart():
    # about 50 doublings from twice the threshold up to 2e12
    cloud = PointCloud([[0.0, 0.0], [1e12, 0.0], [-1e12, 5.0]])
    for spec in (L2, PowerQuasi(L2, 2.0)):
        tree = build_mst_prim(cloud, spec)
        report = lemma4_check(cloud, spec, tree, 2.0**-8)
        expected = distance(spec, cloud.points[1], cloud.points[2])
        assert report.details["min_center_distance"] == expected


def test_lemma4_min_distance_without_coordinate_bound():
    spec = Chebyshev()
    cloud = generate_uniform(150, 2, seed=9)
    tree = build_mst_prim(cloud, spec)
    for k in range(4, 9):
        chosen = _collected(tree, 2.0**-k)
        assert len(chosen) >= 2
        report = lemma4_check(cloud, spec, tree, 2.0**-k)
        assert report.details["min_center_distance"] == _brute_min(spec, cloud.points[chosen])


@pytest.mark.parametrize("metric_name", ["l2", "lp:3", "powerquasi:2"])
@pytest.mark.parametrize("shape", ["uniform-3", "uniform-5", "cantor-8"])
def test_lemma4_one_grid_from_a_long_edge_between_chosen_vertices(shape, metric_name, monkeypatch):
    # A long edge whose u is chosen too joins two chosen vertices: its length
    # bounds the closest pair, so the search from it up ends after one grid.
    built = []

    class Recorded(metric._CellPairs):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(metric, "_CellPairs", Recorded)
    cloud = _EXACT_CLOUDS[shape]()
    spec = spec_from_string(metric_name)
    tree = build_mst_prim(cloud, spec)
    pts = cloud.points
    dist = np.array([spec.one_to_many(p, pts) for p in pts])
    bounded = 0
    for k in range(1, 61):
        eps = 2.0 ** (-k / 2)
        chosen = _collected(tree, eps)
        if len(chosen) < 2 or not any(
            u in chosen for u, _, length in tree.edges if length > eps
        ):
            continue
        built.clear()
        report = lemma4_check(cloud, spec, tree, eps)
        assert len(built) == 1
        i, j = np.triu_indices(len(chosen), k=1)
        chosen = np.array(chosen)
        assert report.details["min_center_distance"] == float(dist[chosen[i], chosen[j]].min())
        bounded += 1
    assert bounded >= 3


_WORK_CLOUDS = {
    "uniform-2": lambda: generate_uniform(2000, 2, seed=21),
    "uniform-3": lambda: generate_uniform(2000, 3, seed=22),
    "cantor-10": lambda: builtin_shape("cantor", 10)[0],
    "sierpinski-carpet-4": lambda: builtin_shape("sierpinski-carpet", 4)[0],
}


@pytest.mark.parametrize("metric", ["l2", "lp:3", "powerquasi:2"])
@pytest.mark.parametrize("shape", sorted(_WORK_CLOUDS))
def test_lemma4_work_bound(shape, metric):
    # In up to 3 dimensions the search may evaluate at most 16 distances per
    # collected vertex, over all its doublings.
    cloud = _WORK_CLOUDS[shape]()
    spec = spec_from_string(metric)
    tree = build_mst_prim(cloud, spec)
    for k in range(1, 11):
        counting = Counting(spec)
        report = lemma4_check(cloud, counting, tree, 2.0**-k)
        assert counting.evals <= 16 * report.details["long_edges"]


@pytest.mark.parametrize("metric", ["l2", "lp:3", "powerquasi:2"])
def test_lemma4_work_bound_in_5_dimensions(metric):
    # The grid keys 3 coordinates, so in d = 5 a pass may measure every pair
    # of the m collected vertices. Such a pass ends the search, and the
    # passes before it measure fewer pairs: no check may evaluate as many as
    # the m (m - 1) distances of two scans of all pairs.
    cloud = generate_uniform(2000, 5, seed=23)
    spec = spec_from_string(metric)
    tree = build_mst_prim(cloud, spec)
    for k in range(1, 11):
        counting = Counting(spec)
        report = lemma4_check(cloud, counting, tree, 2.0**-k)
        m = report.details["long_edges"]
        assert m < 2 or counting.evals < m * (m - 1)


# ----------------------------------------------------------- theorem1_check


def test_normalized_constant_interval_grid():
    # unit-interval path: total length exactly 1, exponent 0, sqrt(1) = 1
    cloud = generate_grid(128, 1)
    tree = build_mst_prim(cloud, L2)
    total = float(np.sort(tree.length).sum())
    assert total == pytest.approx(1.0, rel=1e-12)
    assert normalized_constant(total, cloud.n, 1, 1.0) == pytest.approx(
        1.0, rel=1e-12
    )
    with pytest.raises(InputError):
        normalized_constant(0.0, 10, 1, 1.0)


def test_theorem1_check_small_sweep():
    report = theorem1_check(
        d=2,
        alphas=[1.0, 3.0],
        sizes=[256, 512, 1024],
        seeds=[0, 1],
    )
    assert report.passed
    assert report.details["max_constant"] <= 1.0
    trend = report.details["trends"]["1.0"]
    assert trend["ok"]
    assert len(trend["means"]) == 3


def test_theorem1_check_validation():
    with pytest.raises(InputError):
        theorem1_check(2, [1.0], [256, 512], [0])


def test_theorem1_check_refuses_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a tree before checking the sweep")

    monkeypatch.setattr(dimension, "build_mst_kruskal", refuse)
    with pytest.raises(InputError, match="distinct"):
        theorem1_check(2, [1.0], [256, 256, 512], [0])
    with pytest.raises(InputError, match="seed"):
        theorem1_check(2, [1.0], [256, 512, 1024], [0, -1])


def test_lemma4_reports_under_an_infinite_weak_triangle_constant():
    # the unit square: every tree edge has length 1 ** 2000 = 1, while the
    # constant 2 ** 1999 is past the float range
    spec = spec_from_string("powerquasi:2000")
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tree = build_mst_prim(cloud, spec)
    report = lemma4_check(cloud, spec, tree, 0.5)
    assert report.parameters["weak_triangle_const"] == math.inf
    assert report.details["min_center_distance"] == 1.0
    assert report.passed


def test_normalized_constant_invariances():
    rng = np.random.default_rng(8)
    pts = rng.random((40, 2))
    base_total = float(np.sort(build_mst_prim(PointCloud(pts), L2).length).sum())
    base_c = normalized_constant(base_total, 40, 2, 1.0)
    # translating every coordinate leaves edge lengths (hence the constant)
    shifted = float(
        np.sort(build_mst_prim(PointCloud(pts + 0.25), L2).length).sum()
    )
    assert normalized_constant(shifted, 40, 2, 1.0) == pytest.approx(
        base_c, rel=1e-12
    )
    # permuting point order permutes vertex labels but not the length multiset
    perm = rng.permutation(40)
    permuted = build_mst_prim(PointCloud(pts[perm]), L2)
    assert np.sort(permuted.length) == pytest.approx(
        np.sort(build_mst_prim(PointCloud(pts), L2).length), rel=1e-12
    )


# ------------------------------------------------------------------ reports


def test_report_record_fields():
    cloud = PointCloud([[0.0], [1.0], [3.0]])
    tree = build_mst_prim(cloud, L2)
    report = lemma4_check(cloud, L2, tree, eps=0.5)
    record = json.loads(report.to_text())
    assert set(record) == {"name", "parameters", "pass", "min_slack", "details"}
    assert record["pass"] is True
    assert report.summary_line().startswith("PASS lemma4")
