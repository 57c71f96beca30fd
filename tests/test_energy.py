import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstdim import cli, dimension, lemma_checks
from mstdim.dimension import mst_dimension
from mstdim.energy import check_alphas, energies, energy
from mstdim.errors import InputError
from mstdim.generators import ShapeFamily, builtin_shape, generate_uniform
from mstdim.metric import Lp, PointCloud, diameter
from mstdim.mst import SpanningTree, build_mst_prim, build_mst_kruskal
from specs import packing_lower_bound_check

L2 = Lp(2.0)


def make_tree(lengths):
    """Path tree with prescribed edge lengths, for direct energy tests."""
    n = len(lengths) + 1
    return SpanningTree(n, "prim", (np.arange(n - 1), np.arange(1, n), np.array(lengths, float)))


# -------------------------------------------------------------------- bands


def reference_bands(lengths):
    """(bands, overflow, zero_edges) by the band rule, one length at a time:
    band k holds (2^-k-1, 2^-k], lengths above 1 overflow, zeros stand apart."""
    bands = {}
    for x in lengths:
        if 0.0 < x <= 1.0:
            k = 0
            while x <= 2.0 ** (-k - 1):  # 2^-1075 rounds to 0, so k <= 1074
                k += 1
            bands[k] = bands.get(k, 0) + 1
    return bands, sum(x > 1.0 for x in lengths), sum(x == 0.0 for x in lengths)


def test_band_index_examples():
    for length, band in [(1.0, 0), (0.6, 0), (0.5, 1), (0.3, 1), (0.25, 2)]:
        assert energy(make_tree([length]), 1.0).bands == {band: 1}
    report = energy(make_tree([1.5, 0.0]), 1.0)
    assert report.bands == {}
    assert report.overflow == 1  # the overflow band
    assert report.zero_edges == 1  # zeros have no band


@settings(deadline=None, max_examples=200)
@given(x=st.floats(min_value=1e-300, max_value=1.0, exclude_min=False))
def test_band_index_brackets_length(x):
    bands = energy(make_tree([x]), 1.0).bands
    ((k, count),) = bands.items()
    assert k >= 0 and count == 1
    assert 2.0 ** (-k - 1) < x <= 2.0**-k


def test_bands_follow_the_rule_at_boundaries():
    lengths = [0.0, 1.0, math.nextafter(1.0, 2.0), 5e-324, 1e300]
    for k in (0, 1, 5, 52):
        below, power, above = math.nextafter(2.0**-k, 0.0), 2.0**-k, math.nextafter(2.0**-k, 2.0)
        lengths += [below, power, above]
        assert reference_bands([below])[0] == reference_bands([power])[0] == {k: 1}
        assert reference_bands([above]) == (({k - 1: 1}, 0, 0) if k else ({}, 1, 0))
    assert reference_bands([5e-324])[0] == {1074: 1}
    for length in lengths:
        report = energy(make_tree([length]), 1.0)
        assert (report.bands, report.overflow, report.zero_edges) == reference_bands([length])
    report = energy(make_tree(lengths), 1.0)
    assert (report.bands, report.overflow, report.zero_edges) == reference_bands(lengths)
    assert report.overflow == 3 and report.zero_edges == 1


# ------------------------------------------------------------------- energy


def test_two_points_alpha2():
    report = energy(make_tree([1.0]), 2.0)
    assert report.value == 1.0
    assert report.max_edge == 1.0
    assert report.bands == {0: 1}


def test_unit_square_alpha3():
    cloud = PointCloud([[0, 0], [1, 0], [1, 1], [0, 1]])
    tree = build_mst_prim(cloud, L2)
    report = energy(tree, 3.0)
    assert report.value == pytest.approx(3.0, rel=1e-12)


def test_half_quarter_bands():
    report = energy(make_tree([0.5, 0.25]), 1.0)
    assert report.value == pytest.approx(0.75, rel=1e-15)
    assert report.bands == {1: 1, 2: 1}
    assert report.overflow == 0 and report.zero_edges == 0


def test_alpha_validation():
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            energy(make_tree([1.0]), alpha)
        with pytest.raises(InputError):
            energies([1.0, 0.5], [1.0, alpha])
    # 7^1000 overflows: a sum that is not finite is refused, not returned
    with pytest.raises(InputError, match="alpha 1000 overflows"):
        energies([4.0, 7.0], [1000.0])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_alphas_checked_before_any_build(monkeypatch, tmp_path, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("built a tree or packing before checking the alphas")

    for module in (cli, dimension, lemma_checks):
        for name in ("build_mst_prim", "build_mst_kruskal", "greedy_packing"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    with pytest.raises(InputError):
        check_alphas([1.0, bad])
    with pytest.raises(InputError):
        mst_dimension(ShapeFamily("interval"), L2, [64, 128, 256], [1.0, bad], seed=0)
    with pytest.raises(InputError):
        packing_lower_bound_check(PointCloud([[0.0], [1.0]]), L2, 0.25, bad)
    with pytest.raises(InputError):
        lemma_checks.theorem1_check(2, [1.0, bad], [8, 16, 32], [0])
    argv = ["scale", "--shape", "uniform-cube", "--dim", "2", "--sizes", "4096",
            f"--alphas=1,{bad}", "--seeds", "1", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 2


def test_energies_share_the_report_sum():
    # zero lengths drop out; every alpha sums in ascending length order
    lengths = [0.5, 0.0, 2.0, 0.25, 0.0]
    values = energies(lengths, [0.5, 1.0, 3.0])
    assert values == [energy(make_tree(lengths), a).value for a in (0.5, 1.0, 3.0)]
    assert values[1] == 2.75
    assert energies([], [1.0]) == [0.0]


def test_zero_edges_tracked_separately():
    report = energy(make_tree([0.0, 0.5, 0.0, 2.0]), 1.0)
    assert report.zero_edges == 2
    assert report.overflow == 1
    assert report.bands == {1: 1}
    assert sum(report.bands.values()) + report.overflow + report.zero_edges == report.n - 1
    assert report.value == pytest.approx(2.5, rel=1e-15)


def test_empty_tree_energy():
    tree = SpanningTree(1, "prim", (np.empty(0, int), np.empty(0, int), np.empty(0)))
    report = energy(tree, 1.0)
    assert report.value == 0.0 and report.max_edge == 0.0


# ------------------------------------------------------------- long edges


def test_cantor_gap_census():
    # oracle: depth-6 gaps wider than 3^-3 are the level-1..3 gaps,
    # 1 + 2 + 4 = 7 of them (level-j gap is 3^-j + 3^-6 > 3^-j)
    cloud, _ = builtin_shape("cantor", 6)
    xs = np.sort(cloud.points[:, 0])
    gaps = np.diff(xs)
    expected = int(np.count_nonzero(gaps > 3.0**-3))
    assert expected == 7

    tree = build_mst_prim(cloud, L2)
    assert np.count_nonzero(tree.length > 3.0**-3) == 7


# -------------------------------------------------------------- invariants


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 40))
def test_value_matches_direct_sum(seed, n):
    cloud = PointCloud(np.random.default_rng(seed).random((n, 2)))
    tree = build_mst_prim(cloud, L2)
    for alpha in (0.5, 1.0, 2.0):
        report = energy(tree, alpha)
        direct = sum(e[2] ** alpha for e in tree.edges)
        assert report.value == pytest.approx(direct, rel=1e-12)
        assert sum(report.bands.values()) + report.overflow + report.zero_edges == n - 1


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_alpha_monotone_when_edges_below_one(seed):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((15, 2)))
    cloud = PointCloud(cloud.points / diameter(cloud, L2))
    tree = build_mst_prim(cloud, L2)
    values = [energy(tree, a).value for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
    for lo, hi in zip(values, values[1:]):
        assert lo >= hi - 1e-15


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 10**6),
    lam=st.floats(min_value=1e-3, max_value=1e3),
    alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_scaling_covariance(seed, lam, alpha):
    rng = np.random.default_rng(seed)
    lengths = rng.random(12) + 0.01
    base = energy(make_tree(lengths), alpha).value
    scaled = energy(make_tree(lengths * lam), alpha).value
    assert scaled == pytest.approx(lam**alpha * base, rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), alpha=st.sampled_from([0.5, 1.0, 2.5]))
def test_max_edge_bounds(seed, alpha):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((20, 2)))
    tree = build_mst_prim(cloud, L2)
    report = energy(tree, alpha)
    assert report.value >= report.max_edge**alpha - 1e-15
    assert report.value <= (tree.n - 1) * report.max_edge**alpha + 1e-15


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10**6), alpha=st.sampled_from([2.5, 3.0, 4.0]))
def test_supercritical_chain(seed, alpha):
    # alpha > d: E_alpha <= max_edge^(alpha - d) * E_d for [0,1]^d samples
    d = 2
    cloud = generate_uniform(60, d, seed)
    tree = build_mst_prim(cloud, L2)
    e_alpha = energy(tree, alpha).value
    e_d = energy(tree, float(d)).value
    max_edge = energy(tree, 1.0).max_edge
    assert e_alpha <= max_edge ** (alpha - d) * e_d * (1.0 + 1e-12)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6), alpha=st.sampled_from([0.5, 1.0, 2.0]))
def test_dyadic_reconstruction_brackets(seed, alpha):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((25, 2)))
    cloud = PointCloud(cloud.points / diameter(cloud, L2))
    tree = build_mst_prim(cloud, L2)
    report = energy(tree, alpha)
    assert report.overflow == 0
    upper = sum(c * (2.0**-k) ** alpha for k, c in report.bands.items())
    lower = sum(c * (2.0 ** (-k - 1)) ** alpha for k, c in report.bands.items())
    assert lower <= report.value * (1.0 + 1e-12)
    assert report.value <= upper * (1.0 + 1e-12)


# ------------------------------------------------------------ serialization


@pytest.mark.parametrize("alpha, word", [(np.float32(1.5), "1.5"), (np.int64(2), "2")])
def test_report_text_takes_numpy_scalar_alphas(alpha, word):
    tree = build_mst_kruskal(PointCloud([[0.0], [1.0], [3.0]]), L2)
    assert f'"alpha": {word},' in energy(tree, alpha).to_text()


def test_report_roundtrip():
    cloud = PointCloud(np.random.default_rng(1).random((12, 2)))
    tree = build_mst_kruskal(cloud, L2)
    report = energy(tree, 1.5)
    back = json.loads(report.to_text())
    assert back["value"] == report.value
    assert {k: c for k, c in back["bands"]} == report.bands
    assert back["alpha"] == report.alpha
    assert back["max_edge"] == report.max_edge
