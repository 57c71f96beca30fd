import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstdim.errors import InputError
from mstdim.generators import builtin_shape, generate_grid, generate_uniform
from mstdim.metric import Lp, PointCloud, PowerQuasi, Snowflake
from mstdim.mst import (
    SpanningTree,
    _CellPairs,
    _join,
    _prufer_decode,
    brute_force_min_tree,
    build_mst_kruskal,
    build_mst_prim,
    tree_from_text,
    tree_to_text,
    read_tree,
    tree_total_length,
    write_tree,
)
from specs import Chebyshev, Counting, kruskal_join

L2 = Lp(2.0)


def spanning_tree_oracle_min_energy(points, alpha):
    """Independent small-n oracle: scan every (n-1)-subset of the complete
    edge set, keep the acyclic connected ones, minimize the energy directly."""
    n = len(points)
    all_edges = list(itertools.combinations(range(n), 2))

    def is_spanning_tree(subset):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        joined = 0
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
            joined += 1
        return joined == n - 1

    best = math.inf
    count = 0
    for subset in itertools.combinations(all_edges, n - 1):
        if is_spanning_tree(subset):
            count += 1
            e = sum(
                math.dist(points[u], points[v]) ** alpha for u, v in subset
            )
            best = min(best, e)
    return best, count


# ------------------------------------------------------------------- basics


def test_collinear_prim():
    cloud = PointCloud([[0.0], [1.0], [3.0]])
    tree = build_mst_prim(cloud, L2, root=0)
    assert tree.edges == [(0, 1, 1.0), (1, 2, 2.0)]
    assert tree.insertion_rank == [0, 1, 2]
    assert tree.builder == "prim"


def test_unit_square_against_subset_oracle():
    corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    # oracle: 16 of the C(6,3)=20 subsets are spanning trees; minimum E_1 is 3
    best, count = spanning_tree_oracle_min_energy(corners, 1.0)
    assert count == 16
    assert best == pytest.approx(3.0, rel=1e-15)

    cloud = PointCloud(corners)
    prim = build_mst_prim(cloud, L2)
    kruskal = build_mst_kruskal(cloud, L2)
    assert sorted(e[2] for e in prim.edges) == [1.0, 1.0, 1.0]
    assert tree_total_length(prim) == pytest.approx(3.0, rel=1e-12)
    assert tree_total_length(kruskal) == pytest.approx(3.0, rel=1e-12)

    bf_tree, bf_energy = brute_force_min_tree(cloud, L2, 1.0)
    assert bf_energy == pytest.approx(3.0, rel=1e-12)
    # alpha = 2 keeps the same three unit edges, energy 3
    best2, _ = spanning_tree_oracle_min_energy(corners, 2.0)
    _, bf_energy2 = brute_force_min_tree(cloud, L2, 2.0)
    assert bf_energy2 == pytest.approx(best2, rel=1e-12) == pytest.approx(3.0)


def test_single_point_tree():
    cloud = PointCloud([[0.5, 0.5]])
    tree = build_mst_prim(cloud, L2)
    assert tree.edges == [] and tree.insertion_rank == [0]
    assert tree_total_length(tree) == 0.0
    assert build_mst_kruskal(cloud, L2).edges == []


def test_two_points():
    cloud = PointCloud([[0.0], [5.0]])
    tree = build_mst_prim(cloud, L2)
    assert tree.edges == [(0, 1, 5.0)]
    assert tree_total_length(tree) == 5.0


def test_prim_root_validation():
    cloud = PointCloud([[0.0], [1.0]])
    with pytest.raises(InputError):
        build_mst_prim(cloud, L2, root=2)


def test_equilateral_total_length():
    # in doubles the three side lengths differ in the last ulp, so the edge
    # choice follows the actual computed values; the total is still 2
    h = math.sqrt(3.0) / 2.0
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
    tree = build_mst_kruskal(cloud, L2)
    assert tree_total_length(tree) == pytest.approx(2.0, rel=1e-12)
    again = build_mst_kruskal(cloud, L2)
    assert again.edges == tree.edges  # deterministic pick among near-ties


def test_exact_tie_break_on_right_triangle():
    # distances (0,1) and (0,2) are exactly 1.0; lexicographic order keeps both
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tree = build_mst_kruskal(cloud, L2)
    assert {(u, v) for u, v, _ in tree.edges} == {(0, 1), (0, 2)}
    prim = build_mst_prim(cloud, L2)
    assert {(min(u, v), max(u, v)) for u, v, _ in prim.edges} == {(0, 1), (0, 2)}


# ------------------------------------------------------- prim vs kruskal


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 40),
    d=st.integers(1, 3),
    spec_idx=st.integers(0, 2),
)
def test_prim_kruskal_total_agreement(seed, n, d, spec_idx):
    spec = [Lp(2.0), Lp(1.0), PowerQuasi(Lp(2.0), 2.0)][spec_idx]
    cloud = PointCloud(np.random.default_rng(seed).random((n, d)))
    a = tree_total_length(build_mst_prim(cloud, spec))
    b = tree_total_length(build_mst_kruskal(cloud, spec))
    assert a == pytest.approx(b, rel=1e-12)


def test_prim_kruskal_equal_edge_sets_distinct_distances():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.random((30, 2)))
    prim = build_mst_prim(cloud, L2)
    kruskal = build_mst_kruskal(cloud, L2)
    norm = lambda tree: {(min(u, v), max(u, v)) for u, v, _ in tree.edges}
    assert norm(prim) == norm(kruskal)


def test_agreement_on_tied_grid():
    cloud = generate_grid(5, 2)
    a = tree_total_length(build_mst_prim(cloud, L2))
    b = tree_total_length(build_mst_kruskal(cloud, L2))
    assert a == pytest.approx(b, rel=1e-12) == pytest.approx(24 * 0.25, rel=1e-12)


# ------------------------------------------------------------- brute force


def test_brute_force_collinear():
    cloud = PointCloud([[0.0], [1.0], [3.0]])
    tree, energy_value = brute_force_min_tree(cloud, L2, 1.0)
    assert energy_value == pytest.approx(3.0, rel=1e-15)
    assert {(min(u, v), max(u, v)) for u, v, _ in tree.edges} == {(0, 1), (1, 2)}


def test_brute_force_range_check():
    with pytest.raises(InputError):
        brute_force_min_tree(PointCloud([[0.0]]), L2, 1.0)
    with pytest.raises(InputError):
        brute_force_min_tree(PointCloud(np.zeros((9, 1))), L2, 1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_brute_force_rejects_bad_alpha(alpha):
    # a NaN alpha used to return a non-minimal tree with energy nan, inf 0.0
    cloud = PointCloud([[0.0], [0.3], [1.0], [0.5]])
    with pytest.raises(InputError):
        brute_force_min_tree(cloud, L2, alpha)


def test_prufer_bijection_counts():
    # n^(n-2) sequences decode to pairwise-distinct labeled trees
    for n in (3, 4, 5):
        seen = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            edges = frozenset(
                frozenset(e) for e in _prufer_decode(list(seq), n)
            )
            seen.add(edges)
        assert len(seen) == n ** (n - 2)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 7))
def test_kruskal_matches_brute_force_e1(seed, n):
    cloud = PointCloud(np.random.default_rng(seed).random((n, 2)))
    _, best = brute_force_min_tree(cloud, L2, 1.0)
    assert tree_total_length(build_mst_kruskal(cloud, L2)) == pytest.approx(
        best, rel=1e-12
    )


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6), alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_energy_minimizer_universality(seed, alpha):
    # the length-minimal tree also minimizes every alpha-energy
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    cloud = PointCloud(rng.random((n, 2)))
    kruskal = build_mst_kruskal(cloud, L2)
    value = float(np.sum(np.sort(kruskal.length) ** alpha))
    _, best = brute_force_min_tree(cloud, L2, alpha)
    assert value == pytest.approx(best, rel=1e-12)


def test_brute_force_against_subset_oracle():
    rng = np.random.default_rng(11)
    pts = rng.random((5, 2))
    best, _ = spanning_tree_oracle_min_energy([tuple(p) for p in pts], 1.5)
    _, got = brute_force_min_tree(PointCloud(pts), L2, 1.5)
    assert got == pytest.approx(best, rel=1e-12)


# -------------------------------------------------------------- invariants


def tree_is_spanning(tree):
    parent = list(range(tree.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for u, v, _ in tree.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
        merges += 1
    return merges == tree.n - 1


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 25))
def test_prim_structure_invariants(seed, n):
    cloud = PointCloud(np.random.default_rng(seed).random((n, 2)))
    tree = build_mst_prim(cloud, L2)
    assert len(tree.edges) == n - 1
    assert tree_is_spanning(tree)
    assert sorted(tree.insertion_rank) == list(range(n))
    for u, v, length in tree.edges:
        # the recorded child entered strictly later than its tree endpoint
        assert tree.insertion_rank[v] > tree.insertion_rank[u]
        assert length == pytest.approx(
            float(np.linalg.norm(cloud.points[u] - cloud.points[v])), rel=1e-12
        )


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6))
def test_cut_property_spot_check(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    cloud = PointCloud(rng.random((n, 2)))
    tree = build_mst_prim(cloud, L2)
    adjacency = {i: set() for i in range(n)}
    for u, v, _ in tree.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    k = int(rng.integers(0, n - 1))
    u0, v0, length = tree.edges[k]
    # split into the two components of tree minus the chosen edge
    component = {u0}
    stack = [u0]
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if y not in component and not (x == u0 and y == v0) and not (
                x == v0 and y == u0
            ):
                component.add(y)
                stack.append(y)
    other = set(range(n)) - component
    # every cross pair is at least as long as the removed edge
    for a in component:
        for b in other:
            assert np.linalg.norm(
                cloud.points[a] - cloud.points[b]
            ) >= length - 1e-12


def test_zero_length_edges_sort_first():
    cloud = PointCloud([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    tree = build_mst_kruskal(cloud, L2)
    lengths = [e[2] for e in tree.edges]
    assert lengths == sorted(lengths)
    assert lengths[0] == 0.0 and lengths[1] == 0.0
    assert tree_is_spanning(tree)
    prim = build_mst_prim(cloud, L2)
    assert tree_total_length(prim) == pytest.approx(1.0, rel=1e-12)


def test_quasi_metric_trees():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.random((25, 2)))
    spec = PowerQuasi(L2, 2.0)
    tree = build_mst_prim(cloud, spec)
    assert tree_is_spanning(tree)
    # squared-distance MST has the same edge set as the plain MST here
    plain = build_mst_prim(cloud, L2)
    norm = lambda t: {(min(u, v), max(u, v)) for u, v, _ in t.edges}
    assert norm(tree) == norm(plain)


def test_snowflake_tree_lengths_are_powers():
    cloud = PointCloud([[0.0], [0.25], [1.0]])
    tree = build_mst_prim(cloud, Snowflake(L2, 0.5))
    assert sorted(e[2] for e in tree.edges) == [0.5, math.sqrt(0.75)]


# ------------------------------------------------------------ serialization


def test_tree_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.random((17, 3)))
    for builder in (build_mst_prim, build_mst_kruskal):
        tree = builder(cloud, L2)
        path = tmp_path / f"{tree.builder}.json"
        write_tree(tree, path)
        back = read_tree(path)
        assert back.n == tree.n
        assert back.builder == tree.builder
        assert back.edges == tree.edges  # includes bit-identical lengths
        assert back.insertion_rank == tree.insertion_rank


def test_tree_text_malformed():
    with pytest.raises(InputError):
        tree_from_text("{not json")
    with pytest.raises(InputError):
        tree_from_text('{"n": 3, "builder": "prim"}')


def test_tree_text_17_digits():
    tree = SpanningTree(
        n=2, builder="prim", edges=[(0, 1, 1 / 3)], insertion_rank=[0, 1]
    )
    text = tree_to_text(tree)
    assert "0.33333333333333331" in text
    assert tree_from_text(text).edges[0][2] == 1 / 3


# ------------------------------------------------------ canonical tree


def dense_canonical_prim(cloud, spec, root=0):
    """Reference builder: dense Prim that adds, at each step, the least edge
    from the tree to an outside vertex under (length, min index, max index).
    Evaluates every row in full; returns (edges, insertion ranks)."""
    pts = cloud.points
    n = cloud.n
    best = spec.one_to_many(pts[root], pts).copy()
    best_from = np.full(n, root, dtype=np.int64)
    inside = np.zeros(n, dtype=bool)
    inside[root] = True
    rank = np.zeros(n, dtype=np.int64)
    edges = []
    for step in range(1, n):
        outside = np.flatnonzero(~inside)
        ties = outside[best[outside] == best[outside].min()]
        lo = np.minimum(best_from[ties], ties)
        hi = np.maximum(best_from[ties], ties)
        v = int(ties[np.lexsort((hi, lo))[0]])
        edges.append((int(best_from[v]), v, float(best[v])))
        inside[v] = True
        rank[v] = step
        dv = spec.one_to_many(pts[v], pts)
        # equal lengths keep the smaller tree endpoint
        update = ~inside & ((dv < best) | ((dv == best) & (v < best_from)))
        best[update] = dv[update]
        best_from[update] = v
    return edges, rank.tolist()


def assert_canonical(cloud, spec, root=0):
    edges, rank = dense_canonical_prim(cloud, spec, root)
    prim = build_mst_prim(cloud, spec, root=root)
    assert prim.edges == edges
    assert prim.insertion_rank == rank
    expected = sorted(
        ((min(u, v), max(u, v), length) for u, v, length in edges),
        key=lambda e: (e[2], e[0], e[1]),
    )
    assert build_mst_kruskal(cloud, spec).edges == expected


TREE_SPECS = [Lp(1.0), L2, Lp(3.0), PowerQuasi(L2, 2.0), Snowflake(L2, 0.5), Chebyshev()]


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 90),
    d=st.integers(1, 4),
    lattice=st.booleans(),
    spec_idx=st.integers(0, len(TREE_SPECS) - 1),
    root_frac=st.floats(0.0, 0.999),
)
def test_trees_match_dense_canonical_prim(seed, n, d, lattice, spec_idx, root_frac):
    rng = np.random.default_rng(seed)
    if lattice:
        pts = rng.integers(0, 4, (n, d)).astype(np.float64)  # ties and duplicates
    else:
        pts = rng.random((n, d))
        pts[rng.integers(0, n, n // 4)] = pts[rng.integers(0, n, n // 4)]
    assert_canonical(PointCloud(pts), TREE_SPECS[spec_idx], root=int(root_frac * n))


@pytest.mark.parametrize(
    "shape, size", [("grid", 64), ("sierpinski-carpet", 4), ("cantor", 8)]
)
def test_trees_match_dense_canonical_prim_on_shapes(shape, size):
    # exact length ties everywhere: the tie-break alone picks the tree
    assert_canonical(builtin_shape(shape, size)[0], L2)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 80),
    d=st.integers(1, 4),
    spec_idx=st.integers(0, len(TREE_SPECS) - 1),
    radius=st.floats(0.0, 2.0),
)
def test_cell_pairs_cover_every_close_pair_once(seed, n, d, spec_idx, radius):
    # the candidate rounds see every pair within the radius, each once; a
    # missed pair would leave the work to the Prim stage or break the tree
    spec = TREE_SPECS[spec_idx]
    pts = np.random.default_rng(seed).integers(0, 5, (n, d)) * 0.25
    blocks = list(_CellPairs(pts, spec, radius, math.inf).blocks())
    found = [(min(i, j), max(i, j)) for a, b in blocks for i, j in zip(a.tolist(), b.tolist())]
    assert len(found) == len(set(found))
    assert all(i != j for i, j in found)
    close = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if spec.one_to_many(pts[i], pts[j : j + 1])[0] <= radius
    }
    assert close <= set(found)


def _partition(label):
    """Each point's component named by its least member."""
    _, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    return first[inverse]


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 40),
    merged=st.integers(0, 40),
    pairs=st.integers(0, 150),
    levels=st.integers(1, 4),
)
def test_join_matches_sequential_kruskal(seed, n, merged, pairs, levels):
    # candidates in canonical order over a forest with some components
    # merged already; few length levels give ties, and small n gives pairs
    # inside one component
    rng = np.random.default_rng(seed)
    _, label = kruskal_join(np.arange(n), *rng.integers(0, n, (2, merged)))
    i, j = rng.integers(0, n, (2, pairs))
    keep = i != j
    u, v = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
    length = rng.integers(0, levels, u.size)
    order = np.lexsort((v, u, length))
    u, v = u[order].astype(np.int32), v[order].astype(np.int32)
    expected_taken, expected_label = kruskal_join(label, u, v)
    taken, joined = _join(label.astype(np.int32), u, v)
    assert np.array_equal(taken, expected_taken)
    assert np.array_equal(_partition(joined), _partition(expected_label))
    assert np.array_equal(joined[joined], joined)  # every label is a root


def _adversarial_clouds(n):
    rng = np.random.default_rng(8)
    return {
        "far-outlier": np.vstack([rng.random((n - 1, 2)), [[1e6, -1e6]]]),
        "two-far-clusters": np.vstack([rng.random((n // 2, 2)), rng.random((n // 2, 2)) + 1e4]),
        "blob-in-square": np.vstack(
            [rng.random((n // 4, 2)), 0.5 + 1e-6 * rng.random((n - n // 4, 2))]
        ),
        "duplicated-4x": np.repeat(rng.random((n // 4, 2)), 4, axis=0),
        "line-in-3d": np.outer(rng.random(n), [1.0, -2.0, 0.5]),
    }


@pytest.mark.parametrize("name", sorted(_adversarial_clouds(8)))
def test_builder_work_bound(name):
    # A dense scan of all pairs makes n (n - 1) / 2 evaluations. The builder
    # may add its 16 sampled rows and at most 64 n candidate pairs longer
    # than their round's radius, so c = 80.
    n = 1024
    cloud = PointCloud(_adversarial_clouds(n)[name])
    spec = Counting(L2)
    tree = build_mst_kruskal(cloud, spec)
    assert spec.evals <= n * (n - 1) // 2 + 80 * n
    assert tree.edges == build_mst_kruskal(cloud, L2).edges
    assert_canonical(cloud, L2)
