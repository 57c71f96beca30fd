import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mstdim import metric, mst
from mstdim.energy import energies
from mstdim.errors import InputError
from mstdim.generators import builtin_shape, generate_grid, generate_uniform
from mstdim.metric import Lp, PointCloud, PowerQuasi, Snowflake, _CellPairs
from mstdim.mst import (
    SpanningTree,
    _canonical_order,
    _join,
    build_mst_kruskal,
    build_mst_prim,
    tree_from_text,
    tree_to_text,
    read_tree,
    write_tree,
)
from specs import (
    Chebyshev,
    Counting,
    _prufer_edges,
    brute_force_min_tree,
    kruskal_join,
    tree_text,
)

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
    assert energies(prim.length, [1.0])[0] == pytest.approx(3.0, rel=1e-12)
    assert energies(kruskal.length, [1.0])[0] == pytest.approx(3.0, rel=1e-12)

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
    assert energies(tree.length, [1.0])[0] == 0.0
    assert build_mst_kruskal(cloud, L2).edges == []


def test_two_points():
    cloud = PointCloud([[0.0], [5.0]])
    tree = build_mst_prim(cloud, L2)
    assert tree.edges == [(0, 1, 5.0)]
    assert energies(tree.length, [1.0])[0] == 5.0


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
    assert energies(tree.length, [1.0])[0] == pytest.approx(2.0, rel=1e-12)
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
    a = energies(build_mst_prim(cloud, spec).length, [1.0])[0]
    b = energies(build_mst_kruskal(cloud, spec).length, [1.0])[0]
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
    a = energies(build_mst_prim(cloud, L2).length, [1.0])[0]
    b = energies(build_mst_kruskal(cloud, L2).length, [1.0])[0]
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
        seqs = np.array(list(itertools.product(range(n), repeat=n - 2)))
        steps = list(_prufer_edges(seqs, n))
        seen = {
            frozenset(frozenset((int(leaf[r]), int(x[r]))) for leaf, x in steps)
            for r in range(len(seqs))
        }
        assert len(seen) == n ** (n - 2)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 7))
def test_kruskal_matches_brute_force_e1(seed, n):
    cloud = PointCloud(np.random.default_rng(seed).random((n, 2)))
    _, best = brute_force_min_tree(cloud, L2, 1.0)
    assert energies(build_mst_kruskal(cloud, L2).length, [1.0])[0] == pytest.approx(
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
    assert energies(prim.length, [1.0])[0] == pytest.approx(1.0, rel=1e-12)


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


def _record_trees():
    """Builders of the trees whose records are checked, by name."""
    carpet = builtin_shape("sierpinski-carpet", 4)[0]
    uniform = generate_uniform(2048, 2, 5)
    repeated = PointCloud(np.repeat(np.random.default_rng(4).random((40, 2)), 3, axis=0))
    # a path 0 - 1 - ... - 7 in insertion order, lengths at the ends of the
    # double range and repeated
    lengths = [1 / 3, 5e-324, 2.2250738585072014e-308, 1e308, 1 / 3, 5e-324, 1e308]
    path = (np.arange(7), np.arange(1, 8), np.array(lengths))
    return {
        "carpet-4-prim": lambda: build_mst_prim(carpet, L2),
        "carpet-4-kruskal": lambda: build_mst_kruskal(carpet, L2),
        "uniform-2048-prim": lambda: build_mst_prim(uniform, L2),
        "uniform-2048-kruskal": lambda: build_mst_kruskal(uniform, L2),
        "duplicates-prim": lambda: build_mst_prim(repeated, L2),
        "duplicates-kruskal": lambda: build_mst_kruskal(repeated, L2),
        "hand-made": lambda: SpanningTree(8, "hand", path, list(range(8))),
        "one-point-prim": lambda: build_mst_prim(PointCloud([[0.5, 0.5]]), L2),
        "one-point-kruskal": lambda: build_mst_kruskal(PointCloud([[0.5, 0.5]]), L2),
    }


@pytest.mark.parametrize("name", list(_record_trees()))
def test_tree_text_matches_the_per_edge_format(name):
    # one %.17g per distinct length writes what one format per edge wrote,
    # byte for byte, and the record reads back bit for bit
    tree = _record_trees()[name]()
    if name.startswith("duplicates"):
        assert np.count_nonzero(tree.length == 0.0) == 80
    if name.startswith("uniform"):
        assert np.unique(tree.length).size == tree.n - 1
    text = tree_to_text(tree)
    assert text == tree_text(tree)
    back = tree_from_text(text)
    assert (back.n, back.builder, back.insertion_rank) == (
        tree.n,
        tree.builder,
        tree.insertion_rank,
    )
    assert np.array_equal(back.u, tree.u) and np.array_equal(back.v, tree.v)
    assert np.array_equal(back.length.view(np.int64), tree.length.view(np.int64))


def test_tree_text_keeps_negative_zero_apart():
    # -0.0 == 0.0, but the lengths are told apart by their bits
    tree = SpanningTree(4, "hand", (np.arange(3), np.arange(1, 4), np.array([0.0, -0.0, 0.0])))
    assert tree_to_text(tree) == tree_text(tree)
    assert '"edges": [[0, 1, 0], [1, 2, -0], [2, 3, 0]]' in tree_to_text(tree)


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
    "shape, size",
    [
        ("grid", 64),
        ("sierpinski-carpet", 4),
        ("cantor", 8),
        ("cantor", 10),
        ("cantor-dust", 5),
    ],
)
def test_trees_match_dense_canonical_prim_on_shapes(shape, size):
    # exact length ties everywhere: the tie-break alone picks the tree.
    # Cantor 10 and cantor-dust 5 reach the Prim stage as 16 components of
    # 64 points.
    assert_canonical(builtin_shape(shape, size)[0], L2)


@pytest.mark.parametrize("cloud", ["carpet", "duplicates", "line"])
def test_trees_match_dense_canonical_prim_in_small_blocks(cloud, monkeypatch):
    # blocks of 5 pairs: every run is cut into pieces, and the candidate
    # rounds read each grid in many blocks
    monkeypatch.setattr(metric, "_BLOCK_PAIRS", 5)
    rng = np.random.default_rng(3)
    clouds = {
        "carpet": builtin_shape("sierpinski-carpet", 3)[0],
        "duplicates": PointCloud(np.repeat(rng.integers(0, 6, (60, 2)) * 0.5, 3, axis=0)),
        "line": PointCloud(np.arange(300.0)[rng.permutation(300)]),
    }
    edges, _ = dense_canonical_prim(clouds[cloud], L2)
    expected = sorted(
        ((min(u, v), max(u, v), length) for u, v, length in edges),
        key=lambda e: (e[2], e[0], e[1]),
    )
    assert build_mst_kruskal(clouds[cloud], L2).edges == expected


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 80),
    d=st.integers(1, 4),
    spec_idx=st.integers(0, len(TREE_SPECS) - 1),
    radius=st.floats(0.0, 2.0),
    picks=st.lists(st.integers(0, 10**6), max_size=8),
    block=st.sampled_from([3, None]),
)
def test_cell_pairs_cover_every_close_pair_once(seed, n, d, spec_idx, radius, picks, block):
    # the candidate rounds see every pair within the radius, each once; a
    # missed pair would leave the work to the Prim stage or break the tree.
    # Blocks of 3 pairs cut the runs into pieces.
    with pytest.MonkeyPatch.context() as patch:
        if block:
            patch.setattr(metric, "_BLOCK_PAIRS", block)
        _check_cell_pairs(TREE_SPECS[spec_idx], np.random.default_rng(seed), n, d, radius, picks)


def _check_cell_pairs(spec, rng, n, d, radius, picks):
    pts = rng.integers(0, 5, (n, d)) * 0.25
    cells = _CellPairs(pts, spec, radius)
    blocks = list(cells.blocks())
    assert all(len(a) <= metric._BLOCK_PAIRS for a, _, _ in blocks)
    found = [(min(i, j), max(i, j)) for a, b, _ in blocks for i, j in zip(a.tolist(), b.tolist())]
    assert len(found) == len(set(found))
    assert all(i != j for i, j in found)
    # the count is exact, and the grid can be read again
    assert cells.total == len(found)
    again = [(min(i, j), max(i, j)) for a, b, _ in cells.blocks() for i, j in zip(a, b)]
    assert again == found
    within = [
        {j for j in range(n) if spec.one_to_many(pts[i], pts[j : j + 1])[0] <= radius}
        for i in range(n)
    ]
    close = {(i, j) for i in range(n) for j in within[i] if i < j}
    assert close <= set(found)
    # given points: each pairs with every point of its runs, itself included
    points = np.array([p % n for p in picks], dtype=np.intp)
    runs = [{i} for i in range(n)]
    for i, j in found:
        runs[i].add(j)
        runs[j].add(i)
    given = list(cells.blocks(points=points))
    assert all(len(a) <= metric._BLOCK_PAIRS for a, _, _ in given)
    paired = [(i, j) for a, b, _ in given for i, j in zip(a.tolist(), b.tolist())]
    assert sorted(paired) == sorted((i, j) for i in points.tolist() for j in runs[i])
    # each distance is the one the row kernel computes, bit for bit
    for a, b, distance in blocks + given:
        row = [spec.one_to_many(pts[j], pts[i : i + 1])[0] for i, j in zip(a, b)]
        assert distance.tobytes() == np.array(row, dtype=np.float64).tobytes()
    # a label keeps exactly the pairs whose endpoints differ in it, and drops
    # the others before they are measured
    label = rng.integers(0, 3, n).astype(np.int32)
    for source, every in ((None, found), (points, paired)):
        counting = Counting(spec)
        kept = [
            (i, j)
            for a, b, _ in _CellPairs(pts, counting, radius).blocks(label, source)
            for i, j in zip(a.tolist(), b.tolist())
        ]
        if source is None:
            kept = [(min(i, j), max(i, j)) for i, j in kept]
        assert sorted(kept) == sorted(p for p in every if label[p[0]] != label[p[1]])
        assert counting.evals == len(kept)
    # a label written between blocks is read at the next block: marking the
    # neighbours seen so far drops them from every later block
    live = np.ones(n, dtype=np.uint8)
    live[points] = 0
    seen = set()
    for _, b, _ in cells.blocks(live, points):
        assert live.take(b).all()
        live[b] = 0
        seen.update(b.tolist())
    assert seen == set().union(*(runs[i] for i in points.tolist())) - set(points.tolist())


def _partition(label):
    """Each point's component named by its least member."""
    _, first, inverse = np.unique(label, return_index=True, return_inverse=True)
    return first[inverse]


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 40),
    groups=st.integers(2, 8),
    d=st.integers(1, 2),
)
def test_prim_stage_matches_kruskal_between_components(seed, n, groups, d):
    # The Prim stage over any forest takes exactly the edges Kruskal takes
    # over every pair between two of its components, in canonical order.
    # Lattice points tie everywhere, and components of every size make both
    # sides of the relax (a row per joined or per outside point) pick among
    # equal lengths.
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 4, (n, d)).astype(np.float64)
    label = _partition(rng.integers(0, groups, n)).astype(np.int32)
    assume(len(np.unique(label)) > 1)
    i, j = np.triu_indices(n, 1)
    cross = label[i] != label[j]
    i, j = i[cross], j[cross]
    length = L2.pairs(pts[i], pts[j])
    order = np.lexsort((j, i, length))
    i, j, length = i[order], j[order], length[order]
    taken, _ = kruskal_join(label, i, j)
    u, v, found = mst._finish(pts, L2, label)
    order = np.lexsort((v, u, found))
    assert u[order].tolist() == i[taken].tolist()
    assert v[order].tolist() == j[taken].tolist()
    assert found[order].tobytes() == length[taken].tobytes()


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


@st.composite
def _candidates(draw):
    """Distinct pairs u < v < 2^31 in any order, each with a length; small
    indices make pairs that share an endpoint, few lengths make ties."""
    index = st.integers(0, 9) | st.integers(0, 2**31 - 1)
    pairs = draw(
        st.lists(
            st.tuples(index, index).filter(lambda p: p[0] != p[1]).map(sorted).map(tuple),
            max_size=60,
            unique=True,
        )
    )
    lengths = st.sampled_from([0.0, 0.25, 1.0, math.inf]) | st.floats(allow_nan=False)
    length = draw(st.lists(lengths, min_size=len(pairs), max_size=len(pairs)))
    u, v = np.array(pairs, dtype=np.int32).reshape(-1, 2).T
    return np.array(length, dtype=np.float64), u, v


@settings(deadline=None, max_examples=300)
@given(candidates=_candidates())
def test_canonical_order_is_the_three_key_lexsort(candidates):
    # with and without ties, zeros and inf: one argsort when the lengths
    # are distinct, the packed lexsort otherwise
    length, u, v = candidates
    assert np.array_equal(_canonical_order(length, u, v), np.lexsort((v, u, length)))


def _rank_bits(length, u, v):
    """Bits of the packed key (rank << 2b) | (u << b) | v: those of the
    largest length rank plus twice b, the bit length of the largest index."""
    top = np.unique(length).size - 1  # -0.0 and 0.0 share a rank
    return top.bit_length() + 2 * int(max(u.max(), v.max())).bit_length()


@st.composite
def _tied_candidates(draw, index, lengths, distinct):
    """Distinct pairs of ``index`` values, each with one of at least
    ``distinct`` different ``lengths``; at least two of them are tied."""
    values = draw(st.lists(lengths, min_size=distinct, max_size=6, unique=True))  # by ==
    length = draw(st.permutations(values + values[:2] + draw(st.lists(st.sampled_from(values)))))
    pairs = draw(
        st.lists(
            st.tuples(index, index).filter(lambda p: p[0] != p[1]),
            min_size=len(length),
            max_size=len(length),
            unique=True,
        )
    )
    u, v = np.array(pairs, dtype=np.int32).reshape(-1, 2).T
    return np.array(length, dtype=np.float64), u, v


@settings(deadline=None, max_examples=300)
@given(
    candidates=_tied_candidates(
        st.integers(0, 40),
        st.sampled_from([0.0, -0.0, math.inf, 0.25, 1.0, 1 / 3]) | st.floats(0.0, 2.0),
        distinct=1,
    )
)
def test_canonical_order_packs_tied_ranks(candidates):
    # small indices and few tied lengths, with 0.0, -0.0 and inf: one
    # argsort of the packed (rank, u, v) key
    length, u, v = candidates
    assert _rank_bits(length, u, v) <= 63
    assert np.array_equal(_canonical_order(length, u, v), np.lexsort((v, u, length)))


@settings(deadline=None, max_examples=200)
@given(
    candidates=_tied_candidates(
        st.integers(2**31 - 40, 2**31 - 1),
        st.floats(0.0, 1e300) | st.just(math.inf),
        distinct=3,
    )
)
def test_canonical_order_of_wide_keys_is_the_lexsort(candidates):
    # indices near 2^31 - 1 leave no room for a rank of two bits: the
    # lexsort branch
    length, u, v = candidates
    assert _rank_bits(length, u, v) > 63
    assert np.array_equal(_canonical_order(length, u, v), np.lexsort((v, u, length)))


def test_canonical_order_memory_on_tied_candidates():
    # bound stated first: 32 bytes per candidate, four 8-byte arrays at once
    rng = np.random.default_rng(6)
    first, step = np.divmod(rng.permutation(150_000), 200)
    u = first.astype(np.int32)
    v = (first + 1 + step).astype(np.int32)
    length = np.sqrt(rng.integers(1, 78, u.size).astype(np.float64))
    expected = np.lexsort((v, u, length))
    tracemalloc.start()
    try:
        order = _canonical_order(length, u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(order, expected)
    assert peak <= 32 * u.size


@pytest.mark.parametrize(
    "lengths",
    [[], [0.0], [math.inf], [1.0, 0.5], [0.5, 0.5], [0.0, 0.0], [math.inf, math.inf]],
)
def test_canonical_order_of_few_pairs(lengths):
    # sizes 0, 1 and 2, the pair with the larger u first
    length = np.array(lengths, dtype=np.float64)
    u = np.array([2**31 - 2, 0], dtype=np.int32)[: length.size]
    v = np.array([2**31 - 1, 2**31 - 1], dtype=np.int32)[: length.size]
    assert np.array_equal(_canonical_order(length, u, v), np.lexsort((v, u, length)))


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


@pytest.mark.parametrize("spec", [L2, PowerQuasi(L2, 2.0)], ids=["l2", "powerquasi"])
@pytest.mark.parametrize("name", ["far-outlier", "two-far-clusters", "blob-in-square"])
def test_prim_stage_edges_follow_the_rounds(name, spec):
    # At 300 points two-far-clusters leaves the Prim stage a forest of two
    # trees, the others leave it singletons: either way Prim's edges, sorted
    # alone, come after the rounds' edges.
    assert_canonical(PointCloud(_adversarial_clouds(300)[name]), spec)


@pytest.mark.parametrize("name, per_point",[("line-in-3d", 32), ("duplicated-4x", 1024)])
def test_candidate_rounds_work_bound(name, per_point):
    # Measured: line-in-3d takes 23.3 evaluations per point, 61.9 if later
    # rounds also measure the pairs inside one component; duplicated-4x takes
    # 530.6, 4,107 if every round doubles its radius.
    n = 8192
    spec = Counting(L2)
    build_mst_kruskal(PointCloud(_adversarial_clouds(n)[name]), spec)
    assert spec.evals <= per_point * n


@pytest.mark.parametrize(
    "name, evals",
    [
        ("cantor-10", 491_520),
        ("cantor-dust-5", 491_520),
        ("uniform-d4", 2_096_128),
        ("uniform-with-outlier", 2_096_128),
    ],
)
def test_prim_stage_measures_each_pair_once(name, evals, monkeypatch):
    # Stated before the work: the Prim stage measures no pair inside one
    # component, and every other pair with an outside endpoint once, when
    # the first of its two components joins. With B the largest component
    # that is |B| (n - |B|) + sum over C < C' of |C| |C'| one_to_many
    # evaluations over the other components. The cantor sets reach it as 16
    # components of 64 points (64 * 960 + 105 * 64^2), the others as 2,048
    # singletons (2,048 * 2,047 / 2).
    clouds = {
        "cantor-10": lambda: builtin_shape("cantor", 10)[0],
        "cantor-dust-5": lambda: builtin_shape("cantor-dust", 5)[0],
        "uniform-d4": lambda: generate_uniform(2048, 4, 1),
        "uniform-with-outlier": lambda: PointCloud(
            np.vstack([generate_uniform(2047, 2, 1).points, [[1e9, 1e9]]])
        ),
    }
    counting = Counting(L2)
    stages = []
    finish = mst._finish

    def recorded(pts, spec, label):
        before = dict(counting.kernel_evals)
        result = finish(pts, spec, label)
        used = {kernel: counting.kernel_evals[kernel] - before[kernel] for kernel in before}
        stages.append((np.bincount(label), used))
        return result

    monkeypatch.setattr(mst, "_finish", recorded)
    build_mst_kruskal(clouds[name](), counting)
    ((counts, used),) = stages
    sizes = np.sort(counts[counts > 0])[::-1].astype(np.int64)
    big, other = sizes[0], sizes[1:]
    expected = big * other.sum() + (other.sum() ** 2 - (other**2).sum()) // 2
    assert expected == evals
    assert used == {"one_to_many": evals, "pairs": 0}


def test_forest_goes_to_prim_before_the_next_grid(monkeypatch):
    # The first round leaves uniform d = 3 a forest that Prim finishes more
    # cheaply than more rounds would: no second grid is built (9 without the
    # Prim exit).
    built = []

    class Recorded(_CellPairs):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(mst, "_CellPairs", Recorded)
    build_mst_kruskal(generate_uniform(4096, 3, 5), L2)
    assert len(built) == 1
