"""What the tests share: a metric with no coordinate or distance bound, a
wrapper that counts evaluations, and the oracles: a sequential Kruskal over
candidate pairs, the row scan for the diameter, the exhaustive minimal tree
over Prufer sequences, the packing floor on tree energies and the per-edge
tree record formatter."""

import itertools

import numpy as np

from mstdim.dimension import greedy_packing
from mstdim.energy import check_alphas, energies
from mstdim.errors import InputError
from mstdim.metric import DistanceSpec, PointCloud
from mstdim.mst import SpanningTree, build_mst_kruskal
from mstdim.reports import CheckReport


class Chebyshev(DistanceSpec):
    """Max-coordinate metric with only ``one_to_many``: no coordinate or
    distance bound and the default ``pairs``."""

    @property
    def weak_triangle_const(self):
        return 1.0

    def one_to_many(self, a, pts, out=None):
        return np.abs(np.asarray(pts) - np.asarray(a)).max(axis=1)


class Counting(DistanceSpec):
    """Counts the distances evaluated through either kernel (``evals`` in
    total, ``kernel_evals`` per kernel), and the calls of each kernel."""

    def __init__(self, base):
        self.base = base
        self.evals = 0
        self.kernel_evals = {"one_to_many": 0, "pairs": 0}
        self.calls = {"one_to_many": 0, "pairs": 0}

    def _count(self, kernel, evals):
        self.evals += evals
        self.kernel_evals[kernel] += evals
        self.calls[kernel] += 1

    @property
    def weak_triangle_const(self):
        return self.base.weak_triangle_const

    def one_to_many(self, a, pts, out=None):
        self._count("one_to_many", len(pts))
        return self.base.one_to_many(a, pts, out)

    def pairs(self, lhs, rhs):
        self._count("pairs", len(lhs))
        return self.base.pairs(lhs, rhs)

    def coordinate_radius(self, t):
        return self.base.coordinate_radius(t)

    def distance_bound(self, extent):
        return self.base.distance_bound(extent)


def kruskal_join(label, u, v):
    """Reference for ``mst._join``: union-find Kruskal over the pairs ``u``,
    ``v`` in list order, on the forest whose components ``label`` names.
    Returns the mask of the pairs that join two components and the root of
    every point afterwards."""
    parent = np.asarray(label).tolist()

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    taken = np.zeros(len(u), dtype=bool)
    for k, (a, b) in enumerate(zip(np.asarray(u).tolist(), np.asarray(v).tolist())):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            taken[k] = True
    return taken, np.array([find(x) for x in range(len(parent))])


def tree_text(tree):
    """Reference for ``mst.tree_to_text``: one ``"[{}, {}, {:.17g}]".format``
    call per edge."""
    edge_parts = ", ".join(
        map("[{}, {}, {:.17g}]".format, tree.u.tolist(), tree.v.tolist(), tree.length.tolist())
    )
    return f'{{"n": {tree.n}, "builder": "{tree.builder}", "edges": [{edge_parts}]}}\n'


def diameter(cloud, spec):
    """Reference for ``metric.diameter``: the maximum over a row-wise scan of
    the upper triangle, O(n^2) evaluations."""
    pts = cloud.points
    rows = (spec.one_to_many(pts[i], pts[i + 1 :]) for i in range(len(pts) - 1))
    return max((float(row.max()) for row in rows), default=0.0)


def _prufer_edges(seqs, n):
    """Decode the Prufer sequences in the rows of ``seqs`` side by side:
    yields, for each of the n - 1 steps, the columns (leaf, x) of the edge
    it adds in every row. A step joins the least leaf to the next entry x
    and drops the leaf; the last joins the two vertices left, one of them
    n - 1, which is never the least of two or more leaves."""
    rows, cols = np.arange(len(seqs)), np.arange(n)
    degree = np.ones((len(seqs), n), dtype=np.int64)
    for x in seqs.T:
        np.add.at(degree, (rows, x), 1)
    for x in seqs.T:
        leaf = np.argmin(np.where(degree == 1, cols, n), axis=1)
        yield leaf, x
        degree[rows, leaf] = 0
        degree[rows, x] -= 1
    yield np.argmin(np.where(degree == 1, cols, n), axis=1), np.full(len(seqs), n - 1)


def _all_tree_energies(weights: np.ndarray):
    """Energy of every labeled spanning tree, trees indexed by Prufer sequence
    in lexicographic order. Vectorized across all n^(n-2) sequences."""
    n = weights.shape[0]
    seqs = np.array(list(itertools.product(range(n), repeat=n - 2)), dtype=np.int64)
    energy = np.zeros(len(seqs))
    for leaf, x in _prufer_edges(seqs, n):
        energy += weights[leaf, x]
    return energy, seqs


def brute_force_min_tree(cloud: PointCloud, spec: DistanceSpec, alpha: float):
    """Global minimum of the alpha-energy over every labeled spanning tree.

    Returns (tree, energy). Restricted to 2 <= n <= 8 (n^(n-2) trees) and to
    an alpha that is finite and > 0. Among equal-energy minimizers, the tree
    whose Prufer sequence is lexicographically smallest is returned.
    """
    check_alphas([alpha])
    n = cloud.n
    if not (2 <= n <= 8):
        raise InputError(f"brute force supports 2 <= n <= 8, got n={n}")
    pts = cloud.points
    dist = np.empty((n, n))
    for i in range(n):
        spec.one_to_many(pts[i], pts, out=dist[i])
    weights = dist**alpha
    np.fill_diagonal(weights, 0.0)
    energies, seqs = _all_tree_energies(weights)
    best = int(np.argmin(energies))
    u, v = (np.concatenate(c) for c in zip(*_prufer_edges(seqs[best : best + 1], n)))
    tree = SpanningTree(n, "brute-force", (u, v, dist[u, v]))
    return tree, float(energies[best])


def packing_lower_bound_check(
    cloud: PointCloud, spec: DistanceSpec, eps: float, alpha: float
) -> CheckReport:
    """Energy floor from a packing: over the packing centers every tree edge
    must exceed 2 eps, hence the alpha-energy of their tree is at least
    (count - 1) (2 eps)^alpha. Reports both sides.
    """
    check_alphas([alpha])
    packing = greedy_packing(cloud, spec, eps)
    if packing.count < 2:
        raise InputError("packing produced fewer than 2 centers, nothing to check")
    centers = PointCloud(cloud.points[packing.center_indices])
    lengths = build_mst_kruskal(centers, spec).length
    min_edge = float(lengths.min())
    (energy_value,) = energies(lengths, [alpha])
    bound = (packing.count - 1) * (2.0 * eps) ** alpha
    edges_ok = min_edge > 2.0 * eps
    energy_ok = energy_value >= bound * (1.0 - 1e-12)
    return CheckReport(
        name="packing-lower-bound",
        parameters={"eps": eps, "alpha": alpha, "count": packing.count},
        passed=bool(edges_ok and energy_ok),
        min_slack=min(min_edge - 2.0 * eps, energy_value - bound),
        details={
            "min_edge": min_edge,
            "edge_threshold": 2.0 * eps,
            "energy": energy_value,
            "energy_bound": bound,
        },
    )
