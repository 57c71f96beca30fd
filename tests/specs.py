"""What the tests share: a metric with no coordinate or distance bound, a
wrapper that counts evaluations, a sequential Kruskal over candidate pairs
and the row scan for the diameter."""

import numpy as np

from mstdim.metric import DistanceSpec


class Chebyshev(DistanceSpec):
    """Max-coordinate metric with only ``one_to_many``: no coordinate or
    distance bound and the default ``pairs``."""

    @property
    def weak_triangle_const(self):
        return 1.0

    def one_to_many(self, a, pts, out=None):
        return np.abs(np.asarray(pts) - np.asarray(a)).max(axis=1)


class Counting(DistanceSpec):
    """Counts the distances evaluated through either kernel, and the calls
    of each kernel."""

    def __init__(self, base):
        self.base = base
        self.evals = 0
        self.calls = {"one_to_many": 0, "pairs": 0}

    @property
    def weak_triangle_const(self):
        return self.base.weak_triangle_const

    def one_to_many(self, a, pts, out=None):
        self.evals += len(pts)
        self.calls["one_to_many"] += 1
        return self.base.one_to_many(a, pts, out)

    def pairs(self, lhs, rhs):
        self.evals += len(lhs)
        self.calls["pairs"] += 1
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


def diameter(cloud, spec):
    """Reference for ``metric.diameter``: the maximum over a row-wise scan of
    the upper triangle, O(n^2) evaluations."""
    pts = cloud.points
    rows = (spec.one_to_many(pts[i], pts[i + 1 :]) for i in range(len(pts) - 1))
    return max((float(row.max()) for row in rows), default=0.0)
