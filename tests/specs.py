"""Distance specs the tests share: a metric with no coordinate bound and a
wrapper that counts evaluations."""

import numpy as np

from mstdim.metric import DistanceSpec


class Chebyshev(DistanceSpec):
    """Max-coordinate metric with only ``one_to_many``: no coordinate bound
    and the default ``pairs``."""

    @property
    def weak_triangle_const(self):
        return 1.0

    def one_to_many(self, a, pts, out=None):
        return np.abs(np.asarray(pts) - np.asarray(a)).max(axis=1)


class Counting(DistanceSpec):
    """Counts the distances evaluated through either kernel."""

    def __init__(self, base):
        self.base = base
        self.evals = 0

    @property
    def weak_triangle_const(self):
        return self.base.weak_triangle_const

    def one_to_many(self, a, pts, out=None):
        self.evals += len(pts)
        return self.base.one_to_many(a, pts, out)

    def pairs(self, lhs, rhs):
        self.evals += len(lhs)
        return self.base.pairs(lhs, rhs)

    def coordinate_radius(self, t):
        return self.base.coordinate_radius(t)
