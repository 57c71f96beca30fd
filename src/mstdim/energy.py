"""Edge-length energy functionals.

The alpha-energy of a tree is the sum of edge lengths raised to alpha.
Reports carry a dyadic histogram: band k counts the edges with length in
(2^-k-1, 2^-k], anchored at the absolute scale 1 with an explicit overflow
band for lengths above 1 (divide the coordinates by the cloud diameter
first if band indices should match the normalized convention). Zero-length
edges, which duplicate points produce, are tracked separately so they never
distort the histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError
from .reports import format_float

if TYPE_CHECKING:  # mst imports this module for check_alphas
    from .mst import SpanningTree

__all__ = [
    "EnergyReport",
    "energy",
    "energies",
    "check_alphas",
    "count_edges_longer_than",
]


@dataclass
class EnergyReport:
    """Value of an alpha-energy together with its dyadic length histogram."""

    alpha: float
    value: float
    max_edge: float
    n: int
    bands: dict = field(default_factory=dict)
    overflow: int = 0
    zero_edges: int = 0

    def band_total(self) -> int:
        return sum(self.bands.values()) + self.overflow + self.zero_edges

    def to_text(self) -> str:
        band_items = ", ".join(
            f"[{k}, {self.bands[k]}]" for k in sorted(self.bands)
        )
        return (
            "{"
            f'"alpha": {format_float(self.alpha)}, '
            f'"value": {format_float(self.value)}, '
            f'"max_edge": {format_float(self.max_edge)}, '
            f'"n": {self.n}, '
            f'"bands": [{band_items}], '
            f'"overflow": {self.overflow}, '
            f'"zero_edges": {self.zero_edges}'
            "}\n"
        )


def check_alphas(alphas) -> list:
    """The alphas as a list, after checking that each is finite and > 0
    (alpha = 0 would count the edges). Callers check before building."""
    alphas = list(alphas)
    for a in alphas:
        if not (math.isfinite(a) and a > 0):
            raise InputError(f"alpha must be finite and > 0, got {a}")
    return alphas


def energies(lengths, alphas) -> list:
    """Sum of length^alpha over the nonzero lengths, for each alpha.

    Summation runs in ascending length order (fixed order keeps results
    reproducible and reduces cancellation). Zero lengths, which duplicate
    points produce, are left out. Alphas pass ``check_alphas``.
    """
    alphas = check_alphas(alphas)
    lengths = np.sort(lengths)
    nonzero = lengths[lengths > 0.0]
    return [float(np.sum(nonzero**a)) for a in alphas]


def energy(tree: SpanningTree, alpha: float) -> EnergyReport:
    """The alpha-energy of the tree (see ``energies``) with its dyadic
    length histogram."""
    lengths = np.sort(tree.length)
    (value,) = energies(lengths, [alpha])
    nonzero = lengths[lengths > 0.0]
    # length = mantissa * 2^exponent, mantissa in [0.5, 1): band -exponent,
    # and 2^-k (mantissa 0.5) closes band k
    mantissa, exponent = np.frexp(nonzero[nonzero <= 1.0])
    bands, counts = np.unique((mantissa == 0.5) - exponent, return_counts=True)
    return EnergyReport(
        alpha=alpha,
        value=value,
        max_edge=float(lengths[-1]) if lengths.size else 0.0,
        n=tree.n,
        bands=dict(zip(bands.tolist(), counts.tolist())),
        overflow=int(np.count_nonzero(nonzero > 1.0)),
        zero_edges=int(lengths.size - nonzero.size),
    )


def count_edges_longer_than(tree: SpanningTree, eps: float) -> int:
    """Number of edges with length strictly greater than eps."""
    if not eps > 0:
        raise InputError("eps must be > 0")
    return int(np.count_nonzero(tree.length > eps))
