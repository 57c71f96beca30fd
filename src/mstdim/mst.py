"""Minimal spanning tree construction.

Three builders with fully specified tie-breaking so runs are reproducible
bit for bit:

* ``build_mst_prim``: dense O(n^2) greedy growth from a root, recording the
  order in which vertices entered the tree (the insertion ranks downstream
  verifiers need). Works for any distance oracle, no spatial pruning.
* ``build_mst_kruskal``: global edge sort with union-find, as a cross-check.
* ``brute_force_min_tree``: exhaustive minimum of the alpha-energy over all
  n^(n-2) labeled spanning trees, enumerated through Prufer sequences.
  The small-n oracle the fast builders are tested against.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError
from .metric import DistanceSpec, PointCloud, triangle_rows
from .reports import format_float

__all__ = [
    "SpanningTree",
    "build_mst_prim",
    "build_mst_kruskal",
    "brute_force_min_tree",
    "tree_total_length",
    "tree_to_text",
    "tree_from_text",
    "write_tree",
    "read_tree",
]

# Kruskal materializes all n(n-1)/2 edges; cap the pair count to keep memory
# bounded (Prim streams rows and has no such limit).
KRUSKAL_MAX_PAIRS = 50_000_000


@dataclass
class SpanningTree:
    """Edge list of a spanning tree over vertices {0, ..., n-1}.

    ``edges`` holds (u, v, length) triples. For Prim-built trees the edges are
    in insertion order with u the tree-side endpoint, and ``insertion_rank``
    maps each vertex to the step at which it joined (root has rank 0).
    """

    n: int
    builder: str
    edges: list
    insertion_rank: list | None = None

    def lengths(self) -> np.ndarray:
        return np.array([e[2] for e in self.edges], dtype=np.float64)

    def __repr__(self) -> str:
        return f"SpanningTree(n={self.n}, builder={self.builder!r})"


def build_mst_prim(cloud: PointCloud, spec: DistanceSpec, root: int = 0) -> SpanningTree:
    """Greedy tree growth: repeatedly attach the outside vertex closest to the
    current tree.

    Ties are broken deterministically: among equally close candidate vertices
    the smallest vertex index wins, and among equal-length connecting edges
    the smallest tree-endpoint index wins. O(n^2) distance evaluations.
    """
    n = cloud.n
    if not (0 <= root < n):
        raise InputError(f"root {root} out of range for {n} points")
    if n == 1:
        return SpanningTree(n=1, builder="prim", edges=[], insertion_rank=[0])
    pts = cloud.points
    best = spec.one_to_many(pts[root], pts)
    best[root] = np.inf
    best_from = np.full(n, root, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[root] = 0
    dv = np.empty(n)
    t_lt = np.empty(n, dtype=bool)
    t_eq = np.empty(n, dtype=bool)
    upd = np.empty(n, dtype=bool)
    edges = []
    for step in range(1, n):
        v = int(np.argmin(best))  # first occurrence = smallest index among ties
        edges.append((int(best_from[v]), v, float(best[v])))
        rank[v] = step
        best[v] = np.inf
        if step == n - 1:
            break
        spec.one_to_many(pts[v], pts, out=dv)
        np.less(dv, best, out=t_lt)
        np.equal(dv, best, out=t_eq)
        np.less(v, best_from, out=upd)
        np.logical_and(t_eq, upd, out=t_eq)
        np.logical_or(t_lt, t_eq, out=upd)
        # entries already in the tree are parked at +inf and must stay there
        np.isinf(best, out=t_lt)
        np.logical_not(t_lt, out=t_lt)
        np.logical_and(upd, t_lt, out=upd)
        np.copyto(best, dv, where=upd)
        np.copyto(best_from, v, where=upd)
    return SpanningTree(n=n, builder="prim", edges=edges, insertion_rank=rank.tolist())


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def build_mst_kruskal(cloud: PointCloud, spec: DistanceSpec) -> SpanningTree:
    """Sort all pairs by (length, min index, max index) and accept greedily.

    Materializes the full edge list, so memory grows as n^2; use the Prim
    builder for large clouds.
    """
    n = cloud.n
    if n == 1:
        return SpanningTree(n=1, builder="kruskal", edges=[])
    pairs = n * (n - 1) // 2
    if pairs > KRUSKAL_MAX_PAIRS:
        raise ResourceError(
            f"kruskal would materialize {pairs} edges; build with prim instead"
        )
    iu = np.empty(pairs, dtype=np.int64)
    ju = np.empty(pairs, dtype=np.int64)
    lengths = np.empty(pairs)
    pos = 0
    for i, row in enumerate(triangle_rows(spec, cloud.points)):
        m = n - 1 - i
        iu[pos : pos + m] = i
        ju[pos : pos + m] = np.arange(i + 1, n)
        lengths[pos : pos + m] = row
        pos += m
    order = np.lexsort((ju, iu, lengths))
    uf = _UnionFind(n)
    edges = []
    for k in order:
        a, b = int(iu[k]), int(ju[k])
        if uf.union(a, b):
            edges.append((a, b, float(lengths[k])))
            if len(edges) == n - 1:
                break
    return SpanningTree(n=n, builder="kruskal", edges=edges)


def _prufer_decode(seq, n):
    """Edge list of the labeled tree encoded by a Prufer sequence."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, x))
        degree[leaf] = 0
        degree[x] -= 1
    u, v = (i for i in range(n) if degree[i] == 1)
    edges.append((u, v))
    return edges


def _all_tree_energies(weights: np.ndarray):
    """Energy of every labeled spanning tree, trees indexed by Prufer sequence
    in lexicographic order. Vectorized across all n^(n-2) sequences."""
    n = weights.shape[0]
    if n == 2:
        return np.array([weights[0, 1]]), np.zeros((1, 0), dtype=np.int64)
    seqs = np.array(list(itertools.product(range(n), repeat=n - 2)), dtype=np.int64)
    count = len(seqs)
    rows = np.arange(count)
    cols = np.arange(n)
    degree = np.ones((count, n), dtype=np.int64)
    for j in range(n - 2):
        np.add.at(degree, (rows, seqs[:, j]), 1)
    energy = np.zeros(count)
    for j in range(n - 2):
        x = seqs[:, j]
        candidates = np.where(degree == 1, cols, n + 1)
        leaf = np.argmin(candidates, axis=1)
        energy += weights[leaf, x]
        degree[rows, leaf] = 0
        degree[rows, x] -= 1
    candidates = np.where(degree == 1, cols, n + 1)
    u = np.argmin(candidates, axis=1)
    degree[rows, u] = 0
    candidates = np.where(degree == 1, cols, n + 1)
    v = np.argmin(candidates, axis=1)
    energy += weights[u, v]
    return energy, seqs


def brute_force_min_tree(cloud: PointCloud, spec: DistanceSpec, alpha: float):
    """Global minimum of the alpha-energy over every labeled spanning tree.

    Returns (tree, energy). Restricted to 2 <= n <= 8 (n^(n-2) trees). Among
    equal-energy minimizers, the tree whose Prufer sequence is
    lexicographically smallest is returned.
    """
    if alpha <= 0:
        raise InputError("alpha must be > 0")
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
    edge_pairs = _prufer_decode([int(x) for x in seqs[best]], n)
    edges = [(u, v, float(dist[u, v])) for u, v in edge_pairs]
    tree = SpanningTree(n=n, builder="brute-force", edges=edges)
    return tree, float(energies[best])


def tree_total_length(tree: SpanningTree) -> float:
    """Sum of edge lengths, accumulated in ascending order; 0 for n = 1."""
    if not tree.edges:
        return 0.0
    return float(np.sort(tree.lengths()).sum())


def tree_to_text(tree: SpanningTree) -> str:
    """Serialize to the tree record format (floats at 17 significant digits,
    so parsing the text back reproduces the lengths bit for bit)."""
    edge_parts = ", ".join(
        f"[{u}, {v}, {format_float(length)}]" for u, v, length in tree.edges
    )
    rank = (
        "null"
        if tree.insertion_rank is None
        else "[" + ", ".join(str(r) for r in tree.insertion_rank) + "]"
    )
    return (
        "{"
        f'"n": {tree.n}, "builder": "{tree.builder}", '
        f'"edges": [{edge_parts}], "insertion_rank": {rank}'
        "}\n"
    )


def _number_array(value):
    """``value`` as a float64 array, or None unless it is a rectangular nest of
    JSON numbers (strings and integers beyond 64 bits are refused)."""
    try:
        arr = np.array(value)
    except (ValueError, TypeError):
        return None
    return arr.astype(np.float64) if arr.dtype.kind in "biuf" else None


def tree_from_text(text: str) -> SpanningTree:
    """Parse a tree record, rejecting anything that is not a spanning tree:
    n - 1 ``[u, v, length]`` triples with indices in range and u != v, no
    cycle, finite non-negative lengths, and insertion ranks (if present)
    forming a permutation of range(n)."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed tree record: {exc}") from None
    if not isinstance(record, dict):
        raise InputError("malformed tree record: expected a JSON object")
    for key in ("n", "builder", "edges"):
        if key not in record:
            raise InputError(f"tree record missing field {key!r}")
    n = record["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"tree record: n must be a positive integer, got {n!r}")
    raw = record["edges"]
    if not isinstance(raw, list) or len(raw) != n - 1:
        raise InputError(f"tree record: a tree on {n} vertices needs {n - 1} edges")
    table = _number_array(raw)
    if table is None or (n > 1 and table.shape != (n - 1, 3)):
        raise InputError("tree record: every edge must be a [u, v, length] triple of numbers")
    table = table.reshape(n - 1, 3)
    ends, lengths = table[:, :2], table[:, 2]
    if not np.all((ends >= 0) & (ends < n) & (ends == np.floor(ends))):
        raise InputError(f"tree record: edge endpoints must be integers in [0, {n})")
    if np.any(ends[:, 0] == ends[:, 1]):
        raise InputError("tree record: an edge joins a vertex to itself")
    if not np.all(np.isfinite(lengths) & (lengths >= 0.0)):
        raise InputError("tree record: edge lengths must be finite and >= 0")
    # every value is a JSON number that passed the checks: the conversions
    # are exact and keep the parsed objects
    edges = [(int(u), int(v), float(length)) for u, v, length in raw]
    uf = _UnionFind(n)
    if not all(uf.union(u, v) for u, v, _ in edges):
        raise InputError("tree record: the edges contain a cycle")
    rank = record.get("insertion_rank")
    if rank is not None:
        ranks = _number_array(rank)
        if ranks is None or ranks.shape != (n,) or not np.array_equal(
            np.sort(ranks), np.arange(n)
        ):
            raise InputError("tree record: insertion_rank must be a permutation of range(n)")
        rank = [int(r) for r in rank]
    return SpanningTree(
        n=n,
        builder=str(record["builder"]),
        edges=edges,
        insertion_rank=rank,
    )


def write_tree(tree: SpanningTree, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(tree_to_text(tree))


def read_tree(path) -> SpanningTree:
    with open(path) as fh:
        return tree_from_text(fh.read())
