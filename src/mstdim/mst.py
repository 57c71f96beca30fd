"""Minimal spanning tree construction.

Trees are canonical. Edges are compared by the strict total order
(length, min index, max index), with length the computed distance. Under a
strict order the minimal spanning tree is unique, so both builders return
the same edge set, bit for bit, whatever the ties in the data:

* ``build_mst_kruskal``: the tree as (min index, max index, length) edges in
  Kruskal order, ascending in the canonical order.
* ``build_mst_prim``: the same tree in the order greedy growth from a root
  adds it, with the insertion ranks downstream verifiers need. The order
  comes from a heap of edge positions in the canonical order.
* ``brute_force_min_tree``: exhaustive minimum of the alpha-energy over all
  n^(n-2) labeled spanning trees, enumerated through Prufer sequences.
  The small-n oracle the builders are tested against.

Each returns a ``SpanningTree`` that stores its edges as the arrays ``u``,
``v`` and ``length``; tree records, energies and the lemma checks read them
whole.

How a tree is built. Rounds of candidate pairs come first: every pair at
computed distance <= r, found through the cell grid of greedy packing and
measured with ``DistanceSpec.pairs``. Borůvka merges over them, in
canonical order, give exactly the tree edges of length <= r. The first r is
the median distance from 16 sampled points to their 8th nearest distinct
point; each later round grows r (at most doubling, at most 32 pairs per
point) and takes only the pairs that join two components. When another
round would cost more, Prim grows the largest component over the rest, with
distance rows between tree and outside points only.

What it costs. On clouds of bounded local density in up to 3 dimensions
(the grid keys at most 3 coordinates) O(n) distance evaluations, and array
operations only up to the Prim stage: about 0.2 s for the carpet at depth 5
(32,768 points). Where the grid cannot separate points (a far outlier, many
dimensions, a spec without a coordinate bound) the Prim stage does most of
the work. No cloud takes more than n (n - 1) / 2 evaluations plus 80 n: 16
sampled rows and at most 64 n candidate pairs longer than their round's
radius.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math

import numpy as np

from .energy import check_alphas
from .errors import InputError
from .metric import DistanceSpec, PointCloud, _cell_keys

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

# Rows sampled for the first candidate radius: the median over them of the
# distance to the _SAMPLE_RANK-th nearest distinct point.
_SAMPLE_ROWS = 16
_SAMPLE_RANK = 8
# Per point: the most candidate pairs one round may enumerate, and the most
# evaluated pairs longer than their round's radius (evaluations a dense scan
# would not need) that all rounds together may spend.
_ROUND_PAIRS = 32
_WASTE_PAIRS = 32
# A distance row evaluates a pair several times faster than a round
# enumerates one: the forest goes to Prim once that needs at most this many
# row evaluations per pair the next round would enumerate.
_PRIM_PAIRS = 8
# Radius factors tried, in turn, for the next round: the first that keeps the
# round within _ROUND_PAIRS is taken.
_GROWTH = (2.0, 2.0**0.5, 2.0**0.25, 2.0**0.125)
# Candidate pairs per ``spec.pairs`` call, and sorted points per chunk of
# neighbour ranges.
_BLOCK_PAIRS = 1 << 12
_CHUNK_POINTS = 1 << 10
_NO_EDGES = (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32), np.empty(0))


class SpanningTree:
    """A spanning tree over vertices {0, ..., n-1} as edge arrays: edge k
    joins ``u[k]`` and ``v[k]`` at distance ``length[k]``.

    ``edges`` may be given as (u, v, length) triples or as a tuple of the
    three arrays; the triples are read back from the arrays. For Prim-built
    trees the edges are in insertion order with u the tree-side endpoint, and
    ``insertion_rank`` maps each vertex to the step at which it joined (root
    has rank 0): edge k's v has rank k + 1.
    """

    __slots__ = ("n", "builder", "insertion_rank", "u", "v", "length")

    def __init__(self, n: int, builder: str, edges, insertion_rank: list | None = None):
        if not isinstance(edges, tuple):
            table = np.array(edges, dtype=np.float64).reshape(-1, 3)
            edges = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]
        self.n = n
        self.builder = builder
        self.insertion_rank = insertion_rank
        self.u, self.v, self.length = edges

    @property
    def edges(self) -> list:
        """The (u, v, length) triples, made on each call."""
        return list(zip(self.u.tolist(), self.v.tolist(), self.length.tolist()))

    def __eq__(self, other):
        if not isinstance(other, SpanningTree):
            return NotImplemented
        return (self.n, self.builder, self.edges, self.insertion_rank) == (
            other.n,
            other.builder,
            other.edges,
            other.insertion_rank,
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"SpanningTree(n={self.n}, builder={self.builder!r})"


def _first_radius(pts, spec) -> float:
    """Upper median, over up to _SAMPLE_ROWS evenly spaced points, of the
    distance to the _SAMPLE_RANK-th nearest point at a positive distance (0
    if no sampled point has one)."""
    n = len(pts)
    kth = []
    for i in range(0, n, -(-n // _SAMPLE_ROWS)):
        row = spec.one_to_many(pts[i], pts)
        row = row[row > 0.0]
        if row.size:
            k = min(_SAMPLE_RANK, row.size) - 1
            kth.append(float(np.partition(row, k)[k]))
    return sorted(kth)[len(kth) // 2] if kth else 0.0


class _CellPairs:
    """Every unordered pair of points in neighbouring cells of the packing
    grid sized for computed distances <= ``radius``, each pair once: sorted
    position s pairs with the later positions of its key runs."""

    def __init__(self, pts, spec, radius, limit):
        key, runs = _cell_keys(pts, spec.coordinate_radius(radius))
        self.order = np.argsort(key, kind="stable").astype(np.int32)
        key = key[self.order]
        # 3**k neighbour cells for k keyed axes
        self.axes = round(math.log(int((runs[1::2] - runs[0::2]).sum()), 3))
        # per chunk of sorted positions from ``first``: the start and the
        # length of the later positions in each key run, one row per position
        self.chunks = []
        self.total = 0  # the pair count, or a count above ``limit``
        for first in range(0, len(key), _CHUNK_POINTS):
            rows = key[first : first + _CHUNK_POINTS, None]
            lo = np.searchsorted(key, rows + runs[0::2])
            count = np.searchsorted(key, rows + runs[1::2])
            np.maximum(lo, np.arange(first + 1, first + 1 + len(rows))[:, None], out=lo)
            count -= lo
            np.maximum(count, 0, out=count)
            self.chunks.append((first, lo.astype(np.int32), count.astype(np.int32)))
            self.total += int(count.sum())
            if self.total > limit:
                break

    def blocks(self):
        """(i, j) point-index arrays of at most about _BLOCK_PAIRS pairs each;
        the ranges are freed as they are spent, so this runs once."""
        while self.chunks:
            first, lo, count = self.chunks.pop(0)
            per_point = count.sum(axis=1)
            ends = np.cumsum(per_point)
            start = 0
            while start < len(ends):
                done = int(ends[start - 1]) if start else 0
                stop = max(start + 1, int(np.searchsorted(ends, done + _BLOCK_PAIRS, "right")))
                runs = count[start:stop].ravel()
                size = int(ends[stop - 1]) - done
                if size:
                    src = np.repeat(np.arange(first + start, first + stop), per_point[start:stop])
                    skip = np.cumsum(runs) - runs
                    dst = np.repeat(lo[start:stop].ravel() - skip, runs) + np.arange(size)
                    yield self.order[src], self.order[dst]
                start = stop


def _closest_distance(pts, spec, radius) -> float:
    """Least computed distance over all pairs of rows of ``pts``. A pass at
    ``radius`` measures the pairs in neighbouring cells, which hold every pair
    within ``radius``; it ends the search if one is, or if the pass measured
    every pair. The next pass runs at twice the radius, or at the least value
    found if smaller (sure to end)."""
    while True:
        cells = _CellPairs(pts, spec, radius, math.inf)
        blocks = cells.blocks()
        least = min((float(spec.pairs(pts[i], pts[j]).min()) for i, j in blocks), default=math.inf)
        if least <= radius or 2 * cells.total == len(pts) * (len(pts) - 1):
            return least
        radius = min(2.0 * radius, least) or least


def _join(label, u, v):
    """Borůvka merges of one round's candidate pairs ``u``, ``v``, given in
    canonical order (position is rank), into the forest whose components
    ``label`` names by a root point. Returns the mask of the pairs the
    minimal spanning forest takes and the labels after the merges.

    Each step every component takes its least pair to another component,
    a forest edge by the cut property. Under a strict order the minimal
    spanning forest is unique, so the mask is exactly Kruskal's."""
    n, end = len(label), len(u)
    taken = np.zeros(end, dtype=bool)
    pos = np.arange(end, dtype=np.int32)
    a, b = label[u], label[v]
    while True:
        cross = a != b
        if not cross.all():
            pos, a, b = pos[cross], a[cross], b[cross]
        if not pos.size:
            return taken, label
        least = np.full(n, end, dtype=np.int32)
        np.minimum.at(least, a, pos)
        np.minimum.at(least, b, pos)
        root = np.flatnonzero(least < end).astype(np.int32)
        pick = least[root]
        taken[pick] = True
        # hook each component to the far end of its pair; two components
        # that took the same pair root at the smaller label
        to = label[u[pick]]
        np.copyto(to, label[v[pick]], where=to == root)
        parent = np.arange(n, dtype=np.int32)
        parent[root] = to
        keep = root[(parent[to] == root) & (root < to)]
        parent[keep] = keep
        while not np.array_equal(parent[parent], parent):  # pointer jumping
            parent = parent[parent]
        label = parent[label]
        a, b = parent[a], parent[b]


class _Outside:
    """Points not yet in the tree with their best edge into it, kept compact
    so distance rows cover exactly the outside points: ``length[p]`` and
    ``source[p]`` are the least (length, tree index) over the tree."""

    def __init__(self, pts, members):
        n = len(pts)
        self.index = np.array(members, dtype=np.int64)
        self.points = pts[self.index]
        self.length = np.full(self.index.size, np.inf)
        self.source = np.full(self.index.size, n, dtype=np.int64)
        self.slot = np.full(n, -1, dtype=np.int64)
        self.slot[self.index] = np.arange(self.index.size)
        self.live = self.index.size

    def remove(self, v):
        p, last = int(self.slot[v]), self.live - 1
        for arr in (self.index, self.points, self.length, self.source):
            arr[p] = arr[last]
        self.slot[self.index[p]] = p
        self.slot[v] = -1
        self.live = last

    def relax(self, pts, spec, joined):
        """Fold the edges from the ``joined`` points (ascending) into the
        best edges, with one distance row per point on the shorter side."""
        m = self.live
        if m == 0:
            return
        length, source = self.length[:m], self.source[:m]
        if len(joined) <= m:
            outside = self.points[:m]
            better = np.empty(m, dtype=bool)
            tied = np.empty(m, dtype=bool)
            for q in joined.tolist():
                row = spec.one_to_many(pts[q], outside)
                np.less(row, length, out=better)
                np.equal(row, length, out=tied)
                tied &= q < source
                better |= tied
                np.copyto(length, row, where=better)
                np.copyto(source, q, where=better)
        else:
            tree = pts[joined]
            for p in range(m):
                row = spec.one_to_many(self.points[p], tree)
                j = int(np.argmin(row))  # first minimum: smallest tree index
                if row[j] < length[p] or (row[j] == length[p] and joined[j] < source[p]):
                    length[p], source[p] = row[j], joined[j]

    def closest(self):
        """Slot of the outside point whose best edge is least in canonical
        order."""
        m = self.live
        length = self.length[:m]
        ties = np.flatnonzero(length == length.min())
        if ties.size == 1:
            return int(ties[0])
        u, v = self.source[ties], self.index[ties]
        return int(ties[np.lexsort((np.maximum(u, v), np.minimum(u, v)))[0]])


def _canonical_tree(pts, spec):
    """The minimal spanning tree under (length, min index, max index), as
    arrays (u, v, length) with u < v, sorted in that order."""
    n = len(pts)
    label = np.arange(n, dtype=np.int32)  # the root point of each component
    found = [_NO_EDGES]  # tree edges, rounds in increasing radius
    need = n - 1
    radius = _first_radius(pts, spec)
    limit = _ROUND_PAIRS * n
    cells = _CellPairs(pts, spec, radius, limit)
    waste = 0
    while cells.total <= limit and waste <= _WASTE_PAIRS * n:
        parts = [_NO_EDGES]
        for i, j in cells.blocks():
            if need < n - 1:  # only the pairs that join two components
                cross = label[i] != label[j]
                i, j = i[cross], j[cross]
            length = spec.pairs(pts[i], pts[j])
            near = length <= radius
            waste += i.size - int(np.count_nonzero(near))
            i, j = i[near], j[near]
            parts.append((np.minimum(i, j), np.maximum(i, j), length[near]))
        u, v, length = (np.concatenate(p) for p in zip(*parts))
        del parts
        # every pair within ``radius`` that joins two components is here: the
        # forest's merges over them give exactly the tree edges <= ``radius``
        order = np.lexsort((v, u, length))
        u = u[order]
        v = v[order]
        length = length[order]
        del order
        taken, label = _join(label, u, v)
        found.append((u[taken], v[taken], length[taken]))
        del u, v, length, taken
        need -= len(found[-1][0])
        if need == 0 or not 0.0 < radius < math.inf:
            break
        outside = n - int(np.bincount(label).max())
        # a factor whose pair count, scaled from this round's, is over the
        # limit gets no grid; the last one always does
        count, axes = cells.total, cells.axes
        for growth in _GROWTH:
            if count * growth**axes > limit and growth != _GROWTH[-1]:
                continue
            cells = _CellPairs(pts, spec, radius * growth, limit)
            if cells.total <= limit:
                break
        radius *= growth
        if outside * n <= _PRIM_PAIRS * cells.total:
            break  # growing the largest component by Prim costs less
    del cells  # the Prim stage needs no ranges
    if need:
        found.append(_finish(pts, spec, label))
    u, v, length = (np.concatenate(p) for p in zip(*found))
    order = np.lexsort((v, u, length))
    return u[order], v[order], length[order]


def _finish(pts, spec, label):
    """Prim over the components of the forest ``label`` names by root
    points: grow from the largest, adding the least canonical edge out of the
    tree and the whole component at its far end. Distance rows pair tree and
    outside points only."""
    by_label = np.argsort(label, kind="stable")  # each component ascending
    roots, starts, sizes = np.unique(label[by_label], return_index=True, return_counts=True)
    component = np.empty(len(pts), dtype=np.int64)
    component[roots] = np.arange(len(roots))

    def members(c):
        return by_label[starts[c] : starts[c] + sizes[c]]

    first = int(np.argmax(sizes))
    tree = members(first)
    outside = _Outside(pts, np.setdiff1d(by_label, tree, assume_unique=True))
    outside.relax(pts, spec, tree)
    us, vs, lengths = [], [], []
    while outside.live:
        p = outside.closest()
        v = int(outside.index[p])
        us.append(int(outside.source[p]))
        vs.append(v)
        lengths.append(float(outside.length[p]))
        joined = members(component[label[v]])
        for w in joined.tolist():
            outside.remove(w)
        outside.relax(pts, spec, joined)
    u, v = np.array(us, dtype=np.int32), np.array(vs, dtype=np.int32)
    return np.minimum(u, v), np.maximum(u, v), np.array(lengths)


def build_mst_prim(cloud: PointCloud, spec: DistanceSpec, root: int = 0) -> SpanningTree:
    """The canonical minimal tree, edges in the order greedy growth from
    ``root`` adds them: each step takes the least edge, in canonical order,
    from the tree to an outside vertex. Edges are (tree endpoint, new vertex,
    length), and ``insertion_rank`` records the step each vertex joined.

    The order comes from a heap-driven growth over the tree's own edges: by
    the cut property the least edge leaving the tree is a tree edge, so it
    equals the order of a dense scan over all pairs. The edges come sorted in
    canonical order, so the heap holds their positions.
    """
    n = cloud.n
    if not (0 <= root < n):
        raise InputError(f"root {root} out of range for {n} points")
    if n == 1:
        return SpanningTree(n=1, builder="prim", edges=[], insertion_rank=[0])
    u, v, length = _canonical_tree(cloud.points, spec)
    ends = np.concatenate([u, v])
    by_end = np.argsort(ends, kind="stable")
    start = np.searchsorted(ends[by_end], np.arange(n + 1)).tolist()
    incident = (by_end % (n - 1)).tolist()  # edge positions, grouped by vertex
    us, vs = u.tolist(), v.tolist()
    rank = [-1] * n
    rank[root] = 0
    heap, order, new = [], [], []
    w, p = root, -1
    for step in range(1, n):
        # every edge at w but the one it joined by leads outside the tree
        for k in range(start[w], start[w + 1]):
            if incident[k] != p:
                heapq.heappush(heap, incident[k])
        p = heapq.heappop(heap)
        w = vs[p] if rank[vs[p]] < 0 else us[p]
        rank[w] = step
        order.append(p)
        new.append(w)
    u, v, new = u[order], v[order], np.array(new, dtype=u.dtype)
    return SpanningTree(n, "prim", (np.where(u == new, v, u), new, length[order]), rank)


def build_mst_kruskal(cloud: PointCloud, spec: DistanceSpec) -> SpanningTree:
    """The canonical minimal tree, edges (min index, max index, length) in
    Kruskal order: ascending in (length, min index, max index)."""
    if cloud.n == 1:
        return SpanningTree(n=1, builder="kruskal", edges=[])
    return SpanningTree(cloud.n, "kruskal", _canonical_tree(cloud.points, spec))


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
    edge_pairs = _prufer_decode([int(x) for x in seqs[best]], n)
    u, v = np.array(edge_pairs).T
    tree = SpanningTree(n, "brute-force", (u, v, dist[u, v]))
    return tree, float(energies[best])


def tree_total_length(tree: SpanningTree) -> float:
    """Sum of edge lengths, accumulated in ascending order; 0 for n = 1."""
    return float(np.sort(tree.length).sum())


def tree_to_text(tree: SpanningTree) -> str:
    """Serialize to the tree record format (floats at 17 significant digits,
    so parsing the text back reproduces the lengths bit for bit)."""
    edge_parts = ", ".join(
        map("[{}, {}, {:.17g}]".format, tree.u.tolist(), tree.v.tolist(), tree.length.tolist())
    )
    rank = (
        "null"
        if tree.insertion_rank is None
        else "[" + ", ".join(map(str, tree.insertion_rank)) + "]"
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
    forming a permutation of range(n) in the edge order: edge k's v has rank
    k + 1 and its u a smaller one."""
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
    # are exact
    u, v = ends.astype(np.int64).T
    # n - 1 edges are acyclic iff the merges take every one
    if not _join(np.arange(n, dtype=np.int32), u, v)[0].all():
        raise InputError("tree record: the edges contain a cycle")
    rank = record.get("insertion_rank")
    if rank is not None:
        ranks = _number_array(rank)
        if ranks is None or ranks.shape != (n,) or not np.array_equal(
            np.sort(ranks), np.arange(n)
        ):
            raise InputError("tree record: insertion_rank must be a permutation of range(n)")
        if not np.all((ranks[v] == np.arange(1, n)) & (ranks[u] < ranks[v])):
            raise InputError(
                "tree record: insertion_rank must follow the edges: "
                "edge k joins a vertex of rank k + 1 to one of smaller rank"
            )
        rank = ranks.astype(np.int64).tolist()
    return SpanningTree(n, str(record["builder"]), (u, v, lengths), rank)


def write_tree(tree: SpanningTree, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(tree_to_text(tree))


def read_tree(path) -> SpanningTree:
    with open(path) as fh:
        return tree_from_text(fh.read())
