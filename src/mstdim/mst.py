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

Each returns a ``SpanningTree`` that stores its edges as the arrays ``u``,
``v`` and ``length``; tree records, energies and the lemma checks read them
whole. A tree record formats each distinct length once, at 17 significant
digits, however many edges share it.

How a tree is built. Rounds of candidate pairs come first: every pair at
computed distance <= r, found and measured by ``metric._CellPairs``, the cell
grid greedy packing and lemma 4's closest pair read too. Borůvka merges over
them, in canonical order, give exactly the tree edges of length <= r. One
argsort of the lengths gives that order when no two lengths are equal.
Under ties that argsort ranks the distinct lengths, and one argsort of the
packed key (rank << 2b) | (u << b) | v, with b the bit length of the
largest index, gives the order when the key fits in 63 bits; a wider key
takes one lexsort of the lengths and the packed key (u << 32) | v. The
first r is the median distance from 16 sampled points to their 8th nearest
distinct point; each later round grows r by the first of the factors 2,
2^(1/2), 2^(1/4) and 2^(1/8) whose grid holds at most 32 pairs per point,
and takes only the pairs that join two components. Once the rest would cost
Prim at most 8 distance evaluations per pair the last round enumerated, Prim
grows the largest component B over the rest, adding a whole component per
step. Its distance rows pair the points just joined with the outside points,
so it makes exactly |B| (n - |B|) + sum over C < C' of |C| |C'| evaluations,
over the other components: none inside one component.

What it costs. On clouds of bounded local density in up to 3 dimensions
(the grid keys at most 3 coordinates) O(n) distance evaluations, and array
operations only up to the Prim stage: about 0.08 s for the carpet at depth 5
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

from .errors import InputError
from .metric import DistanceSpec, PointCloud, _CellPairs

__all__ = [
    "SpanningTree",
    "build_mst_prim",
    "build_mst_kruskal",
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
# row evaluations per pair the last round enumerated. The test comes before
# the next round's grid is built, which a forest sent to Prim never reads.
_PRIM_PAIRS = 8
# Radius factors tried, in turn, for the next round: the first that keeps the
# round within _ROUND_PAIRS is taken.
_GROWTH = (2.0, 2.0**0.5, 2.0**0.25, 2.0**0.125)
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
        while True:  # pointer jumping
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        label = parent[label]
        a, b = parent[a], parent[b]


def _canonical_order(length, u, v):
    """Positions of the distinct pairs (u, v), 0 <= u, v < 2^31, with
    lengths that are not NaN, sorted in canonical order:
    ``np.lexsort((v, u, length))``.

    Lengths that are all distinct need only their argsort. Under ties that
    argsort ranks the distinct lengths, and with b the bit length of the
    largest index one argsort of the key (rank << 2b) | (u << b) | v gives
    the order when the key fits in 63 bits (bits of the largest rank + 2b <=
    63). A wider key takes one lexsort of the lengths and the packed key
    (u << 32) | v. Each temporary is freed once spent, so at most three
    8-byte arrays of the candidates' size are alive at once."""
    order = np.argsort(length)
    ranked = length[order]
    step = ranked[1:] > ranked[:-1]
    if step.all():
        return order
    del ranked
    rank = np.cumsum(step)
    del step
    bits = int(max(u.max(), v.max())).bit_length()
    if int(rank[-1]).bit_length() + 2 * bits > 63:
        del order, rank
        return np.lexsort(((u.astype(np.int64) << 32) | v, length))
    key = np.zeros_like(order)
    key[order[1:]] = rank
    del order, rank
    key <<= 2 * bits
    key |= u.astype(np.int64) << bits
    key |= v
    return np.argsort(key)


@np.errstate(over="ignore")  # a length that overflows is refused at the end
def _canonical_tree(pts, spec):
    """The minimal spanning tree under (length, min index, max index), as
    arrays (u, v, length) with u < v, sorted in that order. A length that is
    not finite (a distance that overflows) raises ``InputError``, as reading
    it from a tree record would."""
    n = len(pts)
    label = np.arange(n, dtype=np.int32)  # the root point of each component
    found = [_NO_EDGES]  # tree edges, rounds in increasing radius
    need = n - 1
    radius = _first_radius(pts, spec)
    limit = _ROUND_PAIRS * n
    cells = _CellPairs(pts, spec, radius)
    waste = 0
    while cells.total <= limit and waste <= _WASTE_PAIRS * n:
        parts = [_NO_EDGES]
        # after the first round, only the pairs that join two components
        for i, j, length in cells.blocks(label if need < n - 1 else None):
            near = length <= radius
            waste += i.size - int(np.count_nonzero(near))
            i, j = i[near], j[near]
            parts.append((np.minimum(i, j), np.maximum(i, j), length[near]))
        u, v, length = (np.concatenate(p) for p in zip(*parts))
        del parts
        # every pair within ``radius`` that joins two components is here: the
        # forest's merges over them give exactly the tree edges <= ``radius``
        order = _canonical_order(length, u, v)
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
        if outside * n <= _PRIM_PAIRS * cells.total:
            break  # growing the largest component by Prim costs less
        # a grid's exact count needs only its key sort and its table of
        # occupied cells, so a grid over the limit costs little
        for growth in _GROWTH:
            cells = _CellPairs(pts, spec, radius * growth)
            if cells.total <= limit:
                break
        radius *= growth
    del cells  # the Prim stage needs no grid
    if need:
        # every pair within the last radius lies in one component: Prim's
        # edges are longer than every round's, so only they need sorting
        u, v, length = _finish(pts, spec, label)
        order = _canonical_order(length, u, v)
        found.append((u[order], v[order], length[order]))
    u, v, length = (np.concatenate(p) for p in zip(*found))
    if not math.isfinite(length[-1]):
        raise InputError(f"a tree edge length overflows to {length[-1]}")
    return u, v, length


def _relax(pts, spec, joined, outside, length, source):
    """Fold the edges from the ``joined`` points (ascending) into the best
    edges of the ``outside`` points: ``length[p]`` and ``source[p]`` are the
    least (length, tree index) over the tree. One distance row per point on
    the shorter side."""
    m = len(outside)
    if len(joined) <= m:
        for q in joined.tolist():
            row = spec.one_to_many(pts[q], outside)
            better = (row < length) | ((row == length) & (q < source))
            np.copyto(length, row, where=better)
            np.copyto(source, q, where=better)
    else:
        tree = pts[joined]
        for p in range(m):
            row = spec.one_to_many(outside[p], tree)
            j = int(np.argmin(row))  # first minimum: smallest tree index
            if row[j] < length[p] or (row[j] == length[p] and joined[j] < source[p]):
                length[p], source[p] = row[j], joined[j]


def _finish(pts, spec, label):
    """Prim over the components of the forest ``label`` names by root
    points: grow from the largest, adding the least canonical edge out of the
    tree and the whole component at its far end. The outside points fill the
    prefix [:live] of the arrays below, so distance rows pair tree and
    outside points only."""
    first = np.bincount(label).argmax()  # the smallest root of the largest
    joined = np.flatnonzero(label == first)
    index = np.flatnonzero(label != first)
    group = label[index]
    outside = pts[index]
    length = np.full(index.size, np.inf)
    source = np.full(index.size, len(pts), dtype=np.int64)
    live = index.size
    us, vs, lengths = [], [], []
    while live:
        _relax(pts, spec, joined, outside[:live], length[:live], source[:live])
        ties = np.flatnonzero(length[:live] == length[:live].min())
        u, v = source[ties], index[ties]
        p = ties[np.lexsort((np.maximum(u, v), np.minimum(u, v)))[0]]
        us.append(int(source[p]))
        vs.append(int(index[p]))
        lengths.append(float(length[p]))
        # swap-remove the joining component: the points after the new end
        # that stay outside fill its slots before that end
        slots = np.flatnonzero(group[:live] == group[p])
        joined = np.sort(index[slots])
        live -= slots.size
        holes = slots[slots < live]
        fill = live + np.flatnonzero(group[live : live + slots.size] != group[p])
        for arr in (index, group, outside, length, source):
            arr[holes] = arr[fill]
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
    by_end = np.argsort(ends)  # the heap orders the pushes, so any order here
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


def tree_to_text(tree: SpanningTree) -> str:
    """Serialize to the tree record format (floats at 17 significant digits,
    so parsing the text back reproduces the lengths bit for bit).

    Each distinct length, told apart by its bit pattern (so -0.0 is not
    0.0), is formatted once; one ``"[%d, %d, %s]"`` template per edge, filled
    in one call, interleaves the endpoints with those words."""
    length = np.asarray(tree.length, dtype=np.float64)
    distinct, which = np.unique(length.view(np.int64), return_inverse=True)
    words = np.array(["%.17g" % x for x in distinct.view(np.float64).tolist()], dtype=object)
    m = length.size
    items = [None] * (3 * m)
    items[0::3] = tree.u.tolist()
    items[1::3] = tree.v.tolist()
    items[2::3] = words[which].tolist()
    edge_parts = ", ".join(["[%d, %d, %s]"] * m) % tuple(items)
    ranks = tree.insertion_rank
    rank = "null" if ranks is None else "[" + ", ".join(["%d"] * len(ranks)) % tuple(ranks) + "]"
    return (
        "{"
        f'"n": {tree.n}, "builder": "{tree.builder}", '
        f'"edges": [{edge_parts}], "insertion_rank": {rank}'
        "}\n"
    )


def _number_array(value):
    """``value`` as a float64 array, or None unless it is a rectangular nest of
    JSON numbers (strings, booleans and integers beyond 64 bits are refused)."""
    try:
        arr = np.array(value)
    except (ValueError, TypeError):
        return None
    if arr.dtype.kind not in "iuf":
        return None
    # numpy reads booleans mixed with numbers as numbers: look in the nest
    items = [value]
    for _ in range(arr.ndim):
        items = itertools.chain.from_iterable(items)
    return None if bool in map(type, items) else arr.astype(np.float64)


def tree_from_text(text: str) -> SpanningTree:
    """Parse a tree record, rejecting anything that is not a spanning tree:
    n - 1 ``[u, v, length]`` triples with indices in range and u != v, no
    cycle, finite non-negative lengths, and insertion ranks (if present)
    forming a permutation of range(n) in the edge order: edge k's v has rank
    k + 1 and its u a smaller one."""
    try:  # past int's digit limit json raises ValueError, too deep RecursionError
        record = json.loads(text)
    except (ValueError, RecursionError) as exc:
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
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise InputError(f"{path}: not UTF-8 text") from None
    return tree_from_text(text)
