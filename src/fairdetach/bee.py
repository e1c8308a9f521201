"""Balanced, equitable and equalized k-edge-colorings of bipartite multigraphs.

A coloring is balanced when parallel edges of each vertex pair are shared
out among the colors within one, equitable when each vertex sees every
color within one of every other, and equalized when global class sizes are
within one.  All three hold simultaneously for every finite bipartite
multigraph and every k; `bee_coloring` constructs such a coloring by
peeling one class at a time.  Each peeled class is a feasible integral
circulation whose arc windows are the floor/ceiling quotas of the pair
multiplicities, vertex degrees and edge total, so every quota is met by
construction and the guarantees compose across the recursion.

A graph is a `SortedBipartite` (lefts, rights, pairs), already in peel
order, and a coloring is its list of classes, each the vector of its
multiplicities on `pairs`; the three predicates take the graph and that
list.  Each call keeps one integer skeleton of the graph: a node index
(source, sink, left vertices, right vertices), the two nodes of every
pair, and the uncolored pair multiplicities, vertex degrees and edge
total.  Every class is peeled from the skeleton and then subtracted from
it in place, so later classes neither copy the graph nor sort and index
it again.  Every window is floor(x/c)..ceil(x/c), so an arc has room for
at most one unit: each peel builds its unit-capacity residual network
straight from the skeleton, in one pass, and hands it to the circulation
solver.  A pair that earlier classes emptied keeps its place with the
window [0, 0]; like every arc without room, it is left out of the
network, so the flows are those of a network built without it.

`konig_proper_coloring` is the proper coloring of Konig's theorem (1916):
a bipartite multigraph of maximum degree at most k has a proper
k-edge-coloring.  It needs no algorithm of its own, since an equitable
k-coloring (de Werra 1971) gives each vertex of degree d <= k at most one
edge of each color.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .errors import GraphError, PreconditionError
from .flows import Residual, feasible_circulation

Label = Hashable
Pairs = List[Tuple[Label, Label, int]]
# (lefts, rights, pairs): a bipartite multigraph in peel order; see bee_coloring
SortedBipartite = Tuple[Sequence[Label], Sequence[Label], Pairs]
# class j of a coloring: its multiplicity on every pair, in the order of `pairs`
Classes = List[List[int]]


# ---------------------------------------------------------------------------
# predicates


def _within_one(counts: Iterable[Sequence[int]]) -> bool:
    return all(max(c) - min(c) <= 1 for c in counts)


def is_balanced(bg: SortedBipartite, classes: Classes) -> bool:
    """Per vertex pair, color counts among parallel edges differ by at most one."""
    return _within_one(zip(*classes))


def is_equitable(bg: SortedBipartite, classes: Classes) -> bool:
    """Per vertex, incident color counts differ by at most one.

    Vertices are keyed by side, so the two sides may share labels.
    """
    per_vertex: Dict[Tuple[int, Label], List[int]] = {}
    for (l, r, _), counts in zip(bg[2], zip(*classes)):
        for key in ((0, l), (1, r)):
            seen = per_vertex.setdefault(key, [0] * len(classes))
            for j, n in enumerate(counts):
                seen[j] += n
    return _within_one(per_vertex.values())


def is_equalized(bg: SortedBipartite, classes: Classes) -> bool:
    """Global color class sizes differ by at most one."""
    return _within_one([[sum(cls) for cls in classes]])


# ---------------------------------------------------------------------------
# constructions


class _Skeleton:
    """Integer data of one bee coloring: node 0 is the source, 1 the sink,
    2.. the left then the right vertices in sorted order; `ends` holds each
    pair's two nodes and `mult`, `deg`, `total` what is still uncolored."""

    __slots__ = ("n_left", "ends", "mult", "deg", "total")

    def __init__(self, lefts: Sequence[Label], rights: Sequence[Label], pairs: Pairs) -> None:
        left_node = {v: i for i, v in enumerate(lefts, start=2)}
        right_node = {v: i for i, v in enumerate(rights, start=2 + len(lefts))}
        self.n_left = len(lefts)
        try:
            self.ends = [(left_node[l], right_node[r]) for l, r, _ in pairs]
        except KeyError:
            l, r, _ = next(p for p in pairs if p[0] not in left_node or p[1] not in right_node)
            raise GraphError(f"unknown endpoint in ({l!r}, {r!r})") from None
        self.mult = [n for _, _, n in pairs]
        if self.mult and min(self.mult) < 1:
            l, r, n = next(p for p in pairs if p[2] < 1)
            raise GraphError(f"multiplicity {n} of ({l!r}, {r!r}) is not positive")
        self.deg = [0] * (2 + len(lefts) + len(rights))
        for (a, b), n in zip(self.ends, self.mult):
            self.deg[a] += n
            self.deg[b] += n
        self.total = sum(self.mult)


def _peel_class(sk: _Skeleton, c: int) -> List[int]:
    """One color class with floor/ceil quotas of 1/c on pairs, vertices, total.

    Returns the class's multiplicity on every pair of the skeleton.  The
    circulation's arcs, in order, are 0 -> v for each left vertex v, the
    pairs, v -> 1 for each right vertex v, and 1 -> 0; each carries the
    window floor(x/c)..ceil(x/c) of its degree, multiplicity or total x.
    So one divmod gives an arc's lower bound and tells whether it has room,
    and every arc with room has capacity 1.  The residual network is built
    here in one pass, as `feasible_circulation` would build it from those
    windows.
    """
    if c == 1:
        return list(sk.mult)
    deg = sk.deg
    n = len(deg)
    split = 2 + sk.n_left
    adj: List[List[int]] = [[] for _ in range(n)]
    to: List[int] = []
    low: List[int] = []
    live: List[int] = []
    excess = [0] * n
    i = 0
    for v in range(2, split):
        q, r = divmod(deg[v], c)
        low.append(q)
        excess[v] = q
        if r:
            adj[0].append(len(to))
            adj[v].append(len(to) + 1)
            to += (v, 0)
            live.append(i)
        i += 1
    excess[0] = -sum(low)
    for (a, b), m in zip(sk.ends, sk.mult):
        q, r = divmod(m, c)
        low.append(q)
        if q:
            excess[a] -= q
            excess[b] += q
        if r:
            adj[a].append(len(to))
            adj[b].append(len(to) + 1)
            to += (b, a)
            live.append(i)
        i += 1
    for v in range(split, n):
        q, r = divmod(deg[v], c)
        low.append(q)
        excess[v] -= q
        excess[1] += q
        if r:
            adj[v].append(len(to))
            adj[1].append(len(to) + 1)
            to += (1, v)
            live.append(i)
        i += 1
    q, r = divmod(sk.total, c)
    low.append(q)
    excess[0] += q
    excess[1] -= q
    if r:
        adj[1].append(len(to))
        adj[0].append(len(to) + 1)
        to += (0, 1)
        live.append(i)

    flows = feasible_circulation(n, Residual(adj, to, [1, 0] * len(live), low, live, excess))
    if flows is None:  # impossible: the fractional 1/c point meets every window
        raise AssertionError("class peeling was infeasible")
    return flows[sk.n_left : sk.n_left + len(sk.mult)]


def bee_coloring(bg: SortedBipartite, k: int, *, upto: Optional[int] = None) -> Classes:
    """Balanced, equitable and equalized k-edge-coloring of a bipartite multigraph.

    Exists for every finite bipartite multigraph and every k >= 1; classes
    are labeled 1..k in peel order and the output is deterministic.

    With `upto` = m < k only classes 1..m are peeled and returned; the edges
    left for classes m+1..k stay uncolored.  Class j depends only on the
    edges classes 1..j-1 left, so classes 1..m are exactly those of the
    full coloring.

    The graph (lefts, rights, pairs) is taken as it comes, already in the
    order the peel needs: the left labels sorted, the right labels sorted,
    and the (left, right, multiplicity) pairs sorted by (left, right), with
    positive multiplicities; a pair with an unlisted end or a multiplicity
    below one raises GraphError.  The two sides may share labels.  Class j
    is returned as the list of its multiplicities on `pairs`, in that order.
    """
    if k < 1:
        raise PreconditionError(f"need at least one color, got {k}")
    if upto is None:
        upto = k
    if not 1 <= upto <= k:
        raise PreconditionError(f"upto must lie in 1..{k}, got {upto}")
    sk = _Skeleton(*bg)
    mult, deg, ends = sk.mult, sk.deg, sk.ends
    classes = []
    for j in range(1, upto + 1):
        flows = _peel_class(sk, k - j + 1)
        classes.append(flows)
        for p, f in enumerate(flows):
            if f:
                mult[p] -= f
                a, b = ends[p]
                deg[a] -= f
                deg[b] -= f
        sk.total -= sum(flows)
    if upto == k and sk.total != 0:
        raise AssertionError("peeling left edges uncolored")
    return classes


def konig_proper_coloring(bg: SortedBipartite, k: int) -> Classes:
    """Proper k-edge-coloring of a bipartite multigraph with max degree <= k.

    Konig (1916): such a coloring exists.  It is the equitable coloring of
    `bee_coloring` (de Werra 1971): a vertex of degree d <= k sees each
    color floor(d/k) or ceil(d/k) times, that is 0 or 1, so no two edges
    at a vertex share a color.
    """
    top = max(_Skeleton(*bg).deg)
    if top > k:
        raise PreconditionError(f"max degree {top} exceeds color count {k}")
    return bee_coloring(bg, k)
