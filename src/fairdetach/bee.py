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
it again.  A pair that earlier classes emptied keeps its place with the
window [0, 0]; the circulation solver leaves such arcs out of its
network, so the flows are those of a network built without them.

`konig_proper_coloring` is the proper coloring of Konig's theorem (1916):
a bipartite multigraph of maximum degree at most k has a proper
k-edge-coloring.  It needs no algorithm of its own, since an equitable
k-coloring (de Werra 1971) gives each vertex of degree d <= k at most one
edge of each color.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .flows import feasible_circulation

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
        self.ends = [(left_node[l], right_node[r]) for l, r, _ in pairs]
        self.mult = [n for _, _, n in pairs]
        self.deg = [0] * (2 + len(lefts) + len(rights))
        for (a, b), n in zip(self.ends, self.mult):
            self.deg[a] += n
            self.deg[b] += n
        self.total = sum(self.mult)


def _peel_class(sk: _Skeleton, c: int) -> List[int]:
    """One color class with floor/ceil quotas of 1/c on pairs, vertices, total.

    Returns the class's multiplicity on every pair of the skeleton; pairs
    that earlier classes emptied get the window [0, 0].
    """
    if c == 1:
        return list(sk.mult)
    deg = sk.deg
    split = 2 + sk.n_left
    arcs = [(0, v, d // c, -(-d // c)) for v, d in enumerate(deg[2:split], start=2)]
    arcs += [(a, b, n // c, -(-n // c)) for (a, b), n in zip(sk.ends, sk.mult)]
    arcs += [(v, 1, d // c, -(-d // c)) for v, d in enumerate(deg[split:], start=split)]
    arcs.append((1, 0, sk.total // c, -(-sk.total // c)))

    flows = feasible_circulation(len(deg), arcs)
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
    positive multiplicities.  The two sides may share labels.  Class j is
    returned as the list of its multiplicities on `pairs`, in that order.
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
