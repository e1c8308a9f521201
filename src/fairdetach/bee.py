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
list, and raise GraphError unless it holds a class and each class one count
per pair.  Each call keeps one integer skeleton of the graph: a node index
(source, sink, left vertices, right vertices), the two nodes of every
pair, the uncolored pair multiplicities, vertex degrees and edge total,
and the one `flows.Network` that all its peels share, built by the first
peel that searches: a peel with c = 1 takes what is left and needs none,
so a 1-coloring builds no network.  Every class is
peeled from the skeleton and subtracted from it in place (but for the
last class of a partial coloring), so later classes neither copy the
graph nor sort, index or link it again.  Every window is
floor(x/c)..ceil(x/c), so a peel computes only the lower bounds and the
rooms, 0 or 1, and hands them to `flows.Residual`.  An arc without room,
such as a pair that earlier classes emptied, keeps its place with
capacity 0 both ways; the search skips it like any saturated arc, so the
flows are those of a network built without it.  The engine hands
`bee_coloring` skeletons it built.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import GraphError, PreconditionError
from .flows import Network, Residual, feasible_circulation

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


def _fitted(bg: SortedBipartite, classes: Classes) -> Classes:
    """classes, checked to hold at least one class, each with one count per pair."""
    if not classes:
        raise GraphError("a coloring needs at least one class")
    for j, cls in enumerate(classes, start=1):
        if len(cls) != len(bg[2]):
            raise GraphError(f"class {j} has {len(cls)} counts for {len(bg[2])} pairs")
    return classes


def is_balanced(bg: SortedBipartite, classes: Classes) -> bool:
    """Per vertex pair, color counts among parallel edges differ by at most one."""
    return _within_one(zip(*_fitted(bg, classes)))


def is_equitable(bg: SortedBipartite, classes: Classes) -> bool:
    """Per vertex, incident color counts differ by at most one.

    Vertices are keyed by side, so the two sides may share labels.
    """
    per_vertex: Dict[Tuple[int, Label], List[int]] = {}
    for (l, r, _), counts in zip(bg[2], zip(*_fitted(bg, classes))):
        for key in ((0, l), (1, r)):
            seen = per_vertex.setdefault(key, [0] * len(classes))
            for j, n in enumerate(counts):
                seen[j] += n
    return _within_one(per_vertex.values())


def is_equalized(bg: SortedBipartite, classes: Classes) -> bool:
    """Global color class sizes differ by at most one."""
    return _within_one([[sum(cls) for cls in _fitted(bg, classes)]])


# ---------------------------------------------------------------------------
# constructions


class _Skeleton:
    """Integer data of one bee coloring: node 0 is the source, 1 the sink,
    2.. the n_left left then the right vertices in peel order; `ends` holds
    each pair's two nodes and `mult`, `deg` (one entry per node), `total`
    what is still uncolored.  `net` is the network of every peel that
    searches (c > 1), with the arcs 0 -> v per left vertex v, the pairs,
    v -> 1 per right vertex v, and 1 -> 0, in that order; the first such
    peel builds it, and until then it is None.  The degrees come from the
    caller, who knows them without a pass over the pairs: the engine's
    fan, which `engine.build_split_bipartite` sums as it reads y's rows
    and which keeps them across y's steps; `engine.refine`, which sums the
    pick's as it emits its pairs; and `_skeleton_of` for tuple input."""

    __slots__ = ("n_left", "ends", "mult", "deg", "total", "net")

    def __init__(
        self, n_left: int, ends: List[Tuple[int, int]], mult: List[int], deg: List[int]
    ) -> None:
        self.n_left, self.ends, self.mult, self.deg = n_left, ends, mult, deg
        self.total = sum(mult)
        self.net: Optional[Network] = None  # built by the first peel that searches

    def network(self) -> Network:
        """The network of every peel that searches, built at the first."""
        if self.net is None:
            split = 2 + self.n_left
            n = len(self.deg)
            arcs = [(0, v) for v in range(2, split)]
            arcs += self.ends
            arcs += [(v, 1) for v in range(split, n)]
            arcs.append((1, 0))
            self.net = Network(n, arcs)
        return self.net


def _skeleton_of(bg: SortedBipartite) -> _Skeleton:
    """The skeleton of a labeled graph, its input checked once."""
    lefts, rights, pairs = bg
    left_node = {v: i for i, v in enumerate(lefts, start=2)}
    right_node = {v: i for i, v in enumerate(rights, start=2 + len(lefts))}
    try:
        ends = [(left_node[l], right_node[r]) for l, r, _ in pairs]
    except KeyError:
        l, r, _ = next(p for p in pairs if p[0] not in left_node or p[1] not in right_node)
        raise GraphError(f"unknown endpoint in ({l!r}, {r!r})") from None
    mult = [n for _, _, n in pairs]
    if mult and min(mult) < 1:
        l, r, n = next(p for p in pairs if p[2] < 1)
        raise GraphError(f"multiplicity {n} of ({l!r}, {r!r}) is not positive")
    deg = [0] * (2 + len(lefts) + len(rights))
    for (a, b), m in zip(ends, mult):
        deg[a] += m
        deg[b] += m
    return _Skeleton(len(lefts), ends, mult, deg)


def _peel_class(sk: _Skeleton, c: int) -> List[int]:
    """One color class with floor/ceil quotas of 1/c on pairs, vertices, total.

    Returns the class's multiplicity on every pair of the skeleton.  Each
    arc of the skeleton's network carries the window floor(x/c)..ceil(x/c)
    of its degree, multiplicity or total x, so its lower bound is x // c
    and it has room for one unit exactly when c does not divide x.  The
    peel computes only those bounds and rooms; an arc without room keeps
    its place with capacity 0 both ways, which the search skips like any
    saturated arc.
    """
    if c == 1:
        return list(sk.mult)
    deg, mult, n_left = sk.deg, sk.mult, sk.n_left
    split = 2 + n_left
    xs = deg[2:split] + mult + deg[split:]
    xs.append(sk.total)
    low = [x // c for x in xs]
    room = [1 if x % c else 0 for x in xs]
    flows = feasible_circulation(len(deg), Residual(sk.network(), low, room))
    if flows is None:  # impossible: the fractional 1/c point meets every window
        raise AssertionError("class peeling was infeasible")
    return flows[n_left : n_left + len(mult)]


def bee_coloring(
    bg: Union[SortedBipartite, _Skeleton], k: int, *, upto: Optional[int] = None
) -> Classes:
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
    A `_Skeleton` may stand in for the graph; it is peeled in place.
    """
    if k < 1:
        raise PreconditionError(f"need at least one color, got {k}")
    if upto is None:
        upto = k
    if not 1 <= upto <= k:
        raise PreconditionError(f"upto must lie in 1..{k}, got {upto}")
    sk = bg if isinstance(bg, _Skeleton) else _skeleton_of(bg)
    mult, deg, ends = sk.mult, sk.deg, sk.ends
    classes = []
    for j in range(1, upto + 1):
        flows = _peel_class(sk, k - j + 1)
        classes.append(flows)
        if j == upto < k:
            break  # no later class is peeled from what is left
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

