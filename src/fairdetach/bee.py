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

Each call sorts its vertices and pairs once, or takes them already sorted
(a `SortedBipartite`, which is how the detachment engine hands over its
graphs and gets its classes back as multiplicity vectors), and keeps one
integer skeleton of them: a node index (source, sink, left vertices, right vertices), the
two nodes of every pair, and the uncolored pair multiplicities, vertex
degrees and edge total.  Every class is peeled from the skeleton and then
subtracted from it in place, so later classes neither copy the graph nor
sort and index it again.  A pair that earlier classes emptied keeps its
place with the window [0, 0]; the circulation solver leaves such arcs out
of its network, so the flows are those of a network built without them.

`konig_proper_coloring` is the proper coloring of Konig's theorem (1916):
a bipartite multigraph of maximum degree at most k has a proper
k-edge-coloring.  It needs no algorithm of its own, since an equitable
k-coloring (de Werra 1971) gives each vertex of degree d <= k at most one
edge of each color.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import GraphError, PreconditionError
from .flows import feasible_circulation

Label = Hashable
Pairs = List[Tuple[Label, Label, int]]
# (lefts, rights, pairs): a bipartite multigraph already in peel order; see bee_coloring
SortedBipartite = Tuple[Sequence[Label], Sequence[Label], Pairs]


class BipartiteMultigraph:
    """Bipartite multigraph with multiplicity counts keyed (left, right).

    Side labels may be any sortable hashable values (ints, tuples of ints);
    the two sides must be disjoint and loops cannot exist.
    """

    __slots__ = ("_left", "_right", "_mult")

    def __init__(self, left: Iterable[Label] = (), right: Iterable[Label] = ()) -> None:
        self._left = set(left)
        self._right = set(right)
        if self._left & self._right:
            raise GraphError("bipartition sides must be disjoint")
        self._mult: Dict[Tuple[Label, Label], int] = {}

    @property
    def left(self) -> List[Label]:
        return sorted(self._left)

    @property
    def right(self) -> List[Label]:
        return sorted(self._right)

    def add_left(self, v: Label) -> None:
        if v in self._right:
            raise GraphError(f"{v!r} is already a right vertex")
        self._left.add(v)

    def add_edges(self, l: Label, r: Label, n: int = 1) -> None:
        if l not in self._left or r not in self._right:
            raise GraphError(f"unknown endpoint in ({l!r}, {r!r})")
        if n < 0:
            raise GraphError("negative edge count")
        if n:
            self._mult[(l, r)] = self._mult.get((l, r), 0) + n

    def remove_edges(self, l: Label, r: Label, n: int = 1) -> None:
        have = self._mult.get((l, r), 0)
        if n > have:
            raise GraphError(f"cannot remove {n} edges from m={have}")
        if n == 0:
            return
        if have == n:
            del self._mult[(l, r)]
        else:
            self._mult[(l, r)] = have - n

    def pairs(self) -> List[Tuple[Label, Label, int]]:
        return sorted((l, r, n) for (l, r), n in self._mult.items())

    def max_degree(self) -> int:
        deg: Dict[Label, int] = {}
        for (l, r), n in self._mult.items():
            deg[l] = deg.get(l, 0) + n
            deg[r] = deg.get(r, 0) + n
        return max(deg.values(), default=0)

    def edge_count(self) -> int:
        return sum(self._mult.values())

    def copy(self) -> "BipartiteMultigraph":
        g = BipartiteMultigraph()
        g._left = set(self._left)
        g._right = set(self._right)
        g._mult = dict(self._mult)
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteMultigraph):
            return NotImplemented
        return (
            self._left == other._left
            and self._right == other._right
            and self._mult == other._mult
        )


class BipartiteColoring:
    """A k-edge-coloring of a bipartite multigraph, stored as per-color counts."""

    __slots__ = ("k", "_left", "_right", "_mult")

    def __init__(self, k: int, left: Iterable[Label], right: Iterable[Label]) -> None:
        if k < 1:
            raise GraphError("color count must be positive")
        self.k = k
        self._left = set(left)
        self._right = set(right)
        self._mult: Dict[Tuple[Label, Label, int], int] = {}

    def add(self, l: Label, r: Label, color: int, n: int = 1) -> None:
        if not 1 <= color <= self.k:
            raise GraphError(f"color {color} out of range 1..{self.k}")
        if n < 0:
            raise GraphError("negative count")
        if n:
            key = (l, r, color)
            self._mult[key] = self._mult.get(key, 0) + n

    def count(self, l: Label, r: Label, color: int) -> int:
        return self._mult.get((l, r, color), 0)

    def items(self) -> List[Tuple[Label, Label, int, int]]:
        return sorted((l, r, c, n) for (l, r, c), n in self._mult.items())

    def class_sizes(self) -> List[int]:
        out = [0] * self.k
        for (_, _, c), n in self._mult.items():
            out[c - 1] += n
        return out

    def parent(self) -> BipartiteMultigraph:
        """The colored graph with colors forgotten."""
        g = BipartiteMultigraph(self._left, self._right)
        for (l, r, _), n in self._mult.items():
            g.add_edges(l, r, n)
        return g


# ---------------------------------------------------------------------------
# predicates


def is_balanced(c: BipartiteColoring) -> bool:
    """Per vertex pair, color counts among parallel edges differ by at most one."""
    per_pair: Dict[Tuple[Label, Label], List[int]] = {}
    for (l, r, col), n in c._mult.items():
        per_pair.setdefault((l, r), [0] * c.k)[col - 1] += n
    return all(max(v) - min(v) <= 1 for v in per_pair.values())


def is_equitable(c: BipartiteColoring) -> bool:
    """Per vertex, incident color counts differ by at most one."""
    per_vertex: Dict[Label, List[int]] = {}
    for (l, r, col), n in c._mult.items():
        per_vertex.setdefault(l, [0] * c.k)[col - 1] += n
        per_vertex.setdefault(r, [0] * c.k)[col - 1] += n
    return all(max(v) - min(v) <= 1 for v in per_vertex.values())


def is_equalized(c: BipartiteColoring) -> bool:
    """Global color class sizes differ by at most one."""
    sizes = c.class_sizes()
    return max(sizes) - min(sizes) <= 1


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


def bee_coloring(
    bg: Union[BipartiteMultigraph, SortedBipartite], k: int, *, upto: Optional[int] = None
) -> Union[BipartiteColoring, List[List[int]]]:
    """Balanced, equitable and equalized k-edge-coloring of a bipartite multigraph.

    Exists for every finite bipartite multigraph and every k >= 1; classes
    are labeled 1..k in peel order and the output is deterministic.

    With `upto` = m < k only classes 1..m are peeled and returned; the edges
    left for classes m+1..k stay uncolored.  Class j depends only on the
    edges classes 1..j-1 left, so classes 1..m are exactly those of the
    full coloring.

    A `BipartiteMultigraph` gives a `BipartiteColoring`.  A `SortedBipartite`
    (lefts, rights, pairs) is taken as it comes, already in the order the
    peel needs: the left labels sorted, the right labels sorted, and the
    (left, right, multiplicity) pairs sorted by (left, right), with positive
    multiplicities.  It gives the classes themselves: class j is the list
    of its multiplicities on `pairs`, in that order.  The two sides of a
    `SortedBipartite` may share labels.
    """
    if k < 1:
        raise PreconditionError(f"need at least one color, got {k}")
    if upto is None:
        upto = k
    if not 1 <= upto <= k:
        raise PreconditionError(f"upto must lie in 1..{k}, got {upto}")
    graph = isinstance(bg, BipartiteMultigraph)
    lefts, rights, pairs = (bg.left, bg.right, bg.pairs()) if graph else bg
    sk = _Skeleton(lefts, rights, pairs)
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
    if not graph:
        return classes
    out = BipartiteColoring(k, lefts, rights)
    for j, flows in enumerate(classes, start=1):
        for (l, r, _), f in zip(pairs, flows):
            if f:
                out.add(l, r, j, f)
    return out


def konig_proper_coloring(bg: BipartiteMultigraph, k: int) -> BipartiteColoring:
    """Proper k-edge-coloring of a bipartite multigraph with max degree <= k.

    Konig (1916): such a coloring exists.  It is the equitable coloring of
    `bee_coloring` (de Werra 1971): a vertex of degree d <= k sees each
    color floor(d/k) or ceil(d/k) times, that is 0 or 1, so no two edges
    at a vertex share a color.
    """
    if bg.max_degree() > k:
        raise PreconditionError(
            f"max degree {bg.max_degree()} exceeds color count {k}"
        )
    return bee_coloring(bg, k)
