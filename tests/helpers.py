"""Shared oracles for the test suite, of three sorts.

- Definition oracles, which find an answer from the contract itself:
  `approx`, and at the end of the file one checker per fairness contract
  (the detachment conditions, the step relations B1-B6, the trace's
  cumulative relations and the GDD shape) on plain counts, sharing no code
  with `fairdetach.verify`.
- Brute force and independent solvers: the pairing and cycle searches and
  the pop-time Edmonds-Karp `reference_circulation`.
- Copies of earlier library code, each under a comment that says which
  form it keeps: the object-form colorings, `reference_max_flow`, the bee
  peel, the engine step and pick, the moves and read-off, and the Euler
  walks and even peel.  These catch change, not faults: a test that
  compares with one shows that the library still does what it did.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import (
    Dict, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union,
)

from fairdetach.bee import Classes, SortedBipartite, _skeleton_of, bee_coloring
from fairdetach.engine import MoveSet, _find
from fairdetach.errors import GraphError, PreconditionError
from fairdetach.evencolor import _orient, is_evenly_equitable
from fairdetach.flows import feasible_circulation
from fairdetach.multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    Multigraph,
    VertexId,
)

Rational = Union[int, Fraction]


class BipartiteMultigraph:
    """Bipartite multigraph with multiplicity counts keyed (left, right): the
    object form the library's colorings took before they ran on sorted
    tuples, kept for the oracles below.  The two sides must be disjoint."""

    __slots__ = ("_left", "_right", "_mult")

    def __init__(self, left: Iterable[Hashable] = (), right: Iterable[Hashable] = ()) -> None:
        self._left = set(left)
        self._right = set(right)
        if self._left & self._right:
            raise GraphError("bipartition sides must be disjoint")
        self._mult: Dict[Tuple[Hashable, Hashable], int] = {}

    @property
    def left(self) -> List[Hashable]:
        return sorted(self._left)

    @property
    def right(self) -> List[Hashable]:
        return sorted(self._right)

    def add_left(self, v: Hashable) -> None:
        if v in self._right:
            raise GraphError(f"{v!r} is already a right vertex")
        self._left.add(v)

    def add_edges(self, l: Hashable, r: Hashable, n: int = 1) -> None:
        if l not in self._left or r not in self._right:
            raise GraphError(f"unknown endpoint in ({l!r}, {r!r})")
        if n < 0:
            raise GraphError("negative edge count")
        if n:
            self._mult[(l, r)] = self._mult.get((l, r), 0) + n

    def remove_edges(self, l: Hashable, r: Hashable, n: int = 1) -> None:
        have = self._mult.get((l, r), 0)
        if n > have:
            raise GraphError(f"cannot remove {n} edges from m={have}")
        if n == 0:
            return
        if have == n:
            del self._mult[(l, r)]
        else:
            self._mult[(l, r)] = have - n

    def pairs(self) -> List[Tuple[Hashable, Hashable, int]]:
        return sorted((l, r, n) for (l, r), n in self._mult.items())

    def edge_count(self) -> int:
        return sum(self._mult.values())

    def copy(self) -> "BipartiteMultigraph":
        g = BipartiteMultigraph()
        g._left = set(self._left)
        g._right = set(self._right)
        g._mult = dict(self._mult)
        return g


class BipartiteColoring:
    """A k-edge-coloring of a BipartiteMultigraph, stored as per-color counts."""

    __slots__ = ("k", "_left", "_right", "_mult")

    def __init__(self, k: int, left: Iterable[Hashable], right: Iterable[Hashable]) -> None:
        if k < 1:
            raise GraphError("color count must be positive")
        self.k = k
        self._left = set(left)
        self._right = set(right)
        self._mult: Dict[Tuple[Hashable, Hashable, int], int] = {}

    def add(self, l: Hashable, r: Hashable, color: int, n: int = 1) -> None:
        if not 1 <= color <= self.k:
            raise GraphError(f"color {color} out of range 1..{self.k}")
        if n < 0:
            raise GraphError("negative count")
        if n:
            key = (l, r, color)
            self._mult[key] = self._mult.get(key, 0) + n

    def count(self, l: Hashable, r: Hashable, color: int) -> int:
        return self._mult.get((l, r, color), 0)

    def items(self) -> List[Tuple[Hashable, Hashable, int, int]]:
        return sorted((l, r, c, n) for (l, r, c), n in self._mult.items())


def bipartite_of(bg: SortedBipartite) -> BipartiteMultigraph:
    """The object form of a sorted (lefts, rights, pairs) tuple."""
    lefts, rights, pairs = bg
    g = BipartiteMultigraph(lefts, rights)
    for l, r, n in pairs:
        g.add_edges(l, r, n)
    return g


def coloring_of(bg: SortedBipartite, classes: Classes) -> BipartiteColoring:
    """The object form of a coloring given as class vectors over bg's pairs."""
    lefts, rights, pairs = bg
    c = BipartiteColoring(len(classes), lefts, rights)
    for j, cls in enumerate(classes, start=1):
        for (l, r, _), n in zip(pairs, cls):
            c.add(l, r, j, n)
    return c


def class_vectors(c: BipartiteColoring, pairs: Sequence[Tuple]) -> Classes:
    """Each class of c as its multiplicities on pairs, in that order."""
    return [[c.count(l, r, j) for l, r, _ in pairs] for j in range(1, c.k + 1)]


def covers_pairs(bg: SortedBipartite, classes: Classes) -> bool:
    """The classes share out every pair's multiplicity, no more and no less."""
    return [sum(col) for col in zip(*classes)] == [n for _, _, n in bg[2]]


def skeleton_graph(sk, lefts: Sequence, rights: Sequence) -> SortedBipartite:
    """A bee skeleton's pairs as a labeled (lefts, rights, pairs) tuple:
    node 2 + i is lefts[i] and node 2 + len(lefts) + i is rights[i].  Reads
    only `ends` and `mult`, so a copy of those two stands in for a skeleton
    that a peel has since changed."""
    labels = [None, None, *lefts, *rights]
    pairs = [(labels[a], labels[b], n) for (a, b), n in zip(sk.ends, sk.mult)]
    return list(lefts), list(rights), pairs


def outcome(check, *args):
    """check(*args), or the type and message of the exception it raised."""
    try:
        return check(*args)
    except Exception as exc:  # the reference must raise the same
        return type(exc).__name__, str(exc)


def all_pairings(items: Sequence) -> Iterator[List[Tuple]]:
    """Every way to split an even-length sequence into unordered pairs."""
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = list(items[1:i]) + list(items[i + 1 :])
        for sub in all_pairings(rest):
            yield [(first, items[i])] + sub


def coloring_from_assignment(
    units: Sequence[Tuple], colors: Sequence[int], k: int, left, right
) -> BipartiteColoring:
    """Build a coloring from per-unit-edge color choices."""
    c = BipartiteColoring(k, left, right)
    for (l, r), col in zip(units, colors):
        c.add(l, r, col, 1)
    return c


def enumerate_unit_edges(pairs: Sequence[Tuple]) -> List[Tuple]:
    """Expand (l, r, mult) records into unit edges."""
    out = []
    for l, r, n in pairs:
        out.extend([(l, r)] * n)
    return out


def spanning_cycles(g: Multigraph) -> Iterator[Tuple[int, ...]]:
    """All spanning cycles of g as canonical vertex sequences.

    Canonical form: starts at the smallest vertex, second vertex smaller
    than the last (fixes direction).  For two vertices the double edge is
    the only possible cycle.
    """
    verts = g.vertices
    n = len(verts)
    if n < 2:
        return
    if n == 2:
        u, v = verts
        if g.multiplicity(u, v) >= 2:
            yield (u, v)
        return
    first = verts[0]
    for perm in permutations(verts[1:]):
        if perm[0] > perm[-1]:
            continue
        cyc = (first,) + perm
        ok = all(
            g.multiplicity(a, b) >= 1 for a, b in zip(cyc, cyc[1:] + cyc[:1])
        )
        if ok:
            yield cyc


def brute_force_ham_decomposable(g: Multigraph) -> bool:
    """Exhaustively search for any partition of g's edges into spanning cycles."""
    verts = g.vertices
    n = len(verts)
    if any(g.loops(v) for v in verts):
        return False
    total = g.edge_count()
    if total == 0:
        return True
    if n < 2 or total % n:
        return False

    def search(rem: Multigraph) -> bool:
        if rem.edge_count() == 0:
            return True
        for cyc in spanning_cycles(rem):
            nxt = rem.copy()
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                nxt.remove_edges(a, b, 1)
            if search(nxt):
                return True
        return False

    return search(g.copy())


class _PopTimeResidual:
    """Edmonds-Karp residual network that tests the sink when a node is
    popped and queues the source's whole first BFS level."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.adj: List[List[int]] = [[] for _ in range(n)]
        self.to: List[int] = []
        self.cap: List[int] = []

    def add(self, a: int, b: int, cap: int) -> int:
        idx = len(self.to)
        self.adj[a].append(idx)
        self.to.append(b)
        self.cap.append(cap)
        self.adj[b].append(idx + 1)
        self.to.append(a)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        adj, to, cap = self.adj, self.to, self.cap
        total = 0
        while True:
            parent = [-1] * self.n
            parent[s] = -2
            queue = [s]
            qi = 0
            while qi < len(queue) and parent[t] == -1:
                v = queue[qi]
                qi += 1
                for idx in adj[v]:
                    if cap[idx] > 0:
                        w = to[idx]
                        if parent[w] == -1:
                            parent[w] = idx
                            if w == t:
                                break
                            queue.append(w)
            if parent[t] == -1:
                return total
            # bottleneck along the BFS path
            push = cap[parent[t]]
            v = t
            while v != s:
                idx = parent[v]
                if cap[idx] < push:
                    push = cap[idx]
                v = to[idx ^ 1]
            v = t
            while v != s:
                idx = parent[v]
                cap[idx] -= push
                cap[idx ^ 1] += push
                v = to[idx ^ 1]
            total += push


def reference_circulation(
    n: int, arcs: Sequence[Tuple[int, int, int, int]]
) -> Optional[List[int]]:
    """The circulation solver as it was before its search was narrowed:
    the same Edmonds-Karp augmentation order, with a plain BFS per path."""
    net = _PopTimeResidual(n + 2)
    src, snk = n, n + 1
    excess = [0] * n
    base = []
    for a, b, low, high in arcs:
        if not (0 <= low <= high):
            raise ValueError(f"bad arc bounds [{low}, {high}]")
        base.append(net.add(a, b, high - low))
        excess[b] += low
        excess[a] -= low
    need = 0
    for v in range(n):
        if excess[v] > 0:
            net.add(src, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add(v, snk, -excess[v])
    if net.max_flow(src, snk) != need:
        return None
    # flow on an arc = lower bound + units pushed onto its residual reverse
    return [arcs[i][2] + net.cap[base[i] + 1] for i in range(len(arcs))]


# ---------------------------------------------------------------------------
# the circulation max-flow as it was while every search walked all of the
# source's arcs from the first, stepping over the full ones


def reference_max_flow(
    adj: List[List[int]],
    to: List[int],
    cap: List[int],
    s: int,
    t: int,
    hops: Optional[List[int]] = None,
) -> int:
    """Push a maximum flow from s to t through a residual network; return its value.

    Arc idx runs to to[idx] with residual capacity cap[idx], which is
    updated in place; its reverse is idx ^ 1, and adj[v] lists the arcs
    leaving v in insertion order.  The network must satisfy four
    invariants, which every network with its `supply` and `demand` made
    explicit arcs does (see `test_flows.checked_max_flow`): every node has
    at most one arc from s and at most one arc into t, no node has both,
    and s has no arc straight into t.  With `hops`, the number of arcs
    between s and t on each augmenting path is appended to it, path by path.
    """
    n = len(adj)
    source_arcs = adj[s]
    n_source = len(source_arcs)
    from_s = [-1] * n  # from_s[v]: index of the arc s -> v
    for idx in source_arcs:
        from_s[to[idx]] = idx
    into_t = [-1] * n  # into_t[v]: index of the arc v -> t
    for idx in adj[t]:
        into_t[to[idx]] = idx ^ 1
    total = 0
    while True:
        parent = [-1] * n
        parent[s] = -2
        queue: List[int] = []
        qi = si = 0
        last = -1  # node whose live arc into t ends the path
        while last < 0:
            if si < n_source:  # level 1, one live source arc at a time
                idx = source_arcs[si]
                si += 1
                if cap[idx] <= 0:
                    continue
                v = to[idx]
                parent[v] = idx
            elif qi < len(queue):
                v = queue[qi]
                qi += 1
            else:
                return total
            for idx in adj[v]:
                if cap[idx] > 0:
                    w = to[idx]
                    if parent[w] == -1:
                        e = from_s[w]
                        if e >= 0 and cap[e] > 0:
                            continue  # level-1 node, expanded in turn
                        parent[w] = idx
                        e = into_t[w]
                        if e >= 0 and cap[e] > 0:
                            last = w
                            break
                        queue.append(w)
        # bottleneck along the BFS path
        e = into_t[last]
        push = cap[e]
        v = last
        while v != s:
            idx = parent[v]
            if cap[idx] < push:
                push = cap[idx]
            v = to[idx ^ 1]
        cap[e] -= push
        cap[e ^ 1] += push
        v = last
        n_hops = -1  # the arc from s is not counted
        while v != s:
            idx = parent[v]
            cap[idx] -= push
            cap[idx ^ 1] += push
            v = to[idx ^ 1]
            n_hops += 1
        if hops is not None:
            hops.append(n_hops)
        total += push


def reference_peel_windows(sk, c: int) -> List[Tuple[int, int, int, int]]:
    """The circulation of one bee peel as (tail, head, lower, upper) tuples,
    as `bee._peel_class` built them for the generic network build: from
    its skeleton `sk` (n_left, ends, mult, deg, total) and c colors."""
    deg = sk.deg
    split = 2 + sk.n_left
    arcs = [(0, v, d // c, -(-d // c)) for v, d in enumerate(deg[2:split], start=2)]
    arcs += [(a, b, n // c, -(-n // c)) for (a, b), n in zip(sk.ends, sk.mult)]
    arcs += [(v, 1, d // c, -(-d // c)) for v, d in enumerate(deg[split:], start=split)]
    arcs.append((1, 0, sk.total // c, -(-sk.total // c)))
    return arcs


def reference_even_peel_windows(
    g: Multigraph, mult: List[int], half: List[int], c: int
) -> List[Tuple[int, int, int, int]]:
    """The circulation of one `evenly_equitable_coloring` class peel as
    (tail, head, lower, upper) tuples, as `_peel_even_class` built them for
    the generic network build: vertex i of g is the nodes 2i (in) and
    2i + 1 (out); the Euler-oriented arcs of g, in sorted order, carry
    [0, mult[p]], then 2i -> 2i + 1 carries the window of half[i] / c."""
    node = {v: 2 * i for i, v in enumerate(g.vertices)}
    arcs = [(node[u] + 1, node[v], 0, n) for (u, v), n in zip(sorted(_orient(g)), mult)]
    arcs += [(2 * i, 2 * i + 1, s // c, -(-s // c)) for i, s in enumerate(half)]
    return arcs


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _reference_peel_class(
    g: BipartiteMultigraph, c: int
) -> Dict[Tuple[Hashable, Hashable], int]:
    """One color class with floor/ceil quotas of 1/c on pairs, vertices, total."""
    if c == 1:
        return {(l, r): n for l, r, n in g.pairs()}
    lefts = g.left
    rights = g.right
    index = {v: i + 2 for i, v in enumerate(lefts)}
    index.update({v: len(lefts) + 2 + i for i, v in enumerate(rights)})
    s, t = 0, 1
    n_nodes = 2 + len(lefts) + len(rights)

    deg: Dict[Hashable, int] = {v: 0 for v in lefts + rights}
    pairs = g.pairs()
    for l, r, n in pairs:
        deg[l] += n
        deg[r] += n

    arcs = []
    for v in lefts:
        arcs.append((s, index[v], deg[v] // c, _ceil_div(deg[v], c)))
    pair_arc_start = len(arcs)
    for l, r, n in pairs:
        arcs.append((index[l], index[r], n // c, _ceil_div(n, c)))
    for v in rights:
        arcs.append((index[v], t, deg[v] // c, _ceil_div(deg[v], c)))
    total = g.edge_count()
    arcs.append((t, s, total // c, _ceil_div(total, c)))

    flows = reference_circulation(n_nodes, arcs)
    if flows is None:  # impossible: the fractional 1/c point meets every window
        raise AssertionError("class peeling was infeasible")
    out: Dict[Tuple[Hashable, Hashable], int] = {}
    for i, (l, r, _) in enumerate(pairs):
        f = flows[pair_arc_start + i]
        if f:
            out[(l, r)] = f
    return out


def reference_bee_coloring(
    bg: BipartiteMultigraph, k: int, *, upto: Optional[int] = None
) -> BipartiteColoring:
    """The bee coloring as it was before it kept one integer skeleton per
    call: every class re-sorts and re-indexes a copy of the remaining graph
    and builds its network through the pop-time reference solver."""
    if k < 1:
        raise PreconditionError(f"need at least one color, got {k}")
    if upto is None:
        upto = k
    if not 1 <= upto <= k:
        raise PreconditionError(f"upto must lie in 1..{k}, got {upto}")
    remaining = bg.copy()
    out = BipartiteColoring(k, bg.left, bg.right)
    for j in range(1, upto + 1):
        cls = _reference_peel_class(remaining, k - j + 1)
        for (l, r), n in sorted(cls.items()):
            out.add(l, r, j, n)
            remaining.remove_edges(l, r, n)
    if upto == k and remaining.edge_count() != 0:
        raise AssertionError("peeling left edges uncolored")
    return out


# ---------------------------------------------------------------------------
# the engine step as it was before it ran on integer rows: the fan, the
# working subgraph and the refined graph are BipartiteMultigraphs built edge
# by edge, and the moves are read off the pick's class-1 pair row


LOOP_PROXY = -1


def _w_order(w):
    return (1, 0) if w == LOOP_PROXY else (0, w)


@dataclass(frozen=True)
class SplitBipartite:
    y: int
    k: int
    graph: BipartiteMultigraph


@dataclass(frozen=True)
class RefinedBipartite:
    y: int
    k: int
    graph: BipartiteMultigraph
    groups: Dict[int, List[Tuple[int, int]]]


def reference_build_split_bipartite(cg: ColoredMultigraph, y: int) -> SplitBipartite:
    """Fan graph: m(c_j, u) = per-color multiplicity to u, m(c_j, proxy) = 2*loops."""
    if not cg.layer(1).has_vertex(y):
        raise GraphError(f"unknown vertex {y}")
    layers = [cg.layer(j) for j in range(1, cg.k + 1)]
    rows = [layer.row(y) for layer in layers]
    w_side = sorted({u for row in rows for u, _ in row}) + [LOOP_PROXY]
    bg = BipartiteMultigraph([(j, -1) for j in range(1, cg.k + 1)], w_side)
    for j, (layer, row) in enumerate(zip(layers, rows), start=1):
        for u, n in row:
            bg.add_edges((j, -1), u, n)
        nl = layer.loops(y)
        if nl:
            bg.add_edges((j, -1), LOOP_PROXY, 2 * nl)
    return SplitBipartite(y=y, k=cg.k, graph=bg)


def reference_restrict(coloring: BipartiteColoring, colors) -> BipartiteMultigraph:
    """Subgraph induced by the given color classes."""
    wanted = set(colors)
    g = BipartiteMultigraph(coloring._left, coloring._right)
    for (l, r, c), n in coloring._mult.items():
        if c in wanted:
            g.add_edges(l, r, n)
    return g


def reference_class_pair_row(coloring: BipartiteColoring, color: int):
    return {
        (l, r): n for (l, r, c), n in sorted(coloring._mult.items()) if c == color
    }


def reference_refine_bipartite(t: SplitBipartite, cond3, component_map) -> RefinedBipartite:
    """Split qualifying color vertices of the working subgraph into degree-2 units."""
    bg = BipartiteMultigraph([], t.graph.right)
    groups: Dict[int, List[Tuple[int, int]]] = {}
    rows: Dict[int, Dict[int, int]] = {}
    for (j, _), w, n in t.graph.pairs():
        rows.setdefault(j, {})[w] = n
    for j in range(1, t.k + 1):
        row = rows.get(j, {})
        deg = sum(row.values())
        if j not in cond3:
            label = (j, -1)
            bg.add_left(label)
            groups[j] = [label]
            for w, n in sorted(row.items(), key=lambda kv: _w_order(kv[0])):
                bg.add_edges(label, w, n)
            continue
        if deg % 2:
            raise AssertionError(
                f"color {j} has odd working degree {deg}; the fan coloring is broken"
            )
        units: List[Tuple[int, int]] = []
        singles: List[int] = []
        for w in sorted(row, key=_w_order):
            units.extend([(w, w)] * (row[w] // 2))
            if row[w] % 2:
                singles.append(w)
        comp_of = component_map.get(j, {})
        by_comp: Dict[Tuple[int, int], List[int]] = {}
        for w in singles:
            key = (1, 0) if w == LOOP_PROXY else (0, comp_of[w])
            by_comp.setdefault(key, []).append(w)
        residue: List[int] = []
        for key in sorted(by_comp):
            bucket = sorted(by_comp[key], key=_w_order)
            while len(bucket) >= 2:
                units.append((bucket[0], bucket[1]))
                bucket = bucket[2:]
            residue.extend(bucket)
        residue.sort(key=_w_order)
        for a, b in zip(residue[::2], residue[1::2]):
            units.append((a, b))
        labels = []
        for idx, (a, b) in enumerate(units):
            label = (j, idx)
            bg.add_left(label)
            if a == b:
                bg.add_edges(label, a, 2)
            else:
                bg.add_edges(label, a, 1)
                bg.add_edges(label, b, 1)
            labels.append(label)
        groups[j] = labels
    return RefinedBipartite(y=t.y, k=t.k, graph=bg, groups=groups)


def _as_rows(bg: BipartiteMultigraph, relabel):
    """A graph as sorted (lefts, rights, pairs) with its left labels relabeled."""
    return (
        [relabel[l] for l in bg.left],
        bg.right,
        [(relabel[l], r, n) for l, r, n in bg.pairs()],
    )


def reference_step(cg: ColoredMultigraph, y: int, eta_y: int, cond3, component_map):
    """One engine step from y by the graph-building pipeline: fan, fan coloring
    restricted to classes 1 and 2, refine, pick coloring, moves.

    Returns every stage as integer rows in the shapes the engine hands them
    on: the fan and the working subgraph with colors as left labels, the fan
    classes 1 and 2 and the pick's class 1 as vectors over their graph's
    pairs, and the refined graph with its left labels numbered in sorted
    order, beside the color of each.
    """
    fan = reference_build_split_bipartite(cg, y)
    fan_coloring = reference_bee_coloring(fan.graph, eta_y, upto=2)
    working = SplitBipartite(y=y, k=cg.k, graph=reference_restrict(fan_coloring, (1, 2)))
    refined = reference_refine_bipartite(working, cond3, component_map)
    pick = reference_bee_coloring(refined.graph, 2)
    edge_moves: Dict[int, Dict[int, int]] = {}
    loop_moves: Dict[int, int] = {}
    for (label, w), n in reference_class_pair_row(pick, 1).items():
        j = label[0]
        if w == LOOP_PROXY:
            loop_moves[j] = loop_moves.get(j, 0) + n
        else:
            per_w = edge_moves.setdefault(j, {})
            per_w[w] = per_w.get(w, 0) + n

    colors = {label: label[0] for label in fan.graph.left}
    fan_rows = _as_rows(fan.graph, colors)
    unit_labels = refined.graph.left
    number = {label: i for i, label in enumerate(unit_labels)}
    refined_rows = _as_rows(refined.graph, number)
    return {
        "fan": fan_rows,
        "classes": class_vectors(fan_coloring, fan.graph.pairs())[:2],
        "working": _as_rows(working.graph, colors),
        "refined": ([label[0] for label in unit_labels], refined_rows),
        "picked": class_vectors(pick, refined.graph.pairs())[0],
        "moves": MoveSet(edge_moves=edge_moves, loop_moves=loop_moves),
    }


# ---------------------------------------------------------------------------
# the pick as it was before refine settled its double units outside the flow:
# refine takes the working subgraph as labeled (color, w, n) triples and
# emits every unit, and the pick coloring peels all of them


def reference_refine(
    working: SortedBipartite,
    cond3: Set[int],
    component_map: Dict[int, Dict[VertexId, int]],
) -> Tuple[List[int], SortedBipartite]:
    """Split condition-3 color vertices of the working subgraph into degree-2 units.

    Pairing is greedily maximal: first as many units as possible take two
    parallel edges to one right vertex, then as many leftovers as possible
    pair within one component of their color class minus y, then whatever
    remains pairs in ascending vertex order, loop proxy last.  `working` is
    the fan restricted to the two working classes, with the fan's left and
    right sides.  Left labels of the result count up from 0 in color order,
    each color's units in the order they are formed, and the pairs come out
    sorted, so the result is in peel order.  Per condition-3 color,
    `component_map` is a union-find whose roots (`_find`) are the labels.
    """
    colors, rights, pairs = working
    rows: Dict[int, List[Tuple[VertexId, int]]] = {j: [] for j in colors}
    for j, w, n in pairs:
        rows[j].append((w, n))
    owner: List[int] = []
    out: List[Tuple[int, VertexId, int]] = []
    for j in colors:
        row = rows[j]
        if j not in cond3:
            label = len(owner)
            owner.append(j)
            out.extend((label, w, n) for w, n in row)
            continue
        deg = sum(n for _, n in row)
        if deg % 2:
            raise AssertionError(
                f"color {j} has odd working degree {deg}; the fan coloring is broken"
            )
        # the loop proxy heads the row and pairs last: it belongs to no
        # component of the color class minus y
        proxy = row[0][1] if row and row[0][0] == LOOP_PROXY else 0
        units: List[Tuple[VertexId, VertexId]] = []
        singles: List[VertexId] = []
        for w, n in row[1:] if proxy else row:
            units.extend([(w, w)] * (n // 2))
            if n % 2:
                singles.append(w)
        units.extend([(LOOP_PROXY, LOOP_PROXY)] * (proxy // 2))
        # pair leftovers sharing a component of the color class minus y
        comp_of = component_map.get(j, {})
        by_comp: Dict[int, List[VertexId]] = {}
        for w in singles:
            by_comp.setdefault(_find(comp_of, w), []).append(w)
        residue: List[VertexId] = []
        for key in sorted(by_comp):
            bucket = by_comp[key]
            units.extend(zip(bucket[::2], bucket[1::2]))
            if len(bucket) % 2:
                residue.append(bucket[-1])
        residue.sort()
        if proxy % 2:
            residue.append(LOOP_PROXY)
        units.extend(zip(residue[::2], residue[1::2]))
        for a, b in units:
            label = len(owner)
            owner.append(j)
            if a == b:
                out.append((label, a, 2))
            else:  # the proxy, last in the pairing order, sorts first here
                if a > b:
                    a, b = b, a
                out.append((label, a, 1))
                out.append((label, b, 1))
    return owner, (range(len(owner)), rights, out)


def reference_pick(fan, working, rights, cond3, component_map) -> MoveSet:
    """The step's moves from the fan skeleton's pairs and the working counts
    on them: `reference_refine`, then class 1 of a full 2-coloring of every
    unit, its double units included."""
    k = fan.n_left
    triples = [(a - 1, rights[b - k - 2], n) for (a, b), n in zip(fan.ends, working) if n]
    owner, refined = reference_refine((range(1, k + 1), rights, triples), cond3, component_map)
    _, unit_rights, unit_pairs = refined
    (picked,) = bee_coloring(_skeleton_of((range(len(owner)), unit_rights, unit_pairs)), 2, upto=1)
    edge_moves: Dict[int, Dict[int, int]] = {}
    loop_moves: Dict[int, int] = {}
    for (label, w, _), n in zip(unit_pairs, picked):
        if not n:
            continue
        j = owner[label]
        if w == LOOP_PROXY:
            loop_moves[j] = loop_moves.get(j, 0) + n
        else:
            per_w = edge_moves.setdefault(j, {})
            per_w[w] = per_w.get(w, 0) + n
    return MoveSet(edge_moves=edge_moves, loop_moves=loop_moves)


# ---------------------------------------------------------------------------
# the step's moves and the read-off as they were before they ran on adjacency
# rows: every pair and loop goes through the checked Multigraph methods


def reference_move(cg: ColoredMultigraph, rec) -> None:
    """Apply one recorded step to cg in place."""
    if cg.layer(1).has_vertex(rec.v_new):
        raise GraphError(f"new vertex {rec.v_new} already exists")
    cg.add_vertex(rec.v_new)
    for j, row in rec.moves.edge_moves.items():
        layer = cg.layer(j)
        for w, n in row.items():
            layer.remove_edges(rec.y, w, n)
            layer.add_edges(rec.v_new, w, n)
    for j, nl in rec.moves.loop_moves.items():
        layer = cg.layer(j)
        layer.remove_loops(rec.y, nl)
        layer.add_edges(rec.y, rec.v_new, nl)


def reference_relabel(cg: ColoredMultigraph, order: List[VertexId]) -> ColoredMultigraph:
    """Rename vertices so order[i] becomes i."""
    rename = {v: i for i, v in enumerate(order)}
    out = ColoredMultigraph(cg.k, range(len(order)))
    for j in range(1, cg.k + 1):
        layer = cg.layer(j)
        for u, v, n in layer.pairs():
            out.layer(j).add_edges(rename[u], rename[v], n)
        for v, n in layer.loop_items():
            out.layer(j).add_loops(rename[v], n)
    return out


def reference_merge(g: Multigraph, other: Multigraph) -> None:
    """Add all of other's vertices, edges and loops into g."""
    for v in other.vertices:
        g.add_vertex(v)
    for u, v, n in other.pairs():
        g.add_edges(u, v, n)
    for v, n in other.loop_items():
        g.add_loops(v, n)


# ---------------------------------------------------------------------------
# the Euler walks and the even peel as they were before they shared one walk
# and one arc skeleton: a walk per caller that re-sorts every row at each
# step, an orientation that walks each component along a circuit from its root,
# and a peel that re-sorts and re-indexes the arcs left for every class


def reference_euler_circuit(
    g: Multigraph, component_root: VertexId
) -> Tuple[Tuple[VertexId, VertexId], ...]:
    """Euler circuit of the component containing `component_root`, as its
    steps; a loop is a (v, v) step.

    Every vertex of that component must have even degree.  Deterministic:
    the walk always takes the smallest available neighbor, loops first.
    """
    comp = None
    for c in g.components():
        if component_root in c:
            comp = c
            break
    if comp is None:
        raise PreconditionError(f"unknown vertex {component_root}")
    for v in comp:
        if g.degree(v) % 2:
            raise PreconditionError(f"vertex {v} has odd degree {g.degree(v)}")

    adj: Dict[VertexId, Dict[VertexId, int]] = {
        v: {u: g.multiplicity(v, u) for u in g.neighbors(v)} for v in comp
    }
    loops_left = {v: g.loops(v) for v in comp}

    stack = [component_root]
    trail: List[VertexId] = []
    while stack:
        v = stack[-1]
        if loops_left[v]:
            loops_left[v] -= 1
            stack.append(v)
            continue
        nxt = None
        for u in sorted(adj[v]):
            if adj[v][u] > 0:
                nxt = u
                break
        if nxt is None:
            trail.append(stack.pop())
        else:
            adj[v][nxt] -= 1
            adj[nxt][v] -= 1
            stack.append(nxt)
    trail.reverse()

    steps = tuple(zip(trail, trail[1:]))
    want = sum(g.multiplicity(u, v) for u in comp for v in comp if u < v) + sum(
        g.loops(v) for v in comp
    )
    if len(steps) != want:
        raise AssertionError("euler walk did not cover the component")
    return steps


def reference_orient(g: Multigraph) -> Dict[Tuple[VertexId, VertexId], int]:
    """Euler orientation of a loopless even graph: arc (u, v) -> count."""
    arcs: Dict[Tuple[VertexId, VertexId], int] = {}
    seen: set = set()
    for comp in g.components():
        root = comp[0]
        seen.update(comp)
        if all(g.degree(v) == 0 for v in comp):
            continue
        for u, v in reference_euler_circuit(g, root):
            arcs[(u, v)] = arcs.get((u, v), 0) + 1
    return arcs


def reference_peel_even_class(
    arcs: Dict[Tuple[VertexId, VertexId], int], verts: List[VertexId], c: int
) -> Dict[Tuple[VertexId, VertexId], int]:
    """One even class from an Euler-oriented graph: per vertex, throughput is
    windowed to floor/ceil of (half-degree / c); conservation keeps it even."""
    if c == 1:
        return dict(arcs)
    half: Dict[VertexId, int] = {v: 0 for v in verts}
    for (u, _), n in arcs.items():
        half[u] += n

    # nodes: v_in = 2i, v_out = 2i+1
    index = {v: i for i, v in enumerate(verts)}
    arc_list = []
    order = sorted(arcs)
    for (u, v) in order:
        arc_list.append((2 * index[u] + 1, 2 * index[v], 0, arcs[(u, v)]))
    vertex_arc_start = len(arc_list)
    for v in verts:
        s = half[v]
        arc_list.append((2 * index[v], 2 * index[v] + 1, s // c, -((-s) // c)))
    flows = feasible_circulation(2 * len(verts), arc_list)
    if flows is None:  # impossible: the fractional 1/c circulation is feasible
        raise AssertionError("even class peeling was infeasible")
    out = {}
    for i, key in enumerate(order):
        if flows[i]:
            out[key] = flows[i]
    return out


def reference_extract_cycle(layer: Multigraph) -> Tuple[VertexId, ...]:
    """Read the spanning cycle off a layer that is one: no loops, every
    vertex of degree 2, and one walk through every vertex.

    Walk from the smallest vertex, always taking the smallest neighbor with
    an unused edge; 2-regularity leaves no choices after the first step, and
    the walk closes at the start once it has used every edge it can reach.
    """
    verts = layer.vertices
    rem: Dict[VertexId, Dict[VertexId, int]] = {
        v: {u: layer.multiplicity(v, u) for u in layer.neighbors(v)} for v in verts
    }
    if any(layer.loops(v) or sum(rem[v].values()) != 2 for v in verts):
        raise AssertionError("color class is not a single spanning cycle")
    start = cur = verts[0]
    cycle = [start]
    while True:
        nxt = min(u for u, n in rem[cur].items() if n)
        rem[cur][nxt] -= 1
        rem[nxt][cur] -= 1
        if nxt == start:
            break
        cycle.append(nxt)
        cur = nxt
    if len(cycle) != len(verts):
        raise AssertionError("color class is not a single spanning cycle")
    return tuple(cycle)


def reference_evenly_equitable_coloring(g: Multigraph, k: int) -> ColoredMultigraph:
    """evenly_equitable_coloring as it was before its loop placement kept a
    heap: every loop unit recomputes all k class degrees at its vertex."""
    if k < 1:
        raise PreconditionError(f"need at least one color, got {k}")
    verts = g.vertices
    for v in verts:
        if g.degree(v) % 2:
            raise PreconditionError(f"vertex {v} has odd degree {g.degree(v)}")

    loopless = g.copy()
    for v, n in g.loop_items():
        loopless.remove_loops(v, n)
    arcs = reference_orient(loopless)

    cg = ColoredMultigraph(k, verts)
    remaining = dict(arcs)
    for j in range(1, k + 1):
        cls = reference_peel_even_class(remaining, verts, k - j + 1)
        for (u, v), n in sorted(cls.items()):
            cg.layer(j).add_edges(u, v, n)
            left = remaining[(u, v)] - n
            if left:
                remaining[(u, v)] = left
            else:
                del remaining[(u, v)]
    if remaining:
        raise AssertionError("peeling left arcs uncolored")

    # loops: atomic 2-units, water-filled onto the lightest class at the vertex
    for v, n in g.loop_items():
        for _ in range(n):
            degs = [(cg.layer(j).degree(v), j) for j in range(1, k + 1)]
            _, j = min(degs)
            cg.layer(j).add_loops(v, 1)

    if not is_evenly_equitable(cg):
        raise AssertionError("construction violated its contract")
    return cg


def approx(x: Rational, y: Rational) -> bool:
    """True iff floor(y) <= x <= ceil(y), evaluated in exact rational arithmetic."""
    return math.floor(y) <= x <= math.ceil(y)


# ---------------------------------------------------------------------------
# readers that only the tests use


def pure_edge_counts(cycle: Tuple[VertexId, ...], partition: List[List[VertexId]]) -> List[int]:
    """Edges of the cycle inside each part, in part order."""
    part_of = {v: i for i, part in enumerate(partition) for v in part}
    counts = [0] * len(partition)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        if part_of[u] == part_of[v]:
            counts[part_of[u]] += 1
    return counts


def mixed_edge_count(cycle: Tuple[VertexId, ...], partition: List[List[VertexId]]) -> int:
    """Edges of the cycle joining two different parts."""
    part_of = {v: i for i, part in enumerate(partition) for v in part}
    return sum(1 for u, v in zip(cycle, cycle[1:] + cycle[:1]) if part_of[u] != part_of[v])


def pair_counts(c: BipartiteColoring, l: Hashable, r: Hashable) -> List[int]:
    """Multiplicity of the pair l-r in each color 1..k."""
    return [c.count(l, r, col) for col in range(1, c.k + 1)]


def vertex_counts(c: BipartiteColoring, v: Hashable) -> List[int]:
    """Edges at v in each color 1..k."""
    out = [0] * c.k
    for l, r, col, n in c.items():
        if l == v or r == v:
            out[col - 1] += n
    return out


def multiplicity_sets(g: Multigraph, a: Iterable[VertexId], b: Iterable[VertexId]) -> int:
    """Total number of edges joining a vertex of A to a vertex of B (A, B disjoint)."""
    sa, sb = set(a), set(b)
    if sa & sb:
        raise GraphError("multiplicity_sets requires disjoint vertex sets")
    return sum(g.multiplicity(u, v) for u in sa for v in sb)


# ---------------------------------------------------------------------------
# the fairness contracts from their definitions: each checker reads its
# graphs once into plain counts, tests every cell its contract names against
# approx, and returns what it found violated


class Counts(NamedTuple):
    """A colored multigraph as plain dicts: adj[j][v] maps each neighbor of
    v in color j to the multiplicity of the pair, and loops[j] each vertex
    with color-j loops to their number; no entry is 0."""

    adj: Dict[int, Dict[VertexId, Dict[VertexId, int]]]
    loops: Dict[int, Dict[VertexId, int]]


def counts_of(cg: ColoredMultigraph) -> Counts:
    vertices = cg.vertices
    adj: Dict[int, Dict[VertexId, Dict[VertexId, int]]] = {}
    loops: Dict[int, Dict[VertexId, int]] = {}
    for j in range(1, cg.k + 1):
        rows = adj[j] = {v: {} for v in vertices}
        for u, v, m in cg.layer(j).pairs():
            rows[u][v] = rows[v][u] = m
        loops[j] = dict(cg.layer(j).loop_items())
    return Counts(adj, loops)


# each reader counts in color j, or in all colors when j is 0


def _colors(c: Counts, j: int) -> Iterable[int]:
    return (j,) if j else c.adj


def _deg(c: Counts, v: VertexId, j: int = 0) -> int:
    return sum(sum(c.adj[i][v].values()) + 2 * c.loops[i].get(v, 0) for i in _colors(c, j))


def _mult(c: Counts, u: VertexId, v: VertexId, j: int = 0) -> int:
    return sum(c.adj[i][u].get(v, 0) for i in _colors(c, j))


def _loops(c: Counts, v: VertexId, j: int = 0) -> int:
    return sum(c.loops[i].get(v, 0) for i in _colors(c, j))


def _edges(c: Counts, j: int) -> int:
    return sum(sum(row.values()) for row in c.adj[j].values()) // 2 + sum(c.loops[j].values())


def _components(c: Counts, j: int) -> int:
    seen: Set[VertexId] = set()
    count = 0
    for root in c.adj[j]:
        if root in seen:
            continue
        count += 1
        seen.add(root)
        stack = [root]
        while stack:
            for u in c.adj[j][stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


def detachment_violations(
    h: ColoredMultigraph, eta: AmalgamationSpec, psi: DetachmentMap, g: ColoredMultigraph
) -> Set[str]:
    """The conditions of a fair detachment that g breaks, among "loopless"
    (g has no loop), "conservation" (each color keeps its edge count) and
    A1-A7.  With u, u2 distinct vertices of host w's fiber, v a vertex of
    another host z's fiber and j all colors (A1, A3, A5) or one (A2, A4, A6):

        A1, A2  d_g(u)      ~ d_h(w) / eta(w)
        A3, A4  m_g(u, u2)  ~ l_h(w) / C(eta(w), 2)
        A5, A6  m_g(u, v)   ~ m_h(w, z) / (eta(w) eta(z))
        A7      a color j whose d_h(w) / eta(w) is a positive even integer
                at every w has as many components in g as in h

    psi's fibers must partition g's vertices, each of size eta.
    """
    H, G = counts_of(h), counts_of(g)
    size, fibers = eta.eta, psi.fibers
    bad = set()
    if any(G.loops.values()):
        bad.add("loopless")
    if any(_edges(H, j) != _edges(G, j) for j in H.adj):
        bad.add("conservation")
    for j in (0, *H.adj):
        deg_name, loop_name, pair_name = ("A2", "A4", "A6") if j else ("A1", "A3", "A5")
        for w, fiber in fibers.items():
            share = Fraction(_deg(H, w, j), size[w])
            if not all(approx(_deg(G, u, j), share) for u in fiber):
                bad.add(deg_name)
            if not all(
                approx(_mult(G, u, u2, j), Fraction(_loops(H, w, j), math.comb(size[w], 2)))
                for u, u2 in combinations(fiber, 2)
            ):
                bad.add(loop_name)
        for (w, fw), (z, fz) in combinations(fibers.items(), 2):
            share = Fraction(_mult(H, w, z, j), size[w] * size[z])
            if not all(approx(_mult(G, u, v, j), share) for u in fw for v in fz):
                bad.add(pair_name)
    for j in H.adj:
        ratios = [Fraction(_deg(H, w, j), size[w]) for w in fibers]
        even = all(r > 0 and r.denominator == 1 and r.numerator % 2 == 0 for r in ratios)
        if even and _components(H, j) != _components(G, j):
            bad.add("A7")
    return bad


def step_violations(
    h_before: ColoredMultigraph,
    h_after: ColoredMultigraph,
    y: VertexId,
    v_new: VertexId,
    eta_before: AmalgamationSpec,
) -> Set[str]:
    """The relations B1-B6 that the step splitting v_new off y breaks.  With
    n = eta_before(y), which must be at least 2, v any vertex but y of
    h_before, counts before the step marked 0 and j all colors (B1, B3, B5)
    or one (B2, B4, B6):

        B1, B2            l(y)                   ~ l0(y) C(n - 1, 2) / C(n, 2)
        B3(i), B4(i)      d(y) / (n - 1)         ~ d0(y) / n
        B3(ii), B4(ii)    d(v_new)               ~ d0(y) / n
        B5(i), B6(i)      m(y, v) / (n - 1)      ~ m0(y, v) / n
        B5(ii), B6(ii)    m(v_new, v)            ~ m0(y, v) / n
        B5(iii), B6(iii)  m(y, v_new) / (n - 1)  ~ l0(y) / C(n, 2)

    and "amalgamation" when, in some color, identifying v_new with y does
    not give back h_before's edges and loops.
    """
    n = eta_before.eta[y]
    B, A = counts_of(h_before), counts_of(h_after)
    bad = set()
    for j in (0, *B.adj):
        loop_name, deg_name, mult_name = ("B2", "B4", "B6") if j else ("B1", "B3", "B5")
        shares = [
            (
                loop_name,
                _loops(A, y, j),
                Fraction(_loops(B, y, j) * math.comb(n - 1, 2), math.comb(n, 2)),
            ),
            (f"{deg_name}(i)", Fraction(_deg(A, y, j), n - 1), Fraction(_deg(B, y, j), n)),
            (f"{deg_name}(ii)", _deg(A, v_new, j), Fraction(_deg(B, y, j), n)),
            (
                f"{mult_name}(iii)",
                Fraction(_mult(A, y, v_new, j), n - 1),
                Fraction(_loops(B, y, j), math.comb(n, 2)),
            ),
        ]
        for v in B.adj[1]:
            if v != y:
                share = Fraction(_mult(B, y, v, j), n)
                shares.append((f"{mult_name}(i)", Fraction(_mult(A, y, v, j), n - 1), share))
                shares.append((f"{mult_name}(ii)", _mult(A, v_new, v, j), share))
        bad.update(name for name, x, share in shares if not approx(x, share))
    if any(_identified(A, j, y, v_new) != _identified(B, j, y, v_new) for j in B.adj):
        bad.add("amalgamation")
    return bad


def _identified(c: Counts, j: int, y: VertexId, v: VertexId) -> Counter:
    """The color-j edges of c as a multiset of endpoint pairs (a loop at x is
    (x, x)), with vertex v identified with y."""
    name = {v: y}
    edges: Counter = Counter()
    for u, row in c.adj[j].items():
        for w, m in row.items():
            if u < w:
                edges[tuple(sorted((name.get(u, u), name.get(w, w))))] += m
    for x, n in c.loops[j].items():
        edges[name.get(x, x), name.get(x, x)] += n
    return edges


def _bump(rows: Dict[VertexId, Dict[VertexId, int]], u: VertexId, v: VertexId, n: int) -> None:
    """Add n (or take -n) to the pair u-v in both of its rows."""
    for a, b in ((u, v), (v, u)):
        rows[a][b] = rows[a].get(b, 0) + n
        if not rows[a][b]:
            del rows[a][b]


def _split(c: Counts, rec) -> None:
    """Apply one step record's moves to c in place: per color j,
    edge_moves[j][w] of the edges y-w become v_new-w and loop_moves[j] of y's
    loops become edges y-v_new.  GraphError for a v_new that exists, or for
    an unknown color, a w that is y or no vertex, or a count outside
    0..present."""
    y, new, moves = rec.y, rec.v_new, rec.moves
    if new in c.adj[1]:
        raise GraphError(f"new vertex {new} already exists")
    unknown = set(moves.edge_moves).union(moves.loop_moves) - set(c.adj)
    if unknown:
        raise GraphError(f"unknown color {min(unknown)}")
    for j, row in moves.edge_moves.items():
        for w, n in row.items():
            if w == y or w not in c.adj[j] or not 0 <= n <= _mult(c, y, w, j):
                raise GraphError(f"cannot move {n} color-{j} edges {y}-{w}")
    for j, n in moves.loop_moves.items():
        if not 0 <= n <= _loops(c, y, j):
            raise GraphError(f"cannot move {n} color-{j} loops at {y}")
    for rows in c.adj.values():
        rows[new] = {}
    for j, row in moves.edge_moves.items():
        for w, n in row.items():
            _bump(c.adj[j], y, w, -n)
            _bump(c.adj[j], new, w, n)
    for j, n in moves.loop_moves.items():
        left = c.loops[j].pop(y, 0) - n
        if left:
            c.loops[j][y] = left
        _bump(c.adj[j], y, new, n)


def trace_violations(
    h0: ColoredMultigraph, eta0: AmalgamationSpec, trace
) -> Tuple[Optional[Tuple[int, Set[str]]], Counts]:
    """Replay trace on h0's counts: the first step that breaks a relation
    with the kinds it breaks, or None; and the counts the replay reached.

    Step s splits v_new off y.  y must have a split count (eta0 at a host,
    less one per earlier step at it; 1 at an offshoot), else GraphError; it
    breaks "split count" below 2, and "eta_y_before" when the step records
    another.  A move that cannot be applied (see _split) raises GraphError.
    After the step, with eta the split counts, counts before the trace
    marked 0, every host w and z and every offshoot vr split off w:

        degree  d(w) / eta(w)              ~ d0(w) / eta0(w)
        loops   m(w, vr) / eta(w)          ~ l0(w) / C(eta0(w), 2)
        pair    m(w, z) / (eta(w) eta(z))  ~ m0(w, z) / (eta0(w) eta0(z))
    """
    start, cur = counts_of(h0), counts_of(h0)
    size, eta = eta0.eta, dict(eta0.eta)
    origin: Dict[VertexId, VertexId] = {}
    for s, rec in enumerate(trace.steps):
        y = rec.y
        if y not in eta:
            raise GraphError(f"step {s}: vertex {y} has no split count")
        kinds = {"split count"} if eta[y] < 2 else set()
        if rec.eta_y_before != eta[y]:
            kinds.add("eta_y_before")
        if kinds:
            return (s, kinds), cur
        try:
            _split(cur, rec)
        except GraphError as exc:
            raise GraphError(f"step {s}: {exc}") from None
        eta[y] -= 1
        eta[rec.v_new] = 1
        origin[rec.v_new] = origin.get(y, y)
        for w in size:
            if not approx(Fraction(_deg(cur, w), eta[w]), Fraction(_deg(start, w), size[w])):
                kinds.add("degree")
        for vr, w in origin.items():
            share = Fraction(_loops(start, w), math.comb(size[w], 2))
            if not approx(Fraction(_mult(cur, w, vr), eta[w]), share):
                kinds.add("loops")
        for w, z in combinations(size, 2):
            share = Fraction(_mult(start, w, z), size[w] * size[z])
            if not approx(Fraction(_mult(cur, w, z), eta[w] * eta[z]), share):
                kinds.add("pair")
        if kinds:
            return (s, kinds), cur
    return None, cur


def gdd_violations(g: Multigraph, params: "GddParams", partition: List[List[VertexId]]) -> Set[str]:
    """What keeps g from being the group divisible graph of params on the
    partition, which must cover g's vertices: "sizes" (the part sizes
    differ), "loops", and "lambda1" or "lambda2" (a pair inside one part, or
    across two, that does not have that many edges)."""
    part_of = {v: i for i, part in enumerate(partition) for v in part}
    mult = {(u, v): n for u, v, n in g.pairs()}
    bad = set()
    if sorted(map(len, partition)) != sorted(params.sizes):
        bad.add("sizes")
    if g.loop_items():
        bad.add("loops")
    for u, v in combinations(g.vertices, 2):
        same = part_of[u] == part_of[v]
        if mult.get((u, v), 0) != (params.lambda1 if same else params.lambda2):
            bad.add("lambda1" if same else "lambda2")
    return bad
