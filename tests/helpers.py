"""Shared independent oracles for the test suite.

Everything here is deliberately brute force and separate from the library's
own algorithms, so tests compare two routes to the same answer.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from fairdetach.bee import BipartiteColoring, BipartiteMultigraph
from fairdetach.errors import PreconditionError
from fairdetach.multigraph import Multigraph


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
