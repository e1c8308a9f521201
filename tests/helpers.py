"""Shared oracles for the test suite, of two sorts.

- Definition oracles, which find an answer from the contract itself:
  `approx`, and at the end of the file one checker per contract on plain
  lists and counts, sharing no code with the library: the bipartite
  colorings (balanced, equitable, equalized and the peel windows), evenly
  equitable colorings, a color class that is one spanning cycle, a
  detachment step's moves, the detachment conditions, the step relations
  B1-B6, the trace's cumulative relations, the GDD shape, and a
  circulation's windows and conservation with the Hoffman cut that proves
  no circulation exists.
- Brute force: the pairing and cycle searches.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union,
)

from fairdetach.bee import SortedBipartite
from fairdetach.errors import GraphError
from fairdetach.multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    Multigraph,
    VertexId,
)

Rational = Union[int, Fraction]


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
    loops become edges y-v_new.  GraphError for a v_new that exists or a y
    that does not, or for an unknown color, a w that is y or no vertex, or a
    count outside 1..present."""
    y, new, moves = rec.y, rec.v_new, rec.moves
    if new in c.adj[1]:
        raise GraphError(f"new vertex {new} already exists")
    if y not in c.adj[1]:
        raise GraphError(f"no vertex {y} to split")
    unknown = set(moves.edge_moves).union(moves.loop_moves) - set(c.adj)
    if unknown:
        raise GraphError(f"unknown color {min(unknown)}")
    for j, row in moves.edge_moves.items():
        for w, n in row.items():
            if w == y or w not in c.adj[j] or not 1 <= n <= _mult(c, y, w, j):
                raise GraphError(f"cannot move {n} color-{j} edges {y}-{w}")
    for j, n in moves.loop_moves.items():
        if not 1 <= n <= _loops(c, y, j):
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


def _cells(pairs: Sequence[Tuple], counts: Sequence[int]) -> Counter:
    """Counts on pairs, read as cells: ("pair", i) for pair i, ("vertex",
    side, v) for each end, left side 0 and right 1, and ("total",)."""
    cells: Counter = Counter({("total",): 0})
    for i, ((l, r, _), n) in enumerate(zip(pairs, counts)):
        for key in (("pair", i), ("vertex", 0, l), ("vertex", 1, r), ("total",)):
            cells[key] += n
    return cells


def coloring_violations(
    pairs: Sequence[Tuple], classes: Sequence[Sequence[int]], k: int
) -> Set[str]:
    """What classes 1..len(classes) of a k-coloring of the bipartite
    multigraph with (left, right, multiplicity) pairs break, each class
    given as its count on every pair, among:

        cover      the classes sum to each pair's multiplicity
        balanced   at each pair, two classes differ by at most one
        equitable  at each vertex, keyed by side, two classes differ by at most one
        equalized  two class sizes differ by at most one
        peel       class j is within floor..ceil of x / (k - j + 1), x what
                   classes 1..j-1 left of every pair, every vertex and the total

    A partial coloring, the first m < k classes, promises "peel" alone.
    GraphError unless 1..k classes are given, each as long as pairs.
    """
    if not 1 <= len(classes) <= k or any(len(cls) != len(pairs) for cls in classes):
        raise GraphError(f"need 1..{k} classes of {len(pairs)} counts each")
    whole = _cells(pairs, [n for _, _, n in pairs])
    split = [_cells(pairs, cls) for cls in classes]
    bad = set()
    if [sum(col) for col in zip(*classes)] != [n for _, _, n in pairs]:
        bad.add("cover")
    name = {"pair": "balanced", "vertex": "equitable", "total": "equalized"}
    for key in whole:
        seen = [cells[key] for cells in split]
        if max(seen) - min(seen) > 1:
            bad.add(name[key[0]])
    left = whole
    for c, cells in zip(range(k, 0, -1), split):
        if not all(approx(cells[key], Fraction(x, c)) for key, x in left.items()):
            bad.add("peel")
        left = {key: x - cells[key] for key, x in left.items()}
    return bad


def evenly_equitable_violations(g: Multigraph, cg: ColoredMultigraph) -> Set[str]:
    """What keeps cg from being an evenly equitable coloring of g, among
    "cover" (the classes do not sum to g: its vertices, pairs and loops),
    "odd" (a vertex has odd degree in some class) and "spread" (two class
    degrees at one vertex differ by more than two)."""
    c = counts_of(cg)
    verts = sorted(c.adj[1])
    pairs = {(u, v): m for u, v in combinations(verts, 2) if (m := _mult(c, u, v))}
    loops = {v: n for v in verts if (n := _loops(c, v))}
    bad = set()
    if (verts, pairs, loops) != (
        g.vertices,
        {(u, v): n for u, v, n in g.pairs()},
        dict(g.loop_items()),
    ):
        bad.add("cover")
    for v in verts:
        degs = [_deg(c, v, j) for j in c.adj]
        if any(d % 2 for d in degs):
            bad.add("odd")
        if max(degs) - min(degs) > 2:
            bad.add("spread")
    return bad


def cycle_violations(layer: Multigraph, cycle: Sequence[VertexId]) -> Set[str]:
    """What keeps cycle, a closed vertex sequence, from being the one
    spanning cycle that layer is, among "loops" (layer has one), "vertices"
    (cycle does not list every vertex of layer exactly once) and "edges"
    (the multiset of cycle's closing pairs, each vertex with the next and
    the last with the first, is not layer's pairs; for two vertices it is
    a doubled edge)."""
    closing = Counter(tuple(sorted(e)) for e in zip(cycle, [*cycle[1:], *cycle[:1]]))
    bad = set()
    if layer.loop_items():
        bad.add("loops")
    if sorted(cycle) != layer.vertices:
        bad.add("vertices")
    if closing != Counter({(u, v): n for u, v, n in layer.pairs()}):
        bad.add("edges")
    return bad


def circulation_violations(
    n: int, arcs: Sequence[Tuple[int, int, int, int]], flows: Sequence[int]
) -> Set[str]:
    """What one flow value per (tail, head, lower, upper) arc on nodes
    0..n-1 breaks, among "window" (a flow outside its [lower, upper]) and
    "conservation" (a node whose inflow is not its outflow).  GraphError
    unless there is one flow per arc."""
    if len(flows) != len(arcs):
        raise GraphError(f"need {len(arcs)} flows, got {len(flows)}")
    bad = set()
    balance = [0] * n
    for (a, b, low, high), f in zip(arcs, flows):
        if not low <= f <= high:
            bad.add("window")
        balance[a] -= f
        balance[b] += f
    if any(balance):
        bad.add("conservation")
    return bad


def is_hoffman_cut(arcs: Sequence[Tuple[int, int, int, int]], s: Set[int]) -> bool:
    """True when the lower bounds on the (tail, head, lower, upper) arcs
    into node set s exceed the upper bounds on the arcs out of it.  Every
    circulation carries as much into s as out of it, so then none meets
    every window; when none does, such an s exists (Hoffman 1960)."""
    into = sum(low for a, b, low, _ in arcs if a not in s and b in s)
    out = sum(high for a, b, _, high in arcs if a in s and b not in s)
    return into > out
