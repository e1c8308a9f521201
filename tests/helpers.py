"""Shared independent oracles for the test suite.

Everything here is deliberately brute force and separate from the library's
own algorithms, so tests compare two routes to the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from fairdetach.bee import BipartiteColoring, BipartiteMultigraph, bee_coloring
from fairdetach.engine import MoveSet
from fairdetach.errors import GraphError, PreconditionError
from fairdetach.evencolor import _orient, _peel_even_class, is_evenly_equitable
from fairdetach.multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    Multigraph,
    VertexId,
    approx_ratio,
)


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


def reference_refine(t: SplitBipartite, cond3, component_map) -> RefinedBipartite:
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
    fan_coloring = bee_coloring(fan.graph, eta_y, upto=2)
    working = SplitBipartite(y=y, k=cg.k, graph=reference_restrict(fan_coloring, (1, 2)))
    refined = reference_refine(working, cond3, component_map)
    pick = bee_coloring(refined.graph, 2)
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
        "classes": [
            [fan_coloring.count(l, r, c) for l, r, _ in fan.graph.pairs()] for c in (1, 2)
        ],
        "working": _as_rows(working.graph, colors),
        "refined": ([label[0] for label in unit_labels], refined_rows),
        "picked": [pick.count(l, r, 1) for l, r, _ in refined.graph.pairs()],
        "moves": MoveSet(edge_moves=edge_moves, loop_moves=loop_moves),
    }


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
    arcs = _orient(loopless)

    cg = ColoredMultigraph(k, verts)
    remaining = dict(arcs)
    for j in range(1, k + 1):
        cls = _peel_even_class(remaining, verts, k - j + 1)
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


# ---------------------------------------------------------------------------
# the detachment checker as it was before it became a table: one loop nest
# per condition, each keeping its first counterexample through the report's
# keep-the-first-failure `record`


@dataclass
class ReferenceDetachmentReport:
    verdicts: Dict[str, Tuple[bool, Optional[str]]] = field(default_factory=dict)

    def record(self, name: str, ok: bool, witness: Optional[str] = None) -> None:
        if name not in self.verdicts or (self.verdicts[name][0] and not ok):
            self.verdicts[name] = (ok, witness)


def reference_verify_detachment(
    h: ColoredMultigraph,
    eta: AmalgamationSpec,
    psi: DetachmentMap,
    g: ColoredMultigraph,
) -> "ReferenceDetachmentReport":
    """Check all seven fairness conditions of a detachment in exact arithmetic.

    Also checks structural consistency (fibers vs eta, partition of the
    detached vertex set), looplessness of g, and per-color edge counts.
    Structural problems raise GraphError; condition failures are reported.
    """
    if h.k != g.k:
        raise GraphError(f"color counts differ: {h.k} vs {g.k}")
    psi.validate(eta)
    fiber_union = sorted(u for f in psi.fibers.values() for u in f)
    if fiber_union != g.vertices:
        raise GraphError("fibers do not partition the detached vertex set")
    if sorted(psi.fibers) != h.vertices:
        raise GraphError("psi is not onto the host vertex set")

    report = ReferenceDetachmentReport()
    report.record("structure", True)

    bad_loop = next((v for v in g.vertices if g.loops(v)), None)
    report.record(
        "loopless",
        bad_loop is None,
        None if bad_loop is None else f"loops remain at vertex {bad_loop}",
    )

    cons_ok, cons_wit = True, None
    for j in range(1, h.k + 1):
        if h.layer(j).edge_count() != g.layer(j).edge_count():
            cons_ok = False
            cons_wit = (
                f"color {j}: {h.layer(j).edge_count()} edges became "
                f"{g.layer(j).edge_count()}"
            )
            break
    report.record("conservation", cons_ok, cons_wit)

    hosts = h.vertices
    for name in ("A1", "A2", "A3", "A4", "A5", "A6", "A7"):
        report.record(name, True)

    for w in hosts:
        nw = eta.value(w)
        fiber = psi.fiber(w)
        for u in fiber:
            if not report.verdicts["A1"][0]:
                break
            if not approx_ratio(g.degree(u), h.degree(w), nw):
                report.record(
                    "A1",
                    False,
                    f"d({u})={g.degree(u)} not within d({w})/eta = {h.degree(w)}/{nw}",
                )
        for j in range(1, h.k + 1):
            if not report.verdicts["A2"][0]:
                break
            dw = h.layer(j).degree(w)
            for u in fiber:
                if not approx_ratio(g.layer(j).degree(u), dw, nw):
                    report.record(
                        "A2",
                        False,
                        f"color {j}: d({u})={g.layer(j).degree(u)} "
                        f"not within {dw}/{nw}",
                    )
                    break
        if nw >= 2:
            pairs2 = nw * (nw - 1) // 2
            lw = h.loops(w)
            for a in range(len(fiber)):
                if not report.verdicts["A3"][0]:
                    break
                for b in range(a + 1, len(fiber)):
                    m = g.multiplicity(fiber[a], fiber[b])
                    if not approx_ratio(m, lw, pairs2):
                        report.record(
                            "A3",
                            False,
                            f"m({fiber[a]},{fiber[b]})={m} not within {lw}/{pairs2}",
                        )
                        break
            for j in range(1, h.k + 1):
                if not report.verdicts["A4"][0]:
                    break
                lwj = h.layer(j).loops(w)
                done = False
                for a in range(len(fiber)):
                    if done:
                        break
                    for b in range(a + 1, len(fiber)):
                        m = g.layer(j).multiplicity(fiber[a], fiber[b])
                        if not approx_ratio(m, lwj, pairs2):
                            report.record(
                                "A4",
                                False,
                                f"color {j}: m({fiber[a]},{fiber[b]})={m} "
                                f"not within {lwj}/{pairs2}",
                            )
                            done = True
                            break

    for ia in range(len(hosts)):
        for ib in range(ia + 1, len(hosts)):
            w, z = hosts[ia], hosts[ib]
            den = eta.value(w) * eta.value(z)
            mwz = h.multiplicity(w, z)
            if report.verdicts["A5"][0]:
                done = False
                for u in psi.fiber(w):
                    if done:
                        break
                    for v in psi.fiber(z):
                        if not approx_ratio(g.multiplicity(u, v), mwz, den):
                            report.record(
                                "A5",
                                False,
                                f"m({u},{v})={g.multiplicity(u, v)} "
                                f"not within m({w},{z})/eta*eta = {mwz}/{den}",
                            )
                            done = True
                            break
            if report.verdicts["A6"][0]:
                done = False
                for j in range(1, h.k + 1):
                    if done:
                        break
                    mj = h.layer(j).multiplicity(w, z)
                    for u in psi.fiber(w):
                        if done:
                            break
                        for v in psi.fiber(z):
                            if not approx_ratio(
                                g.layer(j).multiplicity(u, v), mj, den
                            ):
                                report.record(
                                    "A6",
                                    False,
                                    f"color {j}: m({u},{v})="
                                    f"{g.layer(j).multiplicity(u, v)} "
                                    f"not within {mj}/{den}",
                                )
                                done = True
                                break

    # component preservation is promised for colors whose degree/eta ratio is
    # a positive even integer everywhere; an isolated vertex would split into
    # several isolated vertices, so zero ratios carry no promise
    for j in range(1, h.k + 1):
        layer = h.layer(j)
        if all(
            (d := layer.degree(w)) > 0 and d % (2 * eta.value(w)) == 0
            for w in hosts
        ):
            wh = layer.component_count()
            wg = g.layer(j).component_count()
            if wh != wg:
                report.record(
                    "A7", False, f"color {j}: components {wh} became {wg}"
                )
                break
    return report


# ---------------------------------------------------------------------------
# the step, trace and GDD checkers as they were before they became tables:
# one hand-written check per relation, read through multiplicity() calls,
# with the trace replayed through the copying apply_moves


def reference_is_gdd(
    g: Multigraph,
    params: "GddParams",
    partition: List[List[VertexId]],
) -> bool:
    """True iff g is loopless with multiplicity lambda1 inside every part of
    the partition and lambda2 across parts, with the parametrized part sizes."""
    flat = sorted(v for part in partition for v in part)
    if flat != g.vertices:
        raise GraphError("partition must cover the vertex set exactly")
    if sorted(len(p) for p in partition) != sorted(params.sizes):
        return False
    if any(g.loops(v) for v in g.vertices):
        return False
    part_of = {v: i for i, part in enumerate(partition) for v in part}
    verts = g.vertices
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            u, v = verts[a], verts[b]
            want = params.lambda1 if part_of[u] == part_of[v] else params.lambda2
            if g.multiplicity(u, v) != want:
                return False
    return True


def reference_ratio_ok(a: int, n1: int, b: int, n0: int) -> bool:
    """approx(a/n1, b/n0) in integers: n1*floor(b/n0) <= a <= n1*ceil(b/n0);
    n1 and n0 must be positive."""
    return n1 * (b // n0) <= a <= n1 * -(-b // n0)


def reference_assert_step_relations(
    h_before: ColoredMultigraph,
    h_after: ColoredMultigraph,
    y: VertexId,
    v_new: VertexId,
    eta_before: AmalgamationSpec,
) -> Tuple[bool, Optional[str]]:
    """Check the one-step fairness relations between consecutive graphs.

    The new vertex's degrees and multiplicities, and y's remaining loops,
    degrees and multiplicities, must all sit in the floor/ceiling window of
    their fair shares of what y carried before the step.
    """
    n0 = eta_before.value(y)
    n1 = n0 - 1
    if n1 < 1:
        return False, f"eta({y}) was {n0}, below the step precondition"
    k = h_before.k
    pairs2 = n0 * (n0 - 1) // 2

    def fail(name: str, detail: str) -> Tuple[bool, str]:
        return False, f"{name}: {detail}"

    # loops at y shrink by one fair share
    if not approx_ratio(h_after.loops(y), h_before.loops(y) * (n1 - 1), n0):
        return fail("B1", f"loops at {y}: {h_after.loops(y)}")
    for j in range(1, k + 1):
        if not approx_ratio(
            h_after.layer(j).loops(y), h_before.layer(j).loops(y) * (n1 - 1), n0
        ):
            return fail("B2", f"color {j} loops at {y}")

    # degrees: y keeps n1 fair shares, the new vertex receives one
    if not reference_ratio_ok(h_after.degree(y), n1, h_before.degree(y), n0):
        return fail("B3(i)", f"degree of {y}")
    if not approx_ratio(h_after.degree(v_new), h_before.degree(y), n0):
        return fail("B3(ii)", f"degree of {v_new}")
    for j in range(1, k + 1):
        if not reference_ratio_ok(
            h_after.layer(j).degree(y), n1, h_before.layer(j).degree(y), n0
        ):
            return fail("B4(i)", f"color {j} degree of {y}")
        if not approx_ratio(
            h_after.layer(j).degree(v_new), h_before.layer(j).degree(y), n0
        ):
            return fail("B4(ii)", f"color {j} degree of {v_new}")

    # multiplicities toward every old neighbor, and between y and the new vertex
    neighbors = {u for j in range(1, k + 1) for u, _ in h_before.layer(j).row(y)}
    for v in sorted(neighbors):
        if not reference_ratio_ok(
            h_after.multiplicity(y, v), n1, h_before.multiplicity(y, v), n0
        ):
            return fail("B5(i)", f"m({y},{v})")
        if not approx_ratio(
            h_after.multiplicity(v_new, v), h_before.multiplicity(y, v), n0
        ):
            return fail("B5(ii)", f"m({v_new},{v})")
        for j in range(1, k + 1):
            mj = h_before.layer(j).multiplicity(y, v)
            if not reference_ratio_ok(h_after.layer(j).multiplicity(y, v), n1, mj, n0):
                return fail("B6(i)", f"color {j} m({y},{v})")
            if not approx_ratio(
                h_after.layer(j).multiplicity(v_new, v), mj, n0
            ):
                return fail("B6(ii)", f"color {j} m({v_new},{v})")
    if not reference_ratio_ok(h_after.multiplicity(y, v_new), n1, h_before.loops(y), pairs2):
        return fail("B5(iii)", f"m({y},{v_new})")
    for j in range(1, k + 1):
        if not reference_ratio_ok(
            h_after.layer(j).multiplicity(y, v_new),
            n1,
            h_before.layer(j).loops(y),
            pairs2,
        ):
            return fail("B6(iii)", f"color {j} m({y},{v_new})")
    return True, None


def reference_verify_trace(
    h0: ColoredMultigraph, eta0: AmalgamationSpec, trace
) -> Tuple[bool, Optional[str]]:
    """Replay a detachment trace checking cumulative relations at each stage.

    Checks, against the original graph, each intermediate's per-vertex degree
    ratios, the multiplicity ratio between a split vertex and each of its
    earlier offshoots, and the cross-pair multiplicity ratios.
    """
    from fairdetach.engine import apply_moves

    cur = h0.copy()
    eta = dict(eta0.eta)
    origin: Dict[VertexId, VertexId] = {}
    hosts = h0.vertices
    for step_no, rec in enumerate(trace.steps):
        cur = apply_moves(cur, rec)
        root = origin.get(rec.y, rec.y)
        origin[rec.v_new] = root
        eta[rec.y] -= 1
        eta[rec.v_new] = 1

        offshoots: Dict[VertexId, List[VertexId]] = {w: [] for w in hosts}
        for v, w in origin.items():
            offshoots[w].append(v)

        for w in hosts:
            if not reference_ratio_ok(cur.degree(w), eta[w], h0.degree(w), eta0.value(w)):
                return False, f"step {step_no}: degree ratio at {w}"
            n0 = eta0.value(w)
            if n0 >= 2:
                pairs2 = n0 * (n0 - 1) // 2
                for vr in offshoots[w]:
                    if not reference_ratio_ok(
                        cur.multiplicity(w, vr), eta[w], h0.loops(w), pairs2
                    ):
                        return False, f"step {step_no}: m({w},{vr}) vs loops"
        for w, z in combinations(hosts, 2):
            if not reference_ratio_ok(
                cur.multiplicity(w, z),
                eta[w] * eta[z],
                h0.multiplicity(w, z),
                eta0.value(w) * eta0.value(z),
            ):
                return False, f"step {step_no}: m({w},{z}) ratio"
    return True, None
