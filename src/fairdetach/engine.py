"""Single-vertex detachment engine for edge-colored multigraphs.

One step detaches a fresh vertex from a chosen vertex y whose split count
is still at least 2.  The edges (and loops) to hand over are selected
through two auxiliary bipartite colorings:

  * a fan graph with one left vertex per color and right side N(y) plus a
    loop proxy (each loop contributes two proxy edges) is colored balanced,
    equitable and equalized with eta(y) classes, of which only classes 1
    and 2 are peeled: they form the working subgraph, and since classes are
    peeled in order and class j depends only on the edges classes 1..j-1
    left, they are exactly the first two classes of the full coloring,
  * colors whose per-vertex degree ratios are even integers everywhere get
    their left vertex split into degree-2 units, pairing parallel edges to
    one neighbor first and edges into one component of the color class
    minus y second (both greedily maximal), which is what preserves the
    color class component counts,
  * a balanced, equitable, equalized 2-coloring of the refined graph picks
    class 1; each of its edges moves one edge end (or one loop) to the new
    vertex.

Repeating until every split count reaches 1 yields a loopless detachment
whose degrees, per-color degrees, intra- and cross-fiber multiplicities all
sit in the floor/ceiling window of their fair shares, with component counts
preserved for the qualifying colors.  Everything is deterministic: lowest
vertex id first, lowest color first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .bee import BipartiteMultigraph, bee_coloring
from .errors import GraphError, PreconditionError
from .multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    Multigraph,
    VertexId,
)

# right-side stand-in for loops at y; sorts below all real vertex ids so the
# documented "ascending vertex id, loop proxy last" order needs explicit keys
LOOP_PROXY: VertexId = -1


def _w_order(w: VertexId) -> Tuple[int, VertexId]:
    return (1, 0) if w == LOOP_PROXY else (0, w)


@dataclass(frozen=True)
class SplitBipartite:
    """Fan graph of y: one left vertex per color, right = neighbors of y plus proxy.

    Left labels are (color, -1) so they can never collide with vertex ids and
    so the refinement can reuse them for colors it leaves unsplit.
    """

    y: VertexId
    k: int
    graph: BipartiteMultigraph


@dataclass(frozen=True)
class RefinedBipartite:
    """Fan graph after unit splitting.

    Left labels are (color, -1) for an unsplit color vertex and (color, t)
    with t >= 0 for its degree-2 units; `groups` maps each color to its left
    labels.
    """

    y: VertexId
    k: int
    graph: BipartiteMultigraph
    groups: Dict[int, List[Tuple[int, int]]]


@dataclass(frozen=True)
class MoveSet:
    """Per-color edge moves of one step: counts by neighbor, plus loop moves."""

    edge_moves: Dict[int, Dict[VertexId, int]]
    loop_moves: Dict[int, int]

    def moved_total(self) -> int:
        return sum(sum(d.values()) for d in self.edge_moves.values()) + sum(
            self.loop_moves.values()
        )


@dataclass(frozen=True)
class StepRecord:
    """Everything needed to replay one detachment step."""

    y: VertexId
    v_new: VertexId
    eta_y_before: int
    moves: MoveSet


@dataclass
class DetachmentTrace:
    steps: List[StepRecord] = field(default_factory=list)

    def replay(self, start: ColoredMultigraph) -> List[ColoredMultigraph]:
        """All intermediate graphs, starting graph first, final graph last."""
        out = [start.copy()]
        cur = start
        for rec in self.steps:
            cur = apply_moves(cur, rec)
            out.append(cur)
        return out


def apply_moves(cg: ColoredMultigraph, rec: StepRecord) -> ColoredMultigraph:
    """Apply one recorded step to a copy of cg and return the new graph."""
    out = cg.copy()
    out.add_vertex(rec.v_new)
    for j in range(1, out.k + 1):
        layer = out.layer(j)
        for w, n in sorted(rec.moves.edge_moves.get(j, {}).items()):
            layer.remove_edges(rec.y, w, n)
            layer.add_edges(rec.v_new, w, n)
        nl = rec.moves.loop_moves.get(j, 0)
        if nl:
            layer.remove_loops(rec.y, nl)
            layer.add_edges(rec.y, rec.v_new, nl)
    return out


def condition3_colors(cg: ColoredMultigraph, eta: AmalgamationSpec) -> Set[int]:
    """Colors whose degree/eta ratio is a positive even integer at every vertex.

    These are the colors whose component counts survive detachment.  Zero
    ratios are excluded: an isolated vertex splits into several isolated
    vertices, which necessarily changes the component count, so a color
    with an isolated vertex can make no preservation promise.
    """
    out = set()
    for j in range(1, cg.k + 1):
        layer = cg.layer(j)
        if all(
            (d := layer.degree(v)) > 0 and d % (2 * eta.value(v)) == 0
            for v in cg.vertices
        ):
            out.add(j)
    return out


def build_split_bipartite(cg: ColoredMultigraph, y: VertexId) -> SplitBipartite:
    """Fan graph: m(c_j, u) = per-color multiplicity to u, m(c_j, proxy) = 2*loops."""
    if not cg.layer(1).has_vertex(y):
        raise GraphError(f"unknown vertex {y}")
    layers = [cg.layer(j) for j in range(1, cg.k + 1)]
    rows = [layer.neighbors(y) for layer in layers]
    w_side = sorted(set().union(*rows)) + [LOOP_PROXY]
    bg = BipartiteMultigraph([(j, -1) for j in range(1, cg.k + 1)], w_side)
    for j, (layer, row) in enumerate(zip(layers, rows), start=1):
        for u in row:
            bg.add_edges((j, -1), u, layer.multiplicity(y, u))
        nl = layer.loops(y)
        if nl:
            bg.add_edges((j, -1), LOOP_PROXY, 2 * nl)
    return SplitBipartite(y=y, k=cg.k, graph=bg)


def refine(
    t: SplitBipartite,
    cond3: Set[int],
    component_map: Dict[int, Dict[VertexId, int]],
) -> RefinedBipartite:
    """Split qualifying color vertices of the working subgraph into degree-2 units.

    Pairing is greedily maximal: first as many units as possible take two
    parallel edges to one right vertex, then as many leftovers as possible
    pair within one component of their color class minus y, then whatever
    remains pairs in sorted order.  `t` must already be restricted to the
    two working classes.
    """
    bg = BipartiteMultigraph([], t.graph.right)
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for j in range(1, t.k + 1):
        row = {w: t.graph.multiplicity((j, -1), w) for w in t.graph.right}
        row = {w: n for w, n in row.items() if n}
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
        units: List[Tuple[VertexId, VertexId]] = []
        singles: List[VertexId] = []
        for w in sorted(row, key=_w_order):
            units.extend([(w, w)] * (row[w] // 2))
            if row[w] % 2:
                singles.append(w)
        # pair leftovers sharing a component of the color class minus y;
        # the loop proxy belongs to no component
        comp_of = component_map.get(j, {})
        by_comp: Dict[Tuple[int, int], List[VertexId]] = {}
        for w in singles:
            key = (1, 0) if w == LOOP_PROXY else (0, comp_of[w])
            by_comp.setdefault(key, []).append(w)
        residue: List[VertexId] = []
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


def _component_map(
    cg: ColoredMultigraph, y: VertexId, colors: Set[int]
) -> Dict[int, Dict[VertexId, int]]:
    """For each color: component label (smallest member) of each vertex != y
    in that color class with y removed."""
    out: Dict[int, Dict[VertexId, int]] = {}
    for j in sorted(colors):
        layer = cg.layer(j)
        rest = layer.copy()
        for u in layer.neighbors(y):
            rest.remove_edges(y, u, layer.multiplicity(y, u))
        if layer.loops(y):
            rest.remove_loops(y, layer.loops(y))
        labels: Dict[VertexId, int] = {}
        for comp in rest.components():
            members = [v for v in comp if v != y]
            for v in members:
                labels[v] = min(members)
        out[j] = labels
    return out


def _step(
    cg: ColoredMultigraph, eta: AmalgamationSpec, y: VertexId
) -> Tuple[ColoredMultigraph, AmalgamationSpec, VertexId, StepRecord]:
    eta_y = eta.value(y)
    if eta_y < 2:
        raise PreconditionError(f"vertex {y} has eta={eta_y}, nothing to detach")

    fan = build_split_bipartite(cg, y)
    fan_coloring = bee_coloring(fan.graph, eta_y, upto=2)
    working = SplitBipartite(y=y, k=cg.k, graph=fan_coloring.restrict((1, 2)))

    cond3 = condition3_colors(cg, eta)
    comp_map = _component_map(cg, y, cond3)
    refined = refine(working, cond3, comp_map)

    # the qualifying colors must split into exactly degree/eta units
    working_deg: Dict[int, int] = {}
    for (j, _), _, n in working.graph.pairs():
        working_deg[j] = working_deg.get(j, 0) + n
    for j in sorted(cond3):
        alpha = cg.layer(j).degree(y) // eta_y
        wdeg = working_deg.get(j, 0)
        if wdeg != 2 * alpha:
            raise AssertionError(
                f"color {j}: working degree {wdeg} != 2*{alpha}"
            )
        if len(refined.groups[j]) != alpha:
            raise AssertionError(f"color {j}: split into {len(refined.groups[j])} units")

    pick = bee_coloring(refined.graph, 2)

    v_new = max(cg.vertices) + 1
    edge_moves: Dict[int, Dict[VertexId, int]] = {}
    loop_moves: Dict[int, int] = {}
    for (label, w), n in pick.class_pair_row(1).items():
        j = label[0]
        if w == LOOP_PROXY:
            loop_moves[j] = loop_moves.get(j, 0) + n
        else:
            per_w = edge_moves.setdefault(j, {})
            per_w[w] = per_w.get(w, 0) + n
    for j, nl in sorted(loop_moves.items()):
        if nl > cg.layer(j).loops(y):
            raise AssertionError(
                f"color {j}: would move {nl} loops but only {cg.layer(j).loops(y)} exist"
            )

    rec = StepRecord(
        y=y,
        v_new=v_new,
        eta_y_before=eta_y,
        moves=MoveSet(edge_moves=edge_moves, loop_moves=loop_moves),
    )
    out = apply_moves(cg, rec)
    new_eta = dict(eta.eta)
    new_eta[y] = eta_y - 1
    new_eta[v_new] = 1
    if new_eta[y] == 1 and out.loops(y) != 0:
        raise AssertionError(f"vertex {y} reached eta=1 with {out.loops(y)} loops")
    return out, AmalgamationSpec(new_eta), v_new, rec


def detach_step(
    cg: ColoredMultigraph, eta: AmalgamationSpec, y: VertexId
) -> Tuple[ColoredMultigraph, AmalgamationSpec, VertexId]:
    """Detach one fresh vertex from y.  Inputs are not mutated.

    The new vertex gets split count 1, y's drops by one, per-color edge
    totals are conserved, and the step relations hold between input and
    output (see verify.assert_step_relations).
    """
    out, new_eta, v_new, _ = _step(cg, eta, y)
    return out, new_eta, v_new


def detach_all(
    cg: ColoredMultigraph,
    eta: AmalgamationSpec,
    check: bool = False,
) -> Tuple[ColoredMultigraph, DetachmentMap, DetachmentTrace]:
    """Fully detach: split every vertex w into eta(w) vertices.

    Returns the loopless detached graph, the vertex map onto the input
    graph, and the step trace.  With check=True every step additionally
    asserts the step relations and, for qualifying colors, preservation of
    evenness ratios and component counts (slower; meant for tests).
    """
    eta.validate_against(cg.underlying())
    if check:
        from .verify import assert_step_relations

    fibers = {w: [w] for w in cg.vertices}
    trace = DetachmentTrace()
    cur = cg.copy()
    cur_eta = AmalgamationSpec(dict(eta.eta))
    expected_steps = eta.total_splits()

    while True:
        pending = [v for v in cur.vertices if cur_eta.value(v) >= 2]
        if not pending:
            break
        y = min(pending)
        if check:
            qualifying = condition3_colors(cur, cur_eta)
            omega_before = {j: cur.layer(j).component_count() for j in qualifying}
        nxt, nxt_eta, v_new, rec = _step(cur, cur_eta, y)
        if check:
            ok, witness = assert_step_relations(cur, nxt, y, v_new, cur_eta)
            if not ok:
                raise AssertionError(f"step relation violated: {witness}")
            still = condition3_colors(nxt, nxt_eta)
            for j in sorted(qualifying):
                if j not in still:
                    raise AssertionError(f"color {j} lost its evenness ratios")
                if nxt.layer(j).component_count() != omega_before[j]:
                    raise AssertionError(f"color {j} changed component count")
        fibers[y].append(v_new)
        trace.steps.append(rec)
        cur, cur_eta = nxt, nxt_eta

    if len(trace.steps) != expected_steps:
        raise AssertionError(
            f"took {len(trace.steps)} steps, expected {expected_steps}"
        )
    if any(cur.loops(v) for v in cur.vertices):
        raise AssertionError("detached graph still carries loops")
    psi = DetachmentMap.from_fibers(fibers)
    psi.validate(eta)
    return cur, psi, trace
