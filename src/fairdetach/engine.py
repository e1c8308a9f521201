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

A step hands its data from stage to stage as integer rows in peel order
(see `bee.bee_coloring`), so no stage builds a graph or sorts again.  The
fan is read off y's sorted rows; the fan coloring returns classes 1 and 2
as multiplicity vectors over the fan's pairs, and their sum is the working
subgraph on the same pairs; `refine` emits its units with integer labels
and pairs already sorted; the pick peels only class 1, which is the moves.
Two orders meet here: in every graph the peel reads, the loop proxy (-1) is
the first right vertex, while `refine` pairs leftover edges with the proxy
last.

Repeating until every split count reaches 1 yields a loopless detachment
whose degrees, per-color degrees, intra- and cross-fiber multiplicities all
sit in the floor/ceiling window of their fair shares, with component counts
preserved for the qualifying colors.  Everything is deterministic: lowest
vertex id first, lowest color first.

`detach_all` (and `detach_step`, on a copy of its inputs) drives one mutable
state: a working copy of the graph that each step's moves are applied to in
place, the split counts, the next vertex id, per color the set of vertices
failing the condition-3 ratio test, and per qualifying color a union-find
over the color class minus y.  A step changes degrees and split counts only
at y and the new vertex, so only those two are re-tested, and their degrees
come from the step's moves: a moved edge y-w or loop at y costs y one degree
and gives the new vertex one, so y's per-color degrees are read once per y
and then only decremented.  While y stays the same, the class minus y only
grows: a moved edge y-w becomes v_new-w, which joins v_new to w's
component, and a moved loop becomes an edge y-v_new, which the class minus
y does not contain.  So the union-find (roots are smallest members, the
labels `refine` needs) is built once per y and color and then takes one
union per moved edge (Tarjan, "Efficiency of a good but not linear set
union algorithm", JACM 1975).  `condition3_colors` and
`_component_map` recompute the same facts from scratch; they are the oracles
that `detach_all(check=True)` compares the state with on every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .bee import SortedBipartite, bee_coloring
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


# The fan: left labels are the colors 1..k, every one present even at degree
# 0; the right side is the loop proxy (present even without loops) and then
# y's neighbors ascending; pairs are (color, w, multiplicity), sorted.
SplitBipartite = SortedBipartite

# refine's output (owner, graph): left label i of graph is a unit (or a whole
# unsplit color vertex) of color owner[i]; the right side is the fan's.
RefinedBipartite = Tuple[List[int], SortedBipartite]


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
    _move(out, rec)
    return out


def _move(cg: ColoredMultigraph, rec: StepRecord) -> None:
    """Apply one recorded step to cg in place."""
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
    """Fan graph: m(c_j, u) = per-color multiplicity to u, m(c_j, proxy) = 2*loops.

    Read straight off y's rows, which are sorted, so the pairs come out in
    peel order with the proxy (-1) first in each color.
    """
    if not cg.layer(1).has_vertex(y):
        raise GraphError(f"unknown vertex {y}")
    neighbors: Set[VertexId] = set()
    pairs: List[Tuple[int, VertexId, int]] = []
    for j in range(1, cg.k + 1):
        layer = cg.layer(j)
        nl = layer.loops(y)
        if nl:
            pairs.append((j, LOOP_PROXY, 2 * nl))
        row = layer.row(y)
        neighbors.update(u for u, _ in row)
        pairs.extend((j, u, n) for u, n in row)
    return range(1, cg.k + 1), [LOOP_PROXY, *sorted(neighbors)], pairs


def refine(
    working: SplitBipartite,
    cond3: Set[int],
    component_map: Dict[int, Dict[VertexId, int]],
) -> RefinedBipartite:
    """Split qualifying color vertices of the working subgraph into degree-2 units.

    Pairing is greedily maximal: first as many units as possible take two
    parallel edges to one right vertex, then as many leftovers as possible
    pair within one component of their color class minus y, then whatever
    remains pairs in ascending vertex order, loop proxy last.  `working` is
    the fan restricted to the two working classes, with the fan's left and
    right sides.  Left labels of the result count up from 0 in color order,
    each color's units in the order they are formed, and the pairs come out
    sorted, so the result is in peel order.  Per qualifying color,
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
        if row and row[0][0] == LOOP_PROXY:  # pair the proxy's edges last
            row = row[1:] + row[:1]
        units: List[Tuple[VertexId, VertexId]] = []
        singles: List[VertexId] = []
        for w, n in row:
            units.extend([(w, w)] * (n // 2))
            if n % 2:
                singles.append(w)
        # pair leftovers sharing a component of the color class minus y;
        # the loop proxy belongs to no component
        comp_of = component_map.get(j, {})
        by_comp: Dict[Tuple[int, int], List[VertexId]] = {}
        for w in singles:
            key = (1, 0) if w == LOOP_PROXY else (0, _find(comp_of, w))
            by_comp.setdefault(key, []).append(w)
        residue: List[VertexId] = []
        for key in sorted(by_comp):
            bucket = by_comp[key]
            units.extend(zip(bucket[::2], bucket[1::2]))
            if len(bucket) % 2:
                residue.append(bucket[-1])
        residue.sort(key=_w_order)
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


class _DetachState:
    """The working graph of a detachment, mutated in place step by step, with
    the split counts, the condition-3 failing sets and the union-finds of the
    current y (see the module docstring)."""

    def __init__(self, cg: ColoredMultigraph, eta: Dict[VertexId, int]) -> None:
        self.cg = cg
        self.eta = eta
        vertices = cg.vertices
        for v in vertices:
            if v not in eta:
                raise GraphError(f"eta is undefined at vertex {v}")
        self.next_id: VertexId = max(vertices, default=-1) + 1
        self.failing: List[Set[VertexId]] = [
            {v for v in vertices if not _even_ratio(cg.layer(j).degree(v), eta[v])}
            for j in range(1, cg.k + 1)
        ]
        self.y: Optional[VertexId] = None  # the vertex uf and deg_y belong to
        self.uf: Dict[int, Dict[VertexId, VertexId]] = {}
        self.deg_y: List[int] = []

    def _focus(self, y: VertexId) -> None:
        """Start the per-y caches afresh when the detachment moves to a new y."""
        if y != self.y:
            self.y, self.uf = y, {}
            self.deg_y = [self.cg.layer(j).degree(y) for j in range(1, self.cg.k + 1)]

    def qualifying(self) -> Set[int]:
        """condition3_colors of the working graph, read off the failing sets."""
        return {j for j, bad in enumerate(self.failing, start=1) if not bad}

    def labels(self, y: VertexId, colors: Set[int]) -> Dict[int, Dict[VertexId, int]]:
        """Per color, the union-find of the color class minus y: `_find` of a
        vertex is its label in _component_map(cg, y, colors)."""
        self._focus(y)
        out: Dict[int, Dict[VertexId, int]] = {}
        for j in sorted(colors):
            parent = self.uf.get(j)
            if parent is None:
                parent = self.uf[j] = {v: v for v in self.cg.vertices if v != y}
                for u, v, _ in self.cg.layer(j).pairs():
                    if y != u and y != v:
                        _union(parent, u, v)
            out[j] = parent
        return out

    def apply(self, rec: StepRecord) -> None:
        """Apply one step to the working graph and bring the state up to date."""
        y, v_new = rec.y, rec.v_new
        self._focus(y)
        _move(self.cg, rec)
        self.eta[y] -= 1
        self.eta[v_new] = 1
        self.next_id = v_new + 1
        # a moved edge y-w becomes v_new-w and a moved loop at y becomes an
        # edge y-v_new: either way y loses one degree and v_new gains one
        edge_moves, loop_moves = rec.moves.edge_moves, rec.moves.loop_moves
        for j, bad in enumerate(self.failing, start=1):
            moved = sum(edge_moves.get(j, {}).values()) + loop_moves.get(j, 0)
            self.deg_y[j - 1] -= moved
            for v, d, e in ((y, self.deg_y[j - 1], self.eta[y]), (v_new, moved, 1)):
                if _even_ratio(d, e):
                    bad.discard(v)
                else:
                    bad.add(v)
        # class minus y gains v_new and its moved edges v_new-w; moved loops
        # become edges y-v_new, which class minus y does not contain
        for j, parent in self.uf.items():
            parent[v_new] = v_new
            for w in rec.moves.edge_moves.get(j, {}):
                _union(parent, w, v_new)


def _even_ratio(d: int, eta: int) -> bool:
    """The condition-3 test of one vertex of degree d and split count eta."""
    return d > 0 and d % (2 * eta) == 0


def _find(parent: Dict[VertexId, VertexId], v: VertexId) -> VertexId:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union(parent: Dict[VertexId, VertexId], u: VertexId, v: VertexId) -> None:
    """Merge two components; the smaller root stays root, so roots are minima."""
    ru, rv = _find(parent, u), _find(parent, v)
    if ru < rv:
        parent[rv] = ru
    elif rv < ru:
        parent[ru] = rv


def _step(state: _DetachState, y: VertexId) -> StepRecord:
    """Detach one fresh vertex from y in the state's working graph."""
    cg = state.cg
    if y not in state.eta:
        raise GraphError(f"eta is undefined at vertex {y}")
    eta_y = state.eta[y]
    if eta_y < 2:
        raise PreconditionError(f"vertex {y} has eta={eta_y}, nothing to detach")

    fan = build_split_bipartite(cg, y)
    colors, rights, pairs = fan
    first, second = bee_coloring(fan, eta_y, upto=2)
    working = [(j, w, a + b) for (j, w, _), a, b in zip(pairs, first, second) if a + b]

    cond3 = state.qualifying()
    comp_map = state.labels(y, cond3)
    owner, refined = refine((colors, rights, working), cond3, comp_map)

    # the qualifying colors must split into exactly degree/eta units
    working_deg = [0] * (cg.k + 1)
    for j, _, n in working:
        working_deg[j] += n
    for j in sorted(cond3):
        alpha = cg.layer(j).degree(y) // eta_y
        if working_deg[j] != 2 * alpha:
            raise AssertionError(
                f"color {j}: working degree {working_deg[j]} != 2*{alpha}"
            )
        if owner.count(j) != alpha:
            raise AssertionError(f"color {j}: split into {owner.count(j)} units")

    # the pick keeps class 1; class 2 would be the rest (c = 1, no flow)
    (picked,) = bee_coloring(refined, 2, upto=1)

    v_new = state.next_id
    edge_moves: Dict[int, Dict[VertexId, int]] = {}
    loop_moves: Dict[int, int] = {}
    _, _, unit_pairs = refined
    for (label, w, _), n in zip(unit_pairs, picked):
        if not n:
            continue
        j = owner[label]
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
    state.apply(rec)
    if state.eta[y] == 1 and cg.loops(y) != 0:
        raise AssertionError(f"vertex {y} reached eta=1 with {cg.loops(y)} loops")
    return rec


def detach_step(
    cg: ColoredMultigraph, eta: AmalgamationSpec, y: VertexId
) -> Tuple[ColoredMultigraph, AmalgamationSpec, VertexId]:
    """Detach one fresh vertex from y.  Inputs are not mutated.

    The new vertex gets split count 1, y's drops by one, per-color edge
    totals are conserved, and the step relations hold between input and
    output (see verify.assert_step_relations).
    """
    state = _DetachState(cg.copy(), dict(eta.eta))
    rec = _step(state, y)
    return state.cg, AmalgamationSpec(state.eta), rec.v_new


def _check_state(state: _DetachState, y: VertexId) -> Set[int]:
    """Assert the state agrees with the from-scratch oracles; return cond3."""
    cur, cur_eta = state.cg, AmalgamationSpec(state.eta)
    qualifying = condition3_colors(cur, cur_eta)
    if state.qualifying() != qualifying:
        raise AssertionError(
            f"qualifying colors {sorted(state.qualifying())} != {sorted(qualifying)}"
        )
    oracle = _component_map(cur, y, qualifying)
    for j, parent in state.labels(y, qualifying).items():
        for w in cur.layer(j).neighbors(y):
            label = _find(parent, w)
            if oracle[j][w] != label:
                raise AssertionError(
                    f"color {j}: component label of {w} is {label}, not {oracle[j][w]}"
                )
    return qualifying


def detach_all(
    cg: ColoredMultigraph,
    eta: AmalgamationSpec,
    check: bool = False,
) -> Tuple[ColoredMultigraph, DetachmentMap, DetachmentTrace]:
    """Fully detach: split every vertex w into eta(w) vertices.

    Returns the loopless detached graph, the vertex map onto the input
    graph, and the step trace.  Inputs are not mutated.  With check=True
    every step additionally asserts that the incremental state agrees with
    condition3_colors and _component_map, the step relations and, for
    qualifying colors, preservation of evenness ratios and component counts
    (slower; meant for tests).
    """
    eta.validate_against(cg)
    if check:
        from .verify import assert_step_relations

    state = _DetachState(cg.copy(), dict(eta.eta))
    cur = state.cg
    fibers = {w: [w] for w in cg.vertices}
    trace = DetachmentTrace()
    expected_steps = eta.total_splits()

    # new vertices get eta 1, so the lowest pending vertex finishes before
    # the next host vertex starts
    for y in [v for v in cg.vertices if eta.value(v) >= 2]:
        while state.eta[y] >= 2:
            if check:
                before, before_eta = cur.copy(), AmalgamationSpec(dict(state.eta))
                qualifying = _check_state(state, y)
                omega_before = {j: cur.layer(j).component_count() for j in qualifying}
            rec = _step(state, y)
            if check:
                ok, witness = assert_step_relations(before, cur, y, rec.v_new, before_eta)
                if not ok:
                    raise AssertionError(f"step relation violated: {witness}")
                still = condition3_colors(cur, AmalgamationSpec(state.eta))
                for j in sorted(qualifying):
                    if j not in still:
                        raise AssertionError(f"color {j} lost its evenness ratios")
                    if cur.layer(j).component_count() != omega_before[j]:
                        raise AssertionError(f"color {j} changed component count")
            fibers[y].append(rec.v_new)
            trace.steps.append(rec)

    if len(trace.steps) != expected_steps:
        raise AssertionError(
            f"took {len(trace.steps)} steps, expected {expected_steps}"
        )
    if any(cur.loops(v) for v in cur.vertices):
        raise AssertionError("detached graph still carries loops")
    psi = DetachmentMap.from_fibers(fibers)
    psi.validate(eta)
    return cur, psi, trace
