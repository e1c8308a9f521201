"""Single-vertex detachment engine for edge-colored multigraphs.

One step detaches a fresh vertex from a chosen vertex y whose split count
is still at least 2.  The edges (and loops) to hand over are selected
through two auxiliary bipartite colorings:

  * a fan graph with one left vertex per color and right side N(y) plus a
    loop proxy (each loop contributes two proxy edges) is colored balanced,
    equitable and equalized with eta(y) classes, of which only classes 1
    and 2 are peeled: they form the working subgraph, and since classes are
    peeled in order and class j depends only on the edges classes 1..j-1
    left, they are exactly the first two classes of the full coloring; at
    eta(y) = 2 they are the whole fan, so the step colors it with one
    class, which a peel with c = 1 returns without a circulation,
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
fan is peeled as the bee skeleton of y's fan (see below), whose left
degrees also give the condition-3 check each color's degree at y; the fan
coloring returns classes 1 and 2 as multiplicity vectors over the fan's
pairs, and their sum (at eta(y) = 2 the one class) is the working subgraph
on the same pairs; `refine` reads those counts off the fan's integer pairs
and builds the pick's skeleton in node numbers, and the pick peels only
class 1, which is the moves.  A double unit, whose two edge ends go to one
right vertex, is settled in `refine` and left out of the pick.  With c = 2
each of its windows is fixed: its pair and its source arc carry 2 and must
get exactly 1, so it moves exactly one edge end (or one loop), and its
node is isolated with excess 0.  Without it, its right vertex and the
total each lose 2, so their floors and ceilings both drop by 1 at the same
parity: every other excess and live arc and the node order are kept, the
search finds the same paths and the flows are the same.
The loop proxy (-1, the fan's right vertex 0) sorts below every vertex
id, so it is the first right vertex of every graph the peel reads and
heads a color's row; `refine` takes its multiplicity off that front once
and pairs it after the vertices: its double units after theirs, its
single after the sorted residue.

The fan (`_LiveFan`) holds each color's pairs as one row, read off y's
sorted rows once per y (`build_split_bipartite`), and every step peels
the skeleton it emits.  It is kept live across y's steps, since a step
hands the new vertex only edge ends at y: between two steps at y the fan
changes only at that step's moves.  A moved edge y-w lowers pair (j, w);
a moved loop lowers j's proxy pair by 2 and adds one to pair (j, v_new),
and v_new, the largest id, becomes the last right vertex.  A pair that
drops to 0 keeps its place in the live fan, and each step's skeleton
leaves it out with one `compress`, so every peel sees the pairs of a
fresh build in its order.  Right vertices are never renumbered: one that y has lost
stays an isolated node, whose sink arc has window [0, 0], so it has no
room and the node has excess 0.  The search never reaches it, and every
other node keeps its relative order and the order of its live arcs, so
the flows are those of a fresh build.  The fan is built at the first step
at each y and kept until y's last step, which drops it, so after its one
step a vertex with eta = 2 holds none.

Repeating until every split count reaches 1 yields a loopless detachment
whose degrees, per-color degrees, intra- and cross-fiber multiplicities all
sit in the floor/ceiling window of their fair shares, with component counts
preserved for the condition-3 colors.  Everything is deterministic: lowest
vertex id first, lowest color first.

`detach_all` (and `detach_step`, on a copy of its inputs) drives one mutable
state: a working copy of the graph that each step's record is applied to in
place through `apply_moves`, the split counts, the next vertex id, the
condition-3 colors, per condition-3 color a union-find over the color class
minus y, and y's live fan.  `apply_moves` is the one path from a step
record to a graph; a trace replays as its records applied in order.

The condition-3 colors are computed once, because no fair step changes
them.  A step changes degrees only at y and the new vertex: a moved edge y-w
becomes v_new-w, and a moved loop at y becomes an edge y-v_new.  Say y has
degree d in a color and split count eta, and the step gives the new vertex m
of those edge ends.  B4 puts both m and (d - m)/(eta - 1) in the window
floor(d/eta)..ceil(d/eta), which holds at most one even integer.  So both
are positive even integers exactly when m = (d - m)/(eta - 1) = d/eta is
even, that is, when d > 0 and 2*eta divides d: a color passes the test
after a step exactly when it passed before.

While y stays the same, the class minus y only grows: a moved edge y-w
becomes v_new-w, which joins v_new to w's component, and a moved loop
becomes an edge y-v_new, which the class minus y does not contain.  So the
union-find (roots are smallest members, the labels `refine` needs) is built
once per y and color and then takes one union per moved edge (Tarjan,
"Efficiency of a good but not linear set union algorithm", JACM 1975).
`condition3_colors`, `_component_map` and `build_split_bipartite` recompute
the same facts from scratch; they are the oracles of
`detach_all(check=True)`, which reads each of them once per step.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress
from operator import add, itemgetter
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .bee import _Skeleton, bee_coloring
from .errors import GraphError, PreconditionError
from .multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    VertexId,
    _Record,
)

# right-side stand-in for loops at y; sorts below all real vertex ids, so it
# heads every row of the fan, and refine pairs its edges after the vertices'
LOOP_PROXY: VertexId = -1


class MoveSet(NamedTuple):
    """Per-color edge moves of one step: counts by neighbor, plus loop moves."""

    edge_moves: Dict[int, Dict[VertexId, int]]
    loop_moves: Dict[int, int]

    def moved_total(self) -> int:
        return sum(sum(d.values()) for d in self.edge_moves.values()) + sum(
            self.loop_moves.values()
        )


class StepRecord(NamedTuple):
    """Everything needed to replay one detachment step."""

    y: VertexId
    v_new: VertexId
    eta_y_before: int
    moves: MoveSet


class DetachmentTrace(_Record):
    __slots__ = ("steps",)
    steps: List[StepRecord]

    def __init__(self, steps: Optional[List[StepRecord]] = None) -> None:
        super().__init__([] if steps is None else steps)


def apply_moves(cg: ColoredMultigraph, rec: StepRecord) -> None:
    """Apply one recorded step to cg in place; the one path from a step
    record to a graph, which the engine's own steps take too."""
    cg.split_off(rec.y, rec.v_new, rec.moves.edge_moves, rec.moves.loop_moves)


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


def build_split_bipartite(cg: ColoredMultigraph, y: VertexId) -> _LiveFan:
    """Fan graph: m(c_j, u) = per-color multiplicity to u, m(c_j, proxy) = 2*loops.

    Its right labels are the loop proxy (-1) and then y's neighbors
    ascending: color j is node j + 1, the proxy node k + 2.  Read straight
    off y's sorted rows, so each color's pairs come out in peel order with
    the proxy first, and the node degrees are summed on the way.  The
    engine builds the fan once per y and keeps it live across y's steps;
    this builder is also the oracle that `detach_all(check=True)` compares
    the live fan with.
    """
    rows = cg.rows_at(y)
    fan = _LiveFan(y, len(rows), [LOOP_PROXY, *sorted({u for _, row in rows for u, _ in row})])
    node, deg = fan.node, fan.deg
    for a, (nl, row) in enumerate(rows, 2):
        if nl:
            row = [(LOOP_PROXY, 2 * nl), *row]
        ends, mult = fan.ends[a - 1], fan.mult[a - 1]
        for u, n in row:
            b = node[u]
            ends.append((a, b))
            mult.append(n)
            deg[a] += n
            deg[b] += n
    return fan


def refine(
    fan: _Skeleton,
    working: List[int],
    rights: List[VertexId],
    cond3: Set[int],
    component_map: Dict[int, Dict[VertexId, int]],
) -> Tuple[List[int], _Skeleton, List[Tuple[int, int]]]:
    """Split condition-3 color vertices of the working subgraph into degree-2 units.

    Pairing is greedily maximal: first as many units as possible take two
    parallel edges to one right vertex, then as many leftovers as possible
    pair within one component of their color class minus y, then whatever
    remains pairs in ascending vertex order, loop proxy last.  `working` is
    the working subgraph's multiplicity on each of the fan's pairs, and
    `rights` the fan's right labels.  Per condition-3 color,
    `component_map` is a union-find whose roots (`_find`) are the labels.

    Returns (owner, pick, settled).  The units that pair parallel edges
    are double units, settled without the pick (see the module docstring):
    `settled` lists them as (color, r), r the fan's right vertex (the loop
    proxy at r = 0), in the order they are formed, and each moves one edge
    end (a loop at r = 0).  Every other unit, and every color outside
    cond3 whole, is a left node of the pick's skeleton: left node i + 2 is
    of color owner[i], in color order and each color's units in the order
    they are formed, and right node r + len(owner) + 2 is the fan's right
    vertex r.  Its pairs are emitted sorted, so it is in peel order, and
    its node degrees are summed on the way.
    """
    k = fan.n_left
    rows: List[List[Tuple[int, int]]] = [[] for _ in range(k + 1)]
    for (a, b), n in zip(compress(fan.ends, working), filter(None, working)):
        rows[a - 1].append((b - k - 2, n))
    owner: List[int] = []
    ends: List[Tuple[int, int]] = []
    mult: List[int] = []
    left_deg: List[int] = []
    right_deg = [0] * len(rights)
    settled: List[Tuple[int, int]] = []
    for j in range(1, k + 1):
        row = rows[j]
        if j not in cond3:
            label = len(owner)
            owner.append(j)
            deg = 0
            for r, n in row:
                ends.append((label, r))
                mult.append(n)
                right_deg[r] += n
                deg += n
            left_deg.append(deg)
            continue
        # the loop proxy (r = 0) heads the row and pairs last: it belongs to
        # no component of the color class minus y
        proxy = row[0][1] if row and row[0][0] == 0 else 0
        deg = proxy
        singles: List[int] = []
        for r, n in row[1:] if proxy else row:
            deg += n
            settled += [(j, r)] * (n // 2)
            if n % 2:
                singles.append(r)
                right_deg[r] += 1
        if deg % 2:
            raise AssertionError(
                f"color {j} has odd working degree {deg}; the fan coloring is broken"
            )
        settled += [(j, 0)] * (proxy // 2)
        units: List[Tuple[int, int]] = []
        residue = singles  # ascending
        if len(singles) > 2:  # fewer pair the same whatever their components
            # pair leftovers sharing a component of the color class minus y
            comp_of = component_map.get(j, {})
            by_comp: Dict[int, List[int]] = {}
            for r in singles:
                by_comp.setdefault(_find(comp_of, rights[r]), []).append(r)
            residue = []
            for key in sorted(by_comp):
                bucket = by_comp[key]
                units.extend(zip(bucket[::2], bucket[1::2]))
                if len(bucket) % 2:
                    residue.append(bucket[-1])
            residue.sort()
        if proxy % 2:
            residue.append(0)
            right_deg[0] += 1
        units.extend(zip(residue[::2], residue[1::2]))
        left_deg += [2] * len(units)
        for a, b in units:
            label = len(owner)
            owner.append(j)
            if a > b:  # the proxy, last in the pairing order, sorts first here
                a, b = b, a
            ends += [(label, a), (label, b)]
            mult += [1, 1]
    right = len(owner) + 2
    ends = [(u + 2, r + right) for u, r in ends]
    return owner, _Skeleton(len(owner), ends, mult, [0, 0, *left_deg, *right_deg]), settled


def _component_map(
    cg: ColoredMultigraph, y: VertexId, colors: Set[int]
) -> Dict[int, Dict[VertexId, int]]:
    """For each color: component label (smallest member) of each vertex != y
    in that color class with y removed."""
    out: Dict[int, Dict[VertexId, int]] = {}
    for j in sorted(colors):
        layer = cg.layer(j)
        rest = layer.copy()
        for u, n in layer.row(y):
            rest.remove_edges(y, u, n)
        labels = rest.component_labels()  # y is isolated in rest: drop it
        del labels[y]
        out[j] = labels
    return out


class _LiveFan:
    """y's fan, built by `build_split_bipartite` and kept live across y's
    steps (see the module docstring).

    Per color j, its pairs in row order: `ends[j]` holds their nodes,
    sorted, and `mult[j]` their multiplicities; a pair whose multiplicity
    drops to 0 keeps its place at 0.  `rights` are the right labels, a
    label that y has lost kept in place, `node` their nodes and `deg` the
    degree of every node, as in the fan's skeleton.
    """

    __slots__ = ("y", "rights", "node", "ends", "mult", "deg")

    def __init__(self, y: VertexId, k: int, rights: List[VertexId]) -> None:
        """A fan of k colors without pairs, on the right labels `rights`."""
        self.y, self.rights = y, rights
        self.node = {w: i for i, w in enumerate(rights, k + 2)}
        self.deg = [0] * (k + 2 + len(rights))
        self.ends = [[] for _ in range(k + 1)]
        self.mult = [[] for _ in range(k + 1)]

    def skeleton(self) -> _Skeleton:
        """A fresh skeleton of the live pairs, the dead ones compacted out:
        the pairs and their order are those of a fresh build, and the right
        nodes y has lost are isolated, with degree 0."""
        mult = list(chain.from_iterable(self.mult))
        ends = list(compress(chain.from_iterable(self.ends), mult))
        return _Skeleton(len(self.mult) - 1, ends, list(filter(None, mult)), list(self.deg))

    def apply(self, rec: StepRecord) -> None:
        """Bring the fan past one step at y, touching only the moved colors:
        a moved edge y-w lowers pair (j, w), a moved loop lowers j's proxy
        pair, which heads j's row, by 2 and adds 1 to pair (j, v_new), whose
        right node, v_new having the largest id, comes last."""
        moves, v_new = rec.moves, rec.v_new
        deg, node, ends, mult = self.deg, self.node, self.ends, self.mult
        for j, row in moves.edge_moves.items():
            ends_j, mult_j = ends[j], mult[j]
            for w, n in row.items():
                b = node[w]
                mult_j[bisect_left(ends_j, (j + 1, b))] -= n
                deg[b] -= n
            deg[j + 1] -= sum(row.values())
        if moves.loop_moves:
            proxy = len(mult) + 1  # k + 2
            b = node[v_new] = len(deg)
            self.rights.append(v_new)  # in place: a step reads its labels before it applies
            deg.append(0)
            for j, nl in moves.loop_moves.items():
                mult_j = mult[j]
                mult_j[0] -= 2 * nl
                mult_j.append(nl)
                ends[j].append((j + 1, b))
                deg[j + 1] -= nl
                deg[proxy] -= 2 * nl
                deg[b] += nl


class _DetachState:
    """The working graph of a detachment, mutated in place step by step, with
    the split counts, the condition-3 colors, fixed for the whole detachment,
    their union-finds over the color class minus the current y and y's live
    fan (see the module docstring).  Both callers check eta against the graph
    with `validate_against` first."""

    def __init__(self, cg: ColoredMultigraph, eta: Dict[VertexId, int]) -> None:
        self.cg = cg
        self.eta = eta
        self.next_id: VertexId = max(cg.vertices, default=-1) + 1
        self.cond3 = condition3_colors(cg, AmalgamationSpec(eta))
        self.y: Optional[VertexId] = None  # the vertex uf belongs to
        self.uf: Dict[int, Dict[VertexId, VertexId]] = {}
        self.fan: Optional[_LiveFan] = None  # kept until its y's last step

    def labels(self, y: VertexId) -> Dict[int, Dict[VertexId, VertexId]]:
        """Per condition-3 color, the union-find of the color class minus y:
        `_find` of a vertex is its label in _component_map(cg, y, cond3)."""
        if y != self.y:
            self.y = y
            # each vertex points straight at its component's minimum, which
            # is a union-find whose roots are minima
            self.uf = {
                j: self.cg.layer(j).component_labels(y) for j in sorted(self.cond3)
            }
        return self.uf

    def fan_at(self, y: VertexId) -> Tuple[_Skeleton, List[VertexId]]:
        """The skeleton of y's fan to peel and its right labels; a fan is built
        unless live, and kept until `apply` drops it after y's last step."""
        live = self.fan
        if live is None or live.y != y:
            live = self.fan = build_split_bipartite(self.cg, y)
        return live.skeleton(), live.rights

    def apply(self, rec: StepRecord) -> None:
        """Apply one step to the working graph and bring the state up to date;
        `labels(rec.y)` and `fan_at(rec.y)` must have been called for this y."""
        y, v_new = rec.y, rec.v_new
        apply_moves(self.cg, rec)
        self.eta[y] -= 1
        self.eta[v_new] = 1
        self.next_id = v_new + 1
        if self.fan is not None:
            if self.eta[y] >= 2:
                self.fan.apply(rec)
            else:  # no further step at y
                self.fan = None
        # class minus y gains v_new and its moved edges v_new-w; moved loops
        # become edges y-v_new, which class minus y does not contain
        for j, parent in self.uf.items():
            parent[v_new] = v_new
            for w in rec.moves.edge_moves.get(j, {}):
                _union(parent, w, v_new)


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

    fan, rights = state.fan_at(y)
    k = cg.k
    fan_deg = fan.deg[1 : k + 2]  # color j's degree at y, read before the peel
    if eta_y == 2:  # classes 1 and 2 are the whole fan: one c = 1 peel, no flow
        (working,) = bee_coloring(fan, 1)
    else:
        first, second = bee_coloring(fan, eta_y, upto=2)
        working = list(map(add, first, second))

    cond3 = state.cond3
    owner, pick, settled = refine(fan, working, rights, cond3, state.labels(y))

    # the condition-3 colors must split into exactly degree/eta units; each
    # unit takes two working edge ends, so the working degree is 2 * that
    units = [0] * (k + 1)
    for j in owner:
        units[j] += 1
    for j, _ in settled:
        units[j] += 1
    for j in sorted(cond3):
        alpha = fan_deg[j] // eta_y
        if units[j] != alpha:
            raise AssertionError(f"color {j}: split into {units[j]} units, not {alpha}")

    # the pick keeps class 1; class 2 would be the rest (c = 1, no flow)
    (picked,) = bee_coloring(pick, 2, upto=1)

    # a settled unit moves one edge end; a color's settled units were formed
    # before its other units, and the sort by color is stable
    right = len(owner) + 2
    moved = [(j, r, 1) for j, r in settled]
    moved += [(owner[a - 2], b - right, n) for (a, b), n in zip(pick.ends, picked) if n]
    moved.sort(key=itemgetter(0))
    v_new = state.next_id
    edge_moves: Dict[int, Dict[VertexId, int]] = {}
    loop_moves: Dict[int, int] = {}
    for j, r, n in moved:
        if r == 0:
            loop_moves[j] = loop_moves.get(j, 0) + n
        else:
            per_w = edge_moves.setdefault(j, {})
            w = rights[r]
            per_w[w] = per_w.get(w, 0) + n

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

    eta must pass `validate_against(cg)`, as for `detach_all`.  The new
    vertex gets split count 1, y's drops by one, per-color edge totals are
    conserved, and the step relations hold between input and output (see
    verify.assert_step_relations).
    """
    eta.validate_against(cg)
    state = _DetachState(cg.copy(), dict(eta.eta))
    rec = _step(state, y)
    return state.cg, AmalgamationSpec(state.eta), rec.v_new


def _check_state(state: _DetachState, y: VertexId) -> None:
    """Assert the labels at y and the live fan agree with their oracles."""
    cur = state.cg
    oracle = _component_map(cur, y, state.cond3)
    for j, parent in state.labels(y).items():
        for w in cur.layer(j).neighbors(y):
            label = _find(parent, w)
            if oracle[j][w] != label:
                raise AssertionError(
                    f"color {j}: component label of {w} is {label}, not {oracle[j][w]}"
                )
    live = state.fan
    if live is not None:
        if _by_label(live) != _by_label(build_split_bipartite(cur, live.y)):
            raise AssertionError(f"live fan of vertex {live.y} differs from a fresh build")


def _by_label(fan: _LiveFan) -> tuple:
    """A fan's pairs as (color, right label, multiplicity) in order, a dead
    pair left out, its color degrees and its right labels with their
    degrees, an isolated right vertex left out unless it is the loop proxy,
    which a fresh build always lists."""
    k, rights = len(fan.mult) - 1, fan.rights
    ends, mult = chain.from_iterable(fan.ends), chain.from_iterable(fan.mult)
    pairs = [(a - 1, rights[b - k - 2], n) for (a, b), n in zip(ends, mult) if n]
    right = [(w, d) for w, d in zip(rights, fan.deg[k + 2 :]) if d or w == LOOP_PROXY]
    return pairs, fan.deg[: k + 2], right


def detach_all(
    cg: ColoredMultigraph,
    eta: AmalgamationSpec,
    check: bool = False,
) -> Tuple[ColoredMultigraph, DetachmentMap, DetachmentTrace]:
    """Fully detach: split every vertex w into eta(w) vertices.

    Returns the loopless detached graph, the vertex map onto the input
    graph, and the step trace.  Inputs are not mutated.  With check=True
    (slower; meant for tests) each condition-3 color's components are
    counted once, before the first step, and every step additionally
    asserts: before it, that the union-find labels at y and the live fan
    agree with _component_map and a fresh build_split_bipartite; after it,
    the step relations, that condition3_colors still gives the colors the
    state fixed, and that each of them kept its component count.
    """
    eta.validate_against(cg)
    state = _DetachState(cg.copy(), dict(eta.eta))
    cur = state.cg
    if check:
        from .verify import assert_step_relations

        omega = {j: cur.layer(j).component_count() for j in state.cond3}
    fibers = {w: [w] for w in cg.vertices}
    trace = DetachmentTrace()
    expected_steps = eta.total_splits()

    # new vertices get eta 1, so the lowest pending vertex finishes before
    # the next host vertex starts
    for y in [v for v in cg.vertices if eta.value(v) >= 2]:
        while state.eta[y] >= 2:
            if check:
                before, before_eta = cur.copy(), AmalgamationSpec(dict(state.eta))
                _check_state(state, y)
            rec = _step(state, y)
            if check:
                ok, witness = assert_step_relations(before, cur, y, rec.v_new, before_eta)
                if not ok:
                    raise AssertionError(f"step relation violated: {witness}")
                cond3 = condition3_colors(cur, AmalgamationSpec(state.eta))
                if cond3 != state.cond3:
                    raise AssertionError(
                        f"condition-3 colors {sorted(state.cond3)} != {sorted(cond3)}"
                    )
                for j in sorted(cond3):
                    if cur.layer(j).component_count() != omega[j]:
                        raise AssertionError(f"color {j} changed component count")
            fibers[y].append(rec.v_new)
            trace.steps.append(rec)

    if len(trace.steps) != expected_steps:
        raise AssertionError(
            f"took {len(trace.steps)} steps, expected {expected_steps}"
        )
    if not all(cur.layer(j).is_loopless() for j in range(1, cur.k + 1)):
        raise AssertionError("detached graph still carries loops")
    psi = DetachmentMap(fibers)
    psi.validate(eta)
    return cur, psi, trace
