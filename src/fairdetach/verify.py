"""Independent checkers for every contract in the package.

The fairness checkers are tables: each reads its counts once, then tests
rows (count, scale, numerator, denominator, witness fields) against one
exact integer window, scale*floor(num/den) <= count <= scale*ceil(num/den),
and formats the witness of its first failing row only.  Counts are indexed
[0 = all colors, 1..k]; a cell with no edges reads 0.

The detachment checker re-derives nothing from the engine.  One pass over
each graph counts degree by vertex, multiplicity by pair (min, max) and
loops by vertex.  A1-A6 are rows over those cells: fiber vertices against
their host's degree (A1, A2), fiber pairs against their host's loops (A3,
A4) and pairs across two fibers against the hosts' multiplicity (A5, A6).
Rows run by host, color, then fiber position, so each failed check reports
the smallest counterexample in vertex/color order.

The step relations read three stars (a vertex's loops, degree and
multiplicity toward each neighbor): y's before and after the step and the
new vertex's after it.  Rows run over all colors, then each color: loops at
y (B1, B2), the degrees of y and the new vertex (B3, B4), m(y, v) and
m(v_new, v) for each v ascending that is a neighbor of y before or after the
step or of the new vertex (B5, B6), and m(y, v_new) against y's loops
(B5(iii), B6(iii)).  Then, per color, folding the new vertex back into y
must give the graph before the step ("amalgamation").  The trace checker
replays a trace in place on its own copy of the start graph and reads each
host's star after every step; its rows are, by host, the degree ratio and
m(w, vr) against the loops for each offshoot vr, then m(w, z) for host
pairs w < z.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .errors import GraphError

if TYPE_CHECKING:
    from .hamilton import GddParams
from .multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    Multigraph,
    VertexId,
    _Record,
)

CONDITION_ORDER = (
    "loopless",
    "conservation",
    "A1",
    "A2",
    "A3",
    "A4",
    "A5",
    "A6",
    "A7",
)


class DetachmentReport(_Record):
    """Per-condition verdicts; a verdict's witness is its first counterexample."""

    __slots__ = ("verdicts",)
    verdicts: Dict[str, Tuple[bool, Optional[str]]]

    def __init__(self, verdicts: Optional[Dict[str, Tuple[bool, Optional[str]]]] = None) -> None:
        super().__init__({} if verdicts is None else verdicts)

    def record(self, name: str, ok: bool, witness: Optional[str] = None) -> None:
        self.verdicts[name] = (ok, witness)

    @property
    def ok(self) -> bool:
        return all(v[0] for v in self.verdicts.values())

    def first_failure(self) -> Optional[Tuple[str, Optional[str]]]:
        for name in CONDITION_ORDER:
            if name in self.verdicts and not self.verdicts[name][0]:
                return name, self.verdicts[name][1]
        return None

    def lines(self) -> List[str]:
        out = []
        for name in CONDITION_ORDER:
            if name not in self.verdicts:
                continue
            ok, witness = self.verdicts[name]
            mark = "ok" if ok else "FAIL"
            suffix = "" if ok or witness is None else f"  [{witness}]"
            out.append(f"{name}: {mark}{suffix}")
        return out


def _counts(cg: ColoredMultigraph) -> Tuple[List[Dict], List[Dict], List[Dict]]:
    """Degree, multiplicity and loop tables indexed [0 = all colors, 1..k]."""
    deg, mult, loops = ([{} for _ in range(cg.k + 1)] for _ in range(3))
    for j in range(1, cg.k + 1):
        layer, dj, mj, lj = cg.layer(j), deg[j], mult[j], loops[j]
        for u, v, m in layer.pairs():
            mj[u, v] = m
            dj[u] = dj.get(u, 0) + m
            dj[v] = dj.get(v, 0) + m
        for v, n in layer.loop_items():
            lj[v] = n
            dj[v] = dj.get(v, 0) + 2 * n
        for table in (deg, mult, loops):
            total = table[0]
            for key, n in table[j].items():
                total[key] = total.get(key, 0) + n
    return deg, mult, loops


def _ratio_ok(a: int, n1: int, b: int, n0: int) -> bool:
    """approx(a/n1, b/n0) in integers: n1*floor(b/n0) <= a <= n1*ceil(b/n0);
    n1 and n0 must be positive."""
    return n1 * (b // n0) <= a <= n1 * -(-b // n0)


def _first_failure(rows):
    """The first row (count, scale, numerator, denominator, *fields) whose
    count leaves scale times the window of numerator/denominator, or None."""
    for row in rows:
        if not _ratio_ok(row[0], row[1], row[2], row[3]):
            return row
    return None


def _key(u: VertexId, v: VertexId) -> Tuple[VertexId, VertexId]:
    return (u, v) if u < v else (v, u)


def verify_detachment(
    h: ColoredMultigraph,
    eta: AmalgamationSpec,
    psi: DetachmentMap,
    g: ColoredMultigraph,
) -> DetachmentReport:
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
    hdeg, hmult, hloops = _counts(h)
    gdeg, gmult, gloops = _counts(g)
    every, each = (0,), range(1, h.k + 1)

    report = DetachmentReport()
    bad_loop = min(gloops[0], default=None)
    report.record(
        "loopless",
        bad_loop is None,
        None if bad_loop is None else f"loops remain at vertex {bad_loop}",
    )
    lost = [
        f"color {j}: {nh} edges became {ng}"
        for j in each
        if (nh := h.layer(j).edge_count()) != (ng := g.layer(j).edge_count())
    ]
    report.record("conservation", not lost, lost[0] if lost else None)

    hosts = h.vertices
    size = {w: eta.value(w) for w in hosts}
    fibers = {w: psi.fiber(w) for w in hosts}
    # pair cells in list order, each block with the host cell it shares: the
    # fiber pairs a < b by position over the loops at w, and the pairs across
    # the fibers of hosts w < z over m(w, z); a block keeps its fibers and
    # makes its cells as its rows are read, so no list grows with eta squared
    inner = [
        (w, size[w] * (size[w] - 1) // 2, combinations, (fibers[w], 2))
        for w in hosts
        if size[w] >= 2
    ]
    cross = [
        ((w, z), size[w] * size[z], product, (fibers[w], fibers[z]))
        for w, z in combinations(hosts, 2)
    ]

    def degree_rows(colors):
        return (
            (gdeg[j].get(u, 0), 1, hdeg[j].get(w, 0), size[w], j, u, w)
            for w in hosts
            for j in colors
            for u in fibers[w]
        )

    def pair_rows(blocks, host, colors):
        return (
            (gmult[j].get(_key(u, v), 0), 1, host[j].get(at, 0), den, j, u, v, at)
            for at, den, cells, args in blocks
            for j in colors
            for u, v in cells(*args)
        )

    for name, rows, template in (
        ("A1", degree_rows(every), "d({1})={c} not within d({2})/eta = {n}/{d}"),
        ("A2", degree_rows(each), "color {0}: d({1})={c} not within {n}/{d}"),
        ("A3", pair_rows(inner, hloops, every), "m({1},{2})={c} not within {n}/{d}"),
        (
            "A4",
            pair_rows(inner, hloops, each),
            "color {0}: m({1},{2})={c} not within {n}/{d}",
        ),
        (
            "A5",
            pair_rows(cross, hmult, every),
            "m({1},{2})={c} not within m({3[0]},{3[1]})/eta*eta = {n}/{d}",
        ),
        (
            "A6",
            pair_rows(cross, hmult, each),
            "color {0}: m({1},{2})={c} not within {n}/{d}",
        ),
    ):
        bad = _first_failure(rows)
        witness = None
        if bad is not None:
            witness = template.format(*bad[4:], c=bad[0], n=bad[2], d=bad[3])
        report.record(name, bad is None, witness)

    # component preservation is promised for colors whose degree/eta ratio is
    # a positive even integer everywhere; an isolated vertex would split into
    # several isolated vertices, so zero ratios carry no promise
    promised = [
        j
        for j in each
        if all((d := hdeg[j].get(w, 0)) > 0 and d % (2 * size[w]) == 0 for w in hosts)
    ]
    split = [
        f"color {j}: components {wh} became {wg}"
        for j in promised
        if (wh := h.layer(j).component_count()) != (wg := g.layer(j).component_count())
    ]
    report.record("A7", not split, split[0] if split else None)
    return report


def verify_ham_decomposition(
    host: Multigraph, cycles: List[List[VertexId]]
) -> Tuple[bool, Optional[str]]:
    """True iff every cycle is a spanning cycle of host's vertex set and the
    multiset union of cycle edges is exactly host.

    Cycles are closed vertex sequences; a 2-vertex sequence means a pair of
    parallel edges.  Loops in the host always fail.
    """
    verts = host.vertices
    if any(host.loops(v) for v in verts):
        return False, "host carries loops"
    used: Dict[Tuple[VertexId, VertexId], int] = {}
    for idx, cyc in enumerate(cycles):
        if len(cyc) != len(verts) or sorted(cyc) != verts:
            return False, f"cycle {idx} is not a spanning permutation"
        if len(cyc) < 2:
            return False, f"cycle {idx} is shorter than 2"
        # a permutation of at least 2 distinct vertices: no two neighbors are equal
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            key = (min(a, b), max(a, b))
            used[key] = used.get(key, 0) + 1
    want = {(u, v): n for u, v, n in host.pairs()}
    if used != want:
        for key in sorted(set(used) | set(want)):
            if used.get(key, 0) != want.get(key, 0):
                return False, (
                    f"pair {key}: cycles use {used.get(key, 0)}, "
                    f"host has {want.get(key, 0)}"
                )
    return True, None


def is_gdd(
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
    part_of = {v: i for i, part in enumerate(partition) for v in part}
    lam = (params.lambda2, params.lambda1)  # indexed by "same part"
    want = [
        (u, v, n)
        for u, v in combinations(g.vertices, 2)
        if (n := lam[part_of[u] == part_of[v]])
    ]
    return g.is_loopless() and g.pairs() == want


def _folded_cells(g: Multigraph, y: VertexId, v_new: VertexId) -> Dict[Tuple[int, int], int]:
    """g's multiplicity by pair (min, max) and loops at v by (v, v), with
    v_new read as y, so that edges y-v_new count as loops at y."""
    cells: Dict[Tuple[int, int], int] = {}
    for u, v, m in g.pairs() + [(v, v, n) for v, n in g.loop_items()]:
        key = _key(y if u == v_new else u, y if v == v_new else v)
        cells[key] = cells.get(key, 0) + m
    return cells


def _star(
    cg: ColoredMultigraph, x: VertexId
) -> Tuple[List[int], List[int], Dict[VertexId, List[int]]]:
    """x's loops, degree and multiplicity toward each neighbor, each count
    indexed [0 = all colors, 1..k]."""
    width = cg.k + 1
    loops, degree = [0] * width, [0] * width
    row: Dict[VertexId, List[int]] = {}
    for j, (nl, pairs) in enumerate(cg.rows_at(x), 1):
        loops[j], degree[j] = nl, 2 * nl + sum(m for _, m in pairs)
        for v, m in pairs:
            row.setdefault(v, [0] * width)[j] = m
    for counts in (loops, degree, *row.values()):
        counts[0] = sum(counts)
    return loops, degree, row


# the witness of each step relation after "name: "; v is the row's vertex,
# y the split vertex, new the new vertex, j the color and c the count
_STEP_WITNESS = {
    "B1": "loops at {v}: {c}",
    "B2": "color {j} loops at {v}",
    "B3(i)": "degree of {v}",
    "B3(ii)": "degree of {v}",
    "B4(i)": "color {j} degree of {v}",
    "B4(ii)": "color {j} degree of {v}",
    "B5(i)": "m({y},{v})",
    "B5(ii)": "m({new},{v})",
    "B6(i)": "color {j} m({y},{v})",
    "B6(ii)": "color {j} m({new},{v})",
    "B5(iii)": "m({y},{v})",
    "B6(iii)": "color {j} m({y},{v})",
}


def assert_step_relations(
    h_before: ColoredMultigraph,
    h_after: ColoredMultigraph,
    y: VertexId,
    v_new: VertexId,
    eta_before: AmalgamationSpec,
) -> Tuple[bool, Optional[str]]:
    """Check the one-step fairness relations between consecutive graphs.

    The new vertex's degrees and multiplicities, and y's remaining loops,
    degrees and multiplicities, must all sit in the floor/ceiling window of
    their fair shares of what y carried before the step, and amalgamating
    the new vertex back into y must give the graph before the step.
    """
    n0 = eta_before.value(y)
    n1 = n0 - 1
    if n1 < 1:
        return False, f"eta({y}) was {n0}, below the step precondition"
    if h_after.k != h_before.k:
        raise GraphError(f"color counts differ: {h_before.k} vs {h_after.k}")
    loops_b, deg_b, row_b = _star(h_before, y)
    loops_a, deg_a, row_a = _star(h_after, y)
    _, deg_new, row_new = _star(h_after, v_new)
    pairs2 = n0 * (n0 - 1) // 2
    every = range(h_before.k + 1)
    absent = [0] * len(every)

    # rows (count, scale, numerator, denominator, name, color, vertex): of
    # eta(y) = n0 shares, y keeps n1 of its degree and multiplicities and the
    # new vertex gets one; y keeps n1 - 1 shares of its loops, and y-v_new
    # gets n1 of the loops' n0(n0-1)/2 shares
    def rows():
        for j in every:
            yield loops_a[j], 1, loops_b[j] * (n1 - 1), n0, "B2" if j else "B1", j, y
        for j in every:
            yield deg_a[j], n1, deg_b[j], n0, "B4(i)" if j else "B3(i)", j, y
            yield deg_new[j], 1, deg_b[j], n0, "B4(ii)" if j else "B3(ii)", j, v_new
        # every v but y and v_new that a star reaches: where m0(y, v) = 0,
        # m(y, v) and m(v_new, v) must be 0 too
        reached = (row_b.keys() | row_a.keys() | row_new.keys()).difference((y, v_new))
        for v in sorted(reached):
            before = row_b.get(v, absent)
            at_y, at_new = row_a.get(v, absent), row_new.get(v, absent)
            for j in every:
                yield at_y[j], n1, before[j], n0, "B6(i)" if j else "B5(i)", j, v
                yield at_new[j], 1, before[j], n0, "B6(ii)" if j else "B5(ii)", j, v
        to_new = row_a.get(v_new, absent)
        for j in every:
            name = "B6(iii)" if j else "B5(iii)"
            yield to_new[j], n1, loops_b[j], pairs2, name, j, v_new

    bad = _first_failure(rows())
    if bad is not None:
        count, _, _, _, name, j, v = bad
        detail = _STEP_WITNESS[name].format(v=v, y=y, new=v_new, j=j, c=count)
        return False, f"{name}: {detail}"
    for j in every[1:]:
        before, after = (_folded_cells(h.layer(j), y, v_new) for h in (h_before, h_after))
        for u, v in sorted(before.keys() | after.keys()):
            if before.get((u, v)) != after.get((u, v)):
                cell = f"loops at {u}" if u == v else f"m({u},{v})"
                return False, f"amalgamation: color {j} {cell}"
    return True, None


def verify_trace(
    h0: ColoredMultigraph, eta0: AmalgamationSpec, trace
) -> Tuple[bool, Optional[str]]:
    """Replay a detachment trace checking cumulative relations at each stage.

    Each step must split a vertex whose replayed split count is at least 2
    and record that count as `eta_y_before`.  Checks, against the original
    graph, each intermediate's per-vertex degree ratios, the multiplicity
    ratio between a split vertex and each of its earlier offshoots, and the
    cross-pair multiplicity ratios.
    """
    hosts = h0.vertices
    size = {w: eta0.value(w) for w in hosts}
    start = {w: _star(h0, w) for w in hosts}
    cur = h0.copy()
    eta = dict(eta0.eta)
    origin: Dict[VertexId, VertexId] = {}
    offshoots: Dict[VertexId, List[VertexId]] = {w: [] for w in hosts}
    for step_no, rec in enumerate(trace.steps):
        if rec.y not in eta:
            raise GraphError(f"step {step_no}: vertex {rec.y} has no split count")
        n0 = eta[rec.y]
        if n0 < 2 or rec.eta_y_before != n0:
            why = "below the step precondition" if n0 < 2 else f"not {rec.eta_y_before}"
            return False, f"step {step_no}: eta({rec.y}) was {n0}, {why}"
        try:
            cur.split_off(rec.y, rec.v_new, rec.moves.edge_moves, rec.moves.loop_moves)
        except GraphError as exc:
            raise GraphError(f"step {step_no}: {exc}") from None
        root = origin[rec.v_new] = origin.get(rec.y, rec.y)
        eta[rec.y] -= 1
        eta[rec.v_new] = 1
        offshoots[root].append(rec.v_new)
        now = {w: _star(cur, w) for w in hosts}

        # rows (count, scale, numerator, denominator, witness, vertex, vertex)
        # over all colors: host w keeps eta[w] of its size[w] shares
        def rows():
            for w in hosts:
                (loops0, deg0, _), (_, deg, row) = start[w], now[w]
                yield deg[0], eta[w], deg0[0], size[w], "degree ratio at {0}", w, None
                if size[w] >= 2:
                    pairs2 = size[w] * (size[w] - 1) // 2
                    for vr in offshoots[w]:
                        m = row.get(vr, (0,))[0]
                        yield m, eta[w], loops0[0], pairs2, "m({0},{1}) vs loops", w, vr
            for w, z in combinations(hosts, 2):
                m, m0 = now[w][2].get(z, (0,))[0], start[w][2].get(z, (0,))[0]
                scale, den = eta[w] * eta[z], size[w] * size[z]
                yield m, scale, m0, den, "m({0},{1}) ratio", w, z

        bad = _first_failure(rows())
        if bad is not None:
            return False, f"step {step_no}: " + bad[4].format(*bad[5:])
    return True, None
