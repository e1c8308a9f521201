"""Independent checkers for every contract in the package.

The detachment checker re-derives nothing from the engine: it evaluates
each fairness window directly on the input/output pair in exact integer
arithmetic.  One pass over each graph counts degree by vertex, multiplicity
by pair (min, max) and loops by vertex, per color and over all colors (0);
a cell with no edges reads 0.  A1-A6 are rows (count, numerator,
denominator, witness fields) over those cells: fiber vertices against their
host's degree (A1, A2), fiber pairs against their host's loops (A3, A4) and
pairs across two fibers against the hosts' multiplicity (A5, A6).  Rows run
by host, color, then fiber position, so each failed check reports its first
row: the smallest counterexample in vertex/color order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    approx_ratio,
)

CONDITION_ORDER = (
    "structure",
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


@dataclass
class DetachmentReport:
    """Per-condition verdicts; a verdict's witness is its first counterexample."""

    verdicts: Dict[str, Tuple[bool, Optional[str]]] = field(default_factory=dict)

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


def _first_failure(rows, template: str) -> Optional[str]:
    """The witness of the first row (count, num, den, *fields) whose count
    leaves the window of num/den, formatted for that row only."""
    for row in rows:
        if not approx_ratio(row[0], row[1], row[2]):
            return template.format(*row[3:], c=row[0], n=row[1], d=row[2])
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
    report.record("structure", True)
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
    # the fibers of hosts w < z over m(w, z)
    inner = [
        (w, size[w] * (size[w] - 1) // 2, list(combinations(fibers[w], 2)))
        for w in hosts
        if size[w] >= 2
    ]
    cross = [
        ((w, z), size[w] * size[z], list(product(fibers[w], fibers[z])))
        for w, z in combinations(hosts, 2)
    ]

    def degree_rows(colors):
        return (
            (gdeg[j].get(u, 0), hdeg[j].get(w, 0), size[w], j, u, w)
            for w in hosts
            for j in colors
            for u in fibers[w]
        )

    def pair_rows(blocks, host, colors):
        return (
            (gmult[j].get(_key(u, v), 0), host[j].get(at, 0), den, j, u, v, at)
            for at, den, cells in blocks
            for j in colors
            for u, v in cells
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
        witness = _first_failure(rows, template)
        report.record(name, witness is None, witness)

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
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a == b:
                return False, f"cycle {idx} repeats vertex {a} consecutively"
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


def _ratio_ok(a: int, n1: int, b: int, n0: int) -> bool:
    """approx(a/n1, b/n0) in integers: n1*floor(b/n0) <= a <= n1*ceil(b/n0);
    n1 and n0 must be positive."""
    return n1 * (b // n0) <= a <= n1 * -(-b // n0)


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
    if not _ratio_ok(h_after.degree(y), n1, h_before.degree(y), n0):
        return fail("B3(i)", f"degree of {y}")
    if not approx_ratio(h_after.degree(v_new), h_before.degree(y), n0):
        return fail("B3(ii)", f"degree of {v_new}")
    for j in range(1, k + 1):
        if not _ratio_ok(
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
        if not _ratio_ok(
            h_after.multiplicity(y, v), n1, h_before.multiplicity(y, v), n0
        ):
            return fail("B5(i)", f"m({y},{v})")
        if not approx_ratio(
            h_after.multiplicity(v_new, v), h_before.multiplicity(y, v), n0
        ):
            return fail("B5(ii)", f"m({v_new},{v})")
        for j in range(1, k + 1):
            mj = h_before.layer(j).multiplicity(y, v)
            if not _ratio_ok(h_after.layer(j).multiplicity(y, v), n1, mj, n0):
                return fail("B6(i)", f"color {j} m({y},{v})")
            if not approx_ratio(
                h_after.layer(j).multiplicity(v_new, v), mj, n0
            ):
                return fail("B6(ii)", f"color {j} m({v_new},{v})")
    if not _ratio_ok(h_after.multiplicity(y, v_new), n1, h_before.loops(y), pairs2):
        return fail("B5(iii)", f"m({y},{v_new})")
    for j in range(1, k + 1):
        if not _ratio_ok(
            h_after.layer(j).multiplicity(y, v_new),
            n1,
            h_before.layer(j).loops(y),
            pairs2,
        ):
            return fail("B6(iii)", f"color {j} m({y},{v_new})")
    return True, None


def verify_trace(
    h0: ColoredMultigraph, eta0: AmalgamationSpec, trace
) -> Tuple[bool, Optional[str]]:
    """Replay a detachment trace checking cumulative relations at each stage.

    Checks, against the original graph, each intermediate's per-vertex degree
    ratios, the multiplicity ratio between a split vertex and each of its
    earlier offshoots, and the cross-pair multiplicity ratios.
    """
    from .engine import apply_moves

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
            if not _ratio_ok(cur.degree(w), eta[w], h0.degree(w), eta0.value(w)):
                return False, f"step {step_no}: degree ratio at {w}"
            n0 = eta0.value(w)
            if n0 >= 2:
                pairs2 = n0 * (n0 - 1) // 2
                for vr in offshoots[w]:
                    if not _ratio_ok(
                        cur.multiplicity(w, vr), eta[w], h0.loops(w), pairs2
                    ):
                        return False, f"step {step_no}: m({w},{vr}) vs loops"
        for w, z in combinations(hosts, 2):
            if not _ratio_ok(
                cur.multiplicity(w, z),
                eta[w] * eta[z],
                h0.multiplicity(w, z),
                eta0.value(w) * eta0.value(z),
            ):
                return False, f"step {step_no}: m({w},{z}) ratio"
    return True, None
