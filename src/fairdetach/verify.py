"""Independent checkers for every contract in the package.

The detachment checker re-derives nothing from the engine: it evaluates
each fairness window directly on the input/output pair in exact integer
arithmetic.  Every failed check reports the smallest counterexample in
vertex/color order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
    approx,
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
        if name not in self.verdicts or (self.verdicts[name][0] and not ok):
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

    report = DetachmentReport()
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
    if not approx(
        Fraction(h_after.degree(y), n1), Fraction(h_before.degree(y), n0)
    ):
        return fail("B3(i)", f"degree of {y}")
    if not approx_ratio(h_after.degree(v_new), h_before.degree(y), n0):
        return fail("B3(ii)", f"degree of {v_new}")
    for j in range(1, k + 1):
        if not approx(
            Fraction(h_after.layer(j).degree(y), n1),
            Fraction(h_before.layer(j).degree(y), n0),
        ):
            return fail("B4(i)", f"color {j} degree of {y}")
        if not approx_ratio(
            h_after.layer(j).degree(v_new), h_before.layer(j).degree(y), n0
        ):
            return fail("B4(ii)", f"color {j} degree of {v_new}")

    # multiplicities toward every old neighbor, and between y and the new vertex
    neighbors = {u for j in range(1, k + 1) for u, _ in h_before.layer(j).row(y)}
    for v in sorted(neighbors):
        if not approx(
            Fraction(h_after.multiplicity(y, v), n1),
            Fraction(h_before.multiplicity(y, v), n0),
        ):
            return fail("B5(i)", f"m({y},{v})")
        if not approx_ratio(
            h_after.multiplicity(v_new, v), h_before.multiplicity(y, v), n0
        ):
            return fail("B5(ii)", f"m({v_new},{v})")
        for j in range(1, k + 1):
            mj = h_before.layer(j).multiplicity(y, v)
            if not approx(
                Fraction(h_after.layer(j).multiplicity(y, v), n1),
                Fraction(mj, n0),
            ):
                return fail("B6(i)", f"color {j} m({y},{v})")
            if not approx_ratio(
                h_after.layer(j).multiplicity(v_new, v), mj, n0
            ):
                return fail("B6(ii)", f"color {j} m({v_new},{v})")
    if not approx(
        Fraction(h_after.multiplicity(y, v_new), n1),
        Fraction(h_before.loops(y), pairs2),
    ):
        return fail("B5(iii)", f"m({y},{v_new})")
    for j in range(1, k + 1):
        if not approx(
            Fraction(h_after.layer(j).multiplicity(y, v_new), n1),
            Fraction(h_before.layer(j).loops(y), pairs2),
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
            if not approx(
                Fraction(cur.degree(w), eta[w]),
                Fraction(h0.degree(w), eta0.value(w)),
            ):
                return False, f"step {step_no}: degree ratio at {w}"
            n0 = eta0.value(w)
            if n0 >= 2:
                pairs2 = n0 * (n0 - 1) // 2
                for vr in offshoots[w]:
                    if not approx(
                        Fraction(cur.multiplicity(w, vr), eta[w]),
                        Fraction(h0.loops(w), pairs2),
                    ):
                        return False, f"step {step_no}: m({w},{vr}) vs loops"
        for ia in range(len(hosts)):
            for ib in range(ia + 1, len(hosts)):
                w, z = hosts[ia], hosts[ib]
                if not approx(
                    Fraction(cur.multiplicity(w, z), eta[w] * eta[z]),
                    Fraction(
                        h0.multiplicity(w, z), eta0.value(w) * eta0.value(z)
                    ),
                ):
                    return False, f"step {step_no}: m({w},{z}) ratio"
    return True, None
