from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from fairdetach import engine
from fairdetach.engine import (
    DetachmentTrace,
    MoveSet,
    StepRecord,
    detach_all,
)
from fairdetach.errors import GraphError
from fairdetach.fuzzgen import random_detach_instance
from fairdetach.hamilton import GddParams, walecki_odd
from fairdetach.multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    Multigraph,
)
from fairdetach.verify import (
    CONDITION_ORDER,
    _ratio_ok,
    assert_step_relations,
    is_gdd,
    verify_detachment,
    verify_ham_decomposition,
    verify_trace,
)
from helpers import (
    approx,
    counts_of,
    detachment_violations,
    gdd_violations,
    outcome,
    step_once,
    step_violations,
    steps_violations,
    trace_violations,
)


def triangle_pair():
    h = ColoredMultigraph(2, [0])
    h.layer(1).add_loops(0, 3)
    eta = AmalgamationSpec({0: 3})
    g, psi, trace = detach_all(h, eta)
    return h, eta, psi, g, trace


def test_triangle_detachment_passes_everything() -> None:
    h, eta, psi, g, _ = triangle_pair()
    report = verify_detachment(h, eta, psi, g)
    assert report.ok
    assert report.first_failure() is None
    assert all(line.endswith("ok") for line in report.lines())


def test_recolored_edge_breaks_per_color_degrees() -> None:
    h, eta, psi, g, _ = triangle_pair()
    bad = g.copy()
    u, v, _ = bad.layer(1).pairs()[0]
    bad.layer(1).remove_edges(u, v, 1)
    bad.layer(2).add_edges(u, v, 1)
    report = verify_detachment(h, eta, psi, bad)
    assert not report.ok
    assert not report.verdicts["A2"][0]
    assert report.verdicts["A2"][1] is not None
    assert not report.verdicts["conservation"][0]


def test_loopy_output_is_reported() -> None:
    h, eta, psi, g, _ = triangle_pair()
    bad = g.copy()
    bad.layer(1).remove_edges(0, 1, 1)
    bad.layer(1).add_loops(0, 1)
    report = verify_detachment(h, eta, psi, bad)
    assert not report.verdicts["loopless"][0]


def test_structural_mismatch_raises_rather_than_reports() -> None:
    h, eta, psi, g, _ = triangle_pair()
    with pytest.raises(GraphError):
        verify_detachment(h, AmalgamationSpec({0: 2}), psi, g)
    bad_map = DetachmentMap({0: [0, 1]})
    with pytest.raises(GraphError):
        verify_detachment(h, eta, bad_map, g)


def test_fuzz_detachments_all_verify() -> None:
    rng = random.Random(61)
    for _ in range(120):
        cg, eta = random_detach_instance(rng)
        g, psi, _ = detach_all(cg, eta)
        report = verify_detachment(cg, eta, psi, g)
        assert report.ok, report.first_failure()


def _mutate(rng: random.Random, g: ColoredMultigraph) -> ColoredMultigraph:
    """A copy of g with one random edit in one color: a loop, an edge added, dropped,
    recolored or rerouted, a 2-switch, or a vertex stripped of its edges."""
    bad = g.copy()
    layer = bad.layer(rng.randint(1, bad.k))
    verts = bad.vertices
    kind = rng.choice(
        ["recolor", "reroute", "loop", "drop", "add", "switch", "isolate"]
    )
    if kind == "isolate":
        x = rng.choice(verts)
        for w, n in layer.row(x):
            layer.remove_edges(x, w, n)
    elif kind == "add" and len(verts) >= 2:
        u, v = rng.sample(verts, 2)
        layer.add_edges(u, v, 1)
    elif kind in ("loop", "add") or not layer.pairs():
        layer.add_loops(rng.choice(verts), 1)
    else:
        u, v, _ = rng.choice(layer.pairs())
        layer.remove_edges(u, v, 1)
        if kind == "recolor":
            bad.layer(rng.randint(1, bad.k)).add_edges(u, v, 1)
        elif kind == "reroute":
            x = rng.choice(verts)
            if x != u:
                layer.add_edges(u, x, 1)
            else:
                layer.add_loops(u, 1)
        elif kind == "switch":
            others = [
                (a, b) for a, b, _ in layer.pairs() if len({a, b, u, v}) == 4
            ]
            if others:
                a, b = rng.choice(others)
                layer.remove_edges(a, b, 1)
                layer.add_edges(u, a, 1)
                layer.add_edges(v, b, 1)
            else:
                layer.add_edges(u, v, 1)
    return bad


def _failed(report) -> set:
    return {name for name, (ok, _) in report.verdicts.items() if not ok}


def test_table_checker_matches_definitions_oracle() -> None:
    rng = random.Random(0)
    failed: Counter = Counter()
    for _ in range(500):
        h, eta = random_detach_instance(rng)
        g, psi, _ = detach_all(h, eta)
        # two stacked edits put failures under several hosts and colors
        for cand in [g] + [_mutate(rng, _mutate(rng, g)) for _ in range(6)]:
            names = _failed(verify_detachment(h, eta, psi, cand))
            assert names == detachment_violations(h, eta, psi, cand)
            failed.update(names)
    assert set(failed) == set(CONDITION_ORDER), failed


def _pinned_detachment():
    """Hosts 0 and 1, eta 3 each, fibers [0, 2, 4] and [1, 3, 5].  Color 1
    (4 edges 0-1, a loop at each) becomes the 6-cycle 0-2-1-3-4-5; color 2
    (9 edges 0-1, 3 loops at 0) becomes K_{3,3} plus the triangle 0-2-4."""
    h = ColoredMultigraph(2, [0, 1])
    h.layer(1).add_edges(0, 1, 4)
    h.layer(1).add_loops(0, 1)
    h.layer(1).add_loops(1, 1)
    h.layer(2).add_edges(0, 1, 9)
    h.layer(2).add_loops(0, 3)
    eta = AmalgamationSpec({0: 3, 1: 3})
    psi = DetachmentMap({0: [0, 2, 4], 1: [1, 3, 5]})
    g = ColoredMultigraph(2, range(6))
    for u, v in [(0, 2), (2, 1), (1, 3), (3, 4), (4, 5), (5, 0)]:
        g.layer(1).add_edges(u, v)
    for u, v in [(0, 2), (0, 4), (2, 4)]:
        g.layer(2).add_edges(u, v)
    for u in (0, 2, 4):
        for v in (1, 3, 5):
            g.layer(2).add_edges(u, v)
    return h, eta, psi, g


def _recolor(*edges):
    """Edits moving each (u, v, from, to) edge between colors."""
    return [e for u, v, a, b in edges for e in ((a, u, v, -1), (b, u, v, 1))]


@pytest.mark.parametrize(
    "edits, name, witness",
    [
        ([(1, 5, 5, 1)], "loopless", "loops remain at vertex 5"),
        ([(2, 0, 1, -1)], "conservation", "color 2: 12 edges became 11"),
        (
            [(1, 0, 5, -1), (1, 0, 3, 1)],
            "A1",
            "d(3)=6 not within d(1)/eta = 15/3",
        ),
        (_recolor((0, 5, 1, 2), (0, 1, 2, 1)), "A2", "color 1: d(1)=3 not within 6/3"),
        (
            [(2, 1, 2, -1), (2, 3, 4, -1), (2, 1, 3, 1), (2, 2, 4, 1)],
            "A3",
            "m(1,3)=2 not within 1/3",
        ),
        (
            _recolor((0, 2, 1, 2), (2, 4, 2, 1), (4, 5, 1, 2), (0, 5, 2, 1)),
            "A4",
            "color 2: m(0,2)=2 not within 3/3",
        ),
        (
            [(2, 1, 4, -1), (2, 2, 3, -1), (2, 1, 2, 1), (2, 3, 4, 1)],
            "A5",
            "m(2,1)=3 not within m(0,1)/eta*eta = 13/9",
        ),
        (
            _recolor((1, 2, 1, 2), (1, 4, 2, 1), (3, 4, 1, 2), (2, 3, 2, 1)),
            "A6",
            "color 2: m(2,1)=2 not within 9/9",
        ),
        (
            [(1, 2, 1, -1), (1, 3, 4, -1), (1, 4, 5, -1), (1, 5, 0, -1)]
            + [(1, 0, 4, 1), (1, 2, 4, 1), (1, 1, 5, 1), (1, 3, 5, 1)],
            "A7",
            "color 1: components 1 became 2",
        ),
    ],
)
def test_each_condition_reports_its_first_counterexample(edits, name, witness) -> None:
    # each edit (j, u, v, n) adds n color-j edges u-v, removes -n, or adds n
    # loops when u == v
    h, eta, psi, g = _pinned_detachment()
    assert verify_detachment(h, eta, psi, g).ok
    for j, u, v, n in edits:
        if u == v:
            g.layer(j).add_loops(u, n)
        elif n > 0:
            g.layer(j).add_edges(u, v, n)
        else:
            g.layer(j).remove_edges(u, v, -n)
    report = verify_detachment(h, eta, psi, g)
    assert report.first_failure() == (name, witness)
    assert _failed(report) == detachment_violations(h, eta, psi, g)


def test_integer_step_window_matches_fraction_window() -> None:
    for a in range(25):
        for n1 in range(1, 7):
            for b in range(40):
                for n0 in range(1, 9):
                    assert _ratio_ok(a, n1, b, n0) == approx(
                        Fraction(a, n1), Fraction(b, n0)
                    ), (a, n1, b, n0)


def test_ham_checker_accepts_c4_as_itself() -> None:
    host = Multigraph(range(4))
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        host.add_edges(a, b)
    ok, witness = verify_ham_decomposition(host, [[0, 1, 2, 3]])
    assert ok, witness


def test_ham_checker_accepts_walecki() -> None:
    d = walecki_odd(5)
    ok, witness = verify_ham_decomposition(d.host, list(d.cycles))
    assert ok, witness


def test_ham_checker_rejects_swapped_edges() -> None:
    d = walecki_odd(5)
    cycles = [list(c) for c in d.cycles]
    cycles[0][1], cycles[0][2] = cycles[0][2], cycles[0][1]
    ok, witness = verify_ham_decomposition(d.host, cycles)
    assert not ok
    assert witness is not None


def test_ham_checker_rejects_non_spanning() -> None:
    host = Multigraph(range(3))
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        host.add_edges(a, b)
    ok, _ = verify_ham_decomposition(host, [[0, 1]])
    assert not ok


def test_ham_checker_rejects_leftover_edges() -> None:
    host = Multigraph(range(3))
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        host.add_edges(a, b, 2)
    ok, witness = verify_ham_decomposition(host, [[0, 1, 2]])
    assert not ok


def test_ham_checker_two_vertex_double_edge() -> None:
    host = Multigraph(range(2))
    host.add_edges(0, 1, 2)
    ok, witness = verify_ham_decomposition(host, [[0, 1]])
    assert ok, witness


def test_ham_checker_rejects_a_one_vertex_cycle() -> None:
    ok, witness = verify_ham_decomposition(Multigraph([0]), [[0]])
    assert (ok, witness) == (False, "cycle 0 is shorter than 2")


def test_is_gdd_bipartite() -> None:
    g = Multigraph(range(4))
    for u in (0, 1):
        for v in (2, 3):
            g.add_edges(u, v)
    assert is_gdd(g, GddParams((2, 2), 0, 1), [[0, 1], [2, 3]])
    assert not is_gdd(g, GddParams((2, 2), 1, 1), [[0, 1], [2, 3]])


def test_is_gdd_single_part() -> None:
    g = Multigraph(range(4))
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edges(u, v, 2)
    assert is_gdd(g, GddParams((4,), 2, 0), [[0, 1, 2, 3]])


def test_is_gdd_rejects_loops_and_bad_cover() -> None:
    g = Multigraph(range(2))
    g.add_edges(0, 1, 1)
    g.add_loops(0, 1)
    assert not is_gdd(g, GddParams((1, 1), 0, 1), [[0], [1]])
    clean = Multigraph(range(2))
    clean.add_edges(0, 1, 1)
    with pytest.raises(GraphError):
        is_gdd(clean, GddParams((1, 1), 0, 1), [[0], [0, 1]])


def test_step_relations_three_loop_step() -> None:
    h = ColoredMultigraph(1, [0])
    h.layer(1).add_loops(0, 3)
    eta = AmalgamationSpec({0: 3})
    out, _, v_new = step_once(h, eta, 0)
    ok, witness = assert_step_relations(h, out, 0, v_new, eta)
    assert ok, witness
    # the loop share is exact here: 3*(2-1)/3 = 1 loop must remain
    assert out.loops(0) == 1


def test_step_relations_four_parallel_edges() -> None:
    h = ColoredMultigraph(1, [0, 1])
    h.layer(1).add_edges(0, 1, 4)
    eta = AmalgamationSpec({0: 2, 1: 2})
    out, _, v_new = step_once(h, eta, 0)
    ok, witness = assert_step_relations(h, out, 0, v_new, eta)
    assert ok, witness
    # m(v_new, 1) is within 4/2 = 2 exactly
    assert out.layer(1).multiplicity(v_new, 1) == 2


def test_step_relations_catch_tampering() -> None:
    h = ColoredMultigraph(1, [0, 1])
    h.layer(1).add_edges(0, 1, 4)
    eta = AmalgamationSpec({0: 2, 1: 2})
    out, _, v_new = step_once(h, eta, 0)
    bad = out.copy()
    bad.layer(1).remove_edges(v_new, 1, 1)
    bad.layer(1).add_edges(0, 1, 1)
    ok, witness = assert_step_relations(h, bad, 0, v_new, eta)
    assert not ok
    assert witness is not None


def test_step_relations_fuzz() -> None:
    rng = random.Random(67)
    checked = 0
    while checked < 80:
        cg, eta = random_detach_instance(rng)
        ys = [v for v in cg.vertices if eta.value(v) >= 2]
        if not ys:
            continue
        out, _, v_new = step_once(cg, eta, ys[0])
        ok, witness = assert_step_relations(cg, out, ys[0], v_new, eta)
        assert ok, witness
        checked += 1


def test_trace_replay_relations() -> None:
    rng = random.Random(71)
    for _ in range(40):
        cg, eta = random_detach_instance(rng, max_vertices=4)
        g, psi, trace = detach_all(cg, eta)
        ok, witness = verify_trace(cg, eta, trace)
        assert ok, witness


def _smallest_scope():
    """Every host on vertices {0, 1} with k = 2: multiplicity 0..2 on the
    pair per color, 0..2 loops per vertex and color and eta 1..3 per vertex,
    leaving out a vertex with eta 1 that carries loops and the hosts with
    nothing to split."""
    per_vertex = [(1, (0, 0))] + [
        (n, loops) for n in (2, 3) for loops in product(range(3), repeat=2)
    ]
    for mult, (n0, loops0), (n1, loops1) in product(
        product(range(3), repeat=2), per_vertex, per_vertex
    ):
        if n0 == n1 == 1:
            continue
        h = ColoredMultigraph(2, [0, 1])
        for j in (1, 2):
            h.layer(j).add_edges(0, 1, mult[j - 1])
            h.layer(j).add_loops(0, loops0[j - 1])
            h.layer(j).add_loops(1, loops1[j - 1])
        yield h, AmalgamationSpec({0: n0, 1: n1})


def test_every_host_of_the_smallest_scope_detaches_and_verifies() -> None:
    """A stated guarantee up to a size, not a sample: every host of the
    scope detaches, every step passes the step checks of steps_violations,
    and both checkers accept it."""
    hosts = steps = 0
    for h, eta in _smallest_scope():
        g, psi, trace = detach_all(h, eta)
        assert steps_violations(h, eta, trace) is None
        assert verify_detachment(h, eta, psi, g).ok
        assert verify_trace(h, eta, trace) == (True, None)
        assert not detachment_violations(h, eta, psi, g)
        assert trace_violations(h, eta, trace) == (None, counts_of(g))
        assert sorted(psi.psi) == g.vertices
        assert all(u in psi.fiber(w) for u, w in psi.psi.items())
        hosts += 1
        steps += len(trace.steps)
    assert (hosts, steps) == (3240, 9234)


def _relabeled(cg: ColoredMultigraph, name: dict) -> ColoredMultigraph:
    """cg with every vertex v renamed name[v]."""
    out = ColoredMultigraph(cg.k, [name[v] for v in cg.vertices])
    for j in range(1, cg.k + 1):
        for u, v, n in cg.layer(j).pairs():
            out.layer(j).add_edges(name[u], name[v], n)
        for v, n in cg.layer(j).loop_items():
            out.layer(j).add_loops(name[v], n)
    return out


def test_an_order_preserving_relabeling_commutes_with_detachment() -> None:
    """The engine decides by lowest id first, so renaming the host's
    vertices v -> 7v + 1000 gives the same detachment up to the
    order-preserving map of all vertices, new ones included, which on the
    host is that renaming: the same detached graph and the same fibers."""
    rng = random.Random(11)
    steps = 0
    for _ in range(400):
        h, eta = random_detach_instance(rng)
        g, psi, trace = detach_all(h, eta)
        name = {v: 7 * v + 1000 for v in h.vertices}
        h2 = _relabeled(h, name)
        g2, psi2, _ = detach_all(h2, AmalgamationSpec({name[v]: n for v, n in eta.eta.items()}))
        assert len(g.vertices) == len(g2.vertices)
        order = dict(zip(g.vertices, g2.vertices))
        assert all(order[v] == name[v] for v in h.vertices)
        assert _relabeled(g, order) == g2
        assert psi2.fibers == {order[w]: [order[u] for u in f] for w, f in psi.fibers.items()}
        steps += len(trace.steps)
    assert steps == 2191


def _mutate_step(rng: random.Random, g: ColoredMultigraph, y, v_new):
    """A copy of g with one or two unit edits at y or v_new, each in one
    random color: a loop at y added or removed, an edge from y or v_new
    added or removed, or one of their edges rerouted or recolored."""
    bad = g.copy()
    for _ in range(rng.randint(1, 2)):
        layer = bad.layer(rng.randint(1, bad.k))
        u = rng.choice((y, v_new))
        v = rng.choice([x for x in bad.vertices if x != u])
        kind = rng.choice(["loop", "edge", "reroute", "recolor"])
        row = layer.row(u)
        if kind == "loop":
            if layer.loops(y) and rng.random() < 0.5:
                layer.remove_loops(y, 1)
            else:
                layer.add_loops(y, 1)
        elif kind == "edge" or not row:
            if layer.multiplicity(u, v) and rng.random() < 0.5:
                layer.remove_edges(u, v, 1)
            else:
                layer.add_edges(u, v, 1)
        else:
            w, _ = rng.choice(row)
            layer.remove_edges(u, w, 1)
            if kind == "reroute":
                layer.add_edges(u, v, 1)
            else:
                bad.layer(rng.randint(1, bad.k)).add_edges(u, w, 1)
    return bad


def test_step_table_matches_reference() -> None:
    rng = random.Random(5)
    first: Counter = Counter()
    steps = 0
    while steps < 500:
        h, eta = random_detach_instance(rng)
        ys = [v for v in h.vertices if eta.value(v) >= 2]
        if not ys:
            continue
        y = rng.choice(ys)
        out, _, v_new = step_once(h, eta, y)
        for cand in [out] + [_mutate_step(rng, out, y, v_new) for _ in range(6)]:
            ok, witness = assert_step_relations(h, cand, y, v_new, eta)
            found = step_violations(h, cand, y, v_new, eta)
            assert ok == (not found), (witness, found)
            if not ok:
                name = witness.split(":")[0]
                assert name in found, (witness, found)
                first[name] += 1
        steps += 1
    assert set(first) == {
        "B1", "B2", "B3(i)", "B3(ii)", "B4(i)", "B4(ii)",
        "B5(i)", "B5(ii)", "B5(iii)", "B6(i)", "B6(ii)", "B6(iii)", "amalgamation",
    }, first


def _edit_moves(trace, edits) -> DetachmentTrace:
    """trace with each edit (step, color, w, n) adding n moves of color edges
    y-w to that step, or n loop moves when w is None; counts reaching 0 drop."""
    steps = list(trace.steps)
    for s, j, w, n in edits:
        rec = steps[s]
        edge_moves = {c: dict(row) for c, row in rec.moves.edge_moves.items()}
        loop_moves = dict(rec.moves.loop_moves)
        table, key = (loop_moves, j) if w is None else (edge_moves.setdefault(j, {}), w)
        table[key] = table.get(key, 0) + n
        if not table[key]:
            del table[key]
        steps[s] = StepRecord(
            rec.y, rec.v_new, rec.eta_y_before, MoveSet(edge_moves, loop_moves)
        )
    return DetachmentTrace(steps)


def _mutate_moves(rng: random.Random, trace, k: int, vertices) -> DetachmentTrace:
    """trace with one or two unit edits of the moves of random steps: one
    move dropped, doubled, sent to another vertex or the loops, or recolored."""
    edits = []
    for _ in range(rng.randint(1, 2)):
        s = rng.randrange(len(trace.steps))
        moves = trace.steps[s].moves
        have = [(j, None) for j in moves.loop_moves] + [
            (j, w) for j, row in moves.edge_moves.items() for w in row
        ]
        if not have:
            continue
        j, w = rng.choice(have)
        kind = rng.choice(["drop", "double", "reroute", "recolor"])
        edits.append((s, j, w, 1 if kind == "double" else -1))
        if kind == "reroute":
            edits.append((s, j, rng.choice([None, *vertices]), 1))
        elif kind == "recolor":
            edits.append((s, rng.randint(1, k), w, 1))
    return _edit_moves(trace, edits)


def _mutate_split(rng: random.Random, trace, vertices) -> DetachmentTrace:
    """trace with one random step split at another vertex (one with a split
    count of 1, an offshoot made later, or an unknown one), or with its
    recorded `eta_y_before` off by one."""
    steps = list(trace.steps)
    s = rng.randrange(len(steps))
    rec = steps[s]
    y, before = rec.y, rec.eta_y_before
    if rng.random() < 0.5:
        y = rng.choice([*vertices, max(vertices) + 1])
    else:
        before += rng.choice((-1, 1))
    steps[s] = StepRecord(y, rec.v_new, before, rec.moves)
    return DetachmentTrace(steps)


def _trace_kind(got) -> str:
    if got[0] is not False:
        return str(got[0])
    detail = got[1].split(": ", 1)[1]
    if detail.endswith("below the step precondition"):
        return "split count"
    if detail.startswith("eta("):
        return "eta_y_before"
    if detail.startswith("degree ratio"):
        return "degree"
    return "loops" if detail.endswith("vs loops") else "pair"


def test_trace_table_matches_reference() -> None:
    rng = random.Random(7)
    kinds: Counter = Counter()
    traces = 0
    while traces < 300:
        h, eta = random_detach_instance(rng, max_vertices=4)
        g, _, trace = detach_all(h, eta)
        if not trace.steps:
            continue
        # the oracle's own replay of the engine's trace ends at its output
        assert trace_violations(h, eta, trace) == (None, counts_of(g))
        vertices = h.vertices + [rec.v_new for rec in trace.steps]
        mutants = [_mutate_moves(rng, trace, h.k, vertices) for _ in range(3)]
        mutants.append(_mutate_split(rng, trace, vertices))
        for cand in [trace] + mutants:
            got = outcome(verify_trace, h, eta, cand)
            kind = _trace_kind(got)
            want = outcome(trace_violations, h, eta, cand)
            if kind == "GraphError":
                assert want[0] == "GraphError", (got, want)
            elif kind == "True":
                assert want[0] is None, (got, want)
            else:
                step, found = want[0]
                assert got[1].startswith(f"step {step}: ") and kind in found, (got, want)
            kinds[kind] += 1
        traces += 1
    want = {"True", "degree", "loops", "pair", "GraphError", "split count", "eta_y_before"}
    assert set(kinds) == want, kinds


def test_gdd_table_matches_reference() -> None:
    rng = random.Random(11)
    for _ in range(300):
        params = GddParams(
            tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))),
            rng.randint(0, 2),
            rng.randint(0, 2),
        )
        parts = params.part_blocks()
        g = Multigraph(v for part in parts for v in part)
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        for u in g.vertices:
            for v in g.vertices:
                n = params.lambda1 if part_of[u] == part_of[v] else params.lambda2
                if u < v and n:
                    g.add_edges(u, v, n)
        verts = g.vertices
        kind = rng.choice(["none", "add", "drop", "loop", "parts"])
        if kind == "add" and len(verts) >= 2:
            g.add_edges(*rng.sample(verts, 2))
        elif kind == "drop" and g.pairs():
            u, v, _ = rng.choice(g.pairs())
            g.remove_edges(u, v, 1)
        elif kind == "loop":
            g.add_loops(rng.choice(verts))
        elif kind == "parts":
            rng.shuffle(verts)
            cut = rng.randint(0, len(verts))
            parts = [p for p in (verts[:cut], verts[cut:]) if p]
        assert is_gdd(g, params, parts) == (not gdd_violations(g, params, parts))


def test_trace_oracle_replays_on_counts_of_its_own(monkeypatch) -> None:
    """A planted split_off that leaves out w's mirror entry of each moved
    edge y-w fools verify_trace, which replays through it, but not the trace
    oracle: its end counts differ from the corrupted output, and both
    detachment checkers reject that output."""
    split_off = ColoredMultigraph.split_off

    def skip_mirror(cg, y, v_new, edge_moves, loop_moves):
        split_off(cg, y, v_new, edge_moves, loop_moves)
        for j, row in edge_moves.items():
            adj = cg.layer(j)._adj
            for w, n in row.items():
                adj[w][v_new] -= n
                if not adj[w][v_new]:
                    del adj[w][v_new]

    def refuse(*args):
        raise AssertionError("an oracle called the library's move path")

    # the lambda K_9 amalgam: 36 edges as 9 loops in each of 4 colors at 0
    h = ColoredMultigraph(4, [0])
    for j in range(1, 5):
        h.layer(j).add_loops(0, 9)
    eta = AmalgamationSpec({0: 9})
    monkeypatch.setattr(ColoredMultigraph, "split_off", skip_mirror)
    g, psi, trace = detach_all(h, eta)
    assert verify_trace(h, eta, trace) == (True, None)
    report = verify_detachment(h, eta, psi, g)
    assert not report.ok
    monkeypatch.setattr(ColoredMultigraph, "split_off", refuse)
    monkeypatch.setattr(engine, "apply_moves", refuse)
    first, end = trace_violations(h, eta, trace)
    assert first is None
    assert end != counts_of(g)
    assert detachment_violations(h, eta, psi, g) == _failed(report)


def _pinned_step():
    """y = 0 with eta 3 in two colors (3 loops each; color 1 has 3 edges to
    1 and one to 2, color 2 the reverse), vertex 3 apart, split once into
    new vertex 4; the result passes every step relation."""
    h = ColoredMultigraph(2, range(4))
    for j, (a, b) in ((1, (1, 2)), (2, (2, 1))):
        h.layer(j).add_loops(0, 3)
        h.layer(j).add_edges(0, a, 3)
        h.layer(j).add_edges(0, b, 1)
    eta = AmalgamationSpec({0: 3, 1: 1, 2: 1, 3: 1})
    return h, eta


@pytest.mark.parametrize(
    "edits, witness",
    [
        ([(1, 0, 0, -1)], "B1: loops at 0: 1"),
        ([(1, 0, 0, 1), (2, 0, 0, -1)], "B2: color 1 loops at 0"),
        ([(1, 0, 4, 1)], "B3(i): degree of 0"),
        ([(1, 0, 4, -1)], "B3(ii): degree of 4"),
        ([(1, 0, 1, -2)], "B4(i): color 1 degree of 0"),
        ([(1, 2, 4, 1), (2, 0, 4, -1)], "B4(ii): color 2 degree of 4"),
        ([(1, 0, 1, -1), (2, 0, 1, -1)], "B5(i): m(0,1)"),
        ([(2, 3, 4, 1), (2, 2, 4, -1)], "B5(ii): m(4,2)"),
        ([(1, 0, 1, -1)], "B6(i): color 1 m(0,1)"),
        ([(1, 1, 4, 1)], "B6(ii): color 1 m(4,1)"),
        ([(1, 0, 2, -1), (1, 0, 4, 1)], "B5(iii): m(0,4)"),
        ([(1, 0, 4, 1), (2, 0, 4, -1), (2, 1, 4, 1)], "B6(iii): color 1 m(0,4)"),
        # an edge to vertex 3, which y never touched, breaks B5(ii) at 3 first
        ([(1, 0, 4, -1), (1, 3, 4, 1)], "B5(ii): m(4,3)"),
        # edges and loops away from y's and v_new's stars break no B row
        ([(1, 1, 3, 5), (2, 3, 3, 2)], "amalgamation: color 1 m(1,3)"),
        ([(2, 3, 3, 2)], "amalgamation: color 2 loops at 3"),
    ],
)
def test_each_step_relation_reports_its_witness(edits, witness) -> None:
    # each edit (j, u, v, n) adds n color-j edges u-v, removes -n, or adds or
    # removes loops when u == v
    h, eta = _pinned_step()
    out, _, v_new = step_once(h, eta, 0)
    assert v_new == 4
    assert assert_step_relations(h, out, 0, 4, eta) == (True, None)
    for j, u, v, n in edits:
        layer = out.layer(j)
        if u == v:
            (layer.add_loops if n > 0 else layer.remove_loops)(u, abs(n))
        elif n > 0:
            layer.add_edges(u, v, n)
        else:
            layer.remove_edges(u, v, -n)
    assert assert_step_relations(h, out, 0, 4, eta) == (False, witness)


@pytest.mark.parametrize(
    "edits, witness",
    [
        ([(1, 2, 2, -1)], "step 1: degree ratio at 0"),
        ([(0, 1, None, 1)], "step 0: m(0,4) vs loops"),
        ([(0, 2, 2, 1)], "step 1: m(0,2) ratio"),
    ],
)
def test_each_trace_check_reports_its_witness(edits, witness) -> None:
    h, eta = _pinned_step()
    _, _, trace = detach_all(h, eta)
    assert verify_trace(h, eta, trace) == (True, None)
    assert verify_trace(h, eta, _edit_moves(trace, edits)) == (False, witness)


def test_trace_replay_raises_on_moves_the_graph_lacks() -> None:
    h, eta = _pinned_step()
    _, _, trace = detach_all(h, eta)
    with pytest.raises(
        GraphError, match=r"^step 0: cannot remove 4 edges from m\(0,1\)=3$"
    ):
        verify_trace(h, eta, _edit_moves(trace, [(0, 1, 1, 3)]))


def test_trace_step_at_a_vertex_without_split_count_raises() -> None:
    h = ColoredMultigraph(1, [0])
    trace = DetachmentTrace([StepRecord(7, 1, 2, MoveSet({}, {}))])
    with pytest.raises(GraphError, match=r"^step 0: vertex 7 has no split count$"):
        verify_trace(h, AmalgamationSpec({0: 2}), trace)


def test_trace_step_must_split_a_vertex_still_at_two_or_more() -> None:
    # one vertex with 2 loops and eta = 2 splits once; a second split of
    # vertex 0, and a first step that misstates its split count, both fail
    h = ColoredMultigraph(1, [0])
    h.layer(1).add_loops(0, 2)
    eta = AmalgamationSpec({0: 2})
    _, _, trace = detach_all(h, eta)
    [rec] = trace.steps
    assert (rec.y, rec.v_new, rec.eta_y_before) == (0, 1, 2)
    assert verify_trace(h, eta, trace) == (True, None)
    over = DetachmentTrace([rec, StepRecord(0, 2, 2, MoveSet({1: {1: 2}}, {}))])
    witness = "step 1: eta(0) was 1, below the step precondition"
    assert verify_trace(h, eta, over) == (False, witness)
    misstated = DetachmentTrace([StepRecord(0, 1, 3, rec.moves)])
    witness = "step 0: eta(0) was 2, not 3"
    assert verify_trace(h, eta, misstated) == (False, witness)


def test_trace_step_onto_an_existing_vertex_raises() -> None:
    h = ColoredMultigraph(1, [0, 1])
    trace = DetachmentTrace([StepRecord(0, 1, 2, MoveSet({}, {}))])
    with pytest.raises(GraphError, match=r"^step 0: new vertex 1 already exists$"):
        verify_trace(h, AmalgamationSpec({0: 2, 1: 1}), trace)
    with pytest.raises(GraphError, match=r"^new vertex 1 already exists$"):
        engine.apply_moves(h.copy(), trace.steps[0])


def test_verify_memory_does_not_grow_with_eta_squared() -> None:
    """The fiber-pair cells are made as their rows are read: at eta(0) = 400
    a list of the 79,800 cells of fiber pairs at vertex 0 would peak near
    5 MiB, and verification peaks far below that."""
    h = ColoredMultigraph(1, [0, 1])
    h.layer(1).add_edges(0, 1, 2)
    h.layer(1).add_loops(0, 1)
    eta = AmalgamationSpec({0: 400, 1: 1})
    g, psi, _ = detach_all(h, eta)
    tracemalloc.start()
    try:
        report = verify_detachment(h, eta, psi, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 1 << 20
