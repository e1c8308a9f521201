from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from fairdetach.engine import detach_all, detach_step
from fairdetach.errors import GraphError
from fairdetach.fuzzgen import random_detach_instance
from fairdetach.hamilton import GddParams, walecki_odd
from fairdetach.multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    Multigraph,
    approx,
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
from helpers import reference_verify_detachment


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
    bad_map = DetachmentMap.from_fibers({0: [0, 1]})
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


def test_table_checker_matches_loop_nest_reference() -> None:
    rng = random.Random(0)
    failed: Counter = Counter()
    for _ in range(500):
        h, eta = random_detach_instance(rng)
        g, psi, _ = detach_all(h, eta)
        # two stacked edits put failures under several hosts and colors, so
        # the order of the rows decides which witness comes first
        for cand in [g] + [_mutate(rng, _mutate(rng, g)) for _ in range(6)]:
            verdicts = verify_detachment(h, eta, psi, cand).verdicts
            assert verdicts == reference_verify_detachment(h, eta, psi, cand).verdicts
            failed.update(name for name, (ok, _) in verdicts.items() if not ok)
    assert set(failed) == set(CONDITION_ORDER) - {"structure"}, failed


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
    psi = DetachmentMap.from_fibers({0: [0, 2, 4], 1: [1, 3, 5]})
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
    assert report.verdicts == reference_verify_detachment(h, eta, psi, g).verdicts


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
    out, _, v_new = detach_step(h, eta, 0)
    ok, witness = assert_step_relations(h, out, 0, v_new, eta)
    assert ok, witness
    # the loop share is exact here: 3*(2-1)/3 = 1 loop must remain
    assert out.loops(0) == 1


def test_step_relations_four_parallel_edges() -> None:
    h = ColoredMultigraph(1, [0, 1])
    h.layer(1).add_edges(0, 1, 4)
    eta = AmalgamationSpec({0: 2, 1: 2})
    out, _, v_new = detach_step(h, eta, 0)
    ok, witness = assert_step_relations(h, out, 0, v_new, eta)
    assert ok, witness
    # m(v_new, 1) is within 4/2 = 2 exactly
    assert out.multiplicity(v_new, 1) == 2


def test_step_relations_catch_tampering() -> None:
    h = ColoredMultigraph(1, [0, 1])
    h.layer(1).add_edges(0, 1, 4)
    eta = AmalgamationSpec({0: 2, 1: 2})
    out, _, v_new = detach_step(h, eta, 0)
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
        out, _, v_new = detach_step(cg, eta, ys[0])
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
