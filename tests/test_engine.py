from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from operator import add
from types import SimpleNamespace

import pytest

from fairdetach import engine, hamilton
from fairdetach.bee import _Skeleton, _skeleton_of, bee_coloring
from fairdetach.engine import (
    LOOP_PROXY,
    MoveSet,
    StepRecord,
    build_split_bipartite,
    condition3_colors,
    detach_all,
    detach_step,
    refine,
)
from fairdetach.errors import PreconditionError
from fairdetach.fuzzgen import random_detach_instance
from fairdetach.hamilton import GddParams, ham_decompose_gdd
from fairdetach.multigraph import AmalgamationSpec, ColoredMultigraph
from fairdetach.verify import assert_step_relations, verify_detachment
from helpers import (
    Counts,
    _split,
    all_pairings,
    coloring_violations,
    counts_of,
    outcome,
    skeleton_graph,
)


def loops_only_instance(k: int, loops_per_color: int, eta: int):
    cg = ColoredMultigraph(k, [0])
    for j in range(1, k + 1):
        cg.layer(j).add_loops(0, loops_per_color)
    return cg, AmalgamationSpec({0: eta})


def test_condition3_loops_even_ratio() -> None:
    cg, eta = loops_only_instance(1, 3, 3)  # degree 6, 6/3 = 2 even
    assert condition3_colors(cg, eta) == {1}


def test_condition3_odd_ratio_excluded() -> None:
    cg, eta = loops_only_instance(1, 1, 2)  # degree 2, 2/2 = 1 odd
    assert condition3_colors(cg, eta) == set()


def test_condition3_parallel_edges() -> None:
    cg = ColoredMultigraph(1, [0, 1])
    cg.layer(1).add_edges(0, 1, 4)
    eta = AmalgamationSpec({0: 2, 1: 2})
    assert condition3_colors(cg, eta) == {1}


def test_condition3_zero_degree_makes_no_promise() -> None:
    # an isolated vertex must split into isolated vertices, so a color with
    # a zero ratio anywhere cannot preserve component counts
    cg = ColoredMultigraph(1, [0, 1])
    cg.layer(1).add_loops(0, 2)
    eta = AmalgamationSpec({0: 2, 1: 2})
    assert condition3_colors(cg, eta) == set()


def test_a_step_changes_no_condition3_verdict() -> None:
    """B4 puts the new vertex's degree m and y's ratio (d - m)/(eta - 1) in
    one window, which holds at most one even integer, so a step keeps every
    color's verdict; the engine computes the condition-3 colors once.
    Exhaustive over two colors at y = 0 with 0-4 loops, 0-3 edges to vertex
    1 and eta(0) in 2..4, which includes colors that fail only at y."""
    steps = 0
    for loops, edges, eta0 in itertools.product(
        itertools.product(range(5), repeat=2),
        itertools.product(range(4), repeat=2),
        range(2, 5),
    ):
        cg = ColoredMultigraph(2, [0, 1])
        for j in (1, 2):
            cg.layer(j).add_loops(0, loops[j - 1])
            cg.layer(j).add_edges(0, 1, edges[j - 1])
        eta = AmalgamationSpec({0: eta0, 1: 1})
        while eta.value(0) >= 2:
            before = condition3_colors(cg, eta)
            cg, eta, _ = detach_step(cg, eta, 0)
            assert condition3_colors(cg, eta) == before, (loops, edges, eta0)
            steps += 1
    assert steps == 2400


def multiplicity(bipartite, l, r) -> int:
    """m(l, r) of a (lefts, rights, pairs) graph."""
    return sum(n for a, b, n in bipartite[2] if (a, b) == (l, r))


def left_degree(bipartite, l) -> int:
    return sum(n for a, _, n in bipartite[2] if a == l)


def right_degree(bipartite, r) -> int:
    return sum(n for _, b, n in bipartite[2] if b == r)


def assert_peel_order(bipartite) -> None:
    """Sorted sides, sorted pairs with positive multiplicities on those sides."""
    lefts, rights, pairs = bipartite
    assert list(lefts) == sorted(lefts) and list(rights) == sorted(rights)
    assert pairs == sorted(pairs)
    assert len({(l, r) for l, r, _ in pairs}) == len(pairs)
    assert all(l in lefts and r in rights and n > 0 for l, r, n in pairs)


def fan_graph(cg: ColoredMultigraph, y):
    """The fan of y as its skeleton and as a labeled (colors, rights, pairs)
    tuple."""
    fan = build_split_bipartite(cg, y)
    sk = fan.skeleton()
    return sk, skeleton_graph(sk, range(1, cg.k + 1), fan.rights)


def test_build_split_bipartite_loop_rule() -> None:
    cg = ColoredMultigraph(1, [0])
    cg.layer(1).add_loops(0, 2)
    fan, graph = fan_graph(cg, 0)
    assert multiplicity(graph, 1, LOOP_PROXY) == 4
    # color 1 is node 2 and the proxy node k + 2 = 3
    assert fan.ends == [(2, 3)]


def test_build_split_bipartite_color_rows() -> None:
    cg = ColoredMultigraph(2, [0, 1])
    cg.layer(2).add_edges(0, 1, 3)
    fan, graph = fan_graph(cg, 0)
    assert multiplicity(graph, 2, 1) == 3
    assert left_degree(graph, 1) == 0
    # every color is a left vertex even at degree 0, and the proxy is the
    # first right vertex even without loops
    assert graph[0] == [1, 2]
    assert graph[1] == [LOOP_PROXY, 1]
    assert (fan.n_left, fan.ends, fan.mult) == (2, [(3, 5)], [3])


def test_build_split_bipartite_degree_identities() -> None:
    rng = random.Random(41)
    for _ in range(50):
        cg, _ = random_detach_instance(rng)
        y = cg.vertices[rng.randrange(len(cg.vertices))]
        fan, graph = fan_graph(cg, y)
        assert_peel_order(graph)
        under = cg.underlying()
        for j in range(1, cg.k + 1):
            assert left_degree(graph, j) == cg.layer(j).degree(y) == fan.deg[j + 1]
        assert right_degree(graph, LOOP_PROXY) == 2 * under.loops(y)
        assert graph[1] == [LOOP_PROXY, *under.neighbors(y)]
        for u in under.neighbors(y):
            assert right_degree(graph, u) == under.multiplicity(y, u)
        assert fan.total == sum(n for _, _, n in graph[2])


def expand_refined(refined, rights, picked):
    """refine's output with its settled double units put back, each with
    pair (label, w, 2) and picked 1, among the other units in the order
    they were formed: (owner, (lefts, rights, pairs)) and the pick's class
    1 on those pairs, as the engine built them before it settled units."""
    owner, pick, settled = refined
    rows = [[] for _ in owner]
    for (a, b), n, f in zip(pick.ends, pick.mult, picked):
        rows[a - 2].append((rights[b - len(owner) - 2], n, f))
    units = [(j, [(rights[r], 2, 1)]) for j, r in settled]
    units += zip(owner, rows)
    units.sort(key=lambda unit: unit[0])  # a color's settled units come first
    pairs = [(label, w, n) for label, (_, row) in enumerate(units) for w, n, _ in row]
    graph = (list(range(len(units))), list(rights), pairs)
    return [j for j, _ in units], graph, [f for _, row in units for _, _, f in row]


def moves_of(owner, pairs, picked) -> MoveSet:
    """The moves that class 1 of a pick spells, read in the order of its
    (unit, right label, multiplicity) pairs: each edge of a unit of color
    j moves one color-j edge end y-w to the new vertex, or one loop at y
    when w is the loop proxy."""
    edge_moves: dict = {}
    loop_moves: dict = {}
    for (label, w, _), f in zip(pairs, picked):
        j = owner[label]
        if f and w == LOOP_PROXY:
            loop_moves[j] = loop_moves.get(j, 0) + f
        elif f:
            row = edge_moves.setdefault(j, {})
            row[w] = row.get(w, 0) + f
    return MoveSet(edge_moves, loop_moves)


def refine_rows(rows: dict, cond3, comp_map):
    """refine on a working subgraph given as rows {color: {w: n}}, read as
    the engine reads it off a fan skeleton; its output is returned with
    the settled units put back (see expand_refined), beside the raw one,
    the pick's skeleton as its pairs and degrees: (owner, ends, mult, deg,
    settled)."""
    k = max(rows)
    rights = [LOOP_PROXY, *sorted({w for row in rows.values() for w in row} - {LOOP_PROXY})]
    pairs = [(j, w, rows[j][w]) for j in sorted(rows) for w in sorted(rows[j])]
    fan = _skeleton_of((range(1, k + 1), rights, pairs))
    raw = refine(fan, fan.mult, rights, cond3, comp_map)
    owner, pick, settled = raw
    assert pick.n_left == len(owner)
    owner, graph, _ = expand_refined(raw, rights, [0] * len(pick.ends))
    return (owner, graph), (raw[0], pick.ends, pick.mult, pick.deg, settled)


def units_of(refined, j):
    """The left labels refine gave color j."""
    owner, _ = refined
    return [label for label, c in enumerate(owner) if c == j]


def test_refine_parallel_pairs_saturate() -> None:
    refined, raw = refine_rows({1: {7: 4}}, {1}, {1: {7: 7}})
    # both units are double units: settled, none left for the pick
    assert raw == ([], [], [], [0, 0, 0, 0], [(1, 1), (1, 1)])
    assert len(units_of(refined, 1)) == 2
    for label in units_of(refined, 1):
        assert multiplicity(refined[1], label, 7) == 2


def test_refine_forced_order() -> None:
    # edges u,u,w,x: one unit takes (u,u) by parallel pairing, the other (w,x)
    refined, _ = refine_rows({1: {5: 2, 6: 1, 7: 1}}, {1}, {1: {5: 5, 6: 6, 7: 6}})
    graph = refined[1]
    assert_peel_order(graph)
    unit_rows = []
    for label in units_of(refined, 1):
        row = {
            w: multiplicity(graph, label, w)
            for w in graph[1]
            if multiplicity(graph, label, w)
        }
        unit_rows.append(row)
    assert {5: 2} in unit_rows
    assert {6: 1, 7: 1} in unit_rows


def test_refine_unsplit_colors_keep_their_rows() -> None:
    refined, _ = refine_rows({1: {5: 3}}, set(), {})
    assert units_of(refined, 1) == [0]
    assert multiplicity(refined[1], 0, 5) == 3


def test_refine_proxy_pairs_last_and_sorts_first() -> None:
    # color 1 pairs its two edges to 4 first; the leftovers 3 and the proxy
    # share no component, so the residue joins them into one unit, whose
    # pairs list the proxy first; unsplit color 2 keeps its proxy row
    rows = {1: {LOOP_PROXY: 1, 3: 1, 4: 2}, 2: {LOOP_PROXY: 2}}
    (owner, graph), raw = refine_rows(rows, {1}, {1: {3: 3, 4: 4}})
    # the (4, 4) unit is settled; the pick has two left nodes (2, 3) and
    # right nodes 4, 5, 6 for the proxy, 3 and 4, and 4 has none left
    assert raw == ([1, 2], [(2, 4), (2, 5), (3, 4)], [1, 1, 2], [0, 0, 2, 2, 3, 1, 0], [(1, 2)])
    assert owner == [1, 1, 2]
    assert_peel_order(graph)
    assert graph[2] == [
        (0, 4, 2),
        (1, LOOP_PROXY, 1),
        (1, 3, 1),
        (2, LOOP_PROXY, 2),
    ]


def unit_endpoints(refined, j):
    _, graph = refined
    out = []
    for label in units_of(refined, j):
        row = []
        for w in graph[1]:
            row.extend([w] * multiplicity(graph, label, w))
        out.append(tuple(sorted(row, key=lambda w: (w == LOOP_PROXY, w))))
    return out


def pairing_score(units, comp_of):
    same_vertex = sum(1 for a, b in units if a == b)
    same_comp = sum(
        1
        for a, b in units
        if a != b
        and a != LOOP_PROXY
        and b != LOOP_PROXY
        and comp_of[a] == comp_of[b]
    )
    return (same_vertex, same_comp)


def test_refine_pairing_is_lexicographically_maximal() -> None:
    rng = random.Random(43)
    for _ in range(60):
        n_w = rng.randint(1, 4)
        ws = list(range(n_w))
        comp = {w: rng.randint(0, 1) for w in ws}
        # refine reads labels through _find: label each vertex by the
        # smallest member of its component, which maps to itself
        comp_of = {w: min(v for v in ws if comp[v] == comp[w]) for w in ws}
        row = {}
        total = 0
        for w in ws:
            n = rng.randint(0, 3)
            if n:
                row[w] = n
                total += n
        if total == 0 or total % 2 or total > 8:
            continue
        refined, _ = refine_rows({1: dict(row)}, {1}, {1: comp_of})
        units = [(r[0], r[1]) for r in unit_endpoints(refined, 1)]
        got = pairing_score(units, comp_of)

        endpoints = []
        for w in sorted(row):
            endpoints.extend([w] * row[w])
        best = max(
            pairing_score(p, comp_of) for p in all_pairings(endpoints)
        )
        assert got == best


def test_moved_total_counts_every_moved_edge_end_and_loop() -> None:
    assert MoveSet({1: {2: 3, 4: 1}, 2: {5: 2}}, {1: 2, 3: 1}).moved_total() == 9


def test_detach_step_single_loop() -> None:
    cg, eta = loops_only_instance(1, 1, 2)
    out, new_eta, v_new = detach_step(cg, eta, 0)
    assert v_new == 1
    assert out.layer(1).multiplicity(0, 1) == 1
    assert out.loops(0) == 0
    assert new_eta.value(0) == 1
    assert new_eta.value(1) == 1


def test_detach_step_three_loops_first_move() -> None:
    cg, eta = loops_only_instance(1, 3, 3)
    out, new_eta, v_new = detach_step(cg, eta, 0)
    assert out.layer(1).loops(0) == 1
    assert out.layer(1).multiplicity(0, v_new) == 2
    assert new_eta.value(0) == 2


def test_detach_step_requires_splittable_vertex() -> None:
    cg = ColoredMultigraph(1, [0])
    with pytest.raises(PreconditionError):
        detach_step(cg, AmalgamationSpec({0: 1}), 0)


def test_step_rejects_a_qualifying_color_short_of_units(monkeypatch) -> None:
    """Drop the last unit of color 2 from refine's output: the step must
    name the color and its unit count."""
    cg, eta = loops_only_instance(3, 3, 3)  # every color: degree 6, 2 units

    def short_refine(*args):
        owner, pick, settled = refine(*args)
        # every unit of this step is a double unit, settled outside the pick
        drop = max(i for i, (j, _) in enumerate(settled) if j == 2)
        return owner, pick, settled[:drop] + settled[drop + 1 :]

    monkeypatch.setattr(engine, "refine", short_refine)
    state = engine._DetachState(cg.copy(), dict(eta.eta))
    with pytest.raises(AssertionError) as err:
        engine._step(state, 0)
    assert str(err.value) == "color 2: split into 1 units, not 2"


def test_step_catches_a_fan_coloring_two_ends_off(monkeypatch) -> None:
    """Give condition-3 color 2 two working edge ends more than 2 * degree/eta
    in the fan coloring: refine pairs them into one unit too many, and both
    a bare step and a checked detachment name the color and both counts."""
    real = engine.bee_coloring

    def shifted(bg, k, *, upto=None):
        classes = real(bg, k, upto=upto)
        if upto == 2:  # the fan; the pick peels one class
            first = list(classes[0])
            first[next(i for i, (a, _) in enumerate(bg.ends) if a == 3)] += 2  # color 2
            classes = [first, *classes[1:]]
        return classes

    monkeypatch.setattr(engine, "bee_coloring", shifted)
    cg, eta = loops_only_instance(3, 3, 3)  # every color: degree 6, 2 units
    state = engine._DetachState(cg.copy(), dict(eta.eta))
    with pytest.raises(AssertionError, match=r"^color 2: split into 3 units, not 2$"):
        engine._step(state, 0)
    cg, eta = lambda_kn_host(7, 1)  # every color: degree 14, 2 units at eta 7
    with pytest.raises(AssertionError, match=r"^color 2: split into 3 units, not 2$"):
        detach_all(cg, eta, check=True)


def test_detach_step_preserves_edge_counts_and_relations() -> None:
    rng = random.Random(47)
    for _ in range(60):
        cg, eta = random_detach_instance(rng)
        ys = [v for v in cg.vertices if eta.value(v) >= 2]
        if not ys:
            continue
        y = ys[0]
        out, _, v_new = detach_step(cg, eta, y)
        for j in range(1, cg.k + 1):
            assert out.layer(j).edge_count() == cg.layer(j).edge_count()
        ok, witness = assert_step_relations(cg, out, y, v_new, eta)
        assert ok, witness


def test_detach_all_identity_when_eta_is_one() -> None:
    cg = ColoredMultigraph(2, [0, 1])
    cg.layer(1).add_edges(0, 1, 3)
    eta = AmalgamationSpec({0: 1, 1: 1})
    g, psi, trace = detach_all(cg, eta)
    assert trace.steps == []
    assert g == cg
    assert psi.fibers == {0: [0], 1: [1]}


def test_detach_all_four_parallel_edges_to_c4() -> None:
    cg = ColoredMultigraph(1, [0, 1])
    cg.layer(1).add_edges(0, 1, 4)
    eta = AmalgamationSpec({0: 2, 1: 2})
    g, psi, trace = detach_all(cg, eta, check=True)
    under = g.underlying()
    assert len(under.vertices) == 4
    for v in under.vertices:
        assert under.degree(v) == 2
    assert all(n == 1 for _, _, n in under.pairs())
    assert g.layer(1).component_count() == 1
    assert verify_detachment(cg, eta, psi, g).ok


def test_detach_all_rejects_loop_on_unsplit_vertex() -> None:
    cg = ColoredMultigraph(1, [0])
    cg.layer(1).add_loops(0, 1)
    with pytest.raises(PreconditionError):
        detach_all(cg, AmalgamationSpec({0: 1}))


def test_detach_all_refuses_a_loop_left_in_any_color(monkeypatch) -> None:
    """A step that gives its new vertex a loop, in the last color, passes
    the step's own check on y, and detach_all still refuses the result."""
    apply = engine.apply_moves

    def loop_at_new_vertex(cg, rec):
        apply(cg, rec)
        cg.layer(cg.k).add_loops(rec.v_new)

    monkeypatch.setattr(engine, "apply_moves", loop_at_new_vertex)
    cg, eta = loops_only_instance(3, 2, 2)
    with pytest.raises(AssertionError, match="^detached graph still carries loops$"):
        detach_all(cg, eta)


def test_detach_all_step_count_and_trace_replay() -> None:
    rng = random.Random(53)
    cg, eta = random_detach_instance(rng)
    g, psi, trace = detach_all(cg, eta)
    assert len(trace.steps) == eta.total_splits()
    cur = cg.copy()
    for rec in trace.steps:
        engine.apply_moves(cur, rec)
    assert cur == g


def test_detach_all_lambda_k5_from_loops() -> None:
    # one amalgamated vertex with 10 loops in 2 colors of 5 each detaches to
    # K_5 with both classes spanning cycles
    cg = ColoredMultigraph(2, [0])
    cg.layer(1).add_loops(0, 5)
    cg.layer(2).add_loops(0, 5)
    eta = AmalgamationSpec({0: 5})
    g, psi, trace = detach_all(cg, eta, check=True)
    under = g.underlying()
    assert len(under.vertices) == 5
    assert all(n == 1 for _, _, n in under.pairs())
    assert len(under.pairs()) == 10
    for j in (1, 2):
        assert g.layer(j).component_count() == 1
        assert all(g.layer(j).degree(v) == 2 for v in g.vertices)
    assert verify_detachment(cg, eta, psi, g).ok


def lambda_kn_host(n: int, lam: int):
    """The lambda*K_n host of ham_decompose_lambda_kn: every color n loops."""
    k = lam * (n - 1) // 2
    cg = ColoredMultigraph(k, [0])
    for j in range(1, k + 1):
        cg.layer(j).add_loops(0, n)
    return cg, AmalgamationSpec({0: n})


@pytest.mark.parametrize(
    "n, lam",
    [(n, lam) for lam in (1, 2) for n in range(3, 16) if lam * (n - 1) % 2 == 0],
)
def test_detach_all_lambda_kn_checked(n: int, lam: int) -> None:
    cg, eta = lambda_kn_host(n, lam)
    g, psi, _ = detach_all(cg, eta, check=True)
    for j in range(1, cg.k + 1):
        assert g.layer(j).component_count() == 1
        assert all(g.layer(j).degree(v) == 2 for v in g.vertices)
    assert verify_detachment(cg, eta, psi, g).ok


def test_detach_all_deterministic() -> None:
    rng = random.Random(59)
    cg, eta = random_detach_instance(rng)
    g1, _, _ = detach_all(cg, eta)
    g2, _, _ = detach_all(cg.copy(), AmalgamationSpec(dict(eta.eta)))
    assert g1 == g2


def gdd_engine_inputs(params: GddParams):
    """Every (graph, eta) that ham_decompose_gdd hands to detach_all."""
    seen = []

    def recording(cg, eta, check=False):
        seen.append((cg.copy(), AmalgamationSpec(dict(eta.eta))))
        return detach_all(cg, eta, check)

    original = hamilton.detach_all
    hamilton.detach_all = recording
    try:
        ham_decompose_gdd(params)
    finally:
        hamilton.detach_all = original
    return seen


GDD_PARAMS = [
    ((2, 2), 0, 1),
    ((3, 3, 3), 1, 2),
    ((2, 2, 2), 2, 1),
    ((3, 3), 1, 2),
    ((4, 4, 4), 2, 3),
]


def step_instances(family: str):
    if family == "lambda_kn":
        return [
            lambda_kn_host(n, lam)
            for lam in (1, 2, 3)
            for n in range(2, 16)
            if lam * (n - 1) % 2 == 0
        ]
    if family == "gdd":
        return [
            inputs
            for sizes, l1, l2 in GDD_PARAMS
            for inputs in gdd_engine_inputs(GddParams(sizes, l1, l2))
        ]
    return [random_detach_instance(random.Random(seed)) for seed in range(300)]


def recording(monkeypatch, name: str, calls: list, snap=None) -> None:
    """Record every (args, result) of engine.<name> into calls; with `snap`,
    record snap(*args), taken before the call, in place of args."""
    fn = getattr(engine, name)

    def record(*args, **kwargs):
        before = snap(*args) if snap else args
        result = fn(*args, **kwargs)
        calls.append((before, result))
        return result

    monkeypatch.setattr(engine, name, record)


def summed_degrees(sk):
    """Every node degree of a skeleton, summed over its pairs."""
    deg = [0] * len(sk.deg)
    for (a, b), n in zip(sk.ends, sk.mult):
        deg[a] += n
        deg[b] += n
    return deg


def fan_from_counts(cg: ColoredMultigraph, y) -> list:
    """y's fan read off the counts of cg: per color, the loop proxy at twice
    y's loops, then y's neighbors ascending with their multiplicities."""
    c = counts_of(cg)
    pairs = []
    for j in range(1, cg.k + 1):
        if c.loops[j].get(y):
            pairs.append((j, LOOP_PROXY, 2 * c.loops[j][y]))
        pairs += [(j, w, n) for w, n in sorted(c.adj[j][y].items())]
    return pairs


def ordered(moves: MoveSet):
    """A move set as lists, so that comparing two also compares their order."""
    return (
        [(j, list(row.items())) for j, row in moves.edge_moves.items()],
        list(moves.loop_moves.items()),
    )


@pytest.mark.parametrize("family", ["lambda_kn", "gdd", "fuzz"])
def test_step_matches_graph_building_reference(family: str, monkeypatch) -> None:
    """Every stage of every step meets its definition.  The fan the step
    peels, live or freshly built, is y's rows read off the graph's counts;
    its classes 1 and 2 meet the peel windows of an eta(y)-coloring and sum
    to the working subgraph (at eta(y) = 2 the step takes that sum as the
    one class of a 1-coloring: the whole fan); refine splits each
    condition-3 color of that subgraph into degree-2 units and keeps every
    other color whole; and the pick's class 1 meets the windows of a
    2-coloring (test_pick_matches_the_full_pick_of_every_unit checks it
    against every unit, and the moves it spells).  A right vertex that y
    has lost stays in a live fan, isolated."""
    instances = step_instances(family)  # the GDDs run detach_all: unpatched
    colorings, refines = [], []
    # a peel changes its skeleton: keep what each coloring was given
    recording(
        monkeypatch,
        "bee_coloring",
        colorings,
        lambda sk, *_: (
            sk,
            SimpleNamespace(ends=list(sk.ends), mult=list(sk.mult), deg=list(sk.deg)),
        ),
    )
    # a live fan appends to its right labels after the step
    recording(monkeypatch, "refine", refines, lambda *a: (*a[:2], list(a[2]), *a[3:]))
    steps = isolated = eta_two = 0
    for cg, eta in instances:
        state = engine._DetachState(cg.copy(), dict(eta.eta))
        k = cg.k
        for y in [v for v in cg.vertices if eta.value(v) >= 2]:
            while state.eta[y] >= 2:
                eta_y, want_fan = state.eta[y], fan_from_counts(state.cg, y)
                del colorings[:], refines[:]
                engine._step(state, y)
                [((fan, fan_given), classes), ((pick, pick_given), picked)] = colorings
                [((fan_refined, working, rights, cond3, _), refined)] = refines
                assert fan_refined is fan
                assert fan_given.deg == summed_degrees(fan_given)
                isolated += sum(
                    1 for w, d in zip(rights, fan_given.deg[k + 2 :]) if not d and w != LOOP_PROXY
                )
                fan_pairs = skeleton_graph(fan_given, range(1, k + 1), rights)[2]
                assert fan_pairs == want_fan
                if eta_y == 2:
                    assert classes == [working] == [[n for _, _, n in want_fan]]
                    given = (list(fan_given.ends), list(fan_given.mult), list(fan_given.deg))
                    classes = bee_coloring(_Skeleton(fan.n_left, *given), 2)
                    eta_two += 1
                assert "peel" not in coloring_violations(fan_pairs, classes, eta_y)
                assert working == list(map(add, *classes))
                owner, (_, _, units), unit_picked = expand_refined(refined, rights, picked[0])
                got = Counter()
                for label, w, n in units:
                    got[owner[label], w] += n
                assert got == Counter({(j, w): n for (j, w, _), n in zip(fan_pairs, working) if n})
                degree = Counter()
                for label, _, n in units:
                    degree[label] += n
                assert [j for j in owner if j not in cond3] == sorted(set(range(1, k + 1)) - cond3)
                assert all(degree[label] == 2 for label, j in enumerate(owner) if j in cond3)
                # the pick peels refine's skeleton, the settled units left
                # out, with the degrees refine summed
                assert pick is refined[1]
                assert pick_given.deg == summed_degrees(pick_given)
                pick_pairs = skeleton_graph(pick_given, range(len(refined[0])), rights)[2]
                assert "peel" not in coloring_violations(pick_pairs, picked, 2)
                steps += 1
    assert steps > eta_two > 0
    assert isolated or family != "fuzz"


@pytest.mark.parametrize("family", ["lambda_kn", "gdd", "fuzz"])
def test_pick_matches_the_full_pick_of_every_unit(family: str, monkeypatch) -> None:
    """With every settled double unit put back, carrying 1, the pick's class
    1 meets the peel windows of a 2-coloring of all the units, which is why
    refine may settle them outside the flow; the step's moves are what that
    class spells, in its order.  Some steps settle every unit and still
    peel the empty pick, so every step makes two bee colorings."""
    instances = step_instances(family)  # the GDDs run detach_all: unpatched
    colorings, refines = [], []
    recording(monkeypatch, "bee_coloring", colorings)
    # a live fan appends to its right labels after the step
    recording(monkeypatch, "refine", refines, lambda *a: (*a[:2], list(a[2]), *a[3:]))
    steps = empty = 0
    for cg, eta in instances:
        state = engine._DetachState(cg.copy(), dict(eta.eta))
        for y in [v for v in cg.vertices if eta.value(v) >= 2]:
            while state.eta[y] >= 2:
                got = engine._step(state, y).moves
                [((_, _, rights, _, _), refined)] = refines
                picked = colorings[-1][1][0]
                del refines[:]
                owner, (_, _, units), unit_picked = expand_refined(refined, rights, picked)
                assert "peel" not in coloring_violations(units, [unit_picked], 2)
                assert ordered(got) == ordered(moves_of(owner, units, unit_picked))
                empty += not refined[1].ends
                steps += 1
    assert steps > 30
    assert empty > 0
    assert len(colorings) == 2 * steps


# what each family's steps must include: live fans with dead pairs always,
# right vertices that y lost (isolated in its live fan), a live fan at more
# than one y of a detachment, and vertices with eta = 2, whose one step
# drops the fan it built
LIVE_FAN_COVERAGE = {
    "lambda_kn": {"dead"},
    "gdd": {"dead", "y changes", "eta 2"},
    "fuzz": {"dead", "isolated", "y changes", "eta 2"},
}


@pytest.mark.parametrize("family", ["lambda_kn", "gdd", "fuzz"])
def test_incremental_state_matches_oracles_on_every_step(family: str) -> None:
    """Before every step the state's condition-3 colors are condition3_colors
    of the working graph, and per color its union-find gives every vertex
    of the color class minus y its label in _component_map."""
    steps = 0
    for cg, eta in step_instances(family):
        state = engine._DetachState(cg.copy(), dict(eta.eta))
        for y in [v for v in cg.vertices if eta.value(v) >= 2]:
            while state.eta[y] >= 2:
                cond3 = condition3_colors(state.cg, AmalgamationSpec(dict(state.eta)))
                assert state.cond3 == cond3
                oracle = engine._component_map(state.cg, y, cond3)
                labels = state.labels(y)
                assert sorted(labels) == sorted(cond3)
                for j in cond3:
                    # the labels are the state's union-find, exact everywhere
                    parent = labels[j]
                    assert parent is state.uf[j]
                    assert {v: engine._find(parent, v) for v in oracle[j]} == oracle[j]
                engine._step(state, y)
                steps += 1
        assert all(n == 1 for n in state.eta.values())
    assert steps > 0


@pytest.mark.parametrize("family", ["lambda_kn", "gdd", "fuzz"])
def test_live_fan_matches_a_fresh_build_on_every_step(family: str, monkeypatch) -> None:
    """Before every step at a y that an earlier step used, the live fan's
    skeleton has the pairs of a fresh build in its order, with the same
    multiplicities and degrees, by label; a right vertex y has lost stays
    in it with degree 0.  A fan is built exactly at the first step at a y,
    kept while eta(y) >= 2 and dropped after y's last step."""
    instances = step_instances(family)  # the GDDs run detach_all: unpatched
    builds: list = []
    recording(monkeypatch, "build_split_bipartite", builds)
    seen = dict.fromkeys(["live", "dead", "isolated", "y changes", "eta 2"], 0)
    for cg, eta in instances:
        state = engine._DetachState(cg.copy(), dict(eta.eta))
        k = cg.k
        fan_ys = 0
        for y in [v for v in cg.vertices if eta.value(v) >= 2]:
            seen["eta 2"] += eta.value(y) == 2
            first = True
            while state.eta[y] >= 2:
                live = state.fan
                assert (live is not None) == (not first)
                if live is not None:
                    assert live.y == y
                    sk = live.skeleton()
                    fresh_fan = build_split_bipartite(state.cg, y)
                    fresh, rights = fresh_fan.skeleton(), fresh_fan.rights
                    got = skeleton_graph(sk, range(1, k + 1), live.rights)
                    assert got[2] == skeleton_graph(fresh, range(1, k + 1), rights)[2]
                    assert sk.deg[: k + 2] == fresh.deg[: k + 2]
                    assert sk.total == fresh.total
                    deg = dict(zip(live.rights, sk.deg[k + 2 :]))
                    assert [w for w in live.rights if w in rights] == rights
                    assert {w: deg[w] for w in rights} == dict(zip(rights, fresh.deg[k + 2 :]))
                    lost = [w for w in live.rights if w not in rights]
                    assert all(deg[w] == 0 for w in lost)
                    seen["live"] += 1
                    seen["dead"] += len(sk.mult) < sum(map(len, live.mult))
                    seen["isolated"] += len(lost)
                del builds[:]
                engine._step(state, y)
                assert len(builds) == first
                kept = builds[0][1] if first else live
                assert state.fan is (kept if state.eta[y] >= 2 else None)
                first = False
            assert state.fan is None
            fan_ys += eta.value(y) > 2
        seen["y changes"] += fan_ys > 1
    assert seen["live"] > 0
    assert {key for key, n in seen.items() if n and key != "live"} >= LIVE_FAN_COVERAGE[family]


def test_checked_detach_catches_a_stale_live_fan(monkeypatch) -> None:
    """detach_all(check=True) compares the live fan with a fresh build
    before every step: a fan that skips the proxy decrement of its moved
    loops is caught before the step that would peel it."""
    apply = engine._LiveFan.apply

    def skip_proxy_decrement(self, rec):
        apply(self, rec)
        for j, nl in rec.moves.loop_moves.items():
            self.mult[j][0] += 2 * nl  # the proxy heads the row

    cg, eta = lambda_kn_host(7, 1)
    detach_all(cg, eta, check=True)
    monkeypatch.setattr(engine._LiveFan, "apply", skip_proxy_decrement)
    with pytest.raises(AssertionError, match=r"^live fan of vertex 0 differs from a fresh build$"):
        detach_all(cg, eta, check=True)


def test_checked_detach_catches_a_changed_component_count(monkeypatch) -> None:
    """detach_all(check=True) counts each condition-3 color's components
    once, before the first step, and compares every step's graph with that
    count: refine given a component map in which every vertex is its own
    component pairs leftovers across components, and the check names the
    first color that splits.  Unchecked, the same detachment runs through."""
    # the amalgam of the group divisible graph, after the inner lambda K_3
    _, (cg, eta) = gdd_engine_inputs(GddParams((3, 3, 3), 1, 2))
    assert (cg.k, eta.eta) == (7, {0: 3, 1: 3, 2: 3})
    real = engine.refine

    def no_components(fan, working, rights, cond3, component_map):
        alone = {j: {v: v for v in parent} for j, parent in component_map.items()}
        return real(fan, working, rights, cond3, alone)

    monkeypatch.setattr(engine, "refine", no_components)
    with pytest.raises(AssertionError, match=r"^color 5 changed component count$"):
        detach_all(cg, eta, check=True)
    g, _, _ = detach_all(cg, eta)
    assert g.layer(5).component_count() > cg.layer(5).component_count()


def test_checked_detach_catches_a_lost_condition3_color(monkeypatch) -> None:
    """detach_all(check=True) compares the state's condition-3 colors with
    condition3_colors after every step: a state that drops its largest one
    is caught after the first step."""
    init = engine._DetachState.__init__

    def drop_largest(self, cg, eta):
        init(self, cg, eta)
        self.cond3.discard(max(self.cond3))

    monkeypatch.setattr(engine._DetachState, "__init__", drop_largest)
    cg, eta = loops_only_instance(2, 3, 3)  # both colors: degree 6, 2 units
    with pytest.raises(AssertionError, match=r"^condition-3 colors \[1\] != \[1, 2\]$"):
        detach_all(cg, eta, check=True)


def _split_counts(cg: ColoredMultigraph, rec: StepRecord) -> Counts:
    c = counts_of(cg)
    _split(c, rec)
    return c


def _apply_to_copy(cg: ColoredMultigraph, rec: StepRecord) -> ColoredMultigraph:
    out = cg.copy()
    engine.apply_moves(out, rec)
    return out


def _move_mutants(cg: ColoredMultigraph, rec: StepRecord):
    """rec with one odd entry each: zero, negative and over-counts, an
    unknown w, w == y, w == v_new, an unknown color, an unknown y and a new
    vertex that exists; an edited entry keeps its place in the move set."""
    y, v_new, eta_y = rec.y, rec.v_new, rec.eta_y_before
    edge_moves, loop_moves = rec.moves.edge_moves, rec.moves.loop_moves
    j = next(iter(edge_moves), 1)
    row = cg.layer(j).row(y)
    w, m = row[-1] if row else (y, 0)
    nl = cg.layer(j).loops(y)
    unknown = v_new + 5

    def with_edge(c, u, n):
        edges = {c: dict(r) for c, r in edge_moves.items()}
        edges.setdefault(c, {})[u] = n
        return StepRecord(y, v_new, eta_y, MoveSet(edges, dict(loop_moves)))

    def with_loops(c, n):
        edges = {c: dict(r) for c, r in edge_moves.items()}
        return StepRecord(y, v_new, eta_y, MoveSet(edges, {**loop_moves, c: n}))

    yield from (with_edge(j, w, n) for n in (0, -2, m, m + 1))
    yield from (with_edge(j, u, n) for u in (unknown, y, v_new) for n in (-1, 0, 1))
    yield from (with_loops(j, n) for n in (0, -2, nl, nl + 1))
    yield with_edge(cg.k + 1, w, 1)
    yield with_loops(0, 1)
    yield StepRecord(unknown, v_new, eta_y, rec.moves)
    yield StepRecord(unknown, v_new, eta_y, MoveSet({}, {}))
    yield StepRecord(unknown, v_new, eta_y, MoveSet({}, {1: 0}))
    yield StepRecord(y, y, eta_y, rec.moves)


def test_moves_match_the_checked_reference_on_fuzz_traces() -> None:
    """apply_moves (the one move path), on a copy, against `helpers._split`,
    the move checked and applied on plain counts, on every step of the fuzz
    traces and on mutated move sets: the same counts, or a GraphError from
    both."""
    steps, errors = 0, set()
    for cg, eta in step_instances("fuzz"):
        _, _, trace = detach_all(cg, eta)
        cur = cg
        for rec in trace.steps:
            for cand in (rec, *_move_mutants(cur, rec)):
                got = outcome(_apply_to_copy, cur, cand)
                want = outcome(_split_counts, cur, cand)
                if isinstance(want, Counts):
                    assert counts_of(got) == want
                else:
                    assert got[0] == want[0] == "GraphError", (got, want)
                    errors.add(re.sub(r"-?\d+", "N", got[1]))
            cur = _apply_to_copy(cur, rec)
            steps += 1
    assert steps > 300
    assert errors == {
        "new vertex N already exists",
        "unknown vertex N",
        "color N out of range N..N",
        "cannot remove N edges from m(N,N)=N",
        "cannot remove N loops from l(N)=N",
    }


def test_detach_all_and_detach_step_leave_inputs_unmodified() -> None:
    instances = [random_detach_instance(random.Random(seed)) for seed in range(40)]
    instances.append(lambda_kn_host(9, 2))
    for cg, eta in instances:
        cg0, eta0 = cg.copy(), AmalgamationSpec(dict(eta.eta))
        detach_all(cg, eta)
        assert cg == cg0 and eta == eta0
        detach_all(cg, eta, check=True)
        assert cg == cg0 and eta == eta0
        for y in cg.vertices:
            if eta.value(y) >= 2:
                out, new_eta, v_new = detach_step(cg, eta, y)
                assert cg == cg0 and eta == eta0
                assert out != cg and new_eta.value(y) == eta.value(y) - 1
