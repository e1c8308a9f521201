from __future__ import annotations

import random

import pytest

from fairdetach import engine, hamilton
from fairdetach.engine import (
    LOOP_PROXY,
    SplitBipartite,
    build_split_bipartite,
    condition3_colors,
    detach_all,
    detach_step,
    refine,
)
from fairdetach.errors import PreconditionError
from fairdetach.fuzzgen import random_detach_instance
from fairdetach.hamilton import GddParams, ham_decompose_gdd
from fairdetach.multigraph import AmalgamationSpec, ColoredMultigraph, Multigraph
from fairdetach.verify import assert_step_relations, verify_detachment
from helpers import all_pairings, reference_step


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


def test_build_split_bipartite_loop_rule() -> None:
    cg = ColoredMultigraph(1, [0])
    cg.layer(1).add_loops(0, 2)
    fan = build_split_bipartite(cg, 0)
    assert multiplicity(fan, 1, LOOP_PROXY) == 4


def test_build_split_bipartite_color_rows() -> None:
    cg = ColoredMultigraph(2, [0, 1])
    cg.layer(2).add_edges(0, 1, 3)
    fan = build_split_bipartite(cg, 0)
    assert multiplicity(fan, 2, 1) == 3
    assert left_degree(fan, 1) == 0
    # every color is a left vertex even at degree 0, and the proxy is the
    # first right vertex even without loops
    assert list(fan[0]) == [1, 2]
    assert fan[1] == [LOOP_PROXY, 1]


def test_build_split_bipartite_degree_identities() -> None:
    rng = random.Random(41)
    for _ in range(50):
        cg, _ = random_detach_instance(rng)
        y = cg.vertices[rng.randrange(len(cg.vertices))]
        fan = build_split_bipartite(cg, y)
        assert_peel_order(fan)
        under = cg.underlying()
        for j in range(1, cg.k + 1):
            assert left_degree(fan, j) == cg.layer(j).degree(y)
        assert right_degree(fan, LOOP_PROXY) == 2 * under.loops(y)
        assert fan[1] == [LOOP_PROXY, *under.neighbors(y)]
        for u in under.neighbors(y):
            assert right_degree(fan, u) == under.multiplicity(y, u)


def working_graph(rows: dict) -> SplitBipartite:
    """Build a working (two-class) fan restriction from explicit rows."""
    k = max(rows)
    right = sorted({w for row in rows.values() for w in row})
    pairs = sorted((j, w, n) for j, row in rows.items() for w, n in row.items())
    return range(1, k + 1), right, pairs


def units_of(refined, j):
    """The left labels refine gave color j."""
    owner, _ = refined
    return [label for label, c in enumerate(owner) if c == j]


def test_refine_parallel_pairs_saturate() -> None:
    t = working_graph({1: {7: 4}})
    refined = refine(t, {1}, {1: {7: 7}})
    assert len(units_of(refined, 1)) == 2
    for label in units_of(refined, 1):
        assert multiplicity(refined[1], label, 7) == 2


def test_refine_forced_order() -> None:
    # edges u,u,w,x: one unit takes (u,u) by parallel pairing, the other (w,x)
    t = working_graph({1: {5: 2, 6: 1, 7: 1}})
    refined = refine(t, {1}, {1: {5: 5, 6: 6, 7: 6}})
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
    t = working_graph({1: {5: 3}})
    refined = refine(t, set(), {})
    assert units_of(refined, 1) == [0]
    assert multiplicity(refined[1], 0, 5) == 3


def test_refine_proxy_pairs_last_and_sorts_first() -> None:
    # color 1 pairs its two edges to 4 first; the leftovers 3 and the proxy
    # share no component, so the residue joins them into one unit, whose
    # pairs list the proxy first; unsplit color 2 keeps its proxy row
    t = working_graph({1: {LOOP_PROXY: 1, 3: 1, 4: 2}, 2: {LOOP_PROXY: 2}})
    owner, graph = refine(t, {1}, {1: {3: 3, 4: 4}})
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
        t = working_graph({1: dict(row)})
        refined = refine(t, {1}, {1: comp_of})
        units = [(r[0], r[1]) for r in unit_endpoints(refined, 1)]
        got = pairing_score(units, comp_of)

        endpoints = []
        for w in sorted(row):
            endpoints.extend([w] * row[w])
        best = max(
            pairing_score(p, comp_of) for p in all_pairings(endpoints)
        )
        assert got == best


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


def test_detach_all_step_count_and_trace_replay() -> None:
    rng = random.Random(53)
    cg, eta = random_detach_instance(rng)
    g, psi, trace = detach_all(cg, eta)
    assert len(trace.steps) == eta.total_splits()
    stages = trace.replay(cg)
    assert stages[0] == cg
    assert stages[-1] == g


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
            for lam in (1, 2)
            for n in range(3, 16)
            if lam * (n - 1) % 2 == 0
        ]
    if family == "gdd":
        return [
            inputs
            for sizes, l1, l2 in GDD_PARAMS
            for inputs in gdd_engine_inputs(GddParams(sizes, l1, l2))
        ]
    return [random_detach_instance(random.Random(seed)) for seed in range(120)]


@pytest.mark.parametrize("family", ["lambda_kn", "gdd", "fuzz"])
def test_incremental_state_matches_oracles_on_every_step(family: str) -> None:
    steps = 0
    for cg, eta in step_instances(family):
        state = engine._DetachState(cg.copy(), dict(eta.eta))
        for y in [v for v in cg.vertices if eta.value(v) >= 2]:
            while state.eta[y] >= 2:
                cond3 = condition3_colors(state.cg, AmalgamationSpec(dict(state.eta)))
                assert state.qualifying() == cond3
                for j, failing in enumerate(state.failing, start=1):
                    degree = state.cg.layer(j).degree
                    assert failing == {
                        v
                        for v in state.cg.vertices
                        if degree(v) == 0 or degree(v) % (2 * state.eta[v])
                    }
                oracle = engine._component_map(state.cg, y, cond3)
                labels = state.labels(y, cond3)
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


def recording(monkeypatch, name: str, calls: list) -> None:
    """Record every (args, result) of engine.<name> into calls."""
    fn = getattr(engine, name)

    def record(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(engine, name, record)


@pytest.mark.parametrize("family", ["lambda_kn", "gdd", "fuzz"])
def test_step_matches_graph_building_reference(family: str, monkeypatch) -> None:
    """Every stage of every step, from the fan to the moves, equals the
    step that built each stage as a BipartiteMultigraph."""
    fans, colorings, refines = [], [], []
    recording(monkeypatch, "build_split_bipartite", fans)
    recording(monkeypatch, "bee_coloring", colorings)
    recording(monkeypatch, "refine", refines)
    steps = 0
    for cg, eta in step_instances(family):
        state = engine._DetachState(cg.copy(), dict(eta.eta))
        for y in [v for v in cg.vertices if eta.value(v) >= 2]:
            while state.eta[y] >= 2:
                cond3 = condition3_colors(state.cg, AmalgamationSpec(dict(state.eta)))
                comp_map = engine._component_map(state.cg, y, cond3)
                want = reference_step(state.cg, y, state.eta[y], cond3, comp_map)
                del fans[:], colorings[:], refines[:]
                moves = engine._step(state, y).moves
                [(_, fan)], [(fan_call, classes), (_, picked)] = fans, colorings
                [((working, _, _), (owner, refined))] = refines
                assert fan_call[0] is fan
                lefts, rights, pairs = fan
                w_lefts, w_rights, w_pairs = working
                u_lefts, u_rights, u_pairs = refined
                got = {
                    "fan": (list(lefts), rights, pairs),
                    "classes": classes,
                    "working": (list(w_lefts), w_rights, w_pairs),
                    "refined": (owner, (list(u_lefts), u_rights, u_pairs)),
                    "picked": picked[0],
                    "moves": moves,
                }
                assert got == want
                steps += 1
    assert steps > 0


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
