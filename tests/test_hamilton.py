from __future__ import annotations

import random
from itertools import product

import pytest

from fairdetach import hamilton
from fairdetach.errors import GraphError, InfeasibleError, PreconditionError
from fairdetach.hamilton import (
    GddParams,
    _extract_cycle,
    _read_off,
    _relabel,
    gdd_feasible,
    ham_decompose_gdd,
    ham_decompose_lambda_kn,
    walecki_odd,
)
from fairdetach.multigraph import ColoredMultigraph, Multigraph
from fairdetach.verify import is_gdd, verify_ham_decomposition
from helpers import (
    brute_force_ham_decomposable,
    cycle_violations,
    mixed_edge_count,
    outcome,
    pure_edge_counts,
    spanning_cycles,
)


def test_walecki_triangle() -> None:
    d = walecki_odd(3)
    assert d.cycle_count == 1
    ok, witness = verify_ham_decomposition(d.host, list(d.cycles))
    assert ok, witness


def test_walecki_k5_union_is_complete() -> None:
    d = walecki_odd(5)
    assert d.cycle_count == 2
    ok, witness = verify_ham_decomposition(d.host, list(d.cycles))
    assert ok, witness
    assert all(n == 1 for _, _, n in d.host.pairs())
    assert len(d.host.pairs()) == 10
    # the hub 4, then the zigzag i, i+1, i-1, i+2 (mod 4) for i = 0, 1
    assert d.cycles == ((4, 0, 1, 3, 2), (4, 1, 2, 0, 3))


def test_walecki_k7() -> None:
    d = walecki_odd(7)
    assert d.cycle_count == 3
    ok, witness = verify_ham_decomposition(d.host, list(d.cycles))
    assert ok, witness


def test_walecki_rejects_even_n() -> None:
    with pytest.raises(PreconditionError):
        walecki_odd(4)


def test_lambda_kn_triangle() -> None:
    d = ham_decompose_lambda_kn(3, 1)
    assert d.cycle_count == 1
    assert verify_ham_decomposition(d.host, list(d.cycles))[0]


def test_lambda_kn_k5_matches_walecki_shape() -> None:
    d = ham_decompose_lambda_kn(5, 1)
    assert d.cycle_count == 2
    assert verify_ham_decomposition(d.host, list(d.cycles))[0]
    assert d.host == walecki_odd(5).host


def test_lambda_kn_doubled_k4() -> None:
    d = ham_decompose_lambda_kn(4, 2)
    assert d.cycle_count == 3
    assert verify_ham_decomposition(d.host, list(d.cycles))[0]
    assert all(n == 2 for _, _, n in d.host.pairs())


def test_lambda_kn_two_vertices() -> None:
    d = ham_decompose_lambda_kn(2, 4)
    assert d.cycle_count == 2
    assert verify_ham_decomposition(d.host, list(d.cycles))[0]


def test_lambda_kn_odd_parity_infeasible() -> None:
    with pytest.raises(InfeasibleError) as err:
        ham_decompose_lambda_kn(4, 1)
    assert err.value.message == "lambda*(n-1) = 1*3 is odd, so no decomposition exists"
    with pytest.raises(InfeasibleError):
        ham_decompose_lambda_kn(6, 3)


def test_lambda_kn_rejects_bad_arguments() -> None:
    with pytest.raises(PreconditionError):
        ham_decompose_lambda_kn(1, 1)
    with pytest.raises(PreconditionError):
        ham_decompose_lambda_kn(3, 0)


def test_gdd_feasible_unequal_sizes() -> None:
    f = gdd_feasible(GddParams((2, 3), 1, 2))
    assert not f.feasible
    assert f.condition == "(i)"


def test_gdd_feasible_positive_case_k7() -> None:
    f = gdd_feasible(GddParams((3, 3, 3), 1, 2))
    assert f.feasible
    assert f.k == 7  # (1*2 + 2*3*2) / 2


def test_gdd_feasible_parity_failure_reported_first() -> None:
    f = gdd_feasible(GddParams((2, 2), 3, 1))
    assert not f.feasible
    assert f.condition == "(ii)"  # degree 3+2 = 5 is odd (and (iii) also fails)


def test_gdd_feasible_cross_budget() -> None:
    f = gdd_feasible(GddParams((2, 2), 4, 1))
    assert not f.feasible
    assert f.condition == "(iii)"  # degree 6 is even but 4 > 2
    assert f.reason == "intra-part multiplicity 4 exceeds the cross budget 1*2*(2-1) = 2"


def test_gdd_feasible_bipartite_case() -> None:
    f = gdd_feasible(GddParams((2, 2), 0, 1))
    assert f.feasible
    assert f.k == 1


def test_gdd_feasible_trivial_cases() -> None:
    assert gdd_feasible(GddParams((5,), 2, 0)).feasible  # one part: 2*K_5
    f = gdd_feasible(GddParams((4,), 1, 0))
    assert not f.feasible and f.condition == "trivial (i)"
    f = gdd_feasible(GddParams((3, 3), 1, 0))
    assert not f.feasible and f.condition == "trivial (ii)"
    f = gdd_feasible(GddParams((1, 1, 1), 0, 2))
    assert f.feasible and f.k == 2
    f = gdd_feasible(GddParams((1, 1, 1, 1), 0, 1))
    assert not f.feasible and f.condition == "trivial (iii)"
    f = gdd_feasible(GddParams((2, 3), 2, 2))
    assert f.feasible and f.k == 4  # equal multiplicities: 2*K_5
    f = gdd_feasible(GddParams((2, 2), 1, 1))
    assert not f.feasible and f.condition == "trivial (iv)"


def run_gdd(sizes, l1, l2):
    params = GddParams(tuple(sizes), l1, l2)
    dec = ham_decompose_gdd(params)
    ok, witness = verify_ham_decomposition(dec.host, list(dec.cycles))
    assert ok, witness
    assert is_gdd(dec.host, params, params.part_blocks())
    return params, dec


def test_gdd_bipartite_four_cycle() -> None:
    params, dec = run_gdd((2, 2), 0, 1)
    assert dec.cycle_count == 1
    assert len(dec.cycles[0]) == 4


def test_gdd_three_parts_of_three() -> None:
    params, dec = run_gdd((3, 3, 3), 1, 2)
    assert dec.cycle_count == 7
    assert len(dec.host.vertices) == 9


def test_gdd_three_parts_of_two() -> None:
    params, dec = run_gdd((2, 2, 2), 2, 1)
    assert dec.cycle_count == 3


def test_gdd_two_parts_of_three() -> None:
    params, dec = run_gdd((3, 3), 1, 2)
    assert dec.cycle_count == 4  # (1*2 + 2*3*1) / 2


def test_gdd_trivial_routes() -> None:
    params, dec = run_gdd((4,), 2, 0)  # one part: 2*K_4
    assert dec.cycle_count == 3
    params, dec = run_gdd((1, 1, 1), 0, 2)  # singletons: 2*K_3
    assert dec.cycle_count == 2


def test_gdd_equal_multiplicities_route() -> None:
    params, dec = run_gdd((1, 2), 1, 1)  # K_3
    assert dec.cycle_count == 1


def test_gdd_infeasible_raises_with_condition() -> None:
    with pytest.raises(InfeasibleError) as err:
        ham_decompose_gdd(GddParams((2, 3), 1, 2))
    assert err.value.condition == "(i)"


def test_gdd_empty_graph_decomposes_trivially() -> None:
    params = GddParams((3,), 0, 0)
    dec = ham_decompose_gdd(params)
    assert dec.cycle_count == 0
    assert dec.host.edge_count() == 0


def test_remark_bounds_on_positive_instances() -> None:
    for sizes, l1, l2 in [((2, 2), 0, 1), ((3, 3, 3), 1, 2), ((2, 2, 2), 2, 1), ((3, 3), 1, 2)]:
        params, dec = run_gdd(sizes, l1, l2)
        a = params.sizes[0]
        p = params.p
        blocks = params.part_blocks()
        for cyc in dec.cycles:
            pure = pure_edge_counts(cyc, blocks)
            assert all(c <= a - 1 for c in pure)
            assert mixed_edge_count(cyc, blocks) >= p


def test_remark_equality_case_exact_counts() -> None:
    # l1 == l2*a*(p-1): every cycle has exactly a-1 pure edges per part and
    # exactly p mixed edges
    params, dec = run_gdd((2, 2), 2, 1)
    assert dec.cycle_count == 2
    blocks = params.part_blocks()
    for cyc in dec.cycles:
        assert pure_edge_counts(cyc, blocks) == [1, 1]
        assert mixed_edge_count(cyc, blocks) == 2


def test_brute_force_confirms_disconnected_infeasible() -> None:
    # two disjoint triangles: even degrees, 6 edges, predicate says trivial (ii)
    params = GddParams((3, 3), 1, 0)
    f = gdd_feasible(params)
    assert not f.feasible and f.condition == "trivial (ii)"
    assert not brute_force_ham_decomposable(params.build_graph())


def test_brute_force_agrees_on_small_feasible_instance() -> None:
    params = GddParams((2, 2), 0, 1)
    assert gdd_feasible(params).feasible
    assert brute_force_ham_decomposable(params.build_graph())


def test_gdd_params_validation() -> None:
    with pytest.raises(GraphError):
        GddParams((), 1, 1)
    with pytest.raises(GraphError):
        GddParams((0, 2), 1, 1)
    with pytest.raises(GraphError):
        GddParams((2, 2), -1, 1)
    assert GddParams((3, 1, 2), 0, 1).sizes == (1, 2, 3)


def test_every_route_decomposes_the_graph_that_was_asked_for() -> None:
    """Each result's host is the requested graph, built from the parameters:
    lambda K_n is the one-part GDD."""
    for n in (3, 5, 7):
        assert walecki_odd(n).host == GddParams((n,), 1, 0).build_graph()
    for n, lam in ((2, 4), (3, 2), (4, 2), (5, 1), (7, 3)):
        assert ham_decompose_lambda_kn(n, lam).host == GddParams((n,), lam, 0).build_graph()
    for sizes, l1, l2 in [
        ((3,), 0, 0),  # k == 0
        ((4,), 2, 0),  # one part
        ((1, 1, 1), 0, 2),  # singleton parts
        ((1, 2), 1, 1),  # equal multiplicities
        ((3, 3, 3), 1, 2),  # the main construction
    ]:
        params = GddParams(sizes, l1, l2)
        assert ham_decompose_gdd(params).host == params.build_graph()


def test_every_small_main_route_gdd_decomposes() -> None:
    """Every feasible GDD of p <= 7 parts of 2 <= a <= 5, lambda1 <= 3,
    1 <= lambda2 <= 3 and lambda1 != lambda2, which the amalgamation route
    builds, gives gdd_feasible's k cycles of the requested graph."""
    count = 0
    for p, a, l1, l2 in product(range(2, 8), range(2, 6), range(4), range(1, 4)):
        params = GddParams((a,) * p, l1, l2)
        feas = gdd_feasible(params)
        if l1 == l2 or not feas.feasible:
            continue
        dec = ham_decompose_gdd(params)
        assert dec.cycle_count == feas.k, params
        assert verify_ham_decomposition(params.build_graph(), list(dec.cycles)) == (
            True,
            None,
        ), params
        count += 1
    assert count == 132


def test_a_repeated_color_class_fails_against_the_requested_host(monkeypatch) -> None:
    """Every color class of the patched detachment is still one spanning
    cycle, but the last repeats the first, so the cycles miss some pair of
    2K_5 and use another twice; checked against the requested graph, that
    shows."""
    detach = hamilton.detach_all

    def repeat_first_class(cg, eta):
        g, psi, trace = detach(cg, eta)
        last = g.layer(g.k)
        for u, v, m in last.pairs():
            last.remove_edges(u, v, m)
        last.merge(g.layer(1))
        return g, psi, trace

    monkeypatch.setattr(hamilton, "detach_all", repeat_first_class)
    d = ham_decompose_lambda_kn(5, 2)
    assert d.cycles[-1] == d.cycles[0]
    got = verify_ham_decomposition(d.host, list(d.cycles))
    assert got == (False, "pair (0, 1): cycles use 1, host has 2")


def assert_read_off(layer: Multigraph, order, cycle) -> None:
    """cycle, in the ids that order renames to, is layer's one spanning
    cycle, walked from order[0] towards its lower-renamed neighbor."""
    assert cycle_violations(layer, [order[i] for i in cycle]) == set()
    assert cycle[0] == 0
    assert len(cycle) < 3 or cycle[1] < cycle[-1]


def test_cycle_read_off_matches_reference_on_every_layer(monkeypatch) -> None:
    """Every color class that a decomposition reads off is one spanning
    cycle by its definition, walked from the vertex renamed 0 towards its
    lower-renamed neighbor."""
    layers = relabels = 0

    def checked(layer, rename):
        nonlocal layers
        layers += 1
        cycle = _extract_cycle(layer, rename)
        assert_read_off(layer, sorted(rename, key=rename.__getitem__), cycle)
        return cycle

    def counted_relabel(cg, order):
        nonlocal relabels
        relabels += 1
        return _relabel(cg, order)

    monkeypatch.setattr(hamilton, "_extract_cycle", checked)
    monkeypatch.setattr(hamilton, "_relabel", counted_relabel)
    for n in range(2, 16):
        for lam in range(1, 4):
            if lam * (n - 1) % 2 == 0:
                ham_decompose_lambda_kn(n, lam)
    for sizes, l1, l2 in [
        ((2, 2), 0, 1),
        ((3, 3, 3), 1, 2),
        ((2, 2, 2), 2, 1),
        ((3, 3), 1, 2),
        ((4, 4, 4), 2, 3),
        ((2, 2, 2, 2), 2, 1),
    ]:
        ham_decompose_gdd(GddParams(sizes, l1, l2))
    assert layers > 300
    assert relabels > 30


def _layer(n, edges):
    g = Multigraph(range(n))
    for a, b in edges:
        g.add_edges(a, b)
    return g


def _looped(g):
    g.add_loops(0)
    return g


@pytest.mark.parametrize(
    "layer",
    [
        _layer(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),  # two triangles
        _layer(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),  # bowtie
        _layer(4, [(0, 1), (1, 2), (2, 0), (1, 3)]),  # triangle plus pendant
        _layer(3, [(0, 1), (1, 2)]),  # path
        _layer(4, [(0, 1), (1, 2), (2, 0)]),  # triangle plus isolated vertex
        _layer(1, []),  # isolated vertex
        _looped(_layer(3, [(0, 1), (1, 2), (2, 0)])),  # triangle plus a loop
        _layer(5, [(0, 1), (0, 1), (2, 3), (3, 4), (4, 2)]),  # doubled edge plus triangle
    ],
)
def test_cycle_read_off_rejects_every_other_shape(layer) -> None:
    assert not any(cycle_violations(layer, c) == set() for c in spanning_cycles(layer))
    n = len(layer.vertices)
    for rename in ({v: v for v in range(n)}, {v: n - 1 - v for v in reversed(range(n))}):
        with pytest.raises(AssertionError, match="not a single spanning cycle"):
            _extract_cycle(layer, rename)


def test_cycle_read_off_takes_a_doubled_edge_as_the_2_cycle() -> None:
    layer = _layer(2, [(0, 1), (0, 1)])
    assert cycle_violations(layer, (0, 1)) == set()
    assert _extract_cycle(layer, {0: 0, 1: 1}) == (0, 1)
    assert _extract_cycle(layer, {1: 0, 0: 1}) == (0, 1)


# (layer, a closed vertex sequence, what the definitions oracle finds
# broken); _extract_cycle rejects each layer
PLANTED = [
    (_looped(_layer(3, [(0, 1), (1, 2), (2, 0)])), (0, 1, 2), {"loops"}),
    (_layer(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]), (0, 1, 2, 0, 3, 4), {"vertices"}),
    (_layer(3, [(0, 1), (1, 2)]), (0, 1, 2), {"edges"}),
    (_layer(2, [(0, 1)]), (0, 1), {"edges"}),
]


@pytest.mark.parametrize(
    "layer, cycle, names", PLANTED, ids=["loops", "vertices", "edges", "2-cycle"]
)
def test_cycle_oracle_names_each_planted_fault(layer, cycle, names) -> None:
    assert cycle_violations(layer, cycle) == names
    n = len(layer.vertices)
    with pytest.raises(AssertionError, match="not a single spanning cycle"):
        _extract_cycle(layer, {v: v for v in range(n)})


def random_layer(rng: random.Random, n: int) -> Multigraph:
    """Vertex-disjoint cycles (a doubled edge for two vertices, nothing for
    one) over a shuffled vertex list, sometimes with one stray edge or loop."""
    g = Multigraph(range(n))
    vs = list(range(n))
    rng.shuffle(vs)
    i = 0
    while i < n:
        block = vs[i : i + rng.choice((1, 2, 3, n))]
        i += len(block)
        if len(block) == 2:
            g.add_edges(*block, 2)
        elif len(block) > 2:
            for a, b in zip(block, block[1:] + block[:1]):
                g.add_edges(a, b)
    if rng.random() < 0.3:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            g.add_loops(u)
        else:
            g.add_edges(u, v)
    return g


def test_read_off_matches_reference_on_random_layers() -> None:
    """The read-off of a random one-color graph in a random order gives
    the graph's spanning cycle (see assert_read_off) when the brute-force
    search finds one that passes the definition, and raises otherwise.  A
    rejected layer is either of the wrong shape (a loop, or a vertex of
    degree other than 2) or a 2-regular one that is not connected."""
    rng = random.Random(67)
    seen = {"cycle": 0, "walk": 0, "shape": 0}
    for _ in range(3000):
        n = rng.randint(1, 7)
        cg = ColoredMultigraph(1, range(n))
        layer = random_layer(rng, n)
        cg.layer(1).merge(layer)
        order = list(range(n))
        rng.shuffle(order)
        got = outcome(_read_off, layer, cg, order)
        if any(cycle_violations(layer, c) == set() for c in spanning_cycles(layer)):
            (cycle,) = got.cycles
            assert_read_off(layer, order, cycle)
            seen["cycle"] += 1
        else:
            assert got == ("AssertionError", "color class is not a single spanning cycle")
            shaped = layer.is_loopless() and all(layer.degree(v) == 2 for v in range(n))
            seen["walk" if shaped else "shape"] += 1
    assert min(seen.values()) > 200, seen
