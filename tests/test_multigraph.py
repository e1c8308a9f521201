from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fairdetach.errors import GraphError, PreconditionError
from fairdetach.hamilton import _relabel
from fairdetach.multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    Multigraph,
)
from helpers import approx


def test_degree_isolated_vertex() -> None:
    g = Multigraph([0])
    assert g.degree(0) == 0


def test_degree_loops_count_twice() -> None:
    g = Multigraph([0])
    g.add_loops(0, 3)
    assert g.degree(0) == 6


def test_degree_mixed() -> None:
    g = Multigraph([0, 1])
    g.add_loops(0, 2)
    g.add_edges(0, 1, 5)
    assert g.degree(0) == 9


def test_degree_unknown_vertex() -> None:
    g = Multigraph([0])
    with pytest.raises(GraphError):
        g.degree(7)


def test_component_count_empty_graph() -> None:
    assert Multigraph(range(4)).component_count() == 4


def test_component_count_cycle_plus_isolated() -> None:
    g = Multigraph(range(5))
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        g.add_edges(a, b)
    assert g.component_count() == 2


def test_component_count_loops_connect_nothing() -> None:
    g = Multigraph([0])
    g.add_loops(0, 5)
    assert g.component_count() == 1


def test_approx_examples() -> None:
    assert approx(2, Fraction(7, 3))
    assert approx(3, Fraction(7, 3))
    assert not approx(4, Fraction(7, 3))


def test_approx_exact_integer_is_forced() -> None:
    assert approx(5, 5)
    assert not approx(4, 5)
    assert not approx(6, 5)


def test_approx_matches_direct_floor_ceil_on_random_rationals() -> None:
    rng = random.Random(7)
    for _ in range(500):
        num = rng.randint(-30, 30)
        den = rng.randint(1, 9)
        x = rng.randint(-12, 12)
        y = Fraction(num, den)
        floor = num // den
        ceil = -((-num) // den)
        assert approx(x, y) == (floor <= x <= ceil)


def test_approx_scales_through_division() -> None:
    # x within the window of y stays within the window of y/n after dividing
    rng = random.Random(11)
    for _ in range(300):
        y = Fraction(rng.randint(0, 40), rng.randint(1, 7))
        n = rng.randint(1, 5)
        for x in range(int(y) - 1, int(y) + 3):
            if approx(x, y):
                assert approx(Fraction(x, n), y / n)


def test_approx_is_transitive_but_not_symmetric() -> None:
    rng = random.Random(13)
    for _ in range(400):
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        y = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        z = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        if approx(x, y) and approx(y, z):
            assert approx(x, z)
    assert approx(2, Fraction(5, 2))
    assert not approx(Fraction(5, 2), 2)


def test_handshake_on_random_graphs() -> None:
    rng = random.Random(3)
    for _ in range(100):
        nv = rng.randint(1, 7)
        g = Multigraph(range(nv))
        for u in range(nv):
            for v in range(u + 1, nv):
                if rng.random() < 0.4:
                    g.add_edges(u, v, rng.randint(1, 5))
            if rng.random() < 0.3:
                g.add_loops(u, rng.randint(1, 4))
        assert sum(g.degree(v) for v in g.vertices) == 2 * g.edge_count()


def test_zero_entries_never_stored() -> None:
    g = Multigraph([0, 1])
    g.add_edges(0, 1, 3)
    g.remove_edges(0, 1, 0)  # removing none is a no-op
    g.remove_edges(0, 1, 1)
    assert g.row(0) == [(1, 2)] and g.row(1) == [(0, 2)]
    g.remove_edges(0, 1, 2)
    assert g.pairs() == []
    g.add_loops(0, 2)
    g.remove_loops(0, 0)  # with loops or without
    g.remove_loops(1, 0)
    assert g.loop_items() == [(0, 2)]
    g.remove_loops(0, 1)
    assert g.loop_items() == [(0, 1)]
    g.remove_loops(0, 1)
    assert g.loop_items() == []


def test_remove_more_than_present_rejected() -> None:
    g = Multigraph([0, 1])
    g.add_edges(0, 1, 2)
    with pytest.raises(GraphError):
        g.remove_edges(0, 1, 3)
    with pytest.raises(GraphError):
        g.remove_loops(0, 1)


def test_negative_remove_counts_rejected() -> None:
    g = Multigraph([0, 1])
    g.add_edges(0, 1, 3)
    g.add_loops(0, 1)
    with pytest.raises(GraphError, match=r"^negative edge count -2$"):
        g.remove_edges(0, 1, -2)
    with pytest.raises(GraphError, match=r"^negative loop count -2$"):
        g.remove_loops(0, -2)
    assert g.multiplicity(0, 1) == 3 and g.loops(0) == 1


def test_relabeling_order_must_list_every_vertex_once() -> None:
    cg = ColoredMultigraph(2, [0, 1, 2])
    cg.layer(1).add_edges(0, 2, 2)
    cg.layer(2).add_loops(1, 3)
    rename = _relabel(cg, [2, 0, 1])
    assert rename == {2: 0, 0: 1, 1: 2}
    for order in ([0, 1], [0, 1, 1], [0, 1, 2, 3], [0, 1, 1, 2]):
        with pytest.raises(GraphError, match="every vertex exactly once"):
            _relabel(cg, order)


def test_colored_underlying_matches_layer_sum() -> None:
    cg = ColoredMultigraph(3, range(4))
    cg.layer(1).add_edges(0, 1, 2)
    cg.layer(2).add_edges(0, 1, 1)
    cg.layer(2).add_loops(3, 2)
    cg.layer(3).add_edges(2, 3, 5)
    under = cg.underlying()
    assert under.multiplicity(0, 1) == 3
    assert under.loops(3) == 2
    assert under.multiplicity(2, 3) == 5
    assert sum(cg.layer(j).degree(0) for j in (1, 2, 3)) == under.degree(0)


def test_colored_layers_share_vertices() -> None:
    cg = ColoredMultigraph(2, [0, 1])
    cg.add_vertex(2)
    assert cg.layer(1).vertices == [0, 1, 2]
    assert cg.layer(2).vertices == [0, 1, 2]


def test_amalgamation_spec_guard() -> None:
    g = Multigraph([0, 1])
    g.add_loops(0, 1)
    AmalgamationSpec({0: 2, 1: 1}).validate_against(g)
    with pytest.raises(PreconditionError):
        AmalgamationSpec({0: 1, 1: 2}).validate_against(g)


def test_amalgamation_spec_positive() -> None:
    with pytest.raises(GraphError):
        AmalgamationSpec({0: 0})


def test_detachment_map_fibers() -> None:
    fibers = {0: [0, 2], 1: [1]}
    m = DetachmentMap(fibers)
    fibers[0].append(3)
    assert m.fibers == {0: [0, 2], 1: [1]}
    assert m.psi == {0: 0, 2: 0, 1: 1}
    m.validate(AmalgamationSpec({0: 2, 1: 1}))
    with pytest.raises(GraphError):
        m.validate(AmalgamationSpec({0: 3, 1: 1}))
    with pytest.raises(AttributeError):
        m.psi = {0: 1}  # type: ignore[misc]
    with pytest.raises(GraphError, match=r"^vertex 2 appears in two fibers$"):
        DetachmentMap({0: [0, 2], 1: [2]})
    with pytest.raises(GraphError, match=r"^vertex 0 appears in two fibers$"):
        DetachmentMap({0: [0], 1: [0]})
    # a map is built from its fibers alone, so psi cannot disagree with them
    with pytest.raises(TypeError):
        DetachmentMap({7: 5}, {0: [0]})  # type: ignore[call-arg]
    with pytest.raises(TypeError):
        DetachmentMap()  # type: ignore[call-arg]
