from __future__ import annotations

import random
from itertools import product

import pytest

from fairdetach.errors import PreconditionError
from fairdetach.evencolor import evenly_equitable_coloring, is_evenly_equitable
from fairdetach.fuzzgen import random_even_multigraph
from fairdetach.multigraph import ColoredMultigraph, Multigraph
from helpers import reference_evenly_equitable_coloring


def complete_graph(n: int) -> Multigraph:
    g = Multigraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edges(u, v)
    return g


def test_evenly_equitable_c6_forced_shape() -> None:
    g = Multigraph(range(6))
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]:
        g.add_edges(a, b)
    cg = evenly_equitable_coloring(g, 2)
    for v in range(6):
        degs = sorted(cg.layer(j).degree(v) for j in (1, 2))
        assert degs == [0, 2]


def test_evenly_equitable_four_regular_exact_split() -> None:
    g = complete_graph(5)
    cg = evenly_equitable_coloring(g, 2)
    for v in range(5):
        assert cg.layer(1).degree(v) == 2
        assert cg.layer(2).degree(v) == 2


def test_evenly_equitable_k5_existence_crosscheck() -> None:
    # exhaustive search over all 2-colorings of K_5 confirms the checker
    # accepts at least one coloring, and the constructed one is among them
    g = complete_graph(5)
    pairs = [(u, v) for u, v, _ in g.pairs()]
    found = False
    for colors in product((1, 2), repeat=len(pairs)):
        cg = ColoredMultigraph(2, range(5))
        for (u, v), col in zip(pairs, colors):
            cg.layer(col).add_edges(u, v)
        if is_evenly_equitable(cg):
            found = True
            break
    assert found
    built = evenly_equitable_coloring(g, 2)
    assert is_evenly_equitable(built)
    assert built.underlying() == g


def test_evenly_equitable_loops_are_atomic() -> None:
    g = Multigraph([0])
    g.add_loops(0, 3)
    cg = evenly_equitable_coloring(g, 2)
    degs = sorted(cg.layer(j).degree(0) for j in (1, 2))
    assert degs == [2, 4]
    assert cg.layer(1).loops(0) + cg.layer(2).loops(0) == 3


def test_evenly_equitable_regular_multiple_exact() -> None:
    # 2mk-regular input with k colors: every class comes out exactly 2m-regular
    g = Multigraph(range(4))
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edges(u, v, 2)  # 6-regular; k=3, m=1
    cg = evenly_equitable_coloring(g, 3)
    for j in (1, 2, 3):
        for v in range(4):
            assert cg.layer(j).degree(v) == 2


def test_evenly_equitable_rejects_odd_degree() -> None:
    g = Multigraph([0, 1])
    g.add_edges(0, 1, 1)
    with pytest.raises(PreconditionError):
        evenly_equitable_coloring(g, 2)


def test_evenly_equitable_fuzz() -> None:
    rng = random.Random(37)
    for _ in range(80):
        g = random_even_multigraph(rng)
        k = rng.randint(1, 5)
        cg = evenly_equitable_coloring(g, k)
        assert is_evenly_equitable(cg)
        assert cg.underlying() == g


def test_evenly_equitable_matches_reference_loop_placement() -> None:
    placed_loops = split_graphs = 0
    for seed in range(500):
        g = random_even_multigraph(random.Random(seed))
        placed_loops += sum(n for _, n in g.loop_items())
        split_graphs += sum(1 for c in g.components() if len(c) > 1) > 1
        for k in range(1, 8):
            assert evenly_equitable_coloring(g, k) == reference_evenly_equitable_coloring(
                g, k
            ), (seed, k)
    assert placed_loops > 0 and split_graphs > 0
