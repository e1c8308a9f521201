from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest

from fairdetach.errors import PreconditionError
from fairdetach.evencolor import evenly_equitable_coloring, is_evenly_equitable
from fairdetach.fuzzgen import random_even_multigraph
from fairdetach.multigraph import ColoredMultigraph, Multigraph
from helpers import evenly_equitable_violations


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
    """Every coloring meets the definition, on graphs whose loops the heap
    places and on graphs of more than one component with edges."""
    placed_loops = split_graphs = 0
    for seed in range(500):
        g = random_even_multigraph(random.Random(seed))
        placed_loops += sum(n for _, n in g.loop_items())
        sizes = Counter(g.component_labels().values()).values()
        split_graphs += sum(1 for n in sizes if n > 1) > 1
        for k in range(1, 8):
            got = evenly_equitable_coloring(g, k)
            assert evenly_equitable_violations(g, got) == set(), (seed, k)
    assert placed_loops > 0 and split_graphs > 0


def _colored(k: int, n: int, edges=(), loops=()) -> ColoredMultigraph:
    """A k-colored graph on range(n) from (u, v, color) edges and (v, color) loops."""
    cg = ColoredMultigraph(k, range(n))
    for u, v, j in edges:
        cg.layer(j).add_edges(u, v)
    for v, j in loops:
        cg.layer(j).add_loops(v)
    return cg


def _layer_loops(n: int, loops: int) -> Multigraph:
    """n vertices, with that many loops at vertex 0."""
    g = Multigraph(range(n))
    g.add_loops(0, loops)
    return g


# (graph, a coloring of it with one planted fault, what the definitions
# oracle finds broken); is_evenly_equitable must reject every odd or
# spread one, and no library predicate checks "cover"
PLANTED = [
    (complete_graph(3), _colored(2, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)], [(0, 2)]), {"cover"}),
    (complete_graph(3), _colored(2, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)]), {"odd"}),
    (_layer_loops(1, 2), _colored(2, 1, loops=[(0, 1), (0, 1)]), {"spread"}),
]


@pytest.mark.parametrize("g, cg, names", PLANTED, ids=["cover", "odd", "spread"])
def test_evenly_equitable_oracle_names_each_planted_fault(g, cg, names) -> None:
    assert evenly_equitable_violations(g, cg) == names
    assert is_evenly_equitable(cg) == (names == {"cover"})


def moved_edge(rng: random.Random, cg: ColoredMultigraph) -> ColoredMultigraph:
    """A copy of cg with one edge or loop moved from one color to another."""
    out = cg.copy()
    j, u, v = rng.choice(
        [(j, u, v) for j in range(1, cg.k + 1) for u, v, _ in cg.layer(j).pairs()]
        + [(j, v, v) for j in range(1, cg.k + 1) for v, _ in cg.layer(j).loop_items()]
    )
    i = rng.choice([i for i in range(1, cg.k + 1) if i != j])
    if u == v:
        out.layer(j).remove_loops(v, 1)
        out.layer(i).add_loops(v, 1)
    else:
        out.layer(j).remove_edges(u, v, 1)
        out.layer(i).add_edges(u, v, 1)
    return out


def test_is_evenly_equitable_agrees_with_the_definitions() -> None:
    """The predicate accepts exactly when the definitions oracle finds no
    odd class degree and no spread above two, on evenly equitable colorings
    and with one edge or loop moved between two of their layers; both
    verdicts occur, and moving keeps the cover."""
    rng = random.Random(59)
    verdicts = set()
    for _ in range(200):
        g = random_even_multigraph(rng)
        if g.edge_count() == 0:
            continue
        k = rng.randint(2, 5)
        cg = evenly_equitable_coloring(g, k)
        for colored in (cg, moved_edge(rng, cg)):
            bad = evenly_equitable_violations(g, colored)
            assert "cover" not in bad
            assert is_evenly_equitable(colored) == (not bad), (g, k)
            verdicts.add(not bad)
    assert verdicts == {False, True}
