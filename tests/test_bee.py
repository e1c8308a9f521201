from __future__ import annotations

import random
from itertools import product

import pytest

from fairdetach.bee import (
    BipartiteColoring,
    BipartiteMultigraph,
    bee_coloring,
    is_balanced,
    is_equalized,
    is_equitable,
    konig_proper_coloring,
)
from fairdetach.errors import PreconditionError
from fairdetach.fuzzgen import random_bipartite
from helpers import (
    coloring_from_assignment,
    enumerate_unit_edges,
    is_proper,
    pair_counts,
    reference_bee_coloring,
    vertex_counts,
)


def test_konig_perfect_matching_one_color() -> None:
    bg = BipartiteMultigraph([0, 1, 2], [10, 11, 12])
    for l, r in [(0, 10), (1, 11), (2, 12)]:
        bg.add_edges(l, r)
    c = konig_proper_coloring(bg, 1)
    assert is_proper(c)
    assert all(col == 1 for _, _, col, _ in c.items())


def test_konig_parallel_edges_get_distinct_colors() -> None:
    bg = BipartiteMultigraph([0], [1])
    bg.add_edges(0, 1, 3)
    c = konig_proper_coloring(bg, 3)
    assert sorted(c.count(0, 1, col) for col in (1, 2, 3)) == [1, 1, 1]


def test_konig_random_instances_are_proper() -> None:
    rng = random.Random(5)
    for _ in range(150):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        bg = BipartiteMultigraph(range(nl), range(50, 50 + nr))
        for l in range(nl):
            for r in range(50, 50 + nr):
                if rng.random() < 0.4:
                    bg.add_edges(l, r, rng.randint(1, 3))
        k = max(bg.max_degree(), 1) + rng.randint(0, 2)
        c = konig_proper_coloring(bg, k)
        assert is_proper(c)
        assert c.parent() == bg


def test_konig_degree_overflow_rejected() -> None:
    bg = BipartiteMultigraph([0], [1])
    with pytest.raises(PreconditionError, match="need at least one color, got 0"):
        konig_proper_coloring(bg, 0)
    bg.add_edges(0, 1, 4)
    with pytest.raises(PreconditionError):
        konig_proper_coloring(bg, 3)


def test_bee_five_parallel_edges_split_three_two() -> None:
    bg = BipartiteMultigraph([0], [1])
    bg.add_edges(0, 1, 5)
    c = bee_coloring(bg, 2)
    assert sorted(pair_counts(c, 0, 1)) == [2, 3]


def test_bee_star_center_sees_each_color_twice() -> None:
    bg = BipartiteMultigraph([0], range(1, 7))
    for r in range(1, 7):
        bg.add_edges(0, r)
    c = bee_coloring(bg, 3)
    assert vertex_counts(c, 0) == [2, 2, 2]


def test_bee_mixed_instance_against_exhaustive_oracle() -> None:
    # sides {x1,x2} and {y1,y2}: m(x1,y1)=3, m(x1,y2)=1, m(x2,y1)=2, k=2
    bg = BipartiteMultigraph([0, 1], [10, 11])
    bg.add_edges(0, 10, 3)
    bg.add_edges(0, 11, 1)
    bg.add_edges(1, 10, 2)

    units = enumerate_unit_edges(bg.pairs())
    valid = 0
    for colors in product((1, 2), repeat=len(units)):
        c = coloring_from_assignment(units, colors, 2, bg.left, bg.right)
        if is_balanced(c) and is_equitable(c) and is_equalized(c):
            valid += 1
    assert valid >= 1

    produced = bee_coloring(bg, 2)
    assert sorted(produced.class_sizes()) == [3, 3]
    assert is_balanced(produced) and is_equitable(produced) and is_equalized(produced)
    for l, r, _ in bg.pairs():
        counts = pair_counts(produced, l, r)
        assert max(counts) - min(counts) <= 1


def test_is_balanced_on_simple_graph_single_color() -> None:
    bg = BipartiteMultigraph([0, 1], [10, 11])
    bg.add_edges(0, 10)
    bg.add_edges(1, 11)
    c = bee_coloring(bg, 1)
    assert is_balanced(c)


def test_is_balanced_rejects_three_one_split() -> None:
    c = BipartiteColoring(2, [0], [1])
    c.add(0, 1, 1, 3)
    c.add(0, 1, 2, 1)
    assert not is_balanced(c)


def test_is_equitable_k1_always_true() -> None:
    c = BipartiteColoring(1, [0], [1])
    c.add(0, 1, 1, 9)
    assert is_equitable(c)


def test_is_equitable_rejects_four_one_split() -> None:
    c = BipartiteColoring(2, [0], [1, 2])
    c.add(0, 1, 1, 4)
    c.add(0, 2, 2, 1)
    assert not is_equitable(c)


def test_is_equalized_examples() -> None:
    good = BipartiteColoring(3, [0], [1])
    for col, n in [(1, 3), (2, 2), (3, 2)]:
        good.add(0, 1, col, n)
    assert is_equalized(good)
    bad = BipartiteColoring(3, [0], [1])
    for col, n in [(1, 4), (2, 2), (3, 1)]:
        bad.add(0, 1, col, n)
    assert not is_equalized(bad)


def test_bee_class_sizes_hit_floor_or_ceil() -> None:
    rng = random.Random(17)
    for _ in range(100):
        bg = random_bipartite(rng, max_side=5, max_mult=4)
        k = rng.randint(1, 5)
        c = bee_coloring(bg, k)
        total = bg.edge_count()
        for size in c.class_sizes():
            assert size in (total // k, -((-total) // k))


def test_bee_more_colors_than_edges() -> None:
    bg = BipartiteMultigraph([0], [1])
    bg.add_edges(0, 1, 2)
    c = bee_coloring(bg, 5)
    assert sum(c.class_sizes()) == 2
    assert is_balanced(c) and is_equitable(c) and is_equalized(c)


def test_bee_fuzz_contract() -> None:
    rng = random.Random(23)
    for _ in range(120):
        bg = random_bipartite(rng, max_side=6, max_mult=5)
        k = rng.randint(1, 5)
        c = bee_coloring(bg, k)
        assert is_balanced(c)
        assert is_equitable(c)
        assert is_equalized(c)
        assert c.parent() == bg


def test_bee_upto_matches_leading_classes() -> None:
    rng = random.Random(23)
    for _ in range(120):
        bg = random_bipartite(rng, max_side=6, max_mult=5)
        for k in range(1, 6):
            full = bee_coloring(bg, k).items()
            for m in sorted({1, min(2, k), k}):
                part = bee_coloring(bg, k, upto=m)
                assert part.items() == [it for it in full if it[2] <= m]


@pytest.mark.parametrize("block", range(4))
def test_bee_matches_reference_peel(block: int) -> None:
    for seed in range(block * 30, block * 30 + 30):
        bg = random_bipartite(random.Random(seed), max_side=6, max_mult=5)
        for k in range(1, 6):
            for u in sorted({1, min(2, k), k}):
                ref = reference_bee_coloring(bg, k, upto=u)
                got = bee_coloring(bg, k, upto=u).items()
                assert got == ref.items(), (seed, k, u)
                # the same graph handed over in peel order gives its classes
                # as multiplicity vectors over the pairs
                pairs = bg.pairs()
                classes = bee_coloring((bg.left, bg.right, pairs), k, upto=u)
                assert classes == [
                    [ref.count(l, r, j) for l, r, _ in pairs] for j in range(1, u + 1)
                ], (seed, k, u)


def test_bee_upto_out_of_range_rejected() -> None:
    bg = BipartiteMultigraph([0], [1])
    bg.add_edges(0, 1, 4)
    for upto in (0, -1, 4):
        with pytest.raises(PreconditionError):
            bee_coloring(bg, 3, upto=upto)


def test_bee_deterministic() -> None:
    rng = random.Random(29)
    bg = random_bipartite(rng)
    a = bee_coloring(bg, 3).items()
    b = bee_coloring(bg.copy(), 3).items()
    assert a == b
