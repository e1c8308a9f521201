from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest

from fairdetach.bee import (
    bee_coloring,
    is_balanced,
    is_equalized,
    is_equitable,
)
from fairdetach.errors import GraphError, PreconditionError
from fairdetach.fuzzgen import random_bipartite
from helpers import coloring_violations


def is_bee(bg, classes) -> bool:
    return is_balanced(bg, classes) and is_equitable(bg, classes) and is_equalized(bg, classes)


def test_bee_five_parallel_edges_split_three_two() -> None:
    bg = ([0], [1], [(0, 1, 5)])
    c = bee_coloring(bg, 2)
    assert sorted(cls[0] for cls in c) == [2, 3]


def test_bee_star_center_sees_each_color_twice() -> None:
    bg = ([0], list(range(1, 7)), [(0, r, 1) for r in range(1, 7)])
    c = bee_coloring(bg, 3)
    # edges at left vertex 0 in each class
    assert [sum(n for (l, _, _), n in zip(bg[2], cls) if l == 0) for cls in c] == [2, 2, 2]


def test_bee_mixed_instance_against_exhaustive_oracle() -> None:
    # sides {x1,x2} and {y1,y2}: m(x1,y1)=3, m(x1,y2)=1, m(x2,y1)=2, k=2
    bg = ([0, 1], [10, 11], [(0, 10, 3), (0, 11, 1), (1, 10, 2)])
    pairs = bg[2]

    # every unit edge, as the index of its pair, gets a color of its own
    units = [p for p, (_, _, n) in enumerate(pairs) for _ in range(n)]
    valid = 0
    for colors in product((1, 2), repeat=len(units)):
        classes = [[0] * len(pairs) for _ in range(2)]
        for p, col in zip(units, colors):
            classes[col - 1][p] += 1
        assert is_bee(bg, classes) == (not coloring_violations(pairs, classes, 2))
        valid += is_bee(bg, classes)
    assert valid >= 1

    produced = bee_coloring(bg, 2)
    assert sorted(sum(cls) for cls in produced) == [3, 3]
    assert is_bee(bg, produced)
    for counts in zip(*produced):
        assert max(counts) - min(counts) <= 1


def test_is_balanced_on_simple_graph_single_color() -> None:
    bg = ([0, 1], [10, 11], [(0, 10, 1), (1, 11, 1)])
    c = bee_coloring(bg, 1)
    assert is_balanced(bg, c)


def test_is_balanced_rejects_three_one_split() -> None:
    assert not is_balanced(([0], [1], [(0, 1, 4)]), [[3], [1]])


def test_is_equitable_k1_always_true() -> None:
    assert is_equitable(([0], [1], [(0, 1, 9)]), [[9]])


def test_is_equitable_rejects_four_one_split() -> None:
    assert not is_equitable(([0], [1, 2], [(0, 1, 4), (0, 2, 1)]), [[4, 0], [0, 1]])


def test_is_equitable_keys_vertices_by_side() -> None:
    # the sides share labels, as in the 2-factorization fold; merging left 0
    # with right 0 (and left 1 with right 1) would see class 1 twice there
    bg = ((0, 1), (0, 1), [(0, 1, 1), (1, 0, 1)])
    assert is_equitable(bg, [[1, 1], [0, 0], [0, 0]])


def test_is_equalized_examples() -> None:
    bg = ([0], [1], [(0, 1, 7)])
    assert is_equalized(bg, [[3], [2], [2]])
    assert not is_equalized(bg, [[4], [2], [1]])


def test_bee_class_sizes_hit_floor_or_ceil() -> None:
    rng = random.Random(17)
    for _ in range(100):
        bg = random_bipartite(rng, max_side=5, max_mult=4)
        k = rng.randint(1, 5)
        c = bee_coloring(bg, k)
        total = sum(n for _, _, n in bg[2])
        for size in (sum(cls) for cls in c):
            assert size in (total // k, -((-total) // k))


def test_bee_more_colors_than_edges() -> None:
    bg = ([0], [1], [(0, 1, 2)])
    c = bee_coloring(bg, 5)
    assert sum(map(sum, c)) == 2
    assert is_bee(bg, c)


def test_bee_fuzz_contract() -> None:
    rng = random.Random(23)
    for _ in range(120):
        bg = random_bipartite(rng, max_side=6, max_mult=5)
        k = rng.randint(1, 5)
        c = bee_coloring(bg, k)
        assert is_balanced(bg, c)
        assert is_equitable(bg, c)
        assert is_equalized(bg, c)
        assert coloring_violations(bg[2], c, k) == set()


def test_bee_upto_matches_leading_classes() -> None:
    rng = random.Random(23)
    for _ in range(120):
        bg = random_bipartite(rng, max_side=6, max_mult=5)
        for k in range(1, 6):
            full = bee_coloring(bg, k)
            for m in sorted({1, min(2, k), k}):
                assert bee_coloring(bg, k, upto=m) == full[:m]


@pytest.mark.parametrize("block", range(4))
def test_bee_matches_reference_peel(block: int) -> None:
    """Every class, of a full coloring or of a partial one, meets the peel
    windows of its definition, so a full coloring is balanced, equitable,
    equalized and covers every pair."""
    for seed in range(block * 30, block * 30 + 30):
        bg = random_bipartite(random.Random(seed), max_side=6, max_mult=5)
        for k in range(1, 6):
            for u in sorted({1, min(2, k), k}):
                got = bee_coloring(bg, k, upto=u)
                bad = coloring_violations(bg[2], got, k)
                assert (bad == set()) if u == k else ("peel" not in bad), (seed, k, u)


def test_bee_upto_out_of_range_rejected() -> None:
    bg = ([0], [1], [(0, 1, 4)])
    for upto in (0, -1, 4):
        with pytest.raises(PreconditionError):
            bee_coloring(bg, 3, upto=upto)


def test_bee_bad_pair_rejected() -> None:
    # an endpoint on neither side's list, and a multiplicity below one; the
    # error names the pair below one, not a pair of multiplicity one before it
    cases = [
        (([0], [1], [(0, 2, 1)]), r"unknown endpoint in \(0, 2\)"),
        (([0], [1], [(0, 1, -3)]), r"multiplicity -3 of \(0, 1\)"),
        (([0, 5], [1], [(0, 1, 2), (5, 1, 0)]), r"multiplicity 0 of \(5, 1\)"),
        (([0, 5], [1], [(0, 1, 1), (5, 1, 0)]), r"multiplicity 0 of \(5, 1\)"),
    ]
    for bg, message in cases:
        with pytest.raises(GraphError, match=message):
            bee_coloring(bg, 2)


def test_bee_deterministic() -> None:
    rng = random.Random(29)
    lefts, rights, pairs = bg = random_bipartite(rng)
    a = bee_coloring(bg, 3)
    b = bee_coloring((list(lefts), list(rights), list(pairs)), 3)
    assert a == b


def test_bee_predicates_reject_classes_that_do_not_fit_the_pairs() -> None:
    """A class vector of another length than the pairs, or no class at all,
    is no coloring of the graph: zip would stop at the short vector."""
    bg = ([0], [1], [(0, 1, 5)])
    cases = [
        ([[5], [0], []], "class 3 has 0 counts for 1 pairs"),
        ([[5, 0], [0]], "class 1 has 2 counts for 1 pairs"),
        ([], "a coloring needs at least one class"),
    ]
    for classes, message in cases:
        for predicate in (is_balanced, is_equitable, is_equalized):
            with pytest.raises(GraphError, match=f"^{message}$"):
                predicate(bg, classes)


# (graph, classes, k, what the definitions oracle finds broken, the library
# predicate that must reject it): one planted fault per name; no predicate
# checks "cover" or "peel", the promises of bee_coloring's construction
PLANTED = [
    (([0], [1], [(0, 1, 4)]), [[2], [1]], 2, {"cover", "peel"}, None),
    (([0], [1], [(0, 1, 4)]), [[3], [1]], 2,
     {"balanced", "equitable", "equalized", "peel"}, is_balanced),
    (([0], [1, 2], [(0, 1, 1), (0, 2, 1)]), [[1, 1], [0, 0]], 2,
     {"equitable", "equalized", "peel"}, is_equitable),
    (([0, 1], [2, 3], [(0, 2, 1), (1, 3, 1)]), [[1, 1], [0, 0]], 2,
     {"equalized", "peel"}, is_equalized),
    (([0], [1], [(0, 1, 5)]), [[3]], 3, {"cover", "peel"}, None),
]


@pytest.mark.parametrize("bg, classes, k, names, predicate", PLANTED)
def test_coloring_oracle_names_each_planted_fault(bg, classes, k, names, predicate) -> None:
    assert coloring_violations(bg[2], classes, k) == names
    if predicate is not None:
        assert not predicate(bg, classes)


def moved_unit(rng: random.Random, classes):
    """classes with one unit of one pair moved from one class to another."""
    out = [list(cls) for cls in classes]
    j, p = rng.choice([(j, p) for j, cls in enumerate(out) for p, n in enumerate(cls) if n])
    i = rng.choice([i for i in range(len(out)) if i != j])
    out[j][p] -= 1
    out[i][p] += 1
    return out


def test_bee_predicates_agree_with_the_definitions() -> None:
    """Each predicate accepts exactly when the definitions oracle finds its
    property unbroken, on bee colorings and with one unit moved between
    two of their classes; both verdicts occur for every predicate."""
    predicates = {"balanced": is_balanced, "equitable": is_equitable, "equalized": is_equalized}
    rng = random.Random(53)
    seen: Counter = Counter()
    for _ in range(300):
        bg = random_bipartite(rng, max_side=5, max_mult=4)
        if not bg[2]:
            continue
        k = rng.randint(2, 5)
        classes = bee_coloring(bg, k)
        for colored in (classes, moved_unit(rng, classes)):
            bad = coloring_violations(bg[2], colored, k)
            for name, predicate in predicates.items():
                assert predicate(bg, colored) == (name not in bad), (bg, colored, name)
                seen[name, name in bad] += 1
    assert all(seen[name, broken] for name in predicates for broken in (False, True)), seen
