from __future__ import annotations

import random
from itertools import product

import pytest

from fairdetach.errors import PreconditionError
from fairdetach.evencolor import (
    euler_circuit,
    evenly_equitable_coloring,
    is_evenly_equitable,
    two_factorization,
)
from fairdetach.fuzzgen import random_even_multigraph
from fairdetach.multigraph import ColoredMultigraph, Multigraph
from helpers import (
    check_closed,
    outcome,
    reference_euler_circuit,
    reference_evenly_equitable_coloring,
    reference_two_factorization,
)


def complete_graph(n: int) -> Multigraph:
    g = Multigraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edges(u, v)
    return g


def circuit_is_valid(g: Multigraph, root: int) -> bool:
    circ = euler_circuit(g, root)
    if not check_closed(circ):
        return False
    comp = next(c for c in g.components() if root in c)
    used_pairs: dict = {}
    used_loops: dict = {}
    for a, b in circ.steps:
        if a == b:
            used_loops[a] = used_loops.get(a, 0) + 1
        else:
            key = (min(a, b), max(a, b))
            used_pairs[key] = used_pairs.get(key, 0) + 1
    want_pairs = {
        (u, v): g.multiplicity(u, v)
        for u in comp
        for v in comp
        if u < v and g.multiplicity(u, v)
    }
    want_loops = {v: g.loops(v) for v in comp if g.loops(v)}
    return used_pairs == want_pairs and used_loops == want_loops


def test_euler_triangle() -> None:
    g = complete_graph(3)
    circ = euler_circuit(g, 0)
    assert len(circ.steps) == 3
    assert check_closed(circ)


def test_euler_two_loops() -> None:
    g = Multigraph([0])
    g.add_loops(0, 2)
    circ = euler_circuit(g, 0)
    assert circ.steps == ((0, 0), (0, 0))


def test_euler_random_even_graphs() -> None:
    rng = random.Random(31)
    for _ in range(100):
        g = random_even_multigraph(rng)
        root = g.vertices[0]
        assert circuit_is_valid(g, root)


def test_euler_rejects_odd_degree() -> None:
    g = Multigraph([0, 1])
    g.add_edges(0, 1, 1)
    with pytest.raises(PreconditionError):
        euler_circuit(g, 0)


def test_two_factorization_c4_is_identity() -> None:
    g = Multigraph(range(4))
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        g.add_edges(a, b)
    factors = two_factorization(g)
    assert len(factors) == 1
    assert factors[0] == g


def test_two_factorization_k5() -> None:
    g = complete_graph(5)
    factors = two_factorization(g)
    assert len(factors) == 2
    merged = Multigraph(range(5))
    for f in factors:
        for v in f.vertices:
            assert f.degree(v) == 2
        merged.merge(f)
    assert merged == g


def test_two_factorization_doubled_triangle() -> None:
    g = Multigraph(range(3))
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        g.add_edges(a, b, 2)
    factors = two_factorization(g)
    assert len(factors) == 2
    merged = Multigraph(range(3))
    for f in factors:
        for v in f.vertices:
            assert f.degree(v) == 2
        merged.merge(f)
    assert merged == g


@pytest.mark.parametrize("n, lam", [(5, 200), (9, 20)])
def test_two_factorization_lambda_fold_complete_graph(n: int, lam: int) -> None:
    g = Multigraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edges(u, v, lam)
    factors = two_factorization(g)
    assert len(factors) == lam * (n - 1) // 2
    merged = Multigraph(range(n))
    for f in factors:
        assert all(f.degree(v) == 2 for v in range(n))
        merged.merge(f)
    assert merged == g


def test_two_factorization_rejects_bad_inputs() -> None:
    with pytest.raises(PreconditionError):
        two_factorization(complete_graph(4))  # 3-regular
    path = Multigraph(range(3))
    path.add_edges(0, 1)
    path.add_edges(1, 2)
    with pytest.raises(PreconditionError):
        two_factorization(path)  # not regular
    loopy = Multigraph([0])
    loopy.add_loops(0, 1)
    with pytest.raises(PreconditionError):
        two_factorization(loopy)


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


def test_euler_circuit_matches_reference_from_every_root() -> None:
    rng = random.Random(41)
    errors = set()
    for _ in range(300):
        g = random_even_multigraph(rng)
        odd = g.copy()
        u, v = rng.sample(g.vertices, 2)
        odd.add_edges(u, v)
        for h in (g, odd):
            for root in h.vertices + [len(h.vertices)]:
                got = outcome(euler_circuit, h, root)
                assert got == outcome(reference_euler_circuit, h, root)
                if isinstance(got, tuple):
                    errors.add(got[1].split()[0])
    assert errors == {"unknown", "vertex"}


def _random_regular(rng: random.Random) -> Multigraph:
    """A union of random spanning 2-factors; about a third of those on six or
    more vertices split them into two halves that no edge joins."""
    n = rng.randint(3, 10)
    g = Multigraph(range(n))
    blocks = [list(range(n))]
    if n >= 6 and rng.random() < 0.35:
        blocks = [list(range(n // 2)), list(range(n // 2, n))]
    for _ in range(rng.randint(1, 4)):
        for block in blocks:
            rng.shuffle(block)
            for a, b in zip(block, block[1:] + block[:1]):
                g.add_edges(a, b)
    return g


def test_two_factorization_matches_reference() -> None:
    rng = random.Random(43)
    disconnected = 0
    for _ in range(250):
        g = _random_regular(rng)
        disconnected += g.component_count() > 1
        got = outcome(two_factorization, g)
        assert got == outcome(reference_two_factorization, g)
    assert disconnected > 0
