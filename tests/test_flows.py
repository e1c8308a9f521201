from __future__ import annotations

import random

import pytest

from fairdetach.flows import feasible_circulation
from helpers import reference_circulation


def random_arcs(rng: random.Random):
    """Up to 8 nodes and 24 arcs, with parallel arcs, loops and zero-width
    windows.  Half the instances plant a circulation (closed walks) inside
    the windows, so they are feasible with room to choose; in the other
    half the windows are random and often leave no feasible circulation."""
    n = rng.randint(1, 8)
    arcs = []
    if rng.random() < 0.5:
        while len(arcs) < 20:
            walk = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
            units = rng.randint(1, 3)
            for a, b in zip(walk, walk[1:] + walk[:1]):
                low = rng.randint(0, units)
                high = units if rng.random() < 0.25 else units + rng.randint(0, 3)
                arcs.append((a, b, low, high))
            if rng.random() < 0.3:
                break
    while len(arcs) < 24 and rng.random() < 0.8:
        a, b = rng.randrange(n), rng.randrange(n)
        if arcs and rng.random() < 0.2:
            a, b = arcs[rng.randrange(len(arcs))][:2]  # parallel arc
        low = rng.randint(0, 3)
        high = low if rng.random() < 0.25 else low + rng.randint(0, 4)
        arcs.append((a, b, low, high))
    rng.shuffle(arcs)
    return n, arcs


@pytest.mark.parametrize("block", range(4))
def test_circulation_matches_pop_time_reference(block: int) -> None:
    feasible = infeasible = 0
    for seed in range(block * 100, block * 100 + 100):
        n, arcs = random_arcs(random.Random(seed))
        flows = feasible_circulation(n, arcs)
        assert flows == reference_circulation(n, arcs), seed
        if flows is None:
            infeasible += 1
            continue
        feasible += 1
        balance = [0] * n
        for (a, b, low, high), f in zip(arcs, flows):
            assert low <= f <= high, seed
            balance[a] -= f
            balance[b] += f
        assert balance == [0] * n, seed
    assert feasible and infeasible


def test_bad_window_raises() -> None:
    with pytest.raises(ValueError):
        feasible_circulation(2, [(0, 1, 3, 2)])
    with pytest.raises(ValueError):
        feasible_circulation(2, [(0, 1, -1, -1)])


def test_all_zero_width_arcs() -> None:
    # a balanced triangle of fixed flows, then the same with one arc short
    arcs = [(0, 1, 2, 2), (1, 2, 2, 2), (2, 0, 2, 2), (0, 2, 0, 0)]
    assert feasible_circulation(3, arcs) == [2, 2, 2, 0]
    assert reference_circulation(3, arcs) == [2, 2, 2, 0]
    short = arcs[:2] + [(2, 0, 1, 1)] + arcs[3:]
    assert feasible_circulation(3, short) is None
    assert reference_circulation(3, short) is None


def test_zero_width_loop_arcs() -> None:
    arcs = [(0, 0, 3, 3), (0, 1, 0, 2), (1, 1, 0, 0), (1, 0, 1, 4), (1, 1, 5, 5)]
    flows = feasible_circulation(2, arcs)
    assert flows == reference_circulation(2, arcs)
    assert flows is not None
    assert (flows[0], flows[2], flows[4]) == (3, 0, 5)
    assert flows[1] == flows[3] >= 1
