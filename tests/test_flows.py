from __future__ import annotations

import random

import pytest

from fairdetach.bee import bee_coloring
from fairdetach.flows import _max_flow, feasible_circulation
from fairdetach.hamilton import GddParams, ham_decompose_gdd, ham_decompose_lambda_kn
from helpers import reference_circulation, reference_max_flow


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


def checked_max_flow(monkeypatch, calls: list) -> None:
    """Replace `flows._max_flow` by a wrapper that also solves a copy of each
    network with the reference and asserts the same value and the same
    residual capacities; record (source arcs, value, source capacity)."""

    def run(adj, to, cap, s, t):
        ref_cap = list(cap)
        want = reference_max_flow([list(row) for row in adj], list(to), ref_cap, s, t)
        need = sum(cap[idx] for idx in adj[s])
        got = _max_flow(adj, to, cap, s, t)
        assert got == want
        assert cap == ref_cap
        calls.append((len(adj[s]), got, need))
        return got

    monkeypatch.setattr("fairdetach.flows._max_flow", run)


def bee_shaped(rng: random.Random):
    """A fan-like peel input: 50-400 colors on the left, 1-6 right vertices."""
    lefts = list(range(rng.randint(50, 400)))
    rights = list(range(1000, 1000 + rng.randint(1, 6)))
    pairs = []
    for l in lefts:
        for r in rights:
            if rng.random() < 0.6:
                pairs.append((l, r, rng.randint(1, 9)))
    return lefts, rights, pairs


def test_max_flow_matches_reference_on_large_networks(monkeypatch) -> None:
    calls: list = []
    checked_max_flow(monkeypatch, calls)
    peels: list = []

    def keep(n, arcs):
        peels.append((n, list(arcs)))
        return feasible_circulation(n, arcs)

    monkeypatch.setattr("fairdetach.bee.feasible_circulation", keep)
    for seed in range(8):
        rng = random.Random(seed)
        bee_coloring(bee_shaped(rng), rng.randint(2, 6))
    for lam in (4, 15, 30, 60):
        ham_decompose_lambda_kn(5, lam)
    ham_decompose_gdd(GddParams((3, 3, 3, 3), 1, 2))
    ham_decompose_gdd(GddParams((4, 4, 4), 2, 3))
    assert all(got == need for _, got, need in calls)
    assert max(n_source for n_source, _, _ in calls) >= 50

    # cap one left vertex's window below what its pairs must carry: each
    # search ends with a source arc still live, most after filling others
    filled = 0
    for n, arcs in peels:
        lows = {}
        for a, b, low, _ in arcs:
            if a >= 2 and b >= 2:  # a pair arc, left node a
                lows[a] = lows.get(a, 0) + low
        v = max(lows, key=lows.get)
        if not lows[v]:
            continue
        shrunk = [(0, v, 0, lows[v] - 1) if arc[:2] == (0, v) else arc for arc in arcs]
        del calls[:]
        assert feasible_circulation(n, shrunk) is None
        [(n_source, got, need)] = calls
        assert got < need
        filled += n_source >= 50 and got > 0
    assert filled >= 10
