from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Optional

import pytest

from fairdetach import bee, evencolor
from fairdetach.bee import bee_coloring
from fairdetach.evencolor import evenly_equitable_coloring
from fairdetach.flows import _max_flow, _residual, feasible_circulation
from fairdetach.fuzzgen import random_even_multigraph
from fairdetach.hamilton import GddParams, ham_decompose_gdd, ham_decompose_lambda_kn
from helpers import (
    reference_circulation,
    reference_even_peel_windows,
    reference_max_flow,
    reference_peel_windows,
)


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
    """Replace `flows._max_flow` by a wrapper that also solves each network
    with the reference, on a copy whose super source s and super sink t are
    explicit arcs (s -> v of capacity supply[v], v -> t of capacity
    demand[v], in node order after every other arc), and asserts the same
    value, the same residual capacities on the network's own arcs and the
    same leftover supply and demand; record (source arcs, value, supply,
    the arc count of each of the reference's augmenting paths between s
    and t)."""

    def run(adj, to, cap, supply, demand):
        n, m = len(adj), len(to)
        s, t = n, n + 1
        ref_adj = [list(row) for row in adj] + [[], []]
        ref_to, ref_cap = list(to), list(cap)
        explicit = []  # (v, index of its arc from s or into t, from s?)
        for v in range(n):
            if supply[v] or demand[v]:
                assert not (supply[v] and demand[v])
                tail, head = (s, v) if supply[v] else (v, t)
                explicit.append((v, len(ref_to), tail == s))
                ref_adj[tail].append(len(ref_to))
                ref_adj[head].append(len(ref_to) + 1)
                ref_to += [head, tail]
                ref_cap += [supply[v] + demand[v], 0]
        hops: list = []
        want = reference_max_flow(ref_adj, ref_to, ref_cap, s, t, hops)
        need = sum(supply)
        got = _max_flow(adj, to, cap, supply, demand)
        assert got == want
        assert cap == ref_cap[:m]
        left_supply, left_demand = [0] * n, [0] * n
        for v, e, from_s in explicit:
            (left_supply if from_s else left_demand)[v] = ref_cap[e]
        assert supply == left_supply
        assert demand == left_demand
        calls.append((sum(from_s for _, _, from_s in explicit), got, need, hops))
        return got

    monkeypatch.setattr("fairdetach.flows._max_flow", run)


def capture_peels(monkeypatch, peels: list, unit_peels: Optional[list] = None) -> None:
    """Record (skeleton copy, c) for every `bee._peel_class` call with c > 1;
    the copy shares the network the peel solved on, which no peel changes.
    With `unit_peels`, record the skeleton's network before and after every
    c = 1 peel there."""
    peel = bee._peel_class

    def keep(sk, c):
        before = sk.net
        copy = SimpleNamespace(
            n_left=sk.n_left,
            ends=list(sk.ends),
            mult=list(sk.mult),
            deg=list(sk.deg),
            total=sk.total,
        )
        flows = peel(sk, c)
        if c > 1:
            copy.net = sk.net
            peels.append((copy, c))
        elif unit_peels is not None:
            unit_peels.append((before, sk.net))
        return flows

    monkeypatch.setattr(bee, "_peel_class", keep)


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
    capture_peels(monkeypatch, peels)
    for seed in range(8):
        rng = random.Random(seed)
        bee_coloring(bee_shaped(rng), rng.randint(2, 6))
    for lam in (4, 15, 30, 60):
        ham_decompose_lambda_kn(5, lam)
    ham_decompose_gdd(GddParams((3, 3, 3, 3), 1, 2))
    ham_decompose_gdd(GddParams((4, 4, 4), 2, 3))
    assert all(got == need for _, got, need, _ in calls)
    assert max(n_source for n_source, _, _, _ in calls) >= 50

    # cap one left vertex's window below what its pairs must carry: each
    # search ends with a source arc still live, most after filling others
    filled = 0
    for sk, c in peels:
        n, arcs = len(sk.deg), reference_peel_windows(sk, c)
        lows = {}
        for a, b, low, _ in arcs:
            if a >= 2 and b >= 2:  # a pair arc, left node a
                lows[a] = lows.get(a, 0) + low
        if not any(lows.values()):  # no pair carries a lower bound, or no pairs
            continue
        v = max(lows, key=lows.get)
        shrunk = [(0, v, 0, lows[v] - 1) if arc[:2] == (0, v) else arc for arc in arcs]
        del calls[:]
        assert feasible_circulation(n, shrunk) is None
        [(n_source, got, need, _)] = calls
        assert got < need
        filled += n_source >= 50 and got > 0
    assert filled >= 10


def test_one_arc_pass_hands_on_to_the_search(monkeypatch) -> None:
    """Node 0's supply reaches demand only through three arcs, 0-1-2-3, and
    node 4 has a one-arc path 4 -> 3 ahead of 4 -> 5.  The direct pass pushes
    4 -> 3; the search then sends 0's unit on through 3, back along 4 -> 3
    and out by 4 -> 5, as the plain search does, arc for arc."""
    calls: list = []
    checked_max_flow(monkeypatch, calls)
    arcs = [
        (0, 1, 0, 1),
        (1, 2, 0, 1),
        (2, 3, 0, 1),
        (4, 3, 0, 1),
        (4, 5, 0, 1),
        (3, 0, 1, 1),  # supply at 0, demand at 3
        (5, 4, 1, 1),  # supply at 4, demand at 5
    ]
    assert feasible_circulation(6, arcs) == [1, 1, 1, 0, 1, 1, 1]
    [(n_source, got, need, hops)] = calls
    assert (n_source, got, need, hops) == (2, 2, 2, [1, 5])


def test_one_arc_paths_come_first_on_peel_networks(monkeypatch) -> None:
    """On bee and even peel networks the direct pass and the search after it
    leave the reference's residual network; the reference takes every
    one-arc path before any longer one, and at least 50 calls need both the
    pass and the search."""
    calls: list = []
    checked_max_flow(monkeypatch, calls)
    for seed in range(8):
        rng = random.Random(seed)
        bee_coloring(bee_shaped(rng), rng.randint(2, 6))
    for seed in range(30):
        g = random_even_multigraph(random.Random(seed))
        for k in range(2, 8):
            evenly_equitable_coloring(g, k)
    ham_decompose_lambda_kn(11, 2)
    ham_decompose_gdd(GddParams((3, 3, 3, 3), 1, 2))
    both = 0
    for _, got, need, hops in calls:
        assert got == need
        assert hops == sorted(hops, key=lambda h: h > 1)  # one-arc paths first
        both += 1 in hops and hops[-1] > 1
    assert both >= 50, both


def test_bee_network_matches_generic_build(monkeypatch) -> None:
    """Each peel's own network gives the flows of the generic build from its
    windows, and of the reference, across c = k..2, so pairs emptied by
    earlier classes and zero-width arcs occur."""
    peels: list = []
    capture_peels(monkeypatch, peels)
    nets: list = []

    def solve(n, net):
        nets.append((len(net), feasible_circulation(n, net)))
        return nets[-1][1]

    monkeypatch.setattr(bee, "feasible_circulation", solve)
    emptied = fixed = 0
    for seed in range(12):
        rng = random.Random(seed)
        bee_coloring(bee_shaped(rng), rng.randint(2, 9))
    assert len(peels) == len(nets) > 12
    for (sk, c), (size, flows) in zip(peels, nets):
        n, arcs = len(sk.deg), reference_peel_windows(sk, c)
        assert size == len(arcs)
        assert flows == feasible_circulation(n, arcs) == reference_circulation(n, arcs)
        emptied += sk.mult.count(0)
        fixed += sum(low == high for _, _, low, high in arcs)
    assert emptied and fixed


def test_peel_network_keeps_the_generic_numbering(monkeypatch) -> None:
    """Every peel, bee-shaped, of lambda K_n and of a GDD, solves on its
    skeleton's fixed topology: the adjacency and heads are those of the
    generic build from the peel's windows, arcs without room included, and
    so are its capacities, lower bounds, supply and demand.  A c = 1 peel
    searches nothing and builds no network, so the one peel of an eta = 2
    fan leaves its skeleton without one."""
    peels: list = []
    unit_peels: list = []
    capture_peels(monkeypatch, peels, unit_peels)
    nets: list = []

    def solve(n, net):
        nets.append((list(net.cap), net.low, list(net.supply), list(net.demand)))
        return feasible_circulation(n, net)

    monkeypatch.setattr(bee, "feasible_circulation", solve)
    for seed in range(6):
        rng = random.Random(seed)
        bee_coloring(bee_shaped(rng), rng.randint(2, 6))
    ham_decompose_lambda_kn(11, 2)
    ham_decompose_gdd(GddParams((3, 3, 3, 3), 1, 2))
    assert len(peels) == len(nets) > 6
    no_room = 0
    for (sk, c), net in zip(peels, nets):
        generic = _residual(len(sk.deg), reference_peel_windows(sk, c))
        assert sk.net.adj == generic.adj
        assert sk.net.to == generic.to
        assert net == (generic.cap, generic.low, generic.supply, generic.demand)
        no_room += generic.cap[::2].count(0)
    assert no_room
    assert all(after is before for before, after in unit_peels)
    assert any(before is None for before, _ in unit_peels)
    assert any(before is not None for before, _ in unit_peels)


def test_even_peel_network_keeps_the_generic_numbering(monkeypatch) -> None:
    """Every class `evenly_equitable_coloring` peels, over random even
    multigraphs and k = 2..7, solves on the coloring's one network: the
    adjacency, heads, capacities, lower bounds, supply and demand are those
    of the generic build from the class's windows, emptied arcs included,
    and so are the flows."""
    peels: list = []
    peel = evencolor._peel_even_class

    def keep(net, mult, half, c):
        if c > 1:
            peels.append((list(mult), list(half), c))
        return peel(net, mult, half, c)

    nets: list = []

    def solve(n, net):
        state = (net.adj, net.to, list(net.cap), net.low, list(net.supply), list(net.demand))
        flows = feasible_circulation(n, net)
        nets.append((n, state, flows))
        return flows

    monkeypatch.setattr(evencolor, "_peel_even_class", keep)
    monkeypatch.setattr(evencolor, "feasible_circulation", solve)
    emptied = solved = 0
    for seed in range(60):
        g = random_even_multigraph(random.Random(seed))
        for k in range(2, 8):
            del peels[:], nets[:]
            evenly_equitable_coloring(g, k)
            assert len(peels) == len(nets) == k - 1
            for (mult, half, c), (n, state, flows) in zip(peels, nets):
                arcs = reference_even_peel_windows(g, mult, half, c)
                generic = _residual(n, arcs)
                want = (generic.adj, generic.to, generic.cap, generic.low)
                assert state == want + (generic.supply, generic.demand), (seed, k, c)
                assert flows == feasible_circulation(n, arcs), (seed, k, c)
                emptied += mult.count(0)
                solved += 1
    assert emptied and solved > 300
