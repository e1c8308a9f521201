"""The flow layer against its contract.  Every flow vector that
`feasible_circulation` returns meets every window and is conserved
(`helpers.circulation_violations`); every None comes with a Hoffman cut
(`helpers.is_hoffman_cut`), read off the solved residual as the nodes it
reaches from the supply left, which proves that no circulation exists
however the solver found it; and every `_max_flow` value is the supply
and the demand it spent, with no residual path left from supply to
demand.  No test here pins the search order: where a problem has more
than one circulation, the output digests pin the one the peels take."""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

import pytest

from fairdetach import bee, evencolor
from fairdetach import flows as flow_layer
from fairdetach.bee import bee_coloring
from fairdetach.evencolor import evenly_equitable_coloring
from fairdetach.flows import Network, Residual, _max_flow, feasible_circulation
from fairdetach.fuzzgen import random_even_multigraph
from fairdetach.hamilton import GddParams, ham_decompose_gdd, ham_decompose_lambda_kn
from helpers import circulation_violations, is_hoffman_cut

Arc = Tuple[int, int, int, int]  # (tail, head, lower, upper)


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


def residual(n: int, arcs: Sequence[Arc]) -> Residual:
    """The problem of the arcs on nodes 0..n-1, as the solver takes it."""
    net = Network(n, [(a, b) for a, b, _, _ in arcs])
    return Residual(net, [low for _, _, low, _ in arcs], [high - low for _, _, low, high in arcs])


def windows(net: Residual) -> List[Arc]:
    """The arcs of a problem not yet solved, read off its residual: arc i
    runs from to[2i + 1] to to[2i] with window low[i]..low[i] + cap[2i]."""
    to, cap = net.to, net.cap
    return [(to[2 * i + 1], to[2 * i], low, low + cap[2 * i]) for i, low in enumerate(net.low)]


def reach(adj, to, cap, supply) -> Set[int]:
    """The nodes that residual arcs with capacity left reach from the nodes
    with supply left, those included."""
    seen = {v for v, s in enumerate(supply) if s}
    stack = list(seen)
    while stack:
        for idx in adj[stack.pop()]:
            w = to[idx]
            if cap[idx] > 0 and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def check(n: int, arcs: Sequence[Arc], net: Residual) -> Optional[List[int]]:
    """Solve net, the problem of the arcs, and assert the contract: flows
    within every window and conserved, or None with a Hoffman cut."""
    flows = feasible_circulation(n, net)
    if flows is None:
        assert is_hoffman_cut(arcs, reach(net.adj, net.to, net.cap, net.supply))
    else:
        assert not circulation_violations(n, arcs, flows)
    return flows


@pytest.fixture
def max_flows(monkeypatch) -> list:
    """Wrap `flows._max_flow` to assert on every call that the value is the
    supply and the demand it spent and that no node with supply left
    reaches a node with demand left; record (nodes with supply, value,
    supply) for each call."""
    calls: list = []

    def run(adj, to, cap, supply, demand):
        need, owed, sources = sum(supply), sum(demand), sum(map(bool, supply))
        got = _max_flow(adj, to, cap, supply, demand)
        assert got == need - sum(supply) == owed - sum(demand)
        assert not any(demand[v] for v in reach(adj, to, cap, supply))
        calls.append((sources, got, need))
        return got

    monkeypatch.setattr("fairdetach.flows._max_flow", run)
    return calls


@pytest.mark.parametrize("block", range(4))
def test_random_circulations_meet_the_contract(block: int, max_flows) -> None:
    """Random problems meet the contract, and both outcomes occur."""
    infeasible = set()
    for seed in range(block * 100, block * 100 + 100):
        n, arcs = random_arcs(random.Random(seed))
        infeasible.add(check(n, arcs, residual(n, arcs)) is None)
    assert infeasible == {False, True}


def test_all_zero_width_arcs(max_flows) -> None:
    # a balanced triangle of fixed flows, then the same with one arc short
    arcs = [(0, 1, 2, 2), (1, 2, 2, 2), (2, 0, 2, 2), (0, 2, 0, 0)]
    assert check(3, arcs, residual(3, arcs)) == [2, 2, 2, 0]
    short = arcs[:2] + [(2, 0, 1, 1)] + arcs[3:]
    assert check(3, short, residual(3, short)) is None
    # the oracle: conserved flows off their windows, then flows within their
    # windows that are not conserved; {1, 2} is a cut of short alone
    assert circulation_violations(3, arcs, [3, 3, 3, 0]) == {"window"}
    assert circulation_violations(3, short, [2, 2, 1, 0]) == {"conservation"}
    assert is_hoffman_cut(short, {1, 2}) and not is_hoffman_cut(arcs, {1, 2})


def test_zero_width_loop_arcs(max_flows) -> None:
    arcs = [(0, 0, 3, 3), (0, 1, 0, 2), (1, 1, 0, 0), (1, 0, 1, 4), (1, 1, 5, 5)]
    assert check(2, arcs, residual(2, arcs)) is not None


def test_one_arc_pass_hands_on_to_the_search(max_flows) -> None:
    """Node 0's supply reaches demand only through three arcs, 0-1-2-3, and
    node 4 has a one-arc path 4 -> 3 ahead of 4 -> 5.  The one circulation
    sends 0's unit on through 3 and 4's out by 4 -> 5, so a solver that
    fills 4 -> 3 first must take that unit back."""
    arcs = [
        (0, 1, 0, 1),
        (1, 2, 0, 1),
        (2, 3, 0, 1),
        (4, 3, 0, 1),
        (4, 5, 0, 1),
        (3, 0, 1, 1),  # supply at 0, demand at 3
        (5, 4, 1, 1),  # supply at 4, demand at 5
    ]
    assert check(6, arcs, residual(6, arcs)) == [1, 1, 1, 0, 1, 1, 1]
    assert max_flows == [(2, 2, 2)]


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


def library_peels() -> None:
    """Run the library's peels: bee-shaped graphs, lambda K_5 up to
    lambda = 60, 2K_11 and two GDDs."""
    for seed in range(8):
        rng = random.Random(seed)
        bee_coloring(bee_shaped(rng), rng.randint(2, 6))
    for lam in (4, 15, 30, 60):
        ham_decompose_lambda_kn(5, lam)
    ham_decompose_lambda_kn(11, 2)
    ham_decompose_gdd(GddParams((3, 3, 3, 3), 1, 2))
    ham_decompose_gdd(GddParams((4, 4, 4), 2, 3))


def capture(monkeypatch, module, peels: list) -> None:
    """Check every circulation `module`'s peels solve against the windows
    read off the residual it hands over (whether those windows are the
    right ones is `coloring_violations`' "peel"), and record (n, windows,
    the residual's adjacency, heads, capacities, lower bounds, supply and
    demand before the search, flows) for each."""

    def solve(n, net):
        arcs = windows(net)
        state = (net.adj, net.to, list(net.cap), net.low, list(net.supply), list(net.demand))
        flows = check(n, arcs, net)
        peels.append((n, arcs, state, flows))
        return flows

    monkeypatch.setattr(module, "feasible_circulation", solve)


def generic_state(n: int, arcs: Sequence[Arc]) -> tuple:
    """What `capture` records of a residual, for a fresh build from arcs."""
    net = residual(n, arcs)
    return (net.adj, net.to, net.cap, net.low, net.supply, net.demand)


def test_bee_network_matches_generic_build(monkeypatch, max_flows) -> None:
    """Every bee peel of the library sweep meets its windows, and the peel's
    own network, shared by the coloring's classes, gives the flows of a
    fresh build from those windows.  Arcs without room and pairs emptied
    by earlier classes occur."""
    peels: list = []
    capture(monkeypatch, bee, peels)
    library_peels()
    assert len(peels) > 100
    fixed = emptied = 0
    for n, arcs, _, flows in peels:
        assert flows == feasible_circulation(n, residual(n, arcs))
        fixed += sum(low == high for _, _, low, high in arcs)
        emptied += sum(high == 0 for _, _, _, high in arcs)
    assert fixed and emptied


def test_peel_network_keeps_the_generic_numbering(monkeypatch) -> None:
    """Every bee peel, bee-shaped, of lambda K_n and of a GDD, solves on its
    skeleton's fixed topology: the adjacency and heads are those of a fresh
    build from the peel's windows, arcs without room included, and so are
    its capacities, lower bounds, supply and demand.  A c = 1 peel searches
    nothing and builds no network, so the one peel of an eta = 2 fan leaves
    its skeleton without one."""
    peels: list = []
    capture(monkeypatch, bee, peels)
    unit_peels: list = []
    peel = bee._peel_class

    def keep(sk, c):
        before = sk.net
        flows = peel(sk, c)
        if c == 1:
            unit_peels.append((before, sk.net))
        return flows

    monkeypatch.setattr(bee, "_peel_class", keep)
    for seed in range(6):
        rng = random.Random(seed)
        bee_coloring(bee_shaped(rng), rng.randint(2, 6))
    ham_decompose_lambda_kn(11, 2)
    ham_decompose_gdd(GddParams((3, 3, 3, 3), 1, 2))
    assert len(peels) > 6
    no_room = 0
    for n, arcs, state, _ in peels:
        assert state == generic_state(n, arcs)
        no_room += state[2][::2].count(0)
    assert no_room
    assert all(after is before for before, after in unit_peels)
    assert any(before is None for before, _ in unit_peels)
    assert any(before is not None for before, _ in unit_peels)


def test_even_peel_network_keeps_the_generic_numbering(monkeypatch, max_flows) -> None:
    """Every class `evenly_equitable_coloring` peels, in the library sweep
    and over random even multigraphs with k = 2..7, meets its windows and
    solves on the coloring's one network: the adjacency, heads,
    capacities, lower bounds, supply and demand are those of a fresh build
    from the class's windows, emptied arcs included, and so are the flows."""
    peels: list = []
    capture(monkeypatch, evencolor, peels)
    library_peels()
    for seed in range(60):
        g = random_even_multigraph(random.Random(seed))
        for k in range(2, 8):
            evenly_equitable_coloring(g, k)
    assert len(peels) > 300
    emptied = 0
    for n, arcs, state, flows in peels:
        assert state == generic_state(n, arcs)
        assert flows == feasible_circulation(n, residual(n, arcs))
        emptied += sum(high == 0 for _, _, _, high in arcs)
    assert emptied


def test_one_arc_paths_come_first_on_peel_networks(monkeypatch, max_flows) -> None:
    """On bee and even peel networks the one-arc pass and the search after
    it meet the `_max_flow` contract, and at least 50 calls need both: a
    node with supply has a one-arc path (a live arc straight into a node
    with demand), and some node's supply is more than its one-arc paths
    can carry, so part of it goes by a longer path."""
    checked = flow_layer._max_flow  # the contract wrapper of `max_flows`
    both = 0

    def run(adj, to, cap, supply, demand):
        nonlocal both
        direct = [
            sum(min(cap[i], demand[to[i]]) for i in adj[v]) if s else 0
            for v, s in enumerate(supply)
        ]
        both += any(direct) and any(s > d for s, d in zip(supply, direct))
        return checked(adj, to, cap, supply, demand)

    monkeypatch.setattr(flow_layer, "_max_flow", run)
    for seed in range(8):
        rng = random.Random(seed)
        bee_coloring(bee_shaped(rng), rng.randint(2, 6))
    for seed in range(30):
        g = random_even_multigraph(random.Random(seed))
        for k in range(2, 8):
            evenly_equitable_coloring(g, k)
    ham_decompose_lambda_kn(11, 2)
    ham_decompose_gdd(GddParams((3, 3, 3, 3), 1, 2))
    assert all(got == need for _, got, need in max_flows)
    assert both >= 50, both


def test_shrunk_peels_have_a_hoffman_cut(monkeypatch, max_flows) -> None:
    """Cap one left vertex's source window of each bee peel below what its
    pairs must carry: no circulation exists, and the solver returns None
    with a cut.  At least 10 of these have 50 or more nodes with supply,
    and spend some of it before they stop."""
    peels: list = []

    def solve(n, net):
        peels.append((n, windows(net)))
        return feasible_circulation(n, net)

    monkeypatch.setattr(bee, "feasible_circulation", solve)
    library_peels()
    filled = 0
    for n, arcs in peels:
        lows: dict = {}
        for a, b, low, _ in arcs:
            if a >= 2 and b >= 2:  # a pair arc, left node a
                lows[a] = lows.get(a, 0) + low
        if not any(lows.values()):  # no pair carries a lower bound, or no pairs
            continue
        v = max(lows, key=lows.get)
        shrunk = [(0, v, 0, lows[v] - 1) if arc[:2] == (0, v) else arc for arc in arcs]
        del max_flows[:]
        assert check(n, shrunk, residual(n, shrunk)) is None
        [(sources, got, need)] = max_flows
        filled += sources >= 50 and got > 0
    assert filled >= 10, filled
