"""Integral circulations with arc lower bounds.

Internal plumbing for the coloring constructions: a color class with
floor/ceiling quotas on pairs, vertices and totals is exactly a feasible
integral circulation, and max-flow integrality turns the fractional
1/k solution into an integral one.  Everything here is deterministic:
arcs are augmented in insertion order with shortest-path (BFS) search
(Edmonds-Karp).

This module alone knows the residual format.  A `Network` is the topology
of a problem's arcs, built once from their (tail, head) ends; a `Residual`
is one problem on it, from each arc's lower bound and room (upper - lower),
with each node's excess of lower-bound inflow over outflow held as
`supply` (positive) or `demand` (negative).  `bee` and `evencolor` build
one `Network` per coloring and a `Residual` per class, and a `Residual` is
the one input `feasible_circulation` takes.

Each augmenting path is the one a plain BFS finds in the network with a
super source s and a super sink t made explicit: an arc s -> v of capacity
supply[v] and an arc v -> t of capacity demand[v], added in node order
after every arc of the problem.  The search does only the work that
decides that path:

- Node arrays for s and t.  The search never walks an arc of s or t, so
  they are not arcs at all but the two lists, updated in place.  No path
  re-enters s, so flow never comes back along an arc s -> v: supply only
  falls.  No node has both supply and demand, and a node with demand ends
  the search when it is discovered (next point), so no expanded node has
  a live arc into t, and t itself is never expanded.  The arcs of s and t
  came last in each node's adjacency list, so every other arc keeps its
  place.
- Sink test at discovery.  BFS expands nodes in the order it discovers
  them, so the first node expanded with demand left is also the first
  node discovered with it.  The search ends as soon as that node is
  reached; its BFS parent, and so the whole path, is the one the full
  search would take.
- Lazy level 1.  The nodes with supply left are walked in node order, and
  each is expanded as soon as it is reached, rather than queueing the
  whole first level.  A first-level node not yet expanded is treated as
  visited exactly when its supply is positive, so every later node gets
  the same parent, in the same discovery order, as in the full search.
  A node leaves the walk's list when a push spends its supply, and once
  every supply is spent (a feasible circulation's last search) the search
  ends at once.
- One-arc paths in one forward pass.  Lazy level 1 scans every arc of
  every node with supply before it expands any queued node, so a search
  takes a one-arc path (a live arc from a node with supply straight into a
  node with demand) whenever one exists, and the first one by (node, arc)
  order.  Once passed, such a (node, arc) never becomes a path again:
  supply and demand only fall, and capacity rises only on the reverse arcs
  of pushed paths, whose tails are demand or inner nodes of a path, never
  a node with supply (the search does not enter one, and supply never
  rises).  So one pass over the nodes with supply in node order, and over
  each one's arcs in order, pushing min(supply, capacity, demand) on every
  arc it reaches, makes those searches' pushes in their order; the BFS
  then starts where they leave off.
- Arcs without room stay in the lists with capacity 0.  An arc with
  lower == upper has residual capacity 0 both ways from the start, and
  neither ever rises: flow goes back along a reverse arc only after it
  went forward, and there is no room to go forward.  So the search skips
  both directions, like any saturated arc, and the arc's flow is its lower
  bound.  Keeping such arcs gives every problem arc i the fixed residual
  arcs 2i and 2i + 1, so one `Network` serves windows whose widths differ.

Same paths in the same order give the same flows, arc for arc.
"""

from __future__ import annotations

from itertools import compress
from operator import add
from typing import List, Optional, Sequence, Tuple


class Network:
    """The residual topology of a problem's arcs, shared by every problem on them.

    Nodes are 0..n-1 and `ends` lists each problem arc's (tail, head).
    Problem arc i is residual arc 2i (forward, to[2i] its head) and 2i + 1
    (reverse, to[2i + 1] its tail); adj[v] lists the residual arcs leaving
    v in insertion order.
    """

    __slots__ = ("ends", "adj", "to")

    def __init__(self, n: int, ends: Sequence[Tuple[int, int]]) -> None:
        self.ends = ends
        self.adj = adj = [[] for _ in range(n)]
        self.to = to = []
        i = 0
        for a, b in ends:
            adj[a].append(i)
            adj[b].append(i + 1)
            to += (b, a)
            i += 2


class Residual:
    """A circulation problem on a `Network`, as the search takes it.

    Problem arc i has lower bound low[i], and its residual arcs 2i and
    2i + 1 start with capacities room[i] (upper - lower) and 0; an arc
    without room has capacity 0 both ways.  Each node's lower-bound inflow
    minus outflow is split into `supply` (positive) and `demand` (minus
    the negative).  `len` counts every arc of the problem.
    """

    __slots__ = ("adj", "to", "cap", "low", "supply", "demand")

    def __init__(self, net: Network, low: List[int], room: Sequence[int]) -> None:
        self.adj, self.to, self.low = net.adj, net.to, low
        self.cap = [0] * (2 * len(low))
        self.cap[::2] = room
        excess = [0] * len(net.adj)
        for (a, b), q in zip(compress(net.ends, low), filter(None, low)):
            excess[a] -= q
            excess[b] += q
        self.supply = [e if e > 0 else 0 for e in excess]
        self.demand = [-e if e < 0 else 0 for e in excess]

    def __len__(self) -> int:
        return len(self.low)


def _max_flow(
    adj: List[List[int]], to: List[int], cap: List[int], supply: List[int], demand: List[int]
) -> int:
    """Push a maximum flow from a super source to a super sink; return its value.

    Arc idx runs to to[idx] with residual capacity cap[idx]; its reverse
    is idx ^ 1, and adj[v] lists the arcs leaving v in insertion order.
    The super source feeds node v up to supply[v], and v drains into the
    super sink up to demand[v]; no node has both.  cap, supply and demand
    are updated in place.  The paths are those of the network with the
    super source and sink made explicit (see the module docstring).
    """
    n = len(adj)
    # one-arc paths first, in one forward pass (see the module docstring)
    live: List[int] = []  # nodes with supply left
    total = 0
    for v in compress(range(n), supply):
        s = supply[v]
        for idx in adj[v]:
            c = cap[idx]
            if c:
                w = to[idx]
                d = demand[w]
                if d:
                    push = s if s < c else c
                    if d < push:
                        push = d
                    cap[idx] = c - push
                    cap[idx ^ 1] += push
                    demand[w] = d - push
                    s -= push
                    if not s:
                        break
        total += supply[v] - s
        supply[v] = s
        if s:
            live.append(v)
    n_live = len(live)
    while True:
        parent = [-1] * n  # -2 marks a first-level node
        queue: List[int] = []
        qi = si = 0
        last = -1  # node whose demand ends the path
        while last < 0:
            if si < n_live:  # level 1, one node with supply at a time
                v = live[si]
                si += 1
                parent[v] = -2
            elif qi < len(queue):
                v = queue[qi]
                qi += 1
            else:
                return total
            for idx in adj[v]:
                if cap[idx] > 0:
                    w = to[idx]
                    if parent[w] == -1:
                        if supply[w]:
                            continue  # level-1 node, expanded in turn
                        parent[w] = idx
                        if demand[w]:
                            last = w
                            break
                        queue.append(w)
        # bottleneck along the BFS path, back to its first-level node
        push = demand[last]
        v = last
        idx = parent[v]
        while idx >= 0:
            if cap[idx] < push:
                push = cap[idx]
            v = to[idx ^ 1]
            idx = parent[v]
        if supply[v] < push:
            push = supply[v]
        supply[v] -= push
        if not supply[v]:  # v's supply is spent for good
            live.remove(v)
            n_live -= 1
        demand[last] -= push
        v = last
        idx = parent[v]
        while idx >= 0:
            cap[idx] -= push
            cap[idx ^ 1] += push
            v = to[idx ^ 1]
            idx = parent[v]
        total += push


def feasible_circulation(n: int, net: Residual) -> Optional[List[int]]:
    """Integral circulation respecting every arc's [lower, upper] window.

    `net` is the problem on nodes 0..n-1, so n is len(net.adj); the search
    spends its capacities, supply and demand.  Returns one flow value per
    arc, in the order of the network's `ends`, or None when no feasible
    circulation exists.
    """
    need = sum(net.supply)
    if _max_flow(net.adj, net.to, net.cap, net.supply, net.demand) != need:
        return None
    # flow on an arc = lower bound + units pushed onto its residual reverse
    return list(map(add, net.low, net.cap[1::2]))
