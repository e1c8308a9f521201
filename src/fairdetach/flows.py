"""Integral circulations with arc lower bounds.

Internal plumbing for the coloring constructions: a color class with
floor/ceiling quotas on pairs, vertices and totals is exactly a feasible
integral circulation, and max-flow integrality turns the fractional
1/k solution into an integral one.  Everything here is deterministic:
arcs are augmented in insertion order with shortest-path (BFS) search
(Edmonds-Karp).

Each augmenting path is the one a plain BFS from the source would find,
but the search does only the work that decides it:

- Sink test at discovery.  Every node has at most one arc into the sink,
  and BFS expands nodes in the order it discovers them, so the first node
  expanded with a live arc into the sink is also the first node discovered
  with one.  The search ends as soon as that node is reached; its BFS
  parent, and so the whole path, is the one the full search would take.
- Lazy level 1.  The source's arcs are walked in adjacency order and each
  live head is expanded as soon as it is reached, rather than queueing the
  whole first level.  A first-level node not yet expanded is treated as
  visited exactly when its one arc from the source is live, so every later
  node gets the same parent, in the same discovery order, as in the full
  search.  No first-level node has an arc into the sink, so the first-level
  nodes never end the search themselves.
- Full source arcs leave the search.  No path re-enters the source (its
  parent mark is -2, so no search ever counts it unvisited), so flow never
  comes back along a source arc's reverse: a source arc only loses
  capacity, and once full it stays full.
  The level-1 walk keeps the source arcs with room in a list, in adjacency
  order; an arc leaves the list when a push fills it.  The walk meets the
  same live arcs in the same order, and once every source arc is full
  (a feasible circulation's last search) the search ends at once.
- Zero-width arcs left out.  An arc with lower == upper has residual
  capacity 0 both ways from the start, and neither ever rises: flow goes
  back along a reverse arc only after it went forward, and there is no
  room to go forward.  So every search skipped both directions of such an
  arc; the network is built without them, the arc's flow is its lower
  bound, and only that bound enters the node excesses.  Every other arc
  keeps its place in each adjacency list, so each search scans the same
  live arcs in the same order and finds the same path.

Same paths in the same order give the same flows, arc for arc.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Arc = Tuple[int, int, int, int]  # (tail, head, lower, upper)


def _max_flow(adj: List[List[int]], to: List[int], cap: List[int], s: int, t: int) -> int:
    """Push a maximum flow from s to t through a residual network; return its value.

    Arc idx runs to to[idx] with residual capacity cap[idx], which is
    updated in place; its reverse is idx ^ 1, and adj[v] lists the arcs
    leaving v in insertion order.  The network must satisfy four
    invariants, which every network built by `feasible_circulation` does:
    every node has at most one arc from s and at most one arc into t, no
    node has both, and s has no arc straight into t.
    """
    n = len(adj)
    from_s = [-1] * n  # from_s[v]: index of the arc s -> v
    live: List[int] = []  # the source arcs with room, in adjacency order
    for idx in adj[s]:
        from_s[to[idx]] = idx
        if cap[idx] > 0:
            live.append(idx)
    n_live = len(live)
    into_t = [-1] * n  # into_t[v]: index of the arc v -> t
    for idx in adj[t]:
        into_t[to[idx]] = idx ^ 1
    total = 0
    while True:
        parent = [-1] * n
        parent[s] = -2
        queue: List[int] = []
        qi = si = 0
        last = -1  # node whose live arc into t ends the path
        while last < 0:
            if si < n_live:  # level 1, one live source arc at a time
                idx = live[si]
                si += 1
                v = to[idx]
                parent[v] = idx
            elif qi < len(queue):
                v = queue[qi]
                qi += 1
            else:
                return total
            for idx in adj[v]:
                if cap[idx] > 0:
                    w = to[idx]
                    if parent[w] == -1:
                        e = from_s[w]
                        if e >= 0 and cap[e] > 0:
                            continue  # level-1 node, expanded in turn
                        parent[w] = idx
                        e = into_t[w]
                        if e >= 0 and cap[e] > 0:
                            last = w
                            break
                        queue.append(w)
        # bottleneck along the BFS path
        e = into_t[last]
        push = cap[e]
        v = last
        while v != s:
            idx = parent[v]
            if cap[idx] < push:
                push = cap[idx]
            v = to[idx ^ 1]
        cap[e] -= push
        cap[e ^ 1] += push
        v = last
        while v != s:
            idx = parent[v]
            cap[idx] -= push
            cap[idx ^ 1] += push
            v = to[idx ^ 1]
        if not cap[idx]:  # idx, the path's arc out of s, is full for good
            live.remove(idx)
            n_live -= 1
        total += push


def feasible_circulation(n: int, arcs: Sequence[Arc]) -> Optional[List[int]]:
    """Integral circulation respecting every arc's [lower, upper] window.

    Nodes are 0..n-1.  Returns one flow value per arc (in input order), or
    None when no feasible circulation exists.
    """
    src, snk = n, n + 1
    adj: List[List[int]] = [[] for _ in range(n + 2)]
    to: List[int] = []
    cap: List[int] = []
    add_to, add_cap = to.append, cap.append
    excess = [0] * n
    live: List[int] = []  # input positions of the arcs with room; arc r is 2r
    for i, (a, b, low, high) in enumerate(arcs):
        if low < high:
            if low < 0:
                raise ValueError(f"bad arc bounds [{low}, {high}]")
            idx = len(to)
            adj[a].append(idx)
            adj[b].append(idx + 1)
            add_to(b)
            add_to(a)
            add_cap(high - low)
            add_cap(0)
            live.append(i)
        elif low != high or low < 0:
            raise ValueError(f"bad arc bounds [{low}, {high}]")
        if low:
            excess[b] += low
            excess[a] -= low
    need = 0
    for v, e in enumerate(excess):
        if e:
            idx = len(to)
            if e > 0:
                adj[src].append(idx)
                adj[v].append(idx + 1)
                add_to(v)
                add_to(src)
                need += e
            else:
                adj[v].append(idx)
                adj[snk].append(idx + 1)
                add_to(snk)
                add_to(v)
                e = -e
            add_cap(e)
            add_cap(0)
    if _max_flow(adj, to, cap, src, snk) != need:
        return None
    # flow on an arc = lower bound + units pushed onto its residual reverse
    flows = [arc[2] for arc in arcs]
    for r, i in enumerate(live):
        flows[i] += cap[2 * r + 1]
    return flows
