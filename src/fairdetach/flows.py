"""Integral circulations with arc lower bounds.

Internal plumbing for the coloring constructions: a color class with
floor/ceiling quotas on pairs, vertices and totals is exactly a feasible
integral circulation, and max-flow integrality turns the fractional
1/k solution into an integral one.  Everything here is deterministic:
arcs are augmented in insertion order with shortest-path (BFS) search
(Edmonds-Karp).  Each search stops the moment the sink gets its BFS
parent: that parent can no longer change, so stopping there yields the
same augmenting paths, and the same flows, as a search run to exhaustion.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Arc = Tuple[int, int, int, int]  # (tail, head, lower, upper)


class _Residual:
    def __init__(self, n: int) -> None:
        self.n = n
        self.adj: List[List[int]] = [[] for _ in range(n)]
        self.to: List[int] = []
        self.cap: List[int] = []

    def add(self, a: int, b: int, cap: int) -> int:
        idx = len(self.to)
        self.adj[a].append(idx)
        self.to.append(b)
        self.cap.append(cap)
        self.adj[b].append(idx + 1)
        self.to.append(a)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        adj, to, cap = self.adj, self.to, self.cap
        total = 0
        while True:
            parent = [-1] * self.n
            parent[s] = -2
            queue = [s]
            qi = 0
            while qi < len(queue) and parent[t] == -1:
                v = queue[qi]
                qi += 1
                for idx in adj[v]:
                    if cap[idx] > 0:
                        w = to[idx]
                        if parent[w] == -1:
                            parent[w] = idx
                            if w == t:
                                break
                            queue.append(w)
            if parent[t] == -1:
                return total
            # bottleneck along the BFS path
            push = cap[parent[t]]
            v = t
            while v != s:
                idx = parent[v]
                if cap[idx] < push:
                    push = cap[idx]
                v = to[idx ^ 1]
            v = t
            while v != s:
                idx = parent[v]
                cap[idx] -= push
                cap[idx ^ 1] += push
                v = to[idx ^ 1]
            total += push


def feasible_circulation(n: int, arcs: Sequence[Arc]) -> Optional[List[int]]:
    """Integral circulation respecting every arc's [lower, upper] window.

    Nodes are 0..n-1.  Returns one flow value per arc (in input order), or
    None when no feasible circulation exists.
    """
    net = _Residual(n + 2)
    src, snk = n, n + 1
    excess = [0] * n
    base = []
    for a, b, low, high in arcs:
        if not (0 <= low <= high):
            raise ValueError(f"bad arc bounds [{low}, {high}]")
        base.append(net.add(a, b, high - low))
        excess[b] += low
        excess[a] -= low
    need = 0
    for v in range(n):
        if excess[v] > 0:
            net.add(src, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add(v, snk, -excess[v])
    if net.max_flow(src, snk) != need:
        return None
    # flow on an arc = lower bound + units pushed onto its residual reverse
    return [arcs[i][2] + net.cap[base[i] + 1] for i in range(len(arcs))]
