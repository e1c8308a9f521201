"""Evenly-equitable k-edge-colorings of even multigraphs.

A coloring is evenly equitable when every vertex has even degree in every
color class and any two of its class degrees differ by at most two.  Every
even graph admits one for every k.  Construction: orient each component
along an Euler circuit, then peel one class per color as an integral
circulation whose per-vertex throughput is windowed to floor/ceil of the
fair share.  Circulation conservation makes each class an even subgraph,
and the windows compose across the peeling recursion exactly as in the
bipartite colorings.  Loops are 2-contribution units assigned atomically
to the currently lightest class of their vertex.

The orientation (`_orient`) walks each component with Hierholzer's stack
walk (`_walk`), always to the smallest neighbor with an unused edge.  It
spends rows read once (neighbor -> count, ascending) and drops a neighbor
whose count runs out, so the smallest live neighbor is the row's first key.

The peel sorts the oriented arcs once into an integer skeleton: each arc's
uncolored count (`mult`), each vertex's uncolored out-degree (`half`) and
one `flows.Network` (the arcs, then one arc per vertex) for every class.
Each class is subtracted in place; an emptied arc keeps its place with
capacity 0 both ways, which the search skips like any saturated arc.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from .errors import PreconditionError
from .flows import Network, Residual, feasible_circulation
from .multigraph import ColoredMultigraph, Multigraph, VertexId


def _walk(adj: Dict[VertexId, Dict[VertexId, int]], root: VertexId) -> List[VertexId]:
    """Closed walk from `root` over every edge reachable from it, as a vertex
    sequence, always to the smallest neighbor with an unused edge.

    Spends the counts it is given: `adj` rows must list neighbors in
    ascending order with positive counts, and walked entries are removed.
    """
    stack = [root]
    trail: List[VertexId] = []
    while stack:
        v = stack[-1]
        row = adj[v]
        if not row:
            trail.append(stack.pop())
            continue
        u = next(iter(row))
        back = adj[u]
        if row[u] == 1:
            del row[u], back[v]
        else:
            row[u] -= 1
            back[v] -= 1
        stack.append(u)
    trail.reverse()
    return trail


def _orient(g: Multigraph) -> Dict[Tuple[VertexId, VertexId], int]:
    """Euler orientation of an even graph's edges (loops are ignored):
    arc (u, v) -> count, each component walked from its smallest vertex."""
    adj = g.rows()
    arcs: Dict[Tuple[VertexId, VertexId], int] = {}
    for root in g.vertices:
        if adj[root]:  # still unwalked, so the smallest vertex of its component
            trail = _walk(adj, root)
            for arc in zip(trail, trail[1:]):
                arcs[arc] = arcs.get(arc, 0) + 1
    if any(adj.values()):
        raise AssertionError("euler walk did not cover the graph")
    return arcs


def _peel_even_class(net: Network, mult: List[int], half: List[int], c: int) -> List[int]:
    """One even class of the uncolored arcs: per vertex, throughput is
    windowed to floor/ceil of (half-degree / c); conservation keeps it even.

    Vertex i is the circulation nodes 2i (in) and 2i + 1 (out).  The arcs
    of `net` are first the oriented arcs, arc p with window [0, mult[p]],
    then 2i -> 2i + 1 per vertex i.  Returns the class's count on each
    oriented arc.
    """
    if c == 1:
        return list(mult)
    low = [0] * len(mult) + [s // c for s in half]
    room = mult + [1 if s % c else 0 for s in half]
    flows = feasible_circulation(2 * len(half), Residual(net, low, room))
    if flows is None:  # impossible: the fractional 1/c circulation is feasible
        raise AssertionError("even class peeling was infeasible")
    return flows[: len(mult)]


def evenly_equitable_coloring(g: Multigraph, k: int) -> ColoredMultigraph:
    """Evenly-equitable k-edge-coloring of an even multigraph.

    Post: layers sum to g; every per-vertex class degree is even; any two
    class degrees at one vertex differ by at most 2.
    """
    if k < 1:
        raise PreconditionError(f"need at least one color, got {k}")
    verts = g.vertices
    for v in verts:
        if g.degree(v) % 2:
            raise PreconditionError(f"vertex {v} has odd degree {g.degree(v)}")

    arcs = _orient(g)
    order = sorted(arcs)
    node = {v: 2 * i for i, v in enumerate(verts)}
    ends = [(node[u] + 1, node[v]) for u, v in order]
    mult = [arcs[arc] for arc in order]
    half = [0] * len(verts)
    for (a, _), n in zip(ends, mult):
        half[a // 2] += n
    net = Network(2 * len(verts), ends + [(2 * i, 2 * i + 1) for i in range(len(verts))])

    cg = ColoredMultigraph(k, verts)
    for j in range(1, k + 1):
        layer = cg.layer(j)
        for p, f in enumerate(_peel_even_class(net, mult, half, k - j + 1)):
            if f:
                layer.add_edges(*order[p], f)
                mult[p] -= f
                half[ends[p][0] // 2] -= f

    # loops: atomic 2-units, water-filled onto the lightest class at the
    # vertex, lowest color first among equals: a heap of (degree, color)
    for v, n in g.loop_items():
        heap = [(cg.layer(j).degree(v), j) for j in range(1, k + 1)]
        heapq.heapify(heap)
        for _ in range(n):
            d, j = heap[0]
            cg.layer(j).add_loops(v, 1)
            heapq.heapreplace(heap, (d + 2, j))

    if not is_evenly_equitable(cg):
        raise AssertionError("construction violated its contract")
    return cg


def is_evenly_equitable(cg: ColoredMultigraph) -> bool:
    """Per vertex: every class degree even, spread between classes at most 2."""
    for v in cg.vertices:
        degs = [cg.layer(j).degree(v) for j in range(1, cg.k + 1)]
        if any(d % 2 for d in degs):
            return False
        if max(degs) - min(degs) > 2:
            return False
    return True
