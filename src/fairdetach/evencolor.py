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

Euler circuits and Petersen 2-factorizations are exposed as operations in
their own right; the 2-factorization also serves as a small-case oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .bee import BipartiteMultigraph, konig_proper_coloring
from .errors import PreconditionError
from .flows import feasible_circulation
from .multigraph import ColoredMultigraph, Multigraph, VertexId


@dataclass(frozen=True)
class EulerCircuit:
    """Closed traversal of one component; loops appear as (v, v) steps."""

    steps: Tuple[Tuple[VertexId, VertexId], ...]

    def edge_count(self) -> int:
        return len(self.steps)

    def check_closed(self) -> bool:
        if not self.steps:
            return True
        ok = all(
            self.steps[i][1] == self.steps[i + 1][0]
            for i in range(len(self.steps) - 1)
        )
        return ok and self.steps[-1][1] == self.steps[0][0]


def euler_circuit(g: Multigraph, component_root: VertexId) -> EulerCircuit:
    """Euler circuit of the component containing `component_root`.

    Every vertex of that component must have even degree.  Deterministic:
    the walk always takes the smallest available neighbor, loops first.
    """
    comp = None
    for c in g.components():
        if component_root in c:
            comp = c
            break
    if comp is None:
        raise PreconditionError(f"unknown vertex {component_root}")
    for v in comp:
        if g.degree(v) % 2:
            raise PreconditionError(f"vertex {v} has odd degree {g.degree(v)}")

    adj: Dict[VertexId, Dict[VertexId, int]] = {
        v: {u: g.multiplicity(v, u) for u in g.neighbors(v)} for v in comp
    }
    loops_left = {v: g.loops(v) for v in comp}

    stack = [component_root]
    trail: List[VertexId] = []
    while stack:
        v = stack[-1]
        if loops_left[v]:
            loops_left[v] -= 1
            stack.append(v)
            continue
        nxt = None
        for u in sorted(adj[v]):
            if adj[v][u] > 0:
                nxt = u
                break
        if nxt is None:
            trail.append(stack.pop())
        else:
            adj[v][nxt] -= 1
            adj[nxt][v] -= 1
            stack.append(nxt)
    trail.reverse()

    steps = tuple(zip(trail, trail[1:]))
    want = sum(g.multiplicity(u, v) for u in comp for v in comp if u < v) + sum(
        g.loops(v) for v in comp
    )
    if len(steps) != want:
        raise AssertionError("euler walk did not cover the component")
    return EulerCircuit(steps=steps)


def _orient(g: Multigraph) -> Dict[Tuple[VertexId, VertexId], int]:
    """Euler orientation of a loopless even graph: arc (u, v) -> count."""
    arcs: Dict[Tuple[VertexId, VertexId], int] = {}
    seen: set = set()
    for comp in g.components():
        root = comp[0]
        seen.update(comp)
        if all(g.degree(v) == 0 for v in comp):
            continue
        for u, v in euler_circuit(g, root).steps:
            arcs[(u, v)] = arcs.get((u, v), 0) + 1
    return arcs


def two_factorization(g: Multigraph) -> List[Multigraph]:
    """Split a 2m-regular loopless multigraph into m spanning 2-regular layers.

    Euler-orient each component, fold arcs into an m-regular bipartite graph
    (out-side vs in-side), properly m-color it, and read each color class
    back as a 2-factor.
    """
    if not g.is_loopless():
        raise PreconditionError("2-factorization requires a loopless graph")
    verts = g.vertices
    if not verts:
        return []
    degs = {g.degree(v) for v in verts}
    if len(degs) != 1:
        raise PreconditionError(f"graph is not regular: degrees {sorted(degs)}")
    d = degs.pop()
    if d % 2:
        raise PreconditionError(f"degree {d} is odd")
    m = d // 2
    if m == 0:
        return []

    arcs = _orient(g)
    bip = BipartiteMultigraph([(0, v) for v in verts], [(1, v) for v in verts])
    for (u, v), n in sorted(arcs.items()):
        bip.add_edges((0, u), (1, v), n)
    coloring = konig_proper_coloring(bip, m)

    factors = []
    for c in range(1, m + 1):
        f = Multigraph(verts)
        for ((_, u), (_, v), col, n) in coloring.items():
            if col == c:
                f.add_edges(u, v, n)
        for v in verts:
            if f.degree(v) != 2:
                raise AssertionError("factor is not 2-regular")
        factors.append(f)
    return factors


def _peel_even_class(
    arcs: Dict[Tuple[VertexId, VertexId], int], verts: List[VertexId], c: int
) -> Dict[Tuple[VertexId, VertexId], int]:
    """One even class from an Euler-oriented graph: per vertex, throughput is
    windowed to floor/ceil of (half-degree / c); conservation keeps it even."""
    if c == 1:
        return dict(arcs)
    half: Dict[VertexId, int] = {v: 0 for v in verts}
    for (u, _), n in arcs.items():
        half[u] += n

    # nodes: v_in = 2i, v_out = 2i+1
    index = {v: i for i, v in enumerate(verts)}
    arc_list = []
    order = sorted(arcs)
    for (u, v) in order:
        arc_list.append((2 * index[u] + 1, 2 * index[v], 0, arcs[(u, v)]))
    vertex_arc_start = len(arc_list)
    for v in verts:
        s = half[v]
        arc_list.append((2 * index[v], 2 * index[v] + 1, s // c, -((-s) // c)))
    flows = feasible_circulation(2 * len(verts), arc_list)
    if flows is None:  # impossible: the fractional 1/c circulation is feasible
        raise AssertionError("even class peeling was infeasible")
    out = {}
    for i, key in enumerate(order):
        if flows[i]:
            out[key] = flows[i]
    return out


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

    loopless = g.copy()
    for v, n in g.loop_items():
        loopless.remove_loops(v, n)
    arcs = _orient(loopless)

    cg = ColoredMultigraph(k, verts)
    remaining = dict(arcs)
    for j in range(1, k + 1):
        cls = _peel_even_class(remaining, verts, k - j + 1)
        for (u, v), n in sorted(cls.items()):
            cg.layer(j).add_edges(u, v, n)
            left = remaining[(u, v)] - n
            if left:
                remaining[(u, v)] = left
            else:
                del remaining[(u, v)]
    if remaining:
        raise AssertionError("peeling left arcs uncolored")

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
