"""Hamiltonian decomposition generators.

Two families are produced: lambda-fold complete graphs, and uniform
group-divisible multigraphs (p parts of size a, multiplicity lambda1
inside parts and lambda2 across).  Both are generated by amalgamating the
target down to a handful of vertices, coloring the amalgamated edges so
that every color class is connected with even fair shares, and letting the
detachment engine disentangle the colors into spanning cycles.

`walecki_odd` is an independent direct construction for odd complete
graphs, kept as a small-case oracle for the engine-based route.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Tuple

from .engine import detach_all
from .errors import GraphError, InfeasibleError, PreconditionError
from .evencolor import evenly_equitable_coloring
from .multigraph import AmalgamationSpec, ColoredMultigraph, Multigraph, VertexId, _FrozenRecord


class GddParams(_FrozenRecord):
    """Uniform-or-not group divisible parameters: part sizes and the two
    multiplicities (lambda1 inside a part, lambda2 across parts).

    Sizes are stored ascending as the canonical form.
    """

    __slots__ = ("sizes", "lambda1", "lambda2")
    sizes: Tuple[int, ...]
    lambda1: int
    lambda2: int

    def __init__(self, sizes: Tuple[int, ...], lambda1: int, lambda2: int) -> None:
        if not sizes:
            raise PreconditionError("need at least one part")
        if any(a < 1 for a in sizes):
            raise PreconditionError("part sizes must be positive")
        if lambda1 < 0 or lambda2 < 0:
            raise PreconditionError("multiplicities must be nonnegative")
        super().__init__(tuple(sorted(sizes)), lambda1, lambda2)

    @property
    def p(self) -> int:
        return len(self.sizes)

    def total_vertices(self) -> int:
        return sum(self.sizes)

    def part_blocks(self) -> List[List[VertexId]]:
        """Canonical partition: consecutive id blocks in size order."""
        blocks = []
        base = 0
        for a in self.sizes:
            blocks.append(list(range(base, base + a)))
            base += a
        return blocks

    def build_graph(self) -> Multigraph:
        """The group divisible multigraph itself, on the `part_blocks` ids."""
        part_of = [i for i, a in enumerate(self.sizes) for _ in range(a)]
        g = Multigraph(range(len(part_of)))
        for u, v in combinations(range(len(part_of)), 2):
            lam = self.lambda1 if part_of[u] == part_of[v] else self.lambda2
            if lam:
                g.add_edges(u, v, lam)
        return g


class Feasibility(NamedTuple):
    """Outcome of the decomposability test: either a cycle count, or the
    label and description of the violated condition."""

    feasible: bool
    k: Optional[int] = None
    condition: Optional[str] = None
    reason: Optional[str] = None


class HamDecomposition(NamedTuple):
    """Edge-disjoint spanning cycles whose multiset union is the host graph.

    Each cycle is a closed vertex sequence; a sequence of length two stands
    for a pair of parallel edges, which is the only spanning cycle shape a
    2-vertex multigraph admits.
    """

    host: Multigraph
    cycles: Tuple[Tuple[VertexId, ...], ...]

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)


# ---------------------------------------------------------------------------
# direct construction for odd complete graphs


def walecki_odd(n: int) -> HamDecomposition:
    """Hamiltonian decomposition of the complete graph on odd n >= 3.

    The classic zigzag: a hub vertex plus rotations of a zigzag path on the
    remaining n-1 vertices give (n-1)/2 edge-disjoint spanning cycles.
    """
    if n < 3 or n % 2 == 0:
        raise PreconditionError(f"need odd n >= 3, got {n}")
    m = n - 1
    hub = m
    cycles = []
    for i in range(m // 2):
        path = [i]
        for step in range(1, m):
            offset = (step + 1) // 2 if step % 2 else -(step // 2)
            path.append((i + offset) % m)
        cycles.append(tuple([hub] + path))
    return HamDecomposition(host=GddParams((n,), 1, 0).build_graph(), cycles=tuple(cycles))


# ---------------------------------------------------------------------------
# engine-based constructions


def _extract_cycle(layer: Multigraph, rename: Dict[VertexId, int]) -> Tuple[VertexId, ...]:
    """Read the spanning cycle off a connected 2-regular loopless layer,
    each vertex v renamed to rename[v].

    `rename` is `_relabel`'s map, so its first vertex, order[0], is the one
    renamed 0.  The walk starts there and takes its lower-renamed neighbor
    first; 2-regularity leaves no choices after that, and the layer is one
    spanning cycle exactly when the walk comes back after every vertex.
    """
    cycle = layer.spanning_cycle(next(iter(rename)), rename)
    if cycle is None:
        raise AssertionError("color class is not a single spanning cycle")
    return tuple(cycle)


def _relabel(cg: ColoredMultigraph, order: List[VertexId]) -> Dict[VertexId, int]:
    """The map renaming vertex order[i] to i; order must list every vertex
    exactly once."""
    rename = {v: i for i, v in enumerate(order)}
    if len(rename) != len(order) or sorted(rename) != cg.vertices:
        raise GraphError("a relabeling order must list every vertex exactly once")
    return rename


def _read_off(host: Multigraph, cg: ColoredMultigraph, order: List[VertexId]) -> HamDecomposition:
    """The decomposition of `host`, the requested graph, that a detachment
    spells: vertex order[i] becomes i and each color class is read off as
    one spanning cycle.  The layers are walked as they are, renaming only
    the vertices each cycle emits."""
    rename = _relabel(cg, order)
    cycles = tuple(_extract_cycle(cg.layer(j), rename) for j in range(1, cg.k + 1))
    return HamDecomposition(host=host, cycles=cycles)


def ham_decompose_lambda_kn(n: int, lam: int) -> HamDecomposition:
    """Hamiltonian decomposition of the lambda-fold complete graph on n vertices.

    Exists iff lam*(n-1) is even; yields lam*(n-1)/2 cycles.  Construction:
    amalgamate everything into one vertex carrying lam*C(n,2) loops, give
    each of the lam*(n-1)/2 colors exactly n loops (so each color's degree
    ratio is the even integer 2, which keeps every class connected through
    the detachment), then detach with split count n.
    """
    if n < 2:
        raise PreconditionError(f"need n >= 2, got {n}")
    if lam < 1:
        raise PreconditionError(f"need lambda >= 1, got {lam}")
    if (lam * (n - 1)) % 2:
        raise InfeasibleError(
            "parity",
            f"lambda*(n-1) = {lam}*{n - 1} is odd, so no decomposition exists",
        )
    k = lam * (n - 1) // 2
    cg = ColoredMultigraph(k, [0])
    for j in range(1, k + 1):
        cg.layer(j).add_loops(0, n)
    g, psi, _ = detach_all(cg, AmalgamationSpec({0: n}))
    return _read_off(GddParams((n,), lam, 0).build_graph(), g, psi.fiber(0))


def gdd_feasible(params: GddParams) -> Feasibility:
    """Decide Hamiltonian decomposability of the group divisible multigraph.

    Total function.  Dispatches the four degenerate shapes (one part, no
    cross edges, all singleton parts, equal multiplicities) and otherwise
    tests the three conditions: equal part sizes, even vertex degree, and
    enough cross edges to host the intra-part load.
    """
    p = params.p
    sizes = params.sizes
    l1, l2 = params.lambda1, params.lambda2

    def parity_case(lam: int, n: int, label: str) -> Feasibility:
        if (lam * (n - 1)) % 2 == 0:
            return Feasibility(feasible=True, k=lam * (n - 1) // 2)
        return Feasibility(
            feasible=False,
            condition=label,
            reason=f"vertex degree {lam}*({n}-1) is odd",
        )

    if p == 1:
        return parity_case(l1, sizes[0], "trivial (i)")
    if l2 == 0:
        return Feasibility(
            feasible=False,
            condition="trivial (ii)",
            reason="no edges between parts, the graph is disconnected",
        )
    if all(a == 1 for a in sizes):
        return parity_case(l2, p, "trivial (iii)")
    if l1 == l2:
        return parity_case(l1, params.total_vertices(), "trivial (iv)")

    if len(set(sizes)) != 1:
        return Feasibility(
            feasible=False,
            condition="(i)",
            reason=f"part sizes {list(sizes)} are not all equal",
        )
    a = sizes[0]
    degree = l1 * (a - 1) + l2 * a * (p - 1)
    if degree % 2:
        return Feasibility(
            feasible=False,
            condition="(ii)",
            reason=f"vertex degree {degree} is odd",
        )
    if l1 > l2 * a * (p - 1):
        return Feasibility(
            feasible=False,
            condition="(iii)",
            reason=(
                f"intra-part multiplicity {l1} exceeds the cross budget "
                f"{l2}*{a}*({p}-1) = {l2 * a * (p - 1)}"
            ),
        )
    return Feasibility(feasible=True, k=degree // 2)


def ham_decompose_gdd(params: GddParams) -> HamDecomposition:
    """Hamiltonian decomposition of the group divisible multigraph.

    Construction for the main shape: amalgamate each part to one vertex
    (loops carry the intra-part edges), decompose the loopless part of the
    amalgam into Hamiltonian cycles, color k of them distinctly so each
    color class is connected, spread the remaining edges evenly-equitably
    over the same k colors, and detach with split count a.  Output vertices
    are relabeled so part i occupies the i-th consecutive id block.
    """
    feas = gdd_feasible(params)
    if not feas.feasible:
        raise InfeasibleError(feas.condition or "?", feas.reason or "infeasible")
    k = feas.k or 0
    p = params.p
    sizes = params.sizes
    l1, l2 = params.lambda1, params.lambda2

    if k == 0:
        return HamDecomposition(host=params.build_graph(), cycles=())
    if p == 1:
        return ham_decompose_lambda_kn(sizes[0], l1)
    if all(a == 1 for a in sizes):
        return ham_decompose_lambda_kn(p, l2)
    if l1 == l2:
        return ham_decompose_lambda_kn(params.total_vertices(), l1)

    a = sizes[0]
    cross = ham_decompose_lambda_kn(p, l2 * a * a)
    if cross.cycle_count < k:
        raise AssertionError(
            f"only {cross.cycle_count} cross cycles available for {k} colors"
        )

    cg = ColoredMultigraph(k, range(p))
    for j in range(1, k + 1):
        cyc = cross.cycles[j - 1]
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            cg.layer(j).add_edges(u, v, 1)
    rest = Multigraph(range(p))
    for cyc in cross.cycles[k:]:
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            rest.add_edges(u, v, 1)
    loops_per_vertex = l1 * a * (a - 1) // 2
    for y in range(p):
        rest.add_loops(y, loops_per_vertex)
    spread = evenly_equitable_coloring(rest, k)
    for j in range(1, k + 1):
        cg.layer(j).merge(spread.layer(j))

    eta = AmalgamationSpec({y: a for y in range(p)})
    g, psi, _ = detach_all(cg, eta)
    return _read_off(params.build_graph(), g, [u for y in range(p) for u in psi.fiber(y)])
