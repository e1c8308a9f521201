"""Core value types: loop-carrying multigraphs and their colored layerings.

All edge bookkeeping is by exact integer multiplicity counts, never by edge
identity.  Vertices are dense nonnegative integer ids.  The floor/ceiling
window test `approx` is the single comparison primitive used by every
fairness contract in the package; it is implemented in exact rational
arithmetic and never touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple, Union

from .errors import GraphError, PreconditionError

VertexId = int

Rational = Union[int, Fraction]


def approx(x: Rational, y: Rational) -> bool:
    """True iff floor(y) <= x <= ceil(y), evaluated in exact rational arithmetic."""
    y = Fraction(y)
    return math.floor(y) <= x <= math.ceil(y)


def approx_ratio(x: Rational, num: int, den: int) -> bool:
    """approx(x, num/den) without constructing Fractions; den must be positive."""
    if den <= 0:
        raise GraphError(f"nonpositive denominator {den}")
    return (num // den) <= x <= -((-num) // den)


class Multigraph:
    """Undirected multigraph with loops, stored as per-pair and per-vertex counts.

    `mult` is kept symmetric by construction (adjacency is a dict of dicts,
    mirrored on both endpoints) and zero entries are never stored.  Loops
    contribute two to the degree of their vertex.
    """

    __slots__ = ("_adj", "_loops")

    def __init__(self, vertices: Iterable[VertexId] = ()) -> None:
        self._adj: Dict[VertexId, Dict[VertexId, int]] = {}
        self._loops: Dict[VertexId, int] = {}
        for v in vertices:
            self.add_vertex(v)

    # -- vertex bookkeeping ------------------------------------------------

    @property
    def vertices(self) -> List[VertexId]:
        """Vertex ids in ascending order."""
        return sorted(self._adj)

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._adj

    def add_vertex(self, v: VertexId) -> None:
        if v < 0:
            raise GraphError(f"vertex ids must be nonnegative, got {v}")
        self._adj.setdefault(v, {})

    def _require(self, v: VertexId) -> None:
        if v not in self._adj:
            raise GraphError(f"unknown vertex {v}")

    # -- edge bookkeeping ----------------------------------------------------

    def add_edges(self, u: VertexId, v: VertexId, n: int = 1) -> None:
        """Add n parallel edges between distinct vertices u and v."""
        if n < 0:
            raise GraphError(f"negative edge count {n}")
        if u == v:
            raise GraphError("use add_loops for loops")
        self._require(u)
        self._require(v)
        if n == 0:
            return
        self._adj[u][v] = self._adj[u].get(v, 0) + n
        self._adj[v][u] = self._adj[v].get(u, 0) + n

    def remove_edges(self, u: VertexId, v: VertexId, n: int = 1) -> None:
        have = self.multiplicity(u, v)
        if n > have:
            raise GraphError(f"cannot remove {n} edges from m({u},{v})={have}")
        if n == 0:
            return
        if have == n:
            del self._adj[u][v]
            del self._adj[v][u]
        else:
            self._adj[u][v] = have - n
            self._adj[v][u] = have - n

    def add_loops(self, v: VertexId, n: int = 1) -> None:
        if n < 0:
            raise GraphError(f"negative loop count {n}")
        self._require(v)
        if n:
            self._loops[v] = self._loops.get(v, 0) + n

    def remove_loops(self, v: VertexId, n: int = 1) -> None:
        have = self.loops(v)
        if n > have:
            raise GraphError(f"cannot remove {n} loops from l({v})={have}")
        if n == 0:
            return
        if have == n:
            del self._loops[v]
        else:
            self._loops[v] = have - n

    # -- queries -------------------------------------------------------------

    def multiplicity(self, u: VertexId, v: VertexId) -> int:
        self._require(u)
        self._require(v)
        if u == v:
            raise GraphError("multiplicity is defined for distinct vertices; use loops()")
        return self._adj[u].get(v, 0)

    def loops(self, v: VertexId) -> int:
        self._require(v)
        return self._loops.get(v, 0)

    def degree(self, v: VertexId) -> int:
        """Sum of incident multiplicities plus twice the loop count."""
        self._require(v)
        return sum(self._adj[v].values()) + 2 * self._loops.get(v, 0)

    def neighbors(self, v: VertexId) -> List[VertexId]:
        """Distinct adjacent vertices (loops excluded), ascending."""
        self._require(v)
        return sorted(self._adj[v])

    def row(self, v: VertexId) -> List[Tuple[VertexId, int]]:
        """(neighbor, multiplicity) for every neighbor of v (loops excluded), ascending."""
        self._require(v)
        return sorted(self._adj[v].items())

    def pairs(self) -> List[Tuple[VertexId, VertexId, int]]:
        """All (u, v, multiplicity) with u < v, in ascending order."""
        out = []
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    out.append((u, v, self._adj[u][v]))
        return out

    def loop_items(self) -> List[Tuple[VertexId, int]]:
        return sorted(self._loops.items())

    def edge_count(self) -> int:
        """Total number of edges, loops counted once."""
        half = sum(sum(d.values()) for d in self._adj.values())
        return half // 2 + sum(self._loops.values())

    def is_loopless(self) -> bool:
        return not self._loops

    def multiplicity_sets(self, a: Iterable[VertexId], b: Iterable[VertexId]) -> int:
        """Total number of edges joining a vertex of A to a vertex of B (A, B disjoint)."""
        sa, sb = set(a), set(b)
        if sa & sb:
            raise GraphError("multiplicity_sets requires disjoint vertex sets")
        for v in sa | sb:
            self._require(v)
        return sum(self._adj[u].get(v, 0) for u in sa for v in sb)

    def component_count(self) -> int:
        """Number of connected components, counting isolated vertices."""
        return len(self.components())

    def components(self) -> List[List[VertexId]]:
        """Connected components as sorted vertex lists, ordered by smallest member."""
        seen: set = set()
        comps = []
        for root in sorted(self._adj):
            if root in seen:
                continue
            comp = [root]
            seen.add(root)
            stack = [root]
            while stack:
                x = stack.pop()
                for y in self._adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        stack.append(y)
            comps.append(sorted(comp))
        return comps

    # -- structural helpers ----------------------------------------------------

    def copy(self) -> "Multigraph":
        g = Multigraph()
        g._adj = {v: dict(d) for v, d in self._adj.items()}
        g._loops = dict(self._loops)
        return g

    def merge(self, other: "Multigraph") -> None:
        """Add all of other's vertices, edges and loops into this graph."""
        for v in other._adj:
            self.add_vertex(v)
        for u, v, n in other.pairs():
            self.add_edges(u, v, n)
        for v, n in other.loop_items():
            self.add_loops(v, n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (
            set(self._adj) == set(other._adj)
            and all(self._adj[v] == other._adj.get(v, {}) for v in self._adj)
            and self._loops == other._loops
        )

    def __repr__(self) -> str:
        return (
            f"Multigraph(vertices={self.vertices}, "
            f"pairs={self.pairs()}, loops={self.loop_items()})"
        )


class ColoredMultigraph:
    """k multigraph layers over one shared vertex set; layer j is color class j.

    Colors are labeled 1..k.  The underlying graph is the entrywise sum of
    the layers' multiplicities and loop counts.
    """

    __slots__ = ("_layers",)

    def __init__(self, k: int, vertices: Iterable[VertexId] = ()) -> None:
        if k < 1:
            raise GraphError(f"color count must be positive, got {k}")
        vs = list(vertices)
        self._layers = [Multigraph(vs) for _ in range(k)]

    @property
    def k(self) -> int:
        return len(self._layers)

    @property
    def vertices(self) -> List[VertexId]:
        return self._layers[0].vertices

    def layer(self, j: int) -> Multigraph:
        """Color class j, 1-based."""
        if not 1 <= j <= self.k:
            raise GraphError(f"color {j} out of range 1..{self.k}")
        return self._layers[j - 1]

    def add_vertex(self, v: VertexId) -> None:
        for g in self._layers:
            g.add_vertex(v)

    def degree(self, v: VertexId) -> int:
        return sum(g.degree(v) for g in self._layers)

    def loops(self, v: VertexId) -> int:
        return sum(g.loops(v) for g in self._layers)

    def multiplicity(self, u: VertexId, v: VertexId) -> int:
        return sum(g.multiplicity(u, v) for g in self._layers)

    def underlying(self) -> Multigraph:
        g = Multigraph(self.vertices)
        for layer in self._layers:
            g.merge(layer)
        return g

    def edge_count(self) -> int:
        return sum(g.edge_count() for g in self._layers)

    def copy(self) -> "ColoredMultigraph":
        cg = ColoredMultigraph(self.k)
        cg._layers = [g.copy() for g in self._layers]
        return cg

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredMultigraph):
            return NotImplemented
        return self._layers == other._layers

    def __repr__(self) -> str:
        return f"ColoredMultigraph(k={self.k}, vertices={self.vertices})"


@dataclass(frozen=True)
class AmalgamationSpec:
    """Requested split counts: vertex w of the host graph becomes eta[w] vertices.

    A vertex kept whole (eta == 1) must carry no loops, because a loop has
    nowhere to go once its endpoints can no longer be separated.
    """

    eta: Dict[VertexId, int]

    def __post_init__(self) -> None:
        for v, n in self.eta.items():
            if n < 1:
                raise GraphError(f"eta({v}) = {n} must be positive")

    def value(self, v: VertexId) -> int:
        if v not in self.eta:
            raise GraphError(f"eta is undefined at vertex {v}")
        return self.eta[v]

    def total_splits(self) -> int:
        """Number of single-vertex detachment steps needed to realize this spec."""
        return sum(n - 1 for n in self.eta.values())

    def validate_against(self, g: Union[Multigraph, ColoredMultigraph]) -> None:
        """Check eta against g's vertex set and loop counts (all colors summed)."""
        if set(self.eta) != set(g.vertices):
            raise PreconditionError("eta must be defined on exactly the graph's vertices")
        for v in g.vertices:
            if self.eta[v] == 1 and g.loops(v) > 0:
                raise PreconditionError(
                    f"vertex {v} keeps eta=1 but carries {g.loops(v)} loops"
                )


@dataclass(frozen=True)
class DetachmentMap:
    """Surjection psi from detached vertices onto host vertices, with its fibers.

    fibers[w] lists psi^-1(w) in creation order, the host vertex itself first;
    the fibers partition the detached vertex set.
    """

    psi: Dict[VertexId, VertexId]
    fibers: Dict[VertexId, List[VertexId]] = field(default_factory=dict)

    @classmethod
    def from_fibers(cls, fibers: Dict[VertexId, List[VertexId]]) -> "DetachmentMap":
        psi = {}
        for w, fiber in fibers.items():
            for u in fiber:
                if u in psi:
                    raise GraphError(f"vertex {u} appears in two fibers")
                psi[u] = w
        return cls(psi=psi, fibers={w: list(f) for w, f in fibers.items()})

    def fiber(self, w: VertexId) -> List[VertexId]:
        if w not in self.fibers:
            raise GraphError(f"no fiber for host vertex {w}")
        return list(self.fibers[w])

    def validate(self, spec: AmalgamationSpec) -> None:
        if set(self.fibers) != set(spec.eta):
            raise GraphError("fibers must cover exactly the host vertex set")
        for w, fiber in self.fibers.items():
            if len(fiber) != spec.eta[w]:
                raise GraphError(
                    f"fiber of {w} has size {len(fiber)}, expected eta={spec.eta[w]}"
                )
        if len(self.psi) != sum(len(f) for f in self.fibers.values()):
            raise GraphError("fibers do not partition the detached vertex set")
