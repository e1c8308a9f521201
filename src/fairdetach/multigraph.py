"""Core value types: loop-carrying multigraphs and their colored layerings.

All edge bookkeeping is by exact integer multiplicity counts, never by edge
identity.  Vertices are dense nonnegative integer ids.

The storage (`_adj`, `_loops`, `_layers`) is private to this module; no
other module reads or writes it.  Besides the checked per-pair methods,
which look up both endpoints on every call, row-level operations serve the
detachment engine and the cycle read-off:

  * `ColoredMultigraph.split_off` applies one detachment step's moves in
    place, one row update per (color, neighbor);
  * `Multigraph.merge` adds a graph's rows in one pass, so `underlying` is
    one pass per layer;
  * `Multigraph.spanning_cycle` walks a 2-regular layer once, emitting
    renamed vertices, so the read-off copies no layer;
  * `ColoredMultigraph.rows_at` reads a vertex's per-color loop counts and
    sorted rows in one call (the engine's fan), `Multigraph.rows` all of a
    graph's sorted rows (the Euler orientation) and
    `Multigraph.component_labels` the components of a graph minus one
    vertex in one traversal (the engine's union-finds and
    `component_count`).

`remove_edges` and `remove_loops`, which no construction calls, stay as the
inverses of `add_edges` and `add_loops` on a public type: the per-step
tests' oracle `engine._component_map` uses `remove_edges`, and tests plant
faults through both.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from .errors import GraphError, PreconditionError

VertexId = int


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
        if n < 0:
            raise GraphError(f"negative edge count {n}")
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
        if n < 0:
            raise GraphError(f"negative loop count {n}")
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

    def row(self, v: VertexId) -> List[Tuple[VertexId, int]]:
        """(neighbor, multiplicity) for every neighbor of v (loops excluded), ascending."""
        self._require(v)
        return sorted(self._adj[v].items())

    def rows(self) -> Dict[VertexId, Dict[VertexId, int]]:
        """A fresh {v: {neighbor: multiplicity}} of every row (loops
        excluded), vertices and each row's neighbors ascending."""
        return {v: dict(sorted(self._adj[v].items())) for v in sorted(self._adj)}

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

    def component_count(self) -> int:
        """Number of connected components, counting isolated vertices."""
        return len(set(self.component_labels().values()))

    def component_labels(self, skip: Optional[VertexId] = None) -> Dict[VertexId, VertexId]:
        """The smallest vertex of each vertex's component in the graph minus
        `skip`, the components in ascending order of that vertex."""
        label: Dict[VertexId, VertexId] = {}
        for root in sorted(self._adj):
            if root == skip or root in label:
                continue
            label[root] = root
            stack = [root]
            while stack:
                for u in self._adj[stack.pop()]:
                    if u != skip and u not in label:
                        label[u] = root
                        stack.append(u)
        return label

    # -- structural helpers ----------------------------------------------------

    def copy(self) -> "Multigraph":
        g = Multigraph()
        g._adj = {v: dict(d) for v, d in self._adj.items()}
        g._loops = dict(self._loops)
        return g

    def merge(self, other: "Multigraph") -> None:
        """Add all of other's vertices, edges and loops into this graph."""
        adj, loops = self._adj, self._loops
        for v, row in other._adj.items():
            mine = adj.setdefault(v, {})
            for u, n in row.items():
                mine[u] = mine.get(u, 0) + n
        for v, n in other._loops.items():
            loops[v] = loops.get(v, 0) + n

    def spanning_cycle(
        self, start: VertexId, rename: Dict[VertexId, VertexId]
    ) -> Optional[List[VertexId]]:
        """The vertices of the graph's one spanning cycle, renamed through
        `rename`, walked from `start` towards its lower-renamed neighbor;
        None unless the graph is loopless, 2-regular and connected.

        After the first step each vertex has one edge left, to the neighbor
        it was not entered from, or back along a doubled edge (the 2-cycle
        of two parallel edges).
        """
        adj = self._adj
        if self._loops or any(sum(row.values()) != 2 for row in adj.values()):
            return None
        cycle = [rename[start]]
        prev, v = start, min(adj[start], key=rename.__getitem__)
        while v != start:
            cycle.append(rename[v])
            prev, v = v, next((u for u in adj[v] if u != prev), prev)
        return cycle if len(cycle) == len(adj) else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._adj == other._adj and self._loops == other._loops

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
        if not 1 <= j <= len(self._layers):
            raise GraphError(f"color {j} out of range 1..{self.k}")
        return self._layers[j - 1]

    def add_vertex(self, v: VertexId) -> None:
        for g in self._layers:
            g.add_vertex(v)

    def loops(self, v: VertexId) -> int:
        return sum(g.loops(v) for g in self._layers)

    def rows_at(self, y: VertexId) -> List[Tuple[int, List[Tuple[VertexId, int]]]]:
        """Per color 1..k: y's loop count and its row, neighbors ascending."""
        if y not in self._layers[0]._adj:
            raise GraphError(f"unknown vertex {y}")
        return [(g._loops.get(y, 0), sorted(g._adj[y].items())) for g in self._layers]

    def split_off(
        self,
        y: VertexId,
        v_new: VertexId,
        edge_moves: Dict[int, Dict[VertexId, int]],
        loop_moves: Dict[int, int],
    ) -> None:
        """Add vertex v_new and hand it edge ends of y, in place: per color j,
        edge_moves[j][w] edges y-w become v_new-w, then loop_moves[j] loops at
        y become edges y-v_new.

        Each move is checked by the one comparison that applies it: its
        count must lie in 1..present, the edges y-w or the loops at y that it
        takes.  A v_new that exists or is negative, an unknown y, an unknown
        color and a count outside that range each raise GraphError; the range
        also covers an unknown w, w == y and w == v_new, where no edge is
        present.  On an error the moves before it stay applied.
        """
        known = self._layers[0]._adj
        if v_new in known:
            raise GraphError(f"new vertex {v_new} already exists")
        if y not in known:
            raise GraphError(f"unknown vertex {y}")
        self.add_vertex(v_new)
        for j, moves in edge_moves.items():
            adj = self.layer(j)._adj
            at_y, at_new = adj[y], adj[v_new]
            for w, n in moves.items():
                have = at_y.get(w, 0)
                if not 0 < n <= have:
                    raise GraphError(f"cannot remove {n} edges from m({y},{w})={have}")
                at_w = adj[w]
                if n == have:
                    del at_y[w], at_w[y]
                else:
                    at_y[w] = at_w[y] = have - n
                at_new[w] = at_new.get(w, 0) + n
                at_w[v_new] = at_w.get(v_new, 0) + n
        for j, n in loop_moves.items():
            g = self.layer(j)
            have = g._loops.get(y, 0)
            if not 0 < n <= have:
                raise GraphError(f"cannot remove {n} loops from l({y})={have}")
            if n == have:
                del g._loops[y]
            else:
                g._loops[y] = have - n
            at_y = g._adj[y]
            at_y[v_new] = at_y.get(v_new, 0) + n
            g._adj[v_new][y] = at_y[v_new]

    def underlying(self) -> Multigraph:
        """The entrywise sum of the layers, in one graph."""
        g = Multigraph(self.vertices)
        for layer in self._layers:
            g.merge(layer)
        return g

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


class _Record:
    """The fields named in `__slots__`, set by `__init__` in that order;
    equal to a record of its class with equal fields, unhashable, and
    copied and pickled through its constructor."""

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class _FrozenRecord(_Record):
    """A `_Record` whose fields cannot be rebound, hashed by its fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __hash__(self) -> int:
        return hash(self._values())


class AmalgamationSpec(_FrozenRecord):
    """Requested split counts: vertex w of the host graph becomes eta[w] vertices.

    A vertex kept whole (eta == 1) must carry no loops, because a loop has
    nowhere to go once its endpoints can no longer be separated.
    """

    __slots__ = ("eta",)
    eta: Dict[VertexId, int]

    def __init__(self, eta: Dict[VertexId, int]) -> None:
        for v, n in eta.items():
            if n < 1:
                raise GraphError(f"eta({v}) = {n} must be positive")
        super().__init__(eta)

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


class DetachmentMap(_FrozenRecord):
    """Surjection psi from detached vertices onto host vertices, kept as its
    fibers: fibers[w] lists psi^-1(w) in creation order, the host vertex
    itself first.  The constructor copies the lists and rejects a vertex
    listed twice, in one fiber or in two, so the fibers are disjoint;
    `psi` is read off them.
    """

    __slots__ = ("fibers",)
    fibers: Dict[VertexId, List[VertexId]]

    def __init__(self, fibers: Dict[VertexId, List[VertexId]]) -> None:
        owner: Dict[VertexId, VertexId] = {}
        for w, fiber in fibers.items():
            for u in fiber:
                if u in owner:
                    if owner[u] == w:
                        raise GraphError(f"vertex {u} is listed twice in the fiber of {w}")
                    raise GraphError(f"vertex {u} appears in two fibers")
                owner[u] = w
        super().__init__({w: list(f) for w, f in fibers.items()})

    @property
    def psi(self) -> Dict[VertexId, VertexId]:
        return {u: w for w, fiber in self.fibers.items() for u in fiber}

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
