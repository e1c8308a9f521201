"""Seeded random instance generators for fuzz testing and the CLI fuzz command."""

from __future__ import annotations

import random
from typing import Tuple

from .bee import SortedBipartite
from .multigraph import AmalgamationSpec, ColoredMultigraph, Multigraph


def random_detach_instance(
    rng: random.Random, max_vertices: int = 6
) -> Tuple[ColoredMultigraph, AmalgamationSpec]:
    """A random colored multigraph plus a valid split-count map.

    It has 1..max_vertices vertices and 1..4 colors; each vertex's split
    count is 1..4, an edge record's multiplicity 1..6 and a loop record's
    1..8.  Vertices with split count 1 never receive loops, matching the
    detachment precondition.
    """
    nv = rng.randint(1, max_vertices)
    k = rng.randint(1, 4)
    cg = ColoredMultigraph(k, range(nv))
    eta = {v: rng.randint(1, 4) for v in range(nv)}
    for u in range(nv):
        for v in range(u + 1, nv):
            for j in range(1, k + 1):
                if rng.random() < 0.4:
                    cg.layer(j).add_edges(u, v, rng.randint(1, 6))
    for v in range(nv):
        if eta[v] == 1:
            continue
        for j in range(1, k + 1):
            if rng.random() < 0.4:
                cg.layer(j).add_loops(v, rng.randint(1, 8))
    return cg, AmalgamationSpec(eta)


def random_bipartite(
    rng: random.Random,
    max_side: int = 8,
    max_mult: int = 6,
) -> SortedBipartite:
    """A random bipartite multigraph in peel order, lefts 0.. and rights 100.."""
    nl = rng.randint(1, max_side)
    nr = rng.randint(1, max_side)
    lefts, rights = list(range(nl)), list(range(100, 100 + nr))
    pairs = [
        (l, r, rng.randint(1, max_mult))
        for l in lefts
        for r in rights
        if rng.random() < 0.4
    ]
    return lefts, rights, pairs


def random_even_multigraph(rng: random.Random) -> Multigraph:
    """Union of random closed walks plus random loops: even by construction.

    It has 2..9 vertices, 0..4 closed walks of length 2..8 and 0..3 extra
    loops.  A closed walk may step in place, which adds a loop; every visit
    contributes two to the degree, so all degrees stay even.
    """
    nv = rng.randint(2, 9)
    g = Multigraph(range(nv))
    for _ in range(rng.randint(0, 4)):
        length = rng.randint(2, 8)
        walk = [rng.randrange(nv) for _ in range(length)]
        for a, b in zip(walk, walk[1:] + walk[:1]):
            if a == b:
                g.add_loops(a, 1)
            else:
                g.add_edges(a, b, 1)
    for _ in range(rng.randint(0, 3)):
        g.add_loops(rng.randrange(nv), 1)
    return g
