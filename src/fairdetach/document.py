"""Versioned JSON interchange documents.

Two document kinds, both under the "v1" version tag:

  graph          a colored multigraph with optional split counts (eta) and
                 optional vertex map (psi),
  decomposition  a host multigraph plus spanning cycles as vertex sequences.

Multiplicities are stored as counts, never as repeated records, and every
list is emitted in sorted order so serialization is byte-stable; parsing a
serialized document reproduces it exactly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .errors import DocumentError, GraphError
from .hamilton import HamDecomposition
from .multigraph import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    Multigraph,
)

VERSION = "v1"


def dumps(doc: Dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, tight separators, one newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> Dict[str, Any]:
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise DocumentError("not valid JSON: nesting too deep") from exc
    except ValueError as exc:  # bad syntax, or an integer past int's digit limit
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("version") != VERSION:
        raise DocumentError(f"unsupported document version {doc.get('version')!r}")
    if doc.get("kind") not in ("graph", "decomposition"):
        raise DocumentError(f"unknown document kind {doc.get('kind')!r}")
    return doc


def _require(cond: bool, message: str, *args: Any) -> None:
    """Raise DocumentError(message.format(*args)) unless cond holds.  The
    message is formatted only on failure, so a valid record costs no repr."""
    if not cond:
        raise DocumentError(message.format(*args))


def _is_int(x: Any, low: int = 0) -> bool:
    """x is an integer >= low; JSON true and false do not count as integers."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def _records(obj: Dict[str, Any], key: str) -> List[Any]:
    recs = obj.get(key, [])
    _require(isinstance(recs, list), "{} must be a list of records", key)
    return recs


def _vertex_list(doc: Dict[str, Any]) -> List[int]:
    verts = doc.get("vertices")
    _require(isinstance(verts, list), "missing vertex list")
    _require(all(_is_int(v) for v in verts), "vertices must be nonnegative integers")
    _require(len(set(verts)) == len(verts), "duplicate vertex ids")
    return list(verts)


def graph_to_doc(
    cg: ColoredMultigraph,
    eta: Optional[AmalgamationSpec] = None,
    psi: Optional[DetachmentMap] = None,
) -> Dict[str, Any]:
    edges = []
    loops = []
    for j in range(1, cg.k + 1):
        layer = cg.layer(j)
        for u, v, n in layer.pairs():
            edges.append([u, v, j, n])
        for v, n in layer.loop_items():
            loops.append([v, j, n])
    doc: Dict[str, Any] = {
        "version": VERSION,
        "kind": "graph",
        "k": cg.k,
        "vertices": cg.vertices,
        "edges": sorted(edges),
        "loops": sorted(loops),
    }
    if eta is not None:
        doc["eta"] = [[v, n] for v, n in sorted(eta.eta.items())]
    if psi is not None:
        doc["psi"] = [[w, list(f)] for w, f in sorted(psi.fibers.items())]
    return doc


def doc_to_graph(
    doc: Dict[str, Any],
) -> Tuple[ColoredMultigraph, Optional[AmalgamationSpec], Optional[DetachmentMap]]:
    _require(doc.get("kind") == "graph", "expected a graph document")
    k = doc.get("k")
    _require(_is_int(k, 1), "k must be a positive integer")
    verts = _vertex_list(doc)
    vset = set(verts)
    cg = ColoredMultigraph(k, verts)
    for rec in _records(doc, "edges"):
        _require(
            isinstance(rec, list) and len(rec) == 4 and all(_is_int(x) for x in rec),
            "edge record {!r} must be [u, v, color, mult] of nonnegative integers",
            rec,
        )
        u, v, j, n = rec
        _require(u in vset and v in vset and u != v, "bad edge endpoints {!r}", rec)
        _require(1 <= j <= k, "edge color {} out of range", j)
        _require(n >= 1, "bad multiplicity in {!r}", rec)
        cg.layer(j).add_edges(u, v, n)
    for rec in _records(doc, "loops"):
        _require(
            isinstance(rec, list) and len(rec) == 3 and all(_is_int(x) for x in rec),
            "loop record {!r} must be [v, color, mult] of nonnegative integers",
            rec,
        )
        v, j, n = rec
        _require(v in vset, "bad loop vertex {!r}", rec)
        _require(1 <= j <= k, "loop color {} out of range", j)
        _require(n >= 1, "bad multiplicity in {!r}", rec)
        cg.layer(j).add_loops(v, n)

    eta = None
    if "eta" in doc:
        recs = doc["eta"]
        _require(isinstance(recs, list), "eta must be a list of [vertex, count]")
        mapping = {}
        for rec in recs:
            _require(
                isinstance(rec, list) and len(rec) == 2,
                "eta record {!r} must be [vertex, count]",
                rec,
            )
            v, n = rec
            _require(_is_int(v) and v in vset, "eta names unknown vertex {!r}", v)
            _require(_is_int(n, 1), "eta({}) must be a positive integer", v)
            _require(v not in mapping, "duplicate eta record for vertex {}", v)
            mapping[v] = n
        _require(set(mapping) == vset, "eta must cover every vertex")
        eta = AmalgamationSpec(mapping)

    psi = None
    if "psi" in doc:
        recs = doc["psi"]
        _require(isinstance(recs, list), "psi must be a list of [host, fiber]")
        fibers = {}
        for rec in recs:
            _require(
                isinstance(rec, list) and len(rec) == 2 and isinstance(rec[1], list),
                "psi record {!r} must be [host, [members...]]",
                rec,
            )
            w, members = rec
            _require(_is_int(w), "psi host vertex {!r} must be a nonnegative integer", w)
            _require(w not in fibers, "duplicate fiber for host vertex {}", w)
            _require(
                all(_is_int(m) and m in vset for m in members),
                "fiber of {} names unknown vertices",
                w,
            )
            fibers[w] = members
        try:
            psi = DetachmentMap(fibers)
        except GraphError as exc:
            raise DocumentError(f"bad psi: {exc}") from exc
    return cg, eta, psi


def _host_to_obj(host: Multigraph) -> Dict[str, Any]:
    return {
        "vertices": host.vertices,
        "edges": [[u, v, n] for u, v, n in host.pairs()],
        "loops": [[v, n] for v, n in host.loop_items()],
    }


def _obj_to_host(obj: Any) -> Multigraph:
    _require(isinstance(obj, dict), "host must be an object")
    verts = _vertex_list(obj)
    g = Multigraph(verts)
    vset = set(verts)
    for rec in _records(obj, "edges"):
        _require(
            isinstance(rec, list) and len(rec) == 3 and all(_is_int(x) for x in rec),
            "host edge record {!r} must be [u, v, mult] of nonnegative integers",
            rec,
        )
        u, v, n = rec
        _require(u in vset and v in vset and u != v, "bad host edge {!r}", rec)
        _require(n >= 1, "bad multiplicity in {!r}", rec)
        g.add_edges(u, v, n)
    for rec in _records(obj, "loops"):
        _require(
            isinstance(rec, list) and len(rec) == 2 and all(_is_int(x) for x in rec),
            "host loop record {!r} must be [v, mult] of nonnegative integers",
            rec,
        )
        v, n = rec
        _require(v in vset, "bad host loop {!r}", rec)
        _require(n >= 1, "bad multiplicity in {!r}", rec)
        g.add_loops(v, n)
    return g


def decomposition_to_doc(dec: HamDecomposition) -> Dict[str, Any]:
    return {
        "version": VERSION,
        "kind": "decomposition",
        "host": _host_to_obj(dec.host),
        "cycles": [list(c) for c in dec.cycles],
    }


def doc_to_decomposition(doc: Dict[str, Any]) -> HamDecomposition:
    _require(doc.get("kind") == "decomposition", "expected a decomposition document")
    host = _obj_to_host(doc.get("host"))
    cycles = doc.get("cycles")
    _require(isinstance(cycles, list), "missing cycle list")
    vset = set(host.vertices)
    for cyc in cycles:
        _require(
            isinstance(cyc, list) and all(_is_int(v) for v in cyc),
            "cycle {!r} must be a list of vertex ids",
            cyc,
        )
        _require(all(v in vset for v in cyc), "cycle {!r} names unknown vertices", cyc)
    return HamDecomposition(
        host=host, cycles=tuple(tuple(c) for c in cycles)
    )


def to_dot(doc: Dict[str, Any]) -> str:
    """Graphviz rendering of a document; display only, not a contract.

    A graph's edge or loop record is drawn once, its multiplicity n > 1
    in its label, so the text grows with the document, not with n.
    """
    lines = ["graph G {"]
    if doc.get("kind") == "graph":
        for v in doc["vertices"]:
            lines.append(f"  {v};")
        records = doc.get("edges", []) + [[v, v, j, n] for v, j, n in doc.get("loops", [])]
        for u, v, j, n in records:
            label = f"c{j} x{n}" if n > 1 else f"c{j}"
            lines.append(f'  {u} -- {v} [label="{label}", colorindex={j}];')
    else:
        host = doc["host"]
        for v in host["vertices"]:
            lines.append(f"  {v};")
        for idx, cyc in enumerate(doc.get("cycles", []), start=1):
            closed = list(cyc) + [cyc[0]] if cyc else []
            for a, b in zip(closed, closed[1:]):
                lines.append(f'  {a} -- {b} [label="c{idx}", colorindex={idx}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
