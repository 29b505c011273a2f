"""Trivalent ribbon graphs dual to surface triangulations.

A graph is stored as its list of edge identifiers together with the faces,
each carrying a counterclockwise-ordered boundary of exactly three edges.
Half-edges and corners are addressed as (face_id, slot) pairs with
slot in {0, 1, 2}; slot arithmetic is mod 3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

HalfEdge = tuple[str, int]
Corner = tuple[str, int]

TWO_PI = 2.0 * math.pi


class InvalidGraphError(ValueError):
    """Raised when an operation requires a valid graph and gets a broken one."""


def he_key(h: HalfEdge) -> str:
    return f"{h[0]}/{h[1]}"


def parse_he_key(key: str) -> HalfEdge:
    face, _, slot = key.rpartition("/")
    if not face or slot not in ("0", "1", "2"):
        raise ValueError(f"bad half-edge key {key!r}; expected 'face/slot'")
    return face, int(slot)


@dataclass(frozen=True)
class StratumSignature:
    genus: int
    zero_orders: tuple[int, ...]


class TriRibbonGraph:
    """Immutable trivalent ribbon graph.

    ``edges`` is the ordered list of edge identifiers, ``faces`` maps each
    face identifier to its boundary triple.  Rotating a boundary list is a
    semantic no-op; we keep boundaries exactly as given.
    """

    def __init__(self, edges, faces):
        # faces: iterable of (face_id, (e0, e1, e2))
        self.edges = tuple(edges)
        self.faces = tuple((f, tuple(b)) for f, b in faces)
        self._boundary = {f: b for f, b in self.faces}
        occ: dict[str, list[HalfEdge]] = {e: [] for e in self.edges}
        for f, b in self.faces:
            for slot, e in enumerate(b):
                occ.setdefault(e, []).append((f, slot))
        self._occurrences = occ

    @property
    def face_ids(self) -> tuple[str, ...]:
        return tuple(f for f, _ in self.faces)

    def boundary_of(self, face: str) -> tuple[str, ...]:
        return self._boundary[face]

    def edge_of(self, h: HalfEdge) -> str:
        f, slot = h
        return self._boundary[f][slot % 3]

    def half_edges(self) -> list[HalfEdge]:
        """All half-edges in canonical (lexicographic) order."""
        return [(f, s) for f in sorted(self._boundary) for s in range(3)]

    corners = half_edges

    def occurrences(self, edge: str) -> list[HalfEdge]:
        return list(self._occurrences.get(edge, ()))

    def to_json(self) -> dict:
        return {
            "edges": list(self.edges),
            "faces": [{"id": f, "boundary": list(b)} for f, b in self.faces],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TriRibbonGraph":
        faces = [(rec["id"], tuple(rec["boundary"])) for rec in data["faces"]]
        return cls(data["edges"], faces)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "TriRibbonGraph":
        return cls.from_json(json.loads(text))

    def __repr__(self):
        return f"TriRibbonGraph({len(self.edges)} edges, {len(self.faces)} faces)"


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate(graph: TriRibbonGraph) -> ValidationReport:
    """Check the trivalent ribbon graph invariants, itemizing every failure."""
    problems = [] if graph.faces else ["graph has no faces"]
    seen = set()
    for f, b in graph.faces:
        if f in seen:
            problems.append(f"duplicate face id {f!r}")
        seen.add(f)
        if len(b) != 3:
            problems.append(f"face {f!r} has {len(b)} boundary slots, expected 3")
    edge_set = set(graph.edges)
    if len(edge_set) != len(graph.edges):
        problems.append("duplicate edge identifiers in edge list")
    for e, occ in graph._occurrences.items():
        if e not in edge_set:
            problems.append(f"edge {e!r} used in a boundary but not listed")
        if len(occ) != 2:
            problems.append(f"edge multiplicity {len(occ)} for edge {e!r}, expected 2")
    if not problems:
        # connectivity of the bipartite graph on E-vertices and F-vertices
        reached = set()
        start = graph.faces[0][0]
        stack = [("F", start)]
        while stack:
            kind, v = stack.pop()
            if (kind, v) in reached:
                continue
            reached.add((kind, v))
            if kind == "F":
                for e in graph._boundary[v]:
                    stack.append(("E", e))
            else:
                for f, _ in graph._occurrences[v]:
                    stack.append(("F", f))
        n_reached = sum(1 for k, _ in reached if k == "F")
        if n_reached != len(graph.faces):
            problems.append(
                f"graph is disconnected ({n_reached} of {len(graph.faces)} faces reachable)"
            )
    return ValidationReport(not problems, problems)


def require_valid(graph: TriRibbonGraph) -> None:
    report = validate(graph)
    if not report:
        raise InvalidGraphError("; ".join(report.problems))


def other_side(graph: TriRibbonGraph, h: HalfEdge) -> HalfEdge:
    """The other occurrence of the edge of ``h``; a fixed-point-free involution."""
    f, slot = h[0], h[1] % 3
    e = graph._boundary[f][slot]
    occ = graph._occurrences[e]
    if len(occ) != 2:
        raise InvalidGraphError(f"edge {e!r} has multiplicity {len(occ)}")
    a, b = occ
    return b if a == (f, slot) else a


def corner_successor(graph: TriRibbonGraph, c: Corner) -> Corner:
    """The next corner counterclockwise around the vertex of ``c``.

    Crossing the slot+1 edge of the face lands on the corner of the opposite
    face at the same vertex.
    """
    f, slot = c[0], c[1] % 3
    return other_side(graph, (f, slot + 1))


def vertex_orbits(graph: TriRibbonGraph) -> list[list[Corner]]:
    """Orbits of the corner-successor permutation, one per triangulation vertex.

    Deterministic: orbits are keyed by their lexicographically least corner,
    and listed in that order.
    """
    remaining = set(graph.corners())
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = [start]
        remaining.discard(start)
        cur = corner_successor(graph, start)
        while cur != start:
            orbit.append(cur)
            remaining.discard(cur)
            cur = corner_successor(graph, cur)
        orbits.append(orbit)
    return orbits


def topology(graph: TriRibbonGraph) -> dict:
    """Vertex/edge/face counts, Euler characteristic, genus and rank of H1."""
    require_valid(graph)
    n_v = len(vertex_orbits(graph))
    n_e = len(graph.edges)
    n_f = len(graph.faces)
    n_h = 3 * n_f
    chi = n_v - n_e + n_f
    if (2 - chi) % 2 != 0:
        raise InvalidGraphError(f"odd Euler characteristic {chi}; not a closed surface")
    genus = (2 - chi) // 2
    rank_h1 = 1 - (n_e + n_f - n_h)
    assert rank_h1 == 2 * genus + n_v - 1
    return {
        "V": n_v,
        "E": n_e,
        "F": n_f,
        "chi": chi,
        "genus": genus,
        "rank_h1": rank_h1,
    }


def stratum_signature(graph: TriRibbonGraph, theta, tol: float = 1e-6) -> StratumSignature:
    """Zero orders from cone angles: each vertex orbit contributes its angle sum.

    ``theta`` maps corners to radians.  A residual of the cone angle from an
    integer multiple of 2*pi beyond ``tol`` is an error.
    """
    info = topology(graph)
    orders = []
    for orbit in vertex_orbits(graph):
        cone = sum(theta[c] for c in orbit)
        ratio = cone / TWO_PI
        k = round(ratio) - 1
        if abs(ratio - round(ratio)) >= tol:
            raise ValueError(
                f"angles do not close up to integer cone angle at orbit of {orbit[0]}"
                f" (cone {cone:.12f})"
            )
        orders.append(k)
    sig = StratumSignature(info["genus"], tuple(sorted(orders, reverse=True)))
    return sig
