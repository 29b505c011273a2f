"""Trivalent ribbon graphs dual to surface triangulations.

A graph is stored as its list of edge identifiers together with the faces,
each carrying a counterclockwise-ordered boundary of exactly three edges.
Half-edges and corners are addressed as (face_id, slot) pairs with
slot in {0, 1, 2}; slot arithmetic is mod 3.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

HalfEdge = tuple[str, int]
Corner = tuple[str, int]

TWO_PI = 2.0 * math.pi
# ``stratum_signature`` rejects a cone angle this far (in turns) from a whole
# turn; looser than ``angles.TOL``, since it only has to tell whole turns apart
CONE_TOL = 1e-6


class InvalidGraphError(ValueError):
    """Raised when a graph is built that breaks the invariants; ``problems`` itemizes them."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


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
    """Immutable trivalent ribbon graph, valid by construction.

    ``edges`` is the ordered list of edge identifiers, ``faces`` maps each
    face identifier to its boundary triple.  Rotating a boundary list is a
    semantic no-op; we keep boundaries exactly as given.  The constructor
    runs ``validate`` and raises InvalidGraphError if any check fails, so
    every graph that exists is connected, has triangular faces, and has
    every edge listed once and used exactly twice.
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
        # the cycle basis, built once by ``homology._kept_basis``, the one
        # reader of this field (``cycle_basis`` hands out copies so that no
        # caller can change it), and its corner chains:
        # the same tree walk emits each basis cycle's rows, bucketed by the
        # cycle's first half-edge as (cycle, rows) entries, which
        # ``angles.holonomy`` and ``holonomies`` read; the graph holds one
        # set of rows per basis cycle and none for any other cycle
        self._cycle_basis: list[dict] | None = None
        self._basis_chains: dict[HalfEdge, list[tuple]] = {}
        report = validate(self)
        if not report:
            raise InvalidGraphError(report.problems)

    @property
    def face_ids(self) -> tuple[str, ...]:
        return tuple(f for f, _ in self.faces)

    def edge_of(self, h: HalfEdge) -> str:
        f, slot = h
        return self._boundary[f][slot % 3]

    def half_edges(self) -> list[HalfEdge]:
        """All half-edges in canonical (lexicographic) order."""
        return [(f, s) for f in sorted(self._boundary) for s in range(3)]

    def occurrences(self, edge: str) -> list[HalfEdge]:
        return list(self._occurrences.get(edge, ()))

    def to_json(self) -> dict:
        return {
            "edges": list(self.edges),
            "faces": [{"id": f, "boundary": list(b)} for f, b in self.faces],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TriRibbonGraph":
        """The graph of ``to_json``'s form; TypeError unless the edges, the
        faces and each boundary are lists."""
        edges, faces = data["edges"], data["faces"]
        if not (isinstance(edges, list) and isinstance(faces, list)):
            raise TypeError("graph edges and faces must be lists")
        out = []
        for rec in faces:
            if not isinstance(rec["boundary"], list):
                raise TypeError(f"boundary of face {rec['id']!r} is not a list")
            out.append((rec["id"], tuple(rec["boundary"])))
        return cls(edges, out)

    def __repr__(self):
        return f"TriRibbonGraph({len(self.edges)} edges, {len(self.faces)} faces)"


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate(graph: TriRibbonGraph) -> ValidationReport:
    """Check the trivalent ribbon graph invariants, itemizing every failure.

    ``TriRibbonGraph`` runs this when it is built and raises on any problem,
    so a graph that exists always passes.
    """
    problems = [] if graph.faces else ["graph has no faces"]
    seen = set()
    for f, b in graph.faces:
        if not isinstance(f, str):
            problems.append(f"face id {f!r} is not a string")
        if f in seen:
            problems.append(f"duplicate face id {f!r}")
        seen.add(f)
        if len(b) != 3:
            problems.append(f"face {f!r} has {len(b)} boundary slots, expected 3")
    problems.extend(f"edge id {e!r} is not a string" for e in graph.edges if not isinstance(e, str))
    edge_set = set(graph.edges)
    if len(edge_set) != len(graph.edges):
        problems.append("duplicate edge identifiers in edge list")
    for e, occ in graph._occurrences.items():
        if e not in edge_set:
            problems.append(f"edge {e!r} used in a boundary but not listed")
        if len(occ) != 2:
            problems.append(f"edge multiplicity {len(occ)} for edge {e!r}, expected 2")
    if not problems:
        # the faces reachable from the first listed face
        stack = [graph.faces[0][0]]
        reached = set(stack)
        while stack:
            for e in graph._boundary[stack.pop()]:
                for f, _ in graph._occurrences[e]:
                    if f not in reached:
                        reached.add(f)
                        stack.append(f)
        if len(reached) != len(graph.faces):
            problems.append(
                f"graph is disconnected ({len(reached)} of {len(graph.faces)} faces reachable)"
            )
    return ValidationReport(not problems, problems)


def spanning_tree(graph: TriRibbonGraph):
    """Breadth-first spanning tree of the face adjacency, in canonical order.

    Yields the least half-edge (slot 0 of the least face) first, then (h,
    mate) for every tree half-edge h of a face already reached, whose mate
    lies in a new face.  Faces are expanded least id first, by slots 0, 1, 2.
    Each mate is read from the graph's boundary and occurrence tables.
    """
    boundary, occurrences = graph._boundary, graph._occurrences
    base = (min(boundary), 0)
    yield base
    placed = {base[0]}
    frontier = [base[0]]
    while frontier:
        f = heapq.heappop(frontier)
        for h in (f, 0), (f, 1), (f, 2):
            a, b = occurrences[boundary[f][h[1]]]
            mate = a if b == h else b  # as ``other_side`` reads it
            if mate[0] not in placed:
                yield h, mate
                placed.add(mate[0])
                heapq.heappush(frontier, mate[0])


def other_side(graph: TriRibbonGraph, h: HalfEdge) -> HalfEdge:
    """The other occurrence of the edge of ``h``; a fixed-point-free involution."""
    f, slot = h[0], h[1] % 3
    e = graph._boundary[f][slot]
    a, b = graph._occurrences[e]
    return b if a == (f, slot) else a


def corner_successor(graph: TriRibbonGraph, c: Corner) -> Corner:
    """The next corner counterclockwise around the vertex of ``c``.

    Crossing the slot+1 edge of the face lands on the corner of the opposite
    face at the same vertex.
    """
    f, slot = c[0], c[1] % 3
    return other_side(graph, (f, slot + 1))


def orbits(domain, step) -> list[list]:
    """Cycles of the permutation ``step`` of ``domain``, in domain order.

    Each cycle starts at its first element in the order of ``domain``.
    """
    seen = set()
    out = []
    for start in domain:
        if start not in seen:
            orbit = [start]
            cur = step(start)
            while cur != start:
                orbit.append(cur)
                cur = step(cur)
            seen.update(orbit)
            out.append(orbit)
    return out


def vertex_orbits(graph: TriRibbonGraph) -> list[list[Corner]]:
    """Orbits of the corner-successor permutation, one per triangulation vertex.

    Deterministic: orbits start at their lexicographically least corner, and
    are listed in that order.
    """
    return orbits(graph.half_edges(), lambda c: corner_successor(graph, c))


def topology(graph: TriRibbonGraph) -> dict:
    """Vertex/edge/face counts, Euler characteristic, genus and rank of H1."""
    n_v = len(vertex_orbits(graph))
    n_e = len(graph.edges)
    n_f = len(graph.faces)
    n_h = 3 * n_f
    chi = n_v - n_e + n_f
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


def stratum_signature(graph: TriRibbonGraph, theta) -> StratumSignature:
    """Zero orders from cone angles: each vertex orbit contributes its angle sum.

    ``theta`` maps corners to radians.  A residual of the cone angle from an
    integer multiple of 2*pi beyond ``CONE_TOL`` turns is an error.
    """
    vertices = vertex_orbits(graph)
    orders = []
    for orbit in vertices:
        cone = sum(theta[c] for c in orbit)
        ratio = cone / TWO_PI
        k = round(ratio) - 1
        if abs(ratio - round(ratio)) >= CONE_TOL:
            raise ValueError(
                f"angles do not close up to integer cone angle at orbit of {orbit[0]}"
                f" (cone {cone:.12f})"
            )
        orders.append(k)
    chi = len(vertices) - len(graph.edges) + len(graph.faces)
    return StratumSignature((2 - chi) // 2, tuple(sorted(orders, reverse=True)))
