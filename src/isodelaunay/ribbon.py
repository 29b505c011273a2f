"""Trivalent ribbon graphs dual to surface triangulations.

A graph is stored as its list of edge identifiers together with the faces,
each carrying a counterclockwise-ordered boundary of exactly three edges.
Half-edges and corners are addressed as (face_id, slot) pairs with
slot in {0, 1, 2}; slot arithmetic is mod 3.  This module owns the
half-edge: its name ``face/slot``, the JSON form of a half-edge map (cycles,
angles, matchings, periods) and the rank tables, the one way across an edge.
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


def he_map_to_json(m: dict, value) -> dict:
    """A half-edge map as JSON: ``face/slot`` keys in sorted order, values through ``value``."""
    return {he_key(h): value(m[h]) for h in sorted(m)}


def he_map_from_json(data: dict, value) -> dict:
    """The half-edge map of ``he_map_to_json``'s form, values through ``value``."""
    return {parse_he_key(k): value(v) for k, v in data.items()}


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

    The constructor builds the half-edge tables that every walk reads, the
    only way across an edge; no other module ranks half-edges.  In sorted
    order, rank 3i + s is slot s of the i-th face by id: ``_half_edges``
    lists them, and ``_mate[r]`` is the rank of the other side of r's edge.
    In positional order, rank 3p + s is slot s of ``faces[p]``:
    ``_face_edges[p]`` holds its three edges' indices in ``edges``, and
    ``_occurrences[e]``, keyed in ``edges`` order, edge e's two ranks in
    ascending order.  That table comes first, since ``validate`` reads it;
    the others follow once it passes.  The cycle basis, spanning tree and
    vertex orbits are defined in sorted order; the Lawson flips, their
    tie-break and a flipped surface's face order by position.
    """

    def __init__(self, edges, faces):
        # faces: iterable of (face_id, (e0, e1, e2))
        self.edges = tuple(edges)
        self.faces = tuple((f, tuple(b)) for f, b in faces)
        self._boundary = {f: b for f, b in self.faces}
        occ: dict[str, list[int]] = {e: [] for e in self.edges}
        for r, e in enumerate([e for _, b in self.faces for e in b]):
            occ.setdefault(e, []).append(r)
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
        ids = [f for f, _ in self.faces]
        index = {e: k for k, e in enumerate(self.edges)}
        self._face_edges = [(index[x], index[y], index[z]) for _, (x, y, z) in self.faces]
        order = sorted(range(len(ids)), key=ids.__getitem__)  # positions by id
        self._half_edges = tuple([(ids[p], s) for p in order for s in (0, 1, 2)])
        at = [0] * len(self._half_edges)  # the sorted rank of each positional rank
        for i, p in enumerate(order):
            at[3 * p:3 * p + 3] = 3 * i, 3 * i + 1, 3 * i + 2
        self._mate = mate = [0] * len(at)
        for a, b in occ.values():
            mate[at[a]], mate[at[b]] = at[b], at[a]

    @property
    def face_ids(self) -> tuple[str, ...]:
        return tuple(f for f, _ in self.faces)

    def edge_of(self, h: HalfEdge) -> str:
        f, slot = h
        return self._boundary[f][slot % 3]

    def half_edges(self) -> list[HalfEdge]:
        """All half-edges in canonical (lexicographic) order: entry r has sorted rank r."""
        return list(self._half_edges)

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
        # the positions of the faces reachable from the first listed face
        stack, reached = [0], {0}
        while stack:
            for e in graph.faces[stack.pop()][1]:
                for r in graph._occurrences[e]:
                    if r // 3 not in reached:
                        reached.add(r // 3)
                        stack.append(r // 3)
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
    The walk reads the graph's sorted ranks and mate table.
    """
    hes, mate = graph._half_edges, graph._mate
    yield hes[0]
    placed, frontier = {0}, [0]  # sorted face indices
    while frontier:
        i = heapq.heappop(frontier)
        for r in range(3 * i, 3 * i + 3):
            m = mate[r]
            if m // 3 not in placed:
                yield hes[r], hes[m]
                placed.add(m // 3)
                heapq.heappush(frontier, m // 3)


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
    # the successor of corner (f, s) is the other side of (f, s + 1):
    # crossing the slot + 1 edge of the face lands on the corner of the
    # opposite face at the same vertex
    hes, mate = graph._half_edges, graph._mate
    walk = orbits(range(len(hes)), lambda r: mate[r + 1 if r % 3 < 2 else r - 2])
    return [[hes[r] for r in orbit] for orbit in walk]


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
