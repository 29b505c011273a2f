"""Discrete developing map: angles to edge periods and back.

A developed surface stores one complex period per half-edge: the vector of
the edge traversed counterclockwise in its face.  The three periods of a
face sum to zero and opposite half-edges carry opposite periods.  Trivial
holonomy is exactly what makes the face-by-face layout consistent across
the edges not used by the spanning tree.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, field

from .angles import TOL, AngleAssignment, validate_angles
from .ribbon import (TWO_PI, HalfEdge, TriRibbonGraph, he_key, other_side, parse_he_key,
                     spanning_tree)


class HolonomyObstruction(ValueError):
    def __init__(self, edge: str, residual: float):
        super().__init__(f"holonomy obstruction at edge {edge!r} (residual {residual:.3e})")
        self.edge = edge
        self.residual = residual


class DegenerateTriangleError(ValueError):
    pass


# Lawson flips ``make_delaunay`` makes before it gives up with FlipCapError,
# or two per edge where that is more, since the flips a sheared surface
# needs grow with its size
MAX_FLIPS = 1000


@dataclass
class DevelopedSurface:
    """A flat surface as one period per half-edge of its graph.

    A surface is never changed after it is built (flips build a new one),
    so its corner angles, solved once, stay right.
    """

    graph: TriRibbonGraph
    periods: dict[HalfEdge, complex]
    # the three corner angles of each face, in the order of ``graph.faces``:
    # filled by ``make_delaunay`` with the angles it holds, or on first use
    _angles: list[list[float]] | None = field(default=None, init=False, repr=False,
                                               compare=False)

    def scale(self) -> float:
        return max(abs(z) for z in self.periods.values())

    def check(self) -> None:
        _require_finite(self.periods)
        s = self.scale()
        for f, _ in self.graph.faces:
            closure = sum(self.periods[(f, k)] for k in range(3))
            if abs(closure) > TOL * s:
                raise ValueError(f"face {f!r} does not close up ({abs(closure):.3e})")
        for h, z in self.periods.items():
            if z == 0:
                raise ValueError(f"zero period at {he_key(h)}")
            mate = other_side(self.graph, h)
            if abs(self.periods[mate] + z) > TOL * s:
                raise ValueError(f"period mismatch across edge of {he_key(h)}")

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "periods": {he_key(h): [z.real, z.imag] for h, z in sorted(self.periods.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "DevelopedSurface":
        graph = TriRibbonGraph.from_json(data["graph"])
        if not isinstance(data["periods"], dict):
            raise ValueError("periods must be an object keyed by half-edge")
        periods = {
            parse_he_key(k): complex(re, im) for k, (re, im) in data["periods"].items()
        }
        if set(periods) != set(graph.half_edges()):
            raise ValueError("period keys are not exactly the graph's half-edges")
        _require_finite(periods)
        return cls(graph, periods)


def _require_finite(periods: dict[HalfEdge, complex]) -> None:
    """ValueError at the first NaN or infinite period, which every tolerance
    comparison would let through."""
    for h, z in periods.items():
        if not cmath.isfinite(z):
            raise ValueError(f"non-finite period at {he_key(h)}")


def _fill_face(theta: AngleAssignment, f: str, slot: int, period: complex) -> dict[HalfEdge, complex]:
    """Periods of all slots of a face given one of them.

    Successive edges of a counterclockwise triangle turn left by the
    exterior angle, and the law of sines fixes the length ratios.
    """
    s1, s2 = (slot + 1) % 3, (slot + 2) % 3
    t0, t1, t2 = theta[(f, slot)], theta[(f, s1)], theta[(f, s2)]
    z1 = period * cmath.rect(math.sin(t2) / math.sin(t1), math.pi - t0)
    return {(f, slot): period, (f, s1): z1,
            (f, s2): z1 * cmath.rect(math.sin(t0) / math.sin(t2), math.pi - t1)}


# ValueError unless ``tol`` is finite and at least 0: a NaN tolerance passes
# every check, and a negative one fails them all
def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number at least 0, got {tol}")


def develop(graph: TriRibbonGraph, theta: AngleAssignment, tol: float = TOL) -> DevelopedSurface:
    """Lay out all faces from their angles, normalizing the base period to 1.

    Propagates across a spanning tree of the face adjacency in canonical
    order, then takes the closure residual once per edge, from its two
    ``graph.occurrences``.  If any residual exceeds ``tol * scale``, raises
    HolonomyObstruction at the failing edge with the least half-edge.
    """
    _require_tol(tol)
    validate_angles(graph, theta)
    walk = spanning_tree(graph)
    base = next(walk)
    periods = _fill_face(theta, base[0], base[1], 1.0 + 0.0j)
    for h, mate in walk:
        periods.update(_fill_face(theta, mate[0], mate[1], -periods[h]))
    scale = max(map(abs, periods.values()))
    failing = []
    for e in graph.edges:
        h, mate = graph.occurrences(e)
        residual = abs(periods[mate] + periods[h])
        if residual > tol * scale:
            failing.append((min(h, mate), e, residual))
    if failing:
        _, e, residual = min(failing)
        raise HolonomyObstruction(e, residual / scale)
    return DevelopedSurface(graph, periods)


def _corner_angles(f: str, z: list[complex]) -> list[float]:
    """Angles at the corners of face ``f`` from its three periods ``z``, checked
    corner by corner for a zero period and then for an angle outside (0, pi)."""
    phase = cmath.phase
    z0, z1, z2 = z
    out = [(phase(-z0) - phase(z1)) % TWO_PI, (phase(-z1) - phase(z2)) % TWO_PI,
           (phase(-z2) - phase(z0)) % TWO_PI]
    for s, ang in enumerate(out):
        if not (z[s] and z[s - 2]):
            raise DegenerateTriangleError(f"zero period in face {f!r}")
        if not 0.0 < ang < math.pi:
            raise DegenerateTriangleError(f"degenerate corner {f}/{s} (angle {ang:.6f})")
    return out


def _face_angles(surface: DevelopedSurface) -> list[list[float]]:
    """The corner angles of each face of ``surface``, by position, solved once."""
    if surface._angles is None:
        p = surface.periods
        surface._angles = [_corner_angles(f, [p[(f, 0)], p[(f, 1)], p[(f, 2)]])
                           for f, _ in surface.graph.faces]
    return surface._angles


def angles_of(surface: DevelopedSurface) -> AngleAssignment:
    """Angle at each corner from the outward edge vectors at its vertex."""
    return {(f, s): ang for (f, _), row in zip(surface.graph.faces, _face_angles(surface))
            for s, ang in enumerate(row)}


def _quad(p_h: complex, p_next: complex, p_mate_next: complex):
    """The two triangles at an edge developed into a common plane.

    For the edge's first half-edge h, with period ``p_h`` and the next
    period of its face ``p_next``, returns (A, B, C, D): the CCW triangle of
    h as (A, B, C) with the edge from A to B, and D the apex of the mate
    face, whose next period is ``p_mate_next``.
    """
    a = 0.0 + 0.0j
    b = p_h
    cpt = b + p_next
    # mate face laid across the shared edge: its edge runs B -> A
    d = b + (-p_h) + p_mate_next
    return a, b, cpt, d


def _incircle_det(a: complex, b: complex, c: complex, d: complex) -> float:
    """Positive iff d is inside the circumcircle of ccw triangle abc: the 3x3 determinant
    of rows (x, y, x^2 + y^2) of a - d, b - d and c - d, expanded by cofactors."""
    p, q, r = a - d, b - d, c - d
    return ((p.real * p.real + p.imag * p.imag) * (q.real * r.imag - r.real * q.imag)
            + (q.real * q.real + q.imag * q.imag) * (r.real * p.imag - p.real * r.imag)
            + (r.real * r.real + r.imag * r.imag) * (p.real * q.imag - q.real * p.imag))


class FlipCapError(RuntimeError):
    """Lawson flips hit their cap before the surface became Delaunay."""


class _Triangulation:
    """A developed surface held in mutable form, for flips in place.

    Faces are addressed by their position in ``graph.faces``, edges by their
    index in ``graph.edges``.  Each edge keeps its two occurrences as ranks
    ``3 * position + slot`` in ascending order, so the first is the
    half-edge that ``graph.occurrences`` lists first.
    """

    def __init__(self, surface: DevelopedSurface):
        g, p = surface.graph, surface.periods
        self.edges = g.edges
        self.index = index = {e: k for k, e in enumerate(g.edges)}
        self.ids = [f for f, _ in g.faces]
        self.faces = [[index[x], index[y], index[z]] for _, (x, y, z) in g.faces]
        self.periods = [[p[(f, 0)], p[(f, 1)], p[(f, 2)]] for f in self.ids]
        self.occ: list[list[int]] = [[] for _ in g.edges]
        for r, x in enumerate([x for b in self.faces for x in b]):
            self.occ[x].append(r)

    def flip(self, edge: str) -> tuple[int, int]:
        """Replace ``edge`` by the opposite diagonal of its quadrilateral.

        The face of the edge's first half-edge h = (i, s) becomes the
        triangle (A, D, C) with boundary (e_m1, edge, e_f2), the mate's face
        becomes (D, B, C) with boundary (e_m2, e_f1, edge); see ``_quad``.
        Each of the six occurrences that move gets its new rank in place.
        Returns the positions (i, j) of the two rebuilt faces, i < j.
        """
        k = self.index[edge]
        i, s = divmod(self.occ[k][0], 3)
        j, s2 = divmod(self.occ[k][1], 3)
        p, q = self.periods[i], self.periods[j]
        a, b, c, d = _quad(p[s], p[(s + 1) % 3], q[(s2 + 1) % 3])
        if i == j:
            raise ValueError(f"cannot flip edge {edge!r}: both sides in one face")
        # the sides of the quadrilateral A, D, B, C, in ccw order
        ad, db, bc, ca = d - a, b - d, c - b, a - c
        if ((ad.real * db.imag - ad.imag * db.real) <= 0
                or (db.real * bc.imag - db.imag * bc.real) <= 0
                or (bc.real * ca.imag - bc.imag * ca.real) <= 0
                or (ca.real * ad.imag - ca.imag * ad.real) <= 0):
            raise ValueError(f"cannot flip edge {edge!r}: quadrilateral not strictly convex")
        fi, fj = self.faces[i], self.faces[j]
        e_f1, e_f2 = fi[(s + 1) % 3], fi[(s + 2) % 3]
        e_m1, e_m2 = fj[(s2 + 1) % 3], fj[(s2 + 2) % 3]
        i3, j3 = 3 * i, 3 * j
        # each side moves from its old rank to its new one; two sides that are
        # one edge move one rank each, which leaves that edge the right pair
        for e, old, new in ((e_m1, j3 + (s2 + 1) % 3, i3), (e_m2, j3 + (s2 + 2) % 3, j3),
                            (e_f1, i3 + (s + 1) % 3, j3 + 1), (e_f2, i3 + (s + 2) % 3, i3 + 2)):
            x, y = self.occ[e]
            x, y = (new, y) if x == old else (x, new)
            self.occ[e] = [x, y] if x < y else [y, x]
        self.occ[k] = [i3 + 1, j3 + 2]
        # triangle (A, D, C): edges A->D, D->C (new diagonal), C->A
        self.faces[i] = [e_m1, k, e_f2]
        self.periods[i] = [ad, c - d, ca]
        # triangle (D, B, C): edges D->B, B->C, C->D (new diagonal)
        self.faces[j] = [e_m2, e_f1, k]
        self.periods[j] = [db, bc, d - c]
        return i, j

    def surface(self) -> DevelopedSurface:
        names, faces, periods = self.edges, [], {}
        for f, (x, y, z), (z0, z1, z2) in zip(self.ids, self.faces, self.periods):
            faces.append((f, (names[x], names[y], names[z])))
            periods[(f, 0)], periods[(f, 1)], periods[(f, 2)] = z0, z1, z2
        return DevelopedSurface(TriRibbonGraph(names, faces), periods)


def is_geometric_delaunay(surface: DevelopedSurface, tol: float = TOL) -> bool:
    """Angle criterion at every edge, certified by the in-circle sign.

    An edge's sum adds its two opposite angles (slot + 1 in each face) in
    ``graph.occurrences`` order, as ``make_delaunay`` does.  Raises
    DegenerateTriangleError if any edge sits within ``tol`` of cocircular,
    and AssertionError if the in-circle sign contradicts an edge's sum.
    """
    _require_tol(tol)
    graph, p = surface.graph, surface.periods
    angles = dict(zip(graph.face_ids, _face_angles(surface)))
    result = True
    for e in graph.edges:
        (f, k), (f2, k2) = graph.occurrences(e)
        s = angles[f][(k + 1) % 3] + angles[f2][(k2 + 1) % 3]
        if abs(s - math.pi) < tol:
            raise DegenerateTriangleError(f"degenerate Delaunay edge {e!r}")
        a, b, c, d = _quad(p[(f, k)], p[(f, (k + 1) % 3)], p[(f2, (k2 + 1) % 3)])
        if (_incircle_det(c, a, b, d) < 0) != (s < math.pi):
            raise AssertionError(f"angle/in-circle disagreement at edge {e!r}")
        if s >= math.pi:
            result = False
    return result


def make_delaunay(surface: DevelopedSurface, tol: float = TOL):
    """Lawson flips until no opposite-angle sum exceeds pi + tol.

    Each step flips the edge whose Delaunay sum (the two angles opposite
    it) is largest among those above pi + tol; on a tie, the edge that
    comes first in ``graph.edges``.  The angles, the sums and a heap of
    candidates keyed by (-sum, edge index) are set up once in O(F log F).
    A flip then moves six occurrences in place, recomputes the six corners
    of its two faces and the sums of the five edges of its quadrilateral,
    and pushes those edges again, so it costs O(log F); heap entries left
    behind by a later update of their edge are skipped by a version count.  Faces that no flip touches keep
    their periods bit for bit, and the graph is built once, at the end.

    Returns (surface, flip_log, degenerate_edges), the last being the edges
    whose sum is within ``tol`` of pi; the surface keeps the corner angles
    the flips left, for ``angles_of`` and ``is_geometric_delaunay``.  Raises
    FlipCapError if the surface needs more than ``MAX_FLIPS`` flips, or two
    per edge where that is more, which bounds the time on every input.
    """
    _require_tol(tol)
    tri = _Triangulation(surface)
    angles = list(_face_angles(surface))  # flips replace rows of this copy
    sums = [0.0] * len(tri.edges)
    version = [0] * len(tri.edges)
    heap: list[tuple[float, int, int]] = []
    limit = math.pi + tol

    def update(k: int) -> None:
        # the sum of the two angles opposite edge k, slot + 1 in each of its faces
        a, b = tri.occ[k]
        sums[k] = x = angles[a // 3][(a + 1) % 3] + angles[b // 3][(b + 1) % 3]
        version[k] += 1
        if x > limit:
            heapq.heappush(heap, (-x, k, version[k]))

    for k in range(len(tri.edges)):
        update(k)
    flips: list[str] = []
    cap = max(MAX_FLIPS, 2 * len(tri.edges))
    while True:
        while heap and heap[0][2] != version[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            break
        if len(flips) >= cap:
            raise FlipCapError(
                f"flip cap hit: the surface is still not Delaunay after {cap} flips"
            )
        edge = tri.edges[heap[0][1]]
        i, j = tri.flip(edge)
        flips.append(edge)
        angles[i] = _corner_angles(tri.ids[i], tri.periods[i])
        angles[j] = _corner_angles(tri.ids[j], tri.periods[j])
        for k in {*tri.faces[i], *tri.faces[j]}:
            update(k)
    degenerate = [e for e, x in zip(tri.edges, sums) if abs(x - math.pi) <= tol]
    if not flips:
        return surface, flips, degenerate
    flipped = tri.surface()
    flipped._angles = angles
    return flipped, flips, degenerate


def _tree_layout(surface: DevelopedSurface):
    """Absolute positions of the three vertices of each face, glued along a
    spanning tree of the face adjacency."""
    g = surface.graph
    pos: dict[str, tuple[complex, complex, complex]] = {}

    def place(face: str, slot: int, start: complex):
        pts = [start]
        for k in range(2):
            pts.append(pts[-1] + surface.periods[(face, (slot + k) % 3)])
        # rotate so index i is the tail of edge slot i
        ordered = [None, None, None]
        for k in range(3):
            ordered[(slot + k) % 3] = pts[k]
        pos[face] = tuple(ordered)

    walk = spanning_tree(g)
    base = next(walk)
    place(base[0], base[1], 0.0 + 0.0j)
    tree_edges = set()
    for (f, s), mate in walk:
        # tail of mate edge = head of our edge
        place(mate[0], mate[1], pos[f][s] + surface.periods[(f, s)])
        tree_edges.add(g.edge_of((f, s)))
    return pos, tree_edges


_PAIR_COLORS = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#666666", "#bcbd22",
]


def to_svg(surface: DevelopedSurface) -> str:
    """SVG text of the tree-glued layout; identified boundary edges share a color."""
    pos, tree_edges = _tree_layout(surface)
    g = surface.graph
    xs = [p.real for tri in pos.values() for p in tri]
    ys = [p.imag for tri in pos.values() for p in tri]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    S = 400.0 / span
    pad = 30.0

    def to_screen(z: complex) -> tuple[float, float]:
        return (pad + S * (z.real - lo_x), pad + S * (hi_y - z.imag))

    boundary = sorted(e for e in g.edges if e not in tree_edges)
    color = {e: _PAIR_COLORS[i % len(_PAIR_COLORS)] for i, e in enumerate(boundary)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2*pad + S*(hi_x-lo_x):.0f}" '
        f'height="{2*pad + S*(hi_y-lo_y):.0f}">'
    ]
    for f in sorted(pos):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(to_screen, pos[f]))
        parts.append(f'<polygon points="{pts}" fill="#eef3fa" stroke="none"/>')
    for f in sorted(pos):
        for s in range(3):
            e = g.edge_of((f, s))
            z0 = pos[f][s]
            z1 = z0 + surface.periods[(f, s)]
            (x0, y0), (x1, y1) = to_screen(z0), to_screen(z1)
            col = color.get(e, "#333333")
            width = 2.2 if e in color else 1.0
            parts.append(
                f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
                f'stroke="{col}" stroke-width="{width}"/>'
            )
            mx, my = (x0 + x1) / 2, (y0 + y1) / 2
            parts.append(
                f'<text x="{mx:.2f}" y="{my:.2f}" font-size="9" fill="#222">{e}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
