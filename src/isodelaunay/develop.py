"""Discrete developing map: angles to edge periods and back.

A developed surface stores one complex period per half-edge: the vector of
the edge traversed counterclockwise in its face.  The three periods of a
face sum to zero and opposite half-edges carry opposite periods.  Trivial
holonomy is exactly what makes the face-by-face layout consistent across
the edges not used by the spanning tree.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

from .angles import AngleAssignment, validate_angles
from .ribbon import (HalfEdge, TriRibbonGraph, he_key, other_side, parse_he_key,
                     require_valid, spanning_tree)


class HolonomyObstruction(ValueError):
    def __init__(self, edge: str, residual: float):
        super().__init__(f"holonomy obstruction at edge {edge!r} (residual {residual:.3e})")
        self.edge = edge
        self.residual = residual


class DegenerateTriangleError(ValueError):
    pass


@dataclass
class DevelopedSurface:
    graph: TriRibbonGraph
    periods: dict[HalfEdge, complex]

    def scale(self) -> float:
        return max(abs(z) for z in self.periods.values())

    def area(self) -> float:
        """Total flat area, half the cross product per face."""
        total = 0.0
        for f, _ in self.graph.faces:
            z1, z2 = self.periods[(f, 0)], self.periods[(f, 1)]
            total += abs((z1.conjugate() * z2).imag) / 2.0
        return total

    def check(self, tol: float = 1e-9) -> None:
        if not self.graph.faces:
            raise ValueError("developed surface has no faces")
        s = self.scale()
        for f, _ in self.graph.faces:
            closure = sum(self.periods[(f, k)] for k in range(3))
            if abs(closure) > tol * s:
                raise ValueError(f"face {f!r} does not close up ({abs(closure):.3e})")
        for h, z in self.periods.items():
            if z == 0:
                raise ValueError(f"zero period at {he_key(h)}")
            mate = other_side(self.graph, h)
            if abs(self.periods[mate] + z) > tol * s:
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
        return cls(graph, periods)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "DevelopedSurface":
        return cls.from_json(json.loads(text))


def _fill_face(theta: AngleAssignment, f: str, slot: int, period: complex) -> dict[HalfEdge, complex]:
    """Periods of all slots of a face given one of them.

    Successive edges of a counterclockwise triangle turn left by the
    exterior angle, and the law of sines fixes the length ratios.
    """
    periods = {(f, slot): period}
    cur = period
    for k in range(2):
        s = (slot + k) % 3
        ratio = math.sin(theta[(f, (s + 2) % 3)]) / math.sin(theta[(f, (s + 1) % 3)])
        cur = cur * cmath.rect(ratio, math.pi - theta[(f, s)])
        periods[(f, (s + 1) % 3)] = cur
    return periods


def develop(graph: TriRibbonGraph, theta: AngleAssignment, tol: float = 1e-9) -> DevelopedSurface:
    """Lay out all faces from their angles, normalizing the base period to 1.

    Propagates across a spanning tree of the face adjacency in canonical
    order; any non-tree edge whose periods fail to oppose within
    ``tol * scale`` raises HolonomyObstruction.
    """
    require_valid(graph)
    validate_angles(graph, theta)
    walk = spanning_tree(graph)
    base = next(walk)
    periods = _fill_face(theta, base[0], base[1], 1.0 + 0.0j)
    for h, mate in walk:
        periods.update(_fill_face(theta, mate[0], mate[1], -periods[h]))
    scale = max(abs(z) for z in periods.values())
    for h in graph.half_edges():
        mate = other_side(graph, h)
        residual = abs(periods[mate] + periods[h])
        if residual > tol * scale:
            raise HolonomyObstruction(graph.edge_of(h), residual / scale)
    return DevelopedSurface(graph, periods)


def angles_of(surface: DevelopedSurface) -> AngleAssignment:
    """Angle at each corner from the outward edge vectors at its vertex."""
    theta: AngleAssignment = {}
    for f, _ in surface.graph.faces:
        for s in range(3):
            w1 = -surface.periods[(f, s)]
            w2 = surface.periods[(f, (s + 1) % 3)]
            if w1 == 0 or w2 == 0:
                raise DegenerateTriangleError(f"zero period in face {f!r}")
            ang = (cmath.phase(w1) - cmath.phase(w2)) % (2 * math.pi)
            if not (0.0 < ang < math.pi):
                raise DegenerateTriangleError(
                    f"degenerate corner {f}/{s} (angle {ang:.6f})"
                )
            theta[(f, s)] = ang
    return theta


def _edge_quad(surface: DevelopedSurface, edge: str):
    """Develop the two faces at ``edge`` into a common plane.

    Returns (A, B, C, D, h, mate): the CCW triangle of face h = (f, s) as
    (A, B, C) with the edge from A to B, and D the apex of the mate face.
    """
    occ = surface.graph.occurrences(edge)
    if len(occ) != 2:
        raise KeyError(f"unknown edge {edge!r}")
    h, mate = occ
    p = surface.periods
    a = 0.0 + 0.0j
    b = p[h]
    cpt = b + p[(h[0], (h[1] + 1) % 3)]
    # mate face laid across the shared edge: its edge runs B -> A
    d = b + (-p[h]) + p[(mate[0], (mate[1] + 1) % 3)]
    return a, b, cpt, d, h, mate


def is_geometric_delaunay(surface: DevelopedSurface, tol: float = 1e-9) -> bool:
    """Angle criterion at every edge, cross-checked by the in-circle predicate.

    Raises DegenerateTriangleError if any edge sits within ``tol`` of the
    cocircular configuration.
    """
    from . import region

    theta = angles_of(surface)
    result = True
    for e in surface.graph.edges:
        s = region.delaunay_sum(surface.graph, theta, e)
        if abs(s - math.pi) < tol:
            raise DegenerateTriangleError(f"degenerate Delaunay edge {e!r}")
        a, b, c, d, _, _ = _edge_quad(surface, e)
        check = region.circumcircle_cross_check((c, a, b, d), tol=tol)
        if not check["degenerate"]:
            assert check["agree"], f"angle/in-circle disagreement at edge {e!r}"
        if s >= math.pi:
            result = False
    return result


def flip_edge(surface: DevelopedSurface, edge: str) -> DevelopedSurface:
    """Replace ``edge`` by the opposite diagonal of its developed quadrilateral.

    Requires the two faces to be distinct and the quadrilateral strictly
    convex; the new diagonal's period is the sum of the two adjacent sides.
    """
    a, b, c, d, h, mate = _edge_quad(surface, edge)
    f, s = h
    f2, s2 = mate
    if f == f2:
        raise ValueError(f"cannot flip edge {edge!r}: both sides in one face")
    # quadrilateral in ccw order: A, D, B, C
    quad = [a, d, b, c]
    for i in range(4):
        u = quad[(i + 1) % 4] - quad[i]
        v = quad[(i + 2) % 4] - quad[(i + 1) % 4]
        if (u.conjugate() * v).imag <= 0:
            raise ValueError(f"cannot flip edge {edge!r}: quadrilateral not strictly convex")

    g = surface.graph
    p = surface.periods
    e_f1, e_f2 = g.edge_of((f, (s + 1) % 3)), g.edge_of((f, (s + 2) % 3))
    e_m1, e_m2 = g.edge_of((f2, (s2 + 1) % 3)), g.edge_of((f2, (s2 + 2) % 3))
    new_faces = []
    new_periods: dict[HalfEdge, complex] = {}
    for fid, bnd in g.faces:
        if fid == f:
            # triangle (A, D, C): edges A->D, D->C (new diagonal), C->A
            new_faces.append((fid, (e_m1, edge, e_f2)))
            new_periods[(fid, 0)] = d - a
            new_periods[(fid, 1)] = c - d
            new_periods[(fid, 2)] = a - c
        elif fid == f2:
            # triangle (D, B, C): edges D->B, B->C, C->D (new diagonal)
            new_faces.append((fid, (e_m2, e_f1, edge)))
            new_periods[(fid, 0)] = b - d
            new_periods[(fid, 1)] = c - b
            new_periods[(fid, 2)] = d - c
        else:
            new_faces.append((fid, bnd))
            for k in range(3):
                new_periods[(fid, k)] = p[(fid, k)]
    flipped = DevelopedSurface(TriRibbonGraph(g.edges, new_faces), new_periods)
    return flipped


def make_delaunay(surface: DevelopedSurface, max_flips: int = 1000, tol: float = 1e-9):
    """Lawson flips until no opposite-angle sum exceeds pi + tol.

    Returns (surface, flip_log, degenerate_edges).
    """
    from . import region

    flips: list[str] = []
    current = surface
    for _ in range(max_flips + 1):
        theta = angles_of(current)
        worst = None
        degenerate = []
        for e in current.graph.edges:
            s = region.delaunay_sum(current.graph, theta, e)
            if s > math.pi + tol and (worst is None or s > worst[1]):
                worst = (e, s)
            elif abs(s - math.pi) <= tol:
                degenerate.append(e)
        if worst is None:
            return current, flips, degenerate
        if len(flips) >= max_flips:
            raise RuntimeError(f"exceeded {max_flips} flips; last state returned")
        current = flip_edge(current, worst[0])
        flips.append(worst[0])
    raise RuntimeError("unreachable")


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


def export_svg(surface: DevelopedSurface, path: str) -> None:
    """Draw the tree-glued layout; identified boundary edges share a color."""
    if not path:
        raise ValueError("empty output path")
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
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
