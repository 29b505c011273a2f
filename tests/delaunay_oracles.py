"""The angle-dict Delaunay sum, region membership, the numpy in-circle
determinant, the atan2 cross-check of the in-circle sign, one flip at a time
by the flip kernel and by rebuilding the graph, and the flat area that only
tests need."""

import math

import numpy as np

from isodelaunay import develop
from isodelaunay.angles import AngleAssignment, validate_angles
from isodelaunay.region import opposite_corner
from isodelaunay.ribbon import TriRibbonGraph


def delaunay_sum(graph: TriRibbonGraph, theta: AngleAssignment, edge: str) -> float:
    """Sum of the two angles opposite ``edge``."""
    occ = graph.occurrences(edge)
    if len(occ) != 2:
        raise KeyError(f"unknown or malformed edge {edge!r}")
    return sum(theta[opposite_corner(h)] for h in occ)


def in_delaunay_region(graph: TriRibbonGraph, theta: AngleAssignment, tol: float = 1e-9) -> bool:
    validate_angles(graph, theta)
    return all(delaunay_sum(graph, theta, e) < math.pi - tol for e in graph.edges)


def incircle_det(a: complex, b: complex, c: complex, d: complex) -> float:
    """The in-circle determinant by ``numpy.linalg.det``: positive iff d is
    inside the circumcircle of ccw triangle abc."""
    rows = []
    for p in (a, b, c):
        q = p - d
        rows.append([q.real, q.imag, q.real * q.real + q.imag * q.imag])
    return float(np.linalg.det(np.array(rows)))


def flip_edge(surface: develop.DevelopedSurface, edge: str) -> develop.DevelopedSurface:
    """Replace ``edge`` by the opposite diagonal of its developed quadrilateral.

    Requires the two faces to be distinct and the quadrilateral strictly
    convex; the new diagonal's period is the sum of the two adjacent sides.
    """
    tri = develop._Triangulation(surface)
    tri.flip(edge)
    return tri.surface()


def flip_rebuilding_the_graph(surface: develop.DevelopedSurface,
                              edge: str) -> develop.DevelopedSurface:
    """The reference flip: develops the quadrilateral from the graph's
    occurrences and builds a new graph; AssertionError unless the edge's two
    faces differ and the quadrilateral is strictly convex."""
    g, p = surface.graph, surface.periods
    (f, s), (f2, s2) = g.occurrences(edge)
    assert f != f2
    a = 0.0 + 0.0j
    b = p[(f, s)]
    c = b + p[(f, (s + 1) % 3)]
    d = b + (-p[(f, s)]) + p[(f2, (s2 + 1) % 3)]
    quad = [a, d, b, c]
    for i in range(4):
        u = quad[(i + 1) % 4] - quad[i]
        v = quad[(i + 2) % 4] - quad[(i + 1) % 4]
        assert (u.conjugate() * v).imag > 0
    e_f1, e_f2 = g.edge_of((f, s + 1)), g.edge_of((f, s + 2))
    e_m1, e_m2 = g.edge_of((f2, s2 + 1)), g.edge_of((f2, s2 + 2))
    faces, periods = [], {}
    for fid, bnd in g.faces:
        if fid == f:
            faces.append((fid, (e_m1, edge, e_f2)))
            periods.update({(fid, 0): d - a, (fid, 1): c - d, (fid, 2): a - c})
        elif fid == f2:
            faces.append((fid, (e_m2, e_f1, edge)))
            periods.update({(fid, 0): b - d, (fid, 1): c - b, (fid, 2): d - c})
        else:
            faces.append((fid, bnd))
            periods.update({(fid, k): p[(fid, k)] for k in range(3)})
    return develop.DevelopedSurface(TriRibbonGraph(g.edges, faces), periods)


def area(surface: develop.DevelopedSurface) -> float:
    """Total flat area, half the cross product per face."""
    total = 0.0
    for f, _ in surface.graph.faces:
        z1, z2 = surface.periods[(f, 0)], surface.periods[(f, 1)]
        total += abs((z1.conjugate() * z2).imag) / 2.0
    return total


def _angle_at(p: complex, q: complex, r: complex) -> float:
    """Unsigned angle at p between segments pq and pr."""
    u, v = q - p, r - p
    return abs(math.atan2((u.conjugate() * v).imag, (u.conjugate() * v).real))


def circumcircle_cross_check(
    quad: tuple[complex, complex, complex, complex],
    tol: float = 1e-9,
) -> dict:
    """Agreement of the in-circle predicate with the opposite-angle criterion.

    ``quad`` is (A, B, C, D): triangle ABC counterclockwise sharing edge BC
    with the point D on the other side of line BC.  Near-degenerate cases
    (both indicators inside ``tol``) are flagged instead of judged.
    """
    a, b, c, d = quad
    angle_sum = _angle_at(a, b, c) + _angle_at(d, c, b)
    det = develop._incircle_det(a, b, c, d)
    scale = max(abs(b - a), abs(c - a), abs(d - a)) ** 4
    degenerate = abs(det) < tol * max(scale, 1.0) and abs(math.pi - angle_sum) < tol
    outside = det < 0
    return {
        "degenerate": degenerate,
        "in_circle_outside": outside,
        "angle_sum": angle_sum,
        "agree": degenerate or (outside == (angle_sum < math.pi)),
    }
