"""The angle-dict Delaunay sum, region membership, the numpy in-circle
determinant, the atan2 cross-check of the in-circle sign, one flip at a time
and the flat area that only tests need."""

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
