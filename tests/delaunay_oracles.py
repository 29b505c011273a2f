"""The angle-dict Delaunay sum, region membership and the numpy in-circle
determinant that only tests need."""

import math

import numpy as np

from isodelaunay.angles import AngleAssignment, validate_angles
from isodelaunay.region import opposite_corner
from isodelaunay.ribbon import TriRibbonGraph


def delaunay_sum(graph: TriRibbonGraph, theta: AngleAssignment, edge: str) -> float:
    """Sum of the two angles opposite ``edge``."""
    occ = graph.occurrences(edge)
    if len(occ) != 2:
        raise KeyError(f"unknown or malformed edge {edge!r}")
    return sum(theta[opposite_corner(graph, h)] for h in occ)


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
