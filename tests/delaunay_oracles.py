"""The angle-dict Delaunay sum and region membership that only tests need."""

import math

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
