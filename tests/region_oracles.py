"""The open invariant polytope and the constant-holonomy check over its
samples, which only tests and ``tools/output_digest.py`` need."""

import dataclasses
import math

from isodelaunay import angles, homology, region
from isodelaunay.ribbon import TriRibbonGraph


def open_polytope(graph: TriRibbonGraph, iota: dict) -> region.RegionPolytope:
    """The region's polytope without its Delaunay rows: the invariant angle
    assignments with every angle positive.

    ``build_polytope`` lists one positivity row per corner before the
    Delaunay rows, so those rows are kept as they are.
    """
    poly = region.build_polytope(graph, iota)
    n = len(poly.corners)
    return dataclasses.replace(poly, ineq_rows=poly.ineq_rows[:n], ineq_rhs=poly.ineq_rhs[:n])


def check_constant_holonomy(
    graph: TriRibbonGraph,
    iota: dict,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Sample invariant angle assignments and compare their holonomies.

    All sampled points must agree with the barycenter's holonomy on every
    basis cycle within ``tol``, with unit modulus and phase a multiple of pi.
    Returns a report dict; a counterexample signals an implementation fault.
    """
    basis = homology.cycle_basis(graph)
    thetas = region.sample(open_polytope(graph, iota), samples, seed=seed)
    chains = [homology.phi(graph, alpha) for alpha in basis]
    bary = {c: math.pi / 3 for c in graph.half_edges()}
    reference = [hol.value for hol in angles.corner_holonomies(bary, chains)]
    max_dev = 0.0
    max_mod_dev = 0.0
    counterexample = None
    for theta in thetas:
        for ref, val in zip(reference, angles.corner_holonomies(theta, chains)):
            max_dev = max(max_dev, abs(val.value - ref))
            max_mod_dev = max(max_mod_dev, abs(val.modulus - 1.0))
            if abs(val.value - ref) >= tol and counterexample is None:
                counterexample = theta
    return {
        "samples": len(thetas),
        "max_deviation": max_dev,
        "max_modulus_deviation": max_mod_dev,
        "ok": counterexample is None and max_mod_dev < tol,
        "counterexample": counterexample,
    }
