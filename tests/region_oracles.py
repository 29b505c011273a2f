"""The open invariant polytope, the constant-holonomy check over its
samples, and the dense hit-and-run walk that the block walk of
``region.sample`` is compared against; only tests and
``tools/output_digest.py`` need them."""

import dataclasses
import math

import numpy as np

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


def _dense(rows: list[dict], cidx: dict, width: int) -> np.ndarray:
    """Sparse rows keyed by corner as a dense matrix with ``width`` columns.

    ``cidx`` gives each corner's column; entries that share a column add up.
    """
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for k, v in row.items():
            out[i, cidx[k]] += v
    return out


def dense_sample(polytope: region.RegionPolytope, n: int, seed: int = 0) -> list[dict]:
    """The reference walk: hit-and-run in all orbit variables at once.

    Each step draws a direction uniformly on the sphere of the equality
    null space, from a full SVD, and bounds the chord by every inequality
    row, keeping ``region.MARGIN`` of slack.  It burns in
    ``region.BURN_IN_PER_DIM`` steps per dimension and keeps one sample
    every ``region.STRIDE`` steps.
    """
    if n == 0:
        return []
    start, _ = polytope.optimum
    dim = polytope.dimension
    if dim == 0:
        return [dict(start) for _ in range(n)]
    orbit_of = polytope.orbit_of
    width = max(orbit_of.values()) + 1
    # orthonormal nullspace basis of the equality matrix; orbit rows are zero
    _, _, vt = np.linalg.svd(_dense(polytope.eq_rows, orbit_of, width))
    N = vt[width - dim:].T  # width x dim
    G = _dense(polytope.ineq_rows, orbit_of, width)
    gb = np.array(polytope.ineq_rhs, dtype=float)
    GN = G @ N

    rng = np.random.default_rng(seed)
    y = np.full(width, math.pi / 3)
    out = []
    burn_in = region.BURN_IN_PER_DIM * dim
    for step in range(burn_in + region.STRIDE * n):
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        room, g_dir = gb - region.MARGIN - G @ y, GN @ d
        up, down = g_dir > 1e-14, g_dir < -1e-14
        lo = (room[down] / g_dir[down]).max(initial=-np.inf)
        hi = (room[up] / g_dir[up]).min(initial=np.inf)
        if lo < hi:
            y = y + rng.uniform(lo, hi) * (N @ d)
        if step >= burn_in and (step - burn_in) % region.STRIDE == region.STRIDE - 1:
            values = y.tolist()
            out.append({c: values[orbit_of[c]] for c in polytope.corners})
    return out
