"""Triangle matchings: verification, exhaustive search, induced structures.

A matching is a bijection on half-edges that commutes with the Z/3 slot
rotation and acts as -1 on every cycle.  As a map it is stored as a plain
dict (face, slot) -> (face, slot).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import homology
from .ribbon import (
    Corner,
    HalfEdge,
    TriRibbonGraph,
    he_key,
    orbits,
    parse_he_key,
    require_valid,
    vertex_orbits,
)

TriangleMatching = dict[HalfEdge, HalfEdge]


def matching_to_json(iota: TriangleMatching) -> dict:
    return {he_key(h): he_key(iota[h]) for h in sorted(iota)}


def matching_from_json(data: dict) -> TriangleMatching:
    return {parse_he_key(k): parse_he_key(v) for k, v in data.items()}


def apply_to_chain(iota: TriangleMatching, chain: homology.Chain1) -> homology.Chain1:
    out: homology.Chain1 = {}
    for h, coeff in chain.items():
        img = iota[(h[0], h[1] % 3)]
        out[img] = out.get(img, 0) + coeff
    return {k: v for k, v in sorted(out.items()) if v != 0}


@dataclass
class MatchingReport:
    ok: bool
    problems: list[str] = field(default_factory=list)
    is_involution: bool = False

    def __bool__(self):
        return self.ok


def verify_matching(
    graph: TriRibbonGraph,
    iota: TriangleMatching,
    basis: list[homology.Chain1] | None = None,
) -> MatchingReport:
    """Check bijectivity, Z/3-equivariance and the -1 action on a cycle basis."""
    require_valid(graph)
    problems = []
    hes = graph.half_edges()
    domain = set(iota)
    if domain != set(hes):
        problems.append("domain of the map is not the full half-edge set")
        return MatchingReport(False, problems)
    for h in hes:
        if iota[h] not in domain:
            problems.append(f"image {iota[h]} of {h} is not a half-edge")
            return MatchingReport(False, problems)
    if len(set(iota.values())) != len(hes):
        problems.append("map is not a bijection on half-edges")
    for f in sorted(graph.face_ids):
        f1, s1 = iota[(f, 0)]
        for s in (1, 2):
            expect = (f1, (s1 + s) % 3)
            if iota[(f, s)] != expect:
                problems.append(
                    f"not Z/3-equivariant at {he_key((f, s))}: "
                    f"got {he_key(iota[(f, s)])}, expected {he_key(expect)}"
                )
    if not problems:
        if basis is None:
            basis = homology.cycle_basis(graph)
        for alpha in basis:
            if apply_to_chain(iota, alpha) != homology.chain_neg(alpha):
                problems.append(
                    f"does not act as -1 on the basis cycle through {min(alpha)}"
                )
                break
    is_involution = not problems and all(iota[iota[h]] == h for h in hes)
    return MatchingReport(not problems, problems, is_involution)


@dataclass
class SearchResult:
    matchings: list[TriangleMatching]
    complete: bool


def find_matchings(
    graph: TriRibbonGraph,
    limit: int | None = None,
    deadline: float | None = None,
) -> SearchResult:
    """Exhaustive backtracking search for triangle matchings.

    Candidates are face bijections with a per-face slot offset (the only
    Z/3-equivariant bijections of half-edges), pruned by the necessary
    condition that matched half-edges carry opposite pairing vectors.
    Deterministic order; ``limit`` caps the number of matchings returned and
    ``deadline`` (seconds) truncates the search, flagging incompleteness.
    """
    require_valid(graph)
    basis = homology.cycle_basis(graph)
    faces = sorted(graph.face_ids)
    pv = {h: homology.pairing_vector(basis, h) for h in graph.half_edges()}

    # for each source face, the compatible (target face, offset) assignments:
    # (f1, off) fits f when its rotated pairing vectors negate f's, so index
    # every (f1, off) by that triple once, in face then offset order
    by_vectors: dict[tuple, list[tuple[str, int]]] = {}
    for f1 in faces:
        for off in range(3):
            key = tuple(pv[(f1, (s + off) % 3)] for s in range(3))
            by_vectors.setdefault(key, []).append((f1, off))
    candidates = {
        f: by_vectors.get(tuple(tuple(-x for x in pv[(f, s)]) for s in range(3)), [])
        for f in faces
    }

    found: list[TriangleMatching] = []
    used: set[str] = set()
    assignment: dict[str, tuple[str, int]] = {}
    start_time = time.monotonic()
    timed_out = False

    def ran_out() -> bool:
        return deadline is not None and time.monotonic() - start_time > deadline

    def backtrack(idx: int) -> bool:
        # returns True to stop the whole search
        nonlocal timed_out
        if ran_out():
            timed_out = True
            return True
        if idx == len(faces):
            iota = {
                (f, s): (t, (s + off) % 3)
                for f, (t, off) in assignment.items()
                for s in range(3)
            }
            if verify_matching(graph, iota, basis):
                found.append(iota)
                if limit is not None and len(found) >= limit:
                    return True
            return False
        f = faces[idx]
        for t, off in candidates[f]:
            if t in used:
                continue
            used.add(t)
            assignment[f] = (t, off)
            if backtrack(idx + 1):
                return True
            del assignment[f]
            used.discard(t)
        return False

    backtrack(0)
    return SearchResult(found, complete=not timed_out)


@dataclass
class InvariantAngleSpace:
    """The linear equality system cutting out the invariant angle assignments.

    Rows are integer coefficient maps over corner variables; face sum rows
    equal pi, orbit rows equal 0.
    """

    corners: list[Corner]
    face_sum_rows: list[dict[Corner, int]]
    orbit_rows: list[dict[Corner, int]]
    dimension: int
    # index of each corner's iota-orbit, numbered in corner order
    orbit_of: dict[Corner, int]


def invariant_space(graph: TriRibbonGraph, iota: TriangleMatching) -> InvariantAngleSpace:
    """Equality system for invariant angle assignments, with its affine dimension.

    The orbit rows leave one variable per iota-orbit of corners.  The face
    rows of one face orbit then coincide, and rows of different face orbits
    have disjoint supports, so the dimension is the number of corner orbits
    less the number of face orbits.
    """
    report = verify_matching(graph, iota)
    if not report:
        raise ValueError("invariant_space requires a verified matching: " + "; ".join(report.problems))
    corners = graph.half_edges()
    faces = sorted(graph.face_ids)
    face_rows = [{(f, s): 1 for s in range(3)} for f in faces]
    orbit_rows = []
    seen = set()
    for c in corners:
        img = iota[c]
        if img == c or (img, c) in seen:
            continue
        seen.add((c, img))
        orbit_rows.append({c: 1, img: -1})
    corner_orbits = orbits(corners, iota.__getitem__)
    face_orbits = orbits(faces, lambda f: iota[(f, 0)][0])
    dimension = len(corner_orbits) - len(face_orbits)
    orbit_of = {c: i for i, orbit in enumerate(corner_orbits) for c in orbit}
    return InvariantAngleSpace(corners, face_rows, orbit_rows, dimension, orbit_of)


def check_constant_holonomy(
    graph: TriRibbonGraph,
    iota: TriangleMatching,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Sample invariant angle assignments and compare their holonomies.

    All sampled points must agree with the barycenter's holonomy on every
    basis cycle within ``tol``, with unit modulus and phase a multiple of pi.
    Returns a report dict; a counterexample signals an implementation fault.
    """
    from . import angles as angles_mod
    from . import region

    basis = homology.cycle_basis(graph)
    poly = region.build_polytope(graph, iota, include_delaunay=False)
    thetas = region.sample(poly, samples, seed=seed)
    chains = [homology.phi(graph, alpha) for alpha in basis]
    bary = angles_mod.constant_angles(graph)
    reference = [hol.value for hol in angles_mod.corner_holonomies(bary, chains)]
    max_dev = 0.0
    max_mod_dev = 0.0
    counterexample = None
    for theta in thetas:
        for ref, val in zip(reference, angles_mod.corner_holonomies(theta, chains)):
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


def check_hyperelliptic_compatibility(
    graph: TriRibbonGraph,
    edge_map: dict[str, str],
    face_map: dict[str, str],
) -> bool:
    """Decide whether a simplicial involution certifies a triangle matching.

    ``edge_map`` and ``face_map`` are permutations of the edge and face
    identifiers.  The induced half-edge map must align boundaries by a slot
    rotation (orientation preserving); the vertex set must have size 1, or
    size 2 with the two vertices swapped; and the half-edge map must verify
    as a triangle matching.
    """
    require_valid(graph)
    if sorted(edge_map) != sorted(graph.edges) or sorted(edge_map.values()) != sorted(graph.edges):
        raise ValueError("edge_map is not a permutation of the edges")
    fids = sorted(graph.face_ids)
    if sorted(face_map) != fids or sorted(face_map.values()) != fids:
        raise ValueError("face_map is not a permutation of the faces")

    # every consistent slot rotation per face; ambiguity from repeated edges
    # is resolved by trying all combinations
    per_face_offsets: list[list[int]] = []
    for f in fids:
        src = [edge_map[e] for e in graph.boundary_of(f)]
        dst = graph.boundary_of(face_map[f])
        offs = [off for off in range(3) if all(src[s] == dst[(s + off) % 3] for s in range(3))]
        if not offs:
            return False
        per_face_offsets.append(offs)

    import itertools

    orbits = vertex_orbits(graph)
    orbit_of = {c: i for i, orbit in enumerate(orbits) for c in orbit}
    basis = homology.cycle_basis(graph)
    for combo in itertools.product(*per_face_offsets):
        iota = {
            (f, s): (face_map[f], (s + off) % 3)
            for f, off in zip(fids, combo)
            for s in range(3)
        }
        if len(orbits) == 1:
            vertex_ok = True
        elif len(orbits) == 2:
            vertex_ok = all(orbit_of[iota[c]] != orbit_of[c] for c in iota)
        else:
            vertex_ok = False
        if vertex_ok and verify_matching(graph, iota, basis):
            return True
    return False
