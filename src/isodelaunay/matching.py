"""Triangle matchings: verification and exhaustive search.

A matching is a bijection on half-edges that commutes with the Z/3 slot
rotation and acts as -1 on every cycle.  As a map it is stored as a plain
dict (face, slot) -> (face, slot).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import homology
from .ribbon import HalfEdge, TriRibbonGraph, ValidationReport, he_key, parse_he_key

TriangleMatching = dict[HalfEdge, HalfEdge]


def matching_to_json(iota: TriangleMatching) -> dict:
    return {he_key(h): he_key(iota[h]) for h in sorted(iota)}


def matching_from_json(data: dict) -> TriangleMatching:
    return {parse_he_key(k): parse_he_key(v) for k, v in data.items()}


@dataclass
class MatchingReport(ValidationReport):
    is_involution: bool = False


def verify_matching(
    graph: TriRibbonGraph,
    iota: TriangleMatching,
    basis: list[homology.Chain1] | None = None,
) -> MatchingReport:
    """Check bijectivity, Z/3-equivariance and the -1 action on a cycle basis."""
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
            # for a bijection, alpha(iota h) = -alpha(h) on the support of alpha
            # makes iota map that support onto itself, so iota acts as -1
            if any(alpha.get(iota[h], 0) != -c for h, c in alpha.items()):
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
    Deterministic order; ``limit`` (at least 1, or None for no cap) caps the
    number of matchings returned and ``deadline`` (seconds) truncates the
    search, flagging incompleteness.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
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
