"""Triangle matchings: verification and search.

A matching is a bijection on half-edges that commutes with the Z/3 slot
rotation and acts as -1 on every cycle.  As a map it is stored as a plain
dict (face, slot) -> (face, slot).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import homology
from .ribbon import HalfEdge, TriRibbonGraph, ValidationReport, he_key, other_side, parse_he_key

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
        for alpha in homology._kept_basis(graph) if basis is None else basis:
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
    """Every triangle matching, in a fixed order, by a search with no dead end.

    Face f goes to a face t with a slot offset off (the only Z/3-equivariant
    bijections), which fits when t's pairing triple with the basis, rotated
    by off, negates f's triple T.  So a matching exists iff each class [T]
    of triples up to rotation is as large as [-T], and then no partial
    assignment is a dead end.  Each distinct pairing vector is read as a
    small int id, so a triple is three ids.  ``limit`` (at least 1, or None)
    caps the matchings returned, each checked by ``verify_matching``;
    ``deadline`` (seconds, at least 0, or None) truncates the search,
    flagging incompleteness.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if deadline is not None and not deadline >= 0:
        raise ValueError(f"deadline must be at least 0, got {deadline}")
    basis = homology._kept_basis(graph)
    faces = sorted(graph.face_ids)
    pairings: dict[HalfEdge, list] = {h: [] for h in graph.half_edges()}
    for i, alpha in enumerate(basis):
        for h, c in alpha.items():
            pairings[h].append((i, c))
    ids: dict[tuple, int] = {}
    pairing = {h: ids.setdefault(tuple(p), len(ids)) for h, p in pairings.items()}
    triple = {f: (pairing[(f, 0)], pairing[(f, 1)], pairing[(f, 2)]) for f in faces}
    # every (face, offset) indexed by its rotated triple, in face then offset order
    by_rotation: dict[tuple[int, int, int], list[tuple[str, int]]] = {}
    for f1, (a, b, c) in triple.items():
        for off, key in enumerate(((a, b, c), (b, c, a), (c, a, b))):
            by_rotation.setdefault(key, []).append((f1, off))
    # a cycle sums to zero at each edge, so the mate of h pairs as -h does
    candidates = {
        f: by_rotation.get(tuple(pairing[other_side(graph, (f, s))] for s in range(3)), [])
        for f in faces
    }
    # by_rotation[T] holds each face of [T] once per rotation fixing T, and
    # candidates[f] likewise for [-T], so the classes balance iff the sizes agree
    if any(len(candidates[f]) != len(by_rotation[triple[f]]) for f in faces):
        return SearchResult([], complete=True)

    found: list[TriangleMatching] = []
    used: set[str] = set()
    chosen: list[tuple[str, int]] = [("", 0)] * len(faces)
    # tried[i] counts the candidates of faces[i] tried so far; a loop in
    # place of recursion, so that no graph is too large for the call stack
    tried = [0] * len(faces)
    start_time = time.monotonic()
    timed_out = False
    idx = 0
    while True:  # faces[idx] has just been reached
        if deadline is not None and time.monotonic() - start_time > deadline:
            timed_out = True
            break
        if idx == len(faces):
            found.append({(f, s): (t, (s + off) % 3)
                          for f, (t, off) in zip(faces, chosen) for s in range(3)})
            if limit is not None and len(found) >= limit:
                break
            idx -= 1
        # give faces[idx] its next unused candidate, backing up past faces
        # that have none left
        while idx >= 0:
            options, k = candidates[faces[idx]], tried[idx]
            if k:
                used.discard(chosen[idx][0])
            while k < len(options) and options[k][0] in used:
                k += 1
            if k < len(options):
                break
            tried[idx] = 0
            idx -= 1
        if idx < 0:
            break
        tried[idx] = k + 1
        chosen[idx] = options[k]
        used.add(options[k][0])
        idx += 1

    for iota in found:
        report = verify_matching(graph, iota, basis)
        if not report:
            raise AssertionError(f"found matching fails verification: {report.problems}")
    return SearchResult(found, complete=not timed_out)
