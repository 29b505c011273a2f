"""The exhaustive backtracking search for triangle matchings that the library's
class-balance search replaced, kept as its reference."""

from chain_oracles import pairing_vector
from isodelaunay import homology, matching


def backtracking_matchings(graph, limit=None) -> list[dict]:
    """Every triangle matching, up to ``limit``, in the library's order.

    Faces in sorted order each try the (target face, offset) pairs whose
    rotated dense pairing vectors negate their own, in face then offset
    order; a full assignment counts when ``verify_matching`` accepts it.
    """
    basis = homology.cycle_basis(graph)
    faces = sorted(graph.face_ids)
    pv = {h: pairing_vector(basis, h) for h in graph.half_edges()}
    by_vectors: dict[tuple, list[tuple[str, int]]] = {}
    for f1 in faces:
        for off in range(3):
            key = tuple(pv[(f1, (s + off) % 3)] for s in range(3))
            by_vectors.setdefault(key, []).append((f1, off))
    candidates = {
        f: by_vectors.get(tuple(tuple(-x for x in pv[(f, s)]) for s in range(3)), [])
        for f in faces
    }
    found: list[dict] = []
    used: set[str] = set()
    assignment: dict[str, tuple[str, int]] = {}

    def backtrack(idx: int) -> bool:
        # returns True to stop the whole search
        if idx == len(faces):
            iota = {(f, s): (t, (s + off) % 3)
                    for f, (t, off) in assignment.items() for s in range(3)}
            if matching.verify_matching(graph, iota, basis):
                found.append(iota)
                return limit is not None and len(found) >= limit
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
    return found
