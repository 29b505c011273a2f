"""Integer chain algebra on trivalent ribbon graphs.

1-chains are sparse integer maps keyed by half-edges (face, slot); the
reversed half-edge (e, f) is a negative coefficient.  Angle chains are
sparse integer maps keyed by corners.  The cycle basis is the set of
fundamental cycles of a spanning tree of the face/edge incidence graph, and
``phi`` inverts, one face at a time, the map ``p_map`` that sends corner
(f, s) to the chain (f, s + 1) - (f, s).  A fundamental cycle meets each
face it touches at two slots of opposite sign (the two-slot lemma), so its
corner chain is one corner per face.  The walk works on half-edge ranks and
reads the graph's tables (each sorted rank's half-edge and mate); one heap
pass grows the tree (Prim), and one pass over each cycle's sorted ranks
keys it, certifies it and emits its corner chain as rows for ``angles``,
with ``phi`` as their reference.  Everything here is exact integer
arithmetic; no floats.  In JSON a chain is a half-edge map of ``ribbon``
with int values.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .ribbon import Corner, HalfEdge, TriRibbonGraph

Chain1 = dict[HalfEdge, int]
AngleChain = dict[Corner, int]


def cycle_basis(graph: TriRibbonGraph) -> list[Chain1]:
    """The fundamental cycles of a spanning tree T of the faces.

    Each edge has an earlier half-edge g and a later one h; edges are indexed
    in order of h.  T is the spanning tree of least total index, unique since
    the indices are distinct; it fixes the basis that ``isodel holonomy``
    prints.  One heap pass grows it from the least face (Prim), taking the
    least edge to a face not yet reached and setting that face's parent
    pointer and depth.  Every other edge gives the cycle h - g + (the path in
    T from the face of g to that of h).

    Each cycle walks parent pointers from its two faces to their common
    ancestor, so it costs its own length; the graph keeps the basis, and
    every call returns a fresh copy.  One pass over the cycle's ranks keys
    it, emits its rows for ``angles`` (``phi``'s answer) and certifies
    d(cycle) = 0 and the two-slot lemma: each entry's mate carries the
    opposite coefficient, and consecutive entries pair up within one face
    with opposite signs.  AssertionError (an implementation fault) on any
    failure.
    """
    return [alpha.copy() for alpha in _kept_basis(graph)]


def _kept_basis(graph: TriRibbonGraph) -> list[Chain1]:
    """The basis the graph keeps, and its corner chain rows in
    ``graph._basis_chains``, built on first use from the graph's rank tables;
    their readers never change them."""
    if graph._cycle_basis is not None:
        return graph._cycle_basis
    # half-edges are handled by their sorted rank r: r // 3 is the face's
    # index and r % 3 its slot, by the graph's construction, and mate[r] is
    # the rank of the other half-edge of r's edge.  crow[r]: the corner at
    # slot r and the two corners whose sines make its dilation factor, the
    # next slot and the one after
    hes, mate = graph._half_edges, graph._mate
    crow = [row for x, y, z in zip(hes[::3], hes[1::3], hes[2::3])
            for row in ((x, y, z), (y, z, x), (z, x, y))]
    # Prim's pass grows T from face 0: the least edge from a reached face to
    # an unreached one joins it.  This is the tree that integer column
    # reduction of the incidence matrix picks, rows E then F in sorted order.
    # The heap holds (rank of the edge's h, rank r at a reached face); up[y] =
    # (parent, h, g, o), where the step from the parent to y is o * (h - g)
    n_faces = len(hes) // 3
    tree = [False] * len(hes)  # by the rank of the edge's h
    up: list = [None] * n_faces
    depth = [0] + [-1] * (n_faces - 1)  # -1: not reached yet
    heap = [(max(r, mate[r]), r) for r in range(3)]
    heapify(heap)
    while heap:
        h, r = heappop(heap)
        y = mate[r] // 3
        if depth[y] < 0:
            tree[h] = True
            up[y] = (r // 3, h, mate[h], 1 if r == h else -1)
            depth[y] = depth[r // 3] + 1
            for s in range(3 * y, 3 * y + 3):
                m = mate[s]
                if depth[m // 3] < 0:
                    heappush(heap, (m if m > s else s, s))
    basis, chains = [], {}
    for h, g in enumerate(mate):  # each edge once, at its later half-edge h
        if g > h or tree[h]:
            continue
        alpha = {h: 1, g: -1}
        a, b = h // 3, g // 3
        da, db = depth[a], depth[b]
        while a != b:  # add the path up from h's face, subtract the path up from g's
            if da >= db:
                a, hk, gk, o = up[a]
                alpha[hk], alpha[gk] = o, -o
                da -= 1
            else:
                b, hk, gk, o = up[b]
                alpha[hk], alpha[gk] = -o, o
                db -= 1
        # the one pass: each entry's mate carries the opposite coefficient
        # (each edge sums to zero), and consecutive ranks pair up within one
        # face with opposite signs (each face sums to zero), so phi(cycle) is
        # one corner per face, the slot s whose successor is the other one,
        # with minus the cycle's coefficient at s
        ranks = sorted(alpha)
        top = hes[ranks[0]]
        if len(ranks) % 2:  # zip would drop the last entry unchecked
            raise AssertionError(_fault(top, "has nonzero boundary"))
        cycle, rows = {}, []
        it = iter(ranks)
        for r1, r2 in zip(it, it):
            c1, c2 = alpha[r1], alpha[r2]
            if alpha.get(mate[r1]) != -c1 or alpha.get(mate[r2]) != -c2:
                raise AssertionError(_fault(top, "has nonzero boundary"))
            if r2 - r1 + r1 % 3 > 2 or c1 + c2 or not c1:
                raise AssertionError(_fault(top, f"does not meet face {hes[r1][0]!r} "
                                                 "at two slots of opposite sign"))
            cycle[hes[r1]], cycle[hes[r2]] = c1, c2
            x, y, z = crow[r1] if r2 - r1 == 1 else crow[r2]
            rows.append((-c1 if r2 - r1 == 1 else -c2, x, y, z))
        chains.setdefault(top, []).append((cycle, tuple(rows)))
        basis.append(cycle)
    if len(basis) != len(mate) // 2 - n_faces + 1:  # rank H1 = E - F + 1
        raise AssertionError(f"basis has {len(basis)} cycles, not E - F + 1 = "
                             f"{len(mate) // 2 - n_faces + 1} (implementation fault)")
    graph._cycle_basis, graph._basis_chains = basis, chains
    return basis


def _fault(first: HalfEdge, what: str) -> str:
    return f"basis cycle through {first} {what} (implementation fault)"


def phi(graph: TriRibbonGraph, cycle: Chain1) -> AngleChain:
    """The corner chain a with p_map(a) == cycle, solved face by face.

    On face f the cycle reads (c0, c1, c2), summing to zero, and the corner
    chains that p_map sends there are b + k(1, 1, 1) with b = (0, -c1,
    -c1 - c2).  The one of median 0 has the least sum of |coefficients|.
    The boundary is checked in the same pass that reads each face's triple:
    ValueError if the chain is not a cycle.  On a basis cycle (the two-slot
    lemma) this is one corner per face, the rows the basis walk emits.  If
    iota is a verified matching, phi(alpha)(iota c) = -phi(alpha)(c) for every
    cycle alpha and corner c: iota is Z/3-equivariant and negates alpha, so
    alpha reads f's triple on iota(f) negated and rotated, and the least lift
    b - median(b) is unique, so it commutes with both.
    """
    boundary = graph._boundary
    at_edge: dict[str, int] = {}
    at_face: dict[str, list[int]] = {}
    for (f, slot), coeff in cycle.items():
        slot %= 3
        try:
            e = boundary[f][slot]
        except KeyError:
            raise KeyError(f"unknown face {f!r} in chain") from None
        at_edge[e] = at_edge.get(e, 0) + coeff
        c = at_face.get(f)
        if c is None:
            c = at_face[f] = [0, 0, 0]
        c[slot] += coeff
    if any(at_edge.values()) or any(c0 + c1 + c2 for c0, c1, c2 in at_face.values()):
        raise ValueError("chain is not a cycle (nonzero boundary)")
    out: AngleChain = {}
    for f in sorted(at_face):
        _, c1, c2 = at_face[f]
        b1, b2 = -c1, -c1 - c2
        lo, hi = (b1, b2) if b1 <= b2 else (b2, b1)
        median = lo if lo > 0 else hi if hi < 0 else 0  # the median of (0, b1, b2)
        if median:
            out[(f, 0)] = -median
        if b1 != median:
            out[(f, 1)] = b1 - median
        if b2 != median:
            out[(f, 2)] = b2 - median
    return out
