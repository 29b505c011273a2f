"""Integer chain algebra on trivalent ribbon graphs.

1-chains are sparse integer maps keyed by half-edges (face, slot); the
reversed half-edge (e, f) is a negative coefficient.  Angle chains are
sparse integer maps keyed by corners.  The cycle basis is the set of
fundamental cycles of a spanning tree of the face/edge incidence graph, and
``phi`` inverts ``p_map`` one face at a time.  Everything here is exact
integer arithmetic; no floats.
"""

from __future__ import annotations

from .ribbon import Corner, HalfEdge, TriRibbonGraph, he_key, parse_he_key, require_valid

Chain1 = dict[HalfEdge, int]
AngleChain = dict[Corner, int]


def _clean(chain: dict) -> dict:
    return {k: v for k, v in sorted(chain.items()) if v != 0}


def chain_add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + scale * v
    return _clean(out)


def chain_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def chain_to_json(chain: dict) -> dict:
    return {he_key(k): v for k, v in sorted(chain.items())}


def chain_from_json(data: dict) -> dict:
    return _clean({parse_he_key(k): int(v) for k, v in data.items()})


def boundary(graph: TriRibbonGraph, chain: Chain1) -> dict:
    """Linear extension of d(f, e) = e - f, as a chain on the vertices E u F."""
    out: dict[tuple[str, str], int] = {}
    for (f, slot), coeff in chain.items():
        try:
            e = graph.edge_of((f, slot))
        except KeyError:
            raise KeyError(f"unknown face {f!r} in chain") from None
        out[("E", e)] = out.get(("E", e), 0) + coeff
        out[("F", f)] = out.get(("F", f), 0) - coeff
    return {k: v for k, v in out.items() if v != 0}


def is_cycle(graph: TriRibbonGraph, chain: Chain1) -> bool:
    return not boundary(graph, chain)


def cycle_basis(graph: TriRibbonGraph) -> list[Chain1]:
    """The fundamental cycles of a spanning tree T of the faces.

    Each edge has an earlier half-edge g and a later one h.  In sorted order,
    each face puts into T the edge of least h that leaves its current class,
    and its class merges into the class at the other end.  Every other edge
    gives the cycle h - g + (the path in T from the face of g to that of h).
    """
    require_valid(graph)
    first, pairs = {}, []  # edge -> earlier half-edge g; (h, g) per edge, in order of h
    for h in graph.half_edges():
        g = first.setdefault(graph.edge_of(h), h)
        if g != h:
            pairs.append((h, g))
    at: dict[str, list] = {f: [] for f in graph.face_ids}  # face -> its edges, by index
    for j, (h, g) in enumerate(pairs):
        at[h[0]].append(j)
        at[g[0]].append(j)
    cls = {f: f for f in at}  # face -> the one face of its class still to come
    members = {f: [f] for f in at}
    across: dict[str, list] = {f: [] for f in at}  # face -> (neighbour in T, step there)
    tree = set()
    # This is the tree that integer column reduction of the incidence matrix
    # picks, rows E then F in sorted order; it fixes the basis that
    # `isodel holonomy` prints.
    for f in sorted(at):
        live = [j for x in members[f] for j in at[x]
                if cls[pairs[j][0][0]] != cls[pairs[j][1][0]]]
        if live:
            j = min(live)
            tree.add(j)
            h, g = pairs[j]
            across[h[0]].append((g[0], {h: 1, g: -1}))
            across[g[0]].append((h[0], {g: 1, h: -1}))
            u = cls[g[0]] if cls[h[0]] == f else cls[h[0]]
            for x in members[f]:
                cls[x] = u
            members[u] += members.pop(f)
    stack = [min(at)]
    path = {stack[0]: {}}  # face -> chain of the path in T from the least face
    while stack:
        x = stack.pop()
        for y, step in across[x]:
            if y not in path:
                path[y] = chain_add(path[x], step)
                stack.append(y)
    basis = [chain_add(chain_add({h: 1, g: -1}, path[h[0]]), path[g[0]], -1)
             for j, (h, g) in enumerate(pairs) if j not in tree]
    for alpha in basis:
        assert not boundary(graph, alpha)
    return basis


def p_map(a: AngleChain) -> Chain1:
    """The homomorphism sending a corner to its incident half-edges."""
    out: Chain1 = {}
    for (f, slot), coeff in a.items():
        out[(f, (slot + 1) % 3)] = out.get((f, (slot + 1) % 3), 0) + coeff
        out[(f, slot % 3)] = out.get((f, slot % 3), 0) - coeff
    return _clean(out)


def phi(graph: TriRibbonGraph, cycle: Chain1) -> AngleChain:
    """The corner chain a with p_map(a) == cycle, solved face by face.

    On face f the cycle reads (c0, c1, c2), summing to zero, and the corner
    chains that p_map sends there are b + k(1, 1, 1) with b = (0, -c1,
    -c1 - c2).  The one of median 0 has the least sum of |coefficients|.
    Raises ValueError if the chain is not a cycle.
    """
    if boundary(graph, cycle):
        raise ValueError("chain is not a cycle (nonzero boundary)")
    out: AngleChain = {}
    for f in {h[0] for h in cycle}:
        c1, c2 = cycle.get((f, 1), 0), cycle.get((f, 2), 0)
        b = (0, -c1, -c1 - c2)
        out.update({(f, slot): x - sorted(b)[1] for slot, x in enumerate(b)})
    return _clean(out)


def pairing_vector(basis: list[Chain1], h: HalfEdge) -> tuple[int, ...]:
    """Pairings of ``h`` against every basis cycle; negates under other_side."""
    return tuple(alpha.get((h[0], h[1] % 3), 0) for alpha in basis)


def enumerate_simple_cycles(graph: TriRibbonGraph) -> list[Chain1]:
    """All simple cycles, by brute-force DFS on the bipartite multigraph.

    A simple cycle visits distinct E- and F-vertices, alternating.  Each
    undirected cycle is reported once, oriented so that its least half-edge
    carries coefficient +1.  Intended for small graphs (tests and oracles).
    """
    require_valid(graph)
    hes = graph.half_edges()
    out = []
    seen = set()
    for start in hes:
        # walk forward from face start[0] through positive half-edge `start`
        f0 = start[0]

        def extend(chain, cur_edge, used_faces, used_edges):
            for h in sorted(graph.occurrences(cur_edge)):
                if h in chain:
                    continue
                face = h[0]
                if face == f0:
                    cand = {**chain, h: -1}
                    if len(cand) >= 2:
                        key = tuple(sorted(cand.items()))
                        lo = min(cand)
                        if cand[lo] == 1 and key not in seen:
                            seen.add(key)
                            out.append(dict(cand))
                    continue
                if face in used_faces:
                    continue
                for h_out in [(face, slot) for slot in range(3)]:
                    if h_out == h or h_out in chain:
                        continue
                    e_next = graph.edge_of(h_out)
                    if e_next in used_edges:
                        continue
                    cand = {**chain, h: -1, h_out: 1}
                    extend(cand, e_next, used_faces | {face}, used_edges | {e_next})

        e0 = graph.edge_of(start)
        extend({start: 1}, e0, {f0}, {e0})
    return out
