"""Chain helpers, the boundary map, the ``is_cycle`` reference, ``p_map``, dense pairing
vectors, the check that a map negates the basis walk's corner chain rows and the
brute-force cycle oracle that only tests need."""

from isodelaunay import angles, homology
from isodelaunay.ribbon import TriRibbonGraph, parse_he_key


def _clean(chain: dict) -> dict:
    return {k: v for k, v in sorted(chain.items()) if v != 0}


def chain_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def apply_to_chain(iota: dict, chain: homology.Chain1) -> homology.Chain1:
    """The image chain iota . chain, with zero coefficients dropped and keys sorted."""
    out: homology.Chain1 = {}
    for h, coeff in chain.items():
        img = iota[(h[0], h[1] % 3)]
        out[img] = out.get(img, 0) + coeff
    return _clean(out)


def chain_add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + scale * v
    return _clean(out)


def chain_from_json(data: dict) -> dict:
    return _clean({parse_he_key(k): int(v) for k, v in data.items()})


def boundary(graph: TriRibbonGraph, chain: homology.Chain1) -> dict:
    """Linear extension of d(f, e) = e - f, as a chain on the vertices E u F."""
    edge_of = graph.edge_of
    out: dict[tuple[str, str], int] = {}
    for (f, slot), coeff in chain.items():
        try:
            e = edge_of((f, slot))
        except KeyError:
            raise KeyError(f"unknown face {f!r} in chain") from None
        out[("E", e)] = out.get(("E", e), 0) + coeff
        out[("F", f)] = out.get(("F", f), 0) - coeff
    return {k: v for k, v in out.items() if v != 0}


def is_cycle(graph: TriRibbonGraph, chain: homology.Chain1) -> bool:
    """Whether d(chain) = 0 for d(f, e) = e - f: each edge and each face sums to zero.

    The reference for the certificate that ``homology.cycle_basis`` checks in
    rank space on every basis cycle."""
    boundary = graph._boundary
    at_edge, at_face = {}, {}
    for (f, slot), coeff in chain.items():
        try:
            e = boundary[f][slot % 3]
        except KeyError:
            raise KeyError(f"unknown face {f!r} in chain") from None
        at_edge[e] = at_edge.get(e, 0) + coeff
        at_face[f] = at_face.get(f, 0) + coeff
    return not any(at_edge.values()) and not any(at_face.values())


def p_map(a: homology.AngleChain) -> homology.Chain1:
    """The homomorphism sending a corner to its incident half-edges, which
    ``homology.phi`` inverts on cycles."""
    out: homology.Chain1 = {}
    for (f, slot), coeff in a.items():
        out[(f, (slot + 1) % 3)] = out.get((f, (slot + 1) % 3), 0) + coeff
        out[(f, slot % 3)] = out.get((f, slot % 3), 0) - coeff
    return _clean(out)


def rows_negate_under(graph: TriRibbonGraph, iota: dict) -> bool:
    """Whether, on every basis cycle, the row at iota c is the row (k, c, num,
    den) at c negated and moved by iota, (-k, iota c, iota num, iota den).
    Then on iota-invariant angles the holonomy terms at c and iota c cancel."""
    for alpha in homology.cycle_basis(graph):
        rows = {c: (k, num, den) for k, c, num, den in angles._rows(graph, alpha)}
        if rows != {iota[c]: (-k, iota[num], iota[den]) for c, (k, num, den) in rows.items()}:
            return False
    return True


def pairing_vector(basis: list[homology.Chain1], h) -> tuple[int, ...]:
    """Pairings of ``h`` against every basis cycle; negates under other_side."""
    return tuple(alpha.get((h[0], h[1] % 3), 0) for alpha in basis)


def enumerate_simple_cycles(graph: TriRibbonGraph) -> list[homology.Chain1]:
    """All simple cycles, by brute-force DFS on the bipartite multigraph.

    A simple cycle visits distinct E- and F-vertices, alternating.  Each
    undirected cycle is reported once, oriented so that its least half-edge
    carries coefficient +1.  Intended for small graphs.
    """
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
