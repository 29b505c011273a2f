"""Integer chain algebra on trivalent ribbon graphs.

1-chains are sparse integer maps keyed by half-edges (face, slot); the
reversed half-edge (e, f) is a negative coefficient.  Angle chains are
sparse integer maps keyed by corners.  Everything here is exact integer
arithmetic; no floats.
"""

from __future__ import annotations

from .ribbon import (
    Corner,
    HalfEdge,
    TriRibbonGraph,
    he_key,
    other_side,
    parse_he_key,
    require_valid,
)

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
        if f not in graph._boundary:
            raise KeyError(f"unknown face {f!r} in chain")
        e = graph.edge_of((f, slot))
        out[("E", e)] = out.get(("E", e), 0) + coeff
        out[("F", f)] = out.get(("F", f), 0) - coeff
    return {k: v for k, v in out.items() if v != 0}


def is_cycle(graph: TriRibbonGraph, chain: Chain1) -> bool:
    return not boundary(graph, chain)


def _integer_kernel(columns: list[dict], keys: list) -> list[dict]:
    """Integral basis of the kernel of the matrix whose columns are given.

    Column-style Hermite reduction on (M | I): eliminate rows in a fixed
    order with exact integer Euclidean steps; the columns of the transform
    whose image column vanished form a kernel basis.  ``keys`` fixes the
    column order of the identity part.
    """
    n = len(columns)
    cols = [dict(c) for c in columns]
    transform = [{j: 1} for j in range(n)]

    rows = sorted({r for c in cols for r in c})
    active = list(range(n))
    for row in rows:
        live = [j for j in active if cols[j].get(row, 0) != 0]
        if not live:
            continue
        # gcd elimination across the live columns, keeping one pivot
        while len(live) > 1:
            live.sort(key=lambda j: (abs(cols[j].get(row, 0)), j))
            p, q = live[0], live[1]
            a, b = cols[p].get(row, 0), cols[q].get(row, 0)
            k = b // a
            cols[q] = chain_add(cols[q], cols[p], -k)
            transform[q] = chain_add(transform[q], transform[p], -k)
            if cols[q].get(row, 0) == 0:
                live.remove(q)
        active.remove(live[0])
    kernel = []
    for j in active:
        if not cols[j]:
            kernel.append({keys[idx]: v for idx, v in sorted(transform[j].items())})
    return kernel


def cycle_basis(graph: TriRibbonGraph) -> list[Chain1]:
    """An integral basis of Z1 = ker d, deterministic per canonical orderings."""
    require_valid(graph)
    hes = graph.half_edges()
    columns = []
    for h in hes:
        e = graph.edge_of(h)
        columns.append({("E", e): 1, ("F", h[0]): -1})
    basis = _integer_kernel(columns, hes)
    for alpha in basis:
        assert not boundary(graph, alpha)
    return [_clean(alpha) for alpha in basis]


def p_map(a: AngleChain) -> Chain1:
    """The homomorphism sending a corner to its incident half-edges."""
    out: Chain1 = {}
    for (f, slot), coeff in a.items():
        out[(f, (slot + 1) % 3)] = out.get((f, (slot + 1) % 3), 0) + coeff
        out[(f, slot % 3)] = out.get((f, slot % 3), 0) - coeff
    return _clean(out)


def phi(graph: TriRibbonGraph, cycle: Chain1) -> AngleChain:
    """Express a cycle as a sum of corners by extracting closed walks.

    The chain is consumed greedily: repeatedly start at the least half-edge
    with positive coefficient, walk forward (faces exit through positive
    half-edges, enter through negative ones), and close up at the starting
    face.  Raises ValueError if the chain is not a sum of closed walks.
    """
    if boundary(graph, cycle):
        raise ValueError("chain is not a cycle (nonzero boundary)")
    remaining = {k: v for k, v in cycle.items() if v != 0}
    out: AngleChain = {}

    def take(h: HalfEdge, sign: int) -> None:
        remaining[h] = remaining.get(h, 0) - sign
        if remaining[h] == 0:
            del remaining[h]

    # index from edge id to half-edges currently carrying negative coefficient
    def entries_at(edge: str) -> list[HalfEdge]:
        return sorted(
            h for h, v in remaining.items() if v < 0 and graph.edge_of(h) == edge
        )

    def exits_at(face: str) -> list[HalfEdge]:
        return sorted(h for h, v in remaining.items() if v > 0 and h[0] == face)

    while remaining:
        start = min(h for h, v in remaining.items() if v > 0)
        f0 = start[0]
        take(start, +1)
        walk = [start]  # alternating exit, entry, exit, ... half-edges
        cur_edge = graph.edge_of(start)
        while True:
            entries = entries_at(cur_edge)
            if not entries:
                raise ValueError(f"walk stuck at edge {cur_edge!r}; not a closed walk")
            h_in = entries[0]
            take(h_in, -1)
            walk.append(h_in)
            face = h_in[0]
            if face == f0:
                break
            exits = exits_at(face)
            if not exits:
                raise ValueError(f"walk stuck at face {face!r}; not a closed walk")
            h_out = exits[0]
            take(h_out, +1)
            walk.append(h_out)
            cur_edge = graph.edge_of(h_out)
        # corners: each face visit pairs an entering slot with the exiting slot
        exits_seq = walk[0::2]
        entries_seq = walk[1::2]
        for j, h_out in enumerate(exits_seq):
            h_in = entries_seq[j - 1]  # entry into the face of h_out
            f = h_out[0]
            s_in, s_out = h_in[1], h_out[1]
            if (s_in + 1) % 3 == s_out:
                out[(f, s_in)] = out.get((f, s_in), 0) + 1
            elif (s_out + 1) % 3 == s_in:
                out[(f, s_out)] = out.get((f, s_out), 0) - 1
            else:  # pragma: no cover - slots of a face differ by 1 or 2
                raise AssertionError("inconsistent walk slots")
    return _clean(out)


def pairing_vector(graph: TriRibbonGraph, basis: list[Chain1], h: HalfEdge) -> tuple[int, ...]:
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
    for start_idx, start in enumerate(hes):
        # walk forward from face start[0] through positive half-edge `start`
        f0 = start[0]

        def extend(chain, cur_edge, used_faces, used_edges):
            for h in hes:
                if h in chain:
                    continue
                if graph.edge_of(h) != cur_edge:
                    continue
                face = h[0]
                if face == f0:
                    cand = dict(chain)
                    cand[h] = -1
                    if len(cand) >= 2:
                        key = tuple(sorted(cand.items()))
                        lo = min(cand)
                        if cand[lo] == 1 and key not in seen:
                            seen.add(key)
                            out.append(dict(cand))
                    continue
                if face in used_faces:
                    continue
                for h_out in hes:
                    if h_out[0] != face or h_out == h or h_out in chain:
                        continue
                    e_next = graph.edge_of(h_out)
                    if e_next in used_edges:
                        continue
                    cand = dict(chain)
                    cand[h] = -1
                    cand[h_out] = 1
                    extend(cand, e_next, used_faces | {face}, used_edges | {e_next})

        e0 = graph.edge_of(start)
        extend({start: 1}, e0, {f0}, {e0})
    return out
