"""Connected sums of ribbon graphs and of triangle matchings."""

from __future__ import annotations

from . import homology, matching as matching_mod
from .ribbon import HalfEdge, TriRibbonGraph, he_key


def is_nonseparating(graph: TriRibbonGraph, h: HalfEdge) -> bool:
    """True iff removing the edge-vertex of ``h`` leaves the graph connected:
    iff a basis cycle has a coefficient on one of the edge's half-edges, as
    a bridge lies on no cycle and any other edge on a fundamental one."""
    ends = graph.occurrences(graph.edge_of(h))
    return any(x in alpha for alpha in homology._kept_basis(graph) for x in ends)


def connected_sum(
    left: TriRibbonGraph,
    h_left: HalfEdge,
    right: TriRibbonGraph,
    h_right: HalfEdge,
) -> TriRibbonGraph:
    """Swap the edge-endpoints of the two chosen half-edges.

    Identifiers are prefixed "L." and "R." to keep the union disjoint; the
    chosen half-edges must be nonseparating in their graphs.
    """
    for g, h in ((left, h_left), (right, h_right)):
        if not is_nonseparating(g, h):
            raise ValueError(f"half-edge {he_key(h)} is separating; sum rejected")
    e_left = "L." + left.edge_of(h_left)
    e_right = "R." + right.edge_of(h_right)
    edges, faces = [], []
    for prefix, g, h, new_edge in (("L.", left, h_left, e_right), ("R.", right, h_right, e_left)):
        edges += [prefix + e for e in g.edges]
        target = (h[0], h[1] % 3)
        for f, b in g.faces:
            faces.append((prefix + f, tuple(
                new_edge if (f, s) == target else prefix + e for s, e in enumerate(b))))
    return TriRibbonGraph(edges, faces)


def sum_matchings(
    left: TriRibbonGraph,
    h_left: HalfEdge,
    iota_left: matching_mod.TriangleMatching,
    right: TriRibbonGraph,
    h_right: HalfEdge,
    iota_right: matching_mod.TriangleMatching,
) -> tuple[TriRibbonGraph, matching_mod.TriangleMatching]:
    """Sum two graphs and their matchings; the union map must verify."""
    for g, iota in ((left, iota_left), (right, iota_right)):
        if not matching_mod.verify_matching(g, iota):
            raise ValueError("input matching does not verify on its graph")
    graph = connected_sum(left, h_left, right, h_right)
    iota: matching_mod.TriangleMatching = {}
    for prefix, source in (("L.", iota_left), ("R.", iota_right)):
        for (f, s), (f1, s1) in source.items():
            iota[(prefix + f, s)] = (prefix + f1, s1)
    report = matching_mod.verify_matching(graph, iota)
    if not report:
        raise AssertionError(
            "sum of verified matchings failed verification (implementation fault): "
            + "; ".join(report.problems)
        )
    return graph, iota
