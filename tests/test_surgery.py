"""Connected sums of triangulated surfaces and their matchings."""

import pytest

from chain_oracles import apply_to_chain, chain_neg
from isodelaunay import homology, matching, origami, ribbon, surgery


def test_all_torus_half_edges_are_nonseparating(torus_graph):
    for h in torus_graph.half_edges():
        assert surgery.is_nonseparating(torus_graph, h)


def test_connected_sum_topology(torus_graph):
    result = surgery.connected_sum(torus_graph, ("f1-", 0), torus_graph, ("f1-", 0))
    assert ribbon.validate(result).ok
    info = ribbon.topology(result)
    assert info == dict(V=2, E=6, F=4, chi=0, genus=1, rank_h1=3)


def test_connected_sum_prefixes_identifiers(torus_graph):
    result = surgery.connected_sum(torus_graph, ("f1-", 0), torus_graph, ("f1-", 1))
    assert all(e.startswith(("L.", "R.")) for e in result.edges)
    assert all(f.startswith(("L.", "R.")) for f in result.face_ids)
    assert len(result.edges) == 2 * len(torus_graph.edges)


def test_connected_sum_swaps_one_edge_pair(torus_graph):
    h = ("f1-", 0)
    result = surgery.connected_sum(torus_graph, h, torus_graph, h)
    edge = torus_graph.edge_of(h)
    # the two glued half-edges now lie on edges from the opposite summand
    assert result.edge_of(("L.f1-", 0)) == "R." + edge
    assert result.edge_of(("R.f1-", 0)) == "L." + edge


def test_sum_matchings_verifies(square_l, square_l_graph, torus, torus_graph):
    iota_l = origami.canonical_matching(square_l)
    iota_t = origami.canonical_matching(torus)
    g, iota = surgery.sum_matchings(
        square_l_graph, ("f1-", 0), iota_l, torus_graph, ("f1-", 0), iota_t
    )
    assert ribbon.validate(g).ok
    report = matching.verify_matching(g, iota)
    assert report.ok
    for alpha in homology.cycle_basis(g):
        assert apply_to_chain(iota, alpha) == chain_neg(alpha)


def test_sum_preserves_total_euler_characteristic(square_l_graph, prym_graph):
    # chi adds: (2 - 2*2) + (2 - 2*3) = -6, with both cone points kept
    result = surgery.connected_sum(square_l_graph, ("f1-", 0), prym_graph, ("f1-", 0))
    info = ribbon.topology(result)
    assert info["chi"] == -6
    assert info["V"] == 2
    assert info["genus"] == 4
    assert info["rank_h1"] == 2 * 4 + 2 - 1


def test_connected_sum_rejects_separating_half_edge(torus_graph):
    # edge b is a bridge between the two loops of a dumbbell
    dumbbell = ribbon.TriRibbonGraph(
        ["a", "b", "c"], [("f1", ("a", "a", "b")), ("f2", ("b", "c", "c"))]
    )
    assert ribbon.validate(dumbbell).ok
    bridge = next(h for h in dumbbell.half_edges() if dumbbell.edge_of(h) == "b")
    assert not surgery.is_nonseparating(dumbbell, bridge)
    with pytest.raises(ValueError):
        surgery.connected_sum(dumbbell, bridge, torus_graph, ("f1-", 0))


def test_sum_matchings_refuses_an_input_matching_that_does_not_verify(square_l, square_l_graph,
                                                                      torus, torus_graph):
    identity = {h: h for h in torus_graph.half_edges()}
    with pytest.raises(ValueError, match="^input matching does not verify on its graph$"):
        surgery.sum_matchings(square_l_graph, ("f1-", 0), origami.canonical_matching(square_l),
                              torus_graph, ("f1-", 0), identity)
