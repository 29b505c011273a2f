"""Ribbon-graph structure, validation, and topology."""

import json

import pytest

from chain_oracles import corner_successor, other_side
from isodelaunay import origami, ribbon
from isodelaunay.ribbon import TriRibbonGraph


def test_he_key_round_trip():
    assert ribbon.parse_he_key(ribbon.he_key(("f1-", 2))) == ("f1-", 2)
    assert ribbon.he_key(("a/b", 0)) == "a/b/0"
    with pytest.raises(ValueError):
        ribbon.parse_he_key("justoneword")


def test_json_round_trip(square_l_graph):
    again = TriRibbonGraph.from_json(json.loads(json.dumps(square_l_graph.to_json())))
    assert again.to_json() == square_l_graph.to_json()


def test_validate_good_graphs(torus_graph, square_l_graph, prym_graph, staircase_graph):
    for g in (torus_graph, square_l_graph, prym_graph, staircase_graph):
        report = ribbon.validate(g)
        assert report.ok and report.problems == []


def assert_rejected(edges, faces, problems):
    """Building the graph, directly or from JSON, raises with exactly ``problems``."""
    with pytest.raises(ribbon.InvalidGraphError) as info:
        TriRibbonGraph(edges, faces)
    assert info.value.problems == problems
    assert str(info.value) == "; ".join(problems)
    data = {"edges": edges, "faces": [{"id": f, "boundary": list(b)} for f, b in faces]}
    with pytest.raises(ribbon.InvalidGraphError) as info:
        TriRibbonGraph.from_json(data)
    assert info.value.problems == problems


def test_validate_rejects_bad_multiplicity():
    assert_rejected(
        ["a", "b", "c", "d"],
        [("f", ("a", "b", "c")), ("g", ("a", "b", "d"))],
        ["edge multiplicity 1 for edge 'c', expected 2",
         "edge multiplicity 1 for edge 'd', expected 2"],
    )


def test_validate_rejects_wrong_boundary_length():
    assert_rejected(
        ["a", "b"],
        [("f", ("a", "b")), ("g", ("a", "b"))],
        ["face 'f' has 2 boundary slots, expected 3",
         "face 'g' has 2 boundary slots, expected 3"],
    )


def test_validate_rejects_disconnected():
    faces = [
        ("f1", ("a", "a", "b")),
        ("f2", ("b", "c", "c")),
        ("g1", ("x", "x", "y")),
        ("g2", ("y", "z", "z")),
    ]
    assert_rejected(["a", "b", "c", "x", "y", "z"], faces,
                    ["graph is disconnected (2 of 4 faces reachable)"])


def test_validate_rejects_empty():
    assert_rejected([], [], ["graph has no faces"])


def test_validate_rejects_duplicate_face_id():
    assert_rejected(["a", "b", "c"], [("f", ("a", "b", "c")), ("f", ("a", "b", "c"))],
                    ["duplicate face id 'f'"])


def test_validate_rejects_unlisted_edge():
    assert_rejected(["a", "b"], [("f", ("a", "b", "c")), ("g", ("c", "b", "a"))],
                    ["edge 'c' used in a boundary but not listed"])


def test_validate_rejects_non_string_ids():
    assert_rejected(["a", "b", 3], [(1, ("a", "b", 3)), ("g", (3, "b", "a"))],
                    ["face id 1 is not a string", "edge id 3 is not a string"])


@pytest.mark.parametrize("data", [
    {"edges": ["a", "b", "c"], "faces": [{"id": "f", "boundary": "abc"},
                                         {"id": "g", "boundary": ["c", "b", "a"]}]},
    {"edges": "abc", "faces": [{"id": "f", "boundary": ["a", "b", "c"]},
                               {"id": "g", "boundary": ["c", "b", "a"]}]},
    {"edges": {"a": 0, "b": 0, "c": 0}, "faces": [{"id": "f", "boundary": ["a", "b", "c"]},
                                                 {"id": "g", "boundary": ["c", "b", "a"]}]},
])
def test_from_json_takes_only_lists(data):
    # a string would pass as a sequence of one-letter ids, an object as its keys
    with pytest.raises(TypeError, match="not a list|must be lists"):
        TriRibbonGraph.from_json(data)


def test_other_side_is_fixed_point_free_involution(square_l_graph):
    g = square_l_graph
    for h in g.half_edges():
        mate = other_side(g, h)
        assert mate != h
        assert g.edge_of(mate) == g.edge_of(h)
        assert other_side(g, mate) == h


def test_vertex_orbits_partition_corners(prym_graph):
    orbits = ribbon.vertex_orbits(prym_graph)
    seen = [c for orbit in orbits for c in orbit]
    assert sorted(seen) == sorted(prym_graph.half_edges())
    # each orbit is actually closed under the successor map
    for orbit in orbits:
        members = set(orbit)
        for c in orbit:
            assert corner_successor(prym_graph, c) in members
    # the rank walk lists the orbits that the walk by names lists, in order
    assert orbits == ribbon.orbits(prym_graph.half_edges(),
                                   lambda c: corner_successor(prym_graph, c))


def test_topology_golden_values(torus_graph, square_l_graph, prym_graph, staircase_graph):
    expected = {
        id(torus_graph): dict(V=1, E=3, F=2, chi=0, genus=1, rank_h1=2),
        id(square_l_graph): dict(V=1, E=9, F=6, chi=-2, genus=2, rank_h1=4),
        id(prym_graph): dict(V=1, E=15, F=10, chi=-4, genus=3, rank_h1=6),
        id(staircase_graph): dict(V=2, E=18, F=12, chi=-4, genus=3, rank_h1=7),
    }
    for g in (torus_graph, square_l_graph, prym_graph, staircase_graph):
        assert ribbon.topology(g) == expected[id(g)]


def test_topology_euler_formula_random_origamis():
    # chi = V - E + F must hold with V counted by explicit orbit tracing
    for spec in ("h=(123);v=(12)", "h=(1234);v=(13)", "h=(12)(34);v=(13)(24)"):
        g = origami.build_origami_graph(origami.Origami.from_spec(spec))
        info = ribbon.topology(g)
        assert info["V"] == len(ribbon.vertex_orbits(g))
        assert info["chi"] == info["V"] - info["E"] + info["F"]
        assert info["rank_h1"] == 2 * info["genus"] + info["V"] - 1


def test_boundary_rotation_is_semantic_noop(square_l_graph):
    rotated = TriRibbonGraph(
        square_l_graph.edges,
        [
            (f, boundary[1:] + boundary[:1])
            for f, boundary in square_l_graph.faces
        ],
    )
    assert ribbon.topology(rotated) == ribbon.topology(square_l_graph)


def test_stratum_signature(square_l, prym, staircase):
    cases = [(square_l, 2, (2,)), (prym, 3, (4,)), (staircase, 3, (2, 2))]
    for o, genus, orders in cases:
        g = origami.build_origami_graph(o)
        for theta in (origami.standard_angles(o), origami.equilateral_angles(o)):
            sig = ribbon.stratum_signature(g, theta)
            assert (sig.genus, sig.zero_orders) == (genus, orders)
