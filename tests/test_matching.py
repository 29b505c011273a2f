"""Triangle matchings: verification, search, invariant angle space."""

from unittest import mock

import numpy as np
import pytest

from chain_oracles import apply_to_chain, chain_neg
from isodelaunay import develop, homology, matching, origami, surgery
from matching_oracles import backtracking_matchings
from origami_oracles import staircase_origami
from region_oracles import check_constant_holonomy, open_polytope


def canonical(o):
    return origami.canonical_matching(o)


def test_verify_canonical_matchings(torus, square_l, prym):
    for o in (torus, square_l, prym):
        g = origami.build_origami_graph(o)
        report = matching.verify_matching(g, canonical(o))
        assert report.ok and report.problems == []
        assert report.is_involution


def test_matching_acts_by_minus_one_on_homology(square_l, square_l_graph):
    iota = canonical(square_l)
    for alpha in homology.cycle_basis(square_l_graph):
        assert apply_to_chain(iota, alpha) == chain_neg(alpha)


def test_verify_rejects_identity_map(square_l_graph):
    identity = {h: h for h in square_l_graph.half_edges()}
    assert not matching.verify_matching(square_l_graph, identity).ok


def test_verify_rejects_non_equivariant(square_l, square_l_graph):
    iota = dict(canonical(square_l))
    # swap two images: still a bijection, no longer slot-equivariant
    keys = sorted(iota)
    a, b = keys[0], keys[4]
    iota[a], iota[b] = iota[b], iota[a]
    assert not matching.verify_matching(square_l_graph, iota).ok


def test_find_matchings_square_l_contains_canonical(square_l, square_l_graph):
    res = matching.find_matchings(square_l_graph)
    assert res.complete
    assert canonical(square_l) in res.matchings


def test_find_matchings_staircase_empty(staircase_graph):
    res = matching.find_matchings(staircase_graph)
    assert res.complete and res.matchings == []


def test_a_class_imbalance_returns_a_complete_empty_result_before_any_deadline(staircase_graph):
    # the class count proves that no matching exists, so no search runs
    res = matching.find_matchings(staircase_graph, deadline=0.0)
    assert res.complete and res.matchings == []


def test_search_raises_when_a_found_matching_fails_verification(square_l_graph, monkeypatch):
    # a verify that always says no stands for a wrong matching from the search
    monkeypatch.setattr(matching, "verify_matching",
                        lambda graph, iota, basis: matching.MatchingReport(False, ["stand-in"]))
    with pytest.raises(AssertionError, match="found matching fails verification.*stand-in"):
        matching.find_matchings(square_l_graph)


def test_find_matchings_respects_limit(torus_graph):
    res = matching.find_matchings(torus_graph, limit=1)
    assert len(res.matchings) == 1


@pytest.mark.parametrize("limit", [0, -1])
def test_find_matchings_rejects_a_limit_below_one(square_l_graph, limit):
    with pytest.raises(ValueError, match=f"limit must be at least 1, got {limit}"):
        matching.find_matchings(square_l_graph, limit=limit)


@pytest.mark.parametrize("deadline", [-1.0, float("nan")])
def test_find_matchings_rejects_a_deadline_below_0_or_nan(square_l_graph, deadline):
    # -1.0 used to return no matching, flagged incomplete, and nan never timed out
    with pytest.raises(ValueError, match=f"^deadline must be at least 0, got {deadline}$"):
        matching.find_matchings(square_l_graph, deadline=deadline)
    matching.find_matchings(square_l_graph, deadline=0.0)  # 0 may stop the search at once


def test_matching_json_round_trip(square_l):
    iota = canonical(square_l)
    again = matching.matching_from_json(matching.matching_to_json(iota))
    assert again == iota


def test_invariant_space_dimensions(torus, square_l, prym):
    for o, dim in [(torus, 2), (square_l, 6), (prym, 10)]:
        g = origami.build_origami_graph(o)
        space = open_polytope(g, canonical(o))
        assert space.dimension == dim


def _dense_rank(space):
    idx = {c: i for i, c in enumerate(space.corners)}
    rows = np.zeros((len(space.eq_rows), len(idx)))
    for r, row in enumerate(space.eq_rows):
        for c, v in row.items():
            rows[r, idx[c]] += v
    return np.linalg.matrix_rank(rows)


def test_orbit_count_dimension_matches_dense_rank(square_l, prym):
    cases = []
    for s in range(1, 5):
        for o in origami.transitive_pairs_up_to_relabeling(s):
            if origami.network(o).geometrically_simple:
                g = origami.build_origami_graph(o)
                cases += [(g, iota) for iota in matching.find_matchings(g).matchings]
    cases.append(surgery.sum_matchings(
        origami.build_origami_graph(square_l), ("f1-", 0), canonical(square_l),
        origami.build_origami_graph(prym), ("f2+", 1), canonical(prym),
    ))
    assert len(cases) >= 10
    for g, iota in cases:
        space = open_polytope(g, iota)
        assert space.dimension == len(space.corners) - _dense_rank(space)


def test_induced_angle_involution_is_involution(square_l, square_l_graph):
    # the corner map induced by equivariance is the matching itself
    sigma = canonical(square_l)
    assert sorted(sigma) == sorted(square_l_graph.half_edges())
    for c, image in sigma.items():
        assert sigma[image] == c


def test_constant_holonomy_on_invariant_angles(square_l, square_l_graph):
    report = check_constant_holonomy(
        square_l_graph, canonical(square_l), samples=20, seed=1
    )
    assert report["ok"]
    assert report["max_deviation"] < 1e-9
    assert report["max_modulus_deviation"] < 1e-9


def test_search_prunes_with_pairing_vectors(prym_graph):
    # on a graph admitting a matching the search must stay exact: every
    # returned matching passes independent verification
    res = matching.find_matchings(prym_graph)
    assert res.complete and res.matchings
    for iota in res.matchings:
        assert matching.verify_matching(prym_graph, iota).ok


def test_the_search_finds_a_matching_on_a_graph_too_deep_for_recursion():
    # 1,040 faces, past the default recursion limit of 1,000
    g = origami.build_origami_graph(staircase_origami(520))
    res = matching.find_matchings(g, limit=1)
    assert res.complete and len(res.matchings) == 1


def test_the_search_backs_up_in_the_order_of_the_backtracking_reference(square_l_graph):
    # with no basis cycle every face fits every face at every offset, so the
    # search must back up past many choices to list 200 matchings
    with mock.patch.object(homology, "_kept_basis", lambda graph: []):
        res = matching.find_matchings(square_l_graph, limit=200)
        _same_matchings(res.matchings, backtracking_matchings(square_l_graph, 200))
    assert len(res.matchings) == 200 and len({tuple(i.items()) for i in res.matchings}) == 200


def _sheared_delaunay_staircase(n, a, b):
    o = staircase_origami(n)
    start = develop.develop(origami.build_origami_graph(o), origami.standard_angles(o))
    periods = {}
    for h, z in start.periods.items():
        x = z.real + a * z.imag
        periods[h] = complex(x, z.imag + b * x)
    return develop.make_delaunay(develop.DevelopedSurface(start.graph, periods))[0].graph


def _same_matchings(got, want):
    assert [list(iota.items()) for iota in got] == [list(iota.items()) for iota in want]


def test_search_returns_what_the_backtracking_reference_returns(square_l, prym):
    simple = 0
    for s in range(1, 6):
        for o in origami.transitive_pairs_up_to_relabeling(s):
            g = origami.build_origami_graph(o)
            # the geometrically simple classes, the ones the sweep searches,
            # also at limit=3
            limits = [None if s <= 4 else 1]
            if origami.network(o).geometrically_simple:
                limits.append(3)
                simple += 1
            for limit in limits:
                res = matching.find_matchings(g, limit=limit)
                assert res.complete
                _same_matchings(res.matchings, backtracking_matchings(g, limit))
    assert simple == 25
    graphs = [_sheared_delaunay_staircase(n, a, b)
              for a, b in ((1.3, 0.4), (2.41, -0.62)) for n in (3, 6, 9)]
    graphs.append(surgery.sum_matchings(
        origami.build_origami_graph(square_l), ("f1-", 0), canonical(square_l),
        origami.build_origami_graph(prym), ("f2+", 1), canonical(prym),
    )[0])
    for g in graphs:
        found = matching.find_matchings(g).matchings
        assert found
        _same_matchings(found, backtracking_matchings(g))
