"""Integer homology: boundaries, cycle bases and the copy kept on the graph, phi, p, and
pairings."""

import pytest

from chain_oracles import (boundary, chain_add, enumerate_simple_cycles, other_side, p_map,
                           pairing_vector)
from isodelaunay import homology, matching, origami, ribbon


def test_boundary_of_single_half_edge(torus_graph):
    h = ("f1-", 0)
    b = boundary(torus_graph, {h: 1})
    edge = torus_graph.edge_of(h)
    assert b == {("E", edge): 1, ("F", "f1-"): -1}


def test_boundary_names_an_unknown_face(torus_graph):
    with pytest.raises(KeyError, match="unknown face 'f9-'"):
        boundary(torus_graph, {("f1-", 0): 1, ("f9-", 2): 1})


def test_boundary_additivity(square_l_graph):
    g = square_l_graph
    hs = g.half_edges()
    a = {hs[0]: 2, hs[4]: -1}
    b = {hs[4]: 1, hs[7]: 3}
    lhs = boundary(g, chain_add(a, b))
    rhs = chain_add(boundary(g, a), boundary(g, b))
    assert lhs == rhs


def test_cycle_basis_rank(torus_graph, square_l_graph, prym_graph, staircase_graph):
    for g, rank in [(torus_graph, 2), (square_l_graph, 4), (prym_graph, 6), (staircase_graph, 7)]:
        basis = homology.cycle_basis(g)
        assert len(basis) == rank
        for alpha in basis:
            assert not boundary(g, alpha)
            assert alpha  # nonzero


def test_cycle_basis_independent_over_q(square_l_graph):
    import numpy as np

    basis = homology.cycle_basis(square_l_graph)
    keys = square_l_graph.half_edges()
    m = np.array([[alpha.get(h, 0) for h in keys] for alpha in basis], dtype=float)
    assert np.linalg.matrix_rank(m) == len(basis)


def test_p_after_phi_is_identity_on_basis(square_l_graph, staircase_graph):
    for g in (square_l_graph, staircase_graph):
        for alpha in homology.cycle_basis(g):
            assert p_map(homology.phi(g, alpha)) == alpha


def test_p_after_phi_on_all_simple_cycles(torus_graph):
    cycles = enumerate_simple_cycles(torus_graph)
    assert cycles, "torus has simple cycles"
    for alpha in cycles:
        assert not boundary(torus_graph, alpha)
        assert p_map(homology.phi(torus_graph, alpha)) == alpha


def test_phi_rejects_non_cycle(torus_graph):
    h = torus_graph.half_edges()[0]
    with pytest.raises(ValueError):
        homology.phi(torus_graph, {h: 1})


def test_phi_names_an_unknown_face(torus_graph):
    with pytest.raises(KeyError, match="unknown face 'f9-'"):
        homology.phi(torus_graph, {("f1-", 0): 1, ("f9-", 2): -1})


def test_phi_output_is_supported_on_corners(square_l_graph):
    corners = set(square_l_graph.half_edges())
    for alpha in homology.cycle_basis(square_l_graph):
        a = homology.phi(square_l_graph, alpha)
        assert set(a) <= corners


def test_pairing_vector_negates_under_other_side(square_l_graph, prym_graph):
    for g in (square_l_graph, prym_graph):
        basis = homology.cycle_basis(g)
        for h in g.half_edges():
            v = pairing_vector(basis, h)
            w = pairing_vector(basis, other_side(g, h))
            assert tuple(-x for x in v) == w


def test_chain_json_round_trip(torus_graph):
    alpha = homology.cycle_basis(torus_graph)[0]
    again = ribbon.he_map_from_json(ribbon.he_map_to_json(alpha, int), int)
    assert again == alpha


def test_enumerate_simple_cycles_are_unique(square_l_graph):
    cycles = enumerate_simple_cycles(square_l_graph)
    as_sets = [tuple(sorted(c.items())) for c in cycles]
    assert len(as_sets) == len(set(as_sets))


def test_a_caller_cannot_change_the_basis_kept_on_the_graph(square_l):
    g = origami.build_origami_graph(square_l)
    iota = origami.canonical_matching(square_l)
    for _ in range(2):  # the call that builds the basis, then one that finds it kept
        basis = homology.cycle_basis(g)
        basis[0][next(iter(basis[0]))] += 1
        basis.pop()
        basis.append({("f1+", 0): 1, ("f1-", 0): 1})
    fresh = homology.cycle_basis(ribbon.TriRibbonGraph(g.edges, g.faces))
    assert [list(a.items()) for a in homology.cycle_basis(g)] == [list(a.items()) for a in fresh]
    assert matching.find_matchings(g).matchings == [iota]
    assert matching.verify_matching(g, iota).ok


def test_cycle_basis_certificate_survives_python_O(run_optimized):
    # the walk reads the graph's mate table, which the constructor built;
    # three corruptions of that table, each caught by one check of the walk.
    # Under -O a bare assert (skipped here) would let the basis through
    setup = ("from isodelaunay import homology, origami\n"
             "assert False, 'not run under -O'\n"
             "g = origami.build_origami_graph(origami.Origami.from_spec('h=(12);v=(13)'))\n")
    # ('f1+', 1) (rank 1) claims the mate of ('f1+', 0): the first cycle's
    # mates disagree
    last = run_optimized(setup + "g._mate[1] = g._mate[0]\nhomology.cycle_basis(g)\n")
    assert last == ("AssertionError: basis cycle through ('f1+', 0) "
                    "has nonzero boundary (implementation fault)")
    # ('f1+', 2) claims ('f1-', 0) (rank 3), whose own mate is left alone:
    # the two-slot check catches the first cycle
    last = run_optimized(setup + "g._mate[2] = 3\nhomology.cycle_basis(g)\n")
    assert last == ("AssertionError: basis cycle through ('f1+', 0) does not meet face "
                    "'f1+' at two slots of opposite sign (implementation fault)")
    # ('f3-', 1) (rank 16) claims the later rank 17, so the walk never reads
    # its edge with rank 14 as a cycle: each cycle passes its own checks,
    # and only the count catches the basis of 3 cycles for rank 4
    last = run_optimized(setup + "g._mate[16] = 17\nhomology.cycle_basis(g)\n")
    assert last == ("AssertionError: basis has 3 cycles, not E - F + 1 = 4 "
                    "(implementation fault)")
