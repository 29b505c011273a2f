"""Convex angle region: polytope construction, certified optimum, sampling."""

import dataclasses
import math
import random
import re

import pytest

from delaunay_oracles import circumcircle_cross_check, delaunay_sum, in_delaunay_region
from isodelaunay import angles, homology, matching, origami, region, ribbon, surgery
from region_oracles import (dense_sample, generic_collapse, null_basis, open_polytope,
                            plane_and_point_polytope, plane_with_a_row_inside, point_polytope,
                            wide_row_polytope)


def build(o):
    g = origami.build_origami_graph(o)
    iota = origami.canonical_matching(o)
    return g, region.build_polytope(g, iota)


def test_opposite_corner():
    # the corner across the triangle from a half-edge
    assert region.opposite_corner(("f1-", 0)) == ("f1-", 1)
    assert region.opposite_corner(("f1-", 2)) == ("f1-", 0)


def test_delaunay_sum_equilateral(square_l, square_l_graph):
    theta = origami.equilateral_angles(square_l)
    for e in square_l_graph.edges:
        assert abs(delaunay_sum(square_l_graph, theta, e) - 2 * math.pi / 3) < 1e-12
    assert in_delaunay_region(square_l_graph, theta)


def test_standard_angles_on_delaunay_boundary(square_l, square_l_graph):
    # diagonals of squares are cocircular: sum exactly pi, outside the open region
    theta = origami.standard_angles(square_l)
    sums = [delaunay_sum(square_l_graph, theta, e) for e in square_l_graph.edges]
    assert any(abs(s - math.pi) < 1e-12 for s in sums)
    assert not in_delaunay_region(square_l_graph, theta)


def test_analyze_feasible_dimensions(torus, square_l, prym):
    for o, dim in [(torus, 2), (square_l, 6), (prym, 10)]:
        _, poly = build(o)
        report = region.analyze(poly)
        assert report.feasible
        assert report.dimension == dim
        assert report.slack > 0
        assert poly.slack(report.interior_point) > 0
        assert poly.equality_residual(report.interior_point) < 1e-9


def test_equilateral_point_maximizes_slack(square_l):
    g, poly = build(square_l)
    report = region.analyze(poly)
    theta = origami.equilateral_angles(square_l)
    assert abs(report.slack - math.pi / 3) < 1e-9
    assert poly.slack(theta) >= report.slack - 1e-9


def test_samples_satisfy_all_constraints(square_l):
    g, poly = build(square_l)
    pts = region.sample(poly, 25, seed=3)
    assert len(pts) == 25
    for theta in pts:
        angles.validate_angles(g, theta)
        assert poly.slack(theta) > 0
        assert poly.equality_residual(theta) < 1e-9
        assert in_delaunay_region(g, theta)


def test_sampling_is_deterministic(square_l):
    _, poly = build(square_l)
    a = region.sample(poly, 5, seed=7)
    b = region.sample(poly, 5, seed=7)
    assert a == b
    c = region.sample(poly, 5, seed=8)
    assert a != c


def test_positivity_only_polytope_is_larger(square_l):
    g, full = build(square_l)
    open_poly = open_polytope(g, origami.canonical_matching(square_l))
    assert len(open_poly.ineq_rows) < len(full.ineq_rows)
    assert region.analyze(open_poly).slack >= region.analyze(full).slack - 1e-12


def test_midpoint_stays_inside(square_l):
    g, poly = build(square_l)
    pts = region.sample(poly, 20, seed=11)
    for a, b in zip(pts[::2], pts[1::2]):
        mid = {c: (a[c] + b[c]) / 2 for c in a}
        assert poly.slack(mid) > 0
        assert in_delaunay_region(g, mid)


def test_circumcircle_cross_check_agreement():
    # (A, B, C, D): ccw triangle ABC sharing edge BC with D across the line
    far = (0.3 + 1.2j, 0 + 0j, 1 + 0j, 0.5 - 2j)  # D outside the circumcircle
    report = circumcircle_cross_check(far)
    assert not report["degenerate"]
    assert report["in_circle_outside"] and report["angle_sum"] < math.pi
    assert report["agree"]

    near = (0.3 + 1.2j, 0 + 0j, 1 + 0j, 0.5 - 0.05j)  # D inside the circumcircle
    report = circumcircle_cross_check(near)
    assert not report["degenerate"]
    assert not report["in_circle_outside"] and report["angle_sum"] > math.pi
    assert report["agree"]


def test_circumcircle_cross_check_cocircular():
    # four concyclic points around the circle through (0,0), (1,0), (0,1)
    d = 0.5 + (0.5 - math.sqrt(0.5)) * 1j
    report = circumcircle_cross_check((0 + 1j, 0 + 0j, 1 + 0j, d))
    assert report["degenerate"]


def test_infeasible_polytope_reports_and_refuses_to_sample():
    # one corner with x = 1 and x < 0: the equalities and inequalities conflict,
    # so the equilateral point fails its certificate in analyze and in sample
    c = ("f", 0)
    poly = region.RegionPolytope([c], [{c: 1.0}], [1.0], [{c: 1.0}], [0.0], {c: 0}, [])
    for _ in range(2):  # a failed certificate is not kept
        with pytest.raises(RuntimeError, match="certificate: equality residual"):
            region.analyze(poly)
        with pytest.raises(RuntimeError, match="certificate"):
            region.sample(poly, 3)


def test_analyze_refuses_an_uncertified_point():
    c = ("f", 0)
    # x = 1 and x > 0 is feasible, but the equilateral point misses the equality
    poly = region.RegionPolytope([c], [{c: 1.0}], [1.0], [{c: -1.0}], [0.0], {c: 0}, [])
    for _ in range(2):  # a failed certificate is not kept
        with pytest.raises(RuntimeError, match="certificate"):
            region.analyze(poly)
        with pytest.raises(RuntimeError, match="certificate"):
            region.sample(poly, 3)
    # x = pi/3 and x < 2: the point is inside, but its slack is not pi/3
    poly = region.RegionPolytope([c], [{c: 1.0}], [math.pi / 3], [{c: 1.0}], [2.0], {c: 0}, [])
    for _ in range(2):
        with pytest.raises(RuntimeError, match="certificate"):
            region.analyze(poly)
        with pytest.raises(RuntimeError, match="certificate"):
            region.sample(poly, 3)


def test_analyze_then_sample_matches_a_fresh_polytope(square_l):
    expected = region.sample(build(square_l)[1], 5, seed=7)
    _, poly = build(square_l)
    report = region.analyze(poly)
    assert region.sample(poly, 5, seed=7) == expected
    # each report owns its interior point
    report.interior_point.clear()
    assert region.analyze(poly).interior_point


def test_analyze_then_sample_certify_the_optimum_once(square_l, monkeypatch):
    calls = []
    residual = region.RegionPolytope.equality_residual
    monkeypatch.setattr(region.RegionPolytope, "equality_residual",
                        lambda poly, theta: calls.append(theta) or residual(poly, theta))
    _, poly = build(square_l)
    fresh = build(square_l)[1]
    report = region.analyze(poly)
    samples = region.sample(poly, 5, seed=7)
    assert len(calls) == 1
    assert region.sample(poly, 5, seed=7) == samples and region.analyze(poly) == report
    assert len(calls) == 1
    # the kept certificate is no part of the polytope's value, and every
    # call hands out its own point
    assert poly == fresh and repr(poly) == repr(fresh)
    theta, slack = poly.optimum
    theta.clear()
    assert poly.optimum == (report.interior_point, report.slack) and len(calls) == 1


# rows of one and two terms over four corners in two orbits, so that terms
# often share an orbit, with coefficients that cancel, -0.0 and ints
_COEFFS = [1, -1, 2, 0, 1.0, -1.0, 2.0, 0.5, -0.5, 0.0, -0.0, 0.1, 0.2, -0.3, 1e-300, -1e-300]


def test_collapse_equals_the_dict_and_sort_collapse():
    # the two agree but for terms whose coefficient is 0, which _collapse
    # keeps (the walk reads their rates as 0.0) and the dict collapse drops
    rng = random.Random(11)
    orbit_of = {("f", 0): 1, ("f", 1): 0, ("f", 2): 1, ("g", 0): 0}
    corners = list(orbit_of)
    shapes = set()
    for _ in range(3000):
        row = {c: rng.choice(_COEFFS) for c in rng.sample(corners, rng.randint(1, 2))}
        got, want = region._collapse(row, orbit_of), generic_collapse(row, orbit_of)
        # repr tells -0.0 from 0.0 and 1 from 1.0
        assert repr(tuple(t for t in got if t[1] != 0)) == repr(want), row
        assert [o for o, _ in got] == sorted({orbit_of[c] for c in row}), row
        shapes.add((len(row), len(want), len(got)))
    assert shapes == {(1, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, 1), (2, 0, 2), (2, 1, 2), (2, 2, 2)}
    # a row of three terms is refused, even where it would collapse to fewer
    with pytest.raises(ValueError, match="has more than two terms"):
        region._collapse(dict.fromkeys(corners[:3], 1.0), orbit_of)


# a seed at which a sample of the glued sum below comes within 1e-4 of an
# angle of 0, so the thin-region tests walk next to a wall
THIN_SEED = 230


def _glued_sum():
    # region_pipeline seed 3, input 15: a sample of this sum once had a least
    # angle of 3.5e-6, where drift off the orbit equalities moved the holonomy
    parts = [origami.Origami.from_spec(spec)
             for spec in ("h=(1,2,4)(3,6);v=(2,5,6)", "h=(1,2)(3,6,4);v=(2,4)(3,5)")]
    (gl, il), (gr, ir) = [(origami.build_origami_graph(o), origami.canonical_matching(o))
                          for o in parts]
    return surgery.sum_matchings(gl, ("f4-", 2), il, gr, ("f6-", 0), ir)


def test_samples_are_exactly_invariant(square_l, square_l_graph):
    cases = [(square_l_graph, origami.canonical_matching(square_l), 3),
             (*_glued_sum(), THIN_SEED)]
    for g, iota, seed in cases:
        pts = region.sample(region.build_polytope(g, iota), 20, seed=seed)
        assert len(pts) == 20
        for t in pts:
            assert all(t[c] == t[iota[c]] for c in t)
    assert min(min(t.values()) for t in pts) < 1e-4


def test_holonomy_is_constant_across_samples_of_a_thin_region():
    g, iota = _glued_sum()
    basis = homology.cycle_basis(g)
    values = [[angles.holonomy(g, t, a).value for a in basis]
              for t in region.sample(region.build_polytope(g, iota), 20, seed=THIN_SEED)]
    assert len(values) == 20
    dev = max(abs(v - w) for row in values for v, w in zip(row, values[0]))
    assert dev <= 1e-9


def _batch_means(values, batches):
    """The mean of ``values`` and its squared standard error, from
    ``batches`` means of consecutive values."""
    k = len(values) // batches
    means = [sum(values[i * k:(i + 1) * k]) / k for i in range(batches)]
    mean = sum(means) / batches
    return mean, sum((m - mean) ** 2 for m in means) / (batches - 1) / batches


def test_block_walk_agrees_with_the_dense_walk(square_l, prym):
    # per corner, the mean of theta and of (theta - pi/3)^2 over 1500 samples
    # of each walk, in 30 batches of 50; the dense walk moves all variables
    # at once, so agreement checks the block walk's stationary law.  The
    # second moment catches a walk that keeps only the middle half of each
    # chord (z of 14 at this seed), which the means alone miss
    for o in (square_l, prym):
        poly = region.build_polytope(origami.build_origami_graph(o), origami.canonical_matching(o))
        walks = region.sample(poly, 1500, seed=5), dense_sample(poly, 1500, seed=5)
        z = []
        for c in poly.corners:
            for f in (lambda x: x, lambda x: (x - math.pi / 3) ** 2):
                (m1, v1), (m2, v2) = (_batch_means([f(t[c]) for t in w], 30) for w in walks)
                z.append(abs(m1 - m2) / math.sqrt(v1 + v2))
        assert max(z) < 4.5


def test_a_row_of_three_terms_is_refused():
    row = "{('f', 0): 1.0, ('f', 1): 1.0, ('g', 0): 2.0}"
    for call in (region._blocks, lambda poly: region.sample(poly, 200, seed=6)):
        with pytest.raises(ValueError, match=re.escape(f"row {row} has more than two terms")):
            call(wide_row_polytope())


@pytest.mark.parametrize("make, message", [
    (point_polytope, "polytope has no plane to walk"),
    (plane_and_point_polytope, "orbit 3 lies in no plane"),
    (plane_with_a_row_inside,
     f"row ((1, 1.0), (2, -1.0)) < {math.pi / 3!r} has two terms in the plane (0, 1, 2)"),
], ids=["point_polytope", "plane_and_point_polytope", "plane_with_a_row_inside"])
def test_a_polytope_that_no_matching_makes_is_refused(make, message):
    # build_polytope's lemma: a matching's polytope has a plane for every
    # face orbit and no row of two terms in one plane, so the walk refuses
    # a hand-built polytope without a plane, with an orbit that no plane
    # holds, or with such a row
    poly = make()
    for call in (region._blocks, lambda p: region.sample(p, 3, seed=8)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(poly)


def test_a_triangle_between_three_looped_branches_has_no_matching():
    # lemma (a) and (b): the edges of face c are bridges, each to a face with
    # boundary (e, a, a), so every cycle is 0 on c and no matching exists
    g = ribbon.TriRibbonGraph(
        ["e0", "e1", "e2", "a0", "a1", "a2"],
        [("c", ("e0", "e1", "e2"))] + [(f"b{i}", (f"e{i}", f"a{i}", f"a{i}")) for i in range(3)])
    assert [surgery.is_nonseparating(g, ("c", s)) for s in range(3)] == [False] * 3
    assert all(not alpha.get(("c", s)) for alpha in homology.cycle_basis(g) for s in range(3))
    res = matching.find_matchings(g)
    assert res.matchings == [] and res.complete


def test_a_face_rotated_onto_itself_is_an_implementation_fault(square_l_graph, monkeypatch):
    # lemma (a): a map that rotates a face onto itself fails verify_matching;
    # were one to pass it, build_polytope would refuse the face's triple
    g = square_l_graph
    f = g.face_ids[0]
    rotated = {h: (h[0], (h[1] + 1) % 3) if h[0] == f else h for h in g.half_edges()}
    assert not matching.verify_matching(g, rotated)
    monkeypatch.setattr(matching, "verify_matching", lambda *_: matching.MatchingReport(True))
    with pytest.raises(AssertionError, match=r"repeats an orbit \(implementation fault\)"):
        region.build_polytope(g, rotated)


@pytest.mark.parametrize("n", [-1, -7])
def test_a_negative_sample_count_is_refused(square_l, n):
    _, poly = build(square_l)
    with pytest.raises(ValueError, match=f"sample count must be at least 0, got {n}"):
        region.sample(poly, n)


def test_the_plane_basis_is_the_gram_schmidt_of_the_unit_vectors():
    # the literal keeps the rounding residue of Gram-Schmidt to the bit
    assert [[x.hex() for x in u] for u in region._PLANE] == [
        [x.hex() for x in u] for u in null_basis([1, 1, 1])]
    assert region._PLANE[1][0] == float.fromhex("-0x1.c48c6001f0abfp-52")


def test_n_vars_counts_the_corner_variables(square_l):
    g, poly = build(square_l)
    assert poly.n_vars == len(poly.corners) == 3 * len(g.faces) == 18


def test_no_samples_are_no_samples(square_l):
    _, poly = build(square_l)
    assert region.sample(poly, 0, seed=1) == []
    assert region.sample(point_polytope(), 0) == []


def test_a_row_that_collapses_to_nothing_is_left_out_of_the_walk(square_l):
    # theta(c) - theta(iota(c)) < pi is 0 theta(o) < pi in orbit coordinates,
    # a term whose rates are 0.0, so no step reads it
    _, poly = build(square_l)
    c = poly.corners[0]
    partner = next(k for k in poly.corners if k != c and poly.orbit_of[k] == poly.orbit_of[c])
    wider = dataclasses.replace(poly, ineq_rows=poly.ineq_rows + [{c: 1.0, partner: -1.0}],
                                ineq_rhs=poly.ineq_rhs + [math.pi])
    assert region._collapse(wider.ineq_rows[-1], poly.orbit_of) == ((poly.orbit_of[c], 0.0),)
    assert region.sample(wider, 5, seed=4) == region.sample(poly, 5, seed=4)
