"""Convex angle region: polytope construction, certified optimum, sampling."""

import dataclasses
import math

import pytest

from delaunay_oracles import circumcircle_cross_check, delaunay_sum, in_delaunay_region
from isodelaunay import angles, homology, origami, region, surgery
from region_oracles import (dense_sample, generic_sample, open_polytope, point_polytope,
                            reflected_face, wide_row_polytope)


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
    poly = region.RegionPolytope([c], [{c: 1.0}], [1.0], [{c: 1.0}], [0.0], 0, {c: 0})
    with pytest.raises(RuntimeError, match="certificate: equality residual"):
        region.analyze(poly)
    with pytest.raises(RuntimeError, match="certificate"):
        region.sample(poly, 3)


def test_analyze_refuses_an_uncertified_point():
    c = ("f", 0)
    # x = 1 and x > 0 is feasible, but the equilateral point misses the equality
    poly = region.RegionPolytope([c], [{c: 1.0}], [1.0], [{c: -1.0}], [0.0], 0, {c: 0})
    with pytest.raises(RuntimeError, match="certificate"):
        region.analyze(poly)
    with pytest.raises(RuntimeError, match="certificate"):
        region.sample(poly, 3)
    # x = pi/3 and x < 2: the point is inside, but its slack is not pi/3
    poly = region.RegionPolytope([c], [{c: 1.0}], [math.pi / 3], [{c: 1.0}], [2.0], 0, {c: 0})
    with pytest.raises(RuntimeError, match="certificate"):
        region.analyze(poly)


def test_analyze_then_sample_matches_a_fresh_polytope(square_l):
    expected = region.sample(build(square_l)[1], 5, seed=7)
    _, poly = build(square_l)
    report = region.analyze(poly)
    assert region.sample(poly, 5, seed=7) == expected
    # each report owns its interior point
    report.interior_point.clear()
    assert region.analyze(poly).interior_point


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


def test_a_face_with_paired_corners_is_a_line():
    poly = reflected_face()
    (orbits, (u0, u1), rows, wide), = region._blocks(poly)
    assert orbits == (0, 1) and not any(u1)
    # two positivity rows, each of one term, padded with the spare orbit 2
    assert not wide and sorted(row[3:] for row in rows) == [
        (0, -1.0, 2, 0.0), (1, -1.0, 2, 0.0)]
    assert abs(u0[0] + 2 * u0[1]) < 1e-15
    pts = region.sample(poly, 400, seed=2)
    for t in pts:
        assert t[("f", 1)] == t[("f", 2)]
        assert poly.slack(t) >= region.MARGIN
        assert poly.equality_residual(t) <= 1e-14
    # theta1 is uniform on (0, pi/2): mean pi/4, and both ends are reached
    ys = [t[("f", 1)] for t in pts]
    assert abs(sum(ys) / len(ys) - math.pi / 4) < 0.1
    assert min(ys) < 0.1 and max(ys) > math.pi / 2 - 0.1


def test_a_zero_dimensional_polytope_repeats_its_point():
    assert region.sample(point_polytope(), 3, seed=4) == [{("f", 0): math.pi / 3}] * 3


def test_a_row_of_three_terms_is_read_through_the_generic_loop():
    poly = wide_row_polytope()
    # the row touches both blocks, and each keeps it whole
    assert [[terms for *_, terms in wide] for *_, wide in region._blocks(poly)] == [
        [((0, 1.0), (1, 1.0), (3, 2.0))]] * 2
    pts = region.sample(poly, 200, seed=6)
    assert pts == generic_sample(poly, 200, seed=6)
    # the walk reaches the row's wall, so the generic loop bounds some chords
    lhs = [t[("f", 0)] + t[("f", 1)] + 2 * t[("g", 0)] for t in pts]
    assert max(lhs) > 1.6 * math.pi and all(poly.slack(t) >= region.MARGIN for t in pts)


@pytest.mark.parametrize("n", [-1, -7])
def test_a_negative_sample_count_is_refused(square_l, n):
    _, poly = build(square_l)
    with pytest.raises(ValueError, match=f"sample count must be at least 0, got {n}"):
        region.sample(poly, n)


def test_blocks_that_miss_the_dimension_are_refused(run_optimized):
    with pytest.raises(AssertionError, match="face-orbit blocks of total null dimension 2"):
        region.sample(dataclasses.replace(reflected_face(), dimension=2), 1)
    # the certificate is no assert statement, so it holds under python -O too
    assert run_optimized(
        "import math\n"
        "from isodelaunay import region\n"
        "a, b, c = ('f', 0), ('f', 1), ('f', 2)\n"
        "poly = region.RegionPolytope([a, b, c], [{a: 1, b: 1, c: 1}, {b: 1, c: -1}],\n"
        "    [math.pi, 0.0], [{a: -1.0}, {b: -1.0}, {c: -1.0}], [0.0] * 3, 2, {a: 0, b: 1, c: 1})\n"
        "region.sample(poly, 1)"
    ).startswith("AssertionError: equality rows do not split")
