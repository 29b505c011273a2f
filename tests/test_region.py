"""Convex angle region: polytope construction, certified optimum, sampling."""

import math

import numpy as np
import pytest

from delaunay_oracles import circumcircle_cross_check, delaunay_sum, in_delaunay_region
from isodelaunay import angles, homology, origami, region, surgery
from region_oracles import open_polytope


def build(o):
    g = origami.build_origami_graph(o)
    iota = origami.canonical_matching(o)
    return g, region.build_polytope(g, iota)


def test_opposite_corner(torus_graph):
    # the corner across the triangle from a half-edge
    assert region.opposite_corner(torus_graph, ("f1-", 0)) == ("f1-", 1)
    assert region.opposite_corner(torus_graph, ("f1-", 2)) == ("f1-", 0)


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
             (*_glued_sum(), 1703833409)]
    for g, iota, seed in cases:
        pts = region.sample(region.build_polytope(g, iota), 20, seed=seed)
        assert len(pts) == 20
        for t in pts:
            assert all(t[c] == t[iota[c]] for c in t)


def test_holonomy_is_constant_across_samples_of_a_thin_region():
    g, iota = _glued_sum()
    basis = homology.cycle_basis(g)
    values = [[angles.holonomy(g, t, a).value for a in basis]
              for t in region.sample(region.build_polytope(g, iota), 20, seed=1703833409)]
    assert len(values) == 20
    dev = max(abs(v - w) for row in values for v, w in zip(row, values[0]))
    assert dev <= 1e-9


def _chord_loop(room, g_dir):
    # the row-by-row reference for region._chord
    lo, hi = -np.inf, np.inf
    for gd, r in zip(g_dir, room):
        if gd > 1e-14:
            hi = min(hi, r / gd)
        elif gd < -1e-14:
            lo = max(lo, r / gd)
    return lo, hi


def test_chord_bounds_match_the_row_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    cases = [(np.zeros(0), np.zeros(0)), (np.ones(4), np.zeros(4)),
             (np.ones(3), np.array([1e-14, -1e-14, 2e-14]))]
    for _ in range(200):
        n = int(rng.integers(1, 40))
        g_dir = rng.standard_normal(n) * 10.0 ** rng.integers(-16, 2, n)
        g_dir[rng.random(n) < 0.2] = 0.0
        cases.append((rng.random(n) * 4.0 - 0.5, g_dir))
    for room, g_dir in cases:
        with np.errstate(all="raise"):
            got = region._chord(room, g_dir)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in _chord_loop(room, g_dir)]
