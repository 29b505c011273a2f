"""Developing angles into flat surfaces, Delaunay checks, and flips."""

import json
import math

import pytest

from chain_oracles import occurrences
from delaunay_oracles import area, flip_edge, flip_rebuilding_the_graph, in_delaunay_region
from isodelaunay import develop, origami
from isodelaunay.ribbon import TriRibbonGraph
from origami_oracles import staircase_origami


def _sheared(surface, t):
    """The surface under (x, y) -> (x + t y, y)."""
    periods = {h: complex(z.real + t * z.imag, z.imag) for h, z in surface.periods.items()}
    return develop.DevelopedSurface(surface.graph, periods)


def scaled(surface, sx, sy):
    periods = {
        h: complex(p.real * sx, p.imag * sy) for h, p in surface.periods.items()
    }
    return develop.DevelopedSurface(surface.graph, periods)


def test_develop_round_trip_angles(square_l, square_l_graph):
    for theta in (origami.standard_angles(square_l), origami.equilateral_angles(square_l)):
        surface = develop.develop(square_l_graph, theta)
        back = develop.angles_of(surface)
        assert max(abs(back[c] - theta[c]) for c in theta) < 1e-9


def test_develop_periods_close_up_triangles(prym, prym_graph):
    surface = develop.develop(prym_graph, origami.standard_angles(prym))
    for f in prym_graph.face_ids:
        total = sum(surface.periods[(f, s)] for s in range(3))
        assert abs(total) < 1e-12 * surface.scale()


def test_develop_is_normalized(torus, torus_graph):
    surface = develop.develop(torus_graph, origami.equilateral_angles(torus))
    base = min(torus_graph.half_edges())
    assert abs(surface.periods[base] - 1.0) < 1e-12


def test_develop_rejects_nontrivial_holonomy(torus_graph):
    theta = {
        ("f1-", 0): 0.9,
        ("f1-", 1): 1.1,
        ("f1-", 2): math.pi - 2.0,
        ("f1+", 0): 0.7,
        ("f1+", 1): 1.4,
        ("f1+", 2): math.pi - 2.1,
    }
    with pytest.raises(develop.HolonomyObstruction):
        develop.develop(torus_graph, theta)


BAD_TOLERANCES = [math.nan, math.inf, -1.0]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_develop_refuses_a_tolerance_that_is_not_finite_and_at_least_0(tol, square_l,
                                                                     square_l_graph):
    # one face's angles moved by +-0.1: the holonomy is not trivial, which a
    # NaN tolerance would let through
    theta = origami.standard_angles(square_l)
    theta[("f1-", 0)] += 0.1
    theta[("f1-", 1)] -= 0.1
    with pytest.raises(develop.HolonomyObstruction, match="at edge 'd2'"):
        develop.develop(square_l_graph, theta)
    with pytest.raises(ValueError, match=f"^tol must be a finite number at least 0, got {tol}$"):
        develop.develop(square_l_graph, theta, tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_make_delaunay_refuses_a_tolerance_that_is_not_finite_and_at_least_0(tol, torus,
                                                                            torus_graph):
    # a NaN tolerance would make no flip on this surface, which needs one,
    # and a negative one would flip until the cap
    surface = scaled(develop.develop(torus_graph, origami.standard_angles(torus)), 1.0, 0.5)
    with pytest.raises(ValueError, match=f"^tol must be a finite number at least 0, got {tol}$"):
        develop.make_delaunay(surface, tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_is_geometric_delaunay_refuses_a_tolerance_that_is_not_finite_and_at_least_0(
        tol, square_l, square_l_graph):
    surface = develop.develop(square_l_graph, origami.equilateral_angles(square_l))
    with pytest.raises(ValueError, match=f"^tol must be a finite number at least 0, got {tol}$"):
        develop.is_geometric_delaunay(surface, tol=tol)


def test_surface_json_round_trip(square_l, square_l_graph):
    surface = develop.develop(square_l_graph, origami.equilateral_angles(square_l))
    again = develop.DevelopedSurface.from_json(json.loads(json.dumps(surface.to_json())))
    again.check()
    assert again.graph.to_json() == surface.graph.to_json()
    assert max(abs(again.periods[h] - surface.periods[h]) for h in surface.periods) == 0


def test_geometric_delaunay_equilateral(square_l, square_l_graph):
    surface = develop.develop(square_l_graph, origami.equilateral_angles(square_l))
    assert develop.is_geometric_delaunay(surface)


def test_geometric_delaunay_degenerate_squares(square_l, square_l_graph):
    surface = develop.develop(square_l_graph, origami.standard_angles(square_l))
    with pytest.raises(develop.DegenerateTriangleError):
        develop.is_geometric_delaunay(surface)


def test_stretched_torus_is_delaunay(torus, torus_graph):
    surface = develop.develop(torus_graph, origami.standard_angles(torus))
    tall = scaled(surface, 1.0, 2.0)
    tall.check()
    assert develop.is_geometric_delaunay(tall)


def test_flip_is_an_involution(torus, torus_graph):
    surface = scaled(develop.develop(torus_graph, origami.standard_angles(torus)), 1.0, 2.0)
    flipped = flip_edge(surface, "d1")
    flipped.check()
    assert abs(area(flipped) - area(surface)) < 1e-12
    back = flip_edge(flipped, "d1")
    back.check()
    assert sorted(back.graph.edges) == sorted(surface.graph.edges)
    assert abs(area(back) - area(surface)) < 1e-12
    # same triangles again, up to matching faces by period multisets
    def shape(s):
        return sorted(
            tuple(sorted(round(abs(s.periods[(f, k)]), 9) for k in range(3)))
            for f in s.graph.face_ids
        )
    assert shape(back) == shape(surface)


def test_flip_requires_convex_quad(square_l, square_l_graph):
    # invariant angles, equilateral but for f1-/f1+ at (pi/12, pi/12, 5 pi/6):
    # the quadrilateral around l1 has a reflex corner of 7 pi/6
    theta = origami.equilateral_angles(square_l)
    theta.update({("f1+", 0): math.pi / 12, ("f1-", 2): math.pi / 12,
                  ("f1+", 1): math.pi / 12, ("f1-", 0): math.pi / 12,
                  ("f1+", 2): 5 * math.pi / 6, ("f1-", 1): 5 * math.pi / 6})
    surface = develop.develop(square_l_graph, theta)
    with pytest.raises(ValueError, match="convex"):
        flip_edge(surface, "l1")


def _hex_periods(surface):
    return [(h, z.real.hex(), z.imag.hex()) for h, z in surface.periods.items()]


def _kernel_occurrences(tri):
    # each edge's two occurrence ranks as the half-edges they stand for
    return [[(tri.ids[r // 3], r % 3) for r in ranks] for ranks in tri.occ]


def _assert_same_flip(got, want, tri=None):
    assert got.graph.faces == want.graph.faces
    if tri is not None:
        assert _kernel_occurrences(tri) == [occurrences(want.graph, e) for e in want.graph.edges]
    assert _hex_periods(got) == _hex_periods(want)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_the_flip_kernel_matches_the_rebuilding_reference_on_every_edge(s):
    # every origami with s squares under a shear by 2.5; on the 1-square
    # torus (3 edges on 2 faces) two sides of every quadrilateral are one edge.
    # Each flippable edge is flipped alone, and then every flippable edge in
    # turn on one triangulation, whose ranks are checked after each flip
    flipped = chained = 0
    for o in origami.transitive_pairs_up_to_relabeling(s):
        g = origami.build_origami_graph(o)
        surface = _sheared(develop.develop(g, origami.standard_angles(o)), 2.5)
        tri, running = develop._Triangulation(surface), surface
        for k, e in enumerate(g.edges):
            try:
                got = flip_edge(surface, e)
            except ValueError:
                with pytest.raises(AssertionError):
                    flip_rebuilding_the_graph(surface, e)
            else:
                _assert_same_flip(got, flip_rebuilding_the_graph(surface, e))
                flipped += 1
            try:
                tri.flip(k)
            except ValueError:
                with pytest.raises(AssertionError):
                    flip_rebuilding_the_graph(running, e)
            else:
                running = flip_rebuilding_the_graph(running, e)
                _assert_same_flip(tri.surface(), running, tri)
                chained += 1
    assert flipped >= 2 * s and chained >= 2 * s


def test_make_delaunay_flips_to_optimum(torus, torus_graph):
    surface = scaled(develop.develop(torus_graph, origami.standard_angles(torus)), 1.0, 0.5)
    result, flips, degenerate = develop.make_delaunay(surface)
    assert flips == ["d1"]
    assert degenerate == []
    assert develop.is_geometric_delaunay(result)
    assert abs(area(result) - area(surface)) < 1e-12


def test_make_delaunay_raises_past_its_flip_cap(torus, torus_graph, monkeypatch):
    surface = develop.develop(torus_graph, origami.standard_angles(torus))

    def sheared(t):
        return develop.DevelopedSurface(
            torus_graph, {h: complex(p.real + t * p.imag, p.imag) for h, p in surface.periods.items()}
        )

    assert [len(develop.make_delaunay(sheared(t))[1]) for t in (3.5, 20.5)] == [2, 10]
    monkeypatch.setattr(develop, "MAX_FLIPS", 1)
    # two flips per edge, 6 on the torus's 3 edges, where that is more than MAX_FLIPS
    assert len(develop.make_delaunay(sheared(3.5))[1]) == 2
    with pytest.raises(develop.FlipCapError, match="after 6 flips"):
        develop.make_delaunay(sheared(20.5))


def _sheared_staircase(n, t):
    o = staircase_origami(n)
    return _sheared(develop.develop(origami.build_origami_graph(o), origami.standard_angles(o)), t)


def test_the_flip_cap_grows_with_the_edges():
    # 1,152 edges: 1,536 flips pass a cap of 2,304, where a fixed 1,000 refused them
    sheared = _sheared_staircase(384, 7.5)
    assert len(sheared.graph.edges) == 1152
    flipped, flips, degenerate = develop.make_delaunay(sheared)
    assert len(flips) == 1536 and degenerate == []
    assert develop.is_geometric_delaunay(flipped)
    # 288 edges allow 576 flips, so the cap stays 1,000, short of the 1,248 needed
    with pytest.raises(develop.FlipCapError, match="after 1000 flips"):
        develop.make_delaunay(_sheared_staircase(96, 25.3))


def _hex_angles(surface):
    return [(c, a.hex()) for c, a in develop.angles_of(surface).items()]


def test_the_surface_make_delaunay_returns_keeps_the_angles_a_fresh_copy_solves():
    for n, t in ((3, 1.3), (6, 2.41), (12, 3.5), (24, 1.7), (48, 5.2)):
        flipped, flips, _ = develop.make_delaunay(_sheared_staircase(n, t))
        assert flips
        fresh = develop.DevelopedSurface(flipped.graph, dict(flipped.periods))
        # the kept angles are no part of the surface's value, its repr or its JSON
        assert flipped._angles is not None and fresh._angles is None
        assert flipped == fresh and repr(flipped) == repr(fresh)
        assert flipped.to_json() == fresh.to_json()
        assert _hex_angles(flipped) == _hex_angles(fresh)
        assert develop.is_geometric_delaunay(flipped) and develop.is_geometric_delaunay(fresh)


def test_make_delaunay_idempotent_on_delaunay_input(square_l, square_l_graph):
    surface = develop.develop(square_l_graph, origami.equilateral_angles(square_l))
    result, flips, degenerate = develop.make_delaunay(surface)
    assert flips == [] and degenerate == []


def test_delaunay_angles_match_region_membership(square_l, square_l_graph):
    surface = develop.develop(square_l_graph, origami.equilateral_angles(square_l))
    theta = develop.angles_of(surface)
    assert in_delaunay_region(square_l_graph, theta)


def test_to_svg(square_l, square_l_graph):
    surface = develop.develop(square_l_graph, origami.equilateral_angles(square_l))
    text = develop.to_svg(surface)
    assert text.startswith("<svg") and "polygon" in text and text.endswith("</svg>")


def test_in_circle_disagreement_survives_python_O(run_optimized):
    # a sign error planted in the in-circle determinant contradicts the
    # angle criterion at every edge of the equilateral L
    last = run_optimized(
        "from isodelaunay import develop, origami\n"
        "assert False, 'not run under -O'\n"
        "o = origami.Origami.from_spec('h=(12);v=(13)')\n"
        "surface = develop.develop(origami.build_origami_graph(o), origami.equilateral_angles(o))\n"
        "incircle = develop._incircle_det\n"
        "develop._incircle_det = lambda a, b, c, d: -incircle(a, b, c, d)\n"
        "develop.is_geometric_delaunay(surface)\n"
    )
    assert last == "AssertionError: angle/in-circle disagreement at edge 'b1'"


def test_a_zero_period_is_a_degenerate_triangle(torus, torus_graph):
    # a surface built without ``check``: its corner angles refuse the zero period
    s = develop.develop(torus_graph, origami.standard_angles(torus))
    periods = dict(s.periods)
    periods[("f1+", 1)] = 0j
    with pytest.raises(develop.DegenerateTriangleError, match="^zero period in face 'f1\\+'$"):
        develop.angles_of(develop.DevelopedSurface(torus_graph, periods))


def test_an_edge_with_both_sides_in_one_face_is_not_flipped():
    # face f meets itself along a: no flat surface has it, since the face
    # would close up only with a zero period at b
    g = TriRibbonGraph(["a", "b", "c"], [("f", ("a", "a", "b")), ("g", ("b", "c", "c"))])
    periods = {h: complex(k + 1, 1) for k, h in enumerate(g.half_edges())}
    tri = develop._Triangulation(develop.DevelopedSurface(g, periods))
    with pytest.raises(ValueError, match="^cannot flip edge 'a': both sides in one face$"):
        tri.flip(g.edges.index("a"))

