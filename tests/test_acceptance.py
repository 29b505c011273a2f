"""End-to-end acceptance checks for the whole library.

Each test prints exactly one PASS/FAIL line so the suite output doubles as a
release checklist.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines for passing criteria too.
"""

import functools
import math
import random
import time

from chain_oracles import (apply_to_chain, chain_neg, enumerate_simple_cycles, is_cycle, p_map,
                           pairing_vector, rows_negate_under)
from delaunay_oracles import circumcircle_cross_check
from isodelaunay import (
    angles,
    develop,
    homology,
    matching,
    origami,
    region,
    ribbon,
    surgery,
)
from origami_oracles import (is_hyperelliptic, mapped_delaunay, matched_regions, pi_rotations,
                             random_gl_map, staircase_origami, tree_count_holds, zeros_only)
from region_oracles import (check_constant_holonomy, chord_exit, delaunay_at, iota_orbit,
                            open_polytope)

TOL = 1e-9


def report(num: int, description: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


def invariant_polytope(o, delaunay_rows):
    g = origami.build_origami_graph(o)
    iota = origami.canonical_matching(o)
    return g, region.build_polytope(g, iota) if delaunay_rows else open_polytope(g, iota)


def test_criterion_01_square_l_golden(square_l, square_l_graph):
    g = square_l_graph
    sig = ribbon.stratum_signature(g, origami.standard_angles(square_l))
    ok = sig.genus == 2 and sig.zero_orders == (2,)
    ok = ok and len(homology.cycle_basis(g)) == 4
    iota = origami.canonical_matching(square_l)
    ok = ok and matching.verify_matching(g, iota).ok
    # horizontal core curve of the top square, exact integer coefficients
    alpha = {("f3-", 1): 1, ("f3-", 2): -1, ("f3+", 0): 1, ("f3+", 2): -1}
    ok = ok and is_cycle(g, alpha)
    ok = ok and apply_to_chain(iota, alpha) == chain_neg(alpha)
    report(1, "square L: genus 2, (2), rank 4, matching negates a core curve", ok)


def test_criterion_02_staircase_has_no_matching(staircase, staircase_graph):
    net = origami.network(staircase)
    ok = not net.arboreal and len(net.horizontal) + len(net.vertical) == 6
    start = time.monotonic()
    res = matching.find_matchings(staircase_graph)
    elapsed = time.monotonic() - start
    ok = ok and res.complete and res.matchings == [] and elapsed < 60
    report(2, "six-square staircase: not arboreal, exhaustive search empty", ok)


def test_criterion_03_prym_golden(prym, prym_graph):
    sig = ribbon.stratum_signature(prym_graph, origami.standard_angles(prym))
    ok = sig.genus == 3 and sig.zero_orders == (4,)
    ok = ok and origami.network(prym).arboreal
    res = matching.find_matchings(prym_graph, limit=1)
    ok = ok and len(res.matchings) == 1
    report(3, "five-square Prym origami: genus 3, (4), arboreal, matching found", ok)


def test_criterion_04_arboreal_sweep():
    mismatches = 0
    for s in range(1, 6):
        for o in origami.transitive_pairs_up_to_relabeling(s):
            net = origami.network(o)
            if not net.geometrically_simple:
                continue
            g = origami.build_origami_graph(o)
            arboreal = net.arboreal
            identity = tree_count_holds(o)
            exists = bool(matching.find_matchings(g, limit=1).matchings)
            if not (arboreal == identity == exists):
                mismatches += 1
    report(4, "sweep to 5 squares: arboreal = tree count = matching exists", mismatches == 0)


def test_criterion_05_constant_holonomy(torus, square_l, prym):
    ok = True
    for o in (torus, square_l, prym):
        g = origami.build_origami_graph(o)
        iota = origami.canonical_matching(o)
        rep = check_constant_holonomy(g, iota, samples=100, seed=0, tol=TOL)
        ok = ok and rep["ok"] and rep["max_deviation"] < TOL
        ok = ok and rep["max_modulus_deviation"] < TOL
    report(5, "holonomy constant of modulus 1 across 100 invariant samples each", ok)


def test_criterion_06_invariant_angles_develop(torus, square_l, prym):
    ok = True
    for o in (torus, square_l, prym):
        g, poly = invariant_polytope(o, delaunay_rows=False)
        basis = homology.cycle_basis(g)
        for theta in region.sample(poly, 25, seed=1):
            ok = ok and angles.is_trivial_holonomy(g, theta, basis)
            surface = develop.develop(g, theta, tol=TOL)  # raises on obstruction
            surface.check()
    report(6, "every sampled invariant angle vector is holonomy-free and develops", ok)


def test_criterion_07_region_is_convex(square_l):
    g, poly = invariant_polytope(square_l, delaunay_rows=True)
    pts = region.sample(poly, 2000, seed=2)
    ok = True
    for a, b in zip(pts[:1000], pts[1000:]):
        mid = {c: (a[c] + b[c]) / 2 for c in a}
        if poly.slack(mid) <= 0:
            ok = False
            break
        surface = develop.develop(g, mid, tol=TOL)
        if not develop.is_geometric_delaunay(surface, tol=TOL):
            ok = False
            break
    report(7, "1000 midpoints of Delaunay region samples stay strictly inside", ok)


def test_criterion_08_develop_round_trip(torus, square_l, prym):
    worst = 0.0
    for o in (torus, square_l, prym):
        g, poly = invariant_polytope(o, delaunay_rows=False)
        for theta in region.sample(poly, 100, seed=3):
            back = develop.angles_of(develop.develop(g, theta))
            worst = max(worst, max(abs(back[c] - theta[c]) for c in theta))
    report(8, f"angles round trip through periods (worst error {worst:.2e})", worst < TOL)


def test_criterion_09_region_dimensions(torus, square_l, prym):
    ok = True
    for o, dim in [(square_l, 6), (torus, 2), (prym, 10)]:
        _, poly = invariant_polytope(o, delaunay_rows=True)
        ok = ok and region.analyze(poly).dimension == dim
    report(9, "region dimensions 6 / 2 / 10 by exact integer rank", ok)


def test_criterion_10_delaunay_predicates_agree():
    import numpy as np

    rng = np.random.default_rng(4)
    checked = disagreements = 0
    while checked < 10_000:
        a, b, c, d = (complex(x, y) for x, y in rng.uniform(-1, 1, size=(4, 2)))
        cross = ((b - a).conjugate() * (c - a)).imag
        if cross <= 0:  # need a ccw triangle abc
            a, b = b, a
        side = ((c - b).conjugate() * (d - b)).imag
        if side >= 0:  # need d across edge bc from a
            continue
        rep = circumcircle_cross_check((a, b, c, d), tol=TOL)
        if rep["degenerate"]:
            continue
        checked += 1
        disagreements += 0 if rep["agree"] else 1
    report(10, "in-circle sign matches opposite-angle sum on 10^4 quads", disagreements == 0)


def test_criterion_11_connected_sum(torus, torus_graph):
    h = ("f1-", 0)
    iota = origami.canonical_matching(torus)
    summed, glued = surgery.sum_matchings(torus_graph, h, iota, torus_graph, h, iota)
    info = ribbon.topology(summed)
    ok = info["genus"] == 1 and info["V"] == 2
    ok = ok and matching.verify_matching(summed, glued).ok
    # The sum keeps both tori's triangles: F = 4 trivalent vertices joined by
    # E = 3F/2 = 6 edges in one component, so the cycle rank is
    # E - F + 1 = 3, which is 2g + V - 1 for genus 1 and V = 2.
    ok = ok and info["rank_h1"] == 3
    ok = ok and len(homology.cycle_basis(summed)) == 3
    report(11, "two square tori: genus 1, two marked points, glued matching, rank 3", ok)


def test_criterion_12_homology_core(torus_graph, square_l_graph, staircase_graph):
    graphs = [torus_graph, square_l_graph]
    graphs.append(
        surgery.connected_sum(torus_graph, ("f1-", 0), torus_graph, ("f1-", 0))
    )
    ok = True
    for g in graphs:
        assert len(g.face_ids) <= 8
        for alpha in enumerate_simple_cycles(g):
            ok = ok and p_map(homology.phi(g, alpha)) == alpha
    for g in (torus_graph, square_l_graph, staircase_graph):
        basis = homology.cycle_basis(g)
        for h in g.half_edges():
            v = pairing_vector(basis, h)
            w = pairing_vector(basis, ribbon.other_side(g, h))
            ok = ok and tuple(-x for x in v) == w
    report(12, "p after phi is the identity; pairing vectors negate across edges", ok)


@functools.cache
def sheared_staircases() -> list[tuple]:
    """24 staircases, each sheared twice and made Delaunay by Lawson flips,
    as (n squares, surface, flips, degenerate edges, first matching found
    or None)."""
    out = []
    for a, b in ((1.3, 0.4), (2.41, -0.62), (0.7, 1.9)):
        for n in range(3, 11):
            o = staircase_origami(n)
            start = develop.develop(origami.build_origami_graph(o), origami.standard_angles(o))
            # (x, y) -> (x + a y, y), then (x, y) -> (x, y + b x)
            periods = {}
            for h, z in start.periods.items():
                x = z.real + a * z.imag
                periods[h] = complex(x, z.imag + b * x)
            surface, flips, degenerate = develop.make_delaunay(
                develop.DevelopedSurface(start.graph, periods)
            )
            found = matching.find_matchings(surface.graph, limit=1).matchings
            out.append((n, surface, flips, degenerate, found[0] if found else None))
    return out


def test_criterion_13_delaunay_triangulations_carry_matchings():
    # the paper's corollary: a Delaunay triangulation in a hyperelliptic
    # component carries a triangle matching, and its own angles lie inside
    # that matching's (convex) iso-Delaunay region
    ok = True
    surfaces = sheared_staircases()
    for _, surface, flips, degenerate, iota in surfaces:
        ok = ok and len(flips) > 0 and degenerate == []
        if iota is None:
            ok = False
            continue
        theta = develop.angles_of(surface)
        ok = ok and max(abs(theta[c] - theta[iota[c]]) for c in theta) < TOL
        poly = region.build_polytope(surface.graph, iota)
        ok = ok and poly.equality_residual(theta) < TOL and poly.slack(theta) > 0
    report(13, f"{len(surfaces)} sheared staircases: Delaunay, matched, angles in the region", ok)


def test_criterion_15_region_walls_are_lawson_flips():
    # the region's Delaunay rows are where make_delaunay starts to flip: a
    # chord from a staircase's own angles through a region sample leaves the
    # region at t*; just inside no edge flips, and just past it exactly the
    # edges whose rows tie at t*, one iota-orbit, flip, onto a triangulation
    # that carries a matching whose region holds its angles.  A chord that
    # ends where an angle reaches 0 leaves no triangulation behind it
    ok = True
    walls = 0
    for n, surface, _, _, iota in sheared_staircases():
        g = surface.graph
        poly = region.build_polytope(g, iota)
        start = develop.angles_of(surface)
        for through in region.sample(poly, 4, seed=n):
            t, rows = chord_exit(poly, start, through)
            if min(rows) < len(poly.corners):  # a positivity row
                continue
            walls += 1
            tied = sorted(g.edges[i - len(poly.corners)] for i in rows)
            _, inside, _ = delaunay_at(g, start, through, t * (1 - 1e-4))
            past, flips, _ = delaunay_at(g, start, through, t * (1 + 1e-4))
            ok = ok and inside == [] and sorted(flips) == tied
            ok = ok and set(tied) == iota_orbit(g, iota, tied[0])
            found = matching.find_matchings(past.graph, limit=1).matchings
            if not found:
                ok = False
                continue
            theta = develop.angles_of(past)
            flipped = region.build_polytope(past.graph, found[0])
            ok = ok and flipped.equality_residual(theta) < TOL and flipped.slack(theta) > 0
    report(15, f"{walls} region walls on sheared staircases are Lawson flips", ok and walls > 40)


# surfaces outside the hyperelliptic components, one per stratum up to 6
# squares that has them, whose Delaunay triangulation under the shear
# (x, y) -> (x + 1.5 y, y) carries no matching: (origami, zero orders)
CONTROL_WITNESSES = [
    ("h=(1)(2)(345);v=(13)(24)(5)", (4,)),  # odd component
    ("h=(1)(2)(3456);v=(13)(245)(6)", (3, 1)),
    ("h=(1)(2)(3)(456);v=(14)(25)(36)", (2, 2)),  # odd component
]


def test_criterion_16_hyperelliptic_components_carry_matchings():
    # the paper's corollary on whole components: every origami with at most
    # 5 squares whose vertices are all zeros, under 4 random linear maps,
    # made Delaunay.  Where a rotation by pi acts as -1 (the hyperelliptic
    # components), the triangulation carries a matching whose region holds
    # its angles.  Elsewhere the claim can fail, which the control's rate
    # shows and the pinned witnesses assert
    rng = random.Random(16)
    rows = control = unmatched = 0
    ok = True
    for s in range(1, 6):
        for o in origami.transitive_pairs_up_to_relabeling(s):
            if not zeros_only(o):
                continue
            hyperelliptic = is_hyperelliptic(o)
            for _ in range(4):
                surface, _, degenerate = mapped_delaunay(o, random_gl_map(rng))
                count, inside = matched_regions(surface)
                if hyperelliptic:
                    rows += 1
                    ok = ok and degenerate == [] and inside
                else:
                    control += 1
                    unmatched += count == 0
    for spec, zero_orders in CONTROL_WITNESSES:
        o = origami.Origami.from_spec(spec)
        sig = ribbon.stratum_signature(origami.build_origami_graph(o), origami.standard_angles(o))
        surface, flips, degenerate = mapped_delaunay(o, (1.0, 1.5, 0.0, 1.0))
        ok = ok and sig.zero_orders == zero_orders and not is_hyperelliptic(o) and len(flips) > 0
        ok = ok and degenerate == [] and matched_regions(surface) == (0, False)
    report(16, f"{rows} hyperelliptic Delaunay triangulations (s <= 5) carry a matching whose "
           f"region holds their angles; control: {unmatched} of {control} carry none", ok
           and rows == 128 and control > 0)


# origamis with the verdict of ``verify_matching`` on each of their rotations
# by pi, in ``pi_rotations`` order: the control of criterion 17
ROTATION_WITNESSES = [
    ("h=(12);v=(13)", [True]),  # H(2), hyperelliptic
    ("h=(1)(2)(34);v=(13)(24)", [True, False]),
    ("h=(12)(3)(45);v=(1)(234)(5)", [False]),  # the Prym fixture
    ("h=(1)(2)(345);v=(13)(24)(5)", [False]),  # H(4), odd component
]


def test_criterion_17_invariant_holonomy_terms_cancel(torus, square_l, prym):
    # the exact form of criterion 05: under a verified matching iota, each
    # basis cycle's row at iota c is its row at c negated and moved by iota
    # (phi's anti-invariance lemma), so on invariant angles the holonomy
    # terms at c and iota c cancel to the bit, in log-modulus and in phase.
    # Control: a rotation by pi of an origami with at most 5 squares moves
    # the rows so exactly when verify_matching accepts it, which the pinned
    # witnesses assert either way
    log, sin = math.log, math.sin
    ok = True
    terms = 0
    for o in (torus, square_l, prym):
        g, poly = invariant_polytope(o, delaunay_rows=False)
        iota = origami.canonical_matching(o)
        ok = ok and rows_negate_under(g, iota)
        for theta in region.sample(poly, 25, seed=17):
            for alpha in homology.cycle_basis(g):
                term = {c: (k * (log(sin(theta[num])) - log(sin(theta[den]))), k * theta[c])
                        for k, c, num, den in angles._rows(g, alpha)}
                terms += len(term)
                ok = ok and all(t[0] + term[iota[c]][0] == 0.0 and t[1] + term[iota[c]][1] == 0.0
                                for c, t in term.items())
    verdicts = []
    for s in range(1, 6):
        for o in origami.transitive_pairs_up_to_relabeling(s):
            g = origami.build_origami_graph(o)
            for iota in pi_rotations(o):
                verdicts.append(bool(matching.verify_matching(g, iota)))
                ok = ok and rows_negate_under(g, iota) == verdicts[-1]
    for spec, want in ROTATION_WITNESSES:
        o = origami.Origami.from_spec(spec)
        g = origami.build_origami_graph(o)
        ok = ok and [bool(matching.verify_matching(g, iota)) for iota in pi_rotations(o)] == want
        ok = ok and [rows_negate_under(g, iota) for iota in pi_rotations(o)] == want
    report(17, f"{terms} holonomy terms of invariant angles cancel in pairs; control: "
           f"{sum(verdicts)} of {len(verdicts)} rotations by pi verified, the same that "
           "negate the rows", ok and 0 < sum(verdicts) < len(verdicts))
