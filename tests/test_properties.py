"""Properties of the homology layer, matchings and Lawson flips on generated surfaces.

Each example is a random transitive origami with at most 8 squares, taken
both as built and after a horizontal shear and Lawson flips to a Delaunay
triangulation, and for homology also with its face ids renamed and
reordered; the matching count also runs on 2 to 12 triangles glued at
random.  Runs are derandomized, so every run checks the same examples.
The cycle basis, ``phi``, holonomy and ``verify_matching`` are also checked
against straightforward references kept here: a quadratic tree pick with
path chains, a ``phi`` that sorts every slot, ``phi`` itself for the
corner chain rows that the basis walk emits (with the two-slot lemma behind
them), per-cycle holonomy sums, a Delaunay test on angle dicts and a -1
test on whole image chains, and the number of matchings against a count of
pairing-triple classes.  Each graph's rank tables are checked against
``occurrences`` and ``other_side`` (``chain_oracles``), which scan its
faces, also after flips; cycles, matchings, angles and periods survive
the JSON codec, which writes their keys in sorted order.  The certificates
are checked against references too: ``is_cycle`` against the boundary map,
the basis walk's one-pass certificate against ``is_cycle`` and the
two-slot lemma on chains mutated from basis cycles, the in-circle
determinant against numpy's, and the closure check of ``develop`` against a
residual taken from both sides of every edge, with its periods to the bit
when nothing is obstructed, also at the standard angles of origamis.  Under
a verified matching, the rows the walk emits negate (the lemma in ``phi``'s
docstring), also on the Delaunay triangulations of zeros-only origamis
under linear maps.
On glued triangles, ``surgery.is_nonseparating`` is checked against a face
walk that skips the edge.  On region samples of origamis that carry a
matching, ``angles_of`` inverts ``develop``, and every sample is exactly
invariant, keeps ``MARGIN`` of slack, meets the face sums within 1e-14 and
comes again from its seed.
The polytope's planes are checked against the blocks its equality rows
make, and its dimension against the orbit count and the rows' rank.  The
lemma of ``region.build_polytope`` is checked on the same graphs: a graph
with a bridge has no matching, and a matching's polytope is planes and rows
that couple at most two of them.  On random arboreal origamis, the region's
walls are where Lawson flips begin (criterion 15), and on the hyperelliptic
origamis of 6 squares under random linear maps, every Delaunay
triangulation carries a matching whose region holds its angles (criterion
16).
"""

import functools
import json
import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chain_oracles import (apply_to_chain, boundary, chain_add, chain_neg, is_cycle, occurrences,
                           other_side, p_map, pairing_vector, rows_negate_under)
from delaunay_oracles import (circumcircle_cross_check, delaunay_sum, flip_edge,
                              flip_rebuilding_the_graph, incircle_det)
from origami_oracles import (is_hyperelliptic, mapped_delaunay, matched_regions, random_gl_map,
                             zeros_only)
from isodelaunay import angles, develop, homology, matching, origami, region, ribbon, surgery
from region_oracles import (_generic_blocks, chord_exit, corner_polytope, delaunay_at,
                            generic_collapse, generic_sample, iota_orbit, open_polytope)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def origamis(draw):
    """A random transitive origami with at most 8 squares."""
    s = draw(st.integers(1, 8))
    h = tuple(draw(st.permutations(range(1, s + 1))))
    v = tuple(draw(st.permutations(range(1, s + 1))))
    assume(origami.is_transitive(h, v))
    return origami.Origami(h, v)


@st.composite
def glued_triangles(draw):
    """2 to 12 triangles with their sides glued in random pairs, kept when
    connected.  Unlike origami graphs, these have pairing-triple classes of
    two or three faces, and triples that a rotation fixes."""
    n = 2 * draw(st.integers(1, 6))
    sides = draw(st.permutations([(f, s) for f in range(n) for s in range(3)]))
    boundary = [[""] * 3 for _ in range(n)]
    for k, (f, s) in enumerate(sides):
        boundary[f][s] = f"e{k // 2}"
    try:
        return ribbon.TriRibbonGraph([f"e{k}" for k in range(3 * n // 2)],
                                     [(f"f{f}", tuple(b)) for f, b in enumerate(boundary)])
    except ribbon.InvalidGraphError:
        assume(False)


@st.composite
def sheared_surfaces(draw, max_shear=3.0):
    """A random origami's surface under (x, y) -> (x + t y, y), t in [0.1, max_shear]."""
    o = draw(origamis())
    g = origami.build_origami_graph(o)
    surface = develop.develop(g, origami.standard_angles(o))
    t = draw(st.floats(0.1, max_shear))
    periods = {k: complex(z.real + t * z.imag, z.imag) for k, z in surface.periods.items()}
    return develop.DevelopedSurface(g, periods)


@st.composite
def graphs(draw):
    """The origami's graph, the graph of its sheared, Delaunay-flipped surface,
    and the flipped graph with its face ids permuted and listed in a drawn order.

    The origami's face ids always sort as f1+ < f1- < f2+ ..., so the renamed
    copy gives the tree pick other face orders on the same surface.
    """
    sheared = draw(sheared_surfaces())
    flipped, _, _ = develop.make_delaunay(sheared)
    g = flipped.graph
    name = dict(zip(g.face_ids, draw(st.permutations(g.face_ids))))
    faces = draw(st.permutations([(name[f], b) for f, b in g.faces]))
    return sheared.graph, g, ribbon.TriRibbonGraph(g.edges, faces)


@settings(PROPERTY, max_examples=40)  # about 0.25 s
@given(graphs(), glued_triangles(), sheared_surfaces(max_shear=20.0))
def test_the_rank_tables_keep_the_half_edge_layout(triple, glued, sheared):
    # every walk reads these tables, and no walk checks them; the flipped
    # graphs are built from the faces that the flip kernel left
    flipped = develop.make_delaunay(sheared)[0].graph
    for g in (*triple, glued, flipped):
        # positional order: each face's edges, and each edge's two ranks
        # against a scan of the boundaries
        assert [tuple(g.edges[k] for k in b) for b in g._face_edges] == [b for _, b in g.faces]
        assert list(g._occurrences) == list(g.edges)
        for e, ranks in g._occurrences.items():
            assert [(g.faces[r // 3][0], r % 3) for r in ranks] == occurrences(g, e)
        # sorted order, and each mate
        by_id = sorted(g.face_ids)
        assert g._half_edges == tuple((f, s) for f in by_id for s in range(3))
        assert g.half_edges() == list(g._half_edges)
        for r, h in enumerate(g._half_edges):
            assert g._half_edges[g._mate[r]] == other_side(g, h)
        assert ribbon.validate(g)


def _through_json(m: dict, encode, decode) -> dict:
    """``m`` through the half-edge map codec and JSON text and back; the
    encoder lists the keys in sorted half-edge order."""
    data = ribbon.he_map_to_json(m, encode)
    assert list(data) == [ribbon.he_key(h) for h in sorted(m)]
    return ribbon.he_map_from_json(json.loads(json.dumps(data)), decode)


@settings(PROPERTY, max_examples=30)
@given(graphs(), sheared_surfaces(), st.data())
def test_half_edge_maps_survive_the_json_codec(triple, sheared, data):
    # the renamed graph and the flipped surface list their half-edges out of
    # sorted order, so the encoder has to sort them
    for g in triple:
        for alpha in homology.cycle_basis(g):
            assert _through_json(alpha, int, int) == alpha
        faces = [f for f, _ in g.faces]
        targets = data.draw(st.permutations(faces))
        offsets = data.draw(st.lists(st.integers(0, 2), min_size=len(faces), max_size=len(faces)))
        drawn = {(f, s): (t, (s + k) % 3) for f, t, k in zip(faces, targets, offsets)
                 for s in range(3)}
        for iota in [drawn] + matching.find_matchings(g, limit=1).matchings:
            assert _through_json(iota, ribbon.he_key, ribbon.parse_he_key) == iota
    for surface in (sheared, develop.make_delaunay(sheared)[0]):
        theta = develop.angles_of(surface)
        assert _through_json(theta, float, float) == theta
        doc = json.loads(json.dumps(surface.to_json()))
        assert list(doc["periods"]) == [ribbon.he_key(h) for h in sorted(surface.periods)]
        assert develop.DevelopedSurface.from_json(doc).periods == surface.periods


@PROPERTY
@given(graphs())
def test_basis_has_rank_h1_cycles_each_with_its_own_half_edge(pair):
    for g in pair:
        basis = homology.cycle_basis(g)
        assert len(basis) == ribbon.topology(g)["rank_h1"]
        for i, alpha in enumerate(basis):
            assert not boundary(g, alpha)
            others = basis[:i] + basis[i + 1:]
            assert any(
                coeff == 1 and all(h not in beta for beta in others)
                for h, coeff in alpha.items()
            )


@PROPERTY
@given(graphs(), st.data())
def test_p_after_phi_is_the_identity_on_combinations_of_basis_cycles(pair, data):
    for g in pair:
        basis = homology.cycle_basis(g)
        for _ in range(3):
            n = len(basis)
            scales = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            c: homology.Chain1 = {}
            for alpha, k in zip(basis, scales):
                c = chain_add(c, alpha, k)
            assert p_map(homology.phi(g, c)) == c


def _cycle_basis_by_live_lists(graph):
    # the reference pick: each face lists every edge of its whole class
    first, pairs = {}, []
    for h in graph.half_edges():
        g = first.setdefault(graph.edge_of(h), h)
        if g != h:
            pairs.append((h, g))
    at = {f: [] for f in graph.face_ids}
    for j, (h, g) in enumerate(pairs):
        at[h[0]].append(j)
        at[g[0]].append(j)
    cls = {f: f for f in at}
    members = {f: [f] for f in at}
    across = {f: [] for f in at}
    tree = set()
    for f in sorted(at):
        live = [j for x in members[f] for j in at[x]
                if cls[pairs[j][0][0]] != cls[pairs[j][1][0]]]
        if live:
            j = min(live)
            tree.add(j)
            h, g = pairs[j]
            across[h[0]].append((g[0], {h: 1, g: -1}))
            across[g[0]].append((h[0], {g: 1, h: -1}))
            u = cls[g[0]] if cls[h[0]] == f else cls[h[0]]
            for x in members[f]:
                cls[x] = u
            members[u] += members.pop(f)
    stack = [min(at)]
    path = {stack[0]: {}}
    while stack:
        x = stack.pop()
        for y, step in across[x]:
            if y not in path:
                path[y] = chain_add(path[x], step)
                stack.append(y)
    return [chain_add(chain_add({h: 1, g: -1}, path[h[0]]), path[g[0]], -1)
            for j, (h, g) in enumerate(pairs) if j not in tree]


def _phi_sorting_every_slot(graph, cycle):
    # the reference phi: the median per slot, then every corner sorted
    assert not boundary(graph, cycle)
    out = {}
    for f in {h[0] for h in cycle}:
        c1, c2 = cycle.get((f, 1), 0), cycle.get((f, 2), 0)
        b = (0, -c1, -c1 - c2)
        out.update({(f, slot): x - sorted(b)[1] for slot, x in enumerate(b)})
    return {k: v for k, v in sorted(out.items()) if v != 0}


def _holonomy_by_sums(theta, a):
    # the reference holonomy of a corner chain: both logs taken per corner
    total = 0.0
    for (f, slot), coeff in a.items():
        num = math.sin(theta[(f, (slot + 1) % 3)])
        den = math.sin(theta[(f, (slot + 2) % 3)])
        total += coeff * (math.log(num) - math.log(den))
    return total.hex(), sum(coeff * theta[c] for c, coeff in a.items()).hex()


@st.composite
def surfaces(draw):
    """The sheared surface and its Delaunay flip, each as (graph, corner angles)."""
    sheared = draw(sheared_surfaces())
    flipped, _, _ = develop.make_delaunay(sheared)
    return [(s.graph, develop.angles_of(s)) for s in (sheared, flipped)]


@PROPERTY
@given(graphs())
def test_cycle_basis_matches_the_quadratic_pick(pair):
    for g in pair:
        got = [list(alpha.items()) for alpha in homology.cycle_basis(g)]
        assert got == [list(alpha.items()) for alpha in _cycle_basis_by_live_lists(g)]


@PROPERTY
@given(graphs(), st.data())
def test_phi_matches_the_slot_by_slot_reference(pair, data):
    for g in pair:
        basis = homology.cycle_basis(g)
        scales = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
        combination: homology.Chain1 = {}
        for alpha, k in zip(basis, scales):
            combination = chain_add(combination, alpha, k)
        for c in basis + [combination]:
            assert list(homology.phi(g, c).items()) == list(_phi_sorting_every_slot(g, c).items())


@PROPERTY
@given(surfaces())
def test_holonomies_match_per_cycle_holonomy_bit_for_bit(pair):
    for g, theta in pair:
        basis = homology.cycle_basis(g)
        got = [(v.log_modulus.hex(), v.phase.hex()) for v in angles.holonomies(g, theta, basis)]
        one_by_one = [angles.holonomy(g, theta, alpha) for alpha in basis]
        assert got == [(v.log_modulus.hex(), v.phase.hex()) for v in one_by_one]
        assert got == [_holonomy_by_sums(theta, _phi_sorting_every_slot(g, alpha))
                       for alpha in basis]


def _rows_by_phi(graph, cycle):
    # the rows of the corner chain that phi solves
    return [(coeff, (f, slot), (f, (slot + 1) % 3), (f, (slot + 2) % 3))
            for (f, slot), coeff in homology.phi(graph, cycle).items()]


@PROPERTY
@given(graphs(), glued_triangles(), sheared_surfaces(max_shear=20.0))
def test_the_basis_walk_emits_the_rows_phi_solves(triple, glued, sheared):
    flipped = develop.make_delaunay(sheared)[0].graph
    for g in (*triple, glued, flipped):
        basis = homology.cycle_basis(g)
        entries = [entry for bucket in g._basis_chains.values() for entry in bucket]
        assert sorted(map(id, (alpha for alpha, _ in entries))) == sorted(map(id, g._cycle_basis))
        for alpha in basis:
            # the two-slot lemma: two slots of each face met, coefficients 1 and -1
            at_face = {}
            for (f, slot), coeff in alpha.items():
                at_face.setdefault(f, []).append(coeff)
            assert all(sorted(coeffs) == [-1, 1] for coeffs in at_face.values())
            (rows,) = [rows for beta, rows in g._basis_chains[next(iter(alpha))] if beta == alpha]
            assert list(rows) == _rows_by_phi(g, alpha)


@settings(PROPERTY, max_examples=25)
@given(graphs(), glued_triangles())
def test_the_rows_of_a_basis_cycle_negate_under_a_verified_matching(triple, glued):
    # the lemma in phi's docstring, phi(alpha)(iota c) = -phi(alpha)(c), read
    # on the rows the basis walk emits: iota maps the corner chain's support
    # onto itself, negates every coefficient and moves each row's two sine
    # corners with it; 25 examples check about 60 matchings and 200 basis
    # cycles in about 0.3 s
    for g in (*triple, glued):
        for iota in matching.find_matchings(g, limit=3).matchings:
            assert matching.verify_matching(g, iota)
            assert rows_negate_under(g, iota)


def test_the_rows_of_a_basis_cycle_negate_on_delaunay_triangulations_of_origamis():
    # the same lemma on the graphs that Lawson flips make: every zeros-only
    # origami with at most 5 squares under one seeded linear map, made
    # Delaunay: 54 triangulations, 44 matchings and 244 (matching, basis
    # cycle) pairs
    rng = random.Random(0)
    triangulations = pairs = 0
    for s in range(1, 6):
        for o in origami.transitive_pairs_up_to_relabeling(s):
            if not zeros_only(o):
                continue
            g = mapped_delaunay(o, random_gl_map(rng))[0].graph
            triangulations += 1
            for iota in matching.find_matchings(g, limit=3).matchings:
                assert rows_negate_under(g, iota)
                pairs += len(homology.cycle_basis(g))
    assert triangulations == 54 and pairs > 100


@PROPERTY
@given(graphs())
def test_pairing_vectors_negate_across_edges(pair):
    for g in pair:
        basis = homology.cycle_basis(g)
        for h in g.half_edges():
            v = pairing_vector(basis, h)
            w = pairing_vector(basis, other_side(g, h))
            assert w == tuple(-x for x in v)


def _matching_count_by_classes(g) -> tuple[bool, int]:
    """Whether every class of pairing triples (up to rotation) is as large as
    its negation, and the product over classes of n! * m**n, for n faces in
    the class and m rotations fixing its triple."""
    basis = homology.cycle_basis(g)

    def rotations(t):
        return [t[k:] + t[:k] for k in range(3)]

    sizes = Counter(min(rotations(tuple(pairing_vector(basis, (f, s)) for s in range(3))))
                    for f in g.face_ids)
    balanced = all(sizes[c] == sizes[min(rotations(tuple(tuple(-x for x in v) for v in c)))]
                   for c in sizes)
    count = 1
    for c, n in sizes.items():
        count *= math.factorial(n) * rotations(c).count(c) ** n
    return balanced, count


@PROPERTY
@given(graphs(), glued_triangles())
def test_a_matching_exists_iff_every_class_matches_its_negation(triple, glued):
    for g in (*triple, glued):
        balanced, count = _matching_count_by_classes(g)
        res = matching.find_matchings(g)
        assert res.complete and bool(res.matchings) == balanced
        if balanced:
            assert len(res.matchings) == count


@PROPERTY
@given(graphs(), st.randoms(use_true_random=True))
def test_is_cycle_matches_the_boundary_reference(triple, rng):
    for g in triple:
        hes = g.half_edges()
        basis = homology.cycle_basis(g)
        alpha = rng.choice(basis)
        h = rng.choice(sorted(alpha))
        changed = {**alpha, h: alpha[h] + rng.choice([-2, -1, 1, 2])}
        sparse = {k: rng.randint(-3, 3) for k in rng.sample(hes, rng.randint(0, 6))}
        # zero at every edge, generally not at every face
        across: homology.Chain1 = {}
        for k in rng.sample(hes, rng.randint(0, 4)):
            across = chain_add(across, {k: 1, other_side(g, k): -1})
        # zero at every face, generally not at every edge
        corners = {k: rng.randint(-2, 2) for k in rng.sample(hes, rng.randint(0, 4))}
        unknown = [*alpha.items(), (("f0?", 1), 1)]
        rng.shuffle(unknown)
        for c in basis + [changed, sparse, across, p_map(corners), dict(unknown)]:
            want = _outcome(lambda graph, chain: not boundary(graph, chain), g, c)
            assert _outcome(is_cycle, g, c) == want


def _two_slot_faces_broken(chain):
    # the reference two-slot lemma: the faces the chain does not meet at
    # exactly two slots with coefficients of opposite sign
    at_face = {}
    for (f, _), coeff in chain.items():
        at_face.setdefault(f, []).append(coeff)
    return {f for f, cs in at_face.items() if len(cs) != 2 or cs[0] != -cs[1] or not cs[0]}


def _mutations(alpha, mate, rng):
    # a basis cycle's rank map, and copies with one entry's coefficient
    # changed, one entry dropped, a third slot added in one face, one side
    # of an edge flipped and both slots of one face flipped (which keeps
    # that face at zero); each also with the mates across the edges of the
    # entries changed mutated to match, which keeps those edges at zero
    r = rng.choice(sorted(alpha))
    third, = (t for t in range(r - r % 3, r - r % 3 + 3) if t not in alpha)
    other, = (t for t in range(r - r % 3, r - r % 3 + 3) if t in alpha and t != r)
    changed, added = alpha[r] + rng.choice([-2, -1, 1, 2]), rng.choice([-1, 1])
    edits = [{r: changed}, {r: None}, {third: added}, {r: -alpha[r]},
             {r: -alpha[r], other: -alpha[other]}]
    out = [dict(alpha)]
    for edit in edits:
        for both in (False, True):
            mutant = dict(alpha)
            for k, c in edit.items():
                for key, coeff in [(k, c), (mate[k], None if c is None else -c)][:1 + both]:
                    if coeff is None:
                        mutant.pop(key, None)
                    else:
                        mutant[key] = coeff
            out.append(mutant)
    return out


def _walk_with_mutant(graph, k, mutant):
    # the basis walk on a fresh copy of graph, with its k-th cycle's rank map
    # replaced by mutant just before the one pass reads it: homology's sorted
    # is shadowed, and the walk calls it once per cycle, on that map
    calls = []

    def sorted_with_mutant(alpha):
        if len(calls) == k:
            alpha.clear()
            alpha.update(mutant)
        calls.append(None)
        return sorted(alpha)

    fresh = ribbon.TriRibbonGraph(graph.edges, graph.faces)
    with mock.patch.object(homology, "sorted", sorted_with_mutant, create=True):
        return _outcome(homology.cycle_basis, fresh), fresh


@PROPERTY
@given(graphs(), glued_triangles(), st.randoms(use_true_random=True))
def test_the_one_pass_certificate_rejects_what_the_references_reject(triple, glued, rng):
    # on chains mutated from basis cycles, the walk's rank-space certificate
    # raises exactly when is_cycle or the two-slot lemma says no, and its
    # message names a failure the references see
    for g in (*triple, glued):
        hes = g.half_edges()
        rank = {h: r for r, h in enumerate(hes)}
        mate = [rank[other_side(g, h)] for h in hes]
        basis = homology.cycle_basis(g)
        k = rng.randrange(len(basis))
        alpha = {rank[h]: c for h, c in basis[k].items()}
        # dropping both sides of a face loop's edge leaves nothing, which the
        # walk cannot make: every cycle starts as h - g
        for mutant in filter(None, _mutations(alpha, mate, rng)):
            chain = {hes[r]: c for r, c in sorted(mutant.items())}
            broken = _two_slot_faces_broken(chain)
            got, fresh = _walk_with_mutant(g, k, mutant)
            if is_cycle(g, chain) and not broken:
                assert got == basis[:k] + [chain] + basis[k + 1:]
                assert [list(rows) for bucket in fresh._basis_chains.values()
                        for beta, rows in bucket if beta == chain] == [_rows_by_phi(g, chain)]
                continue
            kind, message = got
            assert kind is AssertionError
            assert message.startswith(f"basis cycle through {min(chain)} ")
            if message.endswith("has nonzero boundary (implementation fault)"):
                assert not is_cycle(g, chain)
            else:
                assert any(f"does not meet face {f!r} at two slots of opposite sign" in message
                           for f in broken)


def _verify_by_image_chains(graph, iota):
    # the reference -1 test: iota . alpha == -alpha as whole chains, after
    # verify_matching's own bijection and equivariance checks (an empty
    # basis skips its -1 test)
    report = matching.verify_matching(graph, iota, basis=[])
    if report:
        for alpha in homology.cycle_basis(graph):
            if apply_to_chain(iota, alpha) != chain_neg(alpha):
                problem = f"does not act as -1 on the basis cycle through {min(alpha)}"
                return matching.MatchingReport(False, [problem])
    return report


@PROPERTY
@given(origamis(), st.data())
def test_verify_matching_matches_the_image_chain_reference(o, data):
    g = origami.build_origami_graph(o)
    faces = sorted(g.face_ids)
    targets = data.draw(st.permutations(faces))
    offsets = data.draw(st.lists(st.integers(0, 2), min_size=len(faces), max_size=len(faces)))
    drawn = {(f, s): (t, (s + k) % 3) for f, t, k in zip(faces, targets, offsets) for s in range(3)}
    canonical = origami.canonical_matching(o)
    for iota in [canonical, drawn] + matching.find_matchings(g, limit=1).matchings:
        got, want = matching.verify_matching(g, iota), _verify_by_image_chains(g, iota)
        assert (got.ok, got.problems, got.is_involution) == (
            want.ok, want.problems, want.is_involution)
    assert matching.verify_matching(g, canonical).ok == origami.network(o).arboreal


@PROPERTY
@given(origamis(), st.integers(0, 2**32 - 1))
def test_angles_of_develop_round_trips_on_region_samples(o, seed):
    g = origami.build_origami_graph(o)
    found = matching.find_matchings(g, limit=1).matchings
    assume(found)
    poly = region.build_polytope(g, found[0])
    for theta in region.sample(poly, 3, seed=seed):
        back = develop.angles_of(develop.develop(g, theta))
        assert back.keys() == theta.keys()
        assert max(abs(back[c] - theta[c]) for c in theta) < 1e-12


@PROPERTY
@given(origamis(), st.integers(0, 2**32 - 1))
def test_region_samples_are_invariant_inside_and_reproducible(o, seed):
    g = origami.build_origami_graph(o)
    found = matching.find_matchings(g, limit=1).matchings
    assume(found)
    iota = found[0]
    poly = region.build_polytope(g, iota)
    pts = region.sample(poly, 5, seed=seed)
    assert len(pts) == 5
    ref = corner_polytope(g, iota)
    for theta in pts:
        assert all(theta[c] == theta[iota[c]] for c in theta)
        assert ref.slack(theta) >= region.MARGIN
        assert ref.residual(theta) <= 1e-14
    assert region.sample(poly, 5, seed=seed) == pts


def _hex_samples(samples):
    return [[(c, v.hex()) for c, v in t.items()] for t in samples]


@PROPERTY
@given(graphs(), glued_triangles(), st.integers(0, 2**32 - 1))
def test_sample_matches_the_generic_row_walk_bit_for_bit(triple, glued, seed):
    # the sampler's compiled rows against the walk that loops over each row's
    # terms on blocks and rows it derives from the corner rows: on region
    # polytopes and their positivity-only versions
    pairs = []
    for g in (*triple, glued):
        found = matching.find_matchings(g, limit=1).matchings
        if found:
            pairs += [(region.build_polytope(g, found[0]), corner_polytope(g, found[0])),
                      (open_polytope(g, found[0]), corner_polytope(g, found[0], delaunay=False))]
    for poly, ref in pairs:
        assert _hex_samples(region.sample(poly, 3, seed=seed)) == _hex_samples(
            generic_sample(ref, 3, seed=seed))


@PROPERTY
@given(graphs(), glued_triangles())
def test_planes_are_the_blocks_the_equality_rows_make(triple, glued):
    # build_polytope reads the planes off the corner orbits; the reference
    # derives the blocks from the corner equality rows, and numpy the
    # dimension from their rank in orbit coordinates
    for g in (*triple, glued):
        found = matching.find_matchings(g, limit=1).matchings
        if not found:
            continue
        iota = found[0]
        poly, ref = region.build_polytope(g, iota), corner_polytope(g, iota)
        assert poly.orbit_of == ref.orbit_of
        assert poly.eq_rows == [orbits for orbits, _, _ in _generic_blocks(ref)]
        width = len(ribbon.orbits(g.half_edges(), iota.__getitem__))
        face_orbits = ribbon.orbits(g.face_ids, lambda f: iota[(f, 0)][0])
        assert poly.dimension == width - len(face_orbits) == ref.dimension


@PROPERTY
@given(graphs(), glued_triangles())
def test_orbit_rows_are_the_corner_rows_collapsed(triple, glued):
    # build_polytope emits each inequality row once in orbit coordinates:
    # the corner rows, each collapsed by the dict-and-sort reference, with
    # repeats dropped in first-seen order; repr tells 2 from 2.0
    for g in (*triple, glued):
        found = matching.find_matchings(g, limit=1).matchings
        if not found:
            continue
        poly, ref = region.build_polytope(g, found[0]), corner_polytope(g, found[0])
        collapsed = dict.fromkeys((generic_collapse(row, ref.orbit_of), b)
                                  for row, b in zip(ref.ineq_rows, ref.ineq_rhs))
        assert repr(list(zip(poly.ineq_rows, poly.ineq_rhs))) == repr(list(collapsed))


def _is_nonseparating_by_walk(graph, h) -> bool:
    """Whether every face is reached from the first listed face across
    every edge but that of ``h``: the reference for
    ``surgery.is_nonseparating``."""
    skip = graph.edge_of(h)
    start = graph.faces[0][0]
    reached = {start}
    stack = [start]
    while stack:
        for e in graph._boundary[stack.pop()]:
            if e != skip:
                for f, _ in occurrences(graph, e):
                    if f not in reached:
                        reached.add(f)
                        stack.append(f)
    return len(reached) == len(graph.faces)


@PROPERTY
@given(glued_triangles())
def test_is_nonseparating_matches_the_face_walk(glued):
    # the library reads the basis's support: an edge is nonseparating iff
    # some basis cycle runs through it; random gluings have bridges
    for h in glued.half_edges():
        assert surgery.is_nonseparating(glued, h) == _is_nonseparating_by_walk(glued, h)


@PROPERTY
@given(graphs(), glued_triangles())
def test_a_bridge_leaves_no_matching_and_a_matching_makes_only_planes(triple, glued):
    # the lemma of region.build_polytope: a graph with a bridge (an edge whose
    # removal disconnects it) has no matching, and a matching puts the three
    # corners of each face in three orbits and no Delaunay row's two terms
    # in one plane
    for g in (*triple, glued):
        res = matching.find_matchings(g)
        assert res.complete
        if any(not _is_nonseparating_by_walk(g, occurrences(g, e)[0]) for e in g.edges):
            assert res.matchings == []
        for iota in res.matchings:
            poly = region.build_polytope(g, iota)
            assert all(len(set(t)) == 3 for t in poly.eq_rows)
            plane_of = {o: t for t in poly.eq_rows for o in t}
            for terms in poly.ineq_rows:
                assert len(terms) == 1 or plane_of[terms[0][0]] != plane_of[terms[1][0]]


@st.composite
def arboreal_origamis(draw):
    """A random arboreal origami with at most 6 squares: a random tree whose
    edges are the squares, its vertices at even depth the horizontal
    cylinders and those at odd depth the vertical ones, each cylinder's
    squares in a drawn cyclic order."""
    s = draw(st.integers(1, 6))
    parent = [0] + [draw(st.integers(0, k - 1)) for k in range(1, s + 1)]
    depth = [0]
    squares_at: list[list[int]] = [[] for _ in range(s + 1)]
    for k in range(1, s + 1):  # square k is the tree edge from k to its parent
        depth.append(depth[parent[k]] + 1)
        squares_at[k].append(k)
        squares_at[parent[k]].append(k)
    perms = [list(range(1, s + 1)), list(range(1, s + 1))]
    for x, squares in enumerate(squares_at):
        cycle = draw(st.permutations(squares))
        for i, square in enumerate(cycle):
            perms[depth[x] % 2][square - 1] = cycle[(i + 1) % len(cycle)]
    return origami.Origami(tuple(perms[0]), tuple(perms[1]))


@settings(derandomize=True, max_examples=40, deadline=None)  # about 0.4 s
@given(arboreal_origamis(), st.integers(0, 2**32 - 1))
def test_region_walls_are_lawson_flips(o, seed):
    # criterion 15 on random arboreal origamis: a chord from the equilateral
    # point through a region sample of the canonical matching leaves the
    # region at t*; at a Delaunay wall, no edge flips just inside it and just
    # past it exactly the edges whose rows tie at t*.  Where iota carries
    # edges to edges, those are one iota-orbit, and the flipped triangulation
    # carries a matching whose region holds its angles; otherwise flipping
    # can leave a triangulation with no matching
    assert origami.network(o).arboreal
    g = origami.build_origami_graph(o)
    iota = origami.canonical_matching(o)
    poly, ref = region.build_polytope(g, iota), corner_polytope(g, iota)
    start, _ = poly.optimum
    edgewise = all(iota[other_side(g, h)] == other_side(g, iota[h]) for h in iota)
    for through in region.sample(poly, 2, seed=seed):
        t, rows = chord_exit(ref, start, through)
        if min(rows) < len(ref.corners):  # an angle reaches 0
            continue
        tied = sorted(g.edges[i - len(ref.corners)] for i in rows)
        _, inside, _ = delaunay_at(g, start, through, t * (1 - 1e-4))
        past, flips, _ = delaunay_at(g, start, through, t * (1 + 1e-4))
        assert inside == [] and sorted(flips) == tied
        if edgewise:
            assert set(tied) == iota_orbit(g, iota, tied[0])
            theta = develop.angles_of(past)
            flipped = corner_polytope(past.graph,
                                      matching.find_matchings(past.graph, limit=1).matchings[0])
            assert flipped.residual(theta) < 1e-9 and flipped.slack(theta) > 0


@functools.cache
def _hyperelliptic_six_square_classes() -> list:
    """The 57 relabeling classes of 6 squares whose vertices are all zeros
    and whose rotation by pi acts as -1: the hyperelliptic components."""
    return [o for o in origami.transitive_pairs_up_to_relabeling(6)
            if zeros_only(o) and is_hyperelliptic(o)]


@settings(derandomize=True, max_examples=40, deadline=None)  # about 0.2 s
@given(st.deferred(lambda: st.sampled_from(_hyperelliptic_six_square_classes())),
       st.integers(0, 2**32 - 1))
def test_hyperelliptic_six_square_surfaces_carry_matchings(o, seed):
    # criterion 16 beyond 5 squares: a hyperelliptic origami under a random
    # linear map, made Delaunay, carries a matching whose region holds its
    # angles
    assert len(_hyperelliptic_six_square_classes()) == 57
    surface, _, degenerate = mapped_delaunay(o, random_gl_map(random.Random(seed)))
    assert degenerate == []
    assert matched_regions(surface)[1]


def _make_delaunay_by_full_rescan(surface, tol=1e-9):
    # the reference loop: every step recomputes every angle and every edge sum
    flips = []
    while True:
        theta = develop.angles_of(surface)
        worst, degenerate = None, []
        for e in surface.graph.edges:
            s = delaunay_sum(surface.graph, theta, e)
            if s > math.pi + tol and (worst is None or s > worst[1]):
                worst = (e, s)
            elif abs(s - math.pi) <= tol:
                degenerate.append(e)
        if worst is None:
            return surface, flips, degenerate
        surface = flip_rebuilding_the_graph(surface, worst[0])
        flips.append(worst[0])


def _hex_periods(surface):
    return [(h, z.real.hex(), z.imag.hex()) for h, z in surface.periods.items()]


@PROPERTY
@given(sheared_surfaces(max_shear=20.0))
def test_make_delaunay_matches_the_full_rescan_bit_for_bit(sheared):
    got, flips, degenerate = develop.make_delaunay(sheared)
    want, want_flips, want_degenerate = _make_delaunay_by_full_rescan(sheared)
    assert flips == want_flips
    assert degenerate == want_degenerate
    assert got.graph.faces == want.graph.faces and got.graph.edges == want.graph.edges
    assert _hex_periods(got) == _hex_periods(want)


def _triangles(surface):
    # each face as its edges and periods in cyclic order, rotated to start at its least edge
    out = []
    for f, bnd in surface.graph.faces:
        r = min(range(3), key=lambda k: bnd[k:] + bnd[:k])
        slots = [(r + k) % 3 for k in range(3)]
        out.append((tuple(bnd[k] for k in slots), [surface.periods[(f, k)] for k in slots]))
    return out


def _same_triangles(left, right, tol):
    """Whether the triangles pair up with equal edges and periods within ``tol``."""
    unmatched = list(left)
    for edges, periods in right:
        for i, (edges0, periods0) in enumerate(unmatched):
            if edges == edges0 and all(abs(z - w) < tol for z, w in zip(periods, periods0)):
                del unmatched[i]
                break
        else:
            return False
    return not unmatched


@PROPERTY
@given(sheared_surfaces())
def test_flip_edge_is_an_involution(sheared):
    surface, _, _ = develop.make_delaunay(sheared)
    before = _triangles(surface)
    for e in surface.graph.edges:
        try:
            once = flip_edge(surface, e)
        except ValueError as ex:
            assert "convex" in str(ex)
            continue
        assert once.graph.faces != surface.graph.faces
        twice = flip_edge(once, e)
        assert _same_triangles(_triangles(twice), before, 1e-12 * surface.scale())


@PROPERTY
@given(sheared_surfaces())
def test_make_delaunay_output_is_geometric_delaunay(sheared):
    surface, _, degenerate = develop.make_delaunay(sheared)
    if degenerate:
        with pytest.raises(develop.DegenerateTriangleError):
            develop.is_geometric_delaunay(surface)
    else:
        assert develop.is_geometric_delaunay(surface)


@PROPERTY
@given(sheared_surfaces(max_shear=20.0))
def test_make_delaunay_hands_on_the_angles_a_fresh_copy_solves(sheared):
    flipped, _, _ = develop.make_delaunay(sheared)
    fresh = develop.DevelopedSurface(flipped.graph, dict(flipped.periods))
    assert ([(c, a.hex()) for c, a in develop.angles_of(flipped).items()]
            == [(c, a.hex()) for c, a in develop.angles_of(fresh).items()])
    assert (_outcome(develop.is_geometric_delaunay, flipped)
            == _outcome(develop.is_geometric_delaunay, fresh))


def _is_geometric_delaunay_on_angle_dicts(surface, tol=1e-9):
    # the reference: angles_of, the angle-dict sum and the graph's occurrences
    theta = develop.angles_of(surface)
    p = surface.periods
    result = True
    for e in surface.graph.edges:
        s = delaunay_sum(surface.graph, theta, e)
        if abs(s - math.pi) < tol:
            raise develop.DegenerateTriangleError(f"degenerate Delaunay edge {e!r}")
        (f, k), (f2, k2) = occurrences(surface.graph, e)
        a, b, c, d = develop._quad(p[(f, k)], p[(f, (k + 1) % 3)], p[(f2, (k2 + 1) % 3)])
        check = circumcircle_cross_check((c, a, b, d), tol=tol)
        if not check["degenerate"] and not check["agree"]:
            raise AssertionError(f"angle/in-circle disagreement at edge {e!r}")
        if s >= math.pi:
            result = False
    return result


def _outcome(check, *args):
    try:
        return check(*args)
    except (develop.DegenerateTriangleError, AssertionError, KeyError) as ex:
        return type(ex), str(ex)


@PROPERTY
@given(sheared_surfaces())
def test_is_geometric_delaunay_matches_the_angle_dict_reference(sheared):
    flipped, _, _ = develop.make_delaunay(sheared)
    for surface in (sheared, flipped):
        expected = _outcome(_is_geometric_delaunay_on_angle_dicts, surface)
        assert _outcome(develop.is_geometric_delaunay, surface) == expected
        # the same outcome with the in-circle determinant taken by numpy
        with mock.patch.object(develop, "_incircle_det", incircle_det):
            assert _outcome(develop.is_geometric_delaunay, surface) == expected


@PROPERTY
@given(st.randoms(use_true_random=True))
def test_incircle_det_has_the_sign_of_the_numpy_determinant(rng):
    # 20 quads with coordinates up to a scale drawn from 1e-3 to 1e3, some
    # nearly cocircular: a unit square's corners, each moved by up to 1e-5
    for _ in range(20):
        size = 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.5:
            quad = [complex(rng.uniform(-size, size), rng.uniform(-size, size)) for _ in range(4)]
        else:
            quad = [size * complex(x + rng.uniform(-1e-5, 1e-5), y + rng.uniform(-1e-5, 1e-5))
                    for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))]
        a, b, c, d = quad
        want = incircle_det(a, b, c, d)
        if abs(want) > 1e-6 * max(abs(b - a), abs(c - a), abs(d - a)) ** 4:
            assert (develop._incircle_det(a, b, c, d) > 0) == (want > 0)


@st.composite
def obstructed(draw):
    """A random origami's graph with random angles closing every face, which
    almost never have trivial holonomy."""
    g = origami.build_origami_graph(draw(origamis()))
    rng = draw(st.randoms(use_true_random=True))
    theta = {}
    for f in g.face_ids:
        a, b = rng.uniform(0.3, 1.3), rng.uniform(0.3, 1.3)
        theta.update({(f, 0): a, (f, 1): b, (f, 2): math.pi - a - b})
    return g, theta


def _develop_from_both_sides(graph, theta, tol=1e-9):
    # the reference closure check: the residual from each side of every edge,
    # in half-edge order, and the periods as ``_hex_periods`` lists them when
    # no edge fails
    walk = ribbon.spanning_tree(graph)
    base = next(walk)
    periods = develop._fill_face(theta, base[0], base[1], 1.0 + 0.0j)
    for h, mate in walk:
        periods.update(develop._fill_face(theta, mate[0], mate[1], -periods[h]))
    scale = max(abs(z) for z in periods.values())
    for h in graph.half_edges():
        residual = abs(periods[other_side(graph, h)] + periods[h])
        if residual > tol * scale:
            return graph.edge_of(h), residual / scale
    return _hex_periods(develop.DevelopedSurface(graph, periods))


def _develop_outcome(graph, theta):
    try:
        return _hex_periods(develop.develop(graph, theta))
    except develop.HolonomyObstruction as ex:
        return ex.edge, ex.residual


@PROPERTY
@given(obstructed())
def test_holonomy_obstruction_matches_the_two_sided_reference(pair):
    g, theta = pair
    assert _develop_outcome(g, theta) == _develop_from_both_sides(g, theta)


@PROPERTY
@given(origamis())
def test_develop_at_standard_angles_matches_the_two_sided_reference(o):
    # the same periods, in the same order, to the bit
    g = origami.build_origami_graph(o)
    theta = origami.standard_angles(o)
    want = _develop_from_both_sides(g, theta)
    assert isinstance(want, list) and _develop_outcome(g, theta) == want
