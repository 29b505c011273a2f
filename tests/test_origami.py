"""Square-tiled surface constructions and cylinder networks."""

import itertools
import math
import random
import tracemalloc

import pytest

from isodelaunay import angles, matching, origami, ribbon
from origami_oracles import (centralizer_by_filter, least_of_each_cycle_type_by_filter,
                             network_by_dicts, pairs_by_bfs_keys, tree_count_holds)


def parse_permutation(text, size):
    return origami._image(origami._parse_cycles(text), size)


def test_parse_permutation_cycle_notation():
    assert parse_permutation("(12)", 3) == (2, 1, 3)
    assert parse_permutation("(12)(3)", 3) == (2, 1, 3)
    assert parse_permutation("()", 2) == (1, 2)
    assert parse_permutation("(1 2 10)", 10)[0] == 2
    with pytest.raises(ValueError):
        parse_permutation("(11)", 2)
    with pytest.raises(ValueError):
        parse_permutation("(12", 2)


def test_from_spec_requires_transitivity():
    with pytest.raises(ValueError):
        origami.Origami.from_spec("h=(12);v=(12)(3)(4)")


@pytest.mark.parametrize("h, v, name", [
    ((1, 1), (2, 2), "h"),
    ((3, 1), (1, 2), "h"),
    ((0, 1), (2, 1), "h"),
    ((2, 1), (2, 2), "v"),
], ids=["repeated", "out-of-range", "zero", "v-repeated"])
def test_origami_rejects_a_tuple_that_is_not_a_permutation(h, v, name):
    with pytest.raises(ValueError, match=rf"^{name} = .* is not a permutation of 1\.\.2$"):
        origami.Origami(h, v)


def test_origami_rejects_h_and_v_of_different_lengths_and_the_empty_pair():
    with pytest.raises(ValueError, match="^h and v act on different numbers of squares$"):
        origami.Origami((2, 1), (1,))
    assert not origami.is_transitive((), ())
    with pytest.raises(ValueError, match="do not act transitively"):
        origami.Origami((), ())


def test_permutation_cycles():
    cycles = origami.permutation_cycles((2, 1, 3))
    assert sorted(map(sorted, cycles)) == [[1, 2], [3]]


def test_graph_shape(square_l_graph):
    # three squares: 9 edges, 6 triangles
    assert len(square_l_graph.edges) == 9
    assert len(square_l_graph.face_ids) == 6
    assert ribbon.validate(square_l_graph).ok


def test_standard_angles_right_isosceles(torus, torus_graph):
    theta = origami.standard_angles(torus)
    angles.validate_angles(torus_graph, theta)
    values = sorted(theta.values())
    assert values.count(math.pi / 2) == 2 and values.count(math.pi / 4) == 4


def test_equilateral_angles(square_l, square_l_graph):
    theta = origami.equilateral_angles(square_l)
    angles.validate_angles(square_l_graph, theta)
    assert all(abs(x - math.pi / 3) < 1e-15 for x in theta.values())


def test_network_golden(square_l, prym, staircase):
    net_l = origami.network(square_l)
    assert (len(net_l.horizontal), len(net_l.vertical)) == (2, 2)
    assert net_l.geometrically_simple and net_l.arboreal

    net_p = origami.network(prym)
    assert (len(net_p.horizontal), len(net_p.vertical)) == (3, 3)
    assert net_p.arboreal

    net_e = origami.network(staircase)
    # 3 + 3 = 6 != 6 + 1: tree count fails
    assert (len(net_e.horizontal), len(net_e.vertical)) == (3, 3)
    assert net_e.geometrically_simple and not net_e.arboreal


def test_network_equals_the_dict_reference_on_every_class_and_a_relabeling():
    # each class with at most 6 squares as listed, and under one seeded
    # relabeling, which moves the cylinders' order and their members
    rng = random.Random(35)
    checked = 0
    for s in range(1, 7):
        for o in origami.transitive_pairs_up_to_relabeling(s):
            g = list(range(1, s + 1))
            rng.shuffle(g)
            g_inv = {x: j for j, x in enumerate(g, start=1)}
            # g p g^-1, which relabels each square j as g(j)
            relabeled = origami.Origami(*(tuple(g[p[g_inv[x] - 1] - 1] for x in range(1, s + 1))
                                          for p in (o.h, o.v)))
            for case in (o, relabeled):
                assert origami.network(case) == network_by_dicts(case)
                checked += 1
    assert checked == 2 * (1 + 3 + 7 + 26 + 97 + 624)


def test_arboreal_iff_cycle_count_identity():
    for s in range(1, 5):
        for o in origami.transitive_pairs_up_to_relabeling(s):
            net = origami.network(o)
            if not net.geometrically_simple:
                continue
            identity = tree_count_holds(o)
            assert net.arboreal == identity


def test_lambda_is_connected_and_arboreal_iff_tree():
    # the intersection graph Lambda: one vertex per cylinder, one edge per square
    for s in range(1, 5):
        for o in origami.transitive_pairs_up_to_relabeling(s):
            net = origami.network(o)
            n_h = len(net.horizontal)
            ends = {}
            for i, cyc in enumerate(net.horizontal + net.vertical):
                for j in cyc:
                    ends.setdefault(j, []).append(i)
            adj = {x: set() for x in range(n_h + len(net.vertical))}
            for a, b in ends.values():
                adj[a].add(b)
                adj[b].add(a)
            seen, stack = {0}, [0]
            while stack:
                for y in adj[stack.pop()] - seen:
                    seen.add(y)
                    stack.append(y)
            assert len(seen) == len(adj)
            assert net.arboreal == (len(ends) == len(adj) - 1)


def test_canonical_matching_valid_for_arboreal(square_l, prym):
    for o in (square_l, prym):
        g = origami.build_origami_graph(o)
        iota = origami.canonical_matching(o)
        assert matching.verify_matching(g, iota).ok


def test_canonical_matching_invalid_for_staircase(staircase, staircase_graph):
    iota = origami.canonical_matching(staircase)
    assert not matching.verify_matching(staircase_graph, iota).ok


@pytest.fixture(scope="module")
def classes():
    return {s: origami.transitive_pairs_up_to_relabeling(s) for s in range(1, 8)}


def test_transitive_pair_class_counts(classes):
    # OEIS A057005
    assert [len(classes[s]) for s in range(1, 8)] == [1, 3, 7, 26, 97, 624, 4163]


def _least_conjugate(h, v):
    s = len(h)
    conjugates = []
    for g in itertools.permutations(range(1, s + 1)):
        g_inv = {x: j for j, x in enumerate(g, start=1)}
        conjugates.append((
            tuple(g[h[g_inv[x] - 1] - 1] for x in range(1, s + 1)),
            tuple(g[v[g_inv[x] - 1] - 1] for x in range(1, s + 1)),
        ))
    return min(conjugates)


@pytest.mark.parametrize("s", [0, -1])
def test_no_squares_give_no_pairs(s):
    assert origami.transitive_pairs_up_to_relabeling(s) == []


@pytest.mark.parametrize("s", range(1, 8))
def test_the_identity_has_one_class_and_it_comes_first(classes, s):
    # C(id) = Sym(s), so (id, v) is least iff v is the least of its cycle
    # type, and <id, v> is transitive iff v is an s-cycle
    identity = tuple(range(1, s + 1))
    assert (classes[s][0].h, classes[s][0].v) == (identity, tuple(range(2, s + 1)) + (1,))
    assert all(o.h != identity for o in classes[s][1:])


# the BFS-key reference is too slow at 7 squares; the class counts pin s = 7
@pytest.mark.parametrize("s", range(1, 7))
def test_enumeration_equals_the_bfs_key_reference(classes, s):
    assert [(o.h, o.v) for o in classes[s]] == pairs_by_bfs_keys(s)


@pytest.mark.parametrize("s", range(1, 7))
def test_cycle_types_and_centralizers_are_built_as_the_filter_finds_them(s):
    # the enumeration builds the least permutation of each cycle type and
    # each centralizer directly; filtering Sym(s) gives the same lists, in
    # the same order
    least = origami._least_of_each_cycle_type(s)
    assert least == least_of_each_cycle_type_by_filter(s)
    for h in least:
        assert origami._centralizer(h) == centralizer_by_filter(h)


@pytest.mark.parametrize("s", range(1, 6))
def test_class_representatives_are_least_pairs_in_order(classes, s):
    # with the class count, this pins the list: every least transitive pair
    # of a class, in increasing (h, v) order
    pairs = [(o.h, o.v) for o in classes[s]]
    assert all(a < b for a, b in zip(pairs, pairs[1:]))
    for h, v in pairs:
        assert origami.is_transitive(h, v)
        assert _least_conjugate(h, v) == (h, v)


def test_arboreal_sweep_for_six_and_seven_squares(classes):
    checked = {6: 0, 7: 0}
    mismatches = []
    for s in (6, 7):
        for o in classes[s]:
            net = origami.network(o)
            if not net.geometrically_simple:
                continue
            checked[s] += 1
            result = matching.find_matchings(origami.build_origami_graph(o), limit=1)
            assert result.complete
            identity = tree_count_holds(o)
            if not (net.arboreal == identity == bool(result.matchings)):
                mismatches.append((o.h, o.v))
    assert checked == {6: 47, 7: 127}
    assert mismatches == []


def test_from_spec_rejects_an_unmentioned_range_before_allocating():
    # symbol 1000000 with only two squares mentioned: reject before building images
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            origami.Origami.from_spec("h=(1,1000000);v=()")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
