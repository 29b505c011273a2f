"""Angle assignments and combinatorial holonomy."""

import cmath
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from chain_oracles import chain_add, chain_neg, other_side
from region_oracles import corner_holonomies
from isodelaunay import angles, homology, origami, region, ribbon, surgery


def test_validate_accepts_standard_and_equilateral(square_l, square_l_graph):
    angles.validate_angles(square_l_graph, origami.standard_angles(square_l))
    angles.validate_angles(square_l_graph, origami.equilateral_angles(square_l))


def test_validate_rejects_bad_range(torus, torus_graph):
    theta = origami.equilateral_angles(torus)
    theta[("f1-", 0)] -= math.pi / 2  # negative, but face sum still pi
    theta[("f1-", 1)] += math.pi / 2
    with pytest.raises(ValueError):
        angles.validate_angles(torus_graph, theta)


def test_validate_rejects_bad_face_sum(torus, torus_graph):
    theta = origami.equilateral_angles(torus)
    theta[("f1-", 0)] += 0.01
    with pytest.raises(ValueError):
        angles.validate_angles(torus_graph, theta)


def test_json_round_trip(square_l, square_l_graph):
    theta = origami.standard_angles(square_l)
    again = ribbon.he_map_from_json(ribbon.he_map_to_json(theta, float), float)
    assert again == theta


def rotational(theta, a) -> complex:
    """Product of exp(i * theta(c)) ** coeff over the corners c of the chain."""
    out = 1.0 + 0j
    for c, coeff in a.items():
        out *= cmath.rect(1.0, theta[c]) ** coeff
    return out


def dilational(theta, a) -> float:
    """Product of the opposite-sine ratios sin(theta at s+1) / sin(theta at s+2)."""
    out = 1.0
    for (f, slot), coeff in a.items():
        ratio = math.sin(theta[(f, (slot + 1) % 3)]) / math.sin(theta[(f, (slot + 2) % 3)])
        out *= ratio**coeff
    return out


def test_holonomy_decomposes_into_rotation_and_dilation(square_l, square_l_graph):
    g = square_l_graph
    theta = origami.standard_angles(square_l)
    for alpha in homology.cycle_basis(g):
        a = homology.phi(g, alpha)
        hol = angles.holonomy(g, theta, alpha)
        expected = dilational(theta, a) * rotational(theta, a)
        assert abs(hol.value - expected) < 1e-12
        assert abs(hol.modulus - math.exp(hol.log_modulus)) < 1e-12


def test_holonomy_is_homomorphism(torus_graph):
    # a generic point of angle space, not holonomy-trivial
    theta = {
        ("f1-", 0): 0.9,
        ("f1-", 1): 1.1,
        ("f1-", 2): math.pi - 2.0,
        ("f1+", 0): 0.7,
        ("f1+", 1): 1.4,
        ("f1+", 2): math.pi - 2.1,
    }
    angles.validate_angles(torus_graph, theta)
    a, b = homology.cycle_basis(torus_graph)
    hol_a = angles.holonomy(torus_graph, theta, a).value
    hol_b = angles.holonomy(torus_graph, theta, b).value
    hol_ab = angles.holonomy(torus_graph, theta, chain_add(a, b)).value
    assert abs(hol_ab - hol_a * hol_b) < 1e-9


def test_origami_angles_have_trivial_holonomy(square_l, prym):
    for o in (square_l, prym):
        g = origami.build_origami_graph(o)
        for theta in (origami.standard_angles(o), origami.equilateral_angles(o)):
            assert angles.is_trivial_holonomy(g, theta, homology.cycle_basis(g))


def test_generic_angles_are_not_holonomy_trivial(torus_graph):
    theta = {
        ("f1-", 0): 0.9,
        ("f1-", 1): 1.1,
        ("f1-", 2): math.pi - 2.0,
        ("f1+", 0): 0.7,
        ("f1+", 1): 1.4,
        ("f1+", 2): math.pi - 2.1,
    }
    assert not angles.is_trivial_holonomy(torus_graph, theta, homology.cycle_basis(torus_graph))


def test_holonomy_value_distance_to_one():
    one = angles.HolonomyValue(0.0, 0.0)
    assert one.distance_to_one() == 0.0
    assert abs(one.value - 1.0) == 0.0
    v = angles.HolonomyValue(math.log(2.0), math.pi / 2)
    assert abs(v.value - 2j) < 1e-12


def test_holonomy_inverse_on_negated_cycle(torus_graph):
    theta = {
        ("f1-", 0): 0.9,
        ("f1-", 1): 1.1,
        ("f1-", 2): math.pi - 2.0,
        ("f1+", 0): 0.7,
        ("f1+", 1): 1.4,
        ("f1+", 2): math.pi - 2.1,
    }
    a = homology.cycle_basis(torus_graph)[0]
    hol = angles.holonomy(torus_graph, theta, a).value
    hol_inv = angles.holonomy(torus_graph, theta, chain_neg(a)).value
    assert abs(hol * hol_inv - 1.0) < 1e-12


def test_a_non_cycle_in_the_basis_raises_instead_of_returning(torus_graph):
    theta = {
        ("f1-", 0): 0.9,
        ("f1-", 1): 1.1,
        ("f1-", 2): math.pi - 2.0,
        ("f1+", 0): 0.7,
        ("f1+", 1): 1.4,
        ("f1+", 2): math.pi - 2.1,
    }
    a = homology.cycle_basis(torus_graph)[0]
    assert angles.holonomy(torus_graph, theta, a).distance_to_one() > 1e-3
    # the non-cycle comes after a cycle of nontrivial holonomy, so a check
    # that stops at the first nontrivial cycle would return False instead
    basis = [a, {("f1-", 0): 1}]
    with pytest.raises(ValueError, match="not a cycle"):
        angles.is_trivial_holonomy(torus_graph, theta, basis)
    with pytest.raises(ValueError, match="not a cycle"):
        angles.holonomies(torus_graph, theta, basis)
    with pytest.raises(ValueError, match="not a cycle"):
        angles.holonomy(torus_graph, theta, {("f1-", 0): 1})


def test_chains_balanced_only_at_edges_or_only_at_faces_are_not_cycles(torus):
    g = origami.build_origami_graph(torus)
    theta = origami.standard_angles(torus)
    h = ("f1-", 0)
    mate = other_side(g, h)
    assert mate[0] != h[0] and g.edge_of(h) != g.edge_of(("f1-", 1))
    for chain in ({h: 1, mate: -1}, {("f1-", 0): 1, ("f1-", 1): -1}):
        with pytest.raises(ValueError, match="not a cycle"):
            homology.phi(g, chain)
        with pytest.raises(ValueError, match="not a cycle"):
            angles.holonomy(g, theta, chain)
        with pytest.raises(ValueError, match="not a cycle"):
            angles.holonomies(g, theta, [chain])
        with pytest.raises(ValueError, match="not a cycle"):
            angles.is_trivial_holonomy(g, theta, [chain])


def _random_angles(graph, rng):
    """A point of angle space: each face's three corners are positive and sum to pi."""
    theta = {}
    for f, _ in graph.faces:
        w = [rng.random() + 0.05 for _ in range(3)]
        for s in range(3):
            theta[(f, s)] = math.pi * w[s] / sum(w)
    return theta


def test_holonomy_of_one_cycle_matches_the_whole_basis(square_l_graph, prym_graph):
    # holonomy reads each basis cycle's corner chain table one cycle at a
    # time, holonomies the same tables with each corner's log-sine ratio
    # shared, so the two must agree to the last bit
    rng = random.Random(19)
    for g in (square_l_graph, prym_graph):
        basis = homology.cycle_basis(g)
        for _ in range(50):
            theta = _random_angles(g, rng)
            whole = angles.holonomies(g, theta, basis)
            for alpha, hol in zip(basis, whole):
                one = angles.holonomy(g, theta, alpha)
                assert (one.log_modulus.hex(), one.phase.hex()) == (
                    hol.log_modulus.hex(), hol.phase.hex())


def test_a_non_cycle_raises_on_every_call(torus):
    g = origami.build_origami_graph(torus)
    theta = origami.standard_angles(torus)
    for _ in range(2):
        with pytest.raises(ValueError, match="not a cycle"):
            angles.holonomy(g, theta, {("f1-", 0): 1})


def test_a_cycle_mutated_after_a_call_gets_the_holonomy_of_its_new_contents(torus):
    g = origami.build_origami_graph(torus)
    rng = random.Random(3)
    theta = _random_angles(g, rng)
    a, b = homology.cycle_basis(g)
    cycle = dict(a)
    assert angles.holonomy(g, theta, cycle) == angles.holonomies(g, theta, [a])[0]
    cycle.clear()
    cycle.update(chain_add(a, b))
    assert angles.holonomy(g, theta, cycle) == angles.holonomies(g, theta, [chain_add(a, b)])[0]
    assert angles.holonomy(g, theta, cycle) != angles.holonomy(g, theta, a)
    cycle[("f1-", 0)] = cycle.get(("f1-", 0), 0) + 1  # no longer a cycle
    with pytest.raises(ValueError, match="not a cycle"):
        angles.holonomy(g, theta, cycle)


def _region_graph(inp):
    """The graph and matching of a region_pipeline input, as its op builds them."""
    parts = [(origami.build_origami_graph(o), origami.canonical_matching(o)) for o in inp.origamis]
    if inp.glue is None:
        return parts[0]
    (gl, il), (gr, ir) = parts
    return surgery.sum_matchings(gl, inp.glue[0], il, gr, inp.glue[1], ir)


def _hex(value):
    return value.log_modulus.hex(), value.phase.hex()


def test_holonomy_tables_match_the_corner_chain_kernel_on_region_samples(monkeypatch):
    # the first 24 seed-1 inputs of the region_pipeline benchmark, each at its
    # 20 samples: the table that the basis walk emits for each basis cycle
    # gives the bits of corner_holonomies on the freshly solved chain, for
    # the basis cycles, a sum of two and a negation
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py")
    bench_inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench_inputs)  # its dataclasses look it up
    spec.loader.exec_module(bench_inputs)
    for k, inp in enumerate(bench_inputs.region_inputs(1)[:24]):
        g, iota = _region_graph(inp)
        basis = homology.cycle_basis(g)
        cycles = basis + [chain_add(basis[0], basis[-1]), chain_neg(basis[1])]
        chains = [homology.phi(g, alpha) for alpha in cycles]
        samples = region.sample(region.build_polytope(g, iota), 20, seed=inp.sample_seed)
        assert len(samples) == 20
        for theta in samples:
            expected = [_hex(value) for value in corner_holonomies(theta, chains)]
            assert [_hex(value) for value in angles.holonomies(g, theta, cycles)] == expected
            for alpha, want in zip(cycles, expected):
                assert _hex(angles.holonomy(g, theta, alpha)) == want
        if k == 0:
            # a copy of a basis cycle changed by its caller is solved
            # afresh, and a non-cycle raises on every call
            cycle = dict(basis[0])
            angles.holonomy(g, samples[0], cycle)
            cycle.clear()
            cycle.update(cycles[-2])
            assert _hex(angles.holonomy(g, samples[1], cycle)) == _hex(
                corner_holonomies(samples[1], [chains[-2]])[0])
            cycle[next(iter(cycle))] += 1
            for _ in range(2):
                with pytest.raises(ValueError, match="not a cycle"):
                    angles.holonomy(g, samples[1], cycle)


def test_holonomy_finds_a_basis_table_by_content(prym_graph):
    g = prym_graph
    rng = random.Random(5)
    theta = _random_angles(g, rng)
    basis = homology.cycle_basis(g)
    cycles = [basis[0], chain_add(basis[1], chain_neg(basis[2]))]
    expected = [_hex(corner_holonomies(theta, [homology.phi(g, a)])[0]) for a in cycles]
    assert expected[0] != expected[1]
    # the same dict, called again and again
    for _ in range(3):
        assert _hex(angles.holonomy(g, theta, cycles[0])) == expected[0]
    # one dict whose contents change between calls
    cycle = {}
    for k in range(6):
        cycle.clear()
        cycle.update(cycles[k % 2])
        assert _hex(angles.holonomy(g, theta, cycle)) == expected[k % 2]
    # short-lived dicts of alternating contents, so that a freed dict's id
    # comes back holding the other cycle
    seen: dict[int, set] = {}
    for k in range(200):
        alpha = dict(cycles[k % 2])
        seen.setdefault(id(alpha), set()).add(k % 2)
        assert _hex(angles.holonomy(g, theta, alpha)) == expected[k % 2]
        del alpha
    assert any(len(contents) == 2 for contents in seen.values())
    # a basis cycle listed in another order is equal to it but starts at
    # another half-edge, so it misses the bucket and is solved afresh, to
    # the same bits
    reordered = dict(reversed(cycles[0].items()))
    assert reordered == cycles[0] and next(iter(reordered)) != next(iter(cycles[0]))
    assert _hex(angles.holonomy(g, theta, reordered)) == expected[0]
    value = angles.holonomy(g, theta, cycles[0])
    assert isinstance(value, angles.HolonomyValue) and repr(value) == (
        f"HolonomyValue(log_modulus={value.log_modulus!r}, phase={value.phase!r})")
    with pytest.raises(AttributeError):
        value.phase = 0.0


def test_a_graph_keeps_at_most_one_chain_table_per_basis_cycle(prym, monkeypatch):
    # 3,300 calls at 5 samples: fresh copies of the basis cycles and of sums
    # of two of them, which are not basis cycles, and one dict whose
    # contents change between calls.  The graph keeps the table that the
    # basis walk emitted for each basis cycle, so phi never solves a basis
    # cycle, and nothing about any other cycle, which phi solves on every
    # call; every value keeps the bits of the corner chain kernel
    g = origami.build_origami_graph(prym)
    basis = homology.cycle_basis(g)
    others = [chain_add(basis[k], basis[k + 1]) for k in range(len(basis) - 1)]
    cycles = basis + others
    chains = [homology.phi(g, alpha) for alpha in cycles]
    solved = []
    phi = homology.phi
    monkeypatch.setattr(homology, "phi",
                        lambda graph, cycle: solved.append(dict(cycle)) or phi(graph, cycle))
    rng = random.Random(7)
    changing: dict = {}
    calls = 0
    for _ in range(5):
        theta = _random_angles(g, rng)
        expected = [_hex(value) for value in corner_holonomies(theta, chains)]
        for _ in range(30):
            for k, alpha in enumerate(cycles):
                assert _hex(angles.holonomy(g, theta, dict(alpha))) == expected[k]
                changing.clear()
                changing.update(cycles[-1 - k])
                assert _hex(angles.holonomy(g, theta, changing)) == expected[-1 - k]
                calls += 2
        assert [_hex(value) for value in angles.holonomies(g, theta, basis)] == expected[:len(basis)]
    assert calls == 3300
    entries = [entry for bucket in g._basis_chains.values() for entry in bucket]
    assert sorted(map(id, (alpha for alpha, _ in entries))) == sorted(map(id, g._cycle_basis))
    assert not any(s == alpha for s in solved for alpha in basis)
    assert [sum(s == alpha for s in solved) for alpha in others] == [300] * len(others)
    assert len(solved) == 300 * len(others)
