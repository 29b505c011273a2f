"""Properties of the homology layer on generated surfaces.

Each example is a random transitive origami with at most 8 squares, taken
both as built and after a horizontal shear and Lawson flips to a Delaunay
triangulation.  Runs are derandomized, so every run checks the same
examples.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isodelaunay import develop, homology, origami, ribbon

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def graphs(draw):
    """The origami's graph and the graph of its sheared, Delaunay-flipped surface."""
    s = draw(st.integers(1, 8))
    h = tuple(draw(st.permutations(range(1, s + 1))))
    v = tuple(draw(st.permutations(range(1, s + 1))))
    assume(origami.is_transitive(h, v))
    o = origami.Origami(h, v)
    g = origami.build_origami_graph(o)
    surface = develop.develop(g, origami.standard_angles(o))
    t = draw(st.floats(0.1, 3.0))
    periods = {k: complex(z.real + t * z.imag, z.imag) for k, z in surface.periods.items()}
    flipped, _, _ = develop.make_delaunay(develop.DevelopedSurface(g, periods))
    return g, flipped.graph


@PROPERTY
@given(graphs())
def test_basis_has_rank_h1_cycles_each_with_its_own_half_edge(pair):
    for g in pair:
        basis = homology.cycle_basis(g)
        assert len(basis) == ribbon.topology(g)["rank_h1"]
        for i, alpha in enumerate(basis):
            assert not homology.boundary(g, alpha)
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
                c = homology.chain_add(c, alpha, k)
            assert homology.p_map(homology.phi(g, c)) == c


@PROPERTY
@given(graphs())
def test_pairing_vectors_negate_across_edges(pair):
    for g in pair:
        basis = homology.cycle_basis(g)
        for h in g.half_edges():
            v = homology.pairing_vector(g, basis, h)
            w = homology.pairing_vector(g, basis, ribbon.other_side(g, h))
            assert w == tuple(-x for x in v)
