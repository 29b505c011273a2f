"""The Delaunay angle polytope and its analysis.

The region cut out by a matching is the set of invariant angle assignments
whose opposite-angle sum at every edge stays below pi.  Strict inequalities
are handled by slack maximization, whose optimum is known in closed form.
The slack of a point is at most its least angle, which is at most pi/3
because every face sums to pi.  The equilateral point theta = pi/3 meets
every face and orbit equality and has Delaunay sums of 2 pi/3, so its slack
is pi/3, and it is the only point with that slack.  ``analyze`` reports
this equilateral optimum, certified against the constraints once per
polytope.

``sample`` runs a coordinate hit-and-run walk from that point with one
variable per iota-orbit of corners, so every sample is iota-invariant bit
for bit.  By the lemma of ``build_polytope`` the region is a product of one
plane per face orbit, cut by rows that couple at most two planes.  A step
picks a plane uniformly, a uniform direction in it, and a uniform point on
the chord that the rows touching the plane leave open: a few rows and no
matrix.  ``sample`` compiles each row once per call into a flat tuple, a
one-term row padded with a spare orbit held at 0.0, and refuses a
hand-built polytope with no plane, an orbit outside every plane, a row of
more than two terms, or a row of two terms in one plane.  The schedule is
counted in steps: ``BURN_IN_PER_DIM`` per dimension of burn-in, then one
sample kept every ``STRIDE``.  All randomness is drawn from
``random.Random(seed).random()``, whose stream Python keeps fixed across
versions, and turned into directions with ``+``, ``*`` and ``sqrt`` alone,
so the samples of a seed depend on no numerical library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import matching as matching_mod
from .angles import TOL, AngleAssignment
from .ribbon import Corner, TriRibbonGraph, orbits


def opposite_corner(h) -> Corner:
    """The corner of face h[0] opposite the edge of ``h`` (slot + 1)."""
    return (h[0], (h[1] + 1) % 3)


@dataclass
class RegionPolytope:
    """A region's constraint system over corner variables.

    A polytope is never changed after it is built (``dataclasses.replace``
    builds a new one), so its optimum, once certified, stays certified.
    """

    corners: list[Corner]
    # equalities: sparse integer rows ax = b
    eq_rows: list[dict[Corner, float]]
    eq_rhs: list[float]
    # strict inequalities: rows with ax < b, slack b - ax to be kept positive
    ineq_rows: list[dict[Corner, float]]
    ineq_rhs: list[float]
    # index of each corner's iota-orbit: the sampler's variables
    orbit_of: dict[Corner, int]
    # the sampler's plane blocks: the sorted orbit triple of each face orbit,
    # three distinct orbits, in ascending order
    planes: list[tuple[int, int, int]]
    # the certified (theta, slack) of ``optimum``, kept once its certificate passes
    _optimum: tuple[AngleAssignment, float] | None = field(default=None, init=False,
                                                           repr=False, compare=False)

    @property
    def n_vars(self) -> int:
        return len(self.corners)

    @property
    def dimension(self) -> int:
        """Affine dimension of the equality subspace: two per plane."""
        return 2 * len(self.planes)

    def slack(self, theta: AngleAssignment) -> float:
        """Least inequality slack of a point (negative when violated)."""
        return min(
            b - sum(c * theta[k] for k, c in row.items())
            for row, b in zip(self.ineq_rows, self.ineq_rhs)
        )

    def equality_residual(self, theta: AngleAssignment) -> float:
        return max(
            abs(sum(c * theta[k] for k, c in row.items()) - b)
            for row, b in zip(self.eq_rows, self.eq_rhs)
        )

    @property
    def optimum(self) -> tuple[AngleAssignment, float]:
        """The equilateral point theta = pi/3 and its recomputed slack.

        Certified on the first call, as every polytope ``build_polytope``
        makes passes: its equality residual and the distance of its slack
        from pi/3 must be within ``angles.TOL``.  A point that passes is
        kept and handed out as a fresh copy; one that fails raises
        ``RuntimeError`` on every call.
        """
        if self._optimum is None:
            theta = {c: math.pi / 3 for c in self.corners}
            residual = self.equality_residual(theta)
            slack = self.slack(theta)
            if residual > TOL or abs(slack - math.pi / 3) > TOL:
                raise RuntimeError(
                    f"equilateral point fails its certificate: equality residual {residual:.3e}, "
                    f"slack {slack!r} instead of pi/3"
                )
            self._optimum = theta, slack
        theta, slack = self._optimum
        return dict(theta), slack


def build_polytope(
    graph: TriRibbonGraph,
    iota: matching_mod.TriangleMatching,
) -> RegionPolytope:
    """Constraint system over corner variables for a verified matching.

    The equalities are one row per face (angles sum to pi, faces sorted),
    then one row theta(c) = theta(iota(c)) per corner pair that iota moves,
    in corner order.  The orbit rows leave one variable per iota-orbit of
    corners.  The face rows of one face orbit then coincide, and rows of
    different face orbits have disjoint supports, so each face orbit is a
    plane theta_a + theta_b + theta_c = pi over its three corner orbits.

    The inequalities are one positivity row -theta(c) < 0 per corner, in
    corner order, then one Delaunay row per edge, in edge order.

    Lemma.  A cycle sums to 0 over a face's three half-edges and is
    opposite on an edge's two sides; a fundamental cycle meets a face as a
    permutation of (1, -1, 0) or not at all.  (a) If iota^k sends face f to
    itself shifted by a nonzero slot, every cycle's three coefficients on f
    are equal up to sign and sum to 0, so they are 0: f's edges are bridges.
    (b) A graph with a bridge has no matching: a leaf 2-edge-connected
    component meets its bridge at one face g, of pairing triple (0, x, -x)
    with x != 0; iota(g) has a zero slot too and shares g's cycles, so
    iota(g) = g, and an offset of 0, or (a), forces x = 0.  So every face
    orbit is a plane of three orbits.  (c) On an edge between f and
    g = iota^k(f) whose opposite corners lie in two orbits, f's triple is
    (x, -x, 0), a bridge, or (x, x, -2x), which no fundamental cycle makes:
    no Delaunay row has two terms in one plane.  A triple that repeats an
    orbit raises AssertionError, an implementation fault.
    """
    report = matching_mod.verify_matching(graph, iota)
    if not report:
        raise ValueError("build_polytope requires a verified matching: " + "; ".join(report.problems))
    corners = graph.half_edges()
    faces = sorted(graph.face_ids)
    eq_rows: list[dict] = [{(f, s): 1 for s in range(3)} for f in faces]
    eq_rhs = [math.pi] * len(faces)
    seen = set()
    for c in corners:
        img = iota[c]
        if img == c or (img, c) in seen:
            continue
        seen.add((c, img))
        eq_rows.append({c: 1, img: -1})
        eq_rhs.append(0.0)
    orbit_of = {c: i for i, orbit in enumerate(orbits(corners, iota.__getitem__)) for c in orbit}
    planes = sorted({tuple(sorted(orbit_of[(f, s)] for s in range(3))) for f in faces})
    for t in planes:
        if len(set(t)) < 3:
            raise AssertionError(f"face orbit triple {t} repeats an orbit (implementation fault)")

    # -theta(c) < 0, then the two distinct corners opposite each edge
    ineq_rows = [{c: -1.0} for c in corners] + [
        {opposite_corner(h): 1.0 for h in graph.occurrences(e)} for e in graph.edges]
    ineq_rhs = [0.0] * len(corners) + [math.pi] * len(graph.edges)
    return RegionPolytope(corners, eq_rows, eq_rhs, ineq_rows, ineq_rhs, orbit_of, planes)


@dataclass
class RegionReport:
    feasible: bool
    slack: float
    interior_point: AngleAssignment
    dimension: int


def analyze(polytope: RegionPolytope) -> RegionReport:
    """The certified equilateral optimum and the polytope's affine dimension.

    Feasible (with interior) iff the optimum slack is positive.
    """
    theta, slack = polytope.optimum
    return RegionReport(slack > 0, slack, theta, polytope.dimension)


# hit-and-run schedule: burn-in block steps per dimension, block steps
# between kept samples, and the least slack every sample keeps on every
# inequality; MARGIN is not ``angles.TOL``, as it is part of the walk and
# so sets the bits of every sample
BURN_IN_PER_DIM = 50
STRIDE = 10
MARGIN = 1e-9


def _collapse(row: dict[Corner, float], orbit_of: dict[Corner, int]) -> tuple:
    """A corner row of one or two terms in orbit coordinates: sorted (orbit,
    coefficient) pairs, two terms in one orbit summed.  A zero coefficient
    stays: the walk reads its rates as 0.0 and its room as the bound, to the
    bit.  ValueError for a wider row."""
    if len(row) > 2:
        raise ValueError(f"row {row} has more than two terms")
    if len(row) == 1:
        ((c, v),) = row.items()
        return ((orbit_of[c], v),)
    (ca, va), (cb, vb) = row.items()
    oa, ob = orbit_of[ca], orbit_of[cb]
    if oa == ob:
        return ((oa, va + vb),)
    return ((oa, va), (ob, vb)) if oa < ob else ((ob, vb), (oa, va))


# the orthonormal basis of every plane block's directions, as Gram-Schmidt
# on the unit vectors after (1, 1, 1) / sqrt(3) gives it (``null_basis`` in
# tests/region_oracles.py), with the rounding residue in its second vector
_PLANE = ((0.8164965809277258, -0.40824829046386313, -0.40824829046386313),
          (-3.9252311467094373e-16, 0.7071067811865474, -0.7071067811865477))


def _blocks(polytope: RegionPolytope) -> list[tuple]:
    """The walk's blocks, one per plane of ``polytope.planes``: (triples,
    rows), an (orbit, w0, w1) triple per orbit with its entries in the two
    vectors of ``_PLANE``, and each inequality row touching the block as
    (r0, r1, bound, oa, va, ob, vb): its rates along the two vectors, its
    right-hand side less ``MARGIN``, and its (orbit, coefficient) terms, a
    one-term row padded with the spare orbit ``ob`` = number of orbits and
    ``vb`` = 0.0.  ValueError for a polytope with no plane, with an orbit
    that no plane holds, or with a row of two terms in one plane, none of
    which ``build_polytope`` makes."""
    orbit_of = polytope.orbit_of
    planes = polytope.planes
    if not planes:
        raise ValueError("polytope has no plane to walk")
    spare = ((max(orbit_of.values()) + 1, 0.0),)
    # each orbit's block and its index in the block's triple: the entry of
    # ``_PLANE``'s vectors it reads
    place = {o: (b, i) for b, plane in enumerate(planes) for i, o in enumerate(plane)}
    outside = sorted(set(orbit_of.values()) - place.keys())
    if outside:
        raise ValueError(f"orbit {outside[0]} lies in no plane")
    rows: list[list[tuple]] = [[] for _ in planes]
    ineqs = dict.fromkeys(
        (_collapse(row, orbit_of), b) for row, b in zip(polytope.ineq_rows, polytope.ineq_rhs)
    )
    u0, u1 = _PLANE
    for terms, b in ineqs:
        (oa, va), (ob, vb) = (terms + spare)[:2]
        row = (b - MARGIN, oa, va, ob, vb)
        if len(terms) == 2 and place[oa][0] == place[ob][0]:
            raise ValueError(f"row {terms} < {b} has two terms in the plane {planes[place[oa][0]]}")
        # a rate adds the product to 0.0, as the reference walk in
        # tests/region_oracles.py does, so a -0.0 product reads 0.0
        for o, v in terms:
            blk, i = place[o]
            rows[blk].append((0.0 + v * u0[i], 0.0 + v * u1[i], *row))
    return [(tuple(zip(plane, *_PLANE)), block_rows) for plane, block_rows in zip(planes, rows)]


def sample(polytope: RegionPolytope, n: int, seed: int = 0) -> list[AngleAssignment]:
    """Coordinate hit-and-run samples from the interior, deterministic per
    seed; the module docstring describes the walk.

    Each sample gives every corner the value of its orbit, so it is
    iota-invariant exactly, and keeps slack ``MARGIN`` on every inequality.
    The walk starts at ``polytope.optimum``, certified once per polytope.
    ValueError if ``n`` is negative, or as ``_blocks`` refuses.
    """
    if n < 0:
        raise ValueError(f"sample count must be at least 0, got {n}")
    if n == 0:
        return []
    polytope.optimum  # certifies the start, the equilateral point, or raises
    blocks = _blocks(polytope)
    n_blocks = len(blocks)
    rand = random.Random(seed).random
    sqrt, inf = math.sqrt, math.inf
    third = math.pi / 3
    # one value per orbit, and the spare slot that pads one-term rows
    y = [third] * (max(polytope.orbit_of.values()) + 1) + [0.0]
    # each block's offset from the start in its basis; y is recomputed from
    # it, so rounding does not pile up on the face sums as the walk goes on
    z = [[0.0, 0.0] for _ in blocks]
    corner_orbits = [polytope.orbit_of[c] for c in polytope.corners]
    out = []
    burn_in = BURN_IN_PER_DIM * polytope.dimension
    keep = burn_in + STRIDE - 1  # the next step whose point is kept
    for step in range(burn_in + STRIDE * n):
        b = int(rand() * n_blocks)
        triples, rows = blocks[b]
        r2 = 0.0
        while not 0.0 < r2 <= 1.0:
            p, q = 2.0 * rand() - 1.0, 2.0 * rand() - 1.0
            r2 = p * p + q * q
        r = sqrt(r2)
        d0, d1 = p / r, q / r
        lo, hi = -inf, inf
        # a row's room, bound - va y[oa] - vb y[ob], is what a loop over its
        # terms leaves: a one-term row has vb = y[ob] = 0.0, and x - 0.0 is
        # x to the bit.  A rate within 1e-14 of 0 is a row parallel to the
        # direction, which bounds no chord; like MARGIN, it sets sample bits
        for rate0, rate1, bound, oa, va, ob, vb in rows:
            g = d0 * rate0 + d1 * rate1
            if g > 1e-14:
                x = (bound - va * y[oa] - vb * y[ob]) / g
                if x < hi:
                    hi = x
            elif g < -1e-14:
                x = (bound - va * y[oa] - vb * y[ob]) / g
                if x > lo:
                    lo = x
        if lo < hi:
            t = lo + (hi - lo) * rand()
            zb = z[b]
            z0 = zb[0] = zb[0] + t * d0
            z1 = zb[1] = zb[1] + t * d1
            for o, w0, w1 in triples:
                y[o] = third + z0 * w0 + z1 * w1
        if step == keep:
            keep += STRIDE
            out.append(dict(zip(polytope.corners, map(y.__getitem__, corner_orbits))))
    return out
