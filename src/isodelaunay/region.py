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

``sample`` runs a coordinate hit-and-run walk from that point, with one
variable per iota-orbit of corners, so every sample is iota-invariant bit
for bit.  A triangle matching is Z/3-equivariant, so the three corners of
a face lie in three orbits or all in one.  In orbit coordinates the
equalities split into one face row per face orbit, disjoint from every
other: (1, 1, 1), a plane block, or (3), a point that never moves.  A block
step picks a plane block uniformly, a uniform direction in it, and a
uniform point on the chord that the inequality rows touching the block
leave open, so a step costs a few rows and no matrix.  ``build_polytope``
makes inequality rows of one or two terms only; ``sample`` compiles each
of them once per call into a flat tuple, padding a one-term row with a
spare orbit held at 0.0, so a step reads a row's room in one expression.
Any other face row, and any wider inequality row, is refused.
The schedule is counted in block steps: ``BURN_IN_PER_DIM`` steps per
dimension of burn-in, then one sample kept every ``STRIDE`` steps.  All
randomness is drawn from ``random.Random(seed).random()``, whose stream
Python keeps fixed across versions, and turned into directions with ``+``,
``*`` and ``sqrt`` alone, so the samples of a seed depend on no numerical
library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import matching as matching_mod
from .angles import AngleAssignment
from .ribbon import Corner, TriRibbonGraph, orbits


def opposite_corner(h) -> Corner:
    """The corner of face h[0] opposite the edge of ``h`` (slot + 1)."""
    return (h[0], (h[1] + 1) % 3)


# the equilateral optimum reproduces its equalities and its slack of pi/3 to this accuracy
CERTIFICATE_TOL = 1e-9


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
    # affine dimension of the equality subspace, by orbit count
    dimension: int
    # index of each corner's iota-orbit: the sampler's variables
    orbit_of: dict[Corner, int]
    # the certified (theta, slack) of ``optimum``, kept once its certificate passes
    _optimum: tuple[AngleAssignment, float] | None = field(default=None, init=False,
                                                           repr=False, compare=False)

    @property
    def n_vars(self) -> int:
        return len(self.corners)

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

        The point is certified on the first call: its equality residual and
        the distance of its slack from pi/3 must be within
        ``CERTIFICATE_TOL``, which holds for every polytope that
        ``build_polytope`` makes.  A point that passes is kept, and every
        call returns a fresh copy of it; one that fails raises
        ``RuntimeError`` on every call.
        """
        if self._optimum is None:
            theta = {c: math.pi / 3 for c in self.corners}
            residual = self.equality_residual(theta)
            slack = self.slack(theta)
            if residual > CERTIFICATE_TOL or abs(slack - math.pi / 3) > CERTIFICATE_TOL:
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
    different face orbits have disjoint supports, so the dimension is the
    number of corner orbits less the number of face orbits.

    The inequalities are one positivity row -theta(c) < 0 per corner, in
    corner order, then one Delaunay row per edge, in edge order.
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
    corner_orbits = orbits(corners, iota.__getitem__)
    dimension = len(corner_orbits) - len(orbits(faces, lambda f: iota[(f, 0)][0]))
    orbit_of = {c: i for i, orbit in enumerate(corner_orbits) for c in orbit}

    ineq_rows: list[dict] = [{c: -1.0} for c in corners]  # -theta(c) < 0
    ineq_rhs: list[float] = [0.0] * len(corners)
    for e in graph.edges:
        row: dict[Corner, float] = {}
        for h in graph.occurrences(e):
            opp = opposite_corner(h)
            row[opp] = row.get(opp, 0.0) + 1.0
        ineq_rows.append(row)
        ineq_rhs.append(math.pi)
    return RegionPolytope(corners, eq_rows, eq_rhs, ineq_rows, ineq_rhs, dimension, orbit_of)


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
# inequality
BURN_IN_PER_DIM = 50
STRIDE = 10
MARGIN = 1e-9


def _collapse(row: dict[Corner, float], orbit_of: dict[Corner, int]) -> tuple:
    """A sparse corner row in orbit coordinates: sorted (orbit, coefficient)
    pairs, zero coefficients dropped.

    A row of one or two terms, as every positivity, orbit and Delaunay row
    is, is collapsed without a dict (but for two orbits and a zero
    coefficient); the sum va + vb of two terms in one orbit is what the
    dict's 0 + va + vb gives whenever it is not zero.
    """
    if len(row) == 1:
        ((c, v),) = row.items()
        return ((orbit_of[c], v),) if v != 0 else ()
    if len(row) == 2:
        (ca, va), (cb, vb) = row.items()
        oa, ob = orbit_of[ca], orbit_of[cb]
        if oa == ob:
            v = va + vb
            return ((oa, v),) if v != 0 else ()
        if va != 0 and vb != 0:
            return ((oa, va), (ob, vb)) if oa < ob else ((ob, vb), (oa, va))
    out: dict[int, float] = {}
    for c, v in row.items():
        o = orbit_of[c]
        out[o] = out.get(o, 0) + v
    return tuple(sorted((o, v) for o, v in out.items() if v != 0))


# the orthonormal basis of every plane block's directions, as Gram-Schmidt
# on the unit vectors after (1, 1, 1) / sqrt(3) gives it (``null_basis`` in
# tests/region_oracles.py), with the rounding residue in its second vector
_PLANE = ((0.8164965809277258, -0.40824829046386313, -0.40824829046386313),
          (-3.9252311467094373e-16, 0.7071067811865474, -0.7071067811865477))


def _blocks(polytope: RegionPolytope) -> list[tuple]:
    """The walk's plane blocks, one per distinct (1, 1, 1) face row in orbit
    coordinates.

    Each block is (triples, rows): an (orbit, w0, w1) triple per orbit
    variable, with its entries in the two vectors of ``_PLANE``, and every
    inequality row touching the block as (r0, r1, bound, oa, va, ob, vb):
    its rates along the two vectors, its right-hand side less ``MARGIN``,
    and its one or two (orbit, coefficient) terms, a one-term row padded
    with the spare orbit ``ob`` = number of orbits and ``vb`` = 0.0.
    ValueError for a face row other than (1, 1, 1) or (3), or an inequality
    row of more than two terms.  The face rows must partition the orbits,
    and two dimensions per plane must sum to ``polytope.dimension``.
    """
    orbit_of = polytope.orbit_of
    face_rows = sorted({r for r in (_collapse(row, orbit_of) for row in polytope.eq_rows) if r})
    for row in face_rows:
        if tuple(v for _, v in row) not in ((1, 1, 1), (3,)):
            raise ValueError(f"face row {row} in orbit coordinates is neither (1, 1, 1) nor (3)")
    n_orbits = max(orbit_of.values()) + 1
    block_of = {o: b for b, row in enumerate(face_rows) for o, _ in row}
    dims = [len(row) - 1 for row in face_rows]
    if (len(block_of) != sum(map(len, face_rows)) or len(block_of) != n_orbits
            or sum(dims) != polytope.dimension):
        raise AssertionError(
            f"equality rows do not split into face-orbit blocks of total null dimension "
            f"{polytope.dimension}: null dimensions {dims}"
        )
    rows: list[list[tuple]] = [[] for _ in face_rows]
    spare = ((n_orbits, 0.0),)
    ineqs = dict.fromkeys(
        (_collapse(row, orbit_of), b) for row, b in zip(polytope.ineq_rows, polytope.ineq_rhs)
    )
    # each orbit's index in its face row: the entry of ``_PLANE``'s vectors it reads
    position = {o: i for row in face_rows for i, (o, _) in enumerate(row)}
    u0, u1 = _PLANE
    for terms, b in ineqs:
        if len(terms) > 2:
            raise ValueError(f"inequality row {terms} in orbit coordinates has more than two terms")
        if not terms:
            continue
        (oa, va), (ob, vb) = (terms + spare)[:2]
        row = (b - MARGIN, oa, va, ob, vb)
        # a block's rates sum the row's terms in that block from 0.0, as the
        # reference walk in tests/region_oracles.py does, so a -0.0 product reads 0.0
        pa, blk = position[oa], block_of[oa]
        r0, r1 = 0.0 + va * u0[pa], 0.0 + va * u1[pa]
        if len(terms) == 2:
            pb = position[ob]
            if block_of[ob] == blk:
                r0, r1 = r0 + vb * u0[pb], r1 + vb * u1[pb]
            else:
                rows[block_of[ob]].append((0.0 + vb * u0[pb], 0.0 + vb * u1[pb], *row))
        rows[blk].append((r0, r1, *row))
    return [(tuple(zip((o for o, _ in row), *_PLANE)), block_rows)
            for row, block_rows in zip(face_rows, rows) if len(row) == 3]


def sample(polytope: RegionPolytope, n: int, seed: int = 0) -> list[AngleAssignment]:
    """Coordinate hit-and-run samples from the interior, deterministic per
    seed; the module docstring describes the walk.

    Each sample gives every corner the value of its orbit, so it is
    iota-invariant exactly, and keeps slack ``MARGIN`` on every inequality.
    The walk starts at ``polytope.optimum``, whose certificate is computed
    once per polytope, so after ``analyze`` it is not computed again.
    ValueError if ``n`` is negative.
    """
    if n < 0:
        raise ValueError(f"sample count must be at least 0, got {n}")
    if n == 0:
        return []
    start, _ = polytope.optimum
    dim = polytope.dimension
    if dim == 0:
        return [dict(start) for _ in range(n)]
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
    burn_in = BURN_IN_PER_DIM * dim
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
        # x to the bit
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
