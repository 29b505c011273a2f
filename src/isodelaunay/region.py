"""The Delaunay angle polytope and its analysis.

The region cut out by a matching is the set of invariant angle assignments
whose opposite-angle sum at every edge stays below pi.  Strict inequalities
are handled by slack maximization, whose optimum is known in closed form.
The slack of a point is at most its least angle, which is at most pi/3
because every face sums to pi.  The equilateral point theta = pi/3 meets
every face and orbit equality and has Delaunay sums of 2 pi/3, so its slack
is pi/3, and it is the only point with that slack.  ``analyze`` reports
this equilateral optimum, certified against the constraints.  ``sample``
runs a hit-and-run walk with one variable per iota-orbit of corners,
starting from that point, so every sample is iota-invariant bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matching as matching_mod
from .angles import AngleAssignment
from .ribbon import Corner, TriRibbonGraph, orbits


def opposite_corner(graph: TriRibbonGraph, h) -> Corner:
    """The corner of face h[0] opposite the edge of ``h`` (slot + 1)."""
    return (h[0], (h[1] + 1) % 3)


# the equilateral optimum reproduces its equalities and its slack of pi/3 to this accuracy
CERTIFICATE_TOL = 1e-9


@dataclass
class RegionPolytope:
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

        The point is certified before it is returned: its equality residual
        and the distance of its slack from pi/3 must be within
        ``CERTIFICATE_TOL``, which holds for every polytope that
        ``build_polytope`` makes.
        """
        theta = {c: math.pi / 3 for c in self.corners}
        residual = self.equality_residual(theta)
        slack = self.slack(theta)
        if residual > CERTIFICATE_TOL or abs(slack - math.pi / 3) > CERTIFICATE_TOL:
            raise RuntimeError(
                f"equilateral point fails its certificate: equality residual {residual:.3e}, "
                f"slack {slack!r} instead of pi/3"
            )
        return theta, slack


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
        raise ValueError("invariant_space requires a verified matching: " + "; ".join(report.problems))
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
            opp = opposite_corner(graph, h)
            row[opp] = row.get(opp, 0.0) + 1.0
        ineq_rows.append(row)
        ineq_rhs.append(math.pi)
    return RegionPolytope(corners, eq_rows, eq_rhs, ineq_rows, ineq_rhs, dimension, orbit_of)


def _dense(rows: list[dict], cidx: dict, width: int) -> np.ndarray:
    """Sparse rows keyed by corner as a dense matrix with ``width`` columns.

    ``cidx`` gives each corner's column; entries that share a column add up.
    """
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for k, v in row.items():
            out[i, cidx[k]] += v
    return out


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


def _chord(room: np.ndarray, g_dir: np.ndarray) -> tuple[float, float]:
    """Step bounds (lo, hi) along a direction that keep every row's room.

    Rows whose rate ``g_dir`` is within 1e-14 of zero bound nothing.
    """
    up, down = g_dir > 1e-14, g_dir < -1e-14
    lo = (room[down] / g_dir[down]).max(initial=-np.inf)
    return lo, (room[up] / g_dir[up]).min(initial=np.inf)


# hit-and-run schedule: burn-in steps per dimension, steps between kept
# samples, and the least slack every sample keeps on every inequality
BURN_IN_PER_DIM = 50
STRIDE = 10
MARGIN = 1e-9


def sample(polytope: RegionPolytope, n: int, seed: int = 0) -> list[AngleAssignment]:
    """Hit-and-run samples from the interior, deterministic per seed.

    The walk starts at the equilateral optimum and moves one variable per
    iota-orbit of corners inside the affine subspace of the equalities.
    Each sample gives every corner the value of its orbit, so it is
    iota-invariant exactly, and keeps slack ``MARGIN`` on every inequality.
    """
    if n == 0:
        return []
    start, _ = polytope.optimum
    dim = polytope.dimension
    if dim == 0:
        return [dict(start) for _ in range(n)]
    orbit_of = polytope.orbit_of
    width = max(orbit_of.values()) + 1
    # orthonormal nullspace basis of the equality matrix; orbit rows are zero
    _, _, vt = np.linalg.svd(_dense(polytope.eq_rows, orbit_of, width))
    N = vt[width - dim:].T  # width x dim
    G = _dense(polytope.ineq_rows, orbit_of, width)
    gb = np.array(polytope.ineq_rhs, dtype=float)
    GN = G @ N

    rng = np.random.default_rng(seed)
    y = np.full(width, math.pi / 3)
    out = []
    burn_in = BURN_IN_PER_DIM * dim
    for step in range(burn_in + STRIDE * n):
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        lo, hi = _chord(gb - MARGIN - G @ y, GN @ d)
        if not (lo < hi):
            continue
        y = y + rng.uniform(lo, hi) * (N @ d)
        if step >= burn_in and (step - burn_in) % STRIDE == STRIDE - 1:
            values = y.tolist()
            out.append({c: values[orbit_of[c]] for c in polytope.corners})
            if len(out) >= n:
                break
    return out

