"""The Delaunay angle polytope and its analysis.

The region cut out by a matching is the set of invariant angle assignments
whose opposite-angle sum at every edge stays below pi.  Strict inequalities
are handled by slack maximization: the interior point reported by
``analyze`` maximizes the least slack, solved once per polytope by a small
dense big-M simplex with Bland's rule and certified against the constraints
before it is reported.  ``sample`` runs a hit-and-run walk inside the
equality-affine subspace, starting from that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matching as matching_mod
from .angles import AngleAssignment, validate_angles
from .ribbon import Corner, TriRibbonGraph


def opposite_corner(graph: TriRibbonGraph, h) -> Corner:
    """The corner of face h[0] opposite the edge of ``h`` (slot + 1)."""
    return (h[0], (h[1] + 1) % 3)


def delaunay_sum(graph: TriRibbonGraph, theta: AngleAssignment, edge: str) -> float:
    """Sum of the two angles opposite ``edge``."""
    occ = graph.occurrences(edge)
    if len(occ) != 2:
        raise KeyError(f"unknown or malformed edge {edge!r}")
    return sum(theta[opposite_corner(graph, h)] for h in occ)


def in_delaunay_region(graph: TriRibbonGraph, theta: AngleAssignment, tol: float = 1e-9) -> bool:
    validate_angles(graph, theta)
    return all(delaunay_sum(graph, theta, e) < math.pi - tol for e in graph.edges)


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
    ineq_labels: list[str] = field(default_factory=list)

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

    @cached_property
    def optimum(self) -> tuple[AngleAssignment, float] | None:
        """The max-min-slack point and its slack; None when the LP has no optimum.

        Solved on first use and kept for the life of the instance, so the
        rows must not change afterwards.
        """
        return _max_min_slack(self)


def build_polytope(
    graph: TriRibbonGraph,
    iota: matching_mod.TriangleMatching,
    include_delaunay: bool = True,
) -> RegionPolytope:
    """Constraint system over corner variables for a verified matching."""
    space = matching_mod.invariant_space(graph, iota)
    corners = space.corners
    eq_rows: list[dict] = [dict(r) for r in space.face_sum_rows]
    eq_rhs = [math.pi] * len(space.face_sum_rows)
    eq_rows += [dict(r) for r in space.orbit_rows]
    eq_rhs += [0.0] * len(space.orbit_rows)

    ineq_rows: list[dict] = []
    ineq_rhs: list[float] = []
    labels: list[str] = []
    for c in corners:  # theta(a) > 0  <=>  -theta(a) < 0
        ineq_rows.append({c: -1.0})
        ineq_rhs.append(0.0)
        labels.append(f"positivity {c[0]}/{c[1]}")
    if include_delaunay:
        for e in graph.edges:
            row: dict[Corner, float] = {}
            for h in graph.occurrences(e):
                opp = opposite_corner(graph, h)
                row[opp] = row.get(opp, 0.0) + 1.0
            ineq_rows.append(row)
            ineq_rhs.append(math.pi)
            labels.append(f"delaunay {e}")
    return RegionPolytope(corners, eq_rows, eq_rhs, ineq_rows, ineq_rhs, space.dimension, labels)


# ---------------------------------------------------------------------------
# dense big-M simplex (Bland's rule), standard form: max c.x, Ax = b, x >= 0;
# each polytope's max-min-slack LP is solved once and certified


def _simplex_bigM(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Tableau simplex from an all-artificial basis; returns (x, c.x) or (None, None).

    Rows with a negative right-hand side, which hand-built polytopes may
    have, are negated first.  The artificials
    carry a big-M penalty; the LP is infeasible when one stays positive at
    the optimum, and unbounded when no row limits an entering column.
    """
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
    M = 1e7 * (1.0 + np.abs(c).max())
    cost = np.concatenate([c, -M * np.ones(m)])
    nt = n + m
    T = np.hstack([A, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n, nt))
    for _ in range(200000):
        z = cost.copy()
        for i, j in enumerate(basis):
            z -= cost[j] * T[i, :nt]
        entering = -1
        for j in range(nt):
            if j not in basis and z[j] > 1e-9:
                entering = j
                break  # Bland: least index
        if entering < 0:
            x = np.zeros(nt)
            for i, j in enumerate(basis):
                x[j] = T[i, nt]
            if np.abs(x[n:]).sum() > 1e-6:
                return None, None
            return x[:n], float(c @ x[:n])
        ratios = []
        for i in range(m):
            if T[i, entering] > 1e-12:
                ratios.append((T[i, nt] / T[i, entering], basis[i], i))
        if not ratios:
            return None, None  # unbounded
        _, _, leave_row = min(ratios, key=lambda t: (t[0], t[1]))
        piv = T[leave_row, entering]
        T[leave_row] /= piv
        for r in range(m):
            if r != leave_row and abs(T[r, entering]) > 1e-14:
                T[r] -= T[r, entering] * T[leave_row]
        basis[leave_row] = entering
    raise RuntimeError("simplex failed to terminate")


def _dense(rows: list[dict], cidx: dict, width: int) -> np.ndarray:
    """Sparse rows keyed by corner as a dense matrix with ``width`` columns."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for k, v in row.items():
            out[i, cidx[k]] += v
    return out


# a certified optimum reproduces its equalities and its slack to this accuracy
CERTIFICATE_TOL = 1e-9


def _max_min_slack(polytope: RegionPolytope) -> tuple[AngleAssignment, float] | None:
    """Max t subject to the equalities and a.x + t <= b on every inequality.

    A positive optimum is checked against the polytope before it is
    returned: the equality residual and the recomputed least slack of the
    point must agree with the LP within ``CERTIFICATE_TOL``.
    """
    corners = polytope.corners
    cidx = {c: i for i, c in enumerate(corners)}
    nv = len(corners)
    n_ineq = len(polytope.ineq_rows)
    # variables: theta (nv), t, ineq slacks (n_ineq)
    n = nv + 1 + n_ineq
    ineq = _dense(polytope.ineq_rows, cidx, n)
    ineq[:, nv] = 1.0  # a.x + t + s = b
    ineq[:, nv + 1:] = np.eye(n_ineq)
    A = np.vstack([_dense(polytope.eq_rows, cidx, n), ineq])
    c = np.zeros(n)
    c[nv] = 1.0
    x, opt = _simplex_bigM(A, np.array(polytope.eq_rhs + polytope.ineq_rhs, dtype=float), c)
    if x is None:
        return None
    theta = {k: float(x[cidx[k]]) for k in corners}
    slack = float(opt)
    if slack > 0:
        residual = polytope.equality_residual(theta)
        drift = abs(polytope.slack(theta) - slack)
        if residual > CERTIFICATE_TOL or drift > CERTIFICATE_TOL:
            raise RuntimeError(
                f"LP point fails its certificate: equality residual {residual:.3e}, "
                f"recomputed slack differs from the optimum by {drift:.3e}"
            )
    return theta, slack


@dataclass
class RegionReport:
    feasible: bool
    slack: float
    interior_point: AngleAssignment | None
    dimension: int | None


def analyze(polytope: RegionPolytope) -> RegionReport:
    """Maximize the least inequality slack subject to the equalities.

    Feasible (with interior) iff the optimum slack is positive; the affine
    dimension is the one carried by the polytope.
    """
    if polytope.optimum is None:
        return RegionReport(False, float("-inf"), None, None)
    theta, slack = polytope.optimum
    return RegionReport(slack > 0, slack, dict(theta) if slack > 0 else None, polytope.dimension)


def _chord(room: np.ndarray, g_dir: np.ndarray) -> tuple[float, float]:
    """Step bounds (lo, hi) along a direction that keep every row's room.

    Rows whose rate ``g_dir`` is within 1e-14 of zero bound nothing.
    """
    up, down = g_dir > 1e-14, g_dir < -1e-14
    lo = (room[down] / g_dir[down]).max(initial=-np.inf)
    return lo, (room[up] / g_dir[up]).min(initial=np.inf)


def sample(
    polytope: RegionPolytope,
    n: int,
    seed: int = 0,
    burn_in_per_dim: int = 50,
    stride: int = 10,
    margin: float = 1e-9,
) -> list[AngleAssignment]:
    """Hit-and-run samples from the interior, deterministic per seed.

    The walk starts at the max-min-slack point and lives in the affine
    subspace of the equalities; every returned point satisfies all strict
    inequalities with slack at least ``margin``.
    """
    if n == 0:
        return []
    if polytope.optimum is None or polytope.optimum[1] <= 0:
        raise ValueError("cannot sample from an infeasible polytope")
    start, _ = polytope.optimum
    corners = polytope.corners
    cidx = {c: i for i, c in enumerate(corners)}
    nv = len(corners)
    dim = polytope.dimension
    if dim == 0:
        return [dict(start) for _ in range(n)]
    # orthonormal nullspace basis of the equality matrix
    _, _, vt = np.linalg.svd(_dense(polytope.eq_rows, cidx, nv))
    N = vt[nv - dim:].T  # nv x dim
    G = _dense(polytope.ineq_rows, cidx, nv)
    gb = np.array(polytope.ineq_rhs, dtype=float)
    GN = G @ N

    rng = np.random.default_rng(seed)
    x = np.array([start[c] for c in corners])
    out = []
    total_steps = burn_in_per_dim * dim + stride * n
    kept = 0
    for step in range(total_steps):
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        direction = N @ d
        lo, hi = _chord(gb - margin - G @ x, GN @ d)
        if not (lo < hi):
            continue
        t = rng.uniform(lo, hi)
        x = x + t * direction
        if step >= burn_in_per_dim * dim and (step - burn_in_per_dim * dim) % stride == stride - 1:
            theta = {c: float(x[cidx[c]]) for c in corners}
            out.append(theta)
            kept += 1
            if kept >= n:
                break
    return out


# ---------------------------------------------------------------------------
# planar in-circle cross-check


def _incircle_det(a: complex, b: complex, c: complex, d: complex) -> float:
    """Positive iff d is inside the circumcircle of ccw triangle abc."""
    rows = []
    for p in (a, b, c):
        q = p - d
        rows.append([q.real, q.imag, q.real * q.real + q.imag * q.imag])
    m = np.array(rows)
    return float(np.linalg.det(m))


def _angle_at(p: complex, q: complex, r: complex) -> float:
    """Unsigned angle at p between segments pq and pr."""
    u, v = q - p, r - p
    return abs(math.atan2((u.conjugate() * v).imag, (u.conjugate() * v).real))


def circumcircle_cross_check(
    quad: tuple[complex, complex, complex, complex],
    tol: float = 1e-9,
) -> dict:
    """Agreement of the in-circle predicate with the opposite-angle criterion.

    ``quad`` is (A, B, C, D): triangle ABC counterclockwise sharing edge BC
    with the point D on the other side of line BC.  Near-degenerate cases
    (both indicators inside ``tol``) are flagged instead of judged.
    """
    a, b, c, d = quad
    angle_sum = _angle_at(a, b, c) + _angle_at(d, c, b)
    det = _incircle_det(a, b, c, d)
    scale = max(abs(b - a), abs(c - a), abs(d - a)) ** 4
    degenerate = abs(det) < tol * max(scale, 1.0) and abs(math.pi - angle_sum) < tol
    outside = det < 0
    return {
        "degenerate": degenerate,
        "in_circle_outside": outside,
        "angle_sum": angle_sum,
        "agree": degenerate or (outside == (angle_sum < math.pi)),
    }
