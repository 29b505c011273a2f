"""The open invariant polytope, the constant-holonomy check over its
samples, the chord to a region's wall and the surfaces on either side of
it, and the references the library is compared against: the region's
constraint system over corner variables, with its slack and residual, for
asking whether angles that are not invariant by construction lie in the
region, and whose rows collapse to ``region.build_polytope``'s orbit rows;
the corner chain kernel that ``angles.holonomy`` and ``angles.holonomies``
must match bit for bit; two walks for ``region.sample`` on the corner rows,
the dense hit-and-run walk, for its law, and the block walk that reads
every row through a loop over its terms, for its bits, on blocks it derives
from the equality rows, as ``RegionPolytope.eq_rows`` must give them; and
the Gram-Schmidt that ``region._PLANE`` is the value of.  Only tests and
``tools/output_digest.py`` need them."""

import dataclasses
import math
import random

import numpy as np

from chain_oracles import occurrences, opposite_corner
from isodelaunay import angles, develop, homology, region, ribbon
from isodelaunay.homology import AngleChain
from isodelaunay.ribbon import TriRibbonGraph


@dataclasses.dataclass
class CornerPolytope:
    """The region's constraint system over corner variables: equality rows
    ax = b and strict inequality rows ax < b, each a dict keyed by corner,
    with each corner's iota-orbit numbered as ``region.build_polytope``
    numbers it."""

    corners: list
    orbit_of: dict
    eq_rows: list[dict]
    eq_rhs: list[float]
    ineq_rows: list[dict]
    ineq_rhs: list[float]

    @property
    def dimension(self) -> int:
        """The number of orbits less the rank (numpy) of the equality rows
        in orbit coordinates."""
        width = max(self.orbit_of.values()) + 1
        return width - int(np.linalg.matrix_rank(_dense(self.eq_rows, self.orbit_of, width)))

    def slack(self, theta: dict) -> float:
        """Least inequality slack of a point (negative when violated)."""
        return min(
            b - sum(c * theta[k] for k, c in row.items())
            for row, b in zip(self.ineq_rows, self.ineq_rhs)
        )

    def residual(self, theta: dict) -> float:
        """Largest equality residual of a point."""
        return max(
            abs(sum(c * theta[k] for k, c in row.items()) - b)
            for row, b in zip(self.eq_rows, self.eq_rhs)
        )


def corner_polytope(graph: TriRibbonGraph, iota: dict, delaunay: bool = True) -> CornerPolytope:
    """The region of a verified matching over corner variables.

    The equalities are one row per face (angles sum to pi, faces sorted),
    then one row theta(c) = theta(iota(c)) per corner pair that iota moves,
    in corner order.  The inequalities are one positivity row -theta(c) < 0
    per corner, in corner order, then, if ``delaunay``, one Delaunay row per
    edge over the two distinct corners opposite it, in edge order.
    """
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
    orbit_of = {c: i for i, orbit in enumerate(ribbon.orbits(corners, iota.__getitem__))
                for c in orbit}
    ineq_rows = [{c: -1.0} for c in corners]
    ineq_rhs = [0.0] * len(corners)
    if delaunay:
        ineq_rows += [{opposite_corner(h): 1.0 for h in occurrences(graph, e)}
                      for e in graph.edges]
        ineq_rhs += [math.pi] * len(graph.edges)
    return CornerPolytope(corners, orbit_of, eq_rows, eq_rhs, ineq_rows, ineq_rhs)


def open_polytope(graph: TriRibbonGraph, iota: dict) -> region.RegionPolytope:
    """The region's polytope without its Delaunay rows: the invariant angle
    assignments with every angle positive.

    ``build_polytope`` lists one positivity row per orbit before the
    Delaunay rows, so those rows are kept as they are.
    """
    poly = region.build_polytope(graph, iota)
    n = max(poly.orbit_of.values()) + 1
    return dataclasses.replace(poly, ineq_rows=poly.ineq_rows[:n], ineq_rhs=poly.ineq_rhs[:n])


def wide_row_polytope() -> region.RegionPolytope:
    """Two faces, each a plane of three orbits, and besides positivity one
    row of three terms across both: y0 + y1 + 2 y3 < 7 pi / 4.
    ``build_polytope`` makes no row wider than two terms."""
    corners = [(f, s) for f in "fg" for s in range(3)]
    return region.RegionPolytope(
        corners, {c: i for i, c in enumerate(corners)}, [(0, 1, 2), (3, 4, 5)],
        [((o, -1.0),) for o in range(6)] + [((0, 1.0), (1, 1.0), (3, 2.0))],
        [0.0] * 6 + [1.75 * math.pi])


def plane_and_point_polytope() -> region.RegionPolytope:
    """Face f with its corners in three orbits, a plane, and face g with its
    corners in one orbit 3, which no plane holds; besides positivity, one
    row across both: y0 + y3 < pi.  Every orbit of a matching's polytope
    lies in a plane (the lemma of ``region.build_polytope``), and
    ``region.sample`` refuses this one."""
    corners = [(f, s) for f in "fg" for s in range(3)]
    return region.RegionPolytope(
        corners, {c: min(i, 3) for i, c in enumerate(corners)}, [(0, 1, 2)],
        [((o, -1.0),) for o in range(4)] + [((0, 1.0), (3, 1.0))], [0.0] * 4 + [math.pi])


def plane_with_a_row_inside() -> region.RegionPolytope:
    """One face in three orbits, a plane, and besides positivity a row of
    two terms inside it: y1 - y2 < pi / 3.  No matching makes a Delaunay
    row with two terms in one plane (the lemma of ``region.build_polytope``),
    and ``region.sample`` refuses this one."""
    corners = [("f", s) for s in range(3)]
    return region.RegionPolytope(
        corners, {c: i for i, c in enumerate(corners)}, [(0, 1, 2)],
        [((o, -1.0),) for o in range(3)] + [((1, 1.0), (2, -1.0))],
        [0.0] * 3 + [math.pi / 3])


def point_polytope() -> region.RegionPolytope:
    """One corner in one orbit, positive and in no plane: a polytope with no
    plane, which no matching makes and ``region.sample`` refuses."""
    c = ("f", 0)
    return region.RegionPolytope([c], {c: 0}, [], [((0, -1.0),)], [0.0])


def chord_exit(poly: CornerPolytope, start, through):
    """Where the ray from ``start`` through ``through`` leaves the polytope:
    the least t > 0 at which an inequality row of start + t (through -
    start) runs out of room, and the indices of the rows that tie there."""
    exits = []
    for i, (row, b) in enumerate(zip(poly.ineq_rows, poly.ineq_rhs)):
        rate = sum(v * (through[c] - start[c]) for c, v in row.items())
        if rate > 0:
            exits.append(((b - sum(v * start[c] for c, v in row.items())) / rate, i))
    t = min(exits)[0]
    return t, [i for u, i in exits if u <= t * (1 + 1e-9)]


def delaunay_at(graph, start, through, t):
    """``make_delaunay`` on the surface whose angles are start + t (through - start)."""
    theta = {c: v + t * (through[c] - v) for c, v in start.items()}
    return develop.make_delaunay(develop.develop(graph, theta))


def iota_orbit(graph, iota, edge):
    """The edges that iota's powers carry ``edge`` to."""
    seen, todo = set(), occurrences(graph, edge)
    while todo:
        h = todo.pop()
        if h not in seen:
            seen.add(h)
            todo.append(iota[h])
    return {graph.edge_of(h) for h in seen}


def corner_holonomies(theta: dict, chains: list[AngleChain]) -> list[angles.HolonomyValue]:
    """Holonomy of each corner chain, with each corner's log-sine ratio taken once."""
    log_ratio: dict = {}
    out = []
    for a in chains:
        total = phase = 0.0
        for c, coeff in a.items():
            d = log_ratio.get(c)
            if d is None:
                f, slot = c
                num = math.sin(theta[(f, (slot + 1) % 3)])
                den = math.sin(theta[(f, (slot + 2) % 3)])
                d = log_ratio[c] = math.log(num) - math.log(den)
            total += coeff * d
            phase += coeff * theta[c]
        out.append(angles.HolonomyValue(total, phase))
    return out


def check_constant_holonomy(
    graph: TriRibbonGraph,
    iota: dict,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Sample invariant angle assignments and compare their holonomies.

    All sampled points must agree with the barycenter's holonomy on every
    basis cycle within ``tol``, with unit modulus and phase a multiple of pi.
    Returns a report dict; a counterexample signals an implementation fault.
    """
    basis = homology.cycle_basis(graph)
    thetas = region.sample(open_polytope(graph, iota), samples, seed=seed)
    chains = [homology.phi(graph, alpha) for alpha in basis]
    bary = {c: math.pi / 3 for c in graph.half_edges()}
    reference = [hol.value for hol in corner_holonomies(bary, chains)]
    max_dev = 0.0
    max_mod_dev = 0.0
    counterexample = None
    for theta in thetas:
        for ref, val in zip(reference, corner_holonomies(theta, chains)):
            max_dev = max(max_dev, abs(val.value - ref))
            max_mod_dev = max(max_mod_dev, abs(val.modulus - 1.0))
            if abs(val.value - ref) >= tol and counterexample is None:
                counterexample = theta
    return {
        "samples": len(thetas),
        "max_deviation": max_dev,
        "max_modulus_deviation": max_mod_dev,
        "ok": counterexample is None and max_mod_dev < tol,
        "counterexample": counterexample,
    }


def _dense(rows: list[dict], cidx: dict, width: int) -> np.ndarray:
    """Sparse rows keyed by corner as a dense matrix with ``width`` columns.

    ``cidx`` gives each corner's column; entries that share a column add up.
    """
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for k, v in row.items():
            out[i, cidx[k]] += v
    return out


def dense_sample(polytope: CornerPolytope, n: int, seed: int = 0) -> list[dict]:
    """The reference walk: hit-and-run in all orbit variables at once, on
    the corner rows.

    Each step draws a direction uniformly on the sphere of the equality
    null space, from a full SVD, and bounds the chord by every inequality
    row, keeping ``region.MARGIN`` of slack.  It burns in
    ``region.BURN_IN_PER_DIM`` steps per dimension and keeps one sample
    every ``region.STRIDE`` steps.
    """
    if n == 0:
        return []
    dim = polytope.dimension
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
    burn_in = region.BURN_IN_PER_DIM * dim
    for step in range(burn_in + region.STRIDE * n):
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        room, g_dir = gb - region.MARGIN - G @ y, GN @ d
        up, down = g_dir > 1e-14, g_dir < -1e-14
        lo = (room[down] / g_dir[down]).max(initial=-np.inf)
        hi = (room[up] / g_dir[up]).min(initial=np.inf)
        if lo < hi:
            y = y + rng.uniform(lo, hi) * (N @ d)
        if step >= burn_in and (step - burn_in) % region.STRIDE == region.STRIDE - 1:
            values = y.tolist()
            out.append({c: values[orbit_of[c]] for c in polytope.corners})
    return out


def generic_collapse(row: dict, orbit_of: dict) -> tuple:
    """A corner row in orbit coordinates: every row, of any width, summed
    into a dict from 0, sorted, zero coefficients dropped."""
    out: dict = {}
    for c, v in row.items():
        o = orbit_of[c]
        out[o] = out.get(o, 0) + v
    return tuple(sorted((o, v) for o, v in out.items() if v != 0))


def null_basis(coeffs: list[float]) -> list[list[float]]:
    """Orthonormal basis of the vectors orthogonal to ``coeffs``, by
    Gram-Schmidt on the unit vectors; meant for at most three coordinates.
    ``null_basis([1, 1, 1])`` is ``region._PLANE`` to the bit."""
    k = len(coeffs)
    norm = math.sqrt(sum(a * a for a in coeffs))
    basis = [[a / norm for a in coeffs]]
    for i in range(k):
        w = [float(j == i) for j in range(k)]
        for q in basis:
            dot = sum(a * b for a, b in zip(w, q))
            w = [a - dot * b for a, b in zip(w, q)]
        size = math.sqrt(sum(a * a for a in w))
        # a unit vector already in the span leaves only a rounding residue;
        # one that adds a direction to (1, 1, 1) leaves more than 0.4
        if size > 1e-6:
            basis.append([a / size for a in w])
    return basis[1:]


def _generic_blocks(polytope: CornerPolytope) -> list[tuple]:
    """The walk's blocks, derived from the corner equality rows: one per
    distinct face row in orbit coordinates, as ``RegionPolytope.eq_rows``
    must list the planes.

    Each block is (orbits, basis, rows): the block's orbit variables, an
    orthonormal basis of its null space as two vectors (the second all zero
    for a line), and every inequality row touching its variables as
    (terms, bound, rate0, rate1), where ``bound`` is the row's right-hand
    side less ``region.MARGIN`` and the rates are along the two basis
    vectors.  The blocks must partition the orbits, have at most three
    orbits each, and have null dimensions that sum to
    ``polytope.dimension``.
    """
    orbit_of = polytope.orbit_of
    collapsed = (generic_collapse(row, orbit_of) for row in polytope.eq_rows)
    face_rows = sorted({r for r in collapsed if r})
    block_of = {o: b for b, row in enumerate(face_rows) for o, _ in row}
    bases = [null_basis([v for _, v in row]) for row in face_rows]
    if (len(block_of) != sum(len(row) for row in face_rows)
            or len(block_of) != max(orbit_of.values()) + 1
            or any(len(row) > 3 for row in face_rows)
            or sum(map(len, bases)) != polytope.dimension):
        raise AssertionError(
            f"equality rows do not split into face-orbit blocks of total null dimension "
            f"{polytope.dimension}: null dimensions {[len(b) for b in bases]}"
        )
    for basis, row in zip(bases, face_rows):
        basis.extend([[0.0] * len(row)] * (2 - len(basis)))
    rows: list[list[tuple]] = [[] for _ in face_rows]
    ineqs = dict.fromkeys(
        (generic_collapse(row, orbit_of), b)
        for row, b in zip(polytope.ineq_rows, polytope.ineq_rhs)
    )
    position = [{o: i for i, (o, _) in enumerate(row)} for row in face_rows]
    for terms, b in ineqs:
        for blk in sorted({block_of[o] for o, _ in terms}):
            pos = position[blk]
            rates = [sum(v * u[pos[o]] for o, v in terms if o in pos) for u in bases[blk]]
            rows[blk].append((terms, b - region.MARGIN, *rates))
    return [(tuple(o for o, _ in row), basis, block_rows)
            for row, basis, block_rows in zip(face_rows, bases, rows) if any(basis[0])]


def generic_sample(polytope: CornerPolytope, n: int, seed: int = 0) -> list[dict]:
    """The reference block walk: ``region.sample`` as it stood before its
    rows were compiled, on blocks and rows derived from the corner rows,
    reading every inequality row through a loop over its terms.
    ``region.sample`` must give the same samples to the bit."""
    if n == 0:
        return []
    dim = polytope.dimension
    # each block as (orbits, u0, u1, whether it is a plane, rows)
    blocks = [(orbits, u0, u1, any(u1), rows)
              for orbits, (u0, u1), rows in _generic_blocks(polytope)]
    n_blocks = len(blocks)
    rand = random.Random(seed).random
    sqrt, inf = math.sqrt, math.inf
    third = math.pi / 3
    y = [third] * (max(polytope.orbit_of.values()) + 1)
    # each block's offset from the start in its basis; y is recomputed from
    # it, so rounding does not pile up on the face sums as the walk goes on
    z = [[0.0, 0.0] for _ in blocks]
    corner_orbit = [(c, polytope.orbit_of[c]) for c in polytope.corners]
    out = []
    burn_in = region.BURN_IN_PER_DIM * dim
    for step in range(burn_in + region.STRIDE * n):
        b = int(rand() * n_blocks)
        orbits, u0, u1, plane, rows = blocks[b]
        if plane:
            r2 = 0.0
            while not 0.0 < r2 <= 1.0:
                p, q = 2.0 * rand() - 1.0, 2.0 * rand() - 1.0
                r2 = p * p + q * q
            r = sqrt(r2)
            d0, d1 = p / r, q / r
        else:
            d0, d1 = 1.0, 0.0
        lo, hi = -inf, inf
        for terms, bound, rate0, rate1 in rows:
            g = d0 * rate0 + d1 * rate1
            if -1e-14 <= g <= 1e-14:
                continue
            room = bound
            for o, v in terms:
                room -= v * y[o]
            x = room / g
            if g > 0.0:
                if x < hi:
                    hi = x
            elif x > lo:
                lo = x
        if lo < hi:
            t = lo + (hi - lo) * rand()
            zb = z[b]
            zb[0] += t * d0
            zb[1] += t * d1
            for o, w0, w1 in zip(orbits, u0, u1):
                y[o] = third + zb[0] * w0 + zb[1] * w1
        if step >= burn_in and (step - burn_in) % region.STRIDE == region.STRIDE - 1:
            out.append({c: y[o] for c, o in corner_orbit})
    return out
