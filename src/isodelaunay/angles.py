"""Angle assignments and the combinatorial holonomy homomorphisms.

An angle assignment maps each corner (face, slot) to a value in (0, pi),
with the three corners of every face summing to pi.  Holonomy of a cycle
is the product over its corner decomposition of a rotation factor
exp(i * theta) and a dilation factor given by a ratio of sines; we
accumulate the phase as a real sum and the dilation in log space.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from . import homology
from .ribbon import Corner, TriRibbonGraph, he_key, parse_he_key

AngleAssignment = dict[Corner, float]

# the one tolerance of the numerical checks, on angles and holonomy as it
# is and on periods relative to the largest: trivial holonomy, the region's
# certificate, ``DevelopedSurface.check``, and the default of every ``tol``
# parameter and of ``--tol``
TOL = 1e-9
# tighter than TOL and fixed: the face sums of angles read from JSON or
# solved from periods are exact to a few units in the last place
FACE_SUM_TOL = 1e-12


class InvalidAnglesError(ValueError):
    pass


def validate_angles(graph: TriRibbonGraph, theta: AngleAssignment) -> None:
    for f, _ in graph.faces:
        a, b, c = vals = [theta.get((f, 0)), theta.get((f, 1)), theta.get((f, 2))]
        if a is None or b is None or c is None:
            raise InvalidAnglesError(f"missing corner of face {f!r}")
        if not (0.0 < a < math.pi and 0.0 < b < math.pi and 0.0 < c < math.pi):
            raise InvalidAnglesError(f"corner of face {f!r} outside (0, pi): {vals}")
        if abs(sum(vals) - math.pi) > FACE_SUM_TOL:
            raise InvalidAnglesError(
                f"face {f!r} angles sum to {sum(vals)!r}, expected pi"
            )


def angles_to_json(theta: AngleAssignment) -> dict:
    return {he_key(c): v for c, v in sorted(theta.items())}


def angles_from_json(data: dict) -> AngleAssignment:
    return {parse_he_key(k): float(v) for k, v in data.items()}


class HolonomyValue(NamedTuple):
    log_modulus: float
    phase: float  # radians, not reduced

    @property
    def modulus(self) -> float:
        return math.exp(self.log_modulus)

    @property
    def value(self) -> complex:
        return cmath.rect(self.modulus, self.phase)

    def distance_to_one(self) -> float:
        return abs(self.value - 1.0)


def _rows(graph: TriRibbonGraph, cycle: homology.Chain1):
    """The corner chain of ``cycle`` as rows (coefficient, corner, numerator,
    denominator), the last two being the corners whose sines make the
    corner's dilation factor.

    A cycle equal to one of the graph's basis cycles reads the rows that
    ``cycle_basis`` emitted for it, found among the basis cycles with the
    same first half-edge, then by ``==``; any other cycle is solved by
    ``phi`` afresh, and nothing of it is kept.
    """
    homology._kept_basis(graph)  # which fills graph._basis_chains
    for alpha, rows in graph._basis_chains.get(next(iter(cycle), None), ()):
        if alpha == cycle:
            return rows
    return [(coeff, (f, slot), (f, (slot + 1) % 3), (f, (slot + 2) % 3))
            for (f, slot), coeff in homology.phi(graph, cycle).items()]


def holonomies(
    graph: TriRibbonGraph, theta: AngleAssignment, basis: list[homology.Chain1]
) -> list[HolonomyValue]:
    """Holonomy of every cycle of ``basis``, with each corner's log-sine
    ratio taken once; ValueError if one is not a cycle."""
    log, sin = math.log, math.sin
    log_ratio: dict[Corner, float] = {}
    out = []
    for alpha in basis:
        total = phase = 0.0
        for coeff, c, num, den in _rows(graph, alpha):
            d = log_ratio.get(c)
            if d is None:
                d = log_ratio[c] = log(sin(theta[num])) - log(sin(theta[den]))
            total += coeff * d
            phase += coeff * theta[c]
        out.append(HolonomyValue(total, phase))
    return out


def holonomy(graph: TriRibbonGraph, theta: AngleAssignment, cycle: homology.Chain1) -> HolonomyValue:
    """Total holonomy of a cycle: dilation times rotation of its corner chain.

    A basis cycle of the graph reads the corner chain rows that the basis
    walk emitted; any other cycle is solved on every call (see ``_rows``).
    ValueError, on every call, if ``cycle`` is not a cycle.  The value is
    that of ``holonomies`` to the bit.
    """
    log, sin = math.log, math.sin
    total = phase = 0.0
    for coeff, c, num, den in _rows(graph, cycle):
        total += coeff * (log(sin(theta[num])) - log(sin(theta[den])))
        phase += coeff * theta[c]
    return HolonomyValue(total, phase)


def is_trivial_holonomy(
    graph: TriRibbonGraph, theta: AngleAssignment, basis: list[homology.Chain1]
) -> bool:
    """True iff holonomy is within ``TOL`` of 1 on every basis cycle."""
    return all(hol.distance_to_one() <= TOL for hol in holonomies(graph, theta, basis))
