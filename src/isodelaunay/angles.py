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

FACE_SUM_TOL = 1e-12
# ``is_trivial_holonomy`` accepts a cycle whose holonomy is this close to 1
HOLONOMY_TOL = 1e-9


class InvalidAnglesError(ValueError):
    pass


def validate_angles(graph: TriRibbonGraph, theta: AngleAssignment) -> None:
    for f, _ in graph.faces:
        vals = [theta.get((f, s)) for s in range(3)]
        if any(v is None for v in vals):
            raise InvalidAnglesError(f"missing corner of face {f!r}")
        if any(not (0.0 < v < math.pi) for v in vals):
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


def holonomies(
    graph: TriRibbonGraph, theta: AngleAssignment, basis: list[homology.Chain1]
) -> list[HolonomyValue]:
    """Holonomy of every cycle of ``basis``, with each corner's log-sine
    ratio taken once; ValueError if one is not a cycle."""
    chains = [homology.phi(graph, alpha) for alpha in basis]
    log_ratio: dict[Corner, float] = {}
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
        out.append(HolonomyValue(total, phase))
    return out


def holonomy(graph: TriRibbonGraph, theta: AngleAssignment, cycle: homology.Chain1) -> HolonomyValue:
    """Total holonomy of a cycle: dilation times rotation of its corner chain.

    The corner chain is solved by ``homology.phi`` once per graph and cycle,
    and kept on the graph as (coefficient, corner, numerator, denominator)
    rows under the cycle's ``id``, next to a copy of the cycle; a later call
    uses the rows only if the copy still equals ``cycle``, so a cycle that
    its caller changed, or a new one at a reused ``id``, is solved afresh.
    Once the graph keeps more chains than it has faces, the oldest is
    dropped: room for a whole cycle basis, whose F/2 + 1 cycles are then
    never solved twice.  ValueError, on every call, if ``cycle`` is not a
    cycle.  The value is that of ``holonomies`` to the bit.
    """
    entry = graph._corner_chains.get(id(cycle))
    if entry is not None and entry[0] == cycle:
        table = entry[1]
    else:
        table = tuple((coeff, (f, slot), (f, (slot + 1) % 3), (f, (slot + 2) % 3))
                      for (f, slot), coeff in homology.phi(graph, cycle).items())
        memo = graph._corner_chains
        memo[id(cycle)] = (dict(cycle), table)
        if len(memo) > len(graph.faces):
            del memo[next(iter(memo))]
    log, sin = math.log, math.sin
    total = phase = 0.0
    for coeff, c, num, den in table:
        total += coeff * (log(sin(theta[num])) - log(sin(theta[den])))
        phase += coeff * theta[c]
    return HolonomyValue(total, phase)


def is_trivial_holonomy(
    graph: TriRibbonGraph, theta: AngleAssignment, basis: list[homology.Chain1]
) -> bool:
    """True iff holonomy is within ``HOLONOMY_TOL`` of 1 on every basis cycle."""
    return all(hol.distance_to_one() < HOLONOMY_TOL for hol in holonomies(graph, theta, basis))
