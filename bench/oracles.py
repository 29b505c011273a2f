"""Answer checks that do not call the library.

Each check recomputes what it needs from plain data (face boundaries,
matchings as dicts, periods as complex numbers) with numpy and raises
``OracleError`` when the library's answer disagrees.  A failed check counts
the op as failed.
"""

from __future__ import annotations

import math

import numpy as np

# OEIS A057005: transitive permutation pairs of Sym(s) up to simultaneous
# conjugation, s = 1..5.
CLASS_COUNTS = (1, 3, 7, 26, 97)
# Geometrically simple classes among them (distinct cylinder pairs at every
# square); the sweep checks these 25.
SIMPLE_COUNTS = (1, 2, 3, 7, 12)

SLACK_TOL = 1e-7
RESIDUAL_TOL = 1e-8
HOLONOMY_TOL = 1e-9


class OracleError(Exception):
    """An answer that failed an independent check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def corner_index(faces) -> dict[tuple[str, int], int]:
    """Corner (face, slot) -> column, faces in sorted order."""
    return {(f, s): 3 * i + s for i, f in enumerate(sorted(f for f, _ in faces)) for s in range(3)}


def equality_system(faces, iota) -> tuple[np.ndarray, np.ndarray]:
    """Face sums equal pi, and each corner equals its image under the matching."""
    idx = corner_index(faces)
    rows, rhs = [], []
    for f, _ in faces:
        row = np.zeros(len(idx))
        row[[idx[(f, s)] for s in range(3)]] = 1.0
        rows.append(row)
        rhs.append(math.pi)
    for c, img in iota.items():
        if c != img:
            row = np.zeros(len(idx))
            row[idx[c]] += 1.0
            row[idx[img]] -= 1.0
            rows.append(row)
            rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def _sides(faces) -> dict[str, list[tuple[str, int]]]:
    sides: dict[str, list[tuple[str, int]]] = {}
    for f, boundary in faces:
        for s, e in enumerate(boundary):
            sides.setdefault(e, []).append((f, s))
    return sides


def inequality_system(faces) -> tuple[np.ndarray, np.ndarray]:
    """Rows G, h with G x < h: every angle positive, and at every edge the two
    opposite angles sum below pi.  The corner opposite slot s is slot s + 1."""
    idx = corner_index(faces)
    n = len(idx)
    rows = list(-np.eye(n))
    rhs = [0.0] * n
    for sides in _sides(faces).values():
        row = np.zeros(n)
        for f, s in sides:
            row[idx[(f, (s + 1) % 3)]] += 1.0
        rows.append(row)
        rhs.append(math.pi)
    return np.array(rows), np.array(rhs)


def optimum_slack(slack: float) -> None:
    """Some angle of every face is at most pi/3 and equilateral angles reach
    slack pi/3 in every constraint, so the max-min slack is exactly pi/3."""
    _require(abs(slack - math.pi / 3) <= SLACK_TOL, f"optimum slack {slack!r} is not pi/3")


def dimension(faces, iota, dim) -> None:
    eq, _ = equality_system(faces, iota)
    expect = eq.shape[1] - int(np.linalg.matrix_rank(eq))
    _require(dim == expect, f"dimension {dim!r}, expected {expect}")


def points_in_region(faces, iota, points) -> float:
    """Every point meets the equalities and the strict inequalities.

    Returns the least slack over all points.
    """
    _require(len(points) > 0, "no points")
    idx = corner_index(faces)
    eq, eq_rhs = equality_system(faces, iota)
    g, g_rhs = inequality_system(faces)
    least = math.inf
    for theta in points:
        _require(set(theta) == set(idx), "point does not assign every corner")
        x = np.zeros(len(idx))
        for c, val in theta.items():
            x[idx[c]] = val
        residual = float(np.abs(eq @ x - eq_rhs).max())
        _require(residual <= RESIDUAL_TOL, f"equality residual {residual:.3e}")
        slack = float((g_rhs - g @ x).min())
        _require(slack > 0.0, f"inequality violated (least slack {slack:.3e})")
        least = min(least, slack)
    return least


def holonomy_constant(values: list[list[complex]]) -> float:
    """values[i][k]: holonomy of basis cycle k at sample i.  Returns the
    largest deviation from the first sample."""
    _require(len(values) > 0, "no holonomy values")
    first = values[0]
    dev = 0.0
    for row in values:
        _require(len(row) == len(first), "samples have different cycle counts")
        dev = max([dev] + [abs(a - b) for a, b in zip(row, first)])
    _require(dev <= HOLONOMY_TOL, f"holonomy differs across samples by {dev:.3e}")
    return dev


def h1_rank(faces, edges, rank: int) -> None:
    """The bipartite edge/face graph has 3F half-edges and E + F vertices."""
    expect = 3 * len(faces) - len(edges) - len(faces) + 1
    _require(rank == expect, f"cycle basis has {rank} cycles, expected {expect}")


def _parse_corner(key: str) -> tuple[str, int]:
    face, _, slot = key.rpartition("/")
    return face, int(slot)


def cli_graph(envelope: dict, edges, faces) -> None:
    """The `origami build` envelope carries exactly this graph."""
    _require(envelope.get("command") == "origami build", "wrong command in envelope")
    result = envelope.get("result", {})
    _require(list(result.get("edges", ())) == list(edges), "CLI edges differ")
    got = [(rec["id"], tuple(rec["boundary"])) for rec in result.get("faces", ())]
    _require(got == [(f, tuple(b)) for f, b in faces], "CLI faces differ")


def cli_matching(envelope: dict, iota) -> None:
    """The `origami matching` envelope carries exactly this matching."""
    _require(envelope.get("command") == "origami matching", "wrong command in envelope")
    result = envelope.get("result", {})
    _require(result.get("canonical_matching_valid") is True, "CLI matching not valid")
    got = {_parse_corner(k): _parse_corner(v) for k, v in (result.get("matching") or {}).items()}
    _require(got == dict(iota), "CLI matching differs")


def sweep(counts: list[int], checked: int, mismatches: list) -> None:
    n = len(counts)
    _require(tuple(counts) == CLASS_COUNTS[:n], f"class counts {counts}, expected {CLASS_COUNTS[:n]}")
    _require(checked == sum(SIMPLE_COUNTS[:n]), f"checked {checked}, expected {sum(SIMPLE_COUNTS[:n])}")
    _require(not mismatches, f"{len(mismatches)} mismatches, first {mismatches[:1]}")


def flat_surface(faces, periods) -> None:
    """Every face closes up, is counterclockwise, and glued sides carry
    opposite periods: the layout has trivial holonomy."""
    scale = max(abs(z) for z in periods.values())
    for f, _ in faces:
        z = [periods[(f, s)] for s in range(3)]
        _require(abs(sum(z)) <= RESIDUAL_TOL * scale, f"face {f} does not close")
        _require((z[0].conjugate() * z[1]).imag > 0, f"face {f} is not counterclockwise")
    for e, sides in _sides(faces).items():
        _require(len(sides) == 2, f"edge {e} has {len(sides)} sides")
        a, b = sides
        _require(abs(periods[a] + periods[b]) <= RESIDUAL_TOL * scale, f"edge {e} is glued inconsistently")


def area(faces, periods) -> float:
    return sum(
        (periods[(f, 0)].conjugate() * periods[(f, 1)]).imag / 2.0 for f, _ in faces
    )


def corner_angle(periods, f: str, s: int) -> float:
    """Angle at the head of side s, between side s + 1 and side s reversed."""
    u = periods[(f, (s + 1) % 3)]
    w = -periods[(f, s)]
    return abs(math.atan2((u.conjugate() * w).imag, (u.conjugate() * w).real))


def delaunay_surface(faces, periods) -> float:
    """Opposite angles at every edge sum below pi.  Returns the least gap."""
    least = math.inf
    for e, sides in _sides(faces).items():
        total = sum(corner_angle(periods, f, (s + 1) % 3) for f, s in sides)
        least = min(least, math.pi - total)
    _require(least > 0.0, f"not Delaunay (opposite-angle gap {least:.3e})")
    return least
