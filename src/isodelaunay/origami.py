"""Square-tiled surfaces from permutation pairs.

An origami is given by permutations h (horizontal gluing: the right side of
square j meets the left side of square h(j)) and v (vertical: the top of
square j meets the bottom of square v(j)) acting transitively on 1..s.
Each square is cut along its positively sloped diagonal into a lower
triangle f{j}- and an upper triangle f{j}+.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from .angles import AngleAssignment
from .ribbon import TriRibbonGraph

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(text: str) -> list[list[int]]:
    """The cycles of a cycle-notation string; each symbol at most once."""
    text = text.strip()
    if not text or text in ("()", "id", "e"):
        cycles: list[list[int]] = []
    else:
        chunks = _CYCLE_RE.findall(text)
        if "".join(f"({c})" for c in chunks).replace(" ", "") != text.replace(" ", ""):
            raise ValueError(f"cannot parse permutation {text!r}")
        cycles = []
        for chunk in chunks:
            if "," in chunk or any(ch.isspace() for ch in chunk.strip()):
                parts = [p for p in re.split(r"[,\s]+", chunk.strip()) if p]
            else:
                parts = list(chunk.strip())
            cyc = [int(p) for p in parts]
            if any(x < 1 for x in cyc):
                raise ValueError(f"permutation symbols must be >= 1 in {text!r}")
            cycles.append(cyc)
    flat = [x for cyc in cycles for x in cyc]
    if len(flat) != len(set(flat)):
        raise ValueError(f"repeated symbol in {text!r}")
    return cycles


def _image(cycles: list[list[int]], size: int) -> tuple[int, ...]:
    """1-indexed image tuple of disjoint cycles, padded with fixed points to ``size``."""
    n = max([size] + [x for cyc in cycles for x in cyc])
    image = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a - 1] = b
    return tuple(image)


def _cycles_and_index(perm: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[int]]:
    """``permutation_cycles(perm)``, and the index of each symbol's cycle."""
    index, cycles = [-1] * len(perm), []
    for start in range(1, len(perm) + 1):
        j, cycle = start, []
        while index[j - 1] < 0:
            index[j - 1] = len(cycles)
            cycle.append(j)
            j = perm[j - 1]
        if cycle:
            cycles.append(tuple(cycle))
    return cycles, index


def permutation_cycles(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    return _cycles_and_index(perm)[0]


@dataclass(frozen=True)
class Origami:
    h: tuple[int, ...]
    v: tuple[int, ...]

    def __post_init__(self):
        if len(self.h) != len(self.v):
            raise ValueError("h and v act on different numbers of squares")
        for name, perm in (("h", self.h), ("v", self.v)):
            if sorted(perm) != list(range(1, len(perm) + 1)):
                raise ValueError(f"{name} = {perm} is not a permutation of 1..{len(perm)}")
        if not is_transitive(self.h, self.v):
            raise ValueError("h and v do not act transitively; surface is disconnected")

    @property
    def squares(self) -> int:
        return len(self.h)

    @classmethod
    def from_strings(cls, h: str, v: str) -> "Origami":
        # A transitive pair on n > 1 squares moves every square, so each of
        # 1..n is mentioned; checking this first bounds the image lists by
        # the length of the input.
        ch, cv = _parse_cycles(h), _parse_cycles(v)
        mentioned = {x for cyc in ch + cv for x in cyc}
        n = max(mentioned, default=1)
        if n > max(1, len(mentioned)):
            raise ValueError(
                f"symbol {n} used but only {len(mentioned)} squares mentioned; "
                "h and v do not act transitively"
            )
        return cls(_image(ch, n), _image(cv, n))

    @classmethod
    def from_spec(cls, text: str) -> "Origami":
        """Parse a combined spec like "h=(12);v=(13)"."""
        fields = dict()
        for part in text.split(";"):
            key, _, val = part.partition("=")
            key = key.strip()
            if key in fields:
                raise ValueError(f"key {key!r} given twice in {text!r}")
            fields[key] = val.strip()
        if set(fields) != {"h", "v"}:
            raise ValueError(f"expected 'h=...;v=...', got {text!r}")
        return cls.from_strings(fields["h"], fields["v"])


def is_transitive(h: tuple[int, ...], v: tuple[int, ...]) -> bool:
    if not h:
        return False
    # the orbit of square 1, listed as it is reached
    orbit, seen = [1], {1}
    for j in orbit:
        for img in (h[j - 1], v[j - 1]):
            if img not in seen:
                seen.add(img)
                orbit.append(img)
    return len(orbit) == len(h)


def build_origami_graph(o: Origami) -> TriRibbonGraph:
    """Dual graph of the diagonal triangulation.

    Square j owns its bottom edge b{j}, left edge l{j} and diagonal d{j};
    its top edge is b{v(j)} and its right edge is l{h(j)}.  The lower
    triangle f{j}- has counterclockwise boundary (bottom, right, diagonal),
    the upper triangle f{j}+ has (diagonal, top, left).
    """
    edges = []
    faces = []
    for j in range(1, o.squares + 1):
        b, l, d = f"b{j}", f"l{j}", f"d{j}"
        edges += [b, l, d]
        right = f"l{o.h[j - 1]}"
        top = f"b{o.v[j - 1]}"
        faces.append((f"f{j}-", (b, right, d)))
        faces.append((f"f{j}+", (d, top, l)))
    return TriRibbonGraph(edges, faces)


def standard_angles(o: Origami) -> AngleAssignment:
    """Isosceles right triangles: the right angle sits opposite the diagonal."""
    theta: AngleAssignment = {}
    q = math.pi / 4
    for j in range(1, o.squares + 1):
        # lower boundary (b, r, d): right angle at the corner between b and r
        theta[(f"f{j}-", 0)] = 2 * q
        theta[(f"f{j}-", 1)] = q
        theta[(f"f{j}-", 2)] = q
        # upper boundary (d, t, l): right angle at the corner between t and l
        theta[(f"f{j}+", 0)] = q
        theta[(f"f{j}+", 1)] = 2 * q
        theta[(f"f{j}+", 2)] = q
    return theta


def equilateral_angles(o: Origami) -> AngleAssignment:
    """Equilateral triangles: every corner is pi/3."""
    return {(f"f{j}{side}", s): math.pi / 3
            for j in range(1, o.squares + 1) for side in "-+" for s in range(3)}


@dataclass(frozen=True)
class Network:
    horizontal: tuple[tuple[int, ...], ...]
    vertical: tuple[tuple[int, ...], ...]
    geometrically_simple: bool
    arboreal: bool


def network(o: Origami) -> Network:
    """Cylinder network: one vertex per cylinder, one intersection per square.

    Each permutation's cylinders and each square's cylinder index come from
    one walk.  Arboreal means that the intersection graph Lambda is a tree.
    """
    hcyc, hcyl = _cycles_and_index(o.h)
    vcyc, vcyl = _cycles_and_index(o.v)
    simple = len(set(zip(hcyl, vcyl))) == o.squares
    # Lambda is connected (j, h(j) share an h-cylinder, j, v(j) a v-cylinder): tree iff s = V - 1
    return Network(tuple(hcyc), tuple(vcyc), simple, len(hcyc) + len(vcyc) == o.squares + 1)


def canonical_matching(o: Origami) -> dict:
    """The per-square candidate pairing lower and upper triangles.

    In each square: bottom <-> top, right <-> left, diagonal <-> diagonal,
    which in slots is (f-, s) <-> (f+, s+1).  Z/3-equivariant by
    construction; whether it is a triangle matching is decided by
    verification against the cycle basis.
    """
    iota = {}
    for j in range(1, o.squares + 1):
        lo, hi = f"f{j}-", f"f{j}+"
        for s in range(3):
            iota[(lo, s)] = (hi, (s + 1) % 3)
            iota[(hi, (s + 1) % 3)] = (lo, s)
    return iota


def transitive_pairs_up_to_relabeling(s: int):
    """Transitive (h, v) pairs in Sym(s), one per simultaneous-conjugation class.

    Each class is represented by its lexicographically least pair, in
    increasing (h, v) order.  That pair has the least h of h's conjugacy
    class (a relabeling that lowers h lowers the pair), so h runs over the
    least permutation of each cycle type.  The pairs of the class with
    first entry h are (h, g v g^-1) for g in the centralizer
    C(h) = {g : gh = hg}, so a transitive (h, v) is kept iff no g in C(h)
    gives g v g^-1 < v: the orderly-generation test of Read and McKay, made
    on v itself and stopping at the first lesser conjugate.

    The identity, the least h, is settled in closed form: C(id) = Sym(s),
    so (id, v) is least iff v is least in its conjugacy class, and
    <id, v> = <v> is transitive iff v is an s-cycle; the least s-cycle gives
    the one class with h = id, (id, (2, 3, ..., s, 1)), first in the list.
    """
    if s < 1:
        return []
    perms = list(itertools.permutations(range(1, s + 1)))
    out = [Origami(tuple(range(1, s + 1)), tuple(range(2, s + 1)) + (1,))]
    for h in _least_of_each_cycle_type(s)[1:]:
        # each g of C(h) but the identity, 1-indexed by (0,) + g, with the
        # 0-based positions of 1..s in g, so that (g v g^-1)(y) = g[v[gi[y - 1]]]
        centralizer = [((0,) + g, [g.index(y) for y in range(1, s + 1)])
                       for g in _centralizer(h)[1:]]
        for v in perms:
            if not _has_lesser_conjugate(v, centralizer) and is_transitive(h, v):
                out.append(Origami(h, v))
    return out


def _least_of_each_cycle_type(s: int, least: int = 1) -> list[tuple[int, ...]]:
    """The lexicographically least permutation of 1..s of each cycle type
    whose cycles are at least ``least`` long, in increasing order.  It takes
    its shortest cycle on the first symbols, as 1 -> 2 -> ... -> 1, and the
    rest likewise: position by position, each image is the least one free."""
    if s == 0:
        return [()]
    out = []
    for k in range(least, s + 1):
        head = tuple(range(2, k + 1)) + (1,)
        out += [head + tuple(x + k for x in rest) for rest in _least_of_each_cycle_type(s - k, k)]
    return sorted(out)


def _centralizer(h: tuple[int, ...]) -> list[tuple[int, ...]]:
    """C(h) = {g : gh = hg} in increasing order, the identity first.

    Such a g carries each cycle of h onto a cycle of the same length, its
    i-th symbol onto the target's (i + r)-th for one rotation r, so C(h) is
    every bijection between the cycles of each length with every rotation.
    """
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cycle in permutation_cycles(h):
        by_length.setdefault(len(cycle), []).append(cycle)
    # per cycle length, each way to map those cycles, as the images of their
    # symbols listed cycle by cycle
    per_length = []
    for cycles in by_length.values():
        rotations = {c: [c[r:] + c[:r] for r in range(len(c))] for c in cycles}
        per_length.append([tuple(itertools.chain.from_iterable(images))
                           for targets in itertools.permutations(cycles)
                           for images in itertools.product(*(rotations[t] for t in targets))])
    listed = [x for cycles in by_length.values() for cycle in cycles for x in cycle]
    where = sorted(range(len(listed)), key=listed.__getitem__)  # where each of 1..s is listed
    return sorted(tuple(images[i] for i in where)
                  for images in (sum(parts, ()) for parts in itertools.product(*per_length)))


def _has_lesser_conjugate(v: tuple[int, ...], centralizer: list) -> bool:
    """Whether some g v g^-1 is lexicographically below v, compared entry by entry."""
    for g, gi in centralizer:
        for i, x in zip(gi, v):
            w = g[v[i]]
            if w != x:
                if w < x:
                    return True
                break
    return False
