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
from .ribbon import TriRibbonGraph, orbits

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


def permutation_cycles(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [tuple(c) for c in orbits(range(1, len(perm) + 1), lambda j: perm[j - 1])]


@dataclass(frozen=True)
class Origami:
    h: tuple[int, ...]
    v: tuple[int, ...]

    def __post_init__(self):
        if len(self.h) != len(self.v):
            raise ValueError("h and v act on different numbers of squares")
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
            fields[key.strip()] = val.strip()
        if set(fields) != {"h", "v"}:
            raise ValueError(f"expected 'h=...;v=...', got {text!r}")
        return cls.from_strings(fields["h"], fields["v"])


def is_transitive(h: tuple[int, ...], v: tuple[int, ...]) -> bool:
    n = len(h)
    if n == 0:
        return False
    seen = {1}
    stack = [1]
    while stack:
        j = stack.pop()
        for img in (h[j - 1], v[j - 1]):
            if img not in seen:
                seen.add(img)
                stack.append(img)
    return len(seen) == n


def _names(j: int):
    return f"b{j}", f"l{j}", f"d{j}"


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
        b, l, d = _names(j)
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

    Arboreal means that the intersection graph Lambda is a tree.
    """
    hcyc = permutation_cycles(o.h)
    vcyc = permutation_cycles(o.v)
    cyl_of_h = {j: i for i, cyc in enumerate(hcyc) for j in cyc}
    cyl_of_v = {j: i for i, cyc in enumerate(vcyc) for j in cyc}
    pairs = [(cyl_of_h[j], cyl_of_v[j]) for j in range(1, o.squares + 1)]
    simple = len(pairs) == len(set(pairs))
    # Lambda is connected (j, h(j) share an h-cylinder, j, v(j) a v-cylinder): tree iff s = V - 1
    tree = len(hcyc) + len(vcyc) == o.squares + 1
    return Network(tuple(hcyc), tuple(vcyc), simple, tree)


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

    Each class is represented by its lexicographically least pair, and the
    list is in increasing (h, v) order.  A pair's class is keyed by BFS
    labeling: from each start square, number the squares in breadth-first
    order, visiting h(j) before v(j), and rewrite (h, v) in those numbers.
    Since the action is transitive every start labels all s squares, and
    the least of the s rewritten pairs is a complete invariant of the
    class, at O(s^2) per pair.

    The least pair of a class has the least h of h's conjugacy class (a
    relabeling that lowers h lowers the pair), so h runs only over the
    lexicographically least permutation of each cycle type.  Pairs are
    met in (h, v) order, so the first of each class is its least pair.
    """
    perms = list(itertools.permutations(range(1, s + 1)))
    least_of_type = {}
    for h in perms:
        cycle_type = tuple(sorted(len(c) for c in permutation_cycles(h)))
        least_of_type.setdefault(cycle_type, h)
    seen = set()
    out = []
    for h in least_of_type.values():
        for v in perms:
            key = _bfs_key(h, v)
            if key is None or key in seen:
                continue
            seen.add(key)
            out.append(Origami(h, v))
    return out


def _bfs_key(h: tuple[int, ...], v: tuple[int, ...]):
    """Least BFS relabeling of (h, v) over all start squares; None if intransitive."""
    s = len(h)
    best = None
    for start in range(1, s + 1):
        label = {start: 1}
        order = [start]
        for j in order:
            for img in (h[j - 1], v[j - 1]):
                if img not in label:
                    label[img] = len(order) + 1
                    order.append(img)
        if len(order) < s:
            return None
        key = (
            tuple(label[h[j - 1]] for j in order),
            tuple(label[v[j - 1]] for j in order),
        )
        if best is None or key < best:
            best = key
    return best
