"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` built from the run's seed, so the
same seed gives the same inputs.  Inputs are plain permutation pairs (and
the ``Origami`` objects that carry them), shear parameters and relabelings;
the library does all the graph building inside the timed ops.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass

from isodelaunay import origami

# One pass of the region_pipeline size ladder.  An int is an arboreal origami
# with that many squares; a pair is the connected sum of two arboreal
# origamis.  Every fourth surface is a sum.  The 24 and the 16 are the only
# ops slower than a 12, one each per pass of 24, so fewer than 11 of them
# run in up to about 100 ops: the tail (ten ops beyond it) then sits among
# the 12s however many ops the host's speed allows in a run.  The 8s and
# the sums are a third of the ops and the 12s over half, so the median sits
# among the 12s too.  The 24 is first so that a run which ends part-way
# through a pass has still done it.
REGION_LADDER = (24, 12, 12, (6, 6), 8, 12, 12, (6, 6), 12, 12, 12, (6, 6),
                 16, 12, 12, (6, 6), 8, 12, 12, (6, 6), 12, 12, 12, (6, 6))
REGION_PASSES = 2
REGION_SAMPLES = 20

# flip_develop: surface i has FLIP_SMALL squares when i % 6 == 5, else
# FLIP_LARGE, and a shear with integer part 2 + i % 5 and fractional part in
# [0.2, 0.8].  Integer shears give cocircular (degenerate) quadrilaterals, and
# the Lawson flip count (s, 2s or 3s flips) steps at odd integers, so the
# fractional part keeps clear of both.  6 and 5 are coprime: every 30
# surfaces cover each (size, integer part) pair once.  With one surface in
# six small, the median op sits in the middle of the large surfaces that
# take 2s flips, not in the gap between them and those that take s.
FLIP_LARGE = 96
FLIP_SMALL = 48
FLIP_POOL = 60
FLIP_CYCLE = 30

SWEEP_MAX_SQUARES = 5
SWEEP_POOL = 8

_GOLDEN = 0.6180339887498949


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A uniformly random labeled tree on vertices 0..n-1, as its n-1 edges."""
    if n < 2:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_arboreal(s: int, rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(h, v) of a random arboreal origami with ``s`` squares.

    A random tree with s edges is 2-coloured into horizontal and vertical
    cylinders; its edges are the squares, labeled 1..s at random.  The squares
    at a cylinder, in a random cyclic order, form one cycle of h or of v.
    """
    edges = prufer_tree(s + 1, rng)
    adjacent: dict[int, list[int]] = {x: [] for x in range(s + 1)}
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    colour = {0: 0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adjacent[x]:
            if y not in colour:
                colour[y] = 1 - colour[x]
                stack.append(y)
    labels = list(range(1, s + 1))
    rng.shuffle(labels)
    squares_at: dict[int, list[int]] = {x: [] for x in range(s + 1)}
    for (a, b), square in zip(edges, labels):
        squares_at[a].append(square)
        squares_at[b].append(square)
    h = list(range(1, s + 1))
    v = list(range(1, s + 1))
    for x in range(s + 1):
        cyc = squares_at[x]
        rng.shuffle(cyc)
        perm = h if colour[x] == 0 else v
        for i, square in enumerate(cyc):
            perm[square - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(h), tuple(v)


def _transitive(h, v) -> bool:
    seen = {1}
    stack = [1]
    while stack:
        j = stack.pop()
        for k in (h[j - 1], v[j - 1]):
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return len(seen) == len(h)


def random_transitive(s: int, rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(h, v) drawn uniformly from the transitive pairs in Sym(s), by rejection."""
    while True:
        h = list(range(1, s + 1))
        v = list(range(1, s + 1))
        rng.shuffle(h)
        rng.shuffle(v)
        if _transitive(h, v):
            return tuple(h), tuple(v)


def conjugate(perm: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """g perm g^-1: relabel every square x as g(x)."""
    out = [0] * len(perm)
    for x in range(1, len(perm) + 1):
        out[g[x - 1] - 1] = g[perm[x - 1] - 1]
    return tuple(out)


def cycles(perm: tuple[int, ...]) -> list[list[int]]:
    """All cycles of a permutation of 1..n, fixed points included."""
    seen = set()
    out = []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cyc = []
        x = start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = perm[x - 1]
        out.append(cyc)
    return out


def cycle_count(perm: tuple[int, ...]) -> int:
    return len(cycles(perm))


def spec(h: tuple[int, ...], v: tuple[int, ...]) -> str:
    """The CLI spec "h=(1,2)(3,4);v=(...)"; fixed points are left implicit."""

    def notation(perm):
        parts = ["(" + ",".join(map(str, c)) + ")" for c in cycles(perm) if len(c) > 1]
        return "".join(parts) or "()"

    return f"h={notation(h)};v={notation(v)}"


@dataclass
class RegionInput:
    origamis: list[origami.Origami]
    specs: list[str]
    # half-edges of the two summands along which a sum is glued; None for one origami
    glue: tuple[tuple[str, int], tuple[str, int]] | None
    sample_seed: int


@dataclass
class FlipInput:
    origami: origami.Origami
    shear: float


@dataclass
class SweepInput:
    # relabel[s - 1] is the permutation of 1..s applied to every class of size s
    relabel: list[tuple[int, ...]]
    max_squares: int = SWEEP_MAX_SQUARES


def _random_half_edge(s: int, rng: random.Random) -> tuple[str, int]:
    return f"f{rng.randint(1, s)}{rng.choice('+-')}", rng.randrange(3)


def region_input(size, rng: random.Random) -> RegionInput:
    sizes = size if isinstance(size, tuple) else (size,)
    origamis = [origami.Origami(*random_arboreal(s, rng)) for s in sizes]
    glue = None
    if len(origamis) == 2:
        glue = (_random_half_edge(sizes[0], rng), _random_half_edge(sizes[1], rng))
    return RegionInput(
        origamis, [spec(o.h, o.v) for o in origamis], glue, rng.randrange(2**31)
    )


def region_inputs(seed: int) -> list[RegionInput]:
    rng = random.Random(f"region_pipeline/{seed}")
    return [region_input(size, rng) for _ in range(REGION_PASSES) for size in REGION_LADDER]


def flip_input(s: int, shear: float, rng: random.Random) -> FlipInput:
    return FlipInput(origami.Origami(*random_transitive(s, rng)), shear)


def flip_inputs(seed: int) -> list[FlipInput]:
    rng = random.Random(f"flip_develop/{seed}")
    offset = rng.random()
    out = []
    for i in range(FLIP_POOL):
        frac = 0.2 + 0.6 * ((offset + i * _GOLDEN) % 1.0)
        s = FLIP_SMALL if i % 6 == 5 else FLIP_LARGE
        out.append(flip_input(s, 2 + i % 5 + frac, rng))
    return out


def sweep_input(rng: random.Random, max_squares: int = SWEEP_MAX_SQUARES) -> SweepInput:
    relabel = []
    for s in range(1, max_squares + 1):
        g = list(range(1, s + 1))
        rng.shuffle(g)
        relabel.append(tuple(g))
    return SweepInput(relabel, max_squares)


def sweep_inputs(seed: int) -> list[SweepInput]:
    rng = random.Random(f"origami_sweep/{seed}")
    return [sweep_input(rng) for _ in range(SWEEP_POOL)]


def describe(inp) -> dict:
    """A plain-data description of one input, for the digest."""
    if isinstance(inp, RegionInput):
        return {"specs": inp.specs, "glue": inp.glue, "sample_seed": inp.sample_seed}
    if isinstance(inp, FlipInput):
        return {"h": inp.origami.h, "v": inp.origami.v, "shear": repr(inp.shear)}
    return {"relabel": inp.relabel, "max_squares": inp.max_squares}


def digest(inputs) -> str:
    """Short hash of the inputs, so two runs can show they measured the same surfaces."""
    text = json.dumps([describe(i) for i in inputs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
