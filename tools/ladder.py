"""Time each pipeline stage on a ladder of staircase origamis, and print JSON.

The staircase on n squares has h = (1,2)(3,4)..., v = (2,3)(4,5)...; its
canonical matching is a triangle matching, and its region has dimension
F = 2n, the number of faces.  For F = 24, 48, 96, 192 and 384 the script
times, each as the best of three runs in wall seconds:

- ``cycle_basis`` and ``find_matchings(limit=1)`` on the staircase's graph,
  each repeat on a fresh copy of the graph, built outside the timing, since
  the graph keeps its cycle basis once built (``find_matchings`` builds it
  too, so its row includes one basis);
- ``build_polytope`` on the graph and its canonical matching, with the
  graph's basis already built, as in the region pipeline;
- ``sample(poly, 5)`` with seed 1, on a polytope whose optimum
  ``analyze`` has already certified, as in the region pipeline (a polytope
  keeps its certificate, so only the first call would pay it);
- the holonomy of every basis cycle at the first sample, in one
  ``holonomies`` call, and ``develop`` of that sample;
- ``cycle_basis`` and then that ``holonomies`` call on a fresh copy of the
  graph, built outside the timing, as the flip_develop workload calls them:
  the basis walk emits each basis cycle's corner chain rows, so this row
  shows the cost of the rows together with the evaluation that reads them;
- the holonomy of every basis cycle at each of the 5 samples, one
  ``holonomy`` call per cycle and sample, as the region pipeline makes them
  (each repeat on a fresh copy of the graph, built with its cycle basis and
  so with its corner chain rows outside the timing), which is the
  evaluation alone;
- ``make_delaunay`` of the square-tiled surface under (x, y) -> (x + 1.3 y, y)
  and then (x, y) -> (x, y + 0.4 x), each repeat on a fresh copy of that
  surface, built outside the timing, since a surface keeps its corner angles
  once solved;
- ``is_geometric_delaunay`` and ``angles_of`` on the surface that
  ``make_delaunay`` returns, which keeps the angles the flips left, as the
  flip_develop workload calls them.

It also times ``transitive_pairs_up_to_relabeling(s)`` for s = 5, 6 and 7,
best of three, under its own key ``enumeration``, since that stage grows
with the number of squares s and not with F.  Under ``class_loop`` it times
the stages of the ``origami sweep`` class loop over every class with
s = 6, each stage over all the classes at once, best of three:
``network``; ``build_origami_graph``; ``cycle_basis``, each repeat on fresh
copies of the graphs; ``verify_matching`` of the canonical matching, given
the basis; and ``find_matchings(limit=1)`` on graphs that keep their basis,
as the sweep calls them.

It sets no gate; the output is a record of how each stage grows with F or s.
Run it from the root of the tree:

    PYTHONPATH=src python tools/ladder.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from isodelaunay import angles, develop, homology, matching, origami, region  # noqa: E402

FACES = (24, 48, 96, 192, 384)
SQUARES = (5, 6, 7)
CLASS_SQUARES = 6
REPEATS = 3
SHEAR = (1.3, 0.4)


def staircase(n: int) -> origami.Origami:
    h, v = list(range(1, n + 1)), list(range(1, n + 1))
    for i in range(0, n - 1, 2):
        h[i], h[i + 1] = h[i + 1], h[i]
    for i in range(1, n - 1, 2):
        v[i], v[i + 1] = v[i + 1], v[i]
    return origami.Origami(tuple(h), tuple(v))


def sheared(o: origami.Origami) -> develop.DevelopedSurface:
    g = origami.build_origami_graph(o)
    surface = develop.develop(g, origami.standard_angles(o))
    a, b = SHEAR
    periods = {}
    for h, z in surface.periods.items():
        x = z.real + a * z.imag
        periods[h] = complex(x, z.imag + b * x)
    return develop.DevelopedSurface(g, periods)


def basis_and_holonomies(g, theta) -> None:
    angles.holonomies(g, theta, homology.cycle_basis(g))


def per_point_holonomy(g, samples: list, basis: list) -> None:
    for theta in samples:
        for alpha in basis:
            angles.holonomy(g, theta, alpha)


def timed(record: dict, stage: str, fn):
    """Run ``fn`` REPEATS times, keep its best time under ``stage``, return its value."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    record.setdefault(stage, []).append(best)
    return value


def class_loop() -> dict:
    classes = origami.transitive_pairs_up_to_relabeling(CLASS_SQUARES)
    seconds: dict[str, list[float]] = {}
    timed(seconds, "network", lambda: [origami.network(o) for o in classes])
    graphs = timed(seconds, "build_origami_graph",
                   lambda: [origami.build_origami_graph(o) for o in classes])
    fresh = [[origami.build_origami_graph(o) for o in classes] for _ in range(REPEATS)]
    timed(seconds, "cycle_basis", lambda: [homology.cycle_basis(g) for g in fresh.pop()])
    bases = [homology.cycle_basis(g) for g in graphs]  # kept by each graph, as in the sweep
    canonical = [origami.canonical_matching(o) for o in classes]
    timed(seconds, "verify_matching of the canonical matching",
          lambda: [matching.verify_matching(*args) for args in zip(graphs, canonical, bases)])
    timed(seconds, "find_matchings(limit=1)",
          lambda: [matching.find_matchings(g, limit=1) for g in graphs])
    return {"squares": CLASS_SQUARES, "classes": len(classes), "seconds": seconds}


def ladder() -> dict:
    seconds: dict[str, list[float]] = {}
    dimensions = []
    for faces in FACES:
        o = staircase(faces // 2)
        g = origami.build_origami_graph(o)
        iota = origami.canonical_matching(o)
        fresh = [origami.build_origami_graph(o) for _ in range(REPEATS)]
        timed(seconds, "cycle_basis", lambda: homology.cycle_basis(fresh.pop()))
        fresh = [origami.build_origami_graph(o) for _ in range(REPEATS)]
        found = timed(seconds, "find_matchings(limit=1)",
                      lambda: matching.find_matchings(fresh.pop(), limit=1).matchings)
        basis = homology.cycle_basis(g)
        if not found:
            raise RuntimeError(f"no matching found on the staircase with {faces} faces")
        poly = timed(seconds, "build_polytope", lambda: region.build_polytope(g, iota))
        dimensions.append(poly.dimension)
        region.analyze(poly)
        samples = timed(seconds, "sample(poly, 5), optimum already certified",
                        lambda: region.sample(poly, 5, seed=1))
        timed(seconds, "holonomy of every basis cycle",
              lambda: angles.holonomies(g, samples[0], basis))
        fresh = [origami.build_origami_graph(o) for _ in range(REPEATS)]
        timed(seconds, "cycle_basis and holonomy of every basis cycle, fresh graph",
              lambda: basis_and_holonomies(fresh.pop(), samples[0]))
        fresh = [origami.build_origami_graph(o) for _ in range(REPEATS)]
        for copy in fresh:
            homology.cycle_basis(copy)  # kept by the graph, as in the region pipeline
        timed(seconds, "holonomy, one call per cycle at each of 5 samples",
              lambda: per_point_holonomy(fresh.pop(), samples, basis))
        timed(seconds, "develop", lambda: develop.develop(g, samples[0]))
        start = sheared(o)
        fresh = [develop.DevelopedSurface(start.graph, dict(start.periods))
                 for _ in range(REPEATS)]
        flipped = timed(seconds, "make_delaunay", lambda: develop.make_delaunay(fresh.pop()))[0]
        timed(seconds, "is_geometric_delaunay", lambda: develop.is_geometric_delaunay(flipped))
        timed(seconds, "angles_of", lambda: develop.angles_of(flipped))
    enumeration = {"squares": list(SQUARES)}
    for s in SQUARES:
        timed(enumeration, "seconds", lambda: origami.transitive_pairs_up_to_relabeling(s))
    return {"faces": list(FACES), "dimension": dimensions, "repeats": REPEATS,
            "seconds": seconds, "enumeration": enumeration, "class_loop": class_loop()}


if __name__ == "__main__":
    print(json.dumps(ladder(), indent=1))
