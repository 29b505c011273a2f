"""Origami facts computed without the library (the cylinder tree count, the
relabeling classes of transitive pairs by canonical BFS labels, and the least
permutation of each cycle type and the centralizers by filtering Sym(s)), the
cylinder network as the library once built it from dicts, the staircase
origamis that several tests build, and the pieces of the check of the
paper's corollary on whole hyperelliptic components: the rotations by pi of
a square tiling, linear images of a square-tiled surface made Delaunay, and
the matchings of their triangulations."""

import itertools

from isodelaunay import develop, matching, origami, region, ribbon


def cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    """Lengths of the cycles of a permutation of 1..n, fixed points included,
    in the order of their least elements."""
    seen = set()
    lengths = []
    for start in range(1, len(perm) + 1):
        if start not in seen:
            x, length = start, 0
            while x not in seen:
                seen.add(x)
                x = perm[x - 1]
                length += 1
            lengths.append(length)
    return lengths


def cycle_count(perm: tuple[int, ...]) -> int:
    """Number of cycles of a permutation of 1..n, fixed points included."""
    return len(cycle_lengths(perm))


def tree_count_holds(o) -> bool:
    """Whether the h- and v-cylinders number one more than the squares, which
    for the connected intersection graph Lambda says that it is a tree."""
    return cycle_count(o.h) + cycle_count(o.v) == len(o.h) + 1


def network_by_dicts(o: origami.Origami) -> origami.Network:
    """The cylinder network built from ``permutation_cycles`` and a dict of
    each square's cylinder per direction, as the library built it before it
    read both in one walk per permutation."""
    hcyc = origami.permutation_cycles(o.h)
    vcyc = origami.permutation_cycles(o.v)
    cyl_of_h = {j: i for i, cyc in enumerate(hcyc) for j in cyc}
    cyl_of_v = {j: i for i, cyc in enumerate(vcyc) for j in cyc}
    pairs = [(cyl_of_h[j], cyl_of_v[j]) for j in range(1, o.squares + 1)]
    simple = len(pairs) == len(set(pairs))
    tree = len(hcyc) + len(vcyc) == o.squares + 1
    return origami.Network(tuple(hcyc), tuple(vcyc), simple, tree)


def bfs_key(h: tuple[int, ...], v: tuple[int, ...]):
    """Least BFS relabeling of (h, v) over all start squares; None if intransitive.

    From each start square, number the squares in breadth-first order,
    visiting h(j) before v(j), and rewrite (h, v) in those numbers.  Since
    the action is transitive every start labels all s squares, and the least
    of the s rewritten pairs is a complete invariant of the class, at O(s^2)
    per pair.
    """
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


def pairs_by_bfs_keys(s: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The least transitive (h, v) of each relabeling class in Sym(s), in
    increasing order: h runs over the least permutation of each cycle type,
    v over Sym(s), and a pair is kept when its BFS key is new."""
    perms = list(itertools.permutations(range(1, s + 1)))
    seen = set()
    out = []
    for h in least_of_each_cycle_type_by_filter(s):
        for v in perms:
            key = bfs_key(h, v)
            if key is None or key in seen:
                continue
            seen.add(key)
            out.append((h, v))
    return out


def staircase_origami(n: int) -> origami.Origami:
    """h = (1,2)(3,4)..., v = (2,3)(4,5)... on n squares: hyperelliptic and arboreal."""
    h, v = list(range(1, n + 1)), list(range(1, n + 1))
    for i in range(0, n - 1, 2):
        h[i], h[i + 1] = h[i + 1], h[i]
    for i in range(1, n - 1, 2):
        v[i], v[i + 1] = v[i + 1], v[i]
    return origami.Origami(tuple(h), tuple(v))


def pi_rotations(o: origami.Origami) -> list[dict]:
    """The rotations by pi of the square tiling of ``o``, each as a map of
    the half-edges of its diagonal triangulation.

    A rotation carries square j onto square sigma(j) turned by pi, where
    sigma h sigma^-1 = h^-1 and sigma v sigma^-1 = v^-1; by transitivity
    sigma(1) fixes sigma, so each square is tried as sigma(1).  The lower
    triangle goes onto the upper one, bottom onto top, right onto left and
    diagonal onto diagonal: (f{j}-, t) to (f{sigma(j)}+, t + 1), and
    (f{j}+, t) to (f{sigma(j)}-, t + 2).
    """
    h_inv = {x: j for j, x in enumerate(o.h, 1)}
    v_inv = {x: j for j, x in enumerate(o.v, 1)}
    out = []
    for start in range(1, o.squares + 1):
        sigma = {1: start}
        stack = [1]
        while stack and sigma:
            j = stack.pop()
            for a, b in ((o.h[j - 1], h_inv[sigma[j]]), (o.v[j - 1], v_inv[sigma[j]])):
                if a not in sigma:
                    sigma[a] = b
                    stack.append(a)
                elif sigma[a] != b:
                    sigma = {}
                    break
        if sigma:
            out.append({(f"f{j}{side}", t): (f"f{sigma[j]}{other}", (t + shift) % 3)
                        for j in sigma for side, other, shift in (("-", "+", 1), ("+", "-", 2))
                        for t in range(3)})
    return out


def is_hyperelliptic(o: origami.Origami) -> bool:
    """Whether a rotation by pi of ``o`` acts as -1 on homology, which
    ``verify_matching`` decides, since the rotation is Z/3-equivariant.  On
    a surface whose vertices are all zeros (``zeros_only``), this marks
    the hyperelliptic components of its stratum (Kontsevich and Zorich,
    Invent. Math. 2003)."""
    g = origami.build_origami_graph(o)
    return any(matching.verify_matching(g, iota) for iota in pi_rotations(o))


def zeros_only(o: origami.Origami) -> bool:
    """Whether every vertex of ``o`` is a zero, or ``o`` is the one-square torus."""
    g = origami.build_origami_graph(o)
    return o.squares == 1 or 0 not in ribbon.stratum_signature(
        g, origami.standard_angles(o)).zero_orders


def random_gl_map(rng) -> tuple[float, float, float, float]:
    """(a, b, c, d) of an orientation-preserving linear map (x, y) -> (a x
    + b y, c x + d y), entries uniform in [-2, 2] and determinant above 1/4."""
    while True:
        a, b, c, d = (rng.uniform(-2.0, 2.0) for _ in range(4))
        if a * d - b * c > 0.25:
            return a, b, c, d


def mapped_delaunay(o: origami.Origami, m: tuple[float, float, float, float]):
    """The square-tiled surface of ``o`` under the linear map ``m``, made
    Delaunay by Lawson flips: ``develop.make_delaunay``'s (surface, flips,
    degenerate edges)."""
    start = develop.develop(origami.build_origami_graph(o), origami.standard_angles(o))
    a, b, c, d = m
    periods = {h: complex(a * z.real + b * z.imag, c * z.real + d * z.imag)
               for h, z in start.periods.items()}
    return develop.make_delaunay(develop.DevelopedSurface(start.graph, periods))


def matched_regions(surface) -> tuple[int, bool]:
    """The number of triangle matchings of ``surface``'s triangulation, and
    whether the region of one of them holds the surface's own angles: the
    equalities within 1e-9 and every inequality with positive slack."""
    found = matching.find_matchings(surface.graph).matchings
    theta = develop.angles_of(surface)
    polytopes = (region.build_polytope(surface.graph, iota) for iota in found)
    return len(found), any(p.equality_residual(theta) < 1e-9 and p.slack(theta) > 0
                           for p in polytopes)


def least_of_each_cycle_type_by_filter(s: int) -> list[tuple[int, ...]]:
    """The least permutation of each cycle type in Sym(s), in increasing
    order, found by filtering all s! permutations in lexicographic order."""
    least_of_type = {}
    for h in itertools.permutations(range(1, s + 1)):
        least_of_type.setdefault(tuple(sorted(cycle_lengths(h))), h)
    return list(least_of_type.values())


def centralizer_by_filter(h: tuple[int, ...]) -> list[tuple[int, ...]]:
    """C(h) = {g : gh = hg} in increasing order, found by filtering all
    permutations of the symbols of h."""
    return [g for g in itertools.permutations(range(1, len(h) + 1))
            if all(g[x - 1] == h[g[j] - 1] for j, x in enumerate(h))]
