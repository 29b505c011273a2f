"""Origami facts computed without the library (the cylinder tree count, and
the relabeling classes of transitive pairs by canonical BFS labels), and the
staircase origamis that several tests build."""

import itertools

from isodelaunay import origami


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
    least_of_type = {}
    for h in perms:
        least_of_type.setdefault(tuple(sorted(cycle_lengths(h))), h)
    seen = set()
    out = []
    for h in least_of_type.values():
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
