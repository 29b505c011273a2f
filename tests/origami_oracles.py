"""The cylinder tree count of an origami, counted without the library."""


def cycle_count(perm: tuple[int, ...]) -> int:
    """Number of cycles of a permutation of 1..n, fixed points included."""
    seen = set()
    count = 0
    for start in range(1, len(perm) + 1):
        if start not in seen:
            count += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = perm[x - 1]
    return count


def tree_count_holds(o) -> bool:
    """Whether the h- and v-cylinders number one more than the squares, which
    for the connected intersection graph Lambda says that it is a tree."""
    return cycle_count(o.h) + cycle_count(o.v) == len(o.h) + 1
