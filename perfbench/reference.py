"""The benchmark's own reference answers for small graphs, to check that the
library's answers on ``stream`` are optimal and not only self-consistent.

Graphs are given as neighbour bitmasks (``rows[v]``), as in ``critcolor``,
but nothing here calls the library: plain backtracking that is fast enough
for the stream's orders (n <= 11) and simple enough to trust.
"""

from __future__ import annotations


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def colourable(rows: list[int], mask: int, k: int) -> bool:
    """Whether the subgraph induced by ``mask`` has a proper k-colouring.
    Vertices go in order of decreasing degree; a vertex opens a new colour
    class only after every open class rejected it."""
    order = sorted(bits(mask), key=lambda v: -(rows[v] & mask).bit_count())
    classes: list[int] = []

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for c, members in enumerate(classes):
            if not members & rows[v]:
                classes[c] = members | 1 << v
                if place(i + 1):
                    return True
                classes[c] = members
        if len(classes) < k:
            classes.append(1 << v)
            if place(i + 1):
                return True
            classes.pop()
        return False

    return place(0)


def clique_number(rows: list[int], mask: int) -> int:
    """Largest clique inside ``mask``."""
    best = 0

    def grow(size: int, candidates: int) -> None:
        nonlocal best
        if not candidates:
            best = max(best, size)
            return
        if size + candidates.bit_count() <= best:
            return
        for v in bits(candidates):
            grow(size + 1, candidates & rows[v])
            candidates &= ~(1 << v)
            if size + candidates.bit_count() <= best:
                return

    grow(0, mask)
    return best


def independence_number(rows: list[int], mask: int) -> int:
    full = mask
    return clique_number([~r & full & ~(1 << v) for v, r in enumerate(rows)], mask)


def least_free_ell(rows: list[int]) -> int:
    """The least ell such that the graph has no induced P4 + ell*P1: 0 when
    it has no induced P4, else one more than the largest independent set
    anticomplete to an induced P4."""
    n = len(rows)
    full = (1 << n) - 1
    closed = [r | 1 << v for v, r in enumerate(rows)]
    alpha: dict[int, int] = {}
    ell = 0
    for b in range(n):
        for c in bits(rows[b]):
            for a in bits(rows[b] & ~closed[c]):
                for d in bits(rows[c] & ~closed[b] & ~closed[a]):
                    rest = full & ~(closed[a] | closed[b] | closed[c] | closed[d])
                    if rest not in alpha:
                        alpha[rest] = independence_number(rows, rest)
                    ell = max(ell, alpha[rest] + 1)
    return ell


def isomorphic(g: list[int], h: list[int]) -> bool:
    """Whether some bijection maps g's edges exactly onto h's."""
    n = len(g)
    if len(h) != n:
        return False
    degree_g = [r.bit_count() for r in g]
    degree_h = [r.bit_count() for r in h]
    if sorted(degree_g) != sorted(degree_h):
        return False
    order = sorted(range(n), key=lambda v: -degree_g[v])
    image = [-1] * n

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for x in range(n):
            if used >> x & 1 or degree_h[x] != degree_g[v]:
                continue
            if all((g[v] >> u & 1) == (h[x] >> image[u] & 1) for u in order[:i]):
                image[v] = x
                if extend(i + 1, used | 1 << x):
                    return True
        return False

    return extend(0, 0)
