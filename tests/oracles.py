"""Slow reference implementations the test suite checks the library against.

Everything here is written for obviousness, not speed: colourings are found
by undirected backtracking over vertices in index order, cliques by scanning
all subsets, embeddings by trying every injective map.  None of it shares
code or strategy with the package.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Optional

from critcolor.graphs import Graph


def naive_is_k_colorable(g: Graph, k: int) -> bool:
    """Backtracking in plain vertex order, colours tried 1..k."""
    colors = [0] * g.n

    def go(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(1, k + 1):
            if all(not g.has_edge(v, u) or colors[u] != c for u in range(v)):
                colors[v] = c
                if go(v + 1):
                    return True
        colors[v] = 0
        return False

    return go(0)


def naive_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    k = 1
    while not naive_is_k_colorable(g, k):
        k += 1
    return k


def naive_is_proper_coloring(g: Graph, palette_size: int, assignment: tuple[int, ...]) -> bool:
    """One colour in 1..palette_size per vertex, and every pair of adjacent
    vertices coloured apart."""
    return (
        len(assignment) == g.n
        and all(1 <= c <= palette_size for c in assignment)
        and all(
            assignment[u] != assignment[v]
            for u, v in combinations(range(g.n), 2)
            if g.has_edge(u, v)
        )
    )


def naive_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return best


def naive_independence_number(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if all(not g.has_edge(u, v) for u, v in combinations(verts, 2)):
            best = max(best, len(verts))
    return best


def naive_find_embedding(host: Graph, pattern: Graph) -> Optional[tuple[int, ...]]:
    """First injective map (in permutation order) preserving adjacency and
    non-adjacency."""
    for image in permutations(range(host.n), pattern.n):
        if naive_embedding_is_induced(host, pattern, image):
            return image
    return None


def naive_embedding_is_induced(host: Graph, pattern: Graph, image: tuple[int, ...]) -> bool:
    """One image per pattern vertex, all distinct and inside the host, and
    every pair of pattern vertices adjacent exactly when their images are."""
    return (
        len(image) == pattern.n
        and len(set(image)) == pattern.n
        and all(0 <= h < host.n for h in image)
        and all(
            host.has_edge(image[i], image[j]) == pattern.has_edge(i, j)
            for i, j in combinations(range(pattern.n), 2)
        )
    )


def naive_contains_induced(host: Graph, pattern: Graph) -> bool:
    return naive_find_embedding(host, pattern) is not None


def naive_is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    return naive_find_embedding(a, b) is not None


def brute_canonical_key(g: Graph) -> tuple:
    """Isomorphism invariant by exhausting all relabelings (n <= 8 or so)."""
    best = None
    for perm in permutations(range(g.n)):
        edges = frozenset(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()
        )
        key = tuple(sorted(edges))
        if best is None or key < best:
            best = key
    return (g.n, best)


def burnside_graph_count(n: int) -> int:
    """Number of graphs on n unlabeled vertices, by averaging 2^(edge
    orbits of sigma) over all permutations sigma of the vertices."""
    total = 0
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    for perm in permutations(range(n)):
        seen = [False] * len(pairs)
        orbits = 0
        for start, pair in enumerate(pairs):
            if seen[start]:
                continue
            orbits += 1
            cur = pair
            while True:
                i = index[cur]
                if seen[i]:
                    break
                seen[i] = True
                a, b = perm[cur[0]], perm[cur[1]]
                cur = (min(a, b), max(a, b))
        total += 1 << orbits
    return total // math.factorial(n)


def naive_is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in range(g.n):
            if g.has_edge(v, u) and u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.n
