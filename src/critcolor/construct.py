"""Constructive colouring with an explicit palette bound.

The target classes forbid an induced path on four vertices plus ell isolated
vertices, together with a clique K_k.  The procedure peels off a small
independent set S (ell vertices if possible, otherwise a maximal one) and
splits N[S] into S itself plus blocks S_1, ..., S_m, where S_i collects the
vertices whose first neighbour in S is the i-th one.  A clique inside a
block extends by its S-vertex, so each block drops one clique size and is
coloured recursively on a private palette slice.  Whatever is left over is
anticomplete to S; it contains no induced four-vertex path (one would join
with S to form the forbidden pattern), so it is coloured optimally via its
cotree, reusing S's colour for one of its classes.  The recursion runs on
vertex masks of the input graph, writing into one assignment; it builds no
subgraphs.

bound_f(k, ell) is the palette this yields, and the recursion telescopes to
the closed form ell^(k-2) + 2*ell^(k-3) + ... + (k-2)*ell + (k-1).
"""

from __future__ import annotations

from .chroma import Coloring, is_proper_coloring
from .cograph import _paint, recognize
from .graphs import Graph, _check_vertices, iter_bits, mask_of
from .patterns import PatternViolation, clique, format_pattern, is_free, path, plus_isolated


def bound_f(k: int, ell: int) -> int:
    """Palette bound for graphs with no induced P4+ell*P1 and no K_k."""
    if k < 3:
        raise ValueError(f"bound defined for k >= 3, got {k}")
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    return sum(j * ell ** (k - 1 - j) for j in range(1, k))


def _family(ell: int, k: int) -> list:
    base = plus_isolated(path(4), ell) if ell >= 1 else path(4)
    return [base, clique(k)]


def _greedy(rows: tuple[int, ...], free: int, ell: int) -> tuple[list[int], int]:
    """The least-indexed greedy independent set of the vertices of the mask
    ``free``, stopping at ell vertices, and the vertices of ``free`` outside
    its closed neighbourhood, as a mask."""
    chosen: list[int] = []
    while free and len(chosen) < ell:
        low = free & -free
        chosen.append(low.bit_length() - 1)
        free &= ~(rows[chosen[-1]] | low)
    return chosen, free


def _blocks(rows: tuple[int, ...], s: list[int], within: int) -> list[int]:
    """The blocks of N[S] \\ S inside the mask ``within``, as masks: block i
    holds the vertices adjacent to s[i] but to no earlier member of S."""
    claimed = mask_of(s)
    blocks = []
    for v in s:
        blocks.append(rows[v] & within & ~claimed)
        claimed |= rows[v]
    return blocks


def greedy_independent_set(g: Graph, ell: int) -> list[int]:
    """Least-indexed greedy independent set, stopping at ell vertices.
    When the greedy run stops short of ell the set is inclusion-maximal."""
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    return _greedy(g.rows, (1 << g.n) - 1, ell)[0]


def closed_neighborhood_partition(g: Graph, s: list[int]) -> list[list[int]]:
    """Split N[S] \\ S into blocks: block i holds the vertices adjacent to
    s[i] but to no earlier member of S.  Together with S the blocks tile
    N[S]; the blocks are pairwise disjoint by construction."""
    _check_vertices(g, s)
    return [list(iter_bits(block)) for block in _blocks(g.rows, s, (1 << g.n) - 1)]


def _compact(assignment: list[int]) -> Coloring:
    """Renumber colours to 1..m preserving order, dropping unused values."""
    used = sorted(set(assignment))
    remap = {c: i + 1 for i, c in enumerate(used)}
    return Coloring(len(used), tuple(remap[c] for c in assignment))


def _color_bounded(g: Graph, ell: int, k: int) -> list[int]:
    """Colour assignment for a graph assumed (P4+ell*P1, K_k)-free."""
    assignment = [0] * g.n

    def colour(within: int, k: int, base: int) -> None:
        # colours c = 1, 2, ... of the subgraph on within go in as base + c
        s, remainder = _greedy(g.rows, within, ell)
        for v in s:
            assignment[v] = base + 1
        width = bound_f(k - 1, ell) if k > 3 else 1
        for i, block in enumerate(_blocks(g.rows, s, within)):
            if k == 3:  # triangle-free: each block is independent and takes a single colour
                for v in iter_bits(block):
                    assignment[v] = base + 2 + i
            elif block:
                colour(block, k - 1, base + 1 + i * width)
        tail = 1 + len(s) * width
        if remainder:
            tree = recognize(g, remainder)
            if tree is None:
                raise ValueError("leaves a remainder with an induced P4")
            # anticomplete to S, so its first colour class can reuse colour 1
            _paint(tree, assignment, base + tail - 1)
            for v in iter_bits(remainder):
                if assignment[v] == base + tail:
                    assignment[v] = base + 1

    colour((1 << g.n) - 1, k, 0)
    return assignment


def color_kk_free(g: Graph, ell: int, k: int, check: bool = True) -> Coloring:
    """Colour a (P4+ell*P1, K_k)-free graph with at most bound_f(k, ell)
    colours.  The family membership is verified up front unless check is
    False.  The result is always checked: it must be proper and within the
    bound, and each remainder coloured from its cotree must be P4-free.
    Without the up-front check, a failed one means g is outside the family
    and raises a ValueError that names the family."""
    if k < 3:
        raise ValueError(f"clique parameter must be at least 3, got {k}")
    bound = bound_f(k, ell)
    if check:
        ok, hit = is_free(g, _family(ell, k))
        if not ok:
            raise PatternViolation(hit[0], hit[1])
    try:
        col = _compact(_color_bounded(g, ell, k))
    except ValueError as exc:  # a remainder with an induced P4, the one raise in there
        problem = str(exc)
    else:
        if not is_proper_coloring(g, col):
            problem = "is improper"
        elif col.palette_size > bound:
            problem = f"uses {col.palette_size} colours, above the bound {bound}"
        else:
            return col
    if check:  # pragma: no cover - guards the maths
        raise AssertionError(f"constructive colouring {problem}")
    names = ", ".join(format_pattern(p) for p in _family(ell, k))
    raise ValueError(f"graph is not ({names})-free: its constructive colouring {problem}")
