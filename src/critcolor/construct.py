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
cotree, reusing S's colour for one of its classes.

bound_f(k, ell) is the palette this yields, and the recursion telescopes to
the closed form ell^(k-2) + 2*ell^(k-3) + ... + (k-2)*ell + (k-1).
"""

from __future__ import annotations

from .chroma import Coloring, is_proper_coloring
from .cograph import cograph_color, recognize
from .graphs import Graph, induced_subgraph, iter_bits, mask_of, set_neighborhood_mask
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


def greedy_independent_set(g: Graph, ell: int) -> list[int]:
    """Least-indexed greedy independent set, stopping at ell vertices.
    When the greedy run stops short of ell the set is inclusion-maximal."""
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    chosen: list[int] = []
    blocked = 0
    for v in range(g.n):
        if len(chosen) == ell:
            break
        if blocked >> v & 1:
            continue
        chosen.append(v)
        blocked |= g.rows[v] | 1 << v
    return chosen


def closed_neighborhood_partition(g: Graph, s: list[int]) -> list[list[int]]:
    """Split N[S] \\ S into blocks: block i holds the vertices adjacent to
    s[i] but to no earlier member of S.  Together with S the blocks tile
    N[S]; the blocks are pairwise disjoint by construction."""
    claimed = mask_of(s)
    blocks: list[list[int]] = []
    for v in s:
        blocks.append(list(iter_bits(g.rows[v] & ~claimed)))
        claimed |= g.rows[v]
    return blocks


def _compact(assignment: list[int]) -> Coloring:
    """Renumber colours to 1..m preserving order, dropping unused values."""
    used = sorted(set(assignment))
    remap = {c: i + 1 for i, c in enumerate(used)}
    return Coloring(len(used), tuple(remap[c] for c in assignment))


def _cotree_palette(g: Graph, verts: list[int]) -> list[int]:
    """Optimal colouring (1-based) of an induced P4-free remainder; a
    ValueError if the remainder has an induced P4."""
    sub = induced_subgraph(g, verts)
    tree = recognize(sub)
    if tree is None:
        raise ValueError("leaves a remainder with an induced P4")
    return list(cograph_color(tree).assignment)


def _color_bounded(g: Graph, ell: int, k: int) -> list[int]:
    """Colour assignment for a graph assumed (P4+ell*P1, K_k)-free."""
    if g.n == 0:
        return []
    s = greedy_independent_set(g, ell)
    blocks = closed_neighborhood_partition(g, s)
    assignment = [0] * g.n
    for v in s:
        assignment[v] = 1
    if k == 3:
        # triangle-free: each block is independent and takes a single colour
        for i, block in enumerate(blocks):
            for v in block:
                assignment[v] = 2 + i
        tail = 1 + len(s)
    else:
        width = bound_f(k - 1, ell)
        for i, block in enumerate(blocks):
            sub_assign = _color_bounded(induced_subgraph(g, block), ell, k - 1)
            offset = 1 + i * width
            for j, v in enumerate(block):
                assignment[v] = offset + sub_assign[j]
        tail = 1 + len(s) * width
    smask = mask_of(s)  # the blocks and S tile N[S]; the remainder is the rest
    remainder = list(iter_bits((1 << g.n) - 1 & ~(smask | set_neighborhood_mask(g, smask))))
    if remainder:
        # anticomplete to S, so its first colour class can reuse colour 1
        for v, c in zip(remainder, _cotree_palette(g, remainder)):
            assignment[v] = 1 if c == 1 else tail + c - 1
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
    if ell < 0:
        raise ValueError(f"ell must be nonnegative, got {ell}")
    if check:
        ok, hit = is_free(g, _family(ell, k))
        if not ok:
            raise PatternViolation(hit[0], hit[1])
    try:
        col = _compact(_color_bounded(g, ell, k))
    except ValueError as exc:  # _cotree_palette met an induced P4, the one raise in there
        problem = str(exc)
    else:
        if not is_proper_coloring(g, col):
            problem = "is improper"
        elif col.palette_size > bound_f(k, ell):
            problem = f"uses {col.palette_size} colours, above the bound {bound_f(k, ell)}"
        else:
            return col
    if check:  # pragma: no cover - guards the maths
        raise AssertionError(f"constructive colouring {problem}")
    names = ", ".join(format_pattern(p) for p in _family(ell, k))
    raise ValueError(f"graph is not ({names})-free: its constructive colouring {problem}")
