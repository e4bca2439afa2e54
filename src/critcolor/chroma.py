"""Exact clique number, independence number and chromatic number.

Everything here is branch and bound over bitmasks.  No timeouts: callers at
desk scale (n up to a dozen or so) get exact answers fast, and the optional
``budget`` argument lets an interactive caller bail out of a search that is
growing too large instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, complement, iter_bits


class BudgetExhausted(RuntimeError):
    """Raised when a search exceeds its node budget."""


@dataclass(frozen=True)
class Coloring:
    """A proper colouring: vertex v gets colour assignment[v] in 1..palette_size."""

    palette_size: int
    assignment: tuple[int, ...]

    def classes(self) -> list[frozenset[int]]:
        out: list[set[int]] = [set() for _ in range(self.palette_size)]
        for v, c in enumerate(self.assignment):
            out[c - 1].add(v)
        return [frozenset(s) for s in out]


def is_proper_coloring(g: Graph, col: Coloring) -> bool:
    if len(col.assignment) != g.n:
        return False
    if any(not 1 <= c <= col.palette_size for c in col.assignment):
        return False
    return all(col.assignment[u] != col.assignment[v] for u, v in g.edges())


class _Budget:
    """A node counter.  One counter is shared by every search of a top-level
    call: the ``budget`` parameters take either a node count or a counter."""

    __slots__ = ("left",)

    def __init__(self, budget: Optional[int]):
        self.left = budget

    @staticmethod
    def shared(budget: Optional[int | _Budget]) -> _Budget:
        return budget if isinstance(budget, _Budget) else _Budget(budget)

    @staticmethod
    def capped(budget: Optional[int | _Budget]) -> Optional[_Budget]:
        """The shared counter, or None when nothing caps the search, so that
        uncapped searches skip the bookkeeping."""
        if budget is None:
            return None
        counter = _Budget.shared(budget)
        return None if counter.left is None else counter

    def spend(self) -> None:
        if self.left is not None:
            self.left -= 1
            if self.left < 0:
                raise BudgetExhausted("budget exhausted")


def _max_clique(g: Graph, counter: _Budget) -> int:
    """A maximum clique as a vertex mask (0 for the empty graph), by branch
    and bound with a greedy colouring bound."""
    if g.n == 0:
        return 0
    rows = g.rows
    best, best_set = 1, 1

    def greedy_color_order(cand: int) -> list[tuple[int, int]]:
        # order candidates by greedy colour class; the class index bounds
        # how large a clique inside cand can still grow
        out: list[tuple[int, int]] = []
        colour = 0
        rest = cand
        while rest:
            colour += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                out.append((v, colour))
                avail &= ~(rows[v] | 1 << v)
                rest &= ~(1 << v)
        return out

    def expand(size: int, cand: int, chosen: int) -> None:
        nonlocal best, best_set
        counter.spend()
        order = greedy_color_order(cand)
        for v, bound in reversed(order):
            if size + bound <= best:
                return
            nxt = cand & rows[v]
            if size + 1 > best:
                best, best_set = size + 1, chosen | 1 << v
            if nxt:
                expand(size + 1, nxt, chosen | 1 << v)
            cand &= ~(1 << v)

    expand(0, (1 << g.n) - 1, 0)
    return best_set


def clique_number(g: Graph, budget: Optional[int | _Budget] = None) -> int:
    """Largest clique size, by branch and bound with a greedy colouring bound."""
    return _max_clique(g, _Budget.shared(budget)).bit_count()


def independence_number(g: Graph, budget: Optional[int | _Budget] = None) -> int:
    """Largest independent set size: the clique number of the complement."""
    return clique_number(complement(g), budget)


def is_k_colorable(
    g: Graph, k: int, budget: Optional[int | _Budget] = None
) -> Optional[Coloring]:
    """A proper colouring with at most k colours, or None.

    Backtracking in DSATUR order (Brélaz 1979): branch on the uncoloured
    vertex whose neighbours use the most distinct colours (ties: higher
    degree, then lower index) and try its free colours in ascending order, a
    fresh colour last and only while fewer than k are open.  Colour classes
    appear in first-use order and the result is deterministic.  With k >= n
    the search never backtracks: its one descent is the DSATUR greedy.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if g.n == 0:
        return Coloring(0, ())
    if k == 0:
        return None
    counter = _Budget.shared(budget)
    rows = g.rows
    n = g.n
    k = min(k, n)  # a colouring never opens more colours than vertices
    order = sorted(range(n), key=lambda v: -rows[v].bit_count())
    colour_of = [0] * n
    class_masks = [0] * (k + 1)  # 1-based
    seen = [0] * n  # bit c of seen[v]: a neighbour of v has colour c
    used = 0

    def solve() -> bool:
        nonlocal used
        counter.spend()
        v = sat = -1
        for u in order:
            if not colour_of[u] and seen[u].bit_count() > sat:
                v, sat = u, seen[u].bit_count()
        if v < 0:
            return True
        free = ~seen[v] & ((2 << used) - 2)  # open colours no neighbour has
        if used < k:
            free |= 2 << used
        for c in iter_bits(free):
            fresh = c > used
            colour_of[v] = c
            class_masks[c] |= 1 << v
            for u in iter_bits(rows[v]):
                seen[u] |= 1 << c
            if fresh:
                used += 1
            if solve():
                return True
            if fresh:
                used -= 1
            class_masks[c] ^= 1 << v
            for u in iter_bits(rows[v]):
                if not rows[u] & class_masks[c]:
                    seen[u] &= ~(1 << c)
            colour_of[v] = 0
        return False

    if not solve():
        return None
    return Coloring(used, tuple(colour_of))


def chromatic_number(
    g: Graph, budget: Optional[int | _Budget] = None
) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness colouring.

    Seeded below by the clique number and above by the DSATUR greedy (the
    decision search with k = n, which spends no budget), then closed by the
    backtracking decision search.  The other sub-searches share one budget.
    """
    chi, col, _ = _chromatic(g, budget)
    return chi, col


def _chromatic(
    g: Graph, budget: Optional[int | _Budget] = None
) -> tuple[int, Coloring, int]:
    """``chromatic_number``'s answer and the maximum clique, as a vertex
    mask, whose size is its lower bound."""
    budget = _Budget.shared(budget)
    clique = _max_clique(g, budget)
    lower = clique.bit_count()
    greedy = is_k_colorable(g, g.n)
    if greedy.palette_size == lower:
        return lower, greedy, clique
    for k in range(lower, greedy.palette_size):
        col = is_k_colorable(g, k, budget)
        if col is not None:
            return col.palette_size, col, clique
    return greedy.palette_size, greedy, clique
