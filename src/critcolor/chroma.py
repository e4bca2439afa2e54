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


def clique_number(g: Graph, budget: Optional[int | _Budget] = None) -> int:
    """Largest clique size, by branch and bound with a greedy colouring bound."""
    if g.n == 0:
        return 0
    counter = _Budget.shared(budget)
    rows = g.rows
    best = 1

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

    def expand(size: int, cand: int) -> None:
        nonlocal best
        counter.spend()
        order = greedy_color_order(cand)
        for v, bound in reversed(order):
            if size + bound <= best:
                return
            nxt = cand & rows[v]
            if size + 1 > best:
                best = size + 1
            if nxt:
                expand(size + 1, nxt)
            cand &= ~(1 << v)

    expand(0, (1 << g.n) - 1)
    return best


def independence_number(g: Graph, budget: Optional[int | _Budget] = None) -> int:
    """Largest independent set size: the clique number of the complement."""
    return clique_number(complement(g), budget)


def is_k_colorable(
    g: Graph, k: int, budget: Optional[int | _Budget] = None
) -> Optional[Coloring]:
    """A proper colouring with at most k colours, or None.

    Backtracking: branch on the uncoloured vertex with the fewest feasible
    colours (ties: higher degree, then lower index); colours are tried in
    ascending order and a fresh colour is only opened once, so colour classes
    appear in first-use order and the result is deterministic.
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
    degs = [g.degree(v) for v in range(n)]
    colour_of = [0] * n
    class_masks = [0] * (k + 1)  # 1-based
    used = 0

    def pick() -> Optional[tuple[int, list[int]]]:
        best_v = -1
        best_feas: list[int] = []
        best_key = None
        for v in range(n):
            if colour_of[v]:
                continue
            feas = [c for c in range(1, used + 1) if not class_masks[c] & rows[v]]
            room = len(feas) + (1 if used < k else 0)
            key = (room, -degs[v], v)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
                best_feas = feas
                if room == 0:
                    break
        if best_v < 0:
            return None
        return best_v, best_feas

    def solve() -> bool:
        nonlocal used
        counter.spend()
        picked = pick()
        if picked is None:
            return True
        v, feas = picked
        if used < k:
            feas = feas + [used + 1]
        for c in feas:
            fresh = c == used + 1
            colour_of[v] = c
            class_masks[c] |= 1 << v
            if fresh:
                used += 1
            if solve():
                return True
            if fresh:
                used -= 1
            class_masks[c] &= ~(1 << v)
            colour_of[v] = 0
        return False

    if not solve():
        return None
    return Coloring(used, tuple(colour_of))


def _dsatur_coloring(g: Graph) -> Coloring:
    """Greedy upper bound: highest saturation first, least feasible colour."""
    n = g.n
    rows = g.rows
    colour_of = [0] * n
    neighbour_colours: list[set[int]] = [set() for _ in range(n)]
    degs = [g.degree(v) for v in range(n)]
    used = 0
    for _ in range(n):
        # most saturated, then highest degree, then lowest index
        v = best_sat = best_deg = -1
        for u in range(n):
            if colour_of[u]:
                continue
            sat = len(neighbour_colours[u])
            if sat > best_sat or sat == best_sat and degs[u] > best_deg:
                v, best_sat, best_deg = u, sat, degs[u]
        c = 1
        while c in neighbour_colours[v]:
            c += 1
        colour_of[v] = c
        used = max(used, c)
        for u in iter_bits(rows[v]):
            neighbour_colours[u].add(c)
    return Coloring(used, tuple(colour_of))


def chromatic_number(
    g: Graph, budget: Optional[int | _Budget] = None
) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness colouring.

    Seeded below by the clique number and above by a saturation greedy run,
    then closed by the backtracking decision procedure.  The sub-searches
    share one budget.
    """
    if g.n == 0:
        return 0, Coloring(0, ())
    budget = _Budget.shared(budget)
    lower = clique_number(g, budget)
    greedy = _dsatur_coloring(g)
    if greedy.palette_size == lower:
        return lower, greedy
    for k in range(lower, greedy.palette_size):
        col = is_k_colorable(g, k, budget)
        if col is not None:
            return col.palette_size, col
    return greedy.palette_size, greedy
