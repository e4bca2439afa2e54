"""Exact clique number, chromatic number and k-colourability decisions, for
a graph and (``_colourable``) for the subgraph a vertex mask induces.

Everything here is branch and bound over bitmasks.  No timeouts: callers at
desk scale (n up to a dozen or so) get exact answers fast, and the optional
``budget`` argument lets an interactive caller bail out of a search that is
growing too large instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph


class BudgetExhausted(RuntimeError):
    """Raised when a search exceeds its node budget."""


@dataclass(frozen=True)
class Coloring:
    """A proper colouring: vertex v gets colour assignment[v] in 1..palette_size."""

    palette_size: int
    assignment: tuple[int, ...]

    def _class_masks(self) -> list[int]:
        """The colour classes as vertex masks, colour 1 first."""
        masks = [0] * self.palette_size
        for v, c in enumerate(self.assignment):
            masks[c - 1] |= 1 << v
        return masks


def is_proper_coloring(g: Graph, col: Coloring) -> bool:
    """A colour in 1..palette_size per vertex; no row meets its own class."""
    if len(col.assignment) != g.n or not all(1 <= c <= col.palette_size for c in col.assignment):
        return False
    classes = col._class_masks()
    return not any(row & classes[c - 1] for row, c in zip(g.rows, col.assignment))


class _Budget:
    """A countdown of search nodes, and the one statement of the ``budget``
    contract: every ``budget`` parameter takes None (no cap), a node count,
    or a ``_Budget`` that several calls spend from together.  A search that
    completes with n nodes takes exactly n from a shared counter."""

    __slots__ = ("left",)

    def __init__(self, left: int):
        self.left = left

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExhausted("budget exhausted")


def _counter(budget: Optional[int | _Budget]) -> Optional[_Budget]:
    """The counter a ``budget`` names: None, a shared counter as it is, or
    a fresh one for a node count.  No other code makes a counter."""
    return budget if budget is None or isinstance(budget, _Budget) else _Budget(budget)


def _max_clique_in(rows: Sequence[int], mask: int, counter: Optional[_Budget]) -> int:
    """A maximum clique of the subgraph ``mask`` induces (0 if it is empty),
    by branch and bound with a greedy colouring bound.  On g's rows and the
    mask V - v it searches ``delete_vertex(g, v)``'s tree, node for node."""
    if not mask:
        return 0
    best, best_set = 1, mask & -mask

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
        if counter is not None:
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

    expand(0, mask, 0)
    return best_set


def _clique(g: Graph, counter: Optional[_Budget]) -> int:
    """A maximum clique of g as a vertex mask (0 for the empty graph), kept
    on the graph's instance dict at the first uncapped call.  A capped call
    never reads or writes the kept mask, so it spends what it always did."""
    if counter is not None:
        return _max_clique_in(g.rows, (1 << g.n) - 1, counter)
    kept = g.__dict__.get("_clique")
    if kept is None:
        kept = g.__dict__["_clique"] = _max_clique_in(g.rows, (1 << g.n) - 1, None)
    return kept


def clique_number(g: Graph, budget: Optional[int | _Budget] = None) -> int:
    """Largest clique size.  ``budget`` caps the search (see ``_Budget``)."""
    return _clique(g, _counter(budget)).bit_count()


def is_k_colorable(
    g: Graph, k: int, budget: Optional[int | _Budget] = None
) -> Optional[Coloring]:
    """A proper colouring with at most k colours, or None.

    Backtracking in DSATUR order (Brélaz 1979): branch on the uncoloured
    vertex whose neighbours use the most distinct colours (ties: higher
    degree, then lower index) and try its free colours in ascending order, a
    fresh colour last and only while fewer than k are open.  Colour classes
    appear in first-use order and the result is deterministic.  Each colour
    tried marks the neighbours on its own copy of the colour marks, so a
    failed try leaves nothing to undo.  With k >= n the search never
    backtracks: its one descent is the DSATUR greedy.
    ``budget`` caps the search nodes (see ``_Budget``).  An uncapped call
    that finds no colouring keeps k on the graph as its floor, and later
    uncapped calls for k up to the floor answer None with no search; like
    ``_clique``, a capped call never reads or writes it.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if g.n == 0:
        return Coloring(0, ())
    if k == 0:
        return None
    counter = _counter(budget)
    if counter is None and k <= g.__dict__.get("_floor", 0):
        return None  # an uncapped search refuted this k, or a larger one
    rows = g.rows
    n = g.n
    order = sorted(range(n), key=lambda v: -rows[v].bit_count())
    colour_of = [0] * n

    def solve(seen: list[int], used: int) -> bool:
        # bit c of seen[v]: a neighbour of v has colour c
        if counter is not None:
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
        # the bit loops are inlined: this is the hot path of every colouring
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            colour_of[v] = c
            marked = seen[:]  # this try's marks; a failed try drops them
            nbrs = rows[v]
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                marked[low.bit_length() - 1] |= bit
            if solve(marked, max(c, used)):
                return True
        colour_of[v] = 0
        return False

    if not solve([0] * n, 0):
        if counter is None:  # kept as _clique is: uncapped calls only
            g.__dict__["_floor"] = k
        return None
    return Coloring(max(colour_of), tuple(colour_of))


def _greedy(g: Graph) -> Coloring:
    """The DSATUR greedy colouring, ``is_k_colorable(g, g.n)``, which spends
    no budget; kept on the graph's instance dict at first use."""
    kept = g.__dict__.get("_greedy")
    if kept is None:
        kept = g.__dict__["_greedy"] = is_k_colorable(g, g.n)
    return kept


def chromatic_number(
    g: Graph, budget: Optional[int | _Budget] = None
) -> tuple[int, Coloring]:
    """Exact chromatic number with a witness colouring.

    Seeded below by the clique number and above by the DSATUR greedy (the
    decision search with k = n, which spends no budget), then closed by the
    backtracking decision search.  The others share one ``_Budget``.
    """
    chi, col, _ = _chromatic(g, budget)
    return chi, col


def _chromatic(
    g: Graph, budget: Optional[int | _Budget] = None
) -> tuple[int, Coloring, int]:
    """``chromatic_number``'s answer and the maximum clique, as a vertex
    mask, whose size is its lower bound."""
    counter = _counter(budget)
    clique = _clique(g, counter)
    lower = clique.bit_count()
    greedy = _greedy(g)
    for k in range(lower, greedy.palette_size):
        col = is_k_colorable(g, k, counter)
        if col is not None:
            return col.palette_size, col, clique
    return greedy.palette_size, greedy, clique


def _colourable(rows: Sequence[int], mask: int, c: int) -> bool:
    """Whether the vertices of ``mask`` induce a c-colourable graph.  The
    mask is c-colourable exactly when some independent set I of it holding
    its lowest vertex leaves a (c-1)-colourable rest: the colour class of
    that vertex is one, and any such I takes one colour.  One colour fits
    exactly an independent mask, and two exactly a mask whose breadth-first
    layers, grown from the lowest vertex of each component, hold no edge
    inside a layer (a layer's edge closes an odd cycle; otherwise the layers
    alternate colours)."""
    if mask.bit_count() <= c:
        return True
    if c <= 2:
        if c < 1:
            return False
        layer = mask if c == 1 else mask & -mask  # one colour: the mask is one layer
        rest = mask ^ layer  # the vertices no layer holds yet
        while layer:
            reach, bits = 0, layer
            while bits:  # iter_bits inlined: the sieve and the lemma search end every descent here
                low = bits & -bits
                row = rows[low.bit_length() - 1]
                if row & layer:
                    return False
                reach |= row
                bits ^= low
            layer = reach & rest or rest & -rest  # the next layer, or a new component's first vertex
            rest ^= layer
        return True
    low = mask & -mask
    return _class_completes(rows, mask, c, low, mask & ~rows[low.bit_length() - 1] ^ low)


def _class_completes(rows: Sequence[int], mask: int, c: int, s: int, cand: int) -> bool:
    """Whether the independent set s grows, by vertices of ``cand`` (those of
    the mask that no vertex of s sees), into an independent set of the mask
    whose rest is (c-1)-colourable."""
    if not _colourable(rows, mask & ~s & ~cand, c - 1):
        return False  # the rest only grows from here
    if not cand:
        return True
    bit = cand & -cand
    row = rows[bit.bit_length() - 1]
    return _class_completes(rows, mask, c, s | bit, cand & ~row ^ bit) or _class_completes(rows, mask, c, s, cand ^ bit)
