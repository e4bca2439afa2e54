"""Cographs: recognition, cotrees, optimal colouring, anticomplete pairs.

A graph with no induced four-vertex path decomposes recursively into
disjoint unions and joins; the decomposition is recorded as a cotree whose
leaves are the vertices.  Recognition works by running that construction
backwards: any such graph on two or more vertices contains a pair of twins,
so we repeatedly locate twins, merge their subtrees and drop one vertex.
A graph containing an induced four-vertex path gets stuck instead, because
no two vertices of that path can ever be twins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union as TUnion

from .chroma import Coloring
from .graphs import (
    Graph,
    bits_of,
    is_anticomplete_between,
    is_complete_between,
    is_connected,
    iter_bits,
    set_neighborhood_mask,
)


@dataclass(frozen=True)
class Leaf:
    vertex: int


@dataclass(frozen=True)
class UnionNode:
    children: tuple["Cotree", ...]


@dataclass(frozen=True)
class JoinNode:
    children: tuple["Cotree", ...]


Cotree = TUnion[Leaf, UnionNode, JoinNode]


def render_cotree(t: Cotree) -> str:
    """Nested-term text: U(...) for unions, J(...) for joins, leaf ids as is."""
    if isinstance(t, Leaf):
        return str(t.vertex)
    tag = "U" if isinstance(t, UnionNode) else "J"
    return f"{tag}({','.join(render_cotree(c) for c in t.children)})"


def cotree_leaves(t: Cotree) -> list[int]:
    if isinstance(t, Leaf):
        return [t.vertex]
    out: list[int] = []
    for c in t.children:
        out.extend(cotree_leaves(c))
    return out


def validate_cotree(t: Cotree) -> None:
    """Check arity >= 2 and strict union/join alternation."""
    if isinstance(t, Leaf):
        return
    if len(t.children) < 2:
        raise ValueError("internal cotree nodes need at least two children")
    for c in t.children:
        if type(c) is type(t):
            raise ValueError("unions and joins must alternate")
        validate_cotree(c)


def realize_cotree(t: Cotree) -> Graph:
    """The graph a cotree describes.  Leaf ids must be exactly 0..n-1."""
    leaves = sorted(cotree_leaves(t))
    n = len(leaves)
    if leaves != list(range(n)):
        raise ValueError("cotree leaves must be 0..n-1 without repeats")
    rows = [0] * n

    def walk(node: Cotree) -> int:
        if isinstance(node, Leaf):
            return 1 << node.vertex
        masks = [walk(c) for c in node.children]
        total = 0
        for m in masks:
            total |= m
        if isinstance(node, JoinNode):
            for m in masks:
                others = total & ~m
                for v in iter_bits(m):
                    rows[v] |= others
        return total

    walk(t)
    return Graph(n, tuple(rows))


def _find_twins(g: Graph, active: list[int], amask: int) -> Optional[tuple[bool, int, int]]:
    """Lexicographically first twin pair among the active vertices.

    Returns (is_false_twin, u, v) with u < v.  False twins win over true
    twins even when a true pair comes earlier in the scan.
    """
    first_true: Optional[tuple[int, int]] = None
    rows = g.rows
    for i, u in enumerate(active):
        nu = rows[u] & amask
        for v in active[i + 1:]:
            nv = rows[v] & amask
            if nu == nv:
                return True, u, v
            if first_true is None and nu | 1 << u == nv | 1 << v:
                first_true = (u, v)
    if first_true is not None:
        return False, first_true[0], first_true[1]
    return None


def _eliminations(g: Graph) -> Optional[list[tuple[bool, int, int]]]:
    """The twin elimination: the first twin pair (u, v) of the active
    vertices, as ``_find_twins`` returns it, drops v, until one vertex is
    left.  The steps in order, or None if it stalls on an induced P4."""
    if g.n == 0:
        raise ValueError("the empty graph has no cotree")
    steps = []
    active = list(range(g.n))
    amask = (1 << g.n) - 1
    while len(active) > 1:
        hit = _find_twins(g, active, amask)
        if hit is None:
            return None
        steps.append(hit)
        active.remove(hit[2])
        amask &= ~(1 << hit[2])
    return steps


def _merge(node_type: type, a: Cotree, b: Cotree) -> Cotree:
    left = a.children if isinstance(a, node_type) else (a,)
    right = b.children if isinstance(b, node_type) else (b,)
    return node_type(left + right)


def recognize(g: Graph) -> Optional[Cotree]:
    """A cotree for g, or None if g has an induced four-vertex path."""
    steps = _eliminations(g)
    if steps is None:
        return None
    trees: dict[int, Cotree] = {v: Leaf(v) for v in range(g.n)}
    for false_twin, u, v in steps:
        trees[u] = _merge(UnionNode if false_twin else JoinNode, trees[u], trees.pop(v))
    return trees.popitem()[1]


def cograph_color(t: Cotree) -> Coloring:
    """Optimal colouring straight off the cotree.

    Unions reuse one shared palette (max over children); joins stack the
    children's palettes side by side (sum).  The palette size that falls out
    equals the clique number, which for these graphs is the chromatic number.
    """
    n = len(cotree_leaves(t))
    assignment = [0] * n

    def walk(node: Cotree, offset: int) -> int:
        if isinstance(node, Leaf):
            assignment[node.vertex] = offset + 1
            return 1
        if isinstance(node, UnionNode):
            return max(walk(c, offset) for c in node.children)
        width = 0
        for c in node.children:
            width += walk(c, offset + width)
        return width

    palette = walk(t, 0)
    return Coloring(palette, tuple(assignment))


@dataclass(frozen=True)
class AnticompletePair:
    """Disjoint sets X, Y with no edges between them, both complete to W,
    where W is the common neighbourhood N(X) = N(Y)."""

    x: frozenset[int]
    y: frozenset[int]
    w: frozenset[int]


class PairPreconditionError(ValueError):
    """The input graph is outside the domain of find_anticomplete_pair."""


class NotConnectedError(PairPreconditionError):
    pass


class NotCographError(PairPreconditionError):
    pass


class CompleteGraphError(PairPreconditionError):
    pass


def find_anticomplete_pair(g: Graph) -> AnticompletePair:
    """Split a connected, P4-free, non-complete graph into (X, Y, W).

    Twins drive the search: a false twin pair is the base case (the two
    twins, one per side); a true twin is dropped and reinserted afterwards
    into whichever side its partner ended up on, or nowhere.  The returned
    sets are re-verified against the full graph before being handed back.
    """
    if not is_connected(g):
        raise NotConnectedError("graph is not connected")
    steps = _eliminations(g)
    if steps is None:
        raise NotCographError("graph has an induced four-vertex path")
    if g.edge_count() == g.n * (g.n - 1) // 2:
        raise CompleteGraphError("complete graphs admit no anticomplete pair")

    first = next(i for i, (false_twin, _, _) in enumerate(steps) if false_twin)
    x, y = {steps[first][1]}, {steps[first][2]}
    for _, u, v in reversed(steps[:first]):
        if u in x:
            x.add(v)
        elif u in y:
            y.add(v)

    w = bits_of(set_neighborhood_mask(g, sum(1 << v for v in x)))
    ok = (
        x and y and not x & y
        and is_anticomplete_between(g, x, y)
        and w == bits_of(set_neighborhood_mask(g, sum(1 << v for v in y)))
        and w
        and is_complete_between(g, x, w)
        and is_complete_between(g, y, w)
    )
    if not ok:  # pragma: no cover - guards the construction above
        raise AssertionError("anticomplete pair failed re-verification")
    return AnticompletePair(frozenset(x), frozenset(y), w)
