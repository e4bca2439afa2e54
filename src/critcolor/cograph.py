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


def _leaf_count(t: Cotree) -> int:
    """The number n of leaves; a ValueError unless their ids are exactly 0..n-1."""
    leaves = sorted(cotree_leaves(t))
    if leaves != list(range(len(leaves))):
        raise ValueError("cotree leaves must be 0..n-1 without repeats")
    return len(leaves)


def realize_cotree(t: Cotree) -> Graph:
    """The graph a cotree describes.  A ValueError unless the leaf ids are
    exactly 0..n-1, every internal node has at least two children, and
    unions and joins alternate."""
    n = _leaf_count(t)
    rows = [0] * n

    def walk(node: Cotree) -> int:
        if isinstance(node, Leaf):
            return 1 << node.vertex
        if len(node.children) < 2:
            raise ValueError("internal cotree nodes need at least two children")
        if any(type(c) is type(node) for c in node.children):
            raise ValueError("unions and joins must alternate")
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


def _eliminations(g: Graph, active: int) -> Optional[list[tuple[bool, int, int]]]:
    """The twin elimination on the mask ``active``: each step drops v of
    the lexicographically first twin pair (u, v), u < v, and records
    (is_false_twin, u, v), until one vertex is left.  False twins win over
    true twins.  Twins are found by keying the active vertices by their
    open, then closed, rows.  The steps in order, or None if it stalls on
    an induced P4."""
    if not active:
        raise ValueError("the empty graph has no cotree")
    rows, steps = g.rows, []
    while active & (active - 1):
        for closed in (0, 1):  # false twins share an open row, true twins a closed one
            least: dict[int, int] = {}  # each row's least vertex
            hit: Optional[tuple[int, int]] = None
            for v in iter_bits(active):
                u = least.setdefault(rows[v] & active | closed << v, v)
                if u < v and (hit is None or u < hit[0]):
                    hit = (u, v)
            if hit is not None:
                break
        else:
            return None
        steps.append((not closed, *hit))
        active ^= 1 << hit[1]
    return steps


def _merge(node_type: type, a: Cotree, b: Cotree) -> Cotree:
    left = a.children if isinstance(a, node_type) else (a,)
    right = b.children if isinstance(b, node_type) else (b,)
    return node_type(left + right)


def recognize(g: Graph, within: Optional[int] = None) -> Optional[Cotree]:
    """A cotree for g, or for its subgraph on the vertex mask ``within`` with
    the vertices as leaves; None if that has an induced four-vertex path."""
    active = (1 << g.n) - 1 if within is None else within
    steps = _eliminations(g, active)
    if steps is None:
        return None
    trees: dict[int, Cotree] = {v: Leaf(v) for v in iter_bits(active)}
    for false_twin, u, v in steps:
        trees[u] = _merge(UnionNode if false_twin else JoinNode, trees[u], trees.pop(v))
    return trees.popitem()[1]


def _paint(node: Cotree, assignment: list[int], offset: int = 0) -> int:
    """Colour a cotree's leaves optimally, writing colour offset + c
    (c = 1, 2, ...) at each leaf's vertex; returns the palette size.

    Unions reuse one shared palette (max over children); joins stack the
    children's palettes side by side (sum).  The palette size that falls out
    equals the clique number, which for these graphs is the chromatic number.
    """
    if isinstance(node, Leaf):
        assignment[node.vertex] = offset + 1
        return 1
    if isinstance(node, UnionNode):
        return max(_paint(c, assignment, offset) for c in node.children)
    width = 0
    for c in node.children:
        width += _paint(c, assignment, offset + width)
    return width


def cograph_color(t: Cotree) -> Coloring:
    """Optimal colouring straight off the cotree (see ``_paint``).  A
    ValueError unless the leaf ids are exactly 0..n-1."""
    assignment = [0] * _leaf_count(t)
    return Coloring(_paint(t, assignment), tuple(assignment))


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
    if g.edge_count() == g.n * (g.n - 1) // 2:  # K0 included, which has no cotree
        raise CompleteGraphError("complete graphs admit no anticomplete pair")
    steps = _eliminations(g, (1 << g.n) - 1)
    if steps is None:
        raise NotCographError("graph has an induced four-vertex path")

    first = next(i for i, (false_twin, _, _) in enumerate(steps) if false_twin)
    x, y = 1 << steps[first][1], 1 << steps[first][2]
    for _, u, v in reversed(steps[:first]):  # v joins its twin u's side, if any
        x |= (x >> u & 1) << v
        y |= (y >> u & 1) << v

    w = set_neighborhood_mask(g, x)
    ok = (
        x and y and not x & y
        and not w & y  # X is anticomplete to Y: N(X) misses Y
        and w == set_neighborhood_mask(g, y)
        and w
        and not any(w & ~g.rows[v] for v in iter_bits(x | y))  # both complete to W
    )
    if not ok:  # pragma: no cover - guards the construction above
        raise AssertionError("anticomplete pair failed re-verification")
    return AnticompletePair(bits_of(x), bits_of(y), bits_of(w))
