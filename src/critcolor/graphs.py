"""Immutable simple graphs over vertices 0..n-1, plus graph6 text encoding.

A Graph stores one adjacency bitmask per vertex.  Bit u of ``rows[v]`` is set
iff uv is an edge.  All operations in this package treat graphs as values:
nothing mutates, equal graphs hash equal, and every derived graph is a fresh
object.  The representation is dense on purpose; everything here runs at desk
scale (a few hundred vertices at most, usually ten).

``_canonical_labeling`` is the package's one automorphism search: the
canonical forms and the orbit pruning of enumeration, and the lex-leader
constraints of first-copy pattern searches, all take its result.  Its
refinement scans cells in order and restarts after the first splitter that
splits anything.  That order is frozen: a splitter queue or any other order
would pick different canonical labellings, and saved critdb files are
verified by comparing their members with ``canonical_form``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

DEFAULT_VERTEX_CAP = 512


class Graph6Error(ValueError):
    """Malformed graph6 text.  ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph.  ``rows[v]`` is the neighbour bitmask of v.

    The constructor trusts its arguments; use :func:`from_edges`,
    :func:`from_rows` or :func:`parse_graph6` to build validated instances.
    """

    n: int
    rows: tuple[int, ...]

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in iter_bits(self.rows[v] >> (v + 1) << (v + 1)):
                yield (v, u)

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def __hash__(self) -> int:  # cached at the first call, not at construction
        try:
            return self.__dict__["_hash"]
        except KeyError:
            return self.__dict__.setdefault("_hash", hash((self.n, self.rows)))

    def __reduce__(self):  # the fields only, never the cached hash
        return Graph, (self.n, self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def validate(g: Graph) -> None:
    """Raise ValueError unless the adjacency rows are symmetric and loop-free."""
    full = (1 << g.n) - 1
    if len(g.rows) != g.n:
        raise ValueError(f"expected {g.n} rows, got {len(g.rows)}")
    for v, row in enumerate(g.rows):
        if row & ~full:
            raise ValueError(f"row {v} has bits outside 0..{g.n - 1}")
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
    for v in range(g.n):
        for u in range(v + 1, g.n):
            if (g.rows[v] >> u & 1) != (g.rows[u] >> v & 1):
                raise ValueError(f"asymmetric adjacency between {u} and {v}")


def from_rows(n: int, rows: Iterable[int]) -> Graph:
    if not 0 <= n <= DEFAULT_VERTEX_CAP:
        raise ValueError(f"vertex count {n} outside 0..{DEFAULT_VERTEX_CAP}")
    g = Graph(n, tuple(rows))
    validate(g)
    return g


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    if not 0 <= n <= DEFAULT_VERTEX_CAP:
        raise ValueError(f"vertex count {n} outside 0..{DEFAULT_VERTEX_CAP}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    return from_edges(n, [])


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


# ---------------------------------------------------------------------------
# graph6 encoding (the standard printable format: one graph per LF line)
# ---------------------------------------------------------------------------


def _parse_n(data: bytes) -> tuple[int, int]:
    """Decode the leading vertex count; return (n, bytes consumed)."""
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    c = data[0]
    if not 63 <= c <= 126:
        raise Graph6Error(f"character {c!r} outside graph6 range 63..126", 0)
    if c != 126:
        return c - 63, 1
    # long form: '~' then three 6-bit groups, big-endian
    if len(data) >= 2 and data[1] == 126:
        raise Graph6Error("vertex counts above 258047 not supported", 1)
    if len(data) < 4:
        raise Graph6Error("truncated long-form vertex count", len(data))
    n = 0
    for i in range(1, 4):
        c = data[i]
        if not 63 <= c <= 126:
            raise Graph6Error(f"character {c!r} outside graph6 range 63..126", i)
        n = n << 6 | (c - 63)
    if n <= 62:
        raise Graph6Error("long-form vertex count below 63", 1)
    return n, 4


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string.  Errors carry the offending byte offset."""
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character {text[exc.start]!r}", exc.start) from None
    data = data.rstrip(b"\n")
    n, start = _parse_n(data)
    if n > DEFAULT_VERTEX_CAP:
        raise Graph6Error(f"vertex count {n} exceeds cap {DEFAULT_VERTEX_CAP}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - start < nbytes:
        raise Graph6Error(
            f"need {nbytes} adjacency bytes for n={n}, found {len(data) - start}",
            len(data),
        )
    if len(data) - start > nbytes:
        raise Graph6Error("trailing garbage after adjacency bits", start + nbytes)
    body = data[start:]
    for i, c in enumerate(body):
        if not 63 <= c <= 126:
            raise Graph6Error(f"character {c!r} outside graph6 range 63..126", start + i)
    pad = 6 * nbytes - nbits
    if nbytes and (body[-1] - 63) & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", start + nbytes - 1)
    return Graph(n, _rows_from_bits(n, _body_bits(body, nbits)))


def _body_bits(body: bytes, nbits: int) -> int:
    """The upper-triangle bit-string of a graph6 body: six bits a byte, most
    significant first, with the padding dropped.  Bytes are not checked."""
    bits = 0
    for c in body:
        bits = bits << 6 | (c - 63)
    return bits >> (6 * len(body) - nbits)


def _rows_from_bits(n: int, bits: int) -> tuple[int, ...]:
    """The adjacency rows of the n-vertex graph whose upper-triangle
    bit-string is ``bits``, in the order ``_adjacency_bits`` writes.  The one
    adjacency decoder of the package."""
    rows = [0] * n
    shift = n * (n - 1) // 2
    for v in range(1, n):
        shift -= v
        # the pairs (0, v), ..., (v-1, v), read from the most significant bit
        for b in iter_bits(bits >> shift & ((1 << v) - 1)):
            u = v - 1 - b
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


def _encode_graph6(n: int, bits: int) -> str:
    """graph6 text of an n-vertex graph from its upper-triangle bit-string,
    the pairs (0,1), (0,2), (1,2), (0,3), ... read from the most significant
    bit down.  The one graph6 writer of the package."""
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    else:
        raise ValueError(f"vertex count {n} too large for graph6")
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    bits <<= pad
    return head + bytes([63 + (bits >> s & 63) for s in range(nbits + pad - 6, -1, -6)]).decode()


def _adjacency_bits(rows: tuple[int, ...], label: Sequence[int]) -> int:
    """The upper-triangle bit-string of the graph on the vertices ``label``
    (in that order), as ``_encode_graph6`` reads it."""
    bits = 0
    for v in range(1, len(label)):
        rv = rows[label[v]]
        for u in range(v):
            bits = bits << 1 | (rv >> label[u] & 1)
    return bits


def _refine(rows: tuple[int, ...], cells: list[list[int]], stable: set[int]) -> list[list[int]]:
    """Equitable refinement.  Cells split by neighbour counts into splitter
    cells; fragments are ordered by count, so the ordering of the refined
    partition depends only on the structure, never on vertex labels.

    ``stable`` holds splitter masks known to split no cell; it is updated in
    place.  A splitter that splits nothing splits no refinement either, so
    callers pass the set on to refinements of the partition."""
    while True:
        for splitter in cells:
            smask = 0
            for v in splitter:
                smask |= 1 << v
            if smask in stable:
                continue
            new_cells: list[list[int]] = []
            split = False
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                count = (rows[cell[0]] & smask).bit_count()
                for v in cell:
                    if (rows[v] & smask).bit_count() != count:
                        break
                else:
                    new_cells.append(cell)
                    continue
                split = True
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((rows[v] & smask).bit_count(), []).append(v)
                for count in sorted(groups):
                    new_cells.append(groups[count])
            if split:
                cells = new_cells
                break
            stable.add(smask)
        else:
            return cells


def _orbit(v: int, gens: list[list[int]]) -> int:
    """The orbit of vertex v under the group the vertex maps ``gens``
    generate, as a mask."""
    orbit = 1 << v
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for p in gens:
            if not orbit >> p[u] & 1:
                orbit |= 1 << p[u]
                frontier.append(p[u])
    return orbit


def _canonical_labeling(g: Graph) -> tuple[int, list[int], list[list[int]]]:
    """(bits, label, gens): the least adjacency bit-string over all vertex
    orders compatible with the refined degree partition, the order ``label``
    that gives it (``label[i]`` is the vertex at canonical position i), and
    the automorphisms found on the way, as vertex maps of g; they generate a
    subgroup of Aut(g), usually all of it.  The walk's orbit pruning and
    canonical-deletion rule and the lex-leader constraints of first-copy
    pattern searches use only these maps, so all three stay exact when they
    generate less than Aut(g)."""
    n = g.n
    rows = g.rows
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(rows[v].bit_count(), []).append(v)
    stable: set[int] = set()
    cells = _refine(rows, [by_degree[d] for d in sorted(by_degree)], stable)

    best_bits: Optional[int] = None
    best_label: Optional[list[int]] = None
    gens: list[list[int]] = []  # discovered automorphisms, as orig -> orig maps

    def descend(cells: list[list[int]], fixed: list[int], stable: set[int]) -> None:
        nonlocal best_bits, best_label
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            label = [c[0] for c in cells]
            bits = _adjacency_bits(rows, label)
            if best_bits is None or bits < best_bits:
                best_bits = bits
                best_label = label
            elif bits == best_bits:
                perm = [0] * n
                for i in range(n):
                    perm[best_label[i]] = label[i]
                if any(perm[v] != v for v in range(n)) and perm not in gens:
                    gens.append(perm)
            return
        done = 0
        for v in cells[target]:
            usable = [p for p in gens if all(p[f] == f for f in fixed)]
            if _orbit(v, usable) & done:
                continue
            done |= 1 << v
            rest = [u for u in cells[target] if u != v]
            child = cells[:target] + [[v], rest] + cells[target + 1:]
            child_stable = set(stable)
            descend(_refine(rows, child, child_stable), fixed + [v], child_stable)

    descend(cells, [], stable)
    assert best_bits is not None and best_label is not None
    return best_bits, best_label, gens


def to_graph6(g: Graph) -> str:
    """Encode a graph as graph6 (short vertex-count form whenever n <= 62)."""
    return _encode_graph6(g.n, _adjacency_bits(g.rows, range(g.n)))


# ---------------------------------------------------------------------------
# vertex-set helpers.  Public functions take/return frozensets; the _mask
# variants are the bitmask fast path used throughout the package.
# ---------------------------------------------------------------------------


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """The set bits of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


def _check_vertices(g: Graph, vertices: Iterable[int]) -> int:
    """The mask of the vertices; ValueError for one outside 0..n-1."""
    m = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError("vertex outside graph")
        m |= 1 << v
    return m


def neighborhood(g: Graph, v: int) -> frozenset[int]:
    """Open neighbourhood N(v)."""
    return bits_of(g.rows[v])


def closed_neighborhood(g: Graph, v: int) -> frozenset[int]:
    return bits_of(g.rows[v] | 1 << v)


def set_neighborhood_mask(g: Graph, smask: int) -> int:
    acc = 0
    for v in iter_bits(smask):
        acc |= g.rows[v]
    return acc & ~smask


def set_neighborhood(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """N(S): vertices outside S with a neighbour in S."""
    return bits_of(set_neighborhood_mask(g, _check_vertices(g, s)))


def closed_set_neighborhood(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """N[S] = N(S) together with S itself."""
    m = _check_vertices(g, s)
    return bits_of(set_neighborhood_mask(g, m) | m)


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    m = _check_vertices(g, s)
    return not any(g.rows[v] & m for v in iter_bits(m))


def _pairwise_masks(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> tuple[int, int]:
    xm = _check_vertices(g, xs)
    ym = _check_vertices(g, ys)
    if xm & ym:
        raise ValueError("vertex sets overlap")
    return xm, ym


def is_complete_between(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> bool:
    """True iff every vertex of xs is adjacent to every vertex of ys."""
    xm, ym = _pairwise_masks(g, xs, ys)
    return all((g.rows[v] & ym) == ym for v in iter_bits(xm))


def is_anticomplete_between(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> bool:
    """True iff there is no edge between xs and ys."""
    xm, ym = _pairwise_masks(g, xs, ys)
    return not any(g.rows[v] & ym for v in iter_bits(xm))


def mixed_vertices(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """Vertices outside S adjacent to at least one but not all of S."""
    smask = _check_vertices(g, s)
    if not smask:
        raise ValueError("S must be nonempty")
    out = 0
    for v in range(g.n):
        if smask >> v & 1:
            continue
        hit = g.rows[v] & smask
        if hit and hit != smask:
            out |= 1 << v
    return bits_of(out)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices, relabelled 0..k-1 in ascending order."""
    keep = sorted(set(vertices))
    m = _check_vertices(g, keep)
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        for u in iter_bits(g.rows[v] & m):
            rows[pos[v]] |= 1 << pos[u]
    return Graph(len(keep), tuple(rows))


def without_vertex(mask: int, v: int) -> int:
    """A vertex mask renumbered for the graph minus vertex v: bit v is
    dropped and the bits above it move down by one."""
    low = (1 << v) - 1
    return mask & low | mask >> 1 & ~low


def delete_vertex(g: Graph, v: int) -> Graph:
    if not 0 <= v < g.n:
        raise ValueError("vertex outside graph")
    return Graph(g.n - 1, tuple(without_vertex(row, v) for u, row in enumerate(g.rows) if u != v))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row ^ (1 << v)) & full for v, row in enumerate(g.rows)))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    n = a.n + b.n
    if n > DEFAULT_VERTEX_CAP:
        raise ValueError(f"combined vertex count {n} exceeds cap {DEFAULT_VERTEX_CAP}")
    rows = list(a.rows) + [row << a.n for row in b.rows]
    return Graph(n, tuple(rows))


def _component(g: Graph, v: int) -> int:
    """Mask of the vertices reachable from v, by breadth-first search."""
    comp = frontier = 1 << v
    while frontier:
        frontier = set_neighborhood_mask(g, frontier) & ~comp
        comp |= frontier
    return comp


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Components as vertex sets, ordered by least member."""
    seen = 0
    comps = []
    for v in range(g.n):
        if not seen >> v & 1:
            comp = _component(g, v)
            seen |= comp
            comps.append(bits_of(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or _component(g, 0) == (1 << g.n) - 1
