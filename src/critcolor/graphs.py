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

Twins (vertices whose rows agree outside the pair) seed the search, as in
McKay and Piperno, "Practical graph isomorphism, II" (2014): their swaps
start the automorphisms the orbit pruning uses, and a target cell of twins
is split into singletons in list order without search.  The label is the
first leaf of least bit-string in the unpruned search; pruning only skips
subtrees that an automorphism maps onto earlier ones, and that split is
the one path it keeps through a twin cell, so neither changes the result.
Most graphs skip the search: when the root refinement is discrete (there
are no twins; refinement never separates them) or each larger cell is a
twin class, the one leaf is the cells flattened, and the maps the swaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

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

    def __reduce__(self):  # the fields only, never what chroma keeps
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


def _checked(n: int) -> int:
    if not 0 <= n <= DEFAULT_VERTEX_CAP:
        raise ValueError(f"vertex count {n} outside 0..{DEFAULT_VERTEX_CAP}")
    return n


def from_rows(n: int, rows: Iterable[int]) -> Graph:
    g = Graph(_checked(n), tuple(rows))
    validate(g)
    return g


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * _checked(n)
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
    full = (1 << _checked(n)) - 1
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
    bits = 0  # six bits a byte, most significant first
    for i, c in enumerate(data[start:], start):
        if not 63 <= c <= 126:
            raise Graph6Error(f"character {c!r} outside graph6 range 63..126", i)
        bits = bits << 6 | (c - 63)
    pad = 6 * nbytes - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", start + nbytes - 1)
    return Graph(n, _rows_from_bits(n, bits >> pad))


def ingest_graph6_stream(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse a graph6 line stream, skipping blank lines and the whitespace
    around a line.  A malformed line raises ValueError naming its number."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield parse_graph6(line)
        except Graph6Error as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc


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
    while len(cells) < len(rows):  # a discrete partition splits no further
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
            break
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
    generate less than Aut(g).  They start with one swap per vertex that
    has a twin below it, with the nearest such twin: swaps with the least
    twin would all move it, leaving none once it is fixed, and the
    lex-leader chain of ``plus_isolated(path(4), 3)`` would break.  Root
    cells that are singletons or twin classes make one leaf, returned at once.
    A leaf tying the best adds its map untested: no two leaves share a label,
    and a map found before would have pruned its branch below their fork."""
    n = g.n
    rows = g.rows
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(rows[v].bit_count(), []).append(v)
    stable: set[int] = set()
    cells = _refine(rows, [by_degree[d] for d in sorted(by_degree)], stable)
    best_bits: Optional[int] = None
    best_label: Optional[list[int]] = None
    gens: list[list[int]] = []  # automorphisms, as orig -> orig maps
    twin = list(range(n))  # the least twin of each vertex
    last: dict[int, int] = {}  # open or closed row -> the last vertex with it
    for v, row in enumerate(rows if len(cells) < n else ()):  # a discrete partition has no twins
        for key in (row, row | 1 << v):  # false twins share the one, true twins the other
            if key in last:
                u = last[key]
                twin[v] = twin[u]
                swap = list(range(n))
                swap[u], swap[v] = v, u
                gens.append(swap)
            last[key] = v
    if all(twin[v] == twin[c[0]] for c in cells for v in c):  # one leaf: split each twin cell
        label = [v for c in cells for v in c]
        return _adjacency_bits(rows, label), label, gens

    def descend(cells: list[list[int]], fixed: list[int], stable: set[int]) -> None:
        nonlocal best_bits, best_label
        while True:
            target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
            if target is None or any(twin[v] != twin[cells[target][0]] for v in cells[target]):
                break
            # a cell of twins: every order of it is one orbit, and the
            # partition stays equitable, so the first order is the only path
            fixed = fixed + cells[target]
            cells = cells[:target] + [[v] for v in cells[target]] + cells[target + 1:]
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
                gens.append(perm)
            return
        done = seen = 0
        usable: list[list[int]] = []  # the maps fixing ``fixed``, extended as leaves add maps
        for v in cells[target]:
            usable += [p for p in gens[seen:] if all(p[f] == f for f in fixed)]
            seen = len(gens)
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
# vertex-set helpers.  Inside the package vertex sets are bitmasks.  The
# set predicates below take any iterable of vertices and check its range;
# set_neighborhood_mask, the one neighbourhood query, is masks in and out.
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


def set_neighborhood_mask(g: Graph, smask: int) -> int:
    """N(S) as a mask: the vertices outside S with a neighbour in S."""
    acc = 0
    for v in iter_bits(smask):
        acc |= g.rows[v]
    return acc & ~smask


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
    return frozenset(v for v in iter_bits((1 << g.n) - 1 & ~smask) if g.rows[v] & smask not in (0, smask))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices, relabelled 0..k-1 in ascending order."""
    keep = sorted(set(vertices))
    return Graph(len(keep), _relabel(g, keep, {v: i for i, v in enumerate(keep)}, _check_vertices(g, keep)))


def _relabel(g: Graph, label: list[int], pos: Union[list[int], dict[int, int]], within: int = -1) -> tuple[int, ...]:
    """The rows of the subgraph on ``label`` (vertex mask ``within``, by
    default all) with vertex ``label[i]`` renamed i, given ``pos[label[i]] == i``."""
    rows = []
    for v in label:
        row, out = g.rows[v] & within, 0
        while row:  # iter_bits inlined: the walk relabels every class it finds
            low = row & -row
            out |= 1 << pos[low.bit_length() - 1]
            row ^= low
        rows.append(out)
    return tuple(rows)


def without_vertex(mask: int, v: int) -> int:
    """A vertex mask renumbered for the graph minus vertex v: bit v is
    dropped and the bits above it move down by one."""
    low = (1 << v) - 1
    return mask & low | mask >> 1 & ~low


def with_vertex(mask: int, v: int) -> int:
    """The inverse of ``without_vertex``: a vertex mask of the graph minus
    vertex v renumbered for the graph, with bit v clear."""
    low = (1 << v) - 1
    return mask & low | (mask & ~low) << 1


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


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or _component(g, 0) == (1 << g.n) - 1
