"""Isomorphism-free enumeration of small graphs and critical-graph harvesting.

Canonical forms come from the usual partition-refinement scheme: vertices
are partitioned by degree, the partition is refined to equitability, and a
backtracking search over the permutations still compatible with it picks the
relabelling whose adjacency bit-string is smallest; that bit-string, in
graph6 pair order, is the canonical form's graph6 body.  Automorphisms
discovered along the way (two branches producing the same bit-string) prune
sibling branches, which keeps highly symmetric graphs like cycles and
edgeless graphs from exploding into factorial search.  Refinement skips
splitters known to split nothing: such a splitter splits no refinement of
the partition either, so the set of them is handed down the search tree.

The refinement scans cells in order and restarts after the first splitter
that splits anything.  That order is frozen: a splitter queue or any other
order would pick different canonical labellings, and saved critdb files are
verified by comparing their members with ``canonical_form``.

Enumeration is one walk up the orders 1, 2, ... n, starting from the empty
graph: every n-vertex graph arises from some (n-1)-vertex graph by adding one
vertex, so each level is generated by attaching a new vertex to each parent
in every way, one neighbourhood per orbit of the parent's automorphism group
(isomorph rejection as in McKay, "Isomorph-free exhaustive generation",
1998: children from one orbit are isomorphic).  The generators are the
automorphisms found by the parent's one canonical labelling, made when it
was a child and carried into its canonical order, so the pruning stays exact
even where they generate only a subgroup.

Each class still turns up from many parents, so the walk also keeps a child
only when its new vertex maximises the invariant (degree, sorted tuple of
neighbour degrees) over the child's vertices, ties included: the cheap half
of McKay's canonical construction path.  The degree half is decided on the
neighbourhood mask before the child is built; ``_orbit_reps`` skips the
masks smaller than the parent's maximum degree, which always fail it.  The
rule loses no class the walk must reach.  Take such a class X, a vertex m
of X whose invariant is maximal, and the parent P isomorphic to X - m.  The
neighbourhood of m, carried into P, lies in the orbit of a mask the walk
tries, under automorphisms the labelling found; the child from that mask is
isomorphic to X by a map sending the new vertex to m, so it passes.
Automorphisms the labelling missed only split orbits, so the rule needs no
complete group.  And P is a parent: plain enumeration extends every graph,
and critical enumeration every family-free (k-1)-colourable graph below
n_max, which X - m is when X is extended (heredity) and when X is k-critical
(criticality).  Emitted children that are not critical may be missed; no
member is.  The duplicates left, from ties and from distinct parents, meet
in the per-level dictionary keyed by canonical form.

Forbidden families are hereditary, so a child that contains a family graph
is dropped for good, and every parent is family-free.  A child made by
adding v to a parent therefore contains a family graph F only through a copy
that uses v: a copy of F - p inside the parent, on some vertex set S, with
N(v) & S equal to the image of p's neighbours (the trace).  So each parent
lists, once, every induced copy of every F - p (one p per orbit of Aut(F))
as an (S, trace) pair, and a neighbourhood mask nb is rejected exactly when
nb & S is a trace of some S, before the child is built.  When F - p is
empty, S and the trace are both 0 and every child is rejected.

A per-parent classifier then sorts every surviving child: extended (it
becomes a parent of the next level), emitted (it goes forward as a candidate
answer) or dropped.  Extended and emitted children are deduplicated by
canonical form per level.  The filter and every classifier test are
isomorphism-invariant, so the orbit pruning changes no output.  Plain
enumeration extends everything; critical enumeration extends the
(k-1)-colourable children and emits the ones that pass the cheap
criticality screens.  It colours each parent once with k-1 colours (every
parent is (k-1)-colourable): a new vertex that misses one colour class takes
that colour, so only the children whose neighbourhood meets every class are
coloured from scratch.
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import chroma
from .critical import CriticalDb, criticality_report, find_comparable_nonadjacent
from .graphs import (
    Graph,
    Graph6Error,
    _adjacency_bits,
    _encode_graph6,
    _rows_from_bits,
    delete_vertex,
    is_connected,
    iter_bits,
    parse_graph6,
    without_vertex,
)
from .patterns import PatternSpec, _induced_copies, is_free, realize
# bound here for the benchmark's tracer tests, which wrap and restore it
from .patterns import find_induced_subgraph  # noqa: F401

MAX_CANONICAL_N = 16
MAX_ENUMERATION_N = 10


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
    canonical-deletion rule use only these maps, so both stay exact when they
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


def canonical_form(g: Graph) -> str:
    """graph6 text of the canonically relabelled graph.  Two graphs are
    isomorphic exactly when their canonical forms are string-equal."""
    if g.n > MAX_CANONICAL_N:
        raise ValueError(f"canonical form limited to n <= {MAX_CANONICAL_N}, got {g.n}")
    return _encode_graph6(g.n, _canonical_labeling(g)[0])


def _orbit_reps(n: int, gens: Sequence[list[int]], floor: int = 0) -> Iterator[int]:
    """The least mask of each orbit of the group the vertex maps ``gens``
    generate, acting on the subsets of n vertices, ascending, over the masks
    of at least ``floor`` vertices.  A vertex map keeps the size of a
    mask, so those orbits are whole and the smaller masks are never mapped."""
    tables = []  # per generator: images of the low byte and of the bits above it
    for p in gens:
        low, high = [0] * (1 << min(n, 8)), [0] * (1 << max(n - 8, 0))
        for table, base in ((low, 0), (high, 8)):
            for b in range(1, len(table)):
                top = b.bit_length() - 1
                table[b] = table[b ^ 1 << top] | 1 << p[base + top]
        tables.append((low, high))
    seen = bytearray(1 << n)
    for rep in range(1 << n):
        if seen[rep] or rep.bit_count() < floor:
            continue
        yield rep
        seen[rep] = 1
        stack = [rep]
        while stack:
            mask = stack.pop()
            for low, high in tables:
                image = low[mask & 255] | high[mask >> 8]
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)


def _attach(parent: Graph, nb: int) -> Graph:
    """The parent plus a new last vertex with neighbourhood mask nb."""
    n = parent.n
    rows = [parent.rows[v] | ((nb >> v & 1) << n) for v in range(n)]
    rows.append(nb)
    return Graph(n + 1, tuple(rows))


def _trace_patterns(filter_graphs: list[Graph], n_max: int) -> list[tuple[Graph, int]]:
    """For each family graph F and each vertex p of F, one per orbit of the
    automorphisms found by F's canonical labelling: F - p and the mask of
    p's neighbours in it.  A graph larger than n_max can never embed."""
    out = []
    for f in filter_graphs:
        if f.n > n_max:
            continue
        gens = _canonical_labeling(f)[2]
        for p in range(f.n):
            if not _orbit(p, gens) & ((1 << p) - 1):
                out.append((delete_vertex(f, p), without_vertex(f.rows[p], p)))
    return out


def _forbidden_traces(parent: Graph, trace_patterns: list[tuple[Graph, int]]) -> dict[int, set[int]]:
    """The forbidden traces of a family-free parent, by vertex set S: a new
    vertex with neighbourhood nb completes a family graph exactly when
    nb & S is one of the traces of some S."""
    traces: dict[int, set[int]] = {}
    for rest, p_nbrs in trace_patterns:
        for mapping in _induced_copies(parent, rest):
            s = trace = 0
            for u, h in enumerate(mapping):
                s |= 1 << h
                if p_nbrs >> u & 1:
                    trace |= 1 << h
            traces.setdefault(s, set()).add(trace)
    return traces


def _outranked(child: Graph, ties: int) -> bool:
    """Whether a vertex of ``ties``, all of the new last vertex's degree, has
    a larger sorted tuple of neighbour degrees than the new vertex."""
    degree = [row.bit_count() for row in child.rows]

    def key(v: int) -> list[int]:
        return sorted(degree[u] for u in iter_bits(child.rows[v]))

    new = key(child.n - 1)
    return any(key(u) > new for u in iter_bits(ties))


_EXTEND, _EMIT = "extend", "emit"

_ChildClassifier = Callable[[Graph, int, int], Optional[str]]


def _walk(
    n_max: int, family: Iterable[PatternSpec], classify: Callable[[Graph], _ChildClassifier]
) -> Iterator[tuple[int, list[Graph], list[str]]]:
    """The level walk.  Each parent gets its child classifier from
    ``classify(parent)``; each family-free child on n vertices whose new
    vertex maximises the invariant of the canonical-deletion rule, with the
    new vertex's neighbourhood mask nb, is classified by ``classifier(child,
    n, nb)`` as _EXTEND, _EMIT or None (dropped).  Yields, per order n, one
    canonical representative per class of extended children, which are also
    the next level's parents, and the sorted canonical forms of the emitted
    children."""
    if not 1 <= n_max <= MAX_ENUMERATION_N:
        raise ValueError(f"enumeration limited to 1 <= n <= {MAX_ENUMERATION_N}, got {n_max}")
    trace_patterns = _trace_patterns([realize(f) for f in family], n_max)
    parents, parent_gens = [Graph(0, ())], [()]
    for n in range(1, n_max + 1):
        # canonical bit-string -> generators in canonical order (none at n_max)
        extended: dict[int, Sequence[list[int]]] = {}
        emitted: set[int] = set()
        for parent, gens in zip(parents, parent_gens):
            forbidden = _forbidden_traces(parent, trace_patterns)
            classify_child = classify(parent)
            by_degree: dict[int, int] = {}  # degree -> mask of the parent's vertices
            for u, row in enumerate(parent.rows):
                deg = row.bit_count()
                by_degree[deg] = by_degree.get(deg, 0) | 1 << u
            top = max(by_degree, default=0)
            for nb in _orbit_reps(parent.n, gens, top):
                if forbidden and any(nb & s in traces for s, traces in forbidden.items()):
                    continue
                # the new vertex has degree d >= top; a parent vertex of degree
                # d inside nb outgrows it, and those that reach d tie with it
                d = nb.bit_count()
                if nb & by_degree.get(d, 0):
                    continue
                ties = by_degree.get(d, 0) | nb & by_degree.get(d - 1, 0)
                child = _attach(parent, nb)
                if ties and _outranked(child, ties):
                    continue
                kind = classify_child(child, n, nb)
                if kind == _EMIT:
                    emitted.add(_canonical_labeling(child)[0])
                elif kind == _EXTEND:
                    bits, label, child_gens = _canonical_labeling(child)
                    if bits not in extended:
                        pos = sorted(range(n), key=label.__getitem__)  # label's inverse
                        extended[bits] = [[pos[p[v]] for v in label] for p in child_gens] if n < n_max else ()
        order = sorted(extended)  # at one order the bit-strings sort as the graph6 texts
        parents = [Graph(n, _rows_from_bits(n, bits)) for bits in order]
        parent_gens = [extended[bits] for bits in order]
        yield n, parents, [_encode_graph6(n, bits) for bits in sorted(emitted)]


def _always_extend(child: Graph, n: int, nb: int) -> str:
    return _EXTEND


def _extend_all(parent: Graph) -> _ChildClassifier:
    return _always_extend


def enumerate_graphs(
    n: int, filters: Iterable[PatternSpec] = (), connected_only: bool = False
) -> Iterator[Graph]:
    """One representative per isomorphism class of n-vertex graphs avoiding
    every filter pattern, in canonical-form order."""
    for g in enumerate_up_to(n, filters, connected_only):
        if g.n == n:
            yield g


def enumerate_up_to(
    n_max: int, filters: Iterable[PatternSpec] = (), connected_only: bool = False
) -> Iterator[Graph]:
    """Like enumerate_graphs but over every order 1..n_max, ascending, without
    recomputing the lower levels once per order."""
    for _, level, _ in _walk(n_max, tuple(filters), _extend_all):
        for g in level:
            if not connected_only or is_connected(g):
                yield g


def _critical_classifier(parent: Graph, k: int, n_max: int) -> _ChildClassifier:
    """The child classifier of critical enumeration for one parent: extend
    the (k-1)-colourable children below n_max, emit the others that pass the
    cheap criticality screens.  Parents are (k-1)-colourable (nothing else is
    extended), and a new vertex that misses a colour class of the parent's
    colouring takes that colour; an unused colour is a class every vertex
    misses.  Only the other children are coloured from scratch."""
    classes = [0] * (k - 1)
    for v, c in enumerate(chroma.is_k_colorable(parent, k - 1).assignment):
        classes[c - 1] |= 1 << v

    def classify_child(child: Graph, n: int, nb: int) -> Optional[str]:
        if any(not nb & c for c in classes) or chroma.is_k_colorable(child, k - 1) is not None:
            return _EXTEND if n < n_max else None
        # chi is exactly k here: the parent was (k-1)-colourable, so one
        # added vertex cannot push the chromatic number past k
        if (
            not is_connected(child)
            or min(child.degree(v) for v in range(child.n)) < k - 1
            or find_comparable_nonadjacent(child) is not None
        ):
            return None
        return _EMIT

    return classify_child


def enumerate_critical(
    k: int, n_max: int, family: Iterable[PatternSpec] = ()
) -> CriticalDb:
    """All k-vertex-critical graphs avoiding the family, up to n_max vertices.

    The enumeration tree is pruned hard: only (k-1)-colourable graphs are
    extended, because a graph whose chromatic number has already reached k
    cannot sit properly inside a larger critical graph (deleting any vertex
    outside it would not lower the chromatic number below k).  Each child
    that jumps to chromatic number k is screened with the cheap necessary
    conditions (connected, minimum degree at least k-1, no nonadjacent pair
    with nested neighbourhoods); the full per-vertex check then runs once per
    isomorphism class of the children that pass.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    family = tuple(family)
    members = [
        canon
        for _, _, emitted in _walk(n_max, family, lambda parent: _critical_classifier(parent, k, n_max))
        for canon in emitted
        if criticality_report(parse_graph6(canon), k).verdict
    ]
    return CriticalDb(k, family, tuple(members))


def verify_critdb(db: CriticalDb) -> bool:
    """Re-check a database from scratch: members must be canonical, pairwise
    distinct, family-free and k-vertex-critical."""
    if len(set(db.members)) != len(db.members):
        return False
    for text in db.members:
        g = parse_graph6(text)
        if canonical_form(g) != text:
            return False
        if not is_free(g, db.family)[0]:
            return False
        if not criticality_report(g, db.k).verdict:
            return False
    return True


def ingest_graph6_stream(lines: Iterable[str], strict: bool = True) -> Iterator[Graph]:
    """Parse a graph6 line stream.  Malformed lines raise (strict) or are
    reported as warnings and skipped, always naming the line number."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield parse_graph6(line)
        except Graph6Error as exc:
            if strict:
                raise ValueError(f"line {lineno}: {exc}") from exc
            warnings.warn(f"skipping malformed graph6 at line {lineno}: {exc}")
