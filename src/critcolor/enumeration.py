"""Isomorphism-free enumeration of small graphs and critical-graph harvesting.

Canonical forms come from ``graphs._canonical_labeling``: the degree
partition is refined to equitability, and a backtracking search, pruned by
the automorphisms it finds, picks the relabelling with the smallest
adjacency bit-string, which in graph6 pair order is the canonical graph6 body.

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
and critical enumeration every family-free (k-1)-colourable graph on
n < n_max vertices with minimum degree at least k - 1 - (n_max - n), which
X - m is when X is extended (heredity; deleting m costs a degree at most one)
and when X is k-critical (criticality; X has minimum degree k - 1 or more).
Emitted children that are not critical may be missed; no member is.  The
duplicates left, from ties and from distinct parents, meet in the per-level
dictionary keyed by canonical form.

A per-parent classifier sorts each child by its neighbourhood mask alone,
before the child is built: extended (a parent of the next level), emitted
(a candidate answer) or dropped.  Plain enumeration extends everything.
Critical enumeration drops a child on n vertices below minimum degree
k - 1 - (n_max - n), extends the (k-1)-colourable ones below n_max and
emits the others that pass the cheap criticality screens (connected,
minimum degree k - 1, no nonadjacent pair with nested neighbourhoods).  A
child is (k-1)-colourable exactly when its new vertex misses one of the
parent's extendable classes, the inclusion-minimal independent sets S with
chi(P - S) <= k - 2 (Goedgebeur and Schaudt, "Exhaustive generation of
k-critical H-free graphs", 2018), so no child is coloured.

Family graphs are forbidden as induced subgraphs, so every parent is
family-free and a child contains a family graph F only through a copy that
uses the new vertex v: a copy of F - p inside the parent, on some vertex set
S, with N(v) & S equal to the image of p's neighbours (the trace).  At its
first child that the classifier extends, a parent lists every induced copy
of every F - p (one p per orbit of Aut(F)) and marks, in a table of one
byte per neighbourhood mask, every nb with nb & S equal to the trace (every
nb when F - p is empty).  Emitted children skip the table: each is tested
with ``is_free`` and then by the caller's verdict (criticality, for critical
enumeration), and only one that passes both is labelled.  So a parent
that extends no child, every parent at n_max - 1 of a critical walk among
them, lists no copies.  Every test is isomorphism-invariant and they
commute: neither their order nor the orbit pruning changes an output.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .chroma import _chromatic, _colourable
from .critical import CriticalDb, _is_critical
from .graphs import (
    Graph,
    _canonical_labeling,
    _component,
    _encode_graph6,
    _orbit,
    _relabel,
    delete_vertex,
    is_connected,
    iter_bits,
    mask_of,
    without_vertex,
)
from .patterns import PatternSpec, _induced_copies, _pattern_order, is_free, realize
# bound here for the benchmark's tracer tests, which wrap and restore it
from .patterns import find_induced_subgraph  # noqa: F401

MAX_CANONICAL_N = 16
MAX_ENUMERATION_N = 10


def canonical_form(g: Graph) -> str:
    """graph6 text of the canonically relabelled graph.  Two graphs are
    isomorphic exactly when their canonical forms are string-equal."""
    if g.n > MAX_CANONICAL_N:
        raise ValueError(f"canonical form limited to n <= {MAX_CANONICAL_N}, got {g.n}")
    return _encode_graph6(g.n, _canonical_labeling(g)[0])


@lru_cache(maxsize=None)
def _masks_from(n: int, floor: int) -> tuple[int, ...]:
    """The subsets of n vertices with at least ``floor`` members, as ascending masks."""
    return tuple(mask for mask in range(1 << n) if mask.bit_count() >= floor)


def _orbit_reps(n: int, gens: Sequence[list[int]], floor: int = 0) -> Iterator[int]:
    """The least mask of each orbit of the group the vertex maps ``gens``
    generate, acting on the subsets of n vertices, ascending, over the masks
    of at least ``floor`` vertices.  A vertex map keeps the size of a
    mask, so those orbits are whole and the smaller masks are never mapped."""
    half, cut = n // 2, (1 << n // 2) - 1
    tables = []  # per generator: images of the low half (the bits below ``half``) and the high half
    for p in gens:
        low, high = [0] * (1 << half), [0] * (1 << n - half)
        for table, base in ((low, 0), (high, half)):
            for b in range(1, len(table)):
                top = b.bit_length() - 1
                table[b] = table[b ^ 1 << top] | 1 << p[base + top]
        tables.append((low, high))
    seen = bytearray(1 << n)
    for rep in _masks_from(n, floor):
        if seen[rep]:
            continue
        yield rep
        seen[rep] = 1
        stack = [rep]
        while stack:
            mask = stack.pop()
            for low, high in tables:
                image = low[mask & cut] | high[mask >> half]
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)


def _attach(parent: Graph, nb: int) -> Graph:
    """The parent plus a new last vertex with neighbourhood mask nb."""
    n = parent.n
    rows = [parent.rows[v] | ((nb >> v & 1) << n) for v in range(n)]
    rows.append(nb)
    return Graph(n + 1, tuple(rows))


def _trace_patterns(family: Sequence[PatternSpec], n_max: int) -> list[tuple[Graph, int]]:
    """For each family graph F and each vertex p of F, one per orbit of the
    automorphisms found by F's canonical labelling: F - p and the mask of
    p's neighbours in it.  A graph larger than n_max can never embed, and
    is not realized: it may have more vertices than a graph may."""
    out = []
    for spec in family:
        if _pattern_order(spec) > n_max:
            continue
        f = realize(spec)
        gens = _canonical_labeling(f)[2]
        for p in range(f.n):
            if not _orbit(p, gens) & ((1 << p) - 1):
                out.append((delete_vertex(f, p), without_vertex(f.rows[p], p)))
    return out


def _forbidden_traces(parent: Graph, trace_patterns: list[tuple[Graph, int]]) -> bytearray:
    """The forbidden neighbourhoods of a new vertex of a family-free parent,
    as a byte per mask nb: set exactly when nb & S is a trace of some copy
    S, that is, when the child completes a family graph.  Each (S, trace)
    marks the masks trace | X for every X outside S."""
    full = (1 << parent.n) - 1
    table = bytearray(1 << parent.n)
    for rest, p_nbrs in trace_patterns:
        for mapping in _induced_copies(parent, rest):
            s = trace = 0
            for u, h in enumerate(mapping):
                s |= 1 << h
                if p_nbrs >> u & 1:
                    trace |= 1 << h
            free = sub = full & ~s
            while True:
                table[trace | sub] = 1
                if not sub:
                    break
                sub = (sub - 1) & free
    return table


def _outranked(child: Graph, ties: int) -> bool:
    """Whether a vertex of ``ties``, all of the new last vertex's degree, has
    a larger sorted tuple of neighbour degrees than the new vertex."""
    degree = [row.bit_count() for row in child.rows]

    def key(v: int) -> list[int]:
        return sorted(degree[u] for u in iter_bits(child.rows[v]))

    new = key(child.n - 1)
    return any(key(u) > new for u in iter_bits(ties))


_EXTEND, _EMIT = "extend", "emit"

_ChildClassifier = Callable[[int], Optional[str]]


def _walk(
    n_max: int, family: Sequence[PatternSpec], classify: Callable[[Graph, list[int]], _ChildClassifier],
    accept: Callable[[Graph], bool] = lambda child: True,
) -> Iterator[tuple[int, list[Graph], dict[str, Graph]]]:
    """The level walk.  Each parent gets its child classifier from
    ``classify(parent, degrees)``, given its vertex degrees; each child, given
    by the new vertex's neighbourhood mask nb, is classified by
    ``classifier(nb)`` as _EXTEND, _EMIT or None (dropped) before it is
    built.  An extended child is then dropped if the parent's trace table
    (built at its first extended child) marks nb.  A child is built only when
    its new vertex maximises the canonical-deletion invariant, and an emitted
    one is labelled only when it is family-free and ``accept(child)`` holds.
    Yields, per order n, one canonical representative per class of extended
    children, which are also the next level's parents, and one per class of
    accepted emitted children, keyed by canonical form in sorted order."""
    if not 1 <= n_max <= MAX_ENUMERATION_N:
        raise ValueError(f"enumeration limited to 1 <= n <= {MAX_ENUMERATION_N}, got {n_max}")
    trace_patterns = _trace_patterns(family, n_max)
    parents, parent_gens = [Graph(0, ())], [()]
    for n in range(1, n_max + 1):
        # canonical bit-string -> the class's canonical rows, and for
        # extended classes below n_max their generators in canonical order
        extended: dict[int, tuple[int, ...]] = {}
        extended_gens: dict[int, list[list[int]]] = {}
        emitted: dict[int, tuple[int, ...]] = {}
        for parent, gens in zip(parents, parent_gens):
            degrees = [row.bit_count() for row in parent.rows]
            classify_child = classify(parent, degrees)
            by_degree: dict[int, int] = {}  # degree -> mask of the parent's vertices
            for u, deg in enumerate(degrees):
                by_degree[deg] = by_degree.get(deg, 0) | 1 << u
            top = max(by_degree, default=0)
            forbidden: Optional[bytearray] = None
            for nb in _orbit_reps(parent.n, gens, top):
                # the new vertex has degree d >= top; a parent vertex of degree
                # d inside nb outgrows it, and those that reach d tie with it
                d = nb.bit_count()
                if nb & by_degree.get(d, 0):
                    continue
                kind = classify_child(nb)
                if kind is None:
                    continue
                if kind == _EXTEND:
                    if forbidden is None:
                        forbidden = _forbidden_traces(parent, trace_patterns)
                    if forbidden[nb]:
                        continue
                ties = by_degree.get(d, 0) | nb & by_degree.get(d - 1, 0)
                child = _attach(parent, nb)
                if ties and _outranked(child, ties):
                    continue
                if kind == _EMIT and not (is_free(child, family)[0] and accept(child)):
                    continue
                bits, label, child_gens = _canonical_labeling(child)
                classes = extended if kind == _EXTEND else emitted
                if bits not in classes:
                    pos = sorted(range(n), key=label.__getitem__)  # label's inverse
                    classes[bits] = _relabel(child, label, pos)
                    if kind == _EXTEND and n < n_max:
                        extended_gens[bits] = [[pos[p[v]] for v in label] for p in child_gens]
        order = sorted(extended)  # at one order the bit-strings sort as the graph6 texts
        parents = [Graph(n, extended[bits]) for bits in order]  # made one by one in the loop, they raised peak RSS
        parent_gens = [extended_gens.get(bits, ()) for bits in order]
        yield n, parents, {_encode_graph6(n, bits): Graph(n, emitted[bits]) for bits in sorted(emitted)}


def _extend_all(parent: Graph, degrees: list[int]) -> _ChildClassifier:
    return lambda nb: _EXTEND


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


def _extendable_classes(parent: Graph, k: int) -> list[int]:
    """The inclusion-minimal independent sets S of the parent with
    chi(parent - S) <= k - 2, ascending by size.  A child with new
    neighbourhood nb is (k-1)-colourable exactly when nb misses one of them:
    the new vertex's colour class minus the vertex is such an S, and
    conversely the new vertex takes S's colour.  With k - 1 < 1 colours the
    new vertex has none: no S qualifies, as no chromatic number is below 0."""
    rows, full = parent.rows, (1 << parent.n) - 1
    classes: list[int] = []
    # independent sets by size, each with the vertices above its top that can
    # join it; a set holding a class is not minimal, and neither are its supersets
    level = [(0, full)]
    while level:
        larger = []
        for s, joinable in level:
            if any(not c & ~s for c in classes):
                continue
            if _colourable(rows, full & ~s, k - 2):
                classes.append(s)
                continue
            for v in iter_bits(joinable):
                larger.append((s | 1 << v, joinable & ~rows[v] & ~((2 << v) - 1)))
        level = larger
    return classes


def _must_see(degrees: list[int], need: int) -> int:
    """The parent vertices a new vertex of ``need`` neighbours must see for
    the child to have minimum degree at least ``need``, from their degrees:
    those of degree need - 1, or -1, which no mask holds, when one has less."""
    short = mask_of(v for v, d in enumerate(degrees) if d < need)
    return -1 if any(d < need - 1 for d in degrees) else short


def _emission_screen(parent: Graph, degrees: list[int], k: int) -> Callable[[int], bool]:
    """The cheap screens of criticality for the child with new neighbourhood
    nb, decided on nb: the child must be connected, have minimum degree at
    least k - 1 and have no nonadjacent pair u, w with N(u) ⊆ N(w)."""
    n, rows = parent.n, parent.rows
    full = (1 << n) - 1
    short = _must_see(degrees, k - 1)
    components, rest = [], full  # nb must meet each, found from its least vertex
    while rest:
        components.append(_component(parent, (rest & -rest).bit_length() - 1))
        rest &= ~components[-1]
    # nested parent pairs stay nested unless the new vertex sees u and not w
    nested = [(1 << u, 1 << w) for u in range(n) for w in range(n)
              if u != w and not rows[u] >> w & 1 and not rows[u] & ~rows[w]]

    def passes(nb: int) -> bool:
        return (
            nb.bit_count() >= k - 1 and not short & ~nb
            and all(nb & comp for comp in components)
            and all(nb & u and not nb & w for u, w in nested)
            and not any(not nb & ~rows[w] or not rows[w] & ~nb for w in iter_bits(full & ~nb))
        )

    return passes


def _critical_classifier(parent: Graph, degrees: list[int], k: int, n_max: int) -> _ChildClassifier:
    """The child classifier of critical enumeration for one parent, on the
    new vertex's neighbourhood mask alone: drop a child on n vertices below
    minimum degree k - 1 - (n_max - n), extend the (k-1)-colourable ones
    below n_max, which the parent's extendable classes decide, and emit the
    others that pass the cheap criticality screens.  The classes, the screens
    and whether n < n_max are settled once per parent, before any child.
    Parents are (k-1)-colourable (nothing else is extended), so a child that
    is not has chromatic number exactly k."""
    need = k + parent.n - n_max  # for the child order n = parent.n + 1
    short = _must_see(degrees, need)
    classes = _extendable_classes(parent, k)
    screen = _emission_screen(parent, degrees, k)
    extend = _EXTEND if parent.n + 1 < n_max else None

    def classify_child(nb: int) -> Optional[str]:
        if nb.bit_count() < need or short & ~nb:
            return None  # emission asks for k - 1 >= need as well
        if any(not nb & s for s in classes):
            return extend
        return _EMIT if screen(nb) else None

    return classify_child


def enumerate_critical(
    k: int, n_max: int, family: Iterable[PatternSpec] = ()
) -> CriticalDb:
    """All k-vertex-critical graphs avoiding the family, up to n_max vertices.

    Only (k-1)-colourable graphs are extended: a graph that needs k colours
    sits properly inside no k-critical graph.  A graph on n vertices is kept
    only with minimum degree at least k - 1 - (n_max - n), as is every graph
    at most n_max - n vertex deletions below a k-critical one.  A child that
    needs k colours is screened by the cheap necessary conditions
    (connected, minimum degree k - 1, no nonadjacent pair with nested
    neighbourhoods).  Each child that passes is tested against the family
    and then checked for criticality (chi = k, and vertex deletions in order
    until one keeps chi = k) before it is labelled, so only members are.
    Each member's canonical graph gets one chromatic-number search, which
    keeps the refutation of k - 1 colours that certifying reuses.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    family = tuple(family)
    members: dict[str, Graph] = {}
    classify = lambda parent, degrees: _critical_classifier(parent, degrees, k, n_max)  # noqa: E731
    for _, _, emitted in _walk(n_max, family, classify, lambda child: _is_critical(child, k)):
        for g in emitted.values():
            _chromatic(g)  # kept on g: the clique, the greedy and the refutation of k - 1 colours
        members.update(emitted)
    return CriticalDb(k, family, tuple(members), tuple(members.values()))


def verify_critdb(db: CriticalDb) -> bool:
    """Re-check a database from scratch: members must be canonical, pairwise
    distinct, family-free and k-vertex-critical (see ``_is_critical``).
    Each member is checked on a fresh copy, so no answer the walk kept on
    it (``chroma._clique``, ``find_induced_subgraph``'s absences) is reused."""
    if len(set(db.members)) != len(db.members):
        return False
    for text, g in zip(db.members, db.member_graphs):
        g = Graph(g.n, g.rows)
        if canonical_form(g) != text:
            return False
        if not is_free(g, db.family)[0]:
            return False
        if not _is_critical(g, db.k):
            return False
    return True

