"""Vertex-criticality: reports, databases, structural necessary conditions.

A graph is k-vertex-critical when its chromatic number is k and deleting any
single vertex drops it to k-1.  Such graphs obey strong local constraints,
searched for here as an obstruction that must be absent from every critical
graph: find_lemma_xy_violation looks for disjoint anticomplete sets X and Y
where Y dominates N(X) and the X side needs no more colours than the Y side
(then X could be recoloured inside Y's palette, so the graph could not have
been critical).  find_comparable_nonadjacent is its size-one case, a
nonadjacent pair with nested neighbourhoods.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional, Union as TUnion

from . import chroma
from .chroma import Coloring
from .graphs import (
    Graph,
    _check_vertices,
    delete_vertex,
    ingest_graph6_stream,
    is_independent,
    iter_bits,
    mask_of,
    mixed_vertices,
    parse_graph6,
    set_neighborhood_mask,
    to_graph6,
    with_vertex,
)
from .patterns import (
    Embedding,
    PatternSpec,
    PatternViolation,
    find_induced_subgraph,
    format_pattern,
    is_free,
    parse_pattern,
)


@dataclass(frozen=True)
class CritReport:
    """Chromatic data for one graph against a target k.

    verdict is true exactly when chi == k and every vertex deletion lands
    on k-1.  per_vertex[v] is the chromatic number of the graph minus v.
    """

    k: int
    chi: int
    per_vertex: tuple[int, ...]
    verdict: bool


def criticality_report(g: Graph, k: int, budget: Optional[int | chroma._Budget] = None) -> CritReport:
    """The report of g against k.

    One chromatic-number search gives chi, a chi-colouring and a maximum
    clique; each per-vertex chromatic number, chi - 1 or chi, is then
    decided by ``_keeps_chi``, often with no search at all: later deletions
    reuse the cliques and colourings found for earlier ones.  ``budget``
    caps the search nodes of the whole report (see ``chroma._Budget``).
    """
    chi, keeps = _deletions(g, k, chroma._counter(budget))
    per_vertex = tuple(chi if kept else chi - 1 for kept in keeps)
    verdict = chi == k and all(c == k - 1 for c in per_vertex)
    return CritReport(k, chi, per_vertex, verdict)


def _is_critical(g: Graph, k: int) -> bool:
    """``criticality_report(g, k).verdict``, stopping at the first vertex
    whose deletion keeps the chromatic number."""
    chi, keeps = _deletions(g, k, None)
    return chi == k and not any(keeps)


def _deletions(g: Graph, k: int, counter: Optional[chroma._Budget]) -> tuple[int, Iterator[bool]]:
    """chi(g) and, lazily in vertex order, whether each vertex deletion
    keeps it (``_keeps_chi``), from one chromatic-number search.  Later
    deletions reuse the chi-cliques and the (chi - 1)-colourings of g - w
    found for earlier ones, pooled for this call only."""
    if k < 1:
        raise ValueError("k must be at least 1")
    chi, col, clique = chroma._chromatic(g, counter)
    classes = col._class_masks()
    settled = [((1 << g.n) - 1) & ~clique if clique.bit_count() == chi else 0, 0]
    return chi, (_keeps_chi(g, v, chi, classes, settled, counter) for v in range(g.n))


def _keeps_chi(
    g: Graph, v: int, chi: int, classes: list[int], settled: list[int], counter: Optional[chroma._Budget]
) -> bool:
    """Whether chi(g - v) = chi rather than chi - 1, given chi = chi(g) > 0,
    the colour classes of a chi-colouring of g, and the pools of
    ``_deletions`` as the vertices they settle (masks it grows): settled[0]
    those a pooled chi-clique misses, settled[1] each u that is the only
    neighbour of w in a class C of a pooled (chi - 1)-colouring of g - w.
    The first step that applies decides:

    1. v in settled[0]: chi, as the clique lies in g - v;
    2. v in settled[1]: chi - 1, as deleting v and putting w into C
       (chi - 1)-colours g - v;
    3. the other vertices of v's class move greedily to other classes: chi - 1;
    4. if settled[0] is not empty (a chi-clique is pooled; step 3 decides on
       K_chi), a clique search of g on V - v that finds a chi-clique: chi;
    5. a (chi - 1)-colourability search of g - v, whose first descent is
       the DSATUR greedy of g - v: a greedy that fits costs nothing extra.
    Steps 3-5 pool the witness they find."""
    bit = 1 << v
    if settled[0] & bit:
        return True
    if settled[1] & bit:
        return False
    own = next(c for c in classes if c & bit)
    moved: Optional[list[int]] = [c for c in classes if c != own]
    for u in iter_bits(own & ~bit):
        slot = next((i for i, c in enumerate(moved) if not g.rows[u] & c), None)
        if slot is None:
            moved = None
            break
        moved[slot] |= 1 << u
    if moved is None:
        if settled[0]:
            found = chroma._max_clique_in(g.rows, ((1 << g.n) - 1) ^ bit, counter)
            if found.bit_count() == chi:
                settled[0] |= ((1 << g.n) - 1) & ~found
                return True
        col = chroma.is_k_colorable(delete_vertex(g, v), chi - 1, counter)
        if col is None:
            return True
        moved = [with_vertex(c, v) for c in col._class_masks()]
    for c in moved:
        alone = g.rows[v] & c
        if not alone & (alone - 1):
            settled[1] |= alone  # step 2 for v's one neighbour in c
    return False


def _extract_with_kept(
    g: Graph, k: int, budget: Optional[int | chroma._Budget] = None
) -> tuple[Graph, tuple[int, ...]]:
    """A k-vertex-critical induced subgraph of g, and the vertices of g it
    keeps: delete the least-indexed vertex whose deletion keeps chi >= k
    while there is one.  Each pass is one ``_deletions`` walk: while
    chi > k that is vertex 0, at chi = k the first deletion it marks kept."""
    counter = chroma._counter(budget)
    kept = list(range(g.n))
    current = g
    while True:
        chi, keeps = _deletions(current, k, counter)
        if chi < k:
            raise ValueError(f"chromatic number {chi} is below {k}; nothing to extract")
        i = 0 if chi > k else next((v for v, keep in enumerate(keeps) if keep), None)
        if i is None:
            return current, tuple(kept)
        del kept[i]
        current = delete_vertex(current, i)


def find_comparable_nonadjacent(g: Graph) -> Optional[tuple[int, int]]:
    """Least ordered pair (u, v) of nonadjacent vertices with N(u) ⊆ N(v):
    ``find_lemma_xy_violation`` at size one, with X = {u} and Y = {v}."""
    hit = find_lemma_xy_violation(g, 1)
    return None if hit is None else (min(hit[0]), min(hit[1]))


def find_lemma_xy_violation(
    g: Graph, size_cap: int
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Search for anticomplete X, Y with chi(G[X]) <= chi(G[Y]) and Y
    complete to N(X).  Pairs are tried in lexicographic order of
    (|X|+|Y|, X, Y), so the first hit is deterministic.  Returns None when
    no such pair exists (as must happen on every vertex-critical graph).
    Y runs over the combinations of the vertices outside N[X] that see all
    of N(X); ``chroma._colourable`` decides both chi sides."""
    if size_cap < 1:
        raise ValueError("size_cap must be at least 1")
    size_cap = min(size_cap, g.n)  # no side is larger; a larger cap costs time
    rows = g.rows
    full = (1 << g.n) - 1
    by_size: list[list[tuple]] = [[]]  # per |X|: (X, its mask, its Y candidates) for X with any
    for total in range(2, 2 * size_cap + 1):
        if total <= size_cap + 1:  # the first total that admits |X| = total - 1
            by_size.append([])
            for xs in combinations(range(g.n), total - 1):
                xmask = mask_of(xs)
                nx_mask = set_neighborhood_mask(g, xmask)
                ys_from = [v for v in iter_bits(full & ~(xmask | nx_mask)) if not nx_mask & ~rows[v]]
                if ys_from:
                    by_size[-1].append((xs, xmask, ys_from))
        # lexicographic X order across sizes merges each size's lexicographic list
        for xs, xmask, ys_from in heapq.merge(*by_size[max(1, total - size_cap):]):
            sy = total - len(xs)
            for ys in combinations(ys_from, sy):
                ymask = mask_of(ys)
                chi_y = next(c for c in range(1, sy + 1) if chroma._colourable(rows, ymask, c))
                if chroma._colourable(rows, xmask, chi_y):
                    return (frozenset(xs), frozenset(ys))
    return None


def sperner_constant(k: int, ell: int) -> int:
    """binom(k*ell, floor(k*ell/2)): the width bound behind the trace
    antichain argument (largest antichain in the subset lattice)."""
    if k < 1 or ell < 1:
        raise ValueError("k and ell must be at least 1")
    m = k * ell
    return math.comb(m, m // 2)


def mixed_trace_partition(
    g: Graph, s: Iterable[int]
) -> tuple[frozenset[int], tuple[frozenset[int], ...], frozenset[int]]:
    """Partition the vertices mixed on S by their trace N(v) ∩ S.

    Returns (M, classes, U): the mixed set, its trace classes ordered by
    least member, and the least-indexed representative of each class.
    S must be a nonempty independent set.
    """
    s_list = sorted(set(s))
    if not is_independent(g, s_list):
        raise ValueError("S must be independent")
    smask = mask_of(s_list)
    mixed = sorted(mixed_vertices(g, s_list))
    by_trace: dict[int, list[int]] = {}
    for v in mixed:
        by_trace.setdefault(g.rows[v] & smask, []).append(v)
    classes = by_trace.values()  # mixed ascends, so each class enters at its least member
    reps = frozenset(c[0] for c in classes)
    return frozenset(mixed), tuple(frozenset(c) for c in classes), reps


def antichain_check(g: Graph, s: Iterable[int], u: Iterable[int]) -> bool:
    """True iff the traces {N(x) ∩ U : x in S} form an antichain under
    inclusion (no trace contained in another, equality included)."""
    s_list = sorted(set(s))
    if not is_independent(g, s_list):
        raise ValueError("S must be independent")
    umask = _check_vertices(g, u)
    traces = [g.rows[v] & umask for v in s_list]
    for i, ti in enumerate(traces):
        for j, tj in enumerate(traces):
            if i != j and ti & ~tj == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# critical-graph databases and the certification pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalDb:
    """All k-vertex-critical graphs of a family up to some order, stored as
    canonical graph6 strings (string equality is isomorphism equality);
    ``graphs`` hands over the members already parsed, if a caller has them."""

    k: int
    family: tuple[PatternSpec, ...]
    members: tuple[str, ...]
    graphs: InitVar[Optional[tuple[Graph, ...]]] = None

    def __post_init__(self, graphs: Optional[tuple[Graph, ...]]) -> None:
        if graphs is not None:
            object.__setattr__(self, "member_graphs", graphs)  # fills the cache

    @cached_property
    def member_graphs(self) -> tuple[Graph, ...]:
        """The members as graphs, parsed on first use (unless handed over)
        and kept with the database."""
        return tuple(parse_graph6(text) for text in self.members)


def write_critdb(db: CriticalDb) -> str:
    """The file text of a database.  Raises ValueError for a family member
    whose pattern text does not parse back to it, which no file could load."""
    names = [format_pattern(p) for p in db.family]
    for spec, name in zip(db.family, names):
        try:
            reads_back = parse_pattern(name) == spec
        except ValueError:
            reads_back = False
        if not reads_back:
            raise ValueError(f"family member {name} has no pattern text that parses back to it")
    header = f"#critdb k={db.k} family={','.join(names)}"
    return "\n".join([header, *db.members]) + "\n"


def parse_critdb(text: str) -> CriticalDb:
    """Read a database from its file text: a ``#critdb k=K family=SPEC,...``
    header line, then one graph6 member per line.  Blank lines and the
    whitespace around a member line are ignored; errors name the file line."""
    lines = text.splitlines()
    at = next((i for i, ln in enumerate(lines, start=1) if ln.strip()), 0)
    header = lines[at - 1].strip() + " " if at else ""  # stripped, as member lines are
    if not header.startswith("#critdb "):
        raise ValueError(f"line {at}: missing #critdb header line" if at else "missing #critdb header line")
    lines[at - 1] = ""  # members keep their line numbers
    fields: dict[str, str] = {}
    for part in header[len("#critdb "):].split():
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"line {at}: header token {part!r} is not key=value")
        if key not in ("k", "family"):
            raise ValueError(f"line {at}: unknown header key {key!r}")
        if key in fields:
            raise ValueError(f"line {at}: repeated header key {key!r}")
        fields[key] = value
    if "k" not in fields or "family" not in fields:
        raise ValueError(f"line {at}: header must carry k= and family=")
    try:
        k = int(fields["k"])
    except ValueError:
        raise ValueError(f"line {at}: k must be an integer, got {fields['k']!r}") from None
    if k < 1:
        raise ValueError(f"line {at}: k must be at least 1, got {k}")
    try:
        # commas inside parentheses belong to a pattern, as in broom(3,2)
        names = re.split(r",(?![^(]*\))", fields["family"]) if fields["family"] else []
        if "" in names:
            raise ValueError(f"empty family entry in {fields['family']!r}")
        family = tuple(parse_pattern(t) for t in names)
    except ValueError as exc:
        raise ValueError(f"line {at}: {exc}") from exc
    graphs = tuple(ingest_graph6_stream(lines))
    return CriticalDb(k, family, tuple(map(to_graph6, graphs)), graphs)  # each line's text, stripped


def load_critdb(path: str) -> CriticalDb:
    """Read the critdb file at ``path``; ``parse_critdb`` names an undecodable byte's line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return parse_critdb(fh.read())


def save_critdb(db: CriticalDb, path: str) -> None:
    """Write ``db`` to ``path`` in the format ``load_critdb`` reads back."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_critdb(db))


@dataclass(frozen=True)
class CriticalWitness:
    """A negative certificate: an induced subgraph that already needs k+1
    colours.  member_index points into the database that supplied it, or is
    None when the witness was extracted from the graph directly."""

    member_index: Optional[int]
    pattern_graph6: str
    embedding: Embedding


def certify_k_colorable(
    g: Graph, k: int, db: CriticalDb, budget: Optional[int | chroma._Budget] = None
) -> TUnion[Coloring, CriticalWitness]:
    """Decide k-colourability against a database of (k+1)-critical graphs.

    After the family check, a DSATUR greedy colouring with at most k
    colours is returned at once, with no search: every induced subgraph is
    then k-colourable, so no member could be a witness, and the colouring
    search would find this same colouring first.  Otherwise either some
    database member embeds (that subgraph alone already needs k+1 colours)
    or, with a complete database for the family, none does and a
    k-colouring must exist.  Both certificates are re-verified before being
    returned: a member that embeds is used only if it really is not
    k-colourable.  If the database is incomplete and neither branch fires,
    a fresh (k+1)-critical subgraph is extracted and returned as the
    witness.  ``budget`` caps the pattern and colouring search nodes of the
    whole call (see ``chroma._Budget``); the greedy spends none.
    """
    if db.k != k + 1:
        raise ValueError(f"database holds {db.k}-critical graphs; need {k + 1}")
    counter = chroma._counter(budget)
    ok, hit = is_free(g, db.family, counter)
    if not ok:
        raise PatternViolation(hit[0], hit[1])
    col = chroma._greedy(g)
    if col.palette_size > k:  # else every induced subgraph is k-colourable too
        for i, (text, member) in enumerate(zip(db.members, db.member_graphs)):
            emb = find_induced_subgraph(g, member, counter)
            if emb is not None and chroma.is_k_colorable(member, k, counter) is None:
                return CriticalWitness(i, text, emb)
        col = chroma.is_k_colorable(g, k, counter)
    if col is not None:
        if not chroma.is_proper_coloring(g, col):  # pragma: no cover
            raise AssertionError("improper colouring from the search")
        return col
    sub, kept = _extract_with_kept(g, k + 1, counter)
    return CriticalWitness(None, to_graph6(sub), Embedding(kept))
