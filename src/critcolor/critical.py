"""Vertex-criticality: reports, databases, structural necessary conditions.

A graph is k-vertex-critical when its chromatic number is k and deleting any
single vertex drops it to k-1.  Such graphs obey strong local constraints;
two are implemented here as searches that must come up empty on every
critical graph.  find_comparable_nonadjacent looks for a nonadjacent pair
with nested neighbourhoods.  find_lemma_xy_violation looks for the more
general obstruction: disjoint anticomplete sets X and Y where Y dominates
N(X) and the X side needs no more colours than the Y side (then X could be
recoloured inside Y's palette, so the graph could not have been critical).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Union as TUnion

from . import chroma
from .chroma import Coloring
from .graphs import (
    Graph,
    Graph6Error,
    _check_vertices,
    delete_vertex,
    induced_subgraph,
    is_independent,
    iter_bits,
    mask_of,
    mixed_vertices,
    parse_graph6,
    to_graph6,
    without_vertex,
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


def criticality_report(g: Graph, k: int, budget: Optional[int] = None) -> CritReport:
    """The report of g against k.

    One chromatic-number search gives chi, a chi-colouring and a maximum
    clique; each per-vertex chromatic number, chi - 1 or chi, is then
    decided by ``_keeps_chi``, often with no search at all.  ``budget``
    caps the search nodes of the whole report together.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    counter = chroma._Budget(budget)
    chi, col, clique = chroma._chromatic(g, counter)
    classes = [mask_of(c) for c in col.classes()]
    per_vertex = tuple(
        chi if _keeps_chi(g, v, chi, classes, clique, counter) else chi - 1
        for v in range(g.n)
    )
    verdict = chi == k and all(c == k - 1 for c in per_vertex)
    return CritReport(k, chi, per_vertex, verdict)


def _keeps_chi(
    g: Graph, v: int, chi: int, classes: list[int], clique: int, counter: chroma._Budget
) -> bool:
    """Whether chi(g - v) = chi rather than chi - 1, given chi = chi(g) > 0,
    the colour classes of a chi-colouring of g and a clique of g (masks).

    A chi-clique that misses v says chi with no search; so does, for chi - 1,
    moving every other vertex of v's class greedily into another class.
    Else a chi-clique in g - v says chi, a DSATUR colouring of g - v with
    fewer than chi colours says chi - 1, and one (chi - 1)-colourability
    search decides.
    """
    big_clique = clique.bit_count() == chi
    if big_clique and not clique >> v & 1:
        return True
    own = next(c for c in classes if c >> v & 1)
    others = [c for c in classes if c != own]
    for u in iter_bits(own & ~(1 << v)):
        slot = next((i for i, c in enumerate(others) if not g.rows[u] & c), None)
        if slot is None:
            break
        others[slot] |= 1 << u
    else:
        return False
    rest = delete_vertex(g, v)
    if big_clique and chroma.clique_number(rest, counter) == chi:
        return True
    if chroma.is_k_colorable(rest, rest.n).palette_size < chi:
        return False
    return chroma.is_k_colorable(rest, chi - 1, counter) is None


def _extract_with_kept(
    g: Graph, k: int, budget: Optional[chroma._Budget] = None
) -> tuple[Graph, tuple[int, ...]]:
    """Delete the least-indexed vertex whose deletion keeps chi >= k while
    there is one.  While chi > k every deletion qualifies; at chi = k,
    ``_keeps_chi`` decides, and the colouring and clique carry over."""
    if k < 1:
        raise ValueError("k must be at least 1")
    counter = chroma._Budget.shared(budget)
    chi, col, clique = chroma._chromatic(g, counter)
    if chi < k:
        raise ValueError(f"chromatic number {chi} is below {k}; nothing to extract")
    classes = [mask_of(c) for c in col.classes()]
    kept = list(range(g.n))
    current = g
    while True:
        for i in range(current.n):
            if chi > k or _keeps_chi(current, i, chi, classes, clique, counter):
                del kept[i]
                current = delete_vertex(current, i)
                if chi > k:
                    chi, col, clique = chroma._chromatic(current, counter)
                    classes = [mask_of(c) for c in col.classes()]
                else:
                    classes = [without_vertex(c, i) for c in classes]
                    clique = without_vertex(clique, i)
                break
        else:
            return current, tuple(kept)


def extract_critical_subgraph(g: Graph, k: int) -> Graph:
    """Greedily delete vertices while the chromatic number stays >= k.

    Always deletes the least-indexed deletable vertex, so the result is
    deterministic.  When no vertex can go, what remains is k-vertex-critical.
    """
    return _extract_with_kept(g, k)[0]


def find_comparable_nonadjacent(g: Graph) -> Optional[tuple[int, int]]:
    """Least ordered pair (u, v) of nonadjacent vertices with N(u) ⊆ N(v)."""
    for u in range(g.n):
        ru = g.rows[u]
        for v in range(g.n):
            if v == u or ru >> v & 1:
                continue
            if ru & ~g.rows[v] == 0:
                return (u, v)
    return None


def find_lemma_xy_violation(
    g: Graph, size_cap: int
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Search for anticomplete X, Y with chi(G[X]) <= chi(G[Y]) and Y
    complete to N(X).  Pairs are tried in lexicographic order of
    (|X|+|Y|, X, Y), so the first hit is deterministic.  Returns None when
    no such pair exists (as must happen on every vertex-critical graph)."""
    if size_cap < 1:
        raise ValueError("size_cap must be at least 1")
    xs_all = sorted(c for size in range(1, size_cap + 1) for c in combinations(range(g.n), size))
    for total in range(2, 2 * size_cap + 1):
        for xs in xs_all:
            sy = total - len(xs)
            if not 1 <= sy <= size_cap:
                continue
            xmask = mask_of(xs)
            nx_mask = 0
            for v in xs:
                nx_mask |= g.rows[v]
            nx_mask &= ~xmask
            chi_x: Optional[int] = None
            for ys in combinations((v for v in range(g.n) if not xmask >> v & 1), sy):
                # anticomplete, and Y complete to N(X)
                if any(g.rows[v] & xmask for v in ys):
                    continue
                if any(nx_mask & ~g.rows[v] for v in ys):
                    continue
                if chi_x is None:
                    chi_x = chroma.chromatic_number(induced_subgraph(g, xs))[0]
                chi_y = chroma.chromatic_number(induced_subgraph(g, ys))[0]
                if chi_x <= chi_y:
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
    classes = sorted(by_trace.values(), key=lambda c: c[0])
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
    canonical graph6 strings (string equality is isomorphism equality)."""

    k: int
    family: tuple[PatternSpec, ...]
    members: tuple[str, ...]


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
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("#critdb "):
        raise ValueError("missing #critdb header line")
    at, header = lines[0][0], lines[0][1][len("#critdb "):].strip()
    fields = dict(part.split("=", 1) for part in header.split(" ") if "=" in part)
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
        family = tuple(parse_pattern(t) for t in re.split(r",(?![^(]*\))", fields["family"]) if t)
    except ValueError as exc:
        raise ValueError(f"line {at}: {exc}") from exc
    members = []
    for i, line in lines[1:]:
        try:
            parse_graph6(line)
        except Graph6Error as exc:
            raise ValueError(f"line {i}: {exc}") from exc
        members.append(line)
    return CriticalDb(k, family, tuple(members))


def load_critdb(path: str) -> CriticalDb:
    # undecodable bytes reach the parser, which names their line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return parse_critdb(fh.read())


def save_critdb(db: CriticalDb, path: str) -> None:
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
    g: Graph, k: int, db: CriticalDb, budget: Optional[int] = None
) -> TUnion[Coloring, CriticalWitness]:
    """Decide k-colourability against a database of (k+1)-critical graphs.

    Either some database member embeds (that subgraph alone already needs
    k+1 colours) or, with a complete database for the
    family, none does and a k-colouring must exist.  Both certificates are
    re-verified before being returned: a member that embeds is used only if
    it really is not k-colourable.  If the database is incomplete and
    neither branch fires, a fresh (k+1)-critical subgraph is extracted and
    returned as the witness.  ``budget`` caps the pattern and colouring
    search nodes of the whole call.
    """
    if db.k != k + 1:
        raise ValueError(f"database holds {db.k}-critical graphs; need {k + 1}")
    counter = chroma._Budget(budget)
    ok, hit = is_free(g, db.family, counter)
    if not ok:
        raise PatternViolation(hit[0], hit[1])
    for i, text in enumerate(db.members):
        member = parse_graph6(text)
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
