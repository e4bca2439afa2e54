"""Named small graphs and induced-subgraph search.

Patterns are the forbidden shapes that carve out hereditary graph classes:
paths, cliques, cycles, brooms and a handful of five-vertex graphs with
common names.  ``realize`` turns a spec into a concrete labelled graph,
``find_induced`` looks for an induced copy inside a host, and ``is_free``
checks a host against a whole family at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, groupby
from typing import Iterable, Optional

from .chroma import _Budget, _clique, _counter
from .graphs import DEFAULT_VERTEX_CAP, Graph, _canonical_labeling, _orbit, disjoint_union, from_edges, iter_bits, mask_of

# The most parts parse_pattern and plus_isolated give a union, checked before
# a part is built: eight times the largest order a graph may have.
_PART_LIMIT = 8 * DEFAULT_VERTEX_CAP


def _broom(n: int, m: int) -> tuple[int, Iterable[tuple[int, int]]]:
    # handle 0..n-1 is a path; bristles n..n+m-1 hang off vertex n-1
    return n + m, chain(((i, i + 1) for i in range(n - 1)), ((n - 1, n + j) for j in range(m)))


def _broomplus(m: int, _: int) -> tuple[int, Iterable[tuple[int, int]]]:
    # a triangle 1,2,3 with a pendant at 1; bristles hang off vertex 2
    return 4 + m, chain([(0, 1), (1, 2), (1, 3), (2, 3)], ((2, 4 + j) for j in range(m)))


# The atom kinds.  Each has its text, with "{}" for each integer parameter
# (a, then b); the least value of each parameter, and the rule that states
# them in an error; and the builder of its labelled graph, (a, b) ->
# (order, edges), the edges made only as they are read, so that the order
# of a pattern too large to realize costs nothing.  Embeddings, forbidden
# traces and canonical forms all follow these labels, so they must never
# change.
_ATOMS = {
    "path": ("P{}", (1,), "needs at least one vertex, got {}",
             lambda n, _: (n, ((i, i + 1) for i in range(n - 1)))),
    "clique": ("K{}", (1,), "needs at least one vertex, got {}",
               lambda n, _: (n, ((u, v) for v in range(n) for u in range(v)))),
    "star": ("star({})", (0,), "needs >= 0 leaves, got {}",
             lambda m, _: (m + 1, ((0, i) for i in range(1, m + 1)))),
    "cycle": ("C{}", (3,), "needs length >= 3, got {}",
              lambda n, _: (n, ((i, (i + 1) % n) for i in range(n)))),
    "broom": ("broom({},{})", (2, 0), "needs handle >= 2 and >= 0 bristles, got ({},{})", _broom),
    "broomplus": ("broomplus({})", (0,), "needs >= 0 bristles, got {}", _broomplus),
    "chair": ("chair", (), "", lambda *_: _broom(3, 2)),
    "bull": ("bull", (), "", lambda *_: _broomplus(1, 0)),
    # triangle 0,1,2 with two pendants at vertex 1
    "cricket": ("cricket", (), "", lambda *_: (5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4)])),
    "gem": ("gem", (), "", lambda *_: (5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])),
}


@dataclass(frozen=True)
class PatternSpec:
    """One forbidden pattern.

    kind is ``union`` or an atom kind of ``_ATOMS``: ``path``, ``clique``,
    ``star``, ``cycle``, ``broom``, ``broomplus``, ``chair``, ``bull``,
    ``cricket``, ``gem``.  An atom takes the integer parameters its text
    has, in ``a`` then ``b``, each at least its least value; a parameter it
    does not take stays 0, and it has no ``parts``.  A ``union`` is the
    disjoint union of its ``parts``, none of which is a union itself, so
    every disjoint union ("2P2", "P4+P1", "3K2") has exactly one spec.  A
    spec keeps its hash; ``path``, ``clique`` and ``plus_isolated`` hand out
    one shared spec per argument.
    """

    kind: str
    a: int = 0
    b: int = 0
    parts: tuple["PatternSpec", ...] = field(default=())

    def __post_init__(self):
        if self.kind == "union":
            least, parts_ok = (), len(self.parts) >= 2 and all(p.kind != "union" for p in self.parts)
            parts_rule = "at least two parts, none of them a union"
        elif self.kind in _ATOMS:
            least, parts_ok, parts_rule = _ATOMS[self.kind][1], not self.parts, "no parts"
        else:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if not parts_ok or self.b and len(least) < 2 or self.a and not least:
            raise ValueError(f"{self.kind} takes {len(least)} integer parameter(s) and {parts_rule}, got {self!r}")
        if least and (self.a < least[0] or len(least) == 2 and self.b < least[1]):
            raise ValueError(f"{self.kind} {_ATOMS[self.kind][2].format(self.a, self.b)}")
        # realize and every spec-keyed cache hash the spec on each lookup
        object.__setattr__(self, "_hash", hash((self.kind, self.a, self.b, self.parts)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: a string hash is only good in its own process
        return PatternSpec, (self.kind, self.a, self.b, self.parts)


@lru_cache(maxsize=None)
def path(n: int) -> PatternSpec:
    return PatternSpec("path", n)


@lru_cache(maxsize=None)
def clique(n: int) -> PatternSpec:
    return PatternSpec("clique", n)


def star(m: int) -> PatternSpec:
    return PatternSpec("star", m)


def cycle(n: int) -> PatternSpec:
    return PatternSpec("cycle", n)


def broom(n: int, m: int) -> PatternSpec:
    return PatternSpec("broom", n, m)


def broomplus(m: int) -> PatternSpec:
    return PatternSpec("broomplus", m)


def union(*parts: PatternSpec) -> PatternSpec:
    """The disjoint union of the parts; a part that is a union contributes
    its own parts, so the result is flat."""
    flat = (q for p in parts for q in (p.parts if p.kind == "union" else (p,)))
    return PatternSpec("union", parts=tuple(flat))


@lru_cache(maxsize=None)
def plus_isolated(base: PatternSpec, count: int) -> PatternSpec:
    if count < 1:
        raise ValueError(f"plus_isolated needs >= 1 isolated vertices, got {count}")
    if (parts := len(base.parts or (base,)) + count) > _PART_LIMIT:
        raise ValueError(f"plus_isolated({format_pattern(base)}, {count}) has {parts} parts, "
                         f"above the limit {_PART_LIMIT}")
    return union(base, *[path(1)] * count)


CHAIR = PatternSpec("chair")
BULL = PatternSpec("bull")
CRICKET = PatternSpec("cricket")
GEM = PatternSpec("gem")
TWO_P2 = union(path(2), path(2))


@lru_cache(maxsize=None)
def _pattern_order(spec: PatternSpec) -> int:
    """The vertex count of a spec's graph, without building the graph, so
    it holds for a spec too large to realize."""
    if spec.kind == "union":
        return sum(map(_pattern_order, spec.parts))
    return _ATOMS[spec.kind][3](spec.a, spec.b)[0]


@lru_cache(maxsize=None)
def realize(spec: PatternSpec) -> Graph:
    """Build the labelled graph for a spec.  Same spec, same graph."""
    if spec.kind == "union":
        g = realize(spec.parts[0])
        for part in spec.parts[1:]:
            g = disjoint_union(g, realize(part))
        return g
    return from_edges(*_ATOMS[spec.kind][3](spec.a, spec.b))


@dataclass(frozen=True)
class Embedding:
    """An induced embedding: pattern vertex i sits at host vertex mapping[i]."""

    mapping: tuple[int, ...]


class PatternViolation(ValueError):
    """A graph required to avoid a pattern contains it; carries the witness."""

    def __init__(self, spec: PatternSpec, embedding: Embedding):
        super().__init__(f"graph contains an induced {format_pattern(spec)} at {embedding.mapping}")
        self.spec = spec
        self.embedding = embedding


def embedding_is_induced(host: Graph, pattern: Graph, emb: Embedding) -> bool:
    """Check an embedding: injective, in range, and each pattern vertex's
    image sees exactly the images of its neighbours among the images."""
    m = emb.mapping
    if len(m) != pattern.n or len(set(m)) != pattern.n:
        return False
    if any(not 0 <= h < host.n for h in m):
        return False
    image = mask_of(m)
    for v, row in enumerate(pattern.rows):
        mapped = 0  # the images of v's neighbours; the bit loop is inlined
        while row:
            low = row & -row
            row ^= low
            mapped |= 1 << m[low.bit_length() - 1]
        if host.rows[m[v]] & image != mapped:
            return False
    return True


# The image of a pattern vertex is a non-neighbour, a neighbour, or (in
# first-copy searches) a higher-indexed vertex than that of an earlier one.
_NONADJACENT, _ADJACENT, _ABOVE = 0, 1, 2


@lru_cache(maxsize=None)
def _compile_pattern(pattern: Graph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple, tuple]:
    """Fix the vertex-pairing order (highest degree first), each vertex's
    position in it and the degrees in it, and precompute for each position
    the constraints on its image as ``(earlier position, kind)`` pairs:
    adjacency to every earlier position, and for first-copy searches also
    one lex-leader constraint.  Each mode, every copy and first copy, comes
    as ``(steps, tails)``; see ``_tail_counts``.

    The lex-leader rule takes the automorphism generators of the pattern's
    canonical labelling (``graphs._canonical_labeling``).  Let H_i be the
    group generated by those that fix positions 0..i-1.  The image of
    position j lies ``_ABOVE`` that of every earlier position i whose orbit
    under H_i contains j.  Only the last such i is kept: a walk of the
    positions overwrites j's, narrowing the generators to H_(i+1) after i.
    For i < i' that both qualify, H_i' lies inside H_i, so j is in the orbit
    of i' under H_i as well; orbits do not overlap, so i' is in the orbit of
    i, lies above it, and the kept constraint implies the others (K_k and l
    isolated vertices get one ascending chain).  See ``_induced_copies`` for
    why the first copy meets every constraint.

    The generators that fix a prefix need not generate the whole stabiliser
    of it, so an orbit under H_i can be smaller than the orbit under the
    stabiliser and a constraint can go missing; none is ever wrong.  Among
    the generators are swaps of each vertex with its nearest twin below, so
    each twin class keeps its ascending chain.  A constraint goes missing
    on none of the 1,252 graphs with at most 7 vertices and on 2 of the
    12,346 with 8 (``GJemvK`` and ``GKNB[{``, at position 3), and then the
    search tries some placements that a symmetry makes redundant.
    """
    order = tuple(sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v)))
    rows = pattern.rows
    every = tuple(
        tuple((j, _ADJACENT if rows[p] >> order[j] & 1 else _NONADJACENT) for j in range(i))
        for i, p in enumerate(order)
    )
    gens = _canonical_labeling(pattern)[2]
    where = tuple(sorted(range(pattern.n), key=order.__getitem__))
    first = list(every)
    for i, v in enumerate(order):  # gens: the generators of H_i
        for u in iter_bits(_orbit(v, gens) & ~(1 << v)):
            first[where[u]] = every[where[u]] + ((i, _ABOVE),)
        gens = [p for p in gens if p[v] == v]
    degs = tuple(pattern.degree(v) for v in order)
    return order, where, degs, (every, _tail_counts(every)), (tuple(first), _tail_counts(first))


def _tail_counts(steps: tuple) -> tuple[int, ...]:
    """For each position i, the number of positions j >= i whose constraints
    imply each of i's: the same adjacency to every position below i, and a
    chain of ``_ABOVE``s that contains i's (chains are paths).  Their images
    are distinct vertices of i's candidate set (K4: 4, 3, 2, 1)."""
    below, seen = [], []  # the positions each image lies above, through chains, and sees
    for constraints in steps:
        below.append(sum(1 << p | below[p] for p, kind in constraints if kind == _ABOVE))
        seen.append(sum(1 << p for p, kind in constraints if kind == _ADJACENT))
    return tuple(sum(not (seen[i] ^ seen[j]) & ((1 << i) - 1) and not below[i] & ~below[j]
                     for j in range(i, len(steps))) for i in range(len(steps)))


@lru_cache(maxsize=8)
def _host_masks(rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """A host's candidate masks by constraint kind and image: outside its closed
    neighbourhood, its neighbourhood, above it.  None holds the image itself."""
    return tuple(~(r | 1 << h) for h, r in enumerate(rows)), rows, tuple(-(2 << h) for h in range(len(rows)))


def _induced_copies(
    host: Graph, pattern: Graph, budget: Optional[int | _Budget] = None, first: bool = False
) -> list[tuple[int, ...]]:
    """Every induced copy of a concrete pattern graph inside the host, as
    mappings (pattern vertex i sits at host vertex mapping[i]); with
    ``first``, only the first one.

    Pattern vertices are paired off highest degree first and host candidates
    tried in ascending index, so copies come in a fixed order: ascending
    lexicographically in the images taken in pairing order.  Forward checks
    drop only partial placements that hold no copy: a position with fewer
    candidates than its tail count (``_tail_counts``) fails at once, and a
    candidate is skipped when it has too few neighbours or leaves too few
    host vertices outside the closed neighbourhoods of the images for the
    pattern's isolated vertices.  Each placement that passes spends one node
    of the budget; a dropped candidate spends none.

    With ``first``, the lex-leader constraints of ``_compile_pattern`` skip
    copies that a pattern automorphism maps onto a smaller one.  Let an
    automorphism in H_i (see ``_compile_pattern``), which fixes positions
    0..i-1, map position i onto j.  Composing a copy with it gives another
    copy that agrees below position i and holds the image of j at position
    i; when that image is below the image of i, the new copy is smaller.  So in the least copy, which is the first one,
    the image of j lies above that of i for every such pair: it meets every
    constraint and is still found, while the symmetric placements (k!
    orderings of a clique K_k, both directions of a path) are not tried.
    Listing every copy needs them all and skips the constraints.
    """
    if pattern.n == 0:
        return [()]
    _, where, degs, every, first_mode = _compile_pattern(pattern)
    steps, tails = first_mode if first else every
    co_closed, rows, _ = masks = _host_masks(host.rows)
    isolated = degs.count(0)
    counter = _counter(budget)
    host_full = (1 << host.n) - 1
    last = pattern.n - 1
    images = [0] * pattern.n
    found: list[tuple[int, ...]] = []

    def place(i: int, free: int) -> bool:
        # free: where isolated vertices can go, outside each image's closed neighbourhood
        cand = host_full
        for j, kind in steps[i]:
            cand &= masks[kind][images[j]]
        if cand.bit_count() < tails[i]:
            return False
        need = degs[i]
        while cand:  # iter_bits inlined: every pattern search places its images here
            low = cand & -cand
            h = low.bit_length() - 1
            cand ^= low
            rest = free & co_closed[h]
            if rows[h].bit_count() < need or need and rest.bit_count() < isolated:
                continue
            if counter is not None:
                counter.spend()
            images[i] = h
            if i == last:
                found.append(tuple([images[k] for k in where]))
                if first:
                    return True
            elif place(i + 1, rest):
                return True
        return False

    place(0, host_full)
    return found


def find_induced_subgraph(
    host: Graph, pattern: Graph, budget: Optional[int | _Budget] = None
) -> Optional[Embedding]:
    """First induced copy of a concrete pattern graph inside the host.

    Pattern vertices are paired off highest degree first and host candidates
    tried in ascending index, so the embedding returned is the least one
    under that fixed order.  Lex-leader constraints from the automorphisms
    that the pattern's canonical labelling finds skip placements that such a
    symmetry maps onto a smaller one, and never the least embedding (see
    ``_compile_pattern`` and ``_induced_copies``).  The result is re-checked before it is returned.
    ``budget`` caps the placements tried (see ``chroma._Budget``); a
    candidate that a forward check of ``_induced_copies`` drops spends none.

    An uncapped miss keeps the pattern among the host's absences, and a
    later uncapped call for it answers None with no search; so does one
    whose pattern has a larger clique than the host's kept one (see
    ``chroma._clique``).  A capped call never reads or writes either.
    """
    kept = host.__dict__
    if budget is None and (pattern in kept.get("_absent", ()) or "_clique" in kept
                           and _clique(pattern, None).bit_count() > kept["_clique"].bit_count()):
        return None
    copies = _induced_copies(host, pattern, budget, first=True)
    if not copies:
        if budget is None:
            kept["_absent"] = kept.get("_absent", ()) + (pattern,)
        return None
    emb = Embedding(copies[0])
    if not embedding_is_induced(host, pattern, emb):
        raise AssertionError("search produced a bad embedding")  # pragma: no cover
    return emb


def find_induced(
    host: Graph, spec: PatternSpec, budget: Optional[int | _Budget] = None
) -> Optional[Embedding]:
    """First induced copy of the pattern named by a spec, or None; None at
    once, with no search, for a pattern with more vertices than the host."""
    if _pattern_order(spec) > host.n:
        return None
    return find_induced_subgraph(host, realize(spec), budget)


def is_free(
    host: Graph, family: Iterable[PatternSpec], budget: Optional[int | _Budget] = None
) -> tuple[bool, Optional[tuple[PatternSpec, Embedding]]]:
    """Check the host against every pattern; stop at the first hit.  The
    searches share one ``budget`` (see ``chroma._Budget``)."""
    counter = _counter(budget)
    for spec in family:
        emb = find_induced(host, spec, counter)
        if emb is not None:
            return False, (spec, emb)
    return True, None


# ---------------------------------------------------------------------------
# text grammar: the texts of _ATOMS (P5, K4, C5, broom(n,m), chair, ...);
# a count in front makes copies ("2P2"), and a +<count>P1 suffix adds
# isolated vertices.
# ---------------------------------------------------------------------------


def _parse_atom(text: str) -> PatternSpec:
    for kind, (template, *_) in _ATOMS.items():
        m = re.fullmatch(re.escape(template.lower()).replace(r"\{\}", r"(\d+)"), text)
        if m:
            return PatternSpec(kind, *map(int, m.groups()))
    raise ValueError(f"cannot parse pattern {text!r}")


def parse_pattern(text: str) -> PatternSpec:
    """Parse the textual pattern grammar (case-insensitive).

    A pattern is a base atom, written as in ``_ATOMS``, followed by optional
    "+<c>P1" terms that add isolated vertices: "P4+P1", "chair",
    "broom(3,2)", "C5+2P1".  A count in front of the base atom makes that
    many copies ("2P2", "3K2").  Any text naming a disjoint union parses to
    one flat ``union``.  This reads back every text ``format_pattern``
    gives for an atom, and for a union whose parts are one run of equal
    parts followed by P1s.  A union has at most ``_PART_LIMIT`` parts.
    """
    parts: list[PatternSpec] = []
    for i, term in enumerate(text.strip().lower().replace(" ", "").split("+")):
        m = re.match(r"^(\d*)(.*)$", term)
        count = int(m.group(1)) if m.group(1) else 1
        atom = m.group(2)
        if count < 1 or not atom:
            raise ValueError(f"cannot parse pattern {text!r}")
        if i and atom != "p1":
            raise ValueError(f"only P1 terms may follow the base pattern, got {atom!r} in {text!r}")
        if (total := len(parts) + count) > _PART_LIMIT:
            raise ValueError(f"pattern {text!r} has {total} parts, above the limit {_PART_LIMIT}")
        parts += [_parse_atom(atom)] * count
    return parts[0] if len(parts) == 1 else union(*parts)


def format_pattern(spec: PatternSpec) -> str:
    """Render a spec as text.  An atom prints its ``_ATOMS`` text; a union
    prints its runs of equal parts, "+"-joined, each with its length in
    front when above 1 ("2P2+P1", "P3+K3", "2P1+P4").  The text names one
    spec, and ``parse_pattern`` reads it back when the union is one run
    followed by P1s."""
    if spec.kind != "union":
        return _ATOMS[spec.kind][0].format(spec.a, spec.b)
    runs = [(part, sum(1 for _ in run)) for part, run in groupby(spec.parts)]
    return "+".join(f"{count if count > 1 else ''}{format_pattern(part)}" for part, count in runs)
