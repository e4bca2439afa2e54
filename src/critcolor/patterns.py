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
from typing import Iterable, Optional

from .chroma import _Budget, _counter
from .graphs import Graph, _canonical_labeling, _orbit, disjoint_union, from_edges

_SIMPLE_KINDS = {"chair", "bull", "cricket", "gem"}


@dataclass(frozen=True)
class PatternSpec:
    """One forbidden pattern.

    kind is one of: ``path``, ``clique``, ``star``, ``cycle``, ``broom``,
    ``broomplus``, ``chair``, ``bull``, ``cricket``, ``gem``, ``union``.
    Integer parameters live in ``a``/``b``.  A ``union`` is the disjoint
    union of its ``parts``, none of which is a union itself, so every
    disjoint union ("2P2", "P4+P1", "3K2") has exactly one spec.
    """

    kind: str
    a: int = 0
    b: int = 0
    parts: tuple["PatternSpec", ...] = field(default=())

    def __post_init__(self):
        k = self.kind
        if k in ("path", "clique"):
            if self.a < 1:
                raise ValueError(f"{k} needs at least one vertex, got {self.a}")
        elif k == "star":
            if self.a < 0:
                raise ValueError(f"star needs >= 0 leaves, got {self.a}")
        elif k == "cycle":
            if self.a < 3:
                raise ValueError(f"cycle needs length >= 3, got {self.a}")
        elif k == "broom":
            if self.a < 2 or self.b < 0:
                raise ValueError(f"broom needs handle >= 2 and >= 0 bristles, got ({self.a},{self.b})")
        elif k == "broomplus":
            if self.a < 0:
                raise ValueError(f"broomplus needs >= 0 bristles, got {self.a}")
        elif k in _SIMPLE_KINDS:
            pass
        elif k == "union":
            if len(self.parts) < 2 or any(p.kind == "union" for p in self.parts):
                raise ValueError("union needs at least two parts, none of them a union")
        else:
            raise ValueError(f"unknown pattern kind {k!r}")


def path(n: int) -> PatternSpec:
    return PatternSpec("path", n)


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


def plus_isolated(base: PatternSpec, count: int) -> PatternSpec:
    if count < 1:
        raise ValueError(f"plus_isolated needs >= 1 isolated vertices, got {count}")
    return union(base, *[path(1)] * count)


CHAIR = PatternSpec("chair")
BULL = PatternSpec("bull")
CRICKET = PatternSpec("cricket")
GEM = PatternSpec("gem")
TWO_P2 = union(path(2), path(2))


@lru_cache(maxsize=None)
def realize(spec: PatternSpec) -> Graph:
    """Build the labelled graph for a spec.  Same spec, same graph."""
    k = spec.kind
    if k == "path":
        return from_edges(spec.a, [(i, i + 1) for i in range(spec.a - 1)])
    if k == "clique":
        n = spec.a
        return from_edges(n, [(u, v) for v in range(n) for u in range(v)])
    if k == "star":
        return from_edges(spec.a + 1, [(0, i) for i in range(1, spec.a + 1)])
    if k == "cycle":
        n = spec.a
        return from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if k == "broom":
        # handle 0..a-1 is a path; bristles a..a+b-1 hang off vertex a-1
        n, m = spec.a, spec.b
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(n - 1, n + j) for j in range(m)]
        return from_edges(n + m, edges)
    if k == "broomplus":
        # a triangle 1,2,3 with a pendant at 1; bristles hang off vertex 2
        m = spec.a
        edges = [(0, 1), (1, 2), (1, 3), (2, 3)]
        edges += [(2, 4 + j) for j in range(m)]
        return from_edges(4 + m, edges)
    if k == "chair":
        return realize(broom(3, 2))
    if k == "bull":
        return realize(broomplus(1))
    if k == "cricket":
        # triangle 0,1,2 with two pendants at vertex 1
        return from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4)])
    if k == "gem":
        return from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])
    if k == "union":
        g = realize(spec.parts[0])
        for part in spec.parts[1:]:
            g = disjoint_union(g, realize(part))
        return g
    raise ValueError(f"unknown pattern kind {k!r}")


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
    """Check an embedding pairwise: injective and adjacency-preserving both ways."""
    m = emb.mapping
    if len(m) != pattern.n or len(set(m)) != pattern.n:
        return False
    if any(not 0 <= h < host.n for h in m):
        return False
    for v in range(pattern.n):
        for u in range(v):
            if pattern.has_edge(u, v) != host.has_edge(m[u], m[v]):
                return False
    return True


# The image of a pattern vertex is a non-neighbour, a neighbour, or (in
# first-copy searches) a higher-indexed vertex than that of an earlier one.
_NONADJACENT, _ADJACENT, _ABOVE = 0, 1, 2


@lru_cache(maxsize=None)
def _compile_pattern(pattern: Graph) -> tuple[tuple[int, ...], tuple, tuple, tuple[int, ...]]:
    """Fix the vertex-pairing order (highest degree first) and precompute,
    for each position in it, the constraints on its image as ``(earlier
    position, kind)`` pairs: adjacency to every earlier position, and for
    first-copy searches also one lex-leader constraint.  Also the degrees.

    The lex-leader rule takes the automorphism generators of the pattern's
    canonical labelling (``graphs._canonical_labeling``).  Let H_i be the
    group generated by those that fix positions 0..i-1.  The image of
    position j lies ``_ABOVE`` that of every earlier position i whose orbit
    under H_i contains j.  Only the last such i is kept.  For i < i' that
    both qualify, H_i' lies inside H_i, so j is in the orbit of i' under H_i
    as well; orbits do not overlap, so i' is in the orbit of i, lies above
    it, and the kept constraint implies the others (K_k and l isolated
    vertices get one ascending chain).  See ``_induced_copies`` for why the
    first copy meets every constraint.

    The generators that fix a prefix need not generate the whole stabiliser
    of it, so an orbit under H_i can be smaller than the orbit under the
    stabiliser and a constraint can go missing; none is ever wrong.  That
    happens on 5 of the 1,252 graphs with at most 7 vertices and on 31 of
    the 12,346 with 8 (on ``EKYW`` only the last position loses its
    constraint), and then the search tries some placements that a symmetry
    makes redundant.
    """
    order = tuple(sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v)))
    rows = pattern.rows
    every = tuple(
        tuple((j, _ADJACENT if rows[p] >> order[j] & 1 else _NONADJACENT) for j in range(i))
        for i, p in enumerate(order)
    )
    gens = _canonical_labeling(pattern)[2]
    orbits = [_orbit(v, [p for p in gens if all(p[f] == f for f in order[:i])]) for i, v in enumerate(order)]
    first = tuple(
        steps + tuple((i, _ABOVE) for i in reversed(range(j)) if orbits[i] >> order[j] & 1)[:1]
        for j, steps in enumerate(every)
    )
    degs = tuple(pattern.degree(v) for v in order)
    return order, every, first, degs


def _induced_copies(
    host: Graph, pattern: Graph, budget: Optional[int | _Budget] = None, first: bool = False
) -> list[tuple[int, ...]]:
    """Every induced copy of a concrete pattern graph inside the host, as
    mappings (pattern vertex i sits at host vertex mapping[i]); with
    ``first``, only the first one.

    Pattern vertices are paired off highest degree first and host candidates
    tried in ascending index, so copies come in a fixed order: ascending
    lexicographically in the images taken in pairing order.  Each placement
    of a pattern vertex spends one node of the budget.

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
    if pattern.n > host.n:
        return []
    if pattern.n == 0:
        return [()]
    order, every, first_steps, pat_deg = _compile_pattern(pattern)
    rows = host.rows
    co_rows = [~r for r in rows]
    if first:
        steps, masks = first_steps, (co_rows, rows, [-(2 << h) for h in range(host.n)])
    else:
        steps, masks = every, (co_rows, rows)
    counter = _counter(budget)
    host_full = (1 << host.n) - 1
    last = pattern.n - 1
    images = [0] * pattern.n
    found: list[list[int]] = []
    used = 0

    def place(i: int) -> bool:
        nonlocal used
        cand = host_full & ~used
        for j, kind in steps[i]:
            cand &= masks[kind][images[j]]
        need = pat_deg[i]
        if not need and cand.bit_count() <= last - i:
            # degree 0 comes last in the pairing order: this image and every
            # later one are distinct vertices of cand
            return False
        while cand:
            low = cand & -cand
            h = low.bit_length() - 1
            cand ^= low
            if rows[h].bit_count() >= need:
                if counter is not None:
                    counter.spend()
                images[i] = h
                if i == last:
                    found.append(images[:])
                    if first:
                        return True
                    continue
                used |= low
                if place(i + 1):
                    return True
                used &= ~low
        return False

    place(0)
    copies = []
    for placed in found:
        mapping = [0] * pattern.n
        for i, p in enumerate(order):
            mapping[p] = placed[i]
        copies.append(tuple(mapping))
    return copies


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
    ``budget`` caps the placements tried (see ``chroma._Budget``).
    """
    copies = _induced_copies(host, pattern, budget, first=True)
    if not copies:
        return None
    emb = Embedding(copies[0])
    if not embedding_is_induced(host, pattern, emb):
        raise AssertionError("search produced a bad embedding")  # pragma: no cover
    return emb


def find_induced(
    host: Graph, spec: PatternSpec, budget: Optional[int | _Budget] = None
) -> Optional[Embedding]:
    """First induced copy of the pattern named by a spec, or None."""
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
# text grammar: P5, K4, C5, chair, bull, cricket, gem, broom(n,m),
# broomplus(m), star(m); a count in front makes copies ("2P2"), and a
# +<count>P1 suffix adds isolated vertices.
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(r"^(?:(p|k|c)(\d+)|(broom)\((\d+),(\d+)\)|(broomplus|star)\((\d+)\)|(chair|bull|cricket|gem))$")


def _parse_atom(text: str) -> PatternSpec:
    m = _ATOM_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse pattern {text!r}")
    if m.group(1):
        size = int(m.group(2))
        if m.group(1) == "p":
            return path(size)
        if m.group(1) == "k":
            return clique(size)
        return cycle(size)
    if m.group(3):
        return broom(int(m.group(4)), int(m.group(5)))
    if m.group(6) == "broomplus":
        return broomplus(int(m.group(7)))
    if m.group(6) == "star":
        return star(int(m.group(7)))
    return PatternSpec(m.group(8))


def parse_pattern(text: str) -> PatternSpec:
    """Parse the textual pattern grammar (case-insensitive).

    A pattern is a base atom followed by optional "+<c>P1" terms that add
    isolated vertices: "P4+P1", "chair", "broom(3,2)", "C5+2P1".  A count
    in front of the base atom makes that many copies ("2P2", "3K2").  Any
    text naming a disjoint union parses to one flat ``union``.
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
        parts += [_parse_atom(atom)] * count
    return parts[0] if len(parts) == 1 else union(*parts)


def format_pattern(spec: PatternSpec) -> str:
    """Render a spec back into the text grammar."""
    k = spec.kind
    if k == "path":
        return f"P{spec.a}"
    if k == "clique":
        return f"K{spec.a}"
    if k == "cycle":
        return f"C{spec.a}"
    if k == "star":
        return f"star({spec.a})"
    if k == "broom":
        return f"broom({spec.a},{spec.b})"
    if k == "broomplus":
        return f"broomplus({spec.a})"
    if k in _SIMPLE_KINDS:
        return k
    if k == "union":
        # equal parts print as a count and trailing P1s as a "+<c>P1" suffix;
        # any other union prints "+"-joined, which does not parse back
        parts, head = spec.parts, len(spec.parts)
        while len(set(parts[:head])) > 1 and parts[head - 1] == path(1):
            head -= 1
        if len(set(parts[:head])) > 1:
            return "+".join(format_pattern(p) for p in parts)
        text = f"{head if head > 1 else ''}{format_pattern(parts[0])}"
        isolated = len(parts) - head
        if isolated:
            text += f"+{isolated if isolated > 1 else ''}P1"
        return text
    raise ValueError(f"unknown pattern kind {k!r}")
