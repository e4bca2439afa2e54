import hashlib
import pickle
import random
import re
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critcolor.chroma import BudgetExhausted, _Budget, clique_number
from critcolor.critical import CriticalDb, write_critdb
from critcolor.graphs import Graph, complement, complete_graph, disjoint_union, empty_graph, from_edges, parse_graph6
from critcolor.patterns import (
    BULL,
    CHAIR,
    CRICKET,
    GEM,
    TWO_P2,
    Embedding,
    PatternSpec,
    PatternViolation,
    _ABOVE,
    _ATOMS,
    _compile_pattern,
    _induced_copies,
    _pattern_order,
    broom,
    broomplus,
    clique,
    cycle,
    embedding_is_induced,
    find_induced,
    find_induced_subgraph,
    format_pattern,
    is_free,
    parse_pattern,
    path,
    plus_isolated,
    realize,
    star,
    union,
)

from conftest import graphs
from oracles import naive_contains_induced, naive_embedding_is_induced, naive_is_isomorphic
from test_chroma import nodes_spent

C5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
C6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
C7 = from_edges(7, [(i, (i + 1) % 7) for i in range(7)])


# ---------------------------------------------------------------------------
# constructors and realizations
# ---------------------------------------------------------------------------


def test_realize_fixed_labelings():
    assert sorted(realize(path(4)).edges()) == [(0, 1), (1, 2), (2, 3)]
    assert sorted(realize(star(3)).edges()) == [(0, 1), (0, 2), (0, 3)]
    assert sorted(realize(TWO_P2).edges()) == [(0, 1), (2, 3)]
    assert sorted(realize(CHAIR).edges()) == [(0, 1), (1, 2), (2, 3), (2, 4)]
    assert sorted(realize(BULL).edges()) == [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4)]
    assert sorted(realize(CRICKET).edges()) == [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4)]
    assert sorted(realize(GEM).edges()) == [
        (0, 1), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert realize(clique(4)) == complete_graph(4)
    assert realize(cycle(5)) == C5


def test_named_patterns_match_their_constructions():
    assert naive_is_isomorphic(realize(broom(4, 1)), realize(path(5)))
    assert naive_is_isomorphic(realize(broomplus(1)), realize(BULL))
    assert naive_is_isomorphic(realize(CHAIR), realize(broom(3, 2)))
    # a broom with no bristles degenerates to its handle
    assert naive_is_isomorphic(realize(broom(5, 0)), realize(path(5)))


def test_plus_isolated_appends_isolated_vertices():
    g = realize(plus_isolated(path(4), 2))
    assert g.n == 6
    assert g.degree(4) == 0 and g.degree(5) == 0
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_union_lays_parts_side_by_side():
    g = realize(union(path(2), clique(3)))
    assert sorted(g.edges()) == [(0, 1), (2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize(
    "a, b",
    [(path(2), clique(3)), (cycle(5), path(1)), (star(3), broom(3, 2))],
)
def test_union_realizes_as_disjoint_union(a, b):
    assert realize(union(a, b)) == disjoint_union(realize(a), realize(b))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_chair_shape_sits_inside_longer_brooms(m):
    # growing the handle or adding the extra edge keeps the short broom induced
    small = realize(broom(3, m))
    for bigger in (broom(4, m), broomplus(m)):
        assert find_induced(realize(bigger), broom(3, m)) is not None
    assert naive_contains_induced(realize(broom(4, m)), small)


@pytest.mark.parametrize(
    "make",
    [
        lambda: path(0),
        lambda: clique(0),
        lambda: cycle(2),
        lambda: broom(1, 1),
        lambda: broomplus(-1),
        lambda: star(-1),
        lambda: plus_isolated(path(4), 0),
        lambda: PatternSpec("nonsense"),
        # a union part of a union: union() flattens it, a hand-built spec may not
        lambda: PatternSpec("union", parts=(path(1), union(path(2), path(2)))),
        lambda: union(path(3)),
        lambda: plus_isolated(TWO_P2, 0),
        lambda: PatternSpec("2p2"),
        lambda: PatternSpec("plus_isolated", 1, parts=(path(4),)),
        # an atom takes no parameter beyond its text's, and no parts
        lambda: PatternSpec("chair", 1),
        lambda: PatternSpec("path", 4, 7),
        lambda: PatternSpec("path", 4, parts=(path(1),)),
        # a union takes no integer parameter: this one would print as P4+P1
        lambda: PatternSpec("union", 5, parts=(path(4), path(1))),
        lambda: PatternSpec("union", 0, 2, parts=(path(4), path(1))),
    ],
)
def test_invalid_specs_raise(make):
    with pytest.raises(ValueError):
        make()


def test_a_union_with_a_parameter_names_the_rule():
    with pytest.raises(ValueError, match="union takes 0 integer parameter"):
        PatternSpec("union", 5, parts=(path(4), path(1)))


def test_specs_are_interned_and_hash_like_fresh_ones():
    assert path(4) is path(4) and clique(5) is clique(5)
    assert plus_isolated(path(4), 2) is plus_isolated(path(4), 2)
    for spec, fresh in [
        (path(4), PatternSpec("path", 4)),
        (plus_isolated(path(4), 2), PatternSpec("union", parts=(PatternSpec("path", 4),) + (PatternSpec("path", 1),) * 2)),
        (GEM, PatternSpec("gem")),
    ]:
        assert spec == fresh and hash(spec) == hash(fresh)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec)
        assert {back: 1}[spec] == 1 and realize(back) == realize(spec)
    # the pickle carries the fields, never a hash from its own process
    assert b"_hash" not in pickle.dumps(path(4))


def _atoms_at_and_above_their_floors():
    for kind, (_, least, _, build) in _ATOMS.items():
        for bump in [None, *range(len(least))]:
            params = [v + (i == bump) for i, v in enumerate(least)]
            yield pytest.param(kind, params, build, id=f"{kind}{params}")


@pytest.mark.parametrize("kind, params, build", _atoms_at_and_above_their_floors())
def test_every_atom_formats_parses_and_realizes(kind, params, build):
    spec = PatternSpec(kind, *params)
    text = format_pattern(spec)
    assert parse_pattern(text.upper()) == spec == parse_pattern(text.lower())
    order, edges = build(*params, *[0] * (2 - len(params)))
    g = realize(spec)
    assert (g.n, len(list(g.edges()))) == (order, len(list(edges)))


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


PARSE_TABLE = [
    ("P4", path(4)),
    ("p4 + p1", plus_isolated(path(4), 1)),
    ("P4+2P1", plus_isolated(path(4), 2)),
    ("P4+P1+P1", plus_isolated(path(4), 2)),
    ("2P2", TWO_P2),
    ("chair", CHAIR),
    ("BULL", BULL),
    ("cricket", CRICKET),
    ("gem", GEM),
    ("K4", clique(4)),
    ("C5", cycle(5)),
    ("broom(3,2)", broom(3, 2)),
    ("broomplus(2)", broomplus(2)),
    ("star(3)", star(3)),
    ("gem+3p1", plus_isolated(GEM, 3)),
    ("2K3", union(clique(3), clique(3))),
    ("3K2", union(clique(2), clique(2), clique(2))),
    ("2P2+P1", plus_isolated(TWO_P2, 1)),
]

# The labelled graph of every spec above.  Embeddings, forbidden traces and
# canonical forms all follow these labels, so they must never change.
GOLDEN_ROWS = {
    "P4": (2, 5, 10, 4),
    "p4 + p1": (2, 5, 10, 4, 0),
    "P4+2P1": (2, 5, 10, 4, 0, 0),
    "P4+P1+P1": (2, 5, 10, 4, 0, 0),
    "2P2": (2, 1, 8, 4),
    "chair": (2, 5, 26, 4, 4),
    "BULL": (2, 13, 26, 6, 4),
    "cricket": (6, 29, 3, 2, 2),
    "gem": (18, 21, 26, 20, 15),
    "K4": (14, 13, 11, 7),
    "C5": (18, 5, 10, 20, 9),
    "broom(3,2)": (2, 5, 26, 4, 4),
    "broomplus(2)": (2, 13, 58, 6, 4, 4),
    "star(3)": (14, 1, 1, 1),
    "gem+3p1": (18, 21, 26, 20, 15, 0, 0, 0),
    "2K3": (6, 5, 3, 48, 40, 24),
    "3K2": (2, 1, 8, 4, 32, 16),
    "2P2+P1": (2, 1, 8, 4, 0),
}


@pytest.mark.parametrize("text,spec", PARSE_TABLE)
def test_parse_pattern(text, spec):
    assert parse_pattern(text) == spec


@pytest.mark.parametrize("spec,rows", [(spec, GOLDEN_ROWS[text]) for text, spec in PARSE_TABLE] + [
    (plus_isolated(TWO_P2, 2), (2, 1, 8, 4, 0, 0)),
    (union(union(clique(2), clique(2)), clique(2)), (2, 1, 8, 4, 32, 16)),
])
def test_realize_keeps_the_golden_labelling(spec, rows):
    assert realize(spec).rows == rows


def test_every_disjoint_union_has_one_spec():
    assert union(path(2), path(2)) == TWO_P2 == parse_pattern("2P2")
    assert union(path(4), path(1)) == plus_isolated(path(4), 1) == parse_pattern("P4+P1")
    assert union(union(clique(2), clique(2)), clique(2)) == parse_pattern("3K2")
    assert plus_isolated(TWO_P2, 1) == union(path(2), path(2), path(1))
    assert format_pattern(parse_pattern("P1+P1")) == "2P1"


@pytest.mark.parametrize("text", ["", "P0", "K0", "xyz", "P4+", "P4+K3", "0P1", "broom(1,1)", "+P1"])
def test_parse_pattern_rejects(text):
    with pytest.raises(ValueError):
        parse_pattern(text)


@pytest.mark.parametrize(
    "spec,text",
    [
        (path(4), "P4"),
        (plus_isolated(path(4), 1), "P4+P1"),
        (plus_isolated(path(4), 2), "P4+2P1"),
        (TWO_P2, "2P2"),
        (CHAIR, "chair"),
        (broom(3, 2), "broom(3,2)"),
        (clique(4), "K4"),
        (plus_isolated(GEM, 3), "gem+3P1"),
        (union(clique(2), clique(2), clique(2)), "3K2"),
        (union(path(3), clique(3)), "P3+K3"),
    ],
)
def test_format_pattern(spec, text):
    assert format_pattern(spec) == text


@pytest.mark.parametrize(
    "text",
    ["P4", "P4+P1", "P4+2P1", "2P2", "chair", "bull", "cricket", "gem",
     "K4", "C5", "broom(4,2)", "broomplus(2)", "star(3)", "gem+3P1", "2K3", "3K2", "2P3+P1"],
)
def test_format_parse_round_trip(text):
    spec = parse_pattern(text)
    assert parse_pattern(format_pattern(spec)) == spec


_atoms = st.one_of(
    st.integers(1, 4).map(path),
    st.integers(1, 4).map(clique),
    st.integers(0, 3).map(star),
    st.integers(3, 5).map(cycle),
    st.tuples(st.integers(2, 4), st.integers(0, 2)).map(lambda t: broom(*t)),
    st.integers(0, 2).map(broomplus),
    st.sampled_from([CHAIR, BULL, CRICKET, GEM, TWO_P2]),
)
specs = st.recursive(_atoms, lambda inner: st.one_of(
    st.lists(inner, min_size=2, max_size=4).map(lambda parts: union(*parts)),
    st.tuples(inner, st.integers(1, 3)).map(lambda t: plus_isolated(*t)),
), max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(specs, min_size=2, max_size=8))
def test_pattern_text_names_one_spec(batch):
    by_text = {}
    for spec in batch:
        assert by_text.setdefault(format_pattern(spec), spec) == spec
        try:
            parsed = parse_pattern(format_pattern(spec))
        except ValueError:
            parsed = None
        assert parsed is None or parsed == spec
        try:
            write_critdb(CriticalDb(3, (spec,), ()))
            saved = True
        except ValueError:
            saved = False
        assert saved == (parsed is not None)


# ---------------------------------------------------------------------------
# induced-subgraph search
# ---------------------------------------------------------------------------


def test_find_induced_basics():
    emb = find_induced(C5, path(4))
    assert emb is not None
    assert embedding_is_induced(C5, realize(path(4)), emb)
    # C6 contains P4 but no vertex avoids the path's neighbourhood
    assert find_induced(C6, path(4)) is not None
    assert find_induced(C6, plus_isolated(path(4), 1)) is None
    assert find_induced(C7, plus_isolated(path(4), 1)) is not None
    assert find_induced(complete_graph(4), clique(4)).mapping == (0, 1, 2, 3)
    assert find_induced(complete_graph(4), path(3)) is None


def test_a_pattern_above_the_vertex_cap_is_absent_without_a_search():
    # P4+600P1 and K600 are too large to realize, and larger than any host
    counter = _Budget(5)
    assert find_induced(C5, plus_isolated(path(4), 600), counter) is None
    assert find_induced(C5, clique(600), counter) is None
    assert counter.left == 5
    assert is_free(C5, [plus_isolated(path(4), 600), clique(600)]) == (True, None)
    with pytest.raises(ValueError, match="exceeds cap 512"):
        realize(plus_isolated(path(4), 600))


def test_sizing_a_pattern_builds_none_of_it():
    huge = 10**9
    sizes = {clique(huge): huge, cycle(huge): huge, star(huge): huge + 1, broom(huge, huge): 2 * huge,
             broomplus(huge): huge + 4, plus_isolated(path(huge), 3): huge + 3}
    assert {spec: _pattern_order(spec) for spec in sizes} == sizes
    assert find_induced(C5, clique(huge)) is None


def test_pattern_counts_are_bounded_before_any_part_is_built():
    # 4,096 parts: eight times the largest graph, so every realizable
    # pattern parses and a larger one is absent rather than an error
    assert _pattern_order(parse_pattern("P4+4092P1")) == 4096
    assert _pattern_order(plus_isolated(path(4), 4095)) == 4099
    assert _pattern_order(plus_isolated(TWO_P2, 4094)) == 4098
    for text, parts in [("P4+4096P1", 4097), ("P4+1000000000P1", 1000000001),
                        ("5000P1", 5000), ("P4+3000P1+3000P1", 6001)]:
        with pytest.raises(ValueError, match=rf"^pattern '{re.escape(text)}' has {parts} parts, above the limit 4096$"):
            parse_pattern(text)
    for base, count, parts in [(path(4), 4096, 4097), (path(4), 10**9, 10**9 + 1), (TWO_P2, 4095, 4097)]:
        with pytest.raises(ValueError, match=rf"^plus_isolated\({format_pattern(base)}, {count}\) has {parts} parts"):
            plus_isolated(base, count)


def test_find_induced_is_deterministic():
    a = find_induced_subgraph(C7, realize(path(4)))
    b = find_induced_subgraph(C7, realize(path(4)))
    assert a == b
    # high-degree pattern vertices are placed first, so the path's middle
    # lands on hosts 0,1 and its ends fan out from there
    assert a.mapping == (6, 0, 1, 2)


def test_pattern_larger_than_host():
    assert find_induced(C5, cycle(6)) is None
    assert find_induced(empty_graph(0), path(1)) is None
    # certify's member scan and the forbidden traces call the search itself,
    # past find_induced's own order check; budget 0 raises at any node spent
    c6 = realize(cycle(6))
    assert find_induced_subgraph(C5, c6, 0) is None
    assert _induced_copies(C5, c6, 0) == []
    assert _induced_copies(C5, c6, 0, first=True) == []


def test_embedding_is_induced_rejects_wrong_maps():
    p4 = realize(path(4))
    assert not embedding_is_induced(C5, p4, Embedding((0, 1, 2, 4)))
    assert not embedding_is_induced(C5, p4, Embedding((0, 0, 1, 2)))
    assert not embedding_is_induced(C5, p4, Embedding((0, 1, 2)))
    assert not embedding_is_induced(C5, p4, Embedding((0, 1, 2, 5)))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=7), st.sampled_from(
    [path(3), path(4), clique(3), TWO_P2, cycle(4), star(3), CHAIR]))
def test_find_induced_agrees_with_brute_force(host, spec):
    pattern = realize(spec)
    emb = find_induced_subgraph(host, pattern)
    if emb is None:
        assert not naive_contains_induced(host, pattern)
    else:
        assert embedding_is_induced(host, pattern, emb)


def test_exhaustive_small_hosts_against_brute_force():
    from critcolor.enumeration import enumerate_graphs

    specs = [path(4), clique(3), TWO_P2, plus_isolated(path(3), 1)]
    patterns = [realize(s) for s in specs]
    for n in range(1, 6):
        for host in enumerate_graphs(n):
            for pat in patterns:
                got = find_induced_subgraph(host, pat)
                want = naive_contains_induced(host, pat)
                assert (got is not None) == want
                if got is not None:
                    assert embedding_is_induced(host, pat, got)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=6), st.one_of(st.sampled_from(
    [path(1), path(3), path(4), clique(3), TWO_P2, plus_isolated(path(3), 1), CHAIR,
     # symmetric: the first copy is searched under lex-leader constraints
     clique(4), star(3), cycle(4), plus_isolated(path(4), 2), parse_pattern("3P1"),
     path(5), cycle(5), BULL, GEM, plus_isolated(path(4), 1)]).map(realize),
    # EKYW: two pairs of twins; without the twin swaps the labelling's
    # generators miss part of a prefix's stabiliser
    graphs(max_n=6), st.just(parse_graph6("EKYW"))))
def test_induced_copies_are_every_induced_embedding(host, pattern):
    copies = _induced_copies(host, pattern)
    want = {
        image for image in permutations(range(host.n), pattern.n)
        if naive_embedding_is_induced(host, pattern, image)
    }
    assert len(copies) == len(set(copies)) and set(copies) == want
    first = find_induced_subgraph(host, pattern)
    assert _induced_copies(host, pattern, first=True) == copies[:1]
    assert (first is None and not copies) or first.mapping == copies[0]


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=7), graphs(max_n=5), st.data())
def test_embedding_is_induced_agrees_with_pairwise_check(host, pattern, data):
    # any tuple of the right length or one off, with repeats and vertices
    # outside the host allowed: non-injective, non-induced and out-of-range
    # mappings all come up, and the copies found test the induced ones
    size = data.draw(st.sampled_from([pattern.n, pattern.n, pattern.n + 1, max(pattern.n - 1, 0)]))
    mapping = tuple(data.draw(st.lists(st.integers(-1, host.n), min_size=size, max_size=size)))
    candidates = [mapping] + _induced_copies(host, pattern)[:3]
    for image in candidates:
        assert embedding_is_induced(host, pattern, Embedding(image)) == naive_embedding_is_induced(host, pattern, image)


def test_a_kept_absence_never_answers_a_capped_call():
    k444 = from_edges(12, [(u, v) for v in range(12) for u in range(v) if u // 4 != v // 4])
    k4 = realize(clique(4))
    fresh = lambda: Graph(k444.n, k444.rows)  # noqa: E731
    before = nodes_spent(lambda b: find_induced_subgraph(fresh(), k4, b))
    assert before == 124
    capped = fresh()
    assert find_induced_subgraph(capped, k4, 10**6) is None and "_absent" not in capped.__dict__
    kept = fresh()
    assert find_induced_subgraph(kept, k4) is None and kept.__dict__["_absent"] == (k4,)
    # a kept clique number below the pattern's answers too, and keeps nothing
    bounded = fresh()
    assert clique_number(bounded) == 3 and find_induced_subgraph(bounded, k4) is None
    assert "_absent" not in bounded.__dict__
    for h in (kept, bounded):
        assert nodes_spent(lambda b: find_induced_subgraph(h, k4, b)) == before
        with pytest.raises(BudgetExhausted):
            find_induced_subgraph(h, k4, before - 1)
    # a hit keeps nothing
    assert find_induced_subgraph(kept, realize(path(3))) is not None
    assert kept.__dict__["_absent"] == (k4,)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=9), graphs(max_n=5), st.booleans())
def test_kept_absences_answer_as_a_fresh_search(host, pattern, clique_first):
    kept = Graph(host.n, host.rows)
    if clique_first:
        clique_number(kept)
    for p in (pattern, realize(clique(3)), realize(path(4)), pattern):
        emb = find_induced_subgraph(kept, p)
        assert emb == find_induced_subgraph(Graph(host.n, host.rows), p)
        assert (emb is not None) == naive_contains_induced(host, p)
    assert all(not naive_contains_induced(host, p) for p in kept.__dict__.get("_absent", ()))


def test_empty_pattern_has_one_copy():
    assert _induced_copies(C5, empty_graph(0)) == [()]


def test_pattern_search_spends_its_budget():
    k444 = from_edges(12, [(u, v) for v in range(12) for u in range(v) if u // 4 != v // 4])
    k4 = realize(clique(4))
    assert find_induced_subgraph(k444, k4) is None
    with pytest.raises(BudgetExhausted):
        find_induced_subgraph(k444, k4, budget=1)
    # a clique goes in ascending order: 12 + 48 + 64 placements of K1, K2,
    # K3; trying every ordering of them would take 492
    assert find_induced_subgraph(k444, k4, budget=124) is None
    # one node per placement: the first copy of P3 in C5 takes three
    assert find_induced_subgraph(C5, realize(path(3)), budget=3) is not None
    with pytest.raises(BudgetExhausted):
        find_induced_subgraph(C5, realize(path(3)), budget=2)
    # is_free shares one counter among its searches: each fits the budget
    # alone, both together do not
    spent = []
    for spec in (clique(4), path(4)):
        counter = _Budget(10_000)
        assert is_free(k444, [spec], counter)[0]
        spent.append(10_000 - counter.left)
    assert is_free(k444, [clique(4), path(4)], sum(spent))[0]
    with pytest.raises(BudgetExhausted):
        is_free(k444, [clique(4), path(4)], max(spent))


def test_first_copy_search_breaks_the_end_swap_of_the_path(petersen):
    # the Petersen graph has no induced P4+2P1; the path's ends go in
    # ascending order and the forward checks drop partial paths that leave
    # no room for the isolated vertices, so the search takes 55 placements,
    # where the end swap alone took 115 and breaking only twin swaps (the
    # two isolated vertices) took 340
    p4_2p1 = realize(plus_isolated(path(4), 2))
    assert find_induced_subgraph(petersen, p4_2p1, budget=55) is None
    with pytest.raises(BudgetExhausted):
        find_induced_subgraph(petersen, p4_2p1, budget=54)


def test_forward_checks_drop_placements_without_spending(petersen):
    # L(K5), the complement of the Petersen graph: 6-regular on 10 vertices,
    # with independence number 2 and clique number 4
    lk5 = complement(petersen)
    # each first vertex of the path leaves 3 vertices outside its closed
    # neighbourhood and each second one fewer than 3, so only the 10 first
    # placements spend a node; before the forward checks it took 160
    p4_3p1 = realize(plus_isolated(path(4), 3))
    assert find_induced_subgraph(lk5, p4_3p1, budget=10) is None
    with pytest.raises(BudgetExhausted):
        find_induced_subgraph(lk5, p4_3p1, budget=9)
    # K5 has no isolated vertices: the tail counts (5, 4, 3, 2, 1) cut the
    # search from 75 placements to 50
    k5 = realize(clique(5))
    assert find_induced_subgraph(lk5, k5, budget=50) is None
    with pytest.raises(BudgetExhausted):
        find_induced_subgraph(lk5, k5, budget=49)


def _random_hosts(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        n, p = 7 + i % 5, 0.3 + 0.1 * (i // 5 % 5)
        yield from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


# sha256 of the copies of the patterns below in 500 seeded G(n, p) hosts, as
# the search found them before its forward checks: the checks only cut
# subtrees that hold no copy, so the copies and their order stay the same
FIRST_COPIES_SHA256 = "d4a6704cb00d7b9904dab11e105e0918a62455f349584955c701ed3674a6a8e0"
EVERY_COPY_SHA256 = "3b2d30c49492650c145927a8a7995e849a2497785a1a19de1ab73c966793f54a"


def test_copies_match_the_search_without_forward_checks():
    from critcolor.enumeration import enumerate_critical

    specs = [path(4)] + [plus_isolated(path(4), ell) for ell in (1, 2, 3)] + [clique(k) for k in range(3, 7)]
    members = [parse_graph6(text) for text in enumerate_critical(4, 7).members]
    assert len(members) == 9
    patterns = [realize(spec) for spec in specs] + members
    for first, want in [(True, FIRST_COPIES_SHA256), (False, EVERY_COPY_SHA256)]:
        digest = hashlib.sha256()
        for host in _random_hosts(500, 20260415):
            for pattern in patterns:
                digest.update(repr(_induced_copies(host, pattern, first=first)).encode())
        assert digest.hexdigest() == want


def _brute_force_orbits(pattern, order):
    """For each position i of the pairing order, the mask of the other
    positions that some automorphism fixing positions 0..i-1 maps position i
    onto, from every automorphism."""
    autos = [
        s for s in permutations(range(pattern.n))
        if all(pattern.has_edge(s[u], s[v]) for u, v in pattern.edges())
    ]
    position = {v: i for i, v in enumerate(order)}
    orbits = []
    for i, v in enumerate(order):
        images = {s[v] for s in autos if all(s[u] == u for u in order[:i])}
        orbits.append(sum(1 << position[u] for u in images if u != v))
    return orbits


def _symmetry_test_patterns():
    from critcolor.enumeration import enumerate_critical

    specs = [path(n) for n in range(1, 7)] + [clique(n) for n in range(1, 6)]
    specs += [cycle(n) for n in range(3, 8)] + [star(m) for m in range(7)]
    specs += [broom(n, m) for n in range(2, 8) for m in range(8 - n)]
    specs += [broomplus(m) for m in range(3)] + [CHAIR, BULL, CRICKET, GEM, TWO_P2]
    specs += [parse_pattern("3P1")] + [plus_isolated(path(4), ell) for ell in (1, 2, 3)]
    members = [parse_graph6(text) for text in enumerate_critical(4, 7).members]
    assert len(members) == 9
    return [realize(spec) for spec in specs] + members


# the graphs with at most 7 vertices whose prefix stabilisers the
# labelling's generators cover only thanks to the twin swaps among them
TWIN_SEEDED = ["EKYW", "F@OqW", "F@QuO", "F@QuW", "FKY^w"]


def test_stabiliser_orbits_match_brute_force():
    for pattern in _symmetry_test_patterns() + [parse_graph6(text) for text in TWIN_SEEDED]:
        order, *_, (first, _) = _compile_pattern(pattern)
        orbits = _brute_force_orbits(pattern, order)
        for j, steps in enumerate(first):
            sources = [i for i in range(j) if orbits[i] >> j & 1]
            assert [i for i, kind in steps if kind == _ABOVE] == sources[-1:]
            # the kept constraint implies the others: the sources form a chain
            assert all(orbits[a] >> b & 1 for a, b in zip(sources, sources[1:]))


def test_two_graphs_on_eight_vertices_miss_a_constraint():
    # neither has twins; the stabiliser of positions 0 and 1 maps position
    # 2 onto 3, but both generators the labelling finds swap 0 and 1
    for text in ("GJemvK", "GKNB[{"):
        pattern = parse_graph6(text)
        order, *_, (first, _) = _compile_pattern(pattern)
        orbits = _brute_force_orbits(pattern, order)
        missing = [j for j, steps in enumerate(first)
                   if [i for i, kind in steps if kind == _ABOVE] != [i for i in range(j) if orbits[i] >> j & 1][-1:]]
        assert missing == [3]


def _above(spec):
    """The positions each position's image must lie above, by position."""
    first = _compile_pattern(realize(spec))[-1][0]
    return [tuple(i for i, kind in steps if kind == _ABOVE) for steps in first]


def test_lex_leader_constraints_of_named_patterns():
    # pairing order (1, 2, 0, 3): the path's middle, then its ends
    assert _above(path(4)) == [(), (0,), (), ()]
    assert _above(plus_isolated(path(4), 3)) == [(), (0,), (), (), (), (4,), (5,)]
    assert _above(path(5)) == [(), (), (0,), (), ()]
    # C5: rotations put every position above the first, the reflection
    # fixing vertex 0 puts vertex 4 above vertex 1
    assert _above(cycle(5)) == [(), (0,), (0,), (0,), (1,)]
    assert _above(clique(4)) == [(), (0,), (1,), (2,)]


@pytest.mark.parametrize(
    "spec, every, first",
    [
        (clique(4), (4, 3, 2, 1), (4, 3, 2, 1)),
        # the path's ends: in the first-copy mode only the second end lies
        # above the first, so the first end does not count the second
        (path(4), (4, 2, 1, 1), (4, 1, 1, 1)),
        (plus_isolated(path(4), 2), (6, 2, 1, 1, 2, 1), (6, 1, 1, 1, 2, 1)),
        (cycle(5), (5, 2, 1, 1, 1), (5, 2, 1, 1, 1)),
    ],
)
def test_tail_counts_of_named_patterns(spec, every, first):
    *_, (_, every_tails), (_, first_tails) = _compile_pattern(realize(spec))
    assert (every_tails, first_tails) == (every, first)


def test_compiling_a_large_clique_is_cheap():
    # the orbits come from the generators the canonical labelling finds,
    # never from the 12! automorphisms of K12
    start = time.perf_counter()
    _compile_pattern.__wrapped__(realize(clique(12)))
    assert time.perf_counter() - start < 1.0
    assert _above(clique(12)) == [()] + [(i,) for i in range(11)]


def test_compiling_p4_plus_200_isolated_vertices_is_cheap():
    # each tail count compares two positions' masks, not their constraint lists
    pattern = realize(plus_isolated(path(4), 200))
    start = time.perf_counter()
    *_, (_, every_tails), (_, first_tails) = _compile_pattern.__wrapped__(pattern)
    assert time.perf_counter() - start < 1.0
    assert every_tails[4:] == first_tails[4:] == tuple(range(200, 0, -1))
    # the isolated vertices form one ascending chain
    assert _above(plus_isolated(path(4), 200)) == [(), (0,), (), (), ()] + [(i,) for i in range(4, 203)]


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_is_free_worked_examples():
    ok, hit = is_free(C5, [TWO_P2, plus_isolated(path(4), 1)])
    assert ok and hit is None
    ok, hit = is_free(C7, [TWO_P2])
    assert not ok
    spec, emb = hit
    assert spec == TWO_P2
    assert embedding_is_induced(C7, realize(TWO_P2), emb)


def test_is_free_reports_first_family_member_hit():
    ok, hit = is_free(C7, [plus_isolated(path(4), 1), TWO_P2])
    assert not ok
    assert hit[0] == plus_isolated(path(4), 1)


def test_is_free_empty_family():
    ok, hit = is_free(C5, [])
    assert ok and hit is None


def test_pattern_violation_carries_witness():
    err = PatternViolation(clique(3), Embedding((0, 1, 2)))
    assert err.spec == clique(3)
    assert err.embedding.mapping == (0, 1, 2)
    assert "K3" in str(err)
