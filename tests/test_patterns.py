from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critcolor.chroma import BudgetExhausted, _Budget
from critcolor.graphs import complete_graph, disjoint_union, empty_graph, from_edges
from critcolor.patterns import (
    BULL,
    CHAIR,
    CRICKET,
    GEM,
    TWO_P2,
    Embedding,
    PatternSpec,
    PatternViolation,
    _induced_copies,
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
from oracles import naive_contains_induced, naive_is_isomorphic

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
    ],
)
def test_invalid_specs_raise(make):
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,spec",
    [
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
    ],
)
def test_parse_pattern(text, spec):
    assert parse_pattern(text) == spec


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
    ],
)
def test_format_pattern(spec, text):
    assert format_pattern(spec) == text


@pytest.mark.parametrize(
    "text",
    ["P4", "P4+P1", "P4+2P1", "2P2", "chair", "bull", "cricket", "gem",
     "K4", "C5", "broom(4,2)", "broomplus(2)", "star(3)", "gem+3P1"],
)
def test_format_parse_round_trip(text):
    spec = parse_pattern(text)
    assert parse_pattern(format_pattern(spec)) == spec


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
@given(graphs(max_n=6), st.sampled_from(
    [path(1), path(3), path(4), clique(3), TWO_P2, plus_isolated(path(3), 1), CHAIR,
     # twin-rich: the first copy is searched with twins in ascending order
     clique(4), star(3), cycle(4), plus_isolated(path(4), 2), parse_pattern("3P1")]))
def test_induced_copies_are_every_induced_embedding(host, spec):
    pattern = realize(spec)
    copies = _induced_copies(host, pattern)
    want = {
        image for image in permutations(range(host.n), pattern.n)
        if embedding_is_induced(host, pattern, Embedding(image))
    }
    assert len(copies) == len(set(copies)) and set(copies) == want
    first = find_induced_subgraph(host, pattern)
    assert _induced_copies(host, pattern, first=True) == copies[:1]
    assert (first is None and not copies) or first.mapping == copies[0]


def test_empty_pattern_has_one_copy():
    assert _induced_copies(C5, empty_graph(0)) == [()]


def test_pattern_search_spends_its_budget():
    k444 = from_edges(12, [(u, v) for v in range(12) for u in range(v) if u // 4 != v // 4])
    k4 = realize(clique(4))
    assert find_induced_subgraph(k444, k4) is None
    with pytest.raises(BudgetExhausted):
        find_induced_subgraph(k444, k4, budget=1)
    # twins go in ascending order: 12 + 48 + 64 placements of K1, K2, K3;
    # trying every ordering of them would take 492
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
