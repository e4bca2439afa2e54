import tracemalloc
from typing import Optional

import pytest
from hypothesis import given, settings

from critcolor.chroma import (
    BudgetExhausted,
    Coloring,
    _Budget,
    chromatic_number,
    clique_number,
    independence_number,
    is_k_colorable,
    is_proper_coloring,
)
from critcolor.graphs import (
    Graph,
    complement,
    complete_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    iter_bits,
)

from conftest import graphs, random_graph
from oracles import (
    naive_chromatic,
    naive_clique_number,
    naive_independence_number,
    naive_is_k_colorable,
)

C5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])

# Mycielski construction over C5: triangle-free but 4-chromatic
GROTZSCH = from_edges(11, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 1), (5, 4), (6, 2), (6, 0), (7, 3), (7, 1),
    (8, 4), (8, 2), (9, 0), (9, 3),
    (10, 5), (10, 6), (10, 7), (10, 8), (10, 9),
])


def test_known_values(petersen):
    assert clique_number(petersen) == 2
    assert independence_number(petersen) == 4
    assert chromatic_number(petersen)[0] == 3
    assert chromatic_number(C5)[0] == 3
    assert clique_number(GROTZSCH) == 2
    assert chromatic_number(GROTZSCH)[0] == 4
    assert chromatic_number(complete_graph(6))[0] == 6


def test_degenerate_graphs():
    assert chromatic_number(empty_graph(0)) == (0, Coloring(0, ()))
    assert chromatic_number(empty_graph(4))[0] == 1
    assert clique_number(empty_graph(0)) == 0
    assert clique_number(empty_graph(3)) == 1
    assert independence_number(complete_graph(3)) == 1


def test_colorings_returned_are_proper_and_tight():
    for g in (C5, GROTZSCH, complete_graph(5), random_graph(9, 0.5, seed=3)):
        chi, col = chromatic_number(g)
        assert is_proper_coloring(g, col)
        assert col.palette_size == chi
        assert set(col.assignment) == set(range(1, chi + 1))


def test_is_k_colorable_boundaries():
    assert is_k_colorable(C5, 2) is None
    col = is_k_colorable(C5, 3)
    assert col is not None and is_proper_coloring(C5, col)
    assert is_k_colorable(C5, 0) is None
    assert is_k_colorable(empty_graph(0), 0) == Coloring(0, ())
    assert is_k_colorable(empty_graph(2), 0) is None


def test_is_k_colorable_is_deterministic_and_contiguous():
    g = random_graph(10, 0.45, seed=11)
    a = is_k_colorable(g, 4)
    b = is_k_colorable(g, 4)
    assert a == b
    if a is not None:
        used = set(a.assignment)
        assert used == set(range(1, max(used) + 1))


def test_excess_palette_is_not_padded():
    col = is_k_colorable(C5, 5)
    assert col is not None
    assert col.palette_size <= 5
    assert is_proper_coloring(C5, col)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_clique_and_independence_match_brute_force(g):
    assert clique_number(g) == naive_clique_number(g)
    assert independence_number(g) == naive_independence_number(g)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=7))
def test_chromatic_number_matches_brute_force(g):
    chi, col = chromatic_number(g)
    assert chi == naive_chromatic(g)
    assert is_proper_coloring(g, col) or g.n == 0


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_decision_agrees_with_oracle_at_the_threshold(g):
    chi = naive_chromatic(g)
    if chi:
        assert is_k_colorable(g, chi - 1) is None
        assert naive_is_k_colorable(g, chi) and is_k_colorable(g, chi) is not None


@given(graphs(max_n=7))
def test_clique_is_complement_independence(g):
    assert clique_number(g) == independence_number(complement(g))


@given(graphs(max_n=8, min_n=1))
def test_chi_sits_between_clique_number_and_order(g):
    chi, _ = chromatic_number(g)
    assert clique_number(g) <= chi <= g.n


def test_chi_of_disjoint_union_is_max():
    g = disjoint_union(complete_graph(4), C5)
    assert chromatic_number(g)[0] == 4


def test_budget_exhaustion():
    g = random_graph(16, 0.5, seed=5)
    with pytest.raises(BudgetExhausted, match="budget exhausted"):
        chromatic_number(g, budget=5)
    with pytest.raises(BudgetExhausted):
        is_k_colorable(g, 3, budget=2)
    # a generous budget changes nothing
    assert chromatic_number(C5, budget=10**6)[0] == 3


def least_budget(search) -> int:
    """The fewest search nodes with which ``search(budget)`` completes."""
    budget = 0
    while True:
        try:
            search(budget)
            return budget
        except BudgetExhausted:
            budget += 1


GROTZSCH = from_edges(11, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
                     + [(5 + i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, (i - 1) % 5) for i in range(5)]
                     + [(5 + i, 10) for i in range(5)])


@pytest.mark.parametrize("g", [C5, GROTZSCH])
def test_chromatic_number_sub_searches_share_one_budget(g):
    chi = chromatic_number(g)[0]
    lower, greedy = clique_number(g), is_k_colorable(g, g.n).palette_size
    assert lower < greedy  # so at least one decision search runs
    each = [least_budget(lambda b: clique_number(g, b))]
    each += [least_budget(lambda b, k=k: is_k_colorable(g, k, b))
             for k in range(lower, min(chi + 1, greedy))]
    # every sub-search fits the largest single need, but not all of them together
    with pytest.raises(BudgetExhausted):
        chromatic_number(g, budget=max(each))
    assert chromatic_number(g, budget=sum(each))[0] == chi


def reference_dsatur(g: Graph) -> Coloring:
    """The saturation greedy as first written: min() over a key lambda."""
    n = g.n
    colour_of = [0] * n
    neighbour_colours: list[set[int]] = [set() for _ in range(n)]
    degs = [g.degree(v) for v in range(n)]
    used = 0
    for _ in range(n):
        v = min(
            (v for v in range(n) if not colour_of[v]),
            key=lambda v: (-len(neighbour_colours[v]), -degs[v], v),
        )
        c = 1
        while c in neighbour_colours[v]:
            c += 1
        colour_of[v] = c
        used = max(used, c)
        for u in iter_bits(g.rows[v]):
            neighbour_colours[u].add(c)
    return Coloring(used, tuple(colour_of))


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=11))
def test_dsatur_picks_like_the_reference_rule(g):
    assert is_k_colorable(g, g.n) == reference_dsatur(g)


def reference_is_k_colorable(g: Graph, k: int, budget=None) -> Optional[Coloring]:
    """The decision search as first written: every node rebuilds each
    uncoloured vertex's feasible colours to pick where to branch."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if g.n == 0:
        return Coloring(0, ())
    if k == 0:
        return None
    counter = _Budget.shared(budget)
    rows = g.rows
    n = g.n
    degs = [g.degree(v) for v in range(n)]
    colour_of = [0] * n
    class_masks = [0] * (k + 1)  # 1-based
    used = 0

    def pick() -> Optional[tuple[int, list[int]]]:
        best_v = -1
        best_feas: list[int] = []
        best_key = None
        for v in range(n):
            if colour_of[v]:
                continue
            feas = [c for c in range(1, used + 1) if not class_masks[c] & rows[v]]
            room = len(feas) + (1 if used < k else 0)
            key = (room, -degs[v], v)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
                best_feas = feas
                if room == 0:
                    break
        if best_v < 0:
            return None
        return best_v, best_feas

    def solve() -> bool:
        nonlocal used
        counter.spend()
        picked = pick()
        if picked is None:
            return True
        v, feas = picked
        if used < k:
            feas = feas + [used + 1]
        for c in feas:
            fresh = c == used + 1
            colour_of[v] = c
            class_masks[c] |= 1 << v
            if fresh:
                used += 1
            if solve():
                return True
            if fresh:
                used -= 1
            class_masks[c] &= ~(1 << v)
            colour_of[v] = 0
        return False

    if not solve():
        return None
    return Coloring(used, tuple(colour_of))


def nodes_spent(search) -> int:
    """The nodes ``search(budget)`` spends when nothing caps it; that is
    also the least budget with which it completes."""
    counter = _Budget(10**9)
    search(counter)
    return 10**9 - counter.left


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=11))
def test_decision_search_matches_the_reference_search(g):
    for k in range(g.n + 2):
        spent = nodes_spent(lambda b: reference_is_k_colorable(g, k, b))
        assert is_k_colorable(g, k) == reference_is_k_colorable(g, k)
        assert nodes_spent(lambda b: is_k_colorable(g, k, b)) == spent
        if spent:
            with pytest.raises(BudgetExhausted):
                is_k_colorable(g, k, spent - 1)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=11, min_n=1))
def test_enough_colours_colour_without_backtracking(g):
    assert least_budget(lambda b: is_k_colorable(g, g.n, b)) == g.n + 1


def test_a_huge_k_allocates_by_the_order_of_the_graph():
    tracemalloc.start()
    try:
        col = is_k_colorable(C5, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert col is not None and col.palette_size == 3 and is_proper_coloring(C5, col)


def test_coloring_classes():
    col = Coloring(3, (1, 2, 1, 3))
    assert col.classes() == [frozenset({0, 2}), frozenset({1}), frozenset({3})]


def test_is_proper_coloring_rejects():
    g = from_edges(2, [(0, 1)])
    assert not is_proper_coloring(g, Coloring(1, (1, 1)))
    assert not is_proper_coloring(g, Coloring(2, (1,)))
    assert not is_proper_coloring(g, Coloring(2, (1, 3)))
    assert not is_proper_coloring(g, Coloring(2, (0, 1)))
    assert is_proper_coloring(g, Coloring(2, (2, 1)))
