import tracemalloc
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critcolor.chroma import (
    BudgetExhausted,
    Coloring,
    _Budget,
    _counter,
    _max_clique_in,
    chromatic_number,
    clique_number,
    is_k_colorable,
    is_proper_coloring,
)
from critcolor.enumeration import enumerate_up_to
from critcolor.graphs import (
    Graph,
    complement,
    complete_graph,
    delete_vertex,
    disjoint_union,
    empty_graph,
    from_edges,
    iter_bits,
    parse_graph6,
    with_vertex,
)

from conftest import graphs, random_graph
from oracles import (
    naive_chromatic,
    naive_clique_number,
    naive_independence_number,
    naive_is_k_colorable,
    naive_is_proper_coloring,
)

C5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])

# Mycielski construction over C5: triangle-free but 4-chromatic
GROTZSCH = from_edges(11, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 1), (5, 4), (6, 2), (6, 0), (7, 3), (7, 1),
    (8, 4), (8, 2), (9, 0), (9, 3),
    (10, 5), (10, 6), (10, 7), (10, 8), (10, 9),
])

# the 18 graphs on 8 vertices whose DSATUR greedy colouring is not optimal
# (on at most 7 vertices it always is); G?K}fC is the first
GREEDY_OVERSHOOTS = (
    "G?K}fC", "G?LZfC", "G?L^Fc", "G?LufS", "G@L]FC", "G@NE^_", "G@Tc~G", "G@Td]g", "G@U^NO",
    "G@UnMo", "GBI]^O", "GBIm]o", "GBn^FC", "GGCyv?", "GHUK~g", "GJemvG", "GKEZ^O", "G_L|v_",
)


def test_known_values(petersen):
    assert clique_number(petersen) == 2
    assert clique_number(complement(petersen)) == 4  # independence number
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
    assert clique_number(complement(complete_graph(3))) == 1


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
    assert clique_number(complement(g)) == naive_independence_number(g)


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
    assert clique_number(g) == naive_independence_number(complement(g))


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
    counter = _counter(budget)
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
        if counter is not None:
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


def test_decision_search_matches_the_reference_search_on_every_small_graph():
    # every graph with at most 7 vertices and the greedy's overshoots, for
    # every k: the same colouring from the same number of nodes
    for g in [*enumerate_up_to(7), *map(parse_graph6, GREEDY_OVERSHOOTS)]:
        for k in range(g.n + 2):
            mine, reference = _Budget(10**9), _Budget(10**9)
            assert is_k_colorable(g, k, mine) == reference_is_k_colorable(g, k, reference)
            assert mine.left == reference.left


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


def test_is_proper_coloring_rejects():
    g = from_edges(2, [(0, 1)])
    assert not is_proper_coloring(g, Coloring(1, (1, 1)))
    assert not is_proper_coloring(g, Coloring(2, (1,)))
    assert not is_proper_coloring(g, Coloring(2, (1, 3)))
    assert not is_proper_coloring(g, Coloring(2, (0, 1)))
    assert is_proper_coloring(g, Coloring(2, (2, 1)))


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8), st.data())
def test_is_proper_coloring_matches_the_pairwise_check(g, data):
    # short, long and in-range assignments, colours from 0 to one past the palette
    palette = data.draw(st.integers(min_value=0, max_value=4))
    length = data.draw(st.sampled_from([g.n, g.n, g.n, max(g.n - 1, 0), g.n + 1]))
    assignment = tuple(data.draw(st.lists(
        st.integers(min_value=0, max_value=palette + 1), min_size=length, max_size=length)))
    col = Coloring(palette, assignment)
    assert is_proper_coloring(g, col) == naive_is_proper_coloring(g, palette, assignment)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=11))
def test_a_greedy_that_fits_is_what_the_decision_search_returns(g):
    # the search's first descent makes the greedy's choices and never needs
    # a colour above k, so it never backtracks
    greedy = is_k_colorable(g, g.n)
    for k in range(greedy.palette_size, g.n + 1):
        assert is_k_colorable(g, k) == greedy


def test_a_kept_clique_never_answers_a_capped_call():
    g = Graph(GROTZSCH.n, GROTZSCH.rows)
    assert clique_number(g) == 2 and "_clique" in g.__dict__
    with pytest.raises(BudgetExhausted):
        clique_number(g, 1)
    assert nodes_spent(lambda b: clique_number(g, b)) > 1


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10))
def test_a_mask_clique_search_is_the_search_of_the_deleted_graph(g):
    # on g's rows and the mask V - v, the clique search walks the tree it
    # walks on g - v: the same clique, lifted, for the same nodes
    full = (1 << g.n) - 1
    for v in range(g.n):
        rest = delete_vertex(g, v)
        in_mask = _max_clique_in(g.rows, full & ~(1 << v), None)
        rest_full = (1 << rest.n) - 1
        assert in_mask == with_vertex(_max_clique_in(rest.rows, rest_full, None), v)
        spent = nodes_spent(lambda b: _max_clique_in(g.rows, full & ~(1 << v), b))
        assert spent == nodes_spent(lambda b: _max_clique_in(rest.rows, rest_full, b))
    assert _max_clique_in(g.rows, 0, None) == 0


@pytest.mark.parametrize("g", [C5, GROTZSCH, random_graph(10, 0.5, seed=4)])
def test_kept_values_leave_every_capped_count_as_it_is(g):
    fresh = lambda: Graph(g.n, g.rows)  # noqa: E731
    before = nodes_spent(lambda b: chromatic_number(fresh(), b))
    kept = fresh()
    answer = chromatic_number(kept)
    assert {"_clique", "_greedy"} <= kept.__dict__.keys()
    assert nodes_spent(lambda b: chromatic_number(kept, b)) == before > 0
    assert chromatic_number(kept, before) == answer == chromatic_number(fresh())
    with pytest.raises(BudgetExhausted):
        chromatic_number(kept, before - 1)


@pytest.mark.parametrize("g", [C5, GROTZSCH, random_graph(10, 0.5, seed=4)])
def test_a_kept_floor_never_answers_a_capped_call(g):
    fresh = lambda: Graph(g.n, g.rows)  # noqa: E731
    k = naive_chromatic(g) - 1
    before = nodes_spent(lambda b: is_k_colorable(fresh(), k, b))
    capped = fresh()
    assert is_k_colorable(capped, k, 10**6) is None and "_floor" not in capped.__dict__
    kept = fresh()
    assert is_k_colorable(kept, k) is None and kept.__dict__["_floor"] == k
    assert nodes_spent(lambda b: is_k_colorable(kept, k, b)) == before > 1
    assert is_k_colorable(kept, k, before) is None
    with pytest.raises(BudgetExhausted):
        is_k_colorable(kept, k, before - 1)
    # the floor answers every k up to it, and no k above it
    assert all(is_k_colorable(kept, j) is None for j in range(k + 1))
    assert is_k_colorable(kept, k + 1) == is_k_colorable(fresh(), k + 1) is not None


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=9), st.data())
def test_a_kept_floor_answers_as_a_fresh_search(g, data):
    kept = Graph(g.n, g.rows)
    chromatic_number(kept)  # refutes each k from the clique number up to chi - 1
    is_k_colorable(kept, data.draw(st.integers(min_value=0, max_value=g.n)))
    for k in range(g.n + 1):
        answer = is_k_colorable(kept, k)
        assert answer == is_k_colorable(Graph(g.n, g.rows), k)
        assert (answer is not None) == naive_is_k_colorable(g, k)
    assert chromatic_number(kept) == chromatic_number(Graph(g.n, g.rows))
