import pytest
from hypothesis import given, settings

from critcolor.chroma import clique_number, is_proper_coloring
from critcolor.cograph import (
    AnticompletePair,
    CompleteGraphError,
    JoinNode,
    Leaf,
    NotCographError,
    NotConnectedError,
    UnionNode,
    _find_twins,
    cograph_color,
    cotree_leaves,
    find_anticomplete_pair,
    realize_cotree,
    recognize,
    render_cotree,
    validate_cotree,
)
from critcolor.enumeration import enumerate_graphs
from critcolor.graphs import (
    bits_of,
    complete_graph,
    empty_graph,
    from_edges,
    is_anticomplete_between,
    is_complete_between,
    is_connected,
    set_neighborhood,
    set_neighborhood_mask,
)
from critcolor.patterns import find_induced, path

from conftest import graphs

P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
PAW = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


# ---------------------------------------------------------------------------
# cotree terms
# ---------------------------------------------------------------------------


def test_render_and_leaves():
    t = JoinNode((Leaf(0), UnionNode((Leaf(1), Leaf(2)))))
    assert render_cotree(t) == "J(0,U(1,2))"
    assert cotree_leaves(t) == [0, 1, 2]
    assert render_cotree(Leaf(7)) == "7"


def test_validate_cotree_rejects_malformed_terms():
    with pytest.raises(ValueError):
        validate_cotree(JoinNode((Leaf(0),)))
    with pytest.raises(ValueError):
        validate_cotree(JoinNode((Leaf(0), JoinNode((Leaf(1), Leaf(2))))))
    with pytest.raises(ValueError):
        validate_cotree(UnionNode((Leaf(0), UnionNode((Leaf(1), Leaf(2))))))
    validate_cotree(JoinNode((Leaf(0), UnionNode((Leaf(1), Leaf(2))))))


def test_realize_cotree():
    t = JoinNode((Leaf(0), UnionNode((Leaf(1), Leaf(2)))))
    g = realize_cotree(t)
    assert sorted(g.edges()) == [(0, 1), (0, 2)]
    with pytest.raises(ValueError):
        realize_cotree(JoinNode((Leaf(0), Leaf(2))))  # leaf ids must be 0..n-1


def test_recognize_k3():
    t = recognize(complete_graph(3))
    assert render_cotree(t) == "J(0,1,2)"


def test_recognize_rejects_p4():
    assert recognize(P4) is None
    with pytest.raises(ValueError):
        recognize(empty_graph(0))


def test_recognize_single_vertex_and_edgeless():
    assert render_cotree(recognize(empty_graph(1))) == "0"
    assert render_cotree(recognize(empty_graph(3))) == "U(0,1,2)"


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=8, min_n=1))
def test_recognition_is_dual_to_p4_search(g):
    tree = recognize(g)
    if tree is None:
        assert find_induced(g, path(4)) is not None
    else:
        assert find_induced(g, path(4)) is None
        assert realize_cotree(tree) == g
        validate_cotree(tree)


def test_every_small_cograph_round_trips():
    count = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n, filters=[path(4)]):
            tree = recognize(g)
            assert tree is not None
            assert realize_cotree(tree) == g
            count += 1
    assert count == 1 + 2 + 4 + 10 + 24 + 66  # unlabeled cographs by order


# ---------------------------------------------------------------------------
# colouring
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8, min_n=1))
def test_cograph_coloring_is_optimal(g):
    tree = recognize(g)
    if tree is None:
        return
    col = cograph_color(tree)
    assert is_proper_coloring(g, col)
    assert col.palette_size == clique_number(g)


# ---------------------------------------------------------------------------
# anticomplete pairs
# ---------------------------------------------------------------------------


def test_pair_on_paw():
    pair = find_anticomplete_pair(PAW)
    assert (pair.x, pair.y, pair.w) == ({1, 2}, {3}, {0})


def test_pair_on_p3():
    pair = find_anticomplete_pair(from_edges(3, [(0, 1), (1, 2)]))
    assert (pair.x, pair.y, pair.w) == ({0}, {2}, {1})


def test_pair_preconditions_raise_distinct_errors():
    with pytest.raises(NotConnectedError):
        find_anticomplete_pair(empty_graph(3))
    with pytest.raises(NotCographError):
        find_anticomplete_pair(from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
    with pytest.raises(CompleteGraphError):
        find_anticomplete_pair(complete_graph(4))
    with pytest.raises(CompleteGraphError):
        find_anticomplete_pair(complete_graph(1))
    with pytest.raises(ValueError, match="empty graph"):
        find_anticomplete_pair(empty_graph(0))


def test_pair_invariants_on_all_small_cographs():
    checked = 0
    for n in range(2, 8):
        for g in enumerate_graphs(n, filters=[path(4)], connected_only=True):
            if g == complete_graph(n):
                continue
            pair = find_anticomplete_pair(g)
            x, y, w = sorted(pair.x), sorted(pair.y), sorted(pair.w)
            assert x and y and not set(x) & set(y)
            assert is_anticomplete_between(g, x, y)
            assert set_neighborhood(g, x) == pair.w == set_neighborhood(g, y)
            assert is_complete_between(g, x, w)
            assert is_complete_between(g, y, w)
            checked += 1
    assert checked > 100


def test_pair_is_deterministic():
    g = from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (4, 5), (0, 5)])
    if is_connected(g) and recognize(g) is not None:
        assert find_anticomplete_pair(g) == find_anticomplete_pair(g)


# ---------------------------------------------------------------------------
# the twin elimination against the code it replaced, which ran it once in
# recognize and again in find_anticomplete_pair
# ---------------------------------------------------------------------------


def reference_recognize(g):
    if g.n == 0:
        raise ValueError("the empty graph has no cotree")

    def merge(node_type, a, b):
        left = a.children if isinstance(a, node_type) else (a,)
        right = b.children if isinstance(b, node_type) else (b,)
        return node_type(left + right)

    trees = {v: Leaf(v) for v in range(g.n)}
    active = list(range(g.n))
    amask = (1 << g.n) - 1
    while len(active) > 1:
        hit = _find_twins(g, active, amask)
        if hit is None:
            return None
        false_twin, u, v = hit
        trees[u] = merge(UnionNode if false_twin else JoinNode, trees[u], trees[v])
        del trees[v]
        active.remove(v)
        amask &= ~(1 << v)
    return trees[active[0]]


def reference_find_anticomplete_pair(g):
    if not is_connected(g):
        raise NotConnectedError("graph is not connected")
    if reference_recognize(g) is None:
        raise NotCographError("graph has an induced four-vertex path")
    if g.edge_count() == g.n * (g.n - 1) // 2:
        raise CompleteGraphError("complete graphs admit no anticomplete pair")
    active = list(range(g.n))
    amask = (1 << g.n) - 1
    eliminated = []
    while True:
        false_twin, u, v = _find_twins(g, active, amask)
        if false_twin:
            x, y = {u}, {v}
            break
        eliminated.append((v, u))
        active.remove(v)
        amask &= ~(1 << v)
    while eliminated:
        v, u = eliminated.pop()
        if u in x:
            x.add(v)
        elif u in y:
            y.add(v)
    w = bits_of(set_neighborhood_mask(g, sum(1 << v for v in x)))
    return AnticompletePair(frozenset(x), frozenset(y), w)


def test_cotrees_and_pairs_equal_the_reference_on_every_cograph_up_to_8():
    checked = 0
    for n in range(1, 9):
        for g in enumerate_graphs(n, filters=[path(4)]):
            assert render_cotree(recognize(g)) == render_cotree(reference_recognize(g))
            try:
                expected = reference_find_anticomplete_pair(g)
            except ValueError as exc:
                with pytest.raises(type(exc)):
                    find_anticomplete_pair(g)
            else:
                assert find_anticomplete_pair(g) == expected
            checked += 1
    assert checked == 809

