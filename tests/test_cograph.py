import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critcolor.chroma import clique_number, is_proper_coloring
from critcolor.cograph import (
    AnticompletePair,
    CompleteGraphError,
    JoinNode,
    Leaf,
    NotCographError,
    NotConnectedError,
    PairPreconditionError,
    UnionNode,
    cograph_color,
    cotree_leaves,
    find_anticomplete_pair,
    realize_cotree,
    recognize,
    render_cotree,
)
from critcolor.enumeration import enumerate_graphs, enumerate_up_to
from critcolor.graphs import (
    bits_of,
    induced_subgraph,
    complete_graph,
    empty_graph,
    from_edges,
    is_anticomplete_between,
    is_complete_between,
    is_connected,
    mask_of,
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
    # realize_cotree validates arity and alternation as it builds the graph
    with pytest.raises(ValueError, match="at least two children"):
        realize_cotree(JoinNode((Leaf(0),)))
    with pytest.raises(ValueError, match="at least two children"):
        realize_cotree(JoinNode((Leaf(0), UnionNode((Leaf(1),)))))
    with pytest.raises(ValueError, match="alternate"):
        realize_cotree(JoinNode((Leaf(0), JoinNode((Leaf(1), Leaf(2))))))
    with pytest.raises(ValueError, match="alternate"):
        realize_cotree(UnionNode((Leaf(0), UnionNode((Leaf(1), Leaf(2))))))
    realize_cotree(JoinNode((Leaf(0), UnionNode((Leaf(1), Leaf(2))))))


def test_realize_cotree():
    t = JoinNode((Leaf(0), UnionNode((Leaf(1), Leaf(2)))))
    g = realize_cotree(t)
    assert sorted(g.edges()) == [(0, 1), (0, 2)]
    with pytest.raises(ValueError, match="0..n-1"):
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
        assert realize_cotree(tree) == g  # which also checks arity and alternation


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


def test_cograph_color_rejects_leaf_ids_outside_0_to_n_minus_1():
    for t in (UnionNode((Leaf(0), Leaf(5))), JoinNode((Leaf(1), Leaf(1))), Leaf(-1)):
        with pytest.raises(ValueError, match=r"cotree leaves must be 0\.\.n-1"):
            cograph_color(t)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=10, min_n=1), st.integers(1, (1 << 10) - 1))
def test_recognition_on_a_mask_is_recognition_of_the_subgraph(g, mask):
    # the subgraph relabels its vertices in ascending order, which the twin scan keeps
    mask &= (1 << g.n) - 1
    if not mask:
        return
    verts = sorted(bits_of(mask))
    tree = recognize(induced_subgraph(g, verts))
    on_mask = recognize(g, mask)
    assert (on_mask is None) == (tree is None)
    if tree is not None:
        relabel = {str(v): str(i) for i, v in enumerate(verts)}
        assert re.sub(r"\d+", lambda m: relabel[m.group()], render_cotree(on_mask)) == render_cotree(tree)


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
    with pytest.raises(CompleteGraphError):
        find_anticomplete_pair(empty_graph(0))


def test_pair_answers_or_fails_a_precondition_on_every_graph_up_to_5():
    # the CLI exits 1 on a PairPreconditionError and 2 on any other error;
    # K0 is complete, so it fails a precondition like any complete graph
    for g in [empty_graph(0), *enumerate_up_to(5)]:
        try:
            find_anticomplete_pair(g)
        except PairPreconditionError:
            pass


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
            w_mask = mask_of(pair.w)
            assert set_neighborhood_mask(g, mask_of(x)) == w_mask == set_neighborhood_mask(g, mask_of(y))
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
# recognize and again in find_anticomplete_pair, with a twin scan over a
# list of the active vertices
# ---------------------------------------------------------------------------


def _find_twins(g, active, amask):
    first_true = None
    rows = g.rows
    for i, u in enumerate(active):
        nu = rows[u] & amask
        for v in active[i + 1:]:
            nv = rows[v] & amask
            if nu == nv:
                return True, u, v
            if first_true is None and nu | 1 << u == nv | 1 << v:
                first_true = (u, v)
    if first_true is not None:
        return False, first_true[0], first_true[1]
    return None


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
    # every graph up to 7, so that the elimination also stalls, on the non-cographs
    stalled = 0
    for g in enumerate_up_to(7):
        tree, expected = recognize(g), reference_recognize(g)
        assert (tree is None) == (expected is None)
        if tree is None:
            stalled += 1
        else:
            assert render_cotree(tree) == render_cotree(expected)
    assert stalled == 1252 - 287  # 1,252 graphs up to 7, 287 of them cographs


def _random_cotree(rng, vertices, join):
    """A cotree on the given leaves, joins and unions alternating from
    ``join`` down, each internal node with two to four children."""
    if len(vertices) == 1:
        return Leaf(vertices[0])
    cuts = sorted(rng.sample(range(1, len(vertices)), rng.randint(1, min(3, len(vertices) - 1))))
    parts = [vertices[a:b] for a, b in zip([0, *cuts], [*cuts, len(vertices)])]
    return (JoinNode if join else UnionNode)(tuple(_random_cotree(rng, p, not join) for p in parts))


def test_cotrees_and_pairs_of_a_512_vertex_cograph_are_cheap():
    # twins are found by keying rows; a scan over vertex pairs at each of
    # the 511 elimination steps took about 3 s on 2 cores
    rng = random.Random(512)
    vertices = list(range(512))
    rng.shuffle(vertices)
    g = realize_cotree(_random_cotree(rng, vertices, True))
    for search in (recognize, find_anticomplete_pair):
        start = time.perf_counter()
        found = search(g)
        assert time.perf_counter() - start < 1.0
        assert found is not None
    assert realize_cotree(recognize(g)) == g

