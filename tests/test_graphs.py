import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critcolor.graphs import (
    DEFAULT_VERTEX_CAP,
    Graph,
    Graph6Error,
    _adjacency_bits,
    _encode_graph6,
    _rows_from_bits,
    bits_of,
    closed_neighborhood,
    closed_set_neighborhood,
    complement,
    complete_graph,
    connected_components,
    delete_vertex,
    disjoint_union,
    empty_graph,
    from_edges,
    from_rows,
    induced_subgraph,
    is_anticomplete_between,
    is_complete_between,
    is_connected,
    is_independent,
    iter_bits,
    mask_of,
    mixed_vertices,
    neighborhood,
    parse_graph6,
    set_neighborhood,
    to_graph6,
    validate,
)

from conftest import graphs, random_graph
from oracles import naive_is_connected

P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
C5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def test_graph6_known_strings():
    assert to_graph6(empty_graph(5)) == "D??"
    assert to_graph6(complete_graph(5)) == "D~{"
    assert to_graph6(P4) == "Ch"
    g = parse_graph6("Ch")
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert parse_graph6("D~{").edge_count() == 10


def test_graph6_long_form():
    text = to_graph6(empty_graph(100))
    assert text.startswith("~?@c")
    assert parse_graph6(text).n == 100
    ring = from_edges(70, [(i, (i + 1) % 70) for i in range(70)])
    assert parse_graph6(to_graph6(ring)) == ring


def test_graph6_short_form_boundary():
    # n=62 is the last single-byte order; n=63 switches to the long prefix
    g62 = random_graph(62, 0.3, seed=13)
    text = to_graph6(g62)
    assert text[0] == chr(62 + 63)
    assert parse_graph6(text) == g62
    g63 = random_graph(63, 0.3, seed=14)
    text = to_graph6(g63)
    assert text.startswith("~")
    assert parse_graph6(text) == g63


@pytest.mark.parametrize(
    "text,offset,needle",
    [
        ("", 0, "empty"),
        ("D?", 2, "need 2 adjacency bytes"),
        (">Ch", 0, "outside graph6 range"),
        ("C\x7f", 1, "outside graph6 range"),
        ("D~{x", 3, "trailing garbage"),
        ("D~}", 2, "nonzero padding"),
        ("~?@c", 4, "need 825 adjacency bytes"),
        ("A\u00e9", 1, "non-ASCII"),
    ],
)
def test_graph6_errors_carry_byte_offsets(text, offset, needle):
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(text)
    assert exc.value.offset == offset
    assert needle in str(exc.value)
    assert f"byte offset {offset}" in str(exc.value)


def test_graph6_vertex_cap():
    with pytest.raises(Graph6Error):
        parse_graph6(_encode_graph6(DEFAULT_VERTEX_CAP + 1, 0))
    assert parse_graph6(_encode_graph6(DEFAULT_VERTEX_CAP, 0)).n == DEFAULT_VERTEX_CAP


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


@given(graphs(max_n=12))
def test_rows_from_bits_inverts_adjacency_bits(g):
    assert _rows_from_bits(g.n, _adjacency_bits(g.rows, range(g.n))) == g.rows


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(-1, [])
    assert from_edges(3, [(0, 1), (1, 0)]).edge_count() == 1


def test_from_rows_must_be_symmetric_and_loopless():
    with pytest.raises(ValueError):
        from_rows(2, [0b10, 0b00])
    with pytest.raises(ValueError):
        from_rows(1, [0b1])
    g = from_rows(2, [0b10, 0b01])
    validate(g)
    assert g.has_edge(0, 1)


def test_degree_and_edges():
    assert [C5.degree(v) for v in range(5)] == [2, 2, 2, 2, 2]
    assert C5.edge_count() == 5
    assert P4.degree(0) == 1 and P4.degree(1) == 2
    with pytest.raises(IndexError):
        P4.degree(4)


# ---------------------------------------------------------------------------
# set-level queries
# ---------------------------------------------------------------------------


def test_iter_bits_is_ascending():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(mask_of([7, 0, 3]))) == [0, 3, 7]
    assert list(iter_bits(1 << 300)) == [300]


def test_mask_round_trip():
    assert bits_of(mask_of([0, 2, 5])) == frozenset({0, 2, 5})
    assert mask_of([]) == 0


def test_neighborhoods():
    assert neighborhood(P4, 1) == {0, 2}
    assert closed_neighborhood(P4, 1) == {0, 1, 2}
    assert set_neighborhood(P4, [0, 3]) == {1, 2}
    assert set_neighborhood(P4, [1]) == {0, 2}
    assert closed_set_neighborhood(P4, [0, 1]) == {0, 1, 2}
    with pytest.raises(ValueError):
        set_neighborhood(P4, [9])
    for bad in ([-1], [0, -1]):
        with pytest.raises(ValueError, match="vertex outside graph"):
            set_neighborhood(P4, bad)
        with pytest.raises(ValueError, match="vertex outside graph"):
            closed_set_neighborhood(P4, bad)


@given(graphs(max_n=8))
def test_closed_neighborhood_adds_the_vertex(g):
    for v in range(g.n):
        assert closed_neighborhood(g, v) == neighborhood(g, v) | {v}
        assert v not in neighborhood(g, v)


def test_independence_and_betweenness():
    assert is_independent(C5, [0, 2])
    assert not is_independent(C5, [0, 1])
    assert is_independent(C5, [])
    assert is_complete_between(P4, [0], [1])
    assert not is_complete_between(P4, [0], [1, 3])
    assert is_anticomplete_between(P4, [0], [2, 3])
    with pytest.raises(ValueError):
        is_complete_between(P4, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        is_anticomplete_between(P4, [0], [0])
    with pytest.raises(ValueError, match="vertex outside graph"):
        is_independent(C5, [0, -1])
    with pytest.raises(ValueError, match="vertex outside graph"):
        is_complete_between(P4, [-1], [1])


def test_mixed_vertices():
    # vertex 1 of P4 sees 2 but not 3
    assert mixed_vertices(P4, [2, 3]) == {1}
    assert mixed_vertices(C5, [0]) == frozenset()
    with pytest.raises(ValueError):
        mixed_vertices(P4, [])
    for bad in ([4], [-1]):
        with pytest.raises(ValueError, match="vertex outside graph"):
            mixed_vertices(P4, bad)


@given(graphs(max_n=7), st.data())
def test_mixed_vertices_matches_definition(g, data):
    if g.n == 0:
        return
    s = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    got = mixed_vertices(g, s)
    for v in range(g.n):
        if v in s:
            assert v not in got
            continue
        seen = {u in bits_of(g.rows[v]) for u in s}
        assert (v in got) == (seen == {True, False})


# ---------------------------------------------------------------------------
# derived graphs
# ---------------------------------------------------------------------------


def test_induced_subgraph_relabels_in_order():
    sub = induced_subgraph(C5, [1, 2, 4])
    assert sub.n == 3
    assert sorted(sub.edges()) == [(0, 1)]
    # duplicates collapse, order of the input does not matter
    assert induced_subgraph(C5, [4, 1, 1, 2]) == sub
    with pytest.raises(ValueError):
        induced_subgraph(C5, [5])
    with pytest.raises(ValueError, match="vertex outside graph"):
        induced_subgraph(C5, [-1, 2])


def test_delete_vertex():
    g = delete_vertex(C5, 2)
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 1), (0, 3), (2, 3)]
    for v in (99, 5, -1):
        with pytest.raises(ValueError, match="vertex outside graph"):
            delete_vertex(C5, v)


@given(graphs(max_n=9, min_n=1))
def test_delete_vertex_is_the_induced_subgraph_on_the_rest(g):
    for v in range(g.n):
        assert delete_vertex(g, v) == induced_subgraph(g, set(range(g.n)) - {v})


@given(graphs(max_n=9))
def test_complement_involution(g):
    assert complement(complement(g)) == g
    assert g.edge_count() + complement(g).edge_count() == g.n * (g.n - 1) // 2


def test_disjoint_union():
    g = disjoint_union(P4, complete_graph(2))
    assert g.n == 6
    assert g.has_edge(4, 5) and not g.has_edge(3, 4)


@given(graphs(max_n=9))
def test_components_partition_and_are_anticomplete(g):
    comps = connected_components(g)
    all_vs = sorted(v for c in comps for v in c)
    assert all_vs == list(range(g.n))
    for i, a in enumerate(comps):
        for b in comps[i + 1:]:
            assert is_anticomplete_between(g, a, b)
    assert is_connected(g) == (len(comps) <= 1)


@settings(max_examples=60)
@given(graphs(max_n=8))
def test_is_connected_matches_oracle(g):
    assert is_connected(g) == naive_is_connected(g)


def test_components_ordered_by_least_vertex():
    g = from_edges(5, [(1, 3), (0, 4)])
    comps = connected_components(g)
    assert comps == [frozenset({0, 4}), frozenset({1, 3}), frozenset({2})]


def test_graph_is_hashable_and_immutable():
    d = {P4: "path"}
    assert d[parse_graph6("Ch")] == "path"
    with pytest.raises(AttributeError):
        P4.n = 5


def test_equal_graphs_hash_equal_and_pickle_without_their_hash():
    import copy
    import pickle

    for g in (P4, complete_graph(5), empty_graph(0), random_graph(9, 0.5, seed=3)):
        fresh = Graph(g.n, tuple(g.rows))
        assert fresh == g and fresh is not g
        assert hash(g) == hash(fresh) == hash(g) == hash((g.n, g.rows))
        data = pickle.dumps(g)
        assert b"_hash" not in data  # a hash is only good in its own process
        for back in (pickle.loads(data), copy.copy(g), copy.deepcopy(g)):
            assert back == g and hash(back) == hash(g) and {back: 1}[g] == 1


def test_random_graph_helper_is_deterministic():
    assert random_graph(8, 0.4, seed=7) == random_graph(8, 0.4, seed=7)
