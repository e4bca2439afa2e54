import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critcolor import construct, graphs as graphs_module
from critcolor.chroma import chromatic_number, is_proper_coloring
from critcolor.cograph import cograph_color, recognize
from critcolor.construct import (
    _color_bounded,
    _compact,
    bound_f,
    closed_neighborhood_partition,
    color_kk_free,
    greedy_independent_set,
)
from critcolor.enumeration import enumerate_up_to
from critcolor.graphs import (
    complete_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    is_independent,
    iter_bits,
    mask_of,
    set_neighborhood_mask,
)
from critcolor.patterns import PatternViolation, clique, path, plus_isolated

from conftest import graphs

C5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
W5 = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                    (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)])


# ---------------------------------------------------------------------------
# the palette bound
# ---------------------------------------------------------------------------


def test_bound_values():
    assert bound_f(3, 0) == 2
    assert bound_f(3, 1) == 3
    assert bound_f(3, 2) == 4
    assert bound_f(4, 1) == 6
    assert bound_f(4, 2) == 11
    assert bound_f(5, 0) == 4


@given(st.integers(4, 9), st.integers(0, 6))
def test_bound_satisfies_its_recursion(k, ell):
    assert bound_f(k, ell) == ell * bound_f(k - 1, ell) + (k - 1)


@given(st.integers(0, 6))
def test_bound_base_case(ell):
    assert bound_f(3, ell) == ell + 2


def test_bound_rejects_bad_parameters():
    with pytest.raises(ValueError):
        bound_f(2, 1)
    with pytest.raises(ValueError):
        bound_f(3, -1)


# ---------------------------------------------------------------------------
# the pieces
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(graphs(max_n=9, min_n=1), st.integers(1, 4))
def test_greedy_independent_set_properties(g, ell):
    s = greedy_independent_set(g, ell)
    assert s and s[0] == 0
    assert len(s) <= ell
    assert is_independent(g, s)
    assert s == sorted(s)
    if len(s) < ell:
        # inclusion-maximal: every vertex sees the set
        assert set_neighborhood_mask(g, mask_of(s)) | mask_of(s) == (1 << g.n) - 1


def test_greedy_independent_set_stops_at_ell_vertices_even_at_zero():
    assert greedy_independent_set(C5, 0) == []
    assert greedy_independent_set(C5, 1) == [0]
    with pytest.raises(ValueError, match="ell must be nonnegative"):
        greedy_independent_set(C5, -1)


def test_neighborhood_partition_rejects_vertices_outside_the_graph():
    for s in ([7], [-1], [0, 5]):
        with pytest.raises(ValueError, match="vertex outside graph"):
            closed_neighborhood_partition(C5, s)


def test_neighborhood_partition_first_claim_rule():
    g = from_edges(5, [(0, 2), (0, 3), (1, 3), (1, 4)])
    blocks = closed_neighborhood_partition(g, [0, 1])
    assert blocks == [[2, 3], [4]]  # vertex 3 goes to its first neighbour in S


@settings(max_examples=80)
@given(graphs(max_n=8, min_n=1), st.integers(1, 3))
def test_neighborhood_partition_tiles_the_closed_neighborhood(g, ell):
    s = greedy_independent_set(g, ell)
    blocks = closed_neighborhood_partition(g, s)
    assert len(blocks) == len(s)
    seen = set(s)
    for si, block in zip(s, blocks):
        for v in block:
            assert v not in seen
            assert g.has_edge(si, v)
            seen.add(v)
    assert mask_of(seen) == set_neighborhood_mask(g, mask_of(s)) | mask_of(s)


# ---------------------------------------------------------------------------
# the colourings
# ---------------------------------------------------------------------------


def test_worked_examples():
    col = color_kk_free(C5, 1, 3)
    assert is_proper_coloring(C5, col) and col.palette_size == 3

    g = disjoint_union(C5, empty_graph(1))
    col = color_kk_free(g, 2, 3)
    assert is_proper_coloring(g, col) and col.palette_size <= 4

    col = color_kk_free(complete_graph(2), 0, 3)
    assert col.palette_size == 2

    col = color_kk_free(W5, 1, 4)
    assert is_proper_coloring(W5, col)
    assert col.palette_size == 4 <= bound_f(4, 1)


def test_precondition_violations_raise_with_witness():
    with pytest.raises(PatternViolation) as exc:
        color_kk_free(complete_graph(3), 1, 3)
    assert exc.value.spec == clique(3)
    with pytest.raises(PatternViolation):
        color_kk_free(from_edges(5, [(0, 1), (1, 2), (2, 3)]), 1, 3)  # P4 + isolated vertex
    with pytest.raises(ValueError):
        color_kk_free(C5, 1, 2)
    with pytest.raises(ValueError):
        color_kk_free(C5, -1, 3)


def test_unchecked_calls_still_verify_the_output():
    # without the family check, an improper result means the input is
    # outside the family: a usage error naming the family
    with pytest.raises(ValueError, match=r"not \(P4\+P1, K3\)-free"):
        color_kk_free(complete_graph(3), 1, 3, check=False)
    # K1+K4 colours properly with 4 colours, one more than bound_f(3, 1):
    # that too proves the input is outside the family
    k1_k4 = disjoint_union(empty_graph(1), complete_graph(4))
    with pytest.raises(ValueError, match=r"not \(P4\+P1, K3\)-free: .* 4 colours, above the bound 3"):
        color_kk_free(k1_k4, 1, 3, check=False)
    with pytest.raises(PatternViolation):
        color_kk_free(k1_k4, 1, 3)


def test_unchecked_inputs_with_a_p4_remainder_name_the_family():
    # the isolated vertex is S, and the P4 left over has no cotree
    p4_p1 = from_edges(5, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match=r"^graph is not \(P4\+P1, K3\)-free: .* remainder with an induced P4"):
        color_kk_free(p4_p1, 1, 3, check=False)
    with pytest.raises(ValueError, match=r"^graph is not \(P4, K3\)-free: .* remainder with an induced P4"):
        color_kk_free(from_edges(4, [(0, 1), (1, 2), (2, 3)]), 0, 3, check=False)
    with pytest.raises(PatternViolation):
        color_kk_free(p4_p1, 1, 3)


def test_ell_zero_requires_a_cograph():
    with pytest.raises(ValueError):
        color_kk_free(from_edges(4, [(0, 1), (1, 2), (2, 3)]), 0, 3)


def test_ell_zero_colours_the_whole_graph_from_its_cotree():
    # S is empty, so the remainder is the whole graph, coloured with tail 1
    for g in enumerate_up_to(8, [path(4)]):
        want = _compact(cograph_color(recognize(g)).assignment)
        for k in (3, 4, 5):
            assert _compact(_color_bounded(g, 0, k)) == want


def test_empty_graph():
    assert color_kk_free(empty_graph(0), 1, 3).palette_size == 0


@pytest.mark.parametrize("ell", [1, 2])
def test_triangle_free_family_stays_within_bound(ell):
    family = [plus_isolated(path(4), ell), clique(3)]
    for g in enumerate_up_to(7, filters=family):
        col = color_kk_free(g, ell, 3, check=False)
        assert is_proper_coloring(g, col)
        assert col.palette_size <= ell + 2
        assert chromatic_number(g)[0] <= col.palette_size


def test_k4_free_family_stays_within_bound():
    family = [plus_isolated(path(4), 1), clique(4)]
    for g in enumerate_up_to(7, filters=family):
        col = color_kk_free(g, 1, 4, check=False)
        assert is_proper_coloring(g, col)
        assert col.palette_size <= bound_f(4, 1)


# ---------------------------------------------------------------------------
# the recursion on vertex masks against the one it replaced, which copied
# every block and remainder into a subgraph of its own
# ---------------------------------------------------------------------------


def reference_cotree_palette(g, verts):
    sub = induced_subgraph(g, verts)
    tree = recognize(sub)
    if tree is None:
        raise ValueError("leaves a remainder with an induced P4")
    return list(cograph_color(tree).assignment)


def reference_color_bounded(g, ell, k):
    if g.n == 0:
        return []
    s = greedy_independent_set(g, ell)
    blocks = closed_neighborhood_partition(g, s)
    assignment = [0] * g.n
    for v in s:
        assignment[v] = 1
    if k == 3:
        for i, block in enumerate(blocks):
            for v in block:
                assignment[v] = 2 + i
        tail = 1 + len(s)
    else:
        width = bound_f(k - 1, ell)
        for i, block in enumerate(blocks):
            sub_assign = reference_color_bounded(induced_subgraph(g, block), ell, k - 1)
            offset = 1 + i * width
            for j, v in enumerate(block):
                assignment[v] = offset + sub_assign[j]
        tail = 1 + len(s) * width
    smask = mask_of(s)
    remainder = list(iter_bits((1 << g.n) - 1 & ~(smask | set_neighborhood_mask(g, smask))))
    if remainder:
        for v, c in zip(remainder, reference_cotree_palette(g, remainder)):
            assignment[v] = 1 if c == 1 else tail + c - 1
    return assignment


def unchecked_outcome(g, ell, k):
    """color_kk_free(g, ell, k, check=False): its colouring or its ValueError text."""
    try:
        return color_kk_free(g, ell, k, check=False)
    except ValueError as exc:
        return str(exc)


def outcomes_of_both(cases):
    """The unchecked outcomes with the reference recursion, then with the package's."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(construct, "_color_bounded", reference_color_bounded)
        want = [unchecked_outcome(*case) for case in cases]
    return want, [unchecked_outcome(*case) for case in cases]


def test_colourings_equal_the_reference_on_every_graph_up_to_7():
    cases = [(g, ell, k) for g in enumerate_up_to(7) for ell in range(4) for k in range(3, 6)]
    want, got = outcomes_of_both(cases)
    assert got == want
    assert len(got) == 15024 and sum(isinstance(o, str) for o in got) == 6925


@settings(max_examples=150)
@given(graphs(max_n=12), st.integers(0, 4), st.integers(3, 6))
def test_colourings_equal_the_reference(g, ell, k):
    want, got = outcomes_of_both([(g, ell, k)])
    assert got == want


def test_color_kk_free_builds_no_graph(monkeypatch):
    cases = [(g, ell, k) for g in enumerate_up_to(6) for ell in range(3) for k in (3, 4)]
    built = []
    init = graphs_module.Graph.__init__
    monkeypatch.setattr(graphs_module.Graph, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    for case in cases:
        unchecked_outcome(*case)
    assert built == []
