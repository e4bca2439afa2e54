import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critcolor import chroma
from critcolor.chroma import Coloring, chromatic_number, is_k_colorable, is_proper_coloring
from critcolor.enumeration import enumerate_critical, enumerate_graphs, enumerate_up_to
from critcolor.critical import (
    _extract_with_kept,
    CriticalDb,
    CriticalWitness,
    antichain_check,
    certify_k_colorable,
    criticality_report,
    extract_critical_subgraph,
    find_comparable_nonadjacent,
    find_lemma_xy_violation,
    load_critdb,
    mixed_trace_partition,
    parse_critdb,
    save_critdb,
    sperner_constant,
    write_critdb,
)
from critcolor.graphs import (
    bits_of,
    complete_graph,
    delete_vertex,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    parse_graph6,
    to_graph6,
)
from critcolor.patterns import (
    PatternViolation,
    broom,
    clique,
    embedding_is_induced,
    parse_pattern,
    path,
    union,
)

from conftest import graphs, random_graph
from oracles import naive_chromatic, naive_is_isomorphic, naive_is_k_colorable

C5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
C6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
W5 = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                    (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)])
P3 = from_edges(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# criticality reports and extraction
# ---------------------------------------------------------------------------


def test_reports_on_known_graphs():
    rep = criticality_report(C5, 3)
    assert rep.verdict and rep.chi == 3 and rep.per_vertex == (2, 2, 2, 2, 2)
    assert criticality_report(complete_graph(4), 4).verdict
    assert criticality_report(W5, 4).verdict
    assert not criticality_report(C6, 3).verdict  # chi is only 2
    assert not criticality_report(parse_graph6("Ch"), 2).verdict  # P4: deletions keep chi 2
    assert criticality_report(complete_graph(1), 1).verdict


def test_report_fails_when_some_deletion_keeps_chi():
    g = disjoint_union(C5, complete_graph(1))
    rep = criticality_report(g, 3)
    assert rep.chi == 3 and not rep.verdict
    assert rep.per_vertex[5] == 3


def _assert_report_matches_oracle(g, k):
    rep = criticality_report(g, k)
    chi = naive_chromatic(g)
    per_vertex = tuple(naive_chromatic(delete_vertex(g, v)) for v in range(g.n))
    assert (rep.k, rep.chi, rep.per_vertex) == (k, chi, per_vertex)
    assert rep.verdict == (chi == k and all(c == k - 1 for c in per_vertex))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=9), st.integers(min_value=-1, max_value=1))
def test_report_agrees_with_the_oracle(g, shift):
    # k in {chi - 1, chi, chi + 1}: the per-vertex window shortcuts must not
    # depend on k
    _assert_report_matches_oracle(g, max(1, naive_chromatic(g) + shift))


def test_report_agrees_with_the_oracle_on_every_small_graph():
    for g in enumerate_up_to(6):
        _assert_report_matches_oracle(g, max(1, naive_chromatic(g)))


def test_report_runs_one_chromatic_number_search(petersen, monkeypatch):
    # chromatic_number delegates to chroma._chromatic, so this counts every
    # full chromatic-number search; each deletion is decided inside the
    # window {chi - 1, chi} instead
    calls = []
    real = chroma._chromatic
    monkeypatch.setattr(chroma, "_chromatic", lambda *a: calls.append(a) or real(*a))
    rep = criticality_report(petersen, 3)
    assert rep.chi == 3 and rep.per_vertex == (3,) * 10 and not rep.verdict
    assert len(calls) == 1


def _extract_by_full_searches(g, k):
    """The extraction rule with one full chromatic-number search per try."""
    kept = list(range(g.n))
    current = g
    while True:
        for i in range(current.n):
            smaller = delete_vertex(current, i)
            if chromatic_number(smaller)[0] >= k:
                del kept[i]
                current = smaller
                break
        else:
            return current, tuple(kept)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8, min_n=1), st.integers(min_value=0, max_value=3))
def test_extraction_keeps_the_full_search_rule(g, drop):
    k = max(1, chromatic_number(g)[0] - drop)
    assert _extract_with_kept(g, k) == _extract_by_full_searches(g, k)


def test_extract_critical_subgraph():
    g = disjoint_union(C5, complete_graph(1))
    sub = extract_critical_subgraph(g, 3)
    assert naive_is_isomorphic(sub, C5)
    assert extract_critical_subgraph(C5, 3) == C5
    sub = extract_critical_subgraph(disjoint_union(complete_graph(4), complete_graph(3)), 4)
    assert sub == complete_graph(4)
    with pytest.raises(ValueError):
        extract_critical_subgraph(C5, 4)
    # below k = 1 every graph keeps chi >= k, so nothing else would stop
    # the extraction from deleting every vertex
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            extract_critical_subgraph(complete_graph(3), k)


# ---------------------------------------------------------------------------
# structural obstructions
# ---------------------------------------------------------------------------


def test_comparable_nonadjacent_pairs():
    assert find_comparable_nonadjacent(P3) == (0, 2)
    assert find_comparable_nonadjacent(C5) is None
    assert find_comparable_nonadjacent(complete_graph(4)) is None
    # leaves of a star are mutually comparable; the least ordered pair wins
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert find_comparable_nonadjacent(star) == (1, 2)
    # isolated vertices compare against everything nonadjacent
    assert find_comparable_nonadjacent(empty_graph(2)) == (0, 1)


def test_lemma_xy_violation_found_on_noncritical_graphs():
    assert find_lemma_xy_violation(P3, 2) == (frozenset({0}), frozenset({2}))
    # X={1} is rejected (3 misses N(1)={0,2}); X={3}, Y={1} is the first hit
    paw = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    hit = find_lemma_xy_violation(paw, 2)
    assert hit == (frozenset({3}), frozenset({1}))


def test_lemma_xy_violation_absent_on_critical_graphs():
    assert find_lemma_xy_violation(C5, 2) is None
    assert find_lemma_xy_violation(complete_graph(4), 2) is None
    assert find_lemma_xy_violation(W5, 2) is None


def test_lemma_xy_respects_size_cap():
    # the smallest violation in 2K2 pairs two whole edges
    g = from_edges(4, [(0, 1), (2, 3)])
    assert find_lemma_xy_violation(g, 1) is None
    assert find_lemma_xy_violation(g, 2) == (frozenset({0, 1}), frozenset({2, 3}))
    with pytest.raises(ValueError):
        find_lemma_xy_violation(g, 0)


def brute_lemma_xy_violation(g, size_cap):
    """Every (X, Y) of the lemma by its definition, the least under
    (|X|+|Y|, X, Y) with X and Y as ascending vertex lists."""
    subsets = [set(c) for size in range(1, size_cap + 1) for c in combinations(range(g.n), size)]
    hits = []
    for x in subsets:
        nx = {u for v in x for u in range(g.n) if g.has_edge(u, v)} - x
        for y in subsets:
            if x & y or any(g.has_edge(a, b) for a in x for b in y):
                continue
            if not all(g.has_edge(a, b) for a in y for b in nx):
                continue
            if naive_chromatic(induced_subgraph(g, x)) <= naive_chromatic(induced_subgraph(g, y)):
                hits.append((len(x) + len(y), sorted(x), sorted(y)))
    if not hits:
        return None
    _, x, y = min(hits)
    return frozenset(x), frozenset(y)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8), st.integers(1, 2))
def test_lemma_xy_violation_is_the_least_pair_of_the_brute_force(g, size_cap):
    assert find_lemma_xy_violation(g, size_cap) == brute_lemma_xy_violation(g, size_cap)


def test_lemma_xy_violation_at_size_one_is_the_comparable_nonadjacent_pair():
    for g in [*enumerate_up_to(6), *(random_graph(n, p, n) for n in range(7, 12) for p in (0.3, 0.5, 0.7))]:
        pair = find_comparable_nonadjacent(g)
        expected = None if pair is None else (frozenset({pair[0]}), frozenset({pair[1]}))
        assert find_lemma_xy_violation(g, 1) == expected


def test_sperner_constant():
    assert sperner_constant(1, 1) == 1
    assert sperner_constant(2, 2) == 6
    assert sperner_constant(3, 2) == 20
    assert sperner_constant(4, 3) == 924
    with pytest.raises(ValueError):
        sperner_constant(0, 1)
    with pytest.raises(ValueError):
        sperner_constant(1, 0)


def test_mixed_trace_partition():
    g = from_edges(7, [(2, 0), (3, 1), (4, 0), (4, 1), (6, 0), (5, 6)])
    m, classes, reps = mixed_trace_partition(g, [0, 1])
    assert m == {2, 3, 6}
    assert classes == (frozenset({2, 6}), frozenset({3}))
    assert reps == {2, 3}
    with pytest.raises(ValueError):
        mixed_trace_partition(g, [])
    with pytest.raises(ValueError):
        mixed_trace_partition(from_edges(2, [(0, 1)]), [0, 1])
    with pytest.raises(ValueError, match="vertex outside graph"):
        mixed_trace_partition(g, [-1])


def test_antichain_check():
    g = from_edges(4, [(0, 2), (1, 3)])
    assert antichain_check(g, [0, 1], [2, 3])
    g = from_edges(4, [(0, 2), (0, 3), (1, 3)])
    assert not antichain_check(g, [0, 1], [2, 3])
    # equal traces also break the antichain
    g = from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert not antichain_check(g, [0, 1], [2, 3])
    with pytest.raises(ValueError):
        antichain_check(from_edges(2, [(0, 1)]), [0, 1], [])
    with pytest.raises(ValueError):
        antichain_check(g, [0], [9])
    for s, u in (([0], [-1]), ([-1], [2])):
        with pytest.raises(ValueError, match="vertex outside graph"):
            antichain_check(g, s, u)


# ---------------------------------------------------------------------------
# databases
# ---------------------------------------------------------------------------


def make_db():
    k4 = to_graph6(complete_graph(4))
    return CriticalDb(4, (parse_pattern("P4+P1"),), (k4,))


def test_critdb_round_trip(tmp_path):
    db = make_db()
    text = write_critdb(db)
    assert text.splitlines()[0] == "#critdb k=4 family=P4+P1"
    assert parse_critdb(text) == db
    target = tmp_path / "members.critdb"
    save_critdb(db, str(target))
    assert load_critdb(str(target)) == db


def test_critdb_of_a_union_family_saves_and_loads(tmp_path):
    db = enumerate_critical(3, 5, [parse_pattern("2K2")])
    assert write_critdb(db).splitlines()[0] == "#critdb k=3 family=2K2"
    target = tmp_path / "2k2.critdb"
    save_critdb(db, str(target))
    assert load_critdb(str(target)) == db


def test_critdb_family_with_commas_round_trips():
    db = CriticalDb(4, (broom(3, 2), parse_pattern("P4+P1")), (to_graph6(complete_graph(4)),))
    assert write_critdb(db).splitlines()[0] == "#critdb k=4 family=broom(3,2),P4+P1"
    assert parse_critdb(write_critdb(db)) == db


def test_write_critdb_rejects_a_member_without_pattern_text(tmp_path):
    with pytest.raises(ValueError, match=r"family member P3\+K3 "):
        write_critdb(CriticalDb(3, (union(path(3), clique(3)),), ()))
    with pytest.raises(ValueError, match=r"family member P1\+P4 "):
        write_critdb(CriticalDb(3, (union(path(1), path(4)),), ()))
    # a disjoint union has one spec however it is built, and "2P2" names it
    db = CriticalDb(3, (union(path(2), path(2)),), ())
    target = tmp_path / "2p2.critdb"
    save_critdb(db, str(target))
    assert load_critdb(str(target)) == db == CriticalDb(3, (parse_pattern("2P2"),), ())


def test_load_critdb_names_the_line_of_a_non_ascii_byte(tmp_path):
    target = tmp_path / "bad.critdb"
    target.write_bytes(b"#critdb k=3 family=\nBw\nD\xc3\n")
    with pytest.raises(ValueError, match=r"^line 3: non-ASCII character .* \(byte offset 1\)$"):
        load_critdb(str(target))


def test_critdb_empty_family_round_trips():
    db = CriticalDb(3, (), (to_graph6(complete_graph(3)),))
    assert parse_critdb(write_critdb(db)) == db


def test_parse_critdb_rejects_malformed_input():
    with pytest.raises(ValueError, match="header"):
        parse_critdb("Bw\n")
    with pytest.raises(ValueError, match="k="):
        parse_critdb("#critdb family=P4\nBw\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_critdb("#critdb k=3 family=\nD?\n")


@pytest.mark.parametrize("text, message", [
    ("#critdb k=x family=P5\nC~\n", "line 1: k must be an integer, got 'x'"),
    ("#critdb k=4 family=P9q\nC~\n", "line 1: cannot parse pattern 'p9q'"),
    ("#critdb k=-2 family=P5\nC~\n", "line 1: k must be at least 1, got -2"),
    ("#critdb k=0 family=\n", "line 1: k must be at least 1, got 0"),
    ("#critdb family=P4\nBw\n", "line 1: header must carry k= and family="),
    ("\n#critdb k=0 family=\n", "line 2: k must be at least 1, got 0"),
    ("#critdb k=3 family=\n\nBw\n\nD?\n", "line 5: need 2 adjacency bytes for n=5, found 1 (byte offset 2)"),
])
def test_parse_critdb_errors_name_the_line(text, message):
    with pytest.raises(ValueError) as info:
        parse_critdb(text)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_positive():
    db = make_db()
    g = from_edges(4, [(0, 1), (0, 2), (1, 2)])  # triangle plus an isolated vertex
    out = certify_k_colorable(g, 3, db)
    assert isinstance(out, Coloring)
    assert is_proper_coloring(g, out)


def test_certify_negative_names_the_member():
    db = make_db()
    host = complete_graph(5)
    out = certify_k_colorable(host, 3, db)
    assert isinstance(out, CriticalWitness)
    assert out.member_index == 0
    member = parse_graph6(out.pattern_graph6)
    assert embedding_is_induced(host, member, out.embedding)


def test_certify_rejects_family_violation():
    db = make_db()
    bad = from_edges(5, [(0, 1), (1, 2), (2, 3)])  # P4 plus isolated vertex
    with pytest.raises(PatternViolation):
        certify_k_colorable(bad, 3, db)


def test_certify_k_mismatch():
    db = make_db()
    with pytest.raises(ValueError, match="4-critical"):
        certify_k_colorable(complete_graph(2), 2, db)


def test_certify_falls_back_to_extraction_on_incomplete_db():
    db = CriticalDb(3, (), (to_graph6(complete_graph(3)),))  # misses the odd holes
    out = certify_k_colorable(C5, 2, db)
    assert isinstance(out, CriticalWitness)
    assert out.member_index is None
    sub = parse_graph6(out.pattern_graph6)
    assert chromatic_number(sub)[0] == 3
    assert embedding_is_induced(C5, sub, out.embedding)


def test_certify_skips_colourable_database_members():
    # P3 mislabelled as 4-critical embeds in C5 but is no witness against
    # 3-colourability
    bogus = CriticalDb(4, (), (to_graph6(from_edges(3, [(0, 1), (1, 2)])),))
    out = certify_k_colorable(C5, 3, bogus)
    assert isinstance(out, Coloring)
    assert is_proper_coloring(C5, out)


def test_certify_worked_examples():
    db = make_db()
    paw = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    out = certify_k_colorable(paw, 3, db)
    assert isinstance(out, Coloring) and out.palette_size == 3
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    out = certify_k_colorable(c4, 3, db)
    assert isinstance(out, Coloring) and out.palette_size == 2


@pytest.mark.parametrize("k", [2, 4])
def test_certify_matches_decision_on_small_cographs(k):
    # the lone (k+1)-critical P4-free graph is the clique, so the db is complete
    db = CriticalDb(k + 1, (path(4),), (to_graph6(complete_graph(k + 1)),))
    checked = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, [path(4)]):
            out = certify_k_colorable(g, k, db)
            if isinstance(out, Coloring):
                assert is_proper_coloring(g, out)
                assert is_k_colorable(g, k) is not None
            else:
                assert is_k_colorable(g, k) is None
            checked += 1
    assert checked > 150


@settings(max_examples=150, deadline=None)
@given(
    graphs(max_n=7, min_n=1),
    st.integers(1, 3),
    st.lists(graphs(max_n=5, min_n=1), max_size=3),
    st.lists(st.integers(0, 2**7 - 1), max_size=3),
    st.booleans(),
)
def test_certify_never_witnesses_a_colourable_graph(g, k, strangers, subsets, duplicate):
    # adversarial databases: random graphs, induced subgraphs of the host
    # (k-colourable when the host is) passed off as members, and duplicates
    members = [to_graph6(h) for h in strangers]
    members += [to_graph6(induced_subgraph(g, sorted(bits_of(m & ((1 << g.n) - 1))))) for m in subsets]
    if duplicate:
        members += members
    db = CriticalDb(k + 1, (), tuple(members))
    out = certify_k_colorable(g, k, db)
    if isinstance(out, Coloring):
        assert is_proper_coloring(g, out) and out.palette_size <= k
    else:
        assert not naive_is_k_colorable(g, k)
        witness = parse_graph6(out.pattern_graph6)
        assert embedding_is_induced(g, witness, out.embedding)
        assert not naive_is_k_colorable(witness, k)


def test_report_verdict_survives_relabeling():
    rng = random.Random(5)
    for g, k in [(C5, 3), (W5, 4), (complete_graph(4), 4), (C6, 3)]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert criticality_report(h, k).verdict == criticality_report(g, k).verdict


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7, min_n=1))
def test_extracted_subgraph_is_always_critical(g):
    k = chromatic_number(g)[0]
    sub = extract_critical_subgraph(g, k)
    assert criticality_report(sub, k).verdict
