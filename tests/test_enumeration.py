import hashlib
import random
from itertools import combinations
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critcolor import chroma
from critcolor.critical import CriticalDb, criticality_report, find_comparable_nonadjacent, load_critdb, write_critdb
from critcolor.enumeration import (
    _EMIT,
    _EXTEND,
    _attach,
    _critical_classifier,
    _emission_screen,
    _extend_all,
    _extendable_classes,
    _forbidden_traces,
    _must_see,
    _orbit_reps,
    _trace_patterns,
    _walk,
    canonical_form,
    enumerate_critical,
    enumerate_graphs,
    enumerate_up_to,
    verify_critdb,
)
from critcolor.graphs import (
    Graph,
    _adjacency_bits,
    _canonical_labeling,
    _orbit,
    _refine,
    complete_graph,
    delete_vertex,
    empty_graph,
    from_edges,
    induced_subgraph,
    ingest_graph6_stream,
    is_connected,
    parse_graph6,
    to_graph6,
)
from critcolor.patterns import clique, is_free, parse_pattern, path, realize, union

from conftest import graphs, random_graph
from oracles import brute_canonical_key, naive_chromatic, naive_is_isomorphic

# unlabeled simple graphs by order, then the connected ones
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def permuted(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=9, min_n=1), st.integers(0, 2**30))
def test_canonical_form_is_relabeling_invariant(g, seed):
    assert canonical_form(permuted(g, seed)) == canonical_form(g)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=9, min_n=1))
def test_canonical_form_is_idempotent_and_isomorphic(g):
    canon = canonical_form(g)
    h = parse_graph6(canon)
    assert canonical_form(h) == canon
    assert h.n == g.n and h.edge_count() == g.edge_count()
    assert sorted(h.degree(v) for v in range(h.n)) == sorted(g.degree(v) for v in range(g.n))


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=5, min_n=1), graphs(max_n=5, min_n=1))
def test_canonical_equality_is_isomorphism(a, b):
    assert (canonical_form(a) == canonical_form(b)) == naive_is_isomorphic(a, b)


def test_canonical_form_on_symmetric_graphs(petersen):
    # vertex-transitive inputs exercise the orbit pruning
    c9 = from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
    assert canonical_form(permuted(c9, 4)) == canonical_form(c9)
    assert canonical_form(permuted(petersen, 9)) == canonical_form(petersen)
    assert canonical_form(complete_graph(16)) == to_graph6(complete_graph(16))


# golden canonical forms: saved critdb files are verified against these
# labellings, so they must never change (a different cell order in the
# refinement would change them)
GOLDEN_RANDOM_FORMS = [
    "I?GoyTTew", "IBXk[lznw", "I?CZDC|rg", "IG?ghvYfo", "I?B_xszUw",
    "I?DsBSnug", "I?HP?mZqw", "IPTYzmyzW", "IAgZjzenw", "IAgZjm{jw",
    "I@Sc^G}tw", "I?HMlqV^G", "I?Cz]t}|W", "I?CjMUutW", "I?ShzMVlW",
    "I_@Xp}i{G", "IA[r\\M|tw", "I?_padmrW", "I?wPImuvw", "I?oPXhv~w",
]


def test_canonical_forms_are_frozen(petersen):
    c9 = from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
    k33 = from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    wagner = from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    assert canonical_form(petersen) == "I?LRCecq?"
    assert canonical_form(c9) == "H?CidB?"
    assert canonical_form(k33) == "EFz_"
    assert canonical_form(wagner) == "G@Umf?"
    forms = [canonical_form(random_graph(10, 0.5, seed)) for seed in range(20)]
    assert forms == GOLDEN_RANDOM_FORMS


def test_critdb_saved_by_earlier_code_still_verifies():
    saved = Path(__file__).parent / "data" / "critdb_k4_n7_p4p1.txt"
    db = load_critdb(str(saved))
    assert verify_critdb(db)
    assert db == enumerate_critical(4, 7, [parse_pattern("P4+P1")])
    assert db == enumerate_critical(4, 7, [union(path(4), path(1))])
    assert write_critdb(db) == saved.read_text()


def reference_canonical_labeling(g: Graph) -> tuple[int, list[int], list[list[int]]]:
    """The labelling search as it stood before vertex orbits became masks:
    one breadth-first search per pair of siblings, over the generators that
    fix the vertices fixed so far."""
    n = g.n
    rows = g.rows
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(rows[v].bit_count(), []).append(v)
    stable: set[int] = set()
    cells = _refine(rows, [by_degree[d] for d in sorted(by_degree)], stable)
    best_bits = best_label = None
    gens: list[list[int]] = []

    def same_orbit(a, b, fixed):
        usable = [p for p in gens if all(p[f] == f for f in fixed)]
        if not usable:
            return False
        seen = {a}
        frontier = [a]
        while frontier:
            nxt = []
            for v in frontier:
                for p in usable:
                    w = p[v]
                    if w not in seen:
                        if w == b:
                            return True
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return False

    def descend(cells, fixed, stable):
        nonlocal best_bits, best_label
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            label = [c[0] for c in cells]
            bits = _adjacency_bits(rows, label)
            if best_bits is None or bits < best_bits:
                best_bits = bits
                best_label = label
            elif bits == best_bits:
                perm = [0] * n
                for i in range(n):
                    perm[best_label[i]] = label[i]
                if any(perm[v] != v for v in range(n)) and perm not in gens:
                    gens.append(perm)
            return
        done: list[int] = []
        for v in cells[target]:
            if any(same_orbit(v, w, fixed) for w in done):
                continue
            done.append(v)
            rest = [u for u in cells[target] if u != v]
            child = cells[:target] + [[v], rest] + cells[target + 1:]
            child_stable = set(stable)
            descend(_refine(rows, child, child_stable), fixed + [v], child_stable)

    descend(cells, [], stable)
    return best_bits, best_label, gens


def assert_labels_like_the_reference(g: Graph) -> None:
    """The bit-string and label equal the reference search's.  The maps differ
    by design (twin swaps seed them and twin cells are split without search),
    but they are automorphisms and generate the reference's group; above 8
    vertices, where closing the group is too slow, they give its orbits."""
    bits, label, gens = _canonical_labeling(g)
    want_bits, want_label, want_gens = reference_canonical_labeling(g)
    assert (bits, label) == (want_bits, want_label)
    for p in gens:
        assert sorted(p) == list(range(g.n))
        for u in range(g.n):
            assert sum(1 << p[w] for w in range(g.n) if g.rows[u] >> w & 1) == g.rows[p[u]]
    if g.n <= 8:
        assert group_closure(g.n, gens) == group_closure(g.n, want_gens)
    else:
        assert [_orbit(v, gens) for v in range(g.n)] == [_orbit(v, want_gens) for v in range(g.n)]


def complete_multipartite(*sizes: int) -> Graph:
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]])


# twin classes, some of them sharing a degree cell with another
TWINNED = [complete_multipartite(*sizes) for sizes in [(2, 2, 2), (1, 2, 3), (1, 1, 3, 3), (4, 5)]]
TWINNED += [realize(parse_pattern(text)) for text in ("P4+3P1", "K3+3P1", "2P3+2P1")]


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10, min_n=1))
def test_canonical_labeling_equals_the_reference_search(g):
    assert_labels_like_the_reference(g)


def test_canonical_labeling_equals_the_reference_search_on_symmetric_graphs(petersen):
    k33 = from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    cycles = [from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 13)]
    edgeless = [empty_graph(n) for n in range(1, 9)]
    for g in [petersen, permuted(petersen, 3), k33, permuted(k33, 5), *cycles, *edgeless]:
        assert_labels_like_the_reference(g)
    for g in TWINNED:
        assert_labels_like_the_reference(g)
        assert_labels_like_the_reference(permuted(g, 7))


def test_the_labelling_finds_each_automorphism_once_and_never_the_identity():
    # a leaf that ties the best adds its map untested; the orbit pruning alone
    # keeps the identity and repeats out
    rng = random.Random(0)
    hosts = list(enumerate_up_to(7))
    hosts += [random_graph(rng.randint(8, 12), rng.choice([0.2, 0.5, 0.8]), rng.randrange(2**30)) for _ in range(300)]
    hosts += [realize(parse_pattern(t)) for t in ("P4+3P1", "K5", "C7", "3K2", "2P2+P1", "broom(4,3)", "broomplus(2)")]
    assert len(hosts) == 1559
    searched = 0  # graphs with a map that moves more than two vertices, so no twin swap
    for g in hosts:
        gens = _canonical_labeling(g)[2]
        assert len({tuple(p) for p in gens}) == len(gens), to_graph6(g)
        for p in gens:
            assert p != list(range(g.n)), to_graph6(g)
            assert sorted(p) == list(range(g.n))
            for u in range(g.n):
                assert sum(1 << p[w] for w in range(g.n) if g.rows[u] >> w & 1) == g.rows[p[u]]
        searched += any(sum(p[v] != v for v in range(g.n)) > 2 for p in gens)
    assert searched == 509


def descent_canonical_labeling(g: Graph) -> tuple[int, list[int], list[list[int]]]:
    """``_canonical_labeling`` as it stood before its one-leaf returns:
    every graph, rigid or split by its twins alone, enters ``descend``, which
    rebuilds the usable maps at every sibling.  Kept verbatim so the exact
    generator list, which the orbit pruning and the lex-leader chains read,
    is compared, not only the group it generates."""
    n = g.n
    rows = g.rows
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(rows[v].bit_count(), []).append(v)
    stable: set[int] = set()
    cells = _refine(rows, [by_degree[d] for d in sorted(by_degree)], stable)

    best_bits: Optional[int] = None
    best_label: Optional[list[int]] = None
    gens: list[list[int]] = []  # automorphisms, as orig -> orig maps
    twin = list(range(n))  # the least twin of each vertex
    last: dict[int, int] = {}  # open or closed row -> the last vertex with it
    for v, row in enumerate(rows):
        for key in (row, row | 1 << v):  # false twins share the one, true twins the other
            if key in last:
                u = last[key]
                twin[v] = twin[u]
                gens.append([v if w == u else u if w == v else w for w in range(n)])
            last[key] = v

    def descend(cells: list[list[int]], fixed: list[int], stable: set[int]) -> None:
        nonlocal best_bits, best_label
        while True:
            target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
            if target is None or any(twin[v] != twin[cells[target][0]] for v in cells[target]):
                break
            # a cell of twins: every order of it is one orbit, and the
            # partition stays equitable, so the first order is the only path
            fixed = fixed + cells[target]
            cells = cells[:target] + [[v] for v in cells[target]] + cells[target + 1:]
        if target is None:
            label = [c[0] for c in cells]
            bits = _adjacency_bits(rows, label)
            if best_bits is None or bits < best_bits:
                best_bits = bits
                best_label = label
            elif bits == best_bits:
                perm = [0] * n
                for i in range(n):
                    perm[best_label[i]] = label[i]
                if any(perm[v] != v for v in range(n)) and perm not in gens:
                    gens.append(perm)
            return
        done = 0
        for v in cells[target]:
            usable = [p for p in gens if all(p[f] == f for f in fixed)]
            if _orbit(v, usable) & done:
                continue
            done |= 1 << v
            rest = [u for u in cells[target] if u != v]
            child = cells[:target] + [[v], rest] + cells[target + 1:]
            child_stable = set(stable)
            descend(_refine(rows, child, child_stable), fixed + [v], child_stable)

    descend(cells, [], stable)
    assert best_bits is not None and best_label is not None
    return best_bits, best_label, gens


def test_one_leaf_returns_keep_every_triple():
    # all graphs up to 7 vertices, a relabelled copy of each, seeded G(n, p)
    # up to 14 vertices and the twinned graphs: (bits, label, gens) all equal
    small = list(enumerate_up_to(7))
    assert len(small) == 1252
    rng = random.Random(26)
    seeded = [random_graph(n, rng.random(), rng.randrange(2**30)) for n in range(1, 15) for _ in range(60)]
    for g in small + [permuted(g, i) for i, g in enumerate(small)] + seeded + TWINNED + [permuted(g, 7) for g in TWINNED]:
        assert _canonical_labeling(g) == descent_canonical_labeling(g)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=12), st.integers(0, 2**30))
def test_one_leaf_returns_keep_every_triple_on_random_graphs(g, seed):
    for h in (g, permuted(g, seed)):
        assert _canonical_labeling(h) == descent_canonical_labeling(h)


def test_twin_seeding_saves_most_refinements(monkeypatch):
    import critcolor.graphs as graphs_module

    graphs = list(enumerate_up_to(7))
    calls = []
    real = graphs_module._refine
    monkeypatch.setattr(graphs_module, "_refine", lambda *args: calls.append(1) or real(*args))
    for g in graphs:
        _canonical_labeling(g)
    # 8,144 without the twin swaps and the twin-cell split
    assert len(calls) == 2295


@pytest.mark.parametrize("sizes", [(6,), (1,) * 6, (2, 3), (1, 5), (1, 2, 3), (1, 1, 2, 4)])
def test_graphs_of_twin_cells_need_no_search(monkeypatch, sizes):
    # edgeless, complete, K_{a,b} and complete multipartite graphs whose
    # parts differ in size: each degree cell is a twin class (parts of one
    # size share a degree cell, which then needs a search)
    import critcolor.graphs as graphs_module

    g = complete_multipartite(*sizes)
    calls = []
    real = graphs_module._refine
    monkeypatch.setattr(graphs_module, "_refine", lambda *args: calls.append(1) or real(*args))
    gens = _canonical_labeling(g)[2]
    assert len(calls) == 1

    def twins(u, v):
        return g.rows[u] & ~(1 << v) == g.rows[v] & ~(1 << u)

    # one swap per vertex with a twin below it, and nothing else
    assert len(gens) == sum(any(twins(u, v) for u in range(v)) for v in range(g.n))
    for p in gens:
        u, v = (w for w in range(g.n) if p[w] != w)
        assert (p[u], p[v]) == (v, u) and twins(u, v)


def test_canonical_form_size_limit():
    with pytest.raises(ValueError):
        canonical_form(empty_graph(17))


# ---------------------------------------------------------------------------
# exhaustive generation
# ---------------------------------------------------------------------------


def apply_map(p, mask: int) -> int:
    return sum(1 << p[v] for v in range(len(p)) if mask >> v & 1)


def group_closure(n: int, gens: list[list[int]]) -> set[tuple[int, ...]]:
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for p in gens:
            h = tuple(p[g[v]] for v in range(n))
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


def assert_reps_partition(n: int, gens: list[list[int]]) -> list[int]:
    reps = list(_orbit_reps(n, gens))
    group = group_closure(n, gens)
    for mask in range(1 << n):
        orbit = {apply_map(p, mask) for p in group}
        assert sum(rep in orbit for rep in reps) == 1
    return reps


def test_orbit_reps_without_generators_are_all_masks():
    assert list(_orbit_reps(4, [])) == list(range(16))
    assert list(_orbit_reps(0, [])) == [0]


def test_orbit_reps_of_the_dihedral_group_on_c5():
    # Burnside: (32 + 4*2 + 5*8) / 10 = 8 orbits of subsets of a 5-cycle
    rotation, reflection = [1, 2, 3, 4, 0], [0, 4, 3, 2, 1]
    assert len(assert_reps_partition(5, [rotation, reflection])) == 8


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orbit_reps_of_the_symmetric_group_are_the_sizes(n):
    swap = [1, 0] + list(range(2, n))
    cycle = list(range(1, n)) + [0]
    assert len(assert_reps_partition(n, [swap, cycle])) == n + 1


def test_orbit_reps_of_a_random_group():
    rng = random.Random(11)
    gens = []
    for _ in range(2):
        p = list(range(6))
        rng.shuffle(p)
        gens.append(p)
    assert_reps_partition(6, gens)


@pytest.mark.parametrize("floor", [1, 2, 3, 5])
def test_orbit_reps_above_a_floor_are_the_large_reps(floor):
    rotation, reflection = [1, 2, 3, 4, 0], [0, 4, 3, 2, 1]
    reps = list(_orbit_reps(5, [rotation, reflection]))
    assert list(_orbit_reps(5, [rotation, reflection], floor)) == [r for r in reps if r.bit_count() >= floor]


def random_small_group(n: int, kind: str, seed: int) -> list[list[int]]:
    # seeded generators of a group small enough to close: a cycle through
    # every vertex in a random order ("cycle"), or a cycle and a swap of each
    # block of a random partition into blocks of two or three vertices, and
    # one left over when needed ("blocks", the product of their symmetric groups)
    rng = random.Random(seed)
    order, blocks = list(range(n)), []
    rng.shuffle(order)
    while order:
        size = n if kind == "cycle" else rng.randint(2, 3)
        blocks.append(order[:size])
        order = order[size:]
    gens = []
    for block in blocks:
        cycle, swap = list(range(n)), list(range(n))
        for v, w in zip(block, block[1:] + block[:1]):
            cycle[v] = w
        swap[block[0]], swap[block[-1]] = block[-1], block[0]
        gens += [cycle] if kind == "cycle" else [cycle, swap]
    return gens


@pytest.mark.parametrize("kind", ["cycle", "blocks"])
@pytest.mark.parametrize("n", range(10))
def test_each_orbit_rep_is_the_least_mask_of_its_orbit(n, kind):
    # odd n splits the image tables unevenly; n = 9 is the largest parent
    # a walk extends (MAX_ENUMERATION_N = 10)
    gens = random_small_group(n, kind, seed=1000 * n + len(kind))
    group = group_closure(n, gens)
    least = {}  # mask -> the least mask of its orbit
    for mask in range(1 << n):
        if mask not in least:
            for image in {apply_map(p, mask) for p in group}:
                least[image] = mask
    everything = list(_orbit_reps(n, gens))
    for floor in range(n + 2):
        reps = list(_orbit_reps(n, gens, floor))
        assert all(least[rep] == rep for rep in reps)
        assert reps == sorted(set(reps))
        assert reps == [rep for rep in everything if rep.bit_count() >= floor]
        assert set(reps) == {least[mask] for mask in range(1 << n) if mask.bit_count() >= floor}


def test_orbit_reps_map_masks_past_the_low_byte():
    # the dihedral group of an 11-cycle, whose image tables split at bit 5;
    # Burnside: (2048 + 10*2 + 11*64) / 22
    rotation = list(range(1, 11)) + [0]
    reflection = [(11 - v) % 11 for v in range(11)]
    assert len(assert_reps_partition(11, [rotation, reflection])) == 126


def brute_count(n: int) -> int:
    keys = set()
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        keys.add(brute_canonical_key(from_edges(n, edges)))
    return len(keys)


def test_counts_match_labeled_dedup_oracle():
    for n in range(1, 5):
        assert len(list(enumerate_graphs(n))) == brute_count(n)


def test_counts_match_burnside_oracle(all_graphs_up_to_8):
    from oracles import burnside_graph_count

    for n in range(1, 9):
        assert burnside_graph_count(n) == ALL_COUNTS[n]
    for n in range(1, 8):
        assert len(list(enumerate_graphs(n))) == ALL_COUNTS[n]
    assert sum(g.n == 8 for g in all_graphs_up_to_8) == ALL_COUNTS[8]


def test_connected_counts():
    for n in range(1, 8):
        got = len(list(enumerate_graphs(n, connected_only=True)))
        assert got == CONNECTED_COUNTS[n]


def test_triangle_free_counts():
    # unlabeled triangle-free graphs by order
    want = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107}
    for n in range(1, 8):
        assert len(list(enumerate_graphs(n, filters=[clique(3)]))) == want[n]


def test_enumerated_graphs_are_canonical_distinct_and_filtered():
    from critcolor.patterns import find_induced

    seen = set()
    for g in enumerate_graphs(6, filters=[path(4)]):
        text = to_graph6(g)
        assert canonical_form(g) == text
        assert text not in seen
        seen.add(text)
        assert find_induced(g, path(4)) is None


def test_edge_free_enumeration_is_the_edgeless_graph():
    got = list(enumerate_graphs(5, filters=[clique(2)]))
    assert got == [empty_graph(5)]


# families for the differential tests of the family filter
FAMILIES = [
    ["P1"], ["K2"], ["K3"], ["P4"], ["2P2"], ["chair"], ["bull"], ["cricket"], ["P5"],
    ["P4+P1"], ["P4+2P1"], ["broom(4,1)"], ["broomplus(1)"], ["C5+P1"], ["K3", "2P2"],
]


@pytest.fixture(scope="module")
def all_graphs_up_to_6():
    return list(enumerate_up_to(6))


@pytest.mark.parametrize("family", FAMILIES, ids=",".join)
def test_pruned_enumeration_equals_post_filtering(family, all_graphs_up_to_6):
    # the generator prunes inside the search tree; hereditary closure means
    # that must agree with filtering the unpruned stream after the fact
    specs = [parse_pattern(t) for t in family]
    for n in range(1, 7):
        pruned = [to_graph6(g) for g in enumerate_graphs(n, filters=specs)]
        sieved = [to_graph6(g) for g in all_graphs_up_to_6 if g.n == n and is_free(g, specs)[0]]
        assert pruned == sieved


@pytest.mark.parametrize("family", FAMILIES, ids=",".join)
def test_forbidden_traces_reject_exactly_the_children_containing_the_family(family):
    # every mask of the table, not only the orbit representatives the walk reads
    specs = [parse_pattern(t) for t in family]
    trace_patterns = _trace_patterns(specs, 7)
    rejected = 0
    for parent in [Graph(0, ())] + list(enumerate_up_to(6, filters=specs)):
        table = _forbidden_traces(parent, trace_patterns)
        assert len(table) == 1 << parent.n
        for nb in range(1 << parent.n):
            assert table[nb] == (not is_free(_attach(parent, nb), specs)[0]), (to_graph6(parent), nb)
        rejected += sum(table)
    assert rejected > 0


def test_trace_patterns_skip_graphs_too_large_to_embed():
    assert _trace_patterns([path(6)], 5) == []
    assert len(_trace_patterns([path(6)], 6)) == 3  # one vertex per orbit
    assert _trace_patterns([union(path(4), *[path(1)] * 600)], 10) == []  # above the vertex cap


@pytest.fixture(scope="module")
def four_critical_up_to_7():
    return enumerate_critical(4, 7)


@pytest.mark.parametrize("spec_text", ["P4+P1", "2P2", "chair", "bull", "cricket"])
def test_critical_enumeration_equals_post_filtering(spec_text, four_critical_up_to_7):
    spec = parse_pattern(spec_text)
    want = [m for m in four_critical_up_to_7.members if is_free(parse_graph6(m), [spec])[0]]
    assert list(enumerate_critical(4, 7, [spec]).members) == want


@pytest.fixture(scope="module")
def four_critical_up_to_8():
    return enumerate_critical(4, 8)


@pytest.mark.parametrize("spec_text", ["K4", "C5", "P6", "C7", "P4+P1"])
def test_critical_enumeration_equals_post_filtering_at_order_8(spec_text, four_critical_up_to_8):
    # every kept child on 8 vertices is emitted, and so is every child with
    # a copy of K4, which needs 4 colours: such copies are dropped only by
    # the family test on the emitted classes
    spec = parse_pattern(spec_text)
    want = [m for m in four_critical_up_to_8.members if is_free(parse_graph6(m), [spec])[0]]
    assert len(want) < len(four_critical_up_to_8.members)
    assert list(enumerate_critical(4, 8, [spec]).members) == want


def colourable_parents(k: int, count: int, seed: int):
    """Seeded random (k-1)-colourable graphs on 0..8 vertices, dense enough
    that some of their children need all k colours."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_graph(rng.randint(0, 8), rng.choice([0.2, 0.4, 0.6, 0.8]), rng.randrange(2**30))
        if chroma.is_k_colorable(g, max(k - 1, 0)) is not None:
            out.append(g)
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_extendable_classes_decide_child_colourability(k):
    # a child is (k-1)-colourable exactly when its new vertex misses a class
    rng = random.Random(k)
    kinds = set()
    for parent in colourable_parents(k, 60, seed=k):
        classes = _extendable_classes(parent, k)
        # with n_max this far above the child, the minimum-degree rule asks for nothing
        classify_child = _critical_classifier(parent, k, parent.n + k + 1)
        for nb in rng.sample(range(1 << parent.n), min(1 << parent.n, 24)):
            colourable = chroma.is_k_colorable(_attach(parent, nb), k - 1) is not None
            assert any(not nb & s for s in classes) == colourable, (to_graph6(parent), nb, k)
            kind = classify_child(nb)
            assert (kind == _EXTEND) == colourable
            kinds.add(colourable)
    assert kinds == ({False} if k == 1 else {False, True})


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_extendable_classes_are_the_minimal_colour_classes(k):
    # by brute force: the independent sets S with chi(P - S) <= k - 2 that
    # contain no other such set
    for parent in colourable_parents(k, 25, seed=100 + k):
        valid = [
            s for s in range(1 << parent.n)
            if all(not parent.rows[v] & s for v in range(parent.n) if s >> v & 1)
            and chroma.is_k_colorable(induced_subgraph(parent, [v for v in range(parent.n) if not s >> v & 1]), k - 2)
            is not None
        ]
        minimal = {s for s in valid if not any(t != s and not t & ~s for t in valid)}
        classes = _extendable_classes(parent, k)
        assert len(classes) == len(minimal) and set(classes) == minimal, to_graph6(parent)
        assert [s.bit_count() for s in classes] == sorted(s.bit_count() for s in classes)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_emission_screen_equals_the_screens_on_the_child(k):
    rng = random.Random(200 + k)
    parents = [random_graph(rng.randint(0, 7), rng.choice([0.3, 0.5, 0.7]), rng.randrange(2**30)) for _ in range(40)]
    # 6K1, 3K2 and K1 + P3 + K2: the child is connected only when the new
    # vertex meets each of their six, three or three components
    parents += [empty_graph(6), from_edges(6, [(0, 1), (2, 3), (4, 5)]), from_edges(6, [(1, 2), (2, 3), (4, 5)])]
    for parent in parents:
        screen = _emission_screen(parent, k)
        for nb in range(1 << parent.n):
            child = _attach(parent, nb)
            want = (
                is_connected(child)
                and min(child.degree(v) for v in range(child.n)) >= k - 1
                and find_comparable_nonadjacent(child) is None
            )
            assert screen(nb) == want, (to_graph6(parent), nb, k)


def test_a_colourable_child_is_dropped_at_the_last_order():
    classify_last = _critical_classifier(complete_graph(3), 4, 4)
    assert classify_last(3) is None
    assert _critical_classifier(complete_graph(3), 4, 5)(3) == _EXTEND
    assert classify_last(7) == _EMIT  # K4


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_the_degree_rule_on_the_mask_is_the_childs_minimum_degree(k):
    # every need the classifier can ask at this k, from 0 up to k - 1 at n_max
    rng = random.Random(300 + k)
    outcomes = set()
    for parent in colourable_parents(k, 40, seed=300 + k):
        n = parent.n + 1
        unruled = _critical_classifier(parent, k, n + k)  # need -1
        for n_max in range(n, n + k):
            need = k - 1 - (n_max - n)
            short = _must_see(parent, need)
            classify_child = _critical_classifier(parent, k, n_max)
            for nb in rng.sample(range(1 << parent.n), min(1 << parent.n, 24)):
                child = _attach(parent, nb)
                enough = min(row.bit_count() for row in child.rows) >= need
                assert (nb.bit_count() >= need and not short & ~nb) == enough, (to_graph6(parent), nb, need)
                # the rule drops the child or leaves its class as it was
                want = unruled(nb) if enough else None
                assert classify_child(nb) == (None if want == _EXTEND and n == n_max else want)
                outcomes.add((enough, short < 0))
    # below k = 3 no need is above 1, so no parent vertex falls short by two
    assert outcomes == {(True, False), (False, False)} | ({(False, True)} if k > 2 else set())


def classifier_without_degree_rule(parent, k, n_max):
    """The critical classifier as it was before the minimum-degree rule."""
    classes = _extendable_classes(parent, k)
    screen = None

    def classify_child(nb):
        nonlocal screen
        if any(not nb & s for s in classes):
            return _EXTEND if parent.n + 1 < n_max else None
        if screen is None:
            screen = _emission_screen(parent, k)
        return _EMIT if screen(nb) else None

    return classify_child


DEGREE_RULE_CASES = [(k, 7, family) for family in FAMILIES for k in (3, 4, 5)] + [
    (4, 8, ["P4+P1"]), (4, 8, ["P5"]), (4, 8, []),
]


@pytest.mark.parametrize(
    "k, n_max, family", DEGREE_RULE_CASES,
    ids=[f"k{k}-n{n_max}-{','.join(family) or 'none'}" for k, n_max, family in DEGREE_RULE_CASES],
)
def test_the_degree_rule_keeps_every_member(k, n_max, family):
    specs = tuple(parse_pattern(t) for t in family)
    want = {}
    for _, _, emitted in _walk(n_max, specs, lambda parent: classifier_without_degree_rule(parent, k, n_max)):
        want.update((canon, g) for canon, g in emitted.items() if criticality_report(g, k).verdict)
    assert list(enumerate_critical(k, n_max, specs).members) == list(want)


def test_the_four_critical_p4_plus_2p1_free_graphs_up_to_9_are_pinned():
    # the paper's family at l = 2: the 141 members, pinned by the sha256 of
    # their canonical graph6 lines
    members = enumerate_critical(4, 9, [parse_pattern("P4+2P1")]).members
    assert len(members) == 141
    digest = hashlib.sha256("\n".join(members).encode()).hexdigest()
    assert digest == "31d16872a4424685489d282f1ffc1674f6c4dfef699721166f24f2479b751f06"


def test_trace_tables_are_built_only_for_parents_that_extend_a_child(monkeypatch):
    import critcolor.enumeration as enumeration

    listed = []
    real = enumeration._forbidden_traces
    monkeypatch.setattr(enumeration, "_forbidden_traces", lambda parent, tp: listed.append(parent) or real(parent, tp))
    db = enumerate_critical(4, 8, [parse_pattern("P4+P1")])
    assert len(db.members) == 9
    # 116 of the 339 parents build a table, none on 7 vertices, whose kept
    # children are all emitted; a table at every parent that keeps a child
    # makes 181, and one at every parent 522
    assert len(listed) == 116 and len(set(listed)) == len(listed)
    assert max(g.n for g in listed) == 6


# ---------------------------------------------------------------------------
# the canonical-deletion rule of the level walk
# ---------------------------------------------------------------------------


def reference_walk(n_max, family, classify):
    """The level walk without the canonical-deletion rule, with a trace
    table built for every parent: every orbit representative is looked up in
    the table first, and each one that passes is classified and
    canonicalised.  ``classify`` is applied as given, so the minimum-degree
    rule of the critical classifier is in both walks."""
    trace_patterns = _trace_patterns(family, n_max)
    parents = [Graph(0, ())]
    for n in range(1, n_max + 1):
        extended, emitted = {}, set()
        for parent in parents:
            forbidden = _forbidden_traces(parent, trace_patterns)
            classify_child = classify(parent)
            for nb in _orbit_reps(parent.n, _canonical_labeling(parent)[2]):
                if forbidden[nb]:
                    continue
                child = _attach(parent, nb)
                kind = classify_child(nb)
                if kind == _EXTEND:
                    canon = canonical_form(child)
                    if canon not in extended:
                        extended[canon] = parse_graph6(canon)
                elif kind == _EMIT:
                    emitted.add(canonical_form(child))
        parents = [extended[c] for c in sorted(extended)]
        yield n, parents, sorted(emitted)


def test_the_rule_keeps_every_level_of_plain_enumeration():
    got = [(n, [to_graph6(g) for g in level]) for n, level, _ in _walk(7, (), _extend_all)]
    want = [(n, [to_graph6(g) for g in level]) for n, level, _ in reference_walk(7, (), _extend_all)]
    assert got == want


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("family", FAMILIES, ids=",".join)
def test_the_rule_keeps_every_critical_member(family, k):
    specs = tuple(parse_pattern(t) for t in family)
    classify = lambda parent: _critical_classifier(parent, k, 7)  # noqa: E731
    got = list(_walk(7, specs, classify))
    want = list(reference_walk(7, specs, classify))
    assert len(got) == len(want) == 7
    for (_, got_parents, got_emitted), (_, want_parents, want_emitted) in zip(got, want):
        assert [to_graph6(g) for g in got_parents] == [to_graph6(g) for g in want_parents]
        # only emitted children that are not critical may go missing
        assert set(got_emitted) <= set(want_emitted)
    members = [c for _, _, emitted in want for c in emitted if criticality_report(parse_graph6(c), k).verdict]
    assert list(enumerate_critical(k, 7, specs).members) == members


def test_the_rule_canonicalises_few_duplicates(monkeypatch):
    import critcolor.enumeration as enumeration

    calls = []
    real = enumeration._canonical_labeling
    monkeypatch.setattr(enumeration, "_canonical_labeling", lambda g: calls.append(g) or real(g))
    graphs = list(enumerate_up_to(7))
    assert len(graphs) == 1252
    # one labelling per classified child (1,300 for 1,252 classes), none per
    # parent; each class was labelled about 4.6 times without the rule
    assert len(calls) == 1300
    calls.clear()
    db = enumerate_critical(4, 8, [parse_pattern("P4+P1")])
    assert len(db.members) == 9
    # 526 classified children and the family graph P4+P1; one emitted child
    # at n = 8 contains P4+P1 and is labelled before its class is dropped
    assert len(calls) == 527


def test_critical_enumeration_parses_none_of_its_graphs(monkeypatch):
    import critcolor.critical as critical
    import critcolor.graphs as graph_module

    parsed = []
    for module in (critical, graph_module):
        real = module.parse_graph6
        monkeypatch.setattr(module, "parse_graph6", lambda text, real=real: parsed.append(text) or real(text))
    # the walk hands over the emitted classes as graphs, and verifying reads
    # the database's graphs
    db = enumerate_critical(4, 8, [parse_pattern("P4+P1")])
    assert len(db.members) == 9 and verify_critdb(db)
    assert parsed == []


@pytest.mark.parametrize("n_max, family, classify", [
    (7, (), _extend_all),
    (8, (parse_pattern("P4+P1"),), lambda parent: _critical_classifier(parent, 4, 8)),
], ids=["plain", "critical"])
def test_parent_generators_are_automorphisms_of_the_canonical_parent(monkeypatch, n_max, family, classify):
    import critcolor.enumeration as enumeration

    # the walk asks for each parent's classifier just before its orbit reps
    parent_of = []
    real_reps = enumeration._orbit_reps

    def recording_classify(parent):
        parent_of.append(parent)
        return classify(parent)

    checked = []

    def orbit_reps(n, gens, floor=0):
        parent = parent_of[-1]
        assert parent.n == n and canonical_form(parent) == to_graph6(parent)
        for p in gens:
            assert sorted(p) == list(range(n))
            for u in range(n):
                assert sum(1 << p[w] for w in range(n) if parent.rows[u] >> w & 1) == parent.rows[p[u]]
        checked.append((parent, len(gens)))
        return real_reps(n, gens, floor)

    monkeypatch.setattr(enumeration, "_orbit_reps", orbit_reps)
    levels = list(_walk(n_max, family, recording_classify))
    parents = [Graph(0, ())] + [g for _, level, _ in levels[:-1] for g in level]
    assert [g for g, _ in checked] == parents
    assert len(checked) == {7: 209, 8: 339}[n_max]
    # the maps are not all trivial: the pruning has groups to work with
    assert sum(count for _, count in checked) > len(checked)


def test_canonical_form_under_many_permutations(petersen):
    for g in (petersen, from_edges(9, [(i, (i + 1) % 9) for i in range(9)])):
        canon = canonical_form(g)
        for seed in range(100):
            assert canonical_form(permuted(g, seed)) == canon


def test_enumerate_up_to_matches_per_order_runs():
    merged = [to_graph6(g) for g in enumerate_up_to(5, filters=[clique(3)])]
    split = [to_graph6(g) for n in range(1, 6) for g in enumerate_graphs(n, filters=[clique(3)])]
    assert merged == split


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))
    with pytest.raises(ValueError):
        list(enumerate_graphs(11))


# ---------------------------------------------------------------------------
# critical enumeration
# ---------------------------------------------------------------------------


def test_three_critical_graphs_are_the_odd_cycles():
    db = enumerate_critical(3, 7)
    want = [canonical_form(complete_graph(3)),
            canonical_form(from_edges(5, [(i, (i + 1) % 5) for i in range(5)])),
            canonical_form(from_edges(7, [(i, (i + 1) % 7) for i in range(7)]))]
    assert list(db.members) == want
    assert db.k == 3 and db.family == ()


def test_critical_cographs_are_cliques():
    db = enumerate_critical(4, 8, [path(4)])
    assert list(db.members) == [canonical_form(complete_graph(4))]


def test_family_members_above_the_vertex_cap_are_skipped():
    big = union(path(4), *[path(1)] * 600)
    assert enumerate_critical(3, 7, [big]).members == enumerate_critical(3, 7).members
    assert list(enumerate_up_to(5, [big, path(4)])) == list(enumerate_up_to(5, [path(4)]))


def test_two_critical_is_a_single_edge():
    db = enumerate_critical(2, 6)
    assert list(db.members) == [canonical_form(complete_graph(2))]


def test_verify_critdb_accepts_freshly_enumerated_db():
    db = enumerate_critical(3, 7)
    assert verify_critdb(db)


@pytest.mark.parametrize("family", [[], ["P1"], ["K2"]])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumerate_critical_output_verifies(k, family):
    # the family filter applies at every order, the single vertex included
    db = enumerate_critical(k, 5, [parse_pattern(t) for t in family])
    assert verify_critdb(db)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("family", [[], ["K2"], ["P4+P1"]], ids=lambda f: ",".join(f) or "none")
def test_the_small_critical_lists_are_pinned(n_max, family):
    # with k - 1 = 0 colours no child is colourable, so only the single
    # vertex is 1-critical; K2 is the only 2-critical graph
    specs = [parse_pattern(t) for t in family]
    assert enumerate_critical(1, n_max, specs).members == ("@",)
    want = () if n_max < 2 or family == ["K2"] else (canonical_form(complete_graph(2)),)
    assert enumerate_critical(2, n_max, specs).members == want


@pytest.fixture(scope="module")
def all_graphs_up_to_8():
    return list(enumerate_up_to(8))


def screened_critical(graphs, k):
    """Independent of the critical walk: the graphs that pass the necessary
    conditions and the full check, each confirmed by the naive chromatic
    number of the graph and of its vertex deletions."""
    kept = [
        g for g in graphs
        if is_connected(g) and min(g.degree(v) for v in range(g.n)) >= k - 1 and criticality_report(g, k).verdict
    ]
    for g in kept:
        assert naive_chromatic(g) == k
        assert all(naive_chromatic(delete_vertex(g, v)) == k - 1 for v in range(g.n))
    return [to_graph6(g) for g in kept]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_critical_enumeration_equals_screening_every_graph(k, all_graphs_up_to_8):
    kept = screened_critical([g for g in all_graphs_up_to_8 if g.n <= 7], k)
    assert kept == list(enumerate_critical(k, 7).members)
    assert len(kept) == {3: 3, 4: 9, 5: 2}[k]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_critical_enumeration_equals_screening_every_graph_to_order_8(k, all_graphs_up_to_8):
    kept = screened_critical(all_graphs_up_to_8, k)
    assert kept == list(enumerate_critical(k, 8).members)
    assert len(kept) == {3: 3, 4: 17, 5: 9}[k]


def test_p1_free_family_has_no_critical_graphs():
    assert enumerate_critical(1, 3, [parse_pattern("P1")]).members == ()


def test_verify_critdb_reuses_no_answer_kept_on_a_member():
    db = enumerate_critical(4, 7)
    p4 = realize(path(4))
    members, graphs_ = db.members[1:], db.member_graphs[1:]  # K4 aside, each holds a P4
    for g in graphs_:
        assert is_free(g, [path(4)])[0] is False
        g.__dict__["_absent"] = (p4,)  # a false kept answer, which the package never makes
        g.__dict__["_floor"] = 4
    assert is_free(graphs_[0], [path(4)])[0] and chroma.is_k_colorable(graphs_[0], 4) is None
    assert not verify_critdb(CriticalDb(4, (path(4),), members, graphs_))
    assert verify_critdb(CriticalDb(4, (), members, graphs_))


def test_verify_critdb_rejects_tampering():
    db = enumerate_critical(3, 7)
    # non-canonical relabeling of a member
    twisted = to_graph6(permuted(parse_graph6(db.members[1]), seed=1))
    assert twisted != db.members[1]
    assert not verify_critdb(CriticalDb(db.k, db.family, (db.members[0], twisted)))
    # a duplicate
    assert not verify_critdb(CriticalDb(db.k, db.family, (db.members[0],) * 2))
    # a non-critical member
    assert not verify_critdb(CriticalDb(db.k, db.family, (canonical_form(empty_graph(2)),)))
    # a member violating the family
    assert not verify_critdb(CriticalDb(3, (parse_pattern("C5"),), db.members))


# ---------------------------------------------------------------------------
# stream ingestion
# ---------------------------------------------------------------------------


def test_ingest_strict_names_the_line():
    lines = ["Bw", "", "D?"]
    with pytest.raises(ValueError, match="line 3"):
        list(ingest_graph6_stream(lines))


def test_ingest_skips_blank_lines():
    got = list(ingest_graph6_stream(["", "Bw", "   ", "Ch", ""]))
    assert [g.n for g in got] == [3, 4]
