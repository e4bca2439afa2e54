"""End-to-end acceptance suite.

Each test prints one `criterion N: PASS/FAIL` line (run pytest with -s to
see them) and then asserts, so a red suite still shows which claims broke.
The heavy enumerations are shared through module-scoped fixtures.
"""

import pytest

from critcolor.chroma import (
    Coloring,
    chromatic_number,
    clique_number,
    is_k_colorable,
    is_proper_coloring,
)
from critcolor.cograph import find_anticomplete_pair
from critcolor.construct import bound_f, color_kk_free
from critcolor.critical import (
    CriticalWitness,
    certify_k_colorable,
    find_comparable_nonadjacent,
    find_lemma_xy_violation,
)
from critcolor.enumeration import (
    canonical_form,
    enumerate_critical,
    enumerate_up_to,
)
from critcolor.graphs import (
    complete_graph,
    from_edges,
    is_anticomplete_between,
    is_complete_between,
    is_connected,
    mask_of,
    parse_graph6,
    set_neighborhood_mask,
    to_graph6,
)
from critcolor.patterns import clique, embedding_is_induced, path, plus_isolated

from oracles import naive_chromatic


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def graphs_up_to_7():
    return list(enumerate_up_to(7))


@pytest.fixture(scope="module")
def graphs_up_to_8():
    return list(enumerate_up_to(8))


@pytest.fixture(scope="module")
def cographs_up_to_8():
    return list(enumerate_up_to(8, filters=[path(4)]))


def test_criterion_01_perfect_base_case():
    bad = []
    for k in range(2, 7):
        db = enumerate_critical(k, 8, [path(4)])
        if list(db.members) != [canonical_form(complete_graph(k))]:
            bad.append((k, db.members))
    report(1, not bad,
           f"P4-free k-critical graphs on <= 8 vertices are exactly K_k for k=2..6"
           f"{'' if not bad else f'; deviations {bad}'}")


def test_criterion_02_triangle_free_colouring_bound():
    checked = 0
    violations = 0
    for ell in (1, 2):
        family = [plus_isolated(path(4), ell), clique(3)]
        for g in enumerate_up_to(9, filters=family):
            col = color_kk_free(g, ell, 3, check=False)
            ok = (is_proper_coloring(g, col)
                  and col.palette_size <= ell + 2
                  and chromatic_number(g)[0] <= ell + 2)
            checked += 1
            violations += not ok
    report(2, checked > 0 and violations == 0,
           f"{checked} triangle-free family members on <= 9 vertices coloured "
           f"properly within ell+2 colours, {violations} violations")


def test_criterion_03_general_clique_bound():
    closed_form_ok = all(
        bound_f(k, ell) == (ell * bound_f(k - 1, ell) + (k - 1) if k > 3 else ell + 2)
        for k in range(3, 9) for ell in range(0, 6)
    )
    family = [plus_isolated(path(4), 1), clique(4)]
    checked = 0
    violations = 0
    for g in enumerate_up_to(8, filters=family):
        col = color_kk_free(g, 1, 4, check=False)
        checked += 1
        violations += not (is_proper_coloring(g, col) and col.palette_size <= bound_f(4, 1))
    report(3, closed_form_ok and checked > 0 and violations == 0,
           f"bound_f closed form matches its recursion on 3<=k<=8, 0<=ell<=5; "
           f"{checked} K4-free family members stayed within {bound_f(4, 1)} colours, "
           f"{violations} violations")


def test_criterion_04_anticomplete_pair_totality(cographs_up_to_8):
    checked = 0
    failures = 0
    for g in cographs_up_to_8:
        if g.n < 2 or not is_connected(g) or g == complete_graph(g.n):
            continue
        pair = find_anticomplete_pair(g)
        x, y, w = sorted(pair.x), sorted(pair.y), sorted(pair.w)
        ok = (bool(x) and bool(y) and not set(x) & set(y)
              and is_anticomplete_between(g, x, y)
              and set_neighborhood_mask(g, mask_of(x)) == mask_of(pair.w)
              == set_neighborhood_mask(g, mask_of(y))
              and bool(pair.w)
              and is_complete_between(g, x, w)
              and is_complete_between(g, y, w))
        checked += 1
        failures += not ok
    report(4, checked > 0 and failures == 0,
           f"anticomplete pair found and re-verified on all {checked} connected "
           f"non-complete P4-free graphs with n <= 8, {failures} failures")


def test_criterion_05_critical_graphs_lack_obstructions():
    checked = 0
    violations = 0
    for k in range(1, 6):
        for text in enumerate_critical(k, 8).members:
            g = parse_graph6(text)
            checked += 1
            if k > 1 and min(g.degree(v) for v in range(g.n)) < k - 1:
                violations += 1
            elif find_comparable_nonadjacent(g) is not None:
                violations += 1
            elif find_lemma_xy_violation(g, 2) is not None:
                violations += 1
    report(5, checked > 0 and violations == 0,
           f"{checked} critical graphs (k <= 5, n <= 8) have min degree >= k-1, no "
           f"comparable nonadjacent pair, no anticomplete obstruction, {violations} violations")


def test_criterion_06_p5_free_4_critical_family():
    db = enumerate_critical(4, 9, [path(5)])
    k4 = canonical_form(complete_graph(4))
    w5 = canonical_form(from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                       (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]))
    ok = k4 in db.members and w5 in db.members and 2 <= len(db.members) <= 12
    report(6, ok,
           f"P5-free 4-critical search up to n=9 found {len(db.members)} members "
           f"including K4 and W5, within the known total of 12")


def test_criterion_07_chromatic_oracle_equivalence(graphs_up_to_7, cographs_up_to_8):
    mismatches = sum(
        chromatic_number(g)[0] != naive_chromatic(g) for g in graphs_up_to_7
    )
    imperfect = sum(
        chromatic_number(g)[0] != clique_number(g) for g in cographs_up_to_8
    )
    report(7, len(graphs_up_to_7) == 1252 and mismatches == 0 and imperfect == 0,
           f"chromatic_number agrees with the naive colourer on all "
           f"{len(graphs_up_to_7)} classes with n <= 7 and equals omega on all "
           f"{len(cographs_up_to_8)} P4-free graphs with n <= 8")


def test_criterion_08_three_critical_are_odd_cycles():
    db = enumerate_critical(3, 9)
    want = [canonical_form(from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
            for n in (3, 5, 7, 9)]
    ok = list(db.members) == want
    report(8, ok,
           f"3-critical graphs up to n=9 are exactly K3, C5, C7, C9 "
           f"(got {len(db.members)} members)")


def test_criterion_09_format_fidelity(graphs_up_to_8):
    bad_round_trips = sum(parse_graph6(to_graph6(g)) != g for g in graphs_up_to_8)
    by_order = {}
    for g in graphs_up_to_8:
        by_order[g.n] = by_order.get(g.n, 0) + 1
    want = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    counts_ok = all(by_order[n] == want[n] for n in want)
    report(9, bad_round_trips == 0 and counts_ok,
           f"graph6 round-trips bit-exact on {len(graphs_up_to_8)} graphs with "
           f"n <= 8; counts for n=1..7 match 1, 2, 4, 11, 34, 156, 1044")


def test_criterion_10_certification_soundness(cographs_up_to_8):
    db = enumerate_critical(4, 8, [path(4)])  # membership: exactly K4
    checked = 0
    failures = 0
    for g in cographs_up_to_8:
        want = is_k_colorable(g, 3)
        got = certify_k_colorable(g, 3, db)
        checked += 1
        if want is None:
            ok = (isinstance(got, CriticalWitness)
                  and embedding_is_induced(
                      g, parse_graph6(got.pattern_graph6), got.embedding))
        else:
            ok = isinstance(got, Coloring) and is_proper_coloring(g, got)
        failures += not ok
    report(10, checked > 0 and failures == 0,
           f"certified 3-colourability agrees with the direct decision on all "
           f"{checked} P4-free graphs with n <= 8 and every negative witness "
           f"re-verified, {failures} failures")
