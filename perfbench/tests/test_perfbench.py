"""Tests of the benchmark itself: tracer arithmetic, output gates, stream
determinism and repeatable call counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import reference as ref  # noqa: E402
import workloads as w  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

cc = w.cc


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("chroma.clique_number", lambda: 1)

    def body():
        return leaf() + leaf()

    tracer.trace_id = 7
    assert tracer.wrap("chroma.chromatic_number", body)() == 2
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.trace) == [7, 7, 7]
    assert tracer.self_times() == [10.0 - 2.0 - 2.5, 2.0, 2.5]
    assert tracer.totals() == {"chroma.chromatic_number": (1, 5.5), "chroma.clique_number": (2, 4.5)}
    m = tracer.layer_metrics()
    assert m["chroma.chromatic_number.share"] == 0.55
    assert m["chroma.clique_number.calls"] == 2
    assert m["graphs.to_graph6.calls"] == 0


def test_span_closes_when_the_call_raises():
    ticks = iter([0.0, 2.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("graphs.parse_graph6", boom)()
    assert tracer.self_times() == [2.0]
    assert tracer._stack == [-1]


def test_install_wraps_every_binding_and_uninstall_restores_it():
    originals = {
        (mod, name): getattr(mod, name)
        for mod, name in [
            (cc.enumeration, "find_induced_subgraph"),
            (cc.critical, "find_induced_subgraph"),
            (cc.patterns, "find_induced_subgraph"),
            (cc.construct, "recognize"),
            (cc.chroma, "is_k_colorable"),
            (cc, "canonical_form"),
        ]
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, name), fn in originals.items():
            assert getattr(mod, name).__wrapped__ is fn
        cc.chromatic_number(cc.parse_graph6("Dhc"))
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    assert tracer.totals()["chroma.is_k_colorable"][0] >= 1


def test_probe_subtracts_its_samples_and_averages_them():
    probe = SpeedProbe()
    probe.starts = [1.0, 2.0, 3.0]
    probe.durations = [NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S]
    assert probe.busy(1.5, 3.5) == pytest.approx(6 * NOMINAL_S)
    assert probe.busy(0.0, 1.0) == 0.0
    assert probe.slowdown(1.5, 3.5) == pytest.approx(3.0)
    assert probe.slowdown(3.5, 9.0) is None


def test_generate_gate_rejects_tampered_output():
    graphs = list(cc.enumerate_up_to(4))
    pinned = w.generate_digest(graphs)
    assert pinned["counts"][:4] == [1, 2, 4, 11]
    swapped = graphs[:-1] + [cc.complement(graphs[-1])]
    assert w.generate_check(pinned, [4], [graphs, graphs[:-1], swapped, None]) == [True, False, False, False]


def test_critical_gate_rejects_tampered_output():
    pinned = w.load_expected()["critical"]
    members = tuple(pinned["members"])
    assert len(members) == 9 and members[0] == "C~" and members[-1] == "Fb]lg"
    tampered = members[:-1] + ("Fb]lw",)
    assert w.critical_check(pinned, [8], [members, members[1:], tampered, None]) == [True, False, False, False]


def small_stream_context(seed: int, count: int) -> w.StreamContext:
    lines = w.make_stream(seed, count).decode("ascii").splitlines()
    return w.StreamContext(lines, cc.enumerate_critical(w.CERTIFY_K + 1, 6), None)


def test_stream_gate_rejects_tampered_answers():
    ctx = small_stream_context(3, 12)
    answers = [w.stream_op(ctx, line) for line in ctx.lines]
    assert all(w.stream_check(ctx, ctx.lines, answers))
    a = answers[0]
    bad_colouring = dataclasses.replace(a, coloring=cc.Coloring(a.chi, (1,) * a.graph.n))
    bad_chi = dataclasses.replace(a, chi=a.chi + 1)
    assert w.stream_check(ctx, ctx.lines[:1], [bad_colouring]) == [False]
    assert w.stream_check(ctx, ctx.lines[:1], [bad_chi]) == [False]
    digest = w.stream_digest(answers)
    ctx.sha256 = digest
    stream = w.WORKLOADS["stream"]
    assert stream.digest(ctx, answers) is True
    assert stream.digest(ctx, [bad_chi] + answers[1:]) is False
    assert stream.digest(ctx, answers[:-1] + [None]) is False


def test_unpinned_seed_is_held_to_its_first_pass():
    ctx = small_stream_context(4, 10)
    answers = [w.stream_op(ctx, line) for line in ctx.lines]
    assert ctx.sha256 is None and all(w.stream_check(ctx, ctx.lines, answers))
    assert ctx.first_pass == w.stream_digest(answers)
    assert w.stream_matches(ctx, answers)
    a = answers[0]
    other = dataclasses.replace(a, coloring=cc.Coloring(a.chi, tuple(a.chi + 1 - c for c in a.coloring.assignment)))
    assert w.stream_check(ctx, ctx.lines[:1], [other]) == [True]  # a valid answer, but not the same one
    assert not w.stream_matches(ctx, [other] + answers[1:])


def test_reference_rejects_wrong_answers_that_are_self_consistent():
    c6 = cc.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    line = w.graph6_of(c6)
    ctx = small_stream_context(0, 1)
    a = w.stream_op(ctx, line)
    assert (a.chi, a.omega, a.ell) == (2, 2, 1)
    assert w.stream_answer_ok(ctx, line, a) and w.stream_answer_optimal(line, a)

    # two triangles have C6's degree sequence but are not isomorphic to it
    two_triangles = cc.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    wrong_canon = dataclasses.replace(a, canon=cc.canonical_form(two_triangles))
    # deleting a vertex of C6 leaves a path: chi stays 2, so claiming 1 is wrong
    wrong_report = dataclasses.replace(a, report=dataclasses.replace(a.report, per_vertex=(1,) + a.report.per_vertex[1:]))
    for wrong in (wrong_canon, wrong_report):
        assert w.stream_answer_ok(ctx, line, wrong)
        assert not w.stream_answer_optimal(line, wrong)

    three_colours = cc.Coloring(3, (1, 2, 1, 2, 1, 3))
    for wrong in (
        dataclasses.replace(a, chi=3, coloring=three_colours,
                            report=dataclasses.replace(a.report, chi=3, per_vertex=(3,) * 6)),
        dataclasses.replace(a, ell=2),
        dataclasses.replace(a, omega=1),
    ):
        assert not w.stream_answer_optimal(line, wrong)


def test_reference_code_on_small_graphs():
    k4 = [0b1110, 0b1101, 0b1011, 0b0111]
    assert ref.colourable(k4, 0b1111, 4) and not ref.colourable(k4, 0b1111, 3)
    assert ref.colourable(k4, 0b0111, 3)
    assert ref.clique_number(k4, 0b1111) == 4 and ref.independence_number(k4, 0b1111) == 1
    p4 = [0b0010, 0b0101, 0b1010, 0b0100]
    assert ref.least_free_ell(p4) == 1 and ref.least_free_ell(k4) == 0
    p4_and_two = p4 + [0, 0]  # P4 + 2 P1
    assert ref.least_free_ell(p4_and_two) == 3
    assert ref.isomorphic(p4, [0b1100, 0b1000, 0b0001, 0b0011])  # the path 2-0-3-1
    c6 = [1 << (v + 1) % 6 | 1 << (v - 1) % 6 for v in range(6)]
    two_triangles = [0b000110, 0b000101, 0b000011, 0b110000, 0b101000, 0b011000]
    assert not ref.isomorphic(c6, two_triangles)


def test_stream_is_deterministic_per_seed():
    a = w.make_stream(11, 200)
    assert a == w.make_stream(11, 200)
    assert a != w.make_stream(12, 200)
    lines = a.decode("ascii").splitlines()
    assert len(lines) == 200
    for line in lines:
        g = cc.parse_graph6(line)
        assert g.n in w.STREAM_ORDERS
        assert w.graph6_of(g) == line


def traced_counts(wl: w.Workload, ctx) -> dict[str, float]:
    tally = w.Tally()
    tracer = w.traced_pass(wl, ctx, tally)
    assert tally.failed == 0
    roots = [wl.root for wl in w.WORKLOADS.values()]
    return {k: v for k, v in tracer.layer_metrics(roots).items() if not k.endswith(("self_s", "share"))}


def test_call_counts_repeat_across_traced_runs():
    critical = dataclasses.replace(w.WORKLOADS["critical"], items=lambda ctx: [6])
    ctx = {"members": list(w.critical_op(None, 6))}
    first = traced_counts(critical, ctx)
    assert first == traced_counts(critical, ctx)
    assert first["patterns.find_induced_subgraph.calls"] > 0
    assert first["enumeration.enumerate_critical.calls"] == 1

    stream_ctx = small_stream_context(5, 15)
    first = traced_counts(w.WORKLOADS["stream"], stream_ctx)
    assert first == traced_counts(w.WORKLOADS["stream"], stream_ctx)
    assert first["bench.stream_graph.calls"] == 15
    assert first["graphs.parse_graph6.calls"] >= 15
    # every wrapper is gone again, so untraced runs stay clean
    assert not hasattr(cc.enumeration.canonical_form, "__wrapped__")


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "critical", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
