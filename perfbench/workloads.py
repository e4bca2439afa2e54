"""The benchmark's workloads, and the process that runs one of them.

    python3 perfbench/workloads.py --workload stream --seed 1 --seconds 20 --trace 0

prints one JSON line with the workload's result; ``run.py`` starts this
process once per set-up sample and once for the measurement, and turns the
lines into the benchmark's report.  Every workload is a closed loop in one
thread: the next operation starts only after the previous answer returns.

- ``generate``: one operation is ``enumerate_up_to(8)``, all 13,598 classes.
  It loads canonical forms and graph6 I/O and calls neither the pattern
  filter nor any colouring, so filter and colouring work must leave it flat.
- ``critical``: one operation is ``enumerate_critical(4, 8, [P4+P1])``, the
  paper's family.  It loads the filter, the k-colouring decision, the
  criticality screens and canonical forms of the enumeration hot path.
- ``stream``: one operation answers one line of a seeded graph6 stream of
  G(n, p) graphs, n in 7..11 and p in 0.3..0.7, with a fixed set of
  per-graph queries.  Only this workload parses outside input, computes
  chromatic and clique numbers of random dense graphs, and calls
  ``construct``, ``cograph`` and ``certify_k_colorable``.

A run repeats whole passes (one enumeration, or the whole stream) until the
timed passes add up to ``--seconds``.  Answers are checked after each pass,
outside the timed region, against the digests pinned in ``expected.json``;
on ``stream`` the first pass is also checked against the benchmark's own
reference code (``reference.py``), so that seeds without a pin are checked
for optimal answers too.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

from speed import SETUP_PERIOD_S, SpeedProbe, slowdown_now  # noqa: E402

# A worker samples the host's speed from its first line on, so that set-up
# time, imports included, is rescaled like pass times (see setup_seconds).
SETUP_PROBE = SpeedProbe(SETUP_PERIOD_S).__enter__() if __name__ == "__main__" else None

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import critcolor as cc  # noqa: E402

import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
SPAN_DIR = ROOT / ".perfbench"

GENERATE_N = 8
CRITICAL_K = 4
CRITICAL_N = 8
CRITICAL_FAMILY = "P4+P1"
STREAM_GRAPHS = 4000
STREAM_ORDERS = (7, 8, 9, 10, 11)
STREAM_DENSITIES = (0.3, 0.4, 0.5, 0.6, 0.7)
CERTIFY_K = 3
CERTIFY_DB_N = 7


def encode_graph6(n: int, bits: list[int]) -> str:
    """graph6 text from the upper-triangle bits in graph6 pair order
    (0,1), (0,2), (1,2), (0,3), ...; short form, so n <= 62."""
    padded = bits + [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + sum(b << (5 - j) for j, b in enumerate(padded[i:i + 6])))
        for i in range(0, len(padded), 6)
    )
    return chr(63 + n) + body


def graph6_of(g: cc.Graph) -> str:
    """The benchmark's own graph6 encoding of a library graph, so that the
    output digests do not lean on the library's encoder."""
    return encode_graph6(g.n, [g.rows[u] >> v & 1 for v in range(g.n) for u in range(v)])


def make_stream(seed: int, count: int = STREAM_GRAPHS) -> bytes:
    """A graph6 stream, one G(n, p) graph per line; the same seed gives the
    same bytes.  Line i has n = STREAM_ORDERS[i % 5] and p =
    STREAM_DENSITIES[i // 5 % 5], so every seed has the same mix of sizes
    and densities and seeds differ only in the edges drawn."""
    rng = random.Random(seed)
    lines = []
    for i in range(count):
        n = STREAM_ORDERS[i % len(STREAM_ORDERS)]
        p = STREAM_DENSITIES[i // len(STREAM_ORDERS) % len(STREAM_DENSITIES)]
        lines.append(encode_graph6(n, [int(rng.random() < p) for _ in range(n * (n - 1) // 2)]))
    return ("\n".join(lines) + "\n").encode("ascii")


def sha256_lines(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="ascii") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def generate_op(ctx: dict, n: int) -> list[cc.Graph]:
    return list(cc.enumerate_up_to(n))


def generate_digest(graphs: list[cc.Graph]) -> dict:
    counts = [0] * GENERATE_N
    for g in graphs:
        counts[g.n - 1] += 1
    return {"counts": counts, "sha256": sha256_lines([graph6_of(g) for g in graphs])}


def generate_check(ctx: dict, items: list, answers: list) -> list[bool]:
    pinned = {"counts": ctx["counts"], "sha256": ctx["sha256"]}
    return [a is not None and generate_digest(a) == pinned for a in answers]


# ---------------------------------------------------------------------------
# critical
# ---------------------------------------------------------------------------


def critical_op(ctx: dict, n: int) -> tuple[str, ...]:
    return cc.enumerate_critical(CRITICAL_K, n, [cc.parse_pattern(CRITICAL_FAMILY)]).members


def critical_check(ctx: dict, items: list, answers: list) -> list[bool]:
    return [a is not None and list(a) == ctx["members"] for a in answers]


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------


@dataclass
class StreamContext:
    lines: list[str]
    db: cc.CriticalDb
    sha256: Optional[str]  # pinned answer digest for this seed, if recorded
    first_pass: Optional[str] = None  # answer digest of the first checked pass


@dataclass(frozen=True)
class StreamAnswer:
    graph: cc.Graph
    canon: str
    chi: int
    coloring: cc.Coloring
    omega: int
    report: cc.CritReport
    ell: int  # least ell with no induced P4+ell*P1
    hit: Optional[cc.Embedding]  # the induced P4+(ell-1)*P1 found last
    palette: cc.Coloring  # color_kk_free(g, ell, max(3, omega+1))
    cert: Any  # certify_k_colorable(g, 3, db)


def p4_plus(ell: int) -> cc.PatternSpec:
    return cc.path(4) if ell == 0 else cc.plus_isolated(cc.path(4), ell)


def stream_setup(seed: int, expected: dict) -> StreamContext:
    text = make_stream(seed).decode("ascii")
    db = cc.enumerate_critical(CERTIFY_K + 1, CERTIFY_DB_N)
    return StreamContext(text.splitlines(), db, expected["sha256"].get(str(seed)))


def stream_op(ctx: StreamContext, line: str) -> StreamAnswer:
    g = cc.parse_graph6(line)
    canon = cc.canonical_form(g)
    chi, coloring = cc.chromatic_number(g)
    omega = cc.clique_number(g)
    report = cc.criticality_report(g, chi)
    ell, hit = 0, None
    while (emb := cc.find_induced(g, p4_plus(ell))) is not None:
        ell, hit = ell + 1, emb
    palette = cc.color_kk_free(g, ell, max(3, omega + 1))
    cert = cc.certify_k_colorable(g, CERTIFY_K, ctx.db)
    return StreamAnswer(g, canon, chi, coloring, omega, report, ell, hit, palette, cert)


def stream_answer_ok(ctx: StreamContext, line: str, a: StreamAnswer) -> bool:
    """Re-verify one answer against what it claims."""
    g = a.graph
    if graph6_of(g) != line:
        return False
    canon = cc.parse_graph6(a.canon)
    if canon.n != g.n or sorted(canon.rows[v].bit_count() for v in range(g.n)) != sorted(
        g.rows[v].bit_count() for v in range(g.n)
    ):
        return False
    if not (cc.is_proper_coloring(g, a.coloring) and a.coloring.palette_size == a.chi):
        return False
    if not 1 <= a.omega <= a.chi:
        return False
    r = a.report
    if r.chi != a.chi or len(r.per_vertex) != g.n or any(c not in (a.chi - 1, a.chi) for c in r.per_vertex):
        return False
    if r.verdict != all(c == a.chi - 1 for c in r.per_vertex):
        return False
    if a.ell > 0 and not (a.hit and cc.embedding_is_induced(g, cc.patterns.realize(p4_plus(a.ell - 1)), a.hit)):
        return False
    k = max(3, a.omega + 1)
    if not (cc.is_proper_coloring(g, a.palette) and a.chi <= a.palette.palette_size <= cc.bound_f(k, a.ell)):
        return False
    if isinstance(a.cert, cc.Coloring):
        return cc.is_proper_coloring(g, a.cert) and a.cert.palette_size <= CERTIFY_K
    pattern = cc.parse_graph6(a.cert.pattern_graph6)
    if a.cert.member_index is not None and ctx.db.members[a.cert.member_index] != a.cert.pattern_graph6:
        return False
    return a.chi > CERTIFY_K and cc.embedding_is_induced(g, pattern, a.cert.embedding)


def relabel(g: cc.Graph, perm: list[int]) -> cc.Graph:
    """g with vertex v renamed perm[v]."""
    rows = [0] * g.n
    for v in range(g.n):
        rows[perm[v]] = sum(1 << perm[u] for u in ref.bits(g.rows[v]))
    return cc.from_rows(g.n, rows)


def stream_answer_optimal(line: str, a: StreamAnswer) -> bool:
    """Check with the benchmark's reference code what stream_answer_ok
    cannot: chi, omega, every per-vertex chromatic number and ell are exact,
    and the canonical form is isomorphic to the input and the same for a
    relabelled copy of it."""
    rows, full = list(a.graph.rows), (1 << a.graph.n) - 1
    if ref.colourable(rows, full, a.chi - 1) or a.omega != ref.clique_number(rows, full):
        return False
    if any(ref.colourable(rows, full & ~(1 << v), a.chi - 1) != (c == a.chi - 1)
           for v, c in enumerate(a.report.per_vertex)):
        return False
    if a.ell != ref.least_free_ell(rows) or not ref.isomorphic(rows, list(cc.parse_graph6(a.canon).rows)):
        return False
    perm = list(range(a.graph.n))
    random.Random(line).shuffle(perm)
    return cc.canonical_form(relabel(a.graph, perm)) == a.canon


def stream_answer_text(a: Optional[StreamAnswer]) -> str:
    if a is None:
        return "error"
    if isinstance(a.cert, cc.Coloring):
        cert = f"colouring {a.cert.assignment}"
    else:
        cert = f"witness {a.cert.member_index} {a.cert.pattern_graph6} {a.cert.embedding.mapping}"
    return (f"{a.canon} chi={a.chi} {a.coloring.assignment} omega={a.omega} "
            f"per_vertex={a.report.per_vertex} verdict={a.report.verdict} ell={a.ell} "
            f"hit={a.hit.mapping if a.hit else None} palette={a.palette.assignment} {cert}")


def stream_digest(answers: list) -> str:
    return sha256_lines([stream_answer_text(a) for a in answers])


def stream_check(ctx: StreamContext, items: list, answers: list) -> list[bool]:
    """Re-verify every answer; the first pass's answers are also checked for
    optimality, and later passes must repeat them (see ``stream_matches``)."""
    verdicts = [a is not None and stream_answer_ok(ctx, line, a) for line, a in zip(items, answers)]
    if ctx.first_pass is None:
        verdicts = [ok and stream_answer_optimal(line, a) for ok, line, a in zip(verdicts, items, answers)]
        ctx.first_pass = stream_digest(answers)
    return verdicts


def stream_matches(ctx: StreamContext, answers: list) -> bool:
    """The pass's answer digest equals the digest pinned for the seed or,
    for a seed without a pin, that of the first pass."""
    return stream_digest(answers) == (ctx.sha256 or ctx.first_pass)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    root: str  # span name of one operation
    setup: Callable[[int, dict], Any]  # (seed, pinned entry) -> context
    items: Callable[[Any], list]  # context -> inputs of one pass
    op: Callable[[Any, Any], Any]  # (context, input) -> answer
    graphs: Callable[[Any], int]  # graphs in one answer
    check: Callable[[Any, list, list], list[bool]]  # per-operation verdicts
    digest: Callable[[Any, list], Optional[bool]]  # pass digest matches, None: checked per operation


WORKLOADS = {
    "generate": Workload(
        "generate", "enumeration.enumerate_up_to",
        setup=lambda seed, pinned: pinned,
        items=lambda ctx: [GENERATE_N],
        op=generate_op,
        graphs=len,
        check=generate_check,
        digest=lambda ctx, answers: None,
    ),
    "critical": Workload(
        "critical", "enumeration.enumerate_critical",
        setup=lambda seed, pinned: pinned,
        items=lambda ctx: [CRITICAL_N],
        op=critical_op,
        graphs=len,
        check=critical_check,
        digest=lambda ctx, answers: None,
    ),
    "stream": Workload(
        "stream", "bench.stream_graph",
        setup=stream_setup,
        items=lambda ctx: ctx.lines,
        op=stream_op,
        graphs=lambda answer: 1,
        check=stream_check,
        digest=stream_matches,
    ),
}


@dataclass
class Tally:
    pass_s: list[float] = field(default_factory=list)  # rescaled to nominal speed
    wall_s: list[float] = field(default_factory=list)  # as measured
    latency_s: list[list[float]] = field(default_factory=list)  # per input: rescaled, one per pass
    slowdowns: list[float] = field(default_factory=list)
    graphs: int = 0
    attempted: int = 0
    failed: int = 0
    digest_ok: Optional[bool] = None  # None: the workload has no pass digest


def timed_pass(wl: Workload, ctx: Any, items: list, tally: Tally, probe: SpeedProbe,
               tracer: Optional[Tracer] = None) -> tuple[list, float]:
    """Answer every input once and record the pass's times, rescaled by its
    measured slowdown, in the tally.  Returns the answers (None where the
    operation raised) and the pass's wall time."""
    op = wl.op if tracer is None else tracer.wrap(wl.root, wl.op)
    clock = time.perf_counter
    answers, spans = [], []
    start = clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.trace_id = i
        t0 = clock()
        try:
            answer = op(ctx, item)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(limit=3)
            answer = None
        spans.append((t0, clock()))
        answers.append(answer)
    end = clock()
    wall = end - start - probe.busy(start, end)
    slowdown = probe.slowdown(start, end) or slowdown_now()
    tally.wall_s.append(wall)
    tally.pass_s.append(wall / slowdown)
    tally.slowdowns.append(slowdown)
    if not tally.latency_s:
        tally.latency_s = [[] for _ in items]
    for samples, (t0, t1) in zip(tally.latency_s, spans):
        samples.append((t1 - t0 - probe.busy(t0, t1)) / slowdown)
    return answers, wall


def check_pass(wl: Workload, ctx: Any, items: list, answers: list, tally: Tally) -> None:
    """Check one pass's answers and count them in the tally."""
    verdicts = wl.check(ctx, items, answers)
    tally.attempted += len(verdicts)
    tally.failed += verdicts.count(False)
    tally.graphs += sum(wl.graphs(a) for a in answers if a is not None)
    matched = wl.digest(ctx, answers)
    if matched is not None:
        tally.digest_ok = matched and tally.digest_ok is not False


def run_passes(wl: Workload, ctx: Any, seconds: float, tally: Tally, probe: SpeedProbe) -> None:
    """Run whole passes until their wall times add up to ``seconds`` (at
    least one), checking each pass's answers outside the timed region."""
    items = wl.items(ctx)
    timed = 0.0
    while True:
        answers, wall = timed_pass(wl, ctx, items, tally, probe)
        check_pass(wl, ctx, items, answers, tally)
        del answers  # so that only one pass's answers are ever alive
        timed += wall
        if timed >= seconds:
            return


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latencies(tally: Tally) -> list[float]:
    """One latency per input: its median over the passes, which keeps a
    host stall during one pass out of the tail."""
    return [statistics.median(samples) for samples in tally.latency_s]


def end_to_end(tally: Tally) -> dict[str, float]:
    per_input = latencies(tally)
    return {
        "run_s": statistics.median(tally.pass_s),
        "graphs_per_s": tally.graphs / sum(tally.pass_s),
        "latency_p50_ms": statistics.median(per_input) * 1e3,
        "latency_p95_ms": percentile(per_input, 0.95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(wl: Workload, ctx: Any, tally: Tally) -> Tracer:
    """One pass with every layer function wrapped; the wrapped names are
    restored before the answers are checked.  The speed probe runs as in the
    untraced passes, so the pass is rescaled the same way; its handler, about
    2 % of the time, lands in whichever span is open, which leaves shares
    nearly unchanged."""
    tracer = Tracer()
    items = wl.items(ctx)
    tracer.install()
    try:
        with SpeedProbe() as probe:
            answers, _ = timed_pass(wl, ctx, items, tally, probe, tracer)
    finally:
        tracer.uninstall()
    check_pass(wl, ctx, items, answers, tally)
    return tracer


def setup_seconds(started: float, probe: SpeedProbe) -> float:
    """Time from ``started`` to now, less the probe's own samples, divided
    by the slowdown they measured; the probe is stopped."""
    probe.__exit__()
    wall = time.monotonic() - started - probe.busy(-math.inf, math.inf)
    return wall / (probe.slowdown(-math.inf, math.inf) or slowdown_now())


def stream_digest_note(ctx: StreamContext, tally: Tally) -> str:
    if not tally.digest_ok:
        return "MISMATCH"
    if ctx.sha256:
        return "matches the pin"
    return "no pin for this seed: first pass checked against the reference, later passes repeat it"


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, default=_STARTED,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    ctx = wl.setup(args.seed, load_expected()[wl.name])
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's stamp is comparable
    setup_s = setup_seconds(args.started, SETUP_PROBE)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    with SpeedProbe() as probe:
        run_passes(wl, ctx, args.seconds, tally, probe=probe)
    result: dict[str, Any] = {
        "setup_s": setup_s,
        "passes": len(tally.pass_s),
        "wall_run_s": statistics.median(tally.wall_s),
        "slowdown": statistics.median(tally.slowdowns),
    }
    if args.trace:
        untraced_run_s = statistics.median(tally.pass_s)
        tracer = traced_pass(wl, ctx, tally)
        metrics = tracer.layer_metrics(w.root for w in WORKLOADS.values())
        metrics["trace.run_s"] = tally.wall_s[-1]
        metrics["trace.overhead_ratio"] = tally.pass_s[-1] / untraced_run_s - 1
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{wl.name}.tsv.gz"
        tracer.write(str(span_file))
        result["spans"] = {"count": len(tracer.start), "file": str(span_file.relative_to(ROOT))}
    else:
        metrics = end_to_end(tally)
        per_input = latencies(tally)
        result["latency_inputs"] = len(per_input)
        result["latency_p99_ms"] = percentile(per_input, 0.99) * 1e3
    result.update(
        correct=tally.failed == 0 and tally.digest_ok is not False,
        attempted=tally.attempted,
        failed=tally.failed,
        digest=stream_digest_note(ctx, tally) if wl.name == "stream" else "per operation",
        metrics=metrics,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
