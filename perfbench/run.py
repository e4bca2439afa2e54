"""Run the critcolor benchmark.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each workload runs in processes of its own (see ``workloads.py``): first
``SETUP_SAMPLES - 1`` processes that only set up (untraced runs only), then
one that sets up and measures.  ``setup_s`` is the median time from process
start to first input over all of them.  Set-up times, pass times and
latencies are rescaled to a nominal host speed (see ``speed.py``).  With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
the per-layer metrics of one traced pass, which follows an untraced run of
the same length so the tracing overhead shows.

A human-readable summary precedes the result; the last line of standard
output is the result as one JSON object.  The exit code is 0 only when every
process finished and reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("generate", "critical", "stream")
SETUP_SAMPLES = 11
DEADLINE_S = 175  # one workload, all of its processes

UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "graphs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    what = name.rsplit(".", 1)[1]
    return {"calls": "count", "self_s": "s", "run_s": "s"}.get(what, "ratio")


def child(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    """Run one worker process and return its report."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--started", repr(time.monotonic()),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload}: out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setup_only = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [child(args, deadline, True)["setup_s"] for _ in range(setup_only)]
    report = child(args, deadline, False)
    setups.append(report["setup_s"])
    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    summary = [
        f"# {args.workload} seed={args.seed} passes={report['passes']} "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"error_rate={report['failed'] / report['attempted']} digest={report['digest']}",
        f"# wall-clock run_s={report['wall_run_s']!r} at median slowdown {report['slowdown']!r}",
    ]
    if args.trace:
        summary.append(f"# spans: {report['spans']['count']} written to {report['spans']['file']}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        summary.append(f"# latency over {report['latency_inputs']} inputs, p99={report['latency_p99_ms']!r} ms; "
                       f"setup samples={len(setups)}")
        units = UNITS
    summary += [f"{name:60s} {value!r:>24} {units[name]}" for name, value in metrics.items()]
    print("\n".join(summary))
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "critcolor").is_dir():
        print(f"no critcolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
