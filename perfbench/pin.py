"""Record the output digests that the benchmark checks its answers against.

    python3 perfbench/pin.py

writes ``perfbench/expected.json``: the per-order class counts and graph6
digest of ``generate``, the member list of ``critical``, and the stream
answer digest of seeds 0 to ``PINNED_SEEDS - 1``.  Stream answers are
re-verified, and checked against the reference code, before they are
pinned.  Re-pin only when the program's output is meant to change; every
correctness gate of the benchmark reads this file.
"""

from __future__ import annotations

import json
import sys

import workloads as w

PINNED_SEEDS = 128


def main() -> int:
    pinned = {
        "generate": {"n": w.GENERATE_N, **w.generate_digest(w.generate_op(None, w.GENERATE_N))},
        "critical": {
            "k": w.CRITICAL_K,
            "n": w.CRITICAL_N,
            "family": w.CRITICAL_FAMILY,
            "members": list(w.critical_op(None, w.CRITICAL_N)),
        },
        "stream": {"graphs": w.STREAM_GRAPHS, "sha256": {}},
    }
    for seed in range(PINNED_SEEDS):
        ctx = w.stream_setup(seed, {"sha256": {}})
        answers = [w.stream_op(ctx, line) for line in ctx.lines]
        if not all(w.stream_check(ctx, ctx.lines, answers)):
            print(f"seed {seed}: an answer failed re-verification; nothing pinned", file=sys.stderr)
            return 1
        pinned["stream"]["sha256"][str(seed)] = w.stream_digest(answers)
    with open(w.EXPECTED_PATH, "w", encoding="ascii") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
