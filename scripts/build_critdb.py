#!/usr/bin/env python3
"""Enumerate all k-vertex-critical graphs of a hereditary family and save
them as a critdb file.

    python scripts/build_critdb.py --k 4 --n 8 --free P4 --out p4free-4crit.db
"""

import argparse
import sys
import time
from collections import Counter

from critcolor.critical import save_critdb
from critcolor.enumeration import enumerate_critical, verify_critdb
from critcolor.patterns import format_pattern, parse_pattern


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, required=True, help="target chromatic number")
    ap.add_argument("--n", type=int, required=True, help="maximum order")
    ap.add_argument("--free", action="append", default=[], metavar="SPEC",
                    help="forbidden induced pattern (repeatable)")
    ap.add_argument("--out", default=None, help="write the database here")
    args = ap.parse_args()
    try:
        return build(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build(args: argparse.Namespace) -> int:
    family = [parse_pattern(t) for t in args.free]
    if family:
        label = "(" + ",".join(format_pattern(p) for p in family) + ")-free graphs"
    else:
        label = "graphs"
    print(f"enumerating {args.k}-critical {label} up to n={args.n} ...")

    started = time.time()
    db = enumerate_critical(args.k, args.n, family)
    elapsed = time.time() - started
    by_order = Counter(g.n for g in db.member_graphs)
    print(f"found {len(db.members)} members in {elapsed:.1f}s")
    for n in sorted(by_order):
        print(f"  n={n}: {by_order[n]}")
    for m in db.members:
        print(f"  {m}")

    print("re-verifying every member from scratch ...", end=" ", flush=True)
    if not verify_critdb(db):
        print("FAILED")
        return 1
    print("ok")

    if args.out:
        save_critdb(db, args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
