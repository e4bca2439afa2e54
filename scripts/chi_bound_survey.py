#!/usr/bin/env python3
"""Survey how tight the constructive palette bound is across a family.

For every (P4+ell*P1, K_k)-free graph up to a given order, compare the
exact chromatic number, the palette the constructive colouring actually
uses, and the worst-case bound. Example:

    python scripts/chi_bound_survey.py --ell 2 --clique 3 --n 8
"""

import argparse
import sys
import time
from collections import defaultdict

from critcolor.chroma import chromatic_number
from critcolor.construct import bound_f, color_kk_free
from critcolor.enumeration import enumerate_up_to
from critcolor.patterns import clique, format_pattern, path, plus_isolated


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ell", type=int, default=1, help="isolated vertices in the path pattern")
    ap.add_argument("--clique", type=int, default=3, help="forbidden clique order k")
    ap.add_argument("--n", type=int, default=8, help="maximum order to survey")
    args = ap.parse_args()
    try:
        return survey(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def survey(args: argparse.Namespace) -> int:
    base = plus_isolated(path(4), args.ell) if args.ell >= 1 else path(4)  # bound_f rejects ell < 0
    family = [base, clique(args.clique)]
    bound = bound_f(args.clique, args.ell)
    print(f"family: ({format_pattern(base)}, K{args.clique})-free, "
          f"n <= {args.n}, palette bound {bound}")

    started = time.time()
    rows = defaultdict(lambda: [0, 0, 0])  # order -> [count, max chi, max palette]
    worst = None
    for g in enumerate_up_to(args.n, filters=family):
        chi = chromatic_number(g)[0]
        # a palette above the bound raises a ValueError, which main reports
        palette = color_kk_free(g, args.ell, args.clique, check=False).palette_size
        row = rows[g.n]
        row[0] += 1
        row[1] = max(row[1], chi)
        row[2] = max(row[2], palette)
        if worst is None or palette - chi > worst[0]:
            worst = (palette - chi, g)

    print(f"{'n':>3} {'graphs':>7} {'max chi':>8} {'max palette':>12}")
    for n in sorted(rows):
        count, max_chi, max_pal = rows[n]
        print(f"{n:>3} {count:>7} {max_chi:>8} {max_pal:>12}")
    if worst is not None:
        gap, g = worst
        print(f"largest palette-over-chi gap: {gap} (on {g!r})")
    print(f"done in {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
