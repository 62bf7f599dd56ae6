#!/usr/bin/env python3
"""Time the Ore checks on the corpus skew polynomial data.

    python3 scripts/time_ore.py [--runs N]

For each corpus Ore data at degrees 4, 8 and 16 it prints the seconds of
`check_ore_wreath`, `ore_vs_wreath_product` and `twist_vs_skew_mul`, and
for the Weyl data, the one with a target ring, of `ore_universal_check`
into that target (`-` for the others).  Each check runs on fresh data, so
that no rewrite memo carries over from an earlier run.  With `--runs N`
(default 1) each time is the median of N runs.  It checks every status: each check passes, except `check_ore_wreath` on
`ore_broken`, whose derivation breaks the twisted Leibniz rule.  It gates
nothing on time.
"""

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from coringlab.corpus import Corpus
from coringlab.ore import (
    check_ore_wreath,
    ore_universal_check,
    ore_vs_wreath_product,
    twist_vs_skew_mul,
)

CASES = ("ore_commutative", "ore_quantum_plane", "ore_weyl", "ore_broken")
DEGREES = (4, 8, 16)
CHECKS = (check_ore_wreath, ore_vs_wreath_product, twist_vs_skew_mul,
          ore_universal_check)
TARGET_CASE = "ore_weyl"  # the data whose corpus target is `ore_weyl_target`


def expected_ok(case, check):
    return not (case == "ore_broken" and check is check_ore_wreath)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Time the Ore checks on the corpus skew polynomial data.")
    ap.add_argument("--runs", type=int, default=1,
                    help="fresh runs per check; each time is their median")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    print(f"{'data':<18} {'degree':>6} {'wreath':>8} {'product':>8} {'twist':>8} "
          f"{'universal':>9}")
    bad = 0
    for case in CASES:
        for degree in DEGREES:
            times = []
            for check in CHECKS:
                if check is ore_universal_check and case != TARGET_CASE:
                    times.append(None)
                    continue
                runs = []
                for _ in range(args.runs):
                    corpus = Corpus()
                    inputs = (getattr(corpus, case), degree)
                    if check is ore_universal_check:
                        inputs += corpus.ore_weyl_target
                    t0 = time.perf_counter()
                    rep = check(*inputs)
                    runs.append(time.perf_counter() - t0)
                    if rep.ok != expected_ok(case, check):
                        bad += 1
                        print(f"{case} {check.__name__} at degree {degree}: "
                              f"{rep.status}", file=sys.stderr)
                times.append(statistics.median(runs))
            cells = ["-" if t is None else f"{t:.4f}" for t in times]
            print(f"{case:<18} {degree:>6} " + " ".join(
                f"{c:>{w}}" for c, w in zip(cells, (8, 8, 8, 9))))
    if bad:
        print(f"{bad} run(s) had an unexpected status", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
