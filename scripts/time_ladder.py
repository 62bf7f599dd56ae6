#!/usr/bin/env python3
"""Time flip cowreaths and their product corings on large ladder rungs.

    python3 scripts/time_ladder.py [--rungs N ...] [--runs N]

Rung n is the flip cowreath of two rescaled grouplike coalgebras of
dimension n (the basis h_i = lam_i g_i, so the structure constants are
fractions), over QQ and over GF(101); the benchmark's ladder stops at
n = 5.  For each rung and field it prints the wall-clock seconds of
`flip_cowreath`, its `check_cowreath`, its `cowreath_product` and the
product's `check_coring`, each run from fresh structures, and the
dimension of the product's coassociativity space (n^6, every quotient is
flat).  The `morph` column times `check_coring_morphism(xi, product, c)`
run again on the built product: the equation that `cowreath_product`
checks, which is also inside its time and not added to the total.  The
`write` column times writing the product as a session,
`SessionStore.add_coring` and `serialize_session`; it is not added to the
total either.  `list` and `plain` count the `padded_matmul` calls of a run
(pipe stages and `Space.section`) that ran the list kernel
(`Monomial._padded_lists`, a monomial map on a monomial running map) and
the row kernel (`Matrix._padded_rows`); a call on a marked identity
builds a Kronecker product and is in neither.  Each `@` of two unmarked
matrices is one such call with pre = post = 1 (the list kernel for a
monomial times a `Monomial`), and each `kron` of two unmarked factors
A (x) B one with post = B.rows.  They are the same on every run.
With `--runs N` (default 1) each time column is the median
of the N runs (the total column is the median of the per-run totals).
After the two rows of a rung it prints the ratio of the QQ total to the
GF(101) total, and of the QQ morph time to the GF(101) one: the same
shapes cost that much more with Fraction scalars.  It checks every verdict
but gates nothing on time.
"""

import argparse
import os
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from coringlab import exactla
from coringlab.bimodule import LinearMap
from coringlab.coring import check_coring, check_coring_morphism, coalgebra_over_field
from coringlab.cowreath import check_cowreath, cowreath_product, flip_cowreath
from coringlab.exactla import GF, QQ
from coringlab.session import SessionStore, serialize_session

FIELDS = (QQ, GF(101))


def rescaled_grouplike(field, n, shift, name):
    """Delta(h_i) = lam_i^-1 h_i (x) h_i and eps(h_i) = lam_i, for
    lam_i = +-(i + shift) / (i + 1); numerator and denominator stay below
    101 for every rung this script is meant for, so GF(101) inverts them."""
    lams = [Fraction((-1) ** i * (i + shift), i + 1) for i in range(n)]
    return coalgebra_over_field(
        field, n, [{i * n + i: str(1 / lam)} for i, lam in enumerate(lams)],
        [str(lam) for lam in lams], [f"h{i}" for i in range(n)], name)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# the list kernel, then the row kernel, of `padded_matmul`
KERNELS = ((exactla.Monomial, "_padded_lists"), (exactla.Matrix, "_padded_rows"))


def counted_kernels(fn, *args):
    """fn(*args), and the calls of the list kernel and of the row kernel
    while it ran."""
    reals = [getattr(owner, name) for owner, name in KERNELS]
    calls = [0] * len(KERNELS)

    def wrap(k, real):
        def wrapped(*a):
            calls[k] += 1
            return real(*a)
        return wrapped

    for k, ((owner, name), real) in enumerate(zip(KERNELS, reals)):
        setattr(owner, name, wrap(k, real))
    try:
        return fn(*args), tuple(calls)
    finally:
        for (owner, name), real in zip(KERNELS, reals):
            setattr(owner, name, real)


def write_product(field, prod):
    """The session text of the product coring alone."""
    store = SessionStore.empty(field)
    store.add_coring("P", prod)
    return serialize_session(store.raw)


def run_rung(field, n):
    """The four timings of one rung, the morph and write times, whether
    every verdict passed, and the product's dimension."""
    c = rescaled_grouplike(field, n, 2, f"C{n}")
    d = rescaled_grouplike(field, n, 3, f"D{n}")
    w, t_flip = timed(flip_cowreath, c, d)
    rep, t_check = timed(check_cowreath, w)
    (prod, morph), t_prod = timed(cowreath_product, w)
    prep, t_pcheck = timed(check_coring, prod)
    xi = LinearMap(prod.carrier, c.carrier, w.xi.matrix, name="xi")
    again, t_morph = timed(check_coring_morphism, xi, prod, c)
    _, t_write = timed(write_product, field, prod)
    times = (t_flip, t_check, t_prod, t_pcheck, t_morph, t_write)
    ok = rep.ok and morph.ok and prep.ok and again.ok
    return times, ok, prod.carrier.dim


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Time flip cowreaths and their product corings on ladder rungs.")
    ap.add_argument("--rungs", type=int, nargs="+", default=[6, 7, 8],
                    help="coalgebra dimensions n (default 6 7 8)")
    ap.add_argument("--runs", type=int, default=1,
                    help="fresh runs per rung; the time columns are their medians")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    if any(n < 1 for n in args.rungs):
        ap.error("--rungs must be at least 1")
    print(f"{'rung':<12} {'flip':>7} {'check':>7} {'product':>8} "
          f"{'p-check':>8} {'total':>7} {'morph':>7} {'write':>7}"
          f" {'list':>5} {'plain':>5}   coassoc flat dim")
    bad = 0
    for n in args.rungs:
        totals, morphs = [], []
        for field in FIELDS:
            runs, ok = [], True
            for _ in range(args.runs):
                (times, passed, pdim), kernels = counted_kernels(run_rung, field, n)
                runs.append(times)
                ok = ok and passed
            bad += not ok
            t_flip, t_check, t_prod, t_pcheck, t_morph, t_write = (
                statistics.median(col) for col in zip(*runs))
            total = statistics.median(sum(times[:4]) for times in runs)
            totals.append(total)
            morphs.append(t_morph)
            print(f"{f'n={n} {field!r}':<12} {t_flip:7.3f} {t_check:7.3f} "
                  f"{t_prod:8.3f} {t_pcheck:8.3f} {total:7.3f} {t_morph:7.4f}"
                  f" {t_write:7.4f} {kernels[0]:5} {kernels[1]:5}   {pdim ** 3}")
        print(f"{f'n={n}':<12} {'QQ / GF(101)':>33} "
              f"{totals[0] / totals[1]:7.2f} {morphs[0] / morphs[1]:7.2f}")
    if bad:
        print(f"{bad} rung(s) did not pass", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
