#!/usr/bin/env python3
"""Time cowreaths lifted over a base that is not the ground field.

    python3 scripts/time_lifts.py [--runs N]

For each case it prints the wall-clock seconds of the lift
(`entwining_lift_cowreath`), its `check_cowreath`, its `cowreath_product`
and the product's `check_coring`, each run from fresh structures, and the
dimensions of the product's coassociativity space P (x) P (x) P: the
quotient, the factor-flat space (dim P cubed) and the leaf-flat space.
Eight more columns are not added to the total.  `quotients` is the part
of the four timings spent inside `bimodule._shared_tensor`, which makes
each tensor quotient that the identity memo of `tensor_over` misses: it
shows how much of a lift is the quotients themselves.  `shared` counts
those quotients, over the four timings, as taken from the content table
(their numeric core is that of a live quotient of equal content) against
built by `bimodule._build_tensor`; in a lift the hits are the quotients
of xi and delta, re-homed onto an equal copy of the coring carrier (see
`entwine`).  `corings` counts the entwined corings built
(`entwine._build_entwined_coring`): one per case, the lifted object's,
since `entwined_coring` is memoized on its entwining.  `uf` counts the
calls of `bimodule._union_find`: the quotients whose relations are all
monomial, and the decided equations below whose two sides differ before
their level's projection (`_decided` runs it on the level it does not
build); every other quotient with relations goes through `Echelon`.
`stages`
is the part spent inside `bimodule._Stages._stage`, the pipe stages that
multiply by I (x) F (x) I.  `list` and `plain` count the `padded_matmul`
calls (pipe stages and `Space.section`) that ran the list kernel
(`Monomial._padded_lists`, a monomial map on a monomial running map) and
the row kernel (`Matrix._padded_rows`); a call on a marked identity
builds a Kronecker product and is in neither.  Each `@` of two unmarked
matrices is one such call with pre = post = 1 (the list kernel for a
monomial times a `Monomial`), and each `kron` of two unmarked factors
A (x) B one with post = B.rows.  `decided` counts the compared equations between two
pipes (`bimodule.compare_pipes`) that were decided on the relations of
their codomain's outer level without building it, against those that
finished both pipes and compared them (`_decided` false); on the
`Echelon` levels of the kZ2(u) rows every one falls back.  The counit
and twist laws (`cw-counit`, `cw-twist`, and `counit-left`/`-right` of
the product) are counted too: they end on built levels, so they always
fall back.  `regroup` and `rev`
time the changes of bracketing on the coassociativity space: `regroup`
between space(P, P, P) and space(P, P (x) P), both ways, and `rev` of
space(P, P, P)'s quotient and of its mirror.  `homs` times the two
`coring.hom_basis` solves of the cowreath adjunction, with X the lifted
coring over itself and Y = X (x) M: Hom((Y)_xi, X) over the coring and
Hom(Y, X (x) M) over the product.
With `--runs N` (default 1) each case is run N times, each time from fresh
structures, and every time column is the median of the N runs (the total
column is the median of the per-run totals).  It checks every verdict but
gates nothing on time.
"""

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from coringlab import bimodule, entwine, exactla
from coringlab.algebra import FinAlgebra, group_algebra_cyclic
from coringlab.bimodule import mirror, regroup, rev, space, tensor_over
from coringlab.coring import check_coring, comodule_over_itself, grouplike_coalgebra, hom_basis
from coringlab.cowreath import (
    check_cowreath,
    cowreath_product,
    entwining_lift_cowreath,
    flip_cowreath,
    induced_comodule_tensor,
    induction_xi,
)
from coringlab.entwine import doi_koppinen_entwining, doi_koppinen_self, flip_entwining
from coringlab.exactla import GF, QQ, Matrix


def cases():
    """(label, entwining builder, C, D) for each lift; C is the coalgebra
    the entwining is over and the first factor of the flip cowreath.  The
    Doi-Koppinen rows take the bialgebra kZg, with C as its coalgebra,
    acting and coacting on itself (`doi_koppinen_self`).  Two are over GF(2) and GF(3), where
    kZ2 and kZ3 are modular group algebras, so they are not semisimple.
    The last two present kZ2 in the basis 1, u = 1 + 2g, where
    u^2 = 3 + 2u: its action matrices are not monomial, so every quotient
    with relations goes through `Echelon` and none through the union-find."""
    z2 = group_algebra_cyclic(QQ, 2, name="kZ2")
    z3 = group_algebra_cyclic(QQ, 3, name="kZ3")

    def gl(n, name, field=QQ):
        return grouplike_coalgebra(field, n, name=name)

    yield "kZ2/C2/D2 flip", lambda c: flip_entwining(z2, c), gl(2, "C2"), gl(2, "D2")
    yield ("kZ2/C2/D2 doi-koppinen",
           lambda c: doi_koppinen_entwining(doi_koppinen_self(z2, c)),
           gl(2, "C2"), gl(2, "D2"))
    yield "kZ2/C3/D2 flip", lambda c: flip_entwining(z2, c), gl(3, "C3"), gl(2, "D2")
    yield "kZ3/C2/D2 flip", lambda c: flip_entwining(z3, c), gl(2, "C2"), gl(2, "D2")
    yield ("kZ3/C3/D2 doi-koppinen",
           lambda c: doi_koppinen_entwining(doi_koppinen_self(z3, c)),
           gl(3, "C3"), gl(2, "D2"))
    for g in (2, 3):
        field = GF(g)
        zg = group_algebra_cyclic(field, g, name=f"kZ{g}")
        yield (f"kZ{g}/C2/D2 flip GF({g})", lambda c, zg=zg: flip_entwining(zg, c),
               gl(2, "C2", field), gl(2, "D2", field))
    for field in (QQ, GF(7)):
        zu = u_basis_z2(field)
        yield (f"kZ2(u)/C2/D2 flip {field.name}", lambda c, zu=zu: flip_entwining(zu, c),
               gl(2, "C2", field), gl(2, "D2", field))


def u_basis_z2(field):
    """kZ2 in the basis 1, u = 1 + 2g, where u^2 = 1 + 4g + 4 = 3 + 2u."""
    one, u = {0: field.one()}, {1: field.one()}
    return FinAlgebra(field, 2, [[one, u], [u, {0: field.from_int(3), 1: field.from_int(2)}]],
                      one, labels=["1", "u"], name="kZ2(u)")


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


PARTS = ((bimodule, "_shared_tensor"), (bimodule._Stages, "_stage"),
         (bimodule, "_build_tensor"), (bimodule, "_union_find"),
         (exactla.Monomial, "_padded_lists"), (exactla.Matrix, "_padded_rows"),
         (bimodule, "_decided"), (entwine, "_build_entwined_coring"))


def timed_parts(fn, *args):
    """fn(*args), and the seconds spent inside each of `PARTS` (the
    quotients, the pipe stages, the quotients built afresh, their
    union-finds, the list kernel, the row kernel, the decisions of
    compared equations and the entwined corings) while it ran, the calls
    of each and the calls that returned a true value."""
    reals = [getattr(owner, name) for owner, name in PARTS]
    spent, calls, hits = [0.0] * len(PARTS), [0] * len(PARTS), [0] * len(PARTS)

    def wrap(k, real):
        def wrapped(*a):
            calls[k] += 1
            t0 = time.perf_counter()
            try:
                out = real(*a)
                hits[k] += bool(out)
                return out
            finally:
                spent[k] += time.perf_counter() - t0
        return wrapped

    for k, ((owner, name), real) in enumerate(zip(PARTS, reals)):
        setattr(owner, name, wrap(k, real))
    try:
        return fn(*args), spent, calls, hits
    finally:
        for (owner, name), real in zip(PARTS, reals):
            setattr(owner, name, real)


def run_case(entwine, c, d):
    """The four timings of one case, whether every verdict passed, the
    lifted cowreath and its product coring."""
    e = entwine(c)
    lifted, t_lift = timed(entwining_lift_cowreath, e, flip_cowreath(c, d))
    rep, t_check = timed(check_cowreath, lifted)
    (prod, morph), t_prod = timed(cowreath_product, lifted)
    prep, t_pcheck = timed(check_coring, prod)
    times = (t_lift, t_check, t_prod, t_pcheck)
    return times, rep.ok and morph.ok and prep.ok, lifted, prod


def time_homs(w, prod):
    """The seconds of the two Hom solves of the adjunction; the comodules
    are built before the clock starts."""
    x = comodule_over_itself(w.coring)
    y = induced_comodule_tensor(w, x, prod)
    y_xi = induction_xi(w, y, w.coring)
    return timed(lambda: (hom_basis(y_xi, x), hom_basis(y, y)))[1]


def time_bracketings(p):
    """The seconds of `regroup` between the two bracketings of
    P (x) P (x) P, both ways, and of `rev` both ways, each with its round
    trip checked; the quotients are built before the clock starts."""
    left = space(p, p, p)
    right = space(p, tensor_over(p.right_algebra, p, p))
    x = left.quotient
    space(mirror(x))
    (there, back), t_regroup = timed(
        lambda: (regroup(left, right), regroup(right, left)))
    (r, r_back), t_rev = timed(lambda: (rev(x), rev(mirror(x))))
    ok = all(b.after(a).matrix == Matrix.identity(p.field, x.dim)
             for a, b in ((there, back), (r, r_back)))
    return (t_regroup, t_rev), ok


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Time cowreaths lifted over a base that is not the ground field.")
    ap.add_argument("--runs", type=int, default=1,
                    help="fresh runs per case; the time columns are their medians")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    print(f"{'case':<24} {'lift':>7} {'check':>7} {'product':>8} "
          f"{'p-check':>8} {'total':>7} {'quotients':>9} {'shared':>7} {'corings':>7} {'uf':>4} "
          f"{'stages':>7} "
          f"{'list':>5} {'plain':>5} {'decided':>7} "
          f"{'regroup':>8} {'rev':>7} {'homs':>7}   "
          "coassoc dims: quotient / factor-flat / leaf-flat")
    bad = 0
    for index, (label, *_) in enumerate(cases()):
        runs, parts, brackets, homs, ok = [], [], [], [], True
        for _ in range(args.runs):
            # a fresh case each run, so that no memo carries over
            _, entwine, c, d = list(cases())[index]
            (times, passed, lifted, prod), spent, calls, hits = timed_parts(
                run_case, entwine, c, d)
            runs.append(times)
            parts.append(spent[:2])
            # the same on every run: each starts from fresh structures
            shared = f"{calls[0] - calls[2]}/{calls[2]}"
            union_finds, kernels = calls[3], calls[4:6]
            decided = f"{hits[6]}/{calls[6] - hits[6]}"
            corings = calls[7]
            homs.append(time_homs(lifted, prod))
            p = prod.carrier
            bracket, trips = time_bracketings(p)
            brackets.append(bracket)
            ok = ok and passed and trips
        bad += not ok
        t_lift, t_check, t_prod, t_pcheck = (
            statistics.median(col) for col in zip(*runs))
        total = statistics.median(sum(times) for times in runs)
        t_regroup, t_rev = (statistics.median(col) for col in zip(*brackets))
        t_quot, t_stages = (statistics.median(col) for col in zip(*parts))
        sp = space(p, p, p)
        print(f"{label:<24} {t_lift:7.3f} {t_check:7.3f} {t_prod:8.3f} "
              f"{t_pcheck:8.3f} {total:7.3f} {t_quot:9.3f} {shared:>7} {corings:>7} "
              f"{union_finds:>4} {t_stages:7.3f} {kernels[0]:5} {kernels[1]:5} {decided:>7} "
              f"{t_regroup:8.3f} {t_rev:7.3f} {statistics.median(homs):7.3f}   "
              f"{sp.dim} / {p.dim ** 3} / {sp.leaf_flat_dim()}")
    if bad:
        print(f"{bad} case(s) did not pass", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
