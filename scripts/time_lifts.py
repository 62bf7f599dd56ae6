#!/usr/bin/env python3
"""Time cowreaths lifted over a base that is not the ground field.

    python3 scripts/time_lifts.py

For each case it prints the wall-clock seconds of the lift
(`entwining_lift_cowreath`), its `check_cowreath`, its `cowreath_product`
and the product's `check_coring`, each a single run from fresh structures,
and the dimensions of the product's coassociativity space P (x) P (x) P:
the quotient, the factor-flat space (dim P cubed) and the leaf-flat space.
It checks every verdict but gates nothing on time.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from coringlab.algebra import group_algebra_cyclic
from coringlab.bimodule import space
from coringlab.coring import check_coring, grouplike_coalgebra
from coringlab.cowreath import (
    check_cowreath,
    cowreath_product,
    entwining_lift_cowreath,
    flip_cowreath,
)
from coringlab.entwine import doi_koppinen_entwining, doi_koppinen_self, flip_entwining
from coringlab.exactla import QQ


def cases():
    """(label, entwining builder, C, D) for each lift; C is the coalgebra
    the entwining is over and the first factor of the flip cowreath."""
    z2 = group_algebra_cyclic(QQ, 2, name="kZ2")
    z3 = group_algebra_cyclic(QQ, 3, name="kZ3")

    def gl(n, name):
        return grouplike_coalgebra(QQ, n, name=name)

    yield "kZ2/C2/D2 flip", lambda c: flip_entwining(z2, c), gl(2, "C2"), gl(2, "D2")
    yield ("kZ2/C2/D2 doi-koppinen",
           lambda c: doi_koppinen_entwining(doi_koppinen_self(z2, c)),
           gl(2, "C2"), gl(2, "D2"))
    yield "kZ2/C3/D2 flip", lambda c: flip_entwining(z2, c), gl(3, "C3"), gl(2, "D2")
    yield "kZ3/C2/D2 flip", lambda c: flip_entwining(z3, c), gl(2, "C2"), gl(2, "D2")


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main():
    print(f"{'case':<24} {'lift':>7} {'check':>7} {'product':>8} "
          f"{'p-check':>8} {'total':>7}   coassoc dims: quotient / "
          "factor-flat / leaf-flat")
    bad = 0
    for label, entwine, c, d in cases():
        e = entwine(c)
        lifted, t_lift = timed(entwining_lift_cowreath, e, flip_cowreath(c, d))
        rep, t_check = timed(check_cowreath, lifted)
        (prod, morph), t_prod = timed(cowreath_product, lifted)
        prep, t_pcheck = timed(check_coring, prod)
        bad += not (rep.ok and morph.ok and prep.ok)
        p = prod.carrier
        sp = space(p, p, p)
        total = t_lift + t_check + t_prod + t_pcheck
        print(f"{label:<24} {t_lift:7.3f} {t_check:7.3f} {t_prod:8.3f} "
              f"{t_pcheck:8.3f} {total:7.3f}   {sp.dim} / {p.dim ** 3} / "
              f"{sp.leaf_flat_dim()}")
    if bad:
        print(f"{bad} case(s) did not pass", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
