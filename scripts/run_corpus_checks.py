#!/usr/bin/env python3
"""Run every checker over the example corpus and print the reports.

Valid structures should all pass; the deliberately broken twins should fail
with witnesses naming the violated law.  Stdout holds only the reports and
the summary line, so two runs of one commit print the same bytes; the
elapsed time goes to stderr.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from coringlab.coring import check_coring
from coringlab.corpus import CORPUS
from coringlab.cowreath import check_cowreath, check_l_cowreath, cowreath_product
from coringlab.entwine import check_entwining, check_entwining_wreath, entwined_coring
from coringlab.ore import check_ore_wreath, ore_vs_wreath_product
from coringlab.reports import PreconditionFailure
from coringlab.wreath import check_l_wreath, check_wreath


def show(rep):
    print(rep.summary())
    return rep.ok


def main():
    t0 = time.time()
    failures = 0
    expected_failures = 0

    for c in (CORPUS.triv_z2, CORPUS.c2, CORPUS.c3, CORPUS.gp):
        failures += not show(check_coring(c))
    expected_failures += show(check_coring(CORPUS.broken_coalgebra))

    for e in (CORPUS.flip_entwining, CORPUS.dk_entwining):
        failures += not show(check_entwining(e))
        failures += not show(check_coring(entwined_coring(e)))
        failures += not show(check_entwining_wreath(e))
    expected_failures += show(check_entwining(CORPUS.broken_entwining))

    for w in (CORPUS.flip_cw, CORPUS.flip_cw3, CORPUS.unit_cw,
              CORPUS.dl_cw[0], CORPUS.lifted_flip_cw, CORPUS.lifted_dk_cw):
        failures += not show(check_cowreath(w))
        prod, morph = cowreath_product(w)
        failures += not show(check_coring(prod))
        failures += not show(morph)
    failures += not show(check_l_cowreath(CORPUS.dl_cw[1]))
    expected_failures += show(check_cowreath(CORPUS.broken_cw_delta))
    expected_failures += show(check_cowreath(CORPUS.broken_cw_xi))

    rext, text, rmap, rw, lw, prod_ext, alg_rep, eta_rep = CORPUS.sign_flip_ttp
    failures += not show(check_wreath(rw))
    failures += not show(check_l_wreath(lw))
    failures += not show(alg_rep)
    failures += not show(eta_rep)
    try:
        from coringlab.wreath import twisted_tensor_product
        twisted_tensor_product(*CORPUS.broken_ttp_map())
        expected_failures += 1
    except PreconditionFailure as exc:
        print(exc.report.summary())

    for d in (CORPUS.ore_commutative, CORPUS.ore_quantum_plane,
              CORPUS.ore_weyl):
        failures += not show(check_ore_wreath(d, 4))
        failures += not show(ore_vs_wreath_product(d, 4))
    expected_failures += show(check_ore_wreath(CORPUS.ore_broken, 3))

    print(f"\n{failures} unexpected failures, "
          f"{expected_failures} broken twins unexpectedly passing")
    print(f"done in {time.time() - t0:.1f}s", file=sys.stderr)
    return 1 if failures or expected_failures else 0


if __name__ == "__main__":
    sys.exit(main())
