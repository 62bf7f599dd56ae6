#!/usr/bin/env python3
"""Regenerate the benchmark's fixture and expected results.

    python3 perfbench/make_expected.py

Writes `fixtures/my_session.json` (the session the README's `adjoint`
example names: the corpus flip cowreath W, the coring C2 over itself as X,
X (x) M over the product coring as Y, and a sampled colinear map f: Y -> X)
and `expected.json`: the outcome of every verdict at this commit, which
the benchmark's correctness gate compares against.  Each workload is run
with two seeds, and the results must agree: the expected outcomes do not
depend on the seed.  Run it only at the commit whose results define
correct; later commits are checked against the files it wrote.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import workloads as wl


def write_fixture():
    from coringlab.coring import comodule_over_itself
    from coringlab.corpus import Corpus
    from coringlab.cowreath import (cowreath_product, induced_comodule_tensor,
                                    sample_adjunction_maps)
    from coringlab.exactla import QQ
    from coringlab.session import SessionStore, write_session

    corpus = Corpus()
    w = corpus.flip_cw
    product, _ = cowreath_product(w)
    x = comodule_over_itself(w.coring)
    y = induced_comodule_tensor(w, x, product)
    f = sample_adjunction_maps(w, x, y, count=2, seed=0)[1]
    store = SessionStore.empty(QQ)
    store.add_cowreath("W", w)
    store.add_comodule("X", x)
    store.add_comodule("Y", y)
    store.map_name(f, "f")
    path = os.path.join(run.ROOT, wl.FIXTURE)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_session(store.raw, path)


def outcomes(name, seed, tmp):
    workload = run.make_workload(name, tmp)
    _, rep = run.run_rep(workload, seed)
    return rep.outcomes


def main():
    run.load_program()
    write_fixture()
    os.makedirs(run.WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="cli-", dir=run.WORK)
    golden = {}
    try:
        for name in run.WORKLOADS:
            first, second = (outcomes(name, seed, tmp) for seed in (1, 2))
            if name.startswith("ladder"):
                # the closed-form values differ by seed; the blinded
                # serialization must not
                shapes = [{n: o[f"n{n}.cowreath_product"][2] for n in wl.RUNGS}
                          for o in (first, second)]
                if shapes[0] != shapes[1] or any(
                        not d.endswith(":values-ok") for d in shapes[0].values()):
                    sys.exit(f"{name}: product shapes depend on the seed: {shapes}")
                if any(o[:2] != ("pass", ()) for o in first.values()):
                    sys.exit(f"{name}: a ladder verdict does not pass: {first}")
                golden[name] = {str(n): d.split(":")[0] for n, d in shapes[0].items()}
            else:
                if first != second:
                    sys.exit(f"{name}: outcomes depend on the seed")
                golden[name] = {k: list(v) for k, v in first.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
