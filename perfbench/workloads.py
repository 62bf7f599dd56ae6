"""The benchmark's workloads: seeded inputs and the fixed task list of one
repetition.

Every workload has the same shape: `build_inputs(seed)` makes the inputs
(this is what `setup_s` times, in a fresh process), and `run(inputs, rep)`
performs the task list, sending each verdict through `rep.verdict` so that
its latency and outcome are recorded.  An outcome is `(status, equation
tags, output digest)`; the correctness gate compares it with the result
the seed commit produced (`expected.json`, written by `make_expected.py`).

Why these workloads:

* `ladder-qq` / `ladder-gf`: flip cowreaths of two grouplike coalgebras
  over the ground field.  Every tensor quotient is flat (no relations), so
  the cost is `Matrix @` and `kron` on identity-heavy projections over flat
  spaces of up to n^6 dimensions, plus scalar arithmetic.  The two share
  rungs and seed and differ only in the field (Fraction against int
  scalars), which separates scalar cost from structural cost.
* `corpus`: every checker over the example corpus, broken twins included.
  Its quotients have real relations, so `tensor_over`'s echelon form and
  descent check and `Matrix.col` carry the work; failing checks exercise
  `compare_maps` mismatches and witness formatting.
* `cli`: the README commands as cold processes, one after another, so
  process start, import, session parsing and serialization are paid on
  every command.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

perf = time.perf_counter

# Rungs of both ladders.  n = 1..5 walks the coassociativity check of the
# product coring from 1 to 25^3 = 15,625 flat dimensions, and the largest
# rung costs about half of a repetition, so the ladder shows how cost grows
# with n.  n = 6 alone takes about 4.5 s over QQ at the seed commit (46,656
# flat dimensions), which would leave too few repetitions per run for a
# steady median.  Five rungs give 15 verdicts a repetition: an odd number of
# verdict kinds puts the median latency inside one kind rather than on the
# boundary between two.
RUNGS = (1, 2, 3, 4, 5)
GF_P = 101

# Ore checks: the README's degree bound and one well above it.
ORE_DEGREES = (4, 8)
# Adjunction round trips: sampled colinear maps per cowreath (seeded).
ADJUNCTION_SAMPLES = 5


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# -- reference-speed clock ----------------------------------------------------
#
# On a shared machine the CPU's speed drifts: on the 2-core sandbox where
# these figures were taken, the same repetition ran up to 1.8x slower for
# tens of seconds at a time, so raw wall times of runs a minute apart
# differ by far more than any bound worth having.  Every timing is therefore
# taken on a reference clock: a fixed calibration slice (sparse dict
# arithmetic mod p plus Fraction sums, the kind of work coringlab does) is
# timed between verdicts, and each stretch of work is scaled by
# CAL_NOMINAL_S over the mean slice time at its two ends.  The slice is
# benchmark code, so changes to coringlab do not move it; raw times are
# reported next to the scaled ones in the run record.

_rng = random.Random(7)
_CAL_P = 101
_CAL_A = {i: {j: _rng.randint(1, _CAL_P - 1) for j in _rng.sample(range(48), 10)}
          for i in range(48)}
_CAL_B = {i: {j: _rng.randint(1, _CAL_P - 1) for j in _rng.sample(range(48), 10)}
          for i in range(48)}
_CAL_Q = [Fraction(_rng.randint(1, 9), _rng.randint(1, 9)) for _ in range(64)]
del _rng
# The fastest slice time seen on that sandbox: reference seconds are
# seconds at its fastest.
CAL_NOMINAL_S = 0.0020


def _calibration_slice():
    out = {}
    for i, arow in _CAL_A.items():
        acc = {}
        for k, v in arow.items():
            for j, w in _CAL_B[k].items():
                u = (acc.get(j, 0) + v * w) % _CAL_P
                if u:
                    acc[j] = u
                else:
                    acc.pop(j, None)
        out[i] = acc
    f = Fraction(0)
    for a in _CAL_Q:
        for b in _CAL_Q[:8]:
            f += a * b
    return out, f


def calibration_point():
    """Current speed, as the fastest of three calibration slices."""
    best = None
    for _ in range(3):
        t0 = perf()
        _calibration_slice()
        t = perf() - t0
        best = t if best is None or t < best else best
    return best


class RefClock:
    """Reference-speed time of the stretches between calibration marks."""

    def __init__(self):
        self.points = []  # (start, end, slice seconds) of each mark

    def mark(self):
        t0 = perf()
        c = calibration_point()
        self.points.append((t0, perf(), c))
        return len(self.points) - 1

    def factor(self, k):
        """Scale of the stretch from mark k to mark k + 1."""
        return CAL_NOMINAL_S * 2 / (self.points[k][2] + self.points[k + 1][2])

    def stretch(self, k):
        return self.points[k + 1][0] - self.points[k][1]

    def raw_total(self):
        return sum(self.stretch(k) for k in range(len(self.points) - 1))

    def total(self):
        return sum(self.stretch(k) * self.factor(k)
                   for k in range(len(self.points) - 1))


class Rep:
    """One repetition: verdict latencies (reference seconds) and outcomes.
    Call `clock.mark()` before the task list and after it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.clock = RefClock()
        self.raw = []       # (mark index, seconds) per verdict
        self.outcomes = {}

    @property
    def latencies(self):
        return [t * self.clock.factor(k) for k, t in self.raw]

    def verdict(self, name, fn, digest=None, outcome=None):
        """Run one verdict.  `fn` returns a Report, or (value, Report), and
        `digest(value)` names the output that must match the seed commit;
        or `outcome(result)` turns fn's result into the outcome itself."""
        k = self.clock.mark()
        if self.tracer is not None:
            self.tracer.begin_verdict(name)
        t0 = perf()
        try:
            out = fn()
        except Exception as exc:  # a raise is an outcome the gate compares
            self.raw.append((k, perf() - t0))
            report = getattr(exc, "report", None)
            tags = tuple(report.equations()) if report is not None else ()
            self.outcomes[name] = (f"raised:{type(exc).__name__}", tags, "")
            return None
        self.raw.append((k, perf() - t0))
        if outcome is not None:
            self.outcomes[name] = outcome(out)
            return out
        value, report = out if isinstance(out, tuple) else (None, out)
        self.outcomes[name] = (report.status, tuple(report.equations()),
                               digest(value) if digest else "")
        return value


# ---------------------------------------------------------------------------
# ladders


def ladder_scalars(seed):
    """For each rung, the seeded rescaling scalars of the bases of C_n and
    D_n: nonzero rationals with numerator and denominator below 10, so they
    are nonzero and invertible mod 101 as well."""
    rng = random.Random(f"coringlab-ladder-{seed}")

    def draw():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    return {n: ([draw() for _ in range(n)], [draw() for _ in range(n)])
            for n in RUNGS}


def _rescaled_grouplike(field, lams, name):
    """Grouplike coalgebra on h_i = lam_i g_i: Delta(h_i) = lam_i^-1 h_i (x) h_i
    and eps(h_i) = lam_i.  The program receives only these constants."""
    from coringlab.coring import coalgebra_over_field
    n = len(lams)
    cols = [{i * n + i: str(1 / lam)} for i, lam in enumerate(lams)]
    return coalgebra_over_field(field, n, cols, [str(lam) for lam in lams],
                                [f"h{i}" for i in range(n)], name)


def _field_value(field_name, q: Fraction):
    if field_name == "QQ":
        return q
    num, den = q.numerator % GF_P, q.denominator % GF_P
    return num * pow(den, GF_P - 2, GF_P) % GF_P


def _blind(raw):
    """The session with every matrix entry reduced to zero / nonzero: what
    remains (names, labels, space references, sparsity) does not depend on
    the seeded scalars."""
    if isinstance(raw, dict):
        return {k: ([["0" if v == "0" else "*" for v in row] for row in val]
                    if k == "matrix" else _blind(val))
                for k, val in raw.items()}
    return raw


class Ladder:
    def __init__(self, field_name):
        self.field_name = field_name

    def field(self):
        from coringlab.exactla import GF, QQ
        return QQ if self.field_name == "QQ" else GF(GF_P)

    def build_inputs(self, seed):
        field = self.field()
        scalars = ladder_scalars(seed)
        return {n: (_rescaled_grouplike(field, lc, f"C{n}"),
                    _rescaled_grouplike(field, ld, f"D{n}"), lc, ld)
                for n, (lc, ld) in scalars.items()}

    def product_digest(self, lc, ld):
        """Checks the product coring on C (x) D in closed form: it is the
        rescaled grouplike coalgebra on h_i (x) k_j with scalar lam_i mu_j,
        so Delta has 1 / (lam_i mu_j) at (t (x) t, t) for t = i n + j and
        eps has lam_i mu_j at t.  Returns the digest of the blinded
        serialization, tagged with whether the values matched."""
        from coringlab import session as sess
        n = len(lc)

        def digest(product):
            fv = self.field_name
            comult, counit = {}, {}
            for i in range(n):
                for j in range(n):
                    t = i * n + j
                    comult[t * n * n + t] = {t: _field_value(fv, 1 / (lc[i] * ld[j]))}
                    counit[t] = _field_value(fv, lc[i] * ld[j])
            values_ok = (product.comult.matrix.data == comult
                         and product.counit.matrix.data == {0: counit})
            store = sess.SessionStore.empty(self.field())
            store.add_coring("P", product)
            text = sess.serialize_session(_blind(store.raw))
            return f"{sha(text)}:{'values-ok' if values_ok else 'values-differ'}"
        return digest

    def run(self, inputs, rep):
        from coringlab import coring, cowreath
        for n, (c, d, lc, ld) in inputs.items():
            w = cowreath.flip_cowreath(c, d)
            rep.verdict(f"n{n}.check_cowreath", lambda: cowreath.check_cowreath(w))
            product = rep.verdict(f"n{n}.cowreath_product",
                                  lambda: cowreath.cowreath_product(w),
                                  digest=self.product_digest(lc, ld))
            rep.verdict(f"n{n}.check_coring", lambda: coring.check_coring(product))


# ---------------------------------------------------------------------------
# corpus


def _serialized(add):
    """Digest of a one-object session, through SessionStore."""
    def digest(value):
        from coringlab import session as sess
        from coringlab.exactla import QQ
        store = sess.SessionStore.empty(QQ)
        add(store, value)
        return sha(sess.serialize_session(store.raw))
    return digest


_coring_digest = _serialized(lambda store, c: store.add_coring("P", c))
_cowreath_digest = _serialized(lambda store, w: store.add_cowreath("W", w))

CORPUS_CORINGS = ("triv_z2", "c2", "c3", "gp")
CORPUS_COWREATHS = ("flip_cw", "flip_cw3", "unit_cw", "dl_cw", "lifted_flip_cw",
                    "lifted_dk_cw")
# the lifts over kZ2: (kZ2, C2, D2) through the flip and the Doi-Koppinen
# entwining; (kZ2, C3, D2) takes about 4.5 s and kZ3 about 25 s at the seed
# commit, too long for a repetition
LIFTS = {"lifted_flip_cw": "flip_entwining", "lifted_dk_cw": "dk_entwining"}
ADJOINT_COWREATHS = ("flip_cw", "flip_cw3", "unit_cw")


class CorpusWorkload:
    def build_inputs(self, seed):
        from coringlab.corpus import Corpus
        corpus = Corpus()
        # the instances the task list uses; Corpus builds them lazily
        for name in CORPUS_CORINGS + ("broken_coalgebra", "flip_entwining",
                                      "dk_entwining", "broken_entwining",
                                      "broken_cw_delta", "broken_cw_xi",
                                      "sign_flip_ttp", "module_twist_self",
                                      "ore_commutative", "ore_quantum_plane",
                                      "ore_weyl", "ore_broken"):
            getattr(corpus, name)
        for name in CORPUS_COWREATHS:
            if name not in LIFTS:  # lifts are built by the task list
                getattr(corpus, name)
        return corpus, seed

    def run(self, inputs, rep):
        from coringlab import coring, cowreath, entwine, ore, wreath
        corpus, seed = inputs
        C = corpus
        for name in CORPUS_CORINGS + ("broken_coalgebra",):
            rep.verdict(f"check_coring.{name}",
                        lambda: coring.check_coring(getattr(C, name)))

        for name in ("flip_entwining", "dk_entwining"):
            rep.verdict(f"check_entwining.{name}",
                        lambda: entwine.check_entwining(getattr(C, name)))
            rep.verdict(f"entwined_coring.{name}", lambda: coring.check_coring(
                entwine.entwined_coring(getattr(C, name))))
            rep.verdict(f"check_entwining_wreath.{name}",
                        lambda: entwine.check_entwining_wreath(getattr(C, name)))
        rep.verdict("check_entwining.broken_entwining",
                    lambda: entwine.check_entwining(C.broken_entwining))

        products = {}
        for name in CORPUS_COWREATHS:
            w = C.dl_cw[0] if name == "dl_cw" else getattr(C, name)
            if name in LIFTS:
                w = rep.verdict(f"lift.{name}",
                                lambda: _lift_and_check(getattr(C, LIFTS[name]), C.flip_cw),
                                digest=_cowreath_digest)
            else:
                rep.verdict(f"check_cowreath.{name}",
                            lambda: cowreath.check_cowreath(w))
            products[name] = rep.verdict(f"cowreath_product.{name}",
                                         lambda: cowreath.cowreath_product(w),
                                         digest=_coring_digest)
            rep.verdict(f"check_coring.product.{name}",
                        lambda: coring.check_coring(products[name]))
        rep.verdict("check_l_cowreath.dl_cw",
                    lambda: cowreath.check_l_cowreath(C.dl_cw[1]))
        for name in ("broken_cw_delta", "broken_cw_xi"):
            rep.verdict(f"check_cowreath.{name}",
                        lambda: cowreath.check_cowreath(getattr(C, name)))

        rext, text, rmap, rw, lw = C.sign_flip_ttp[:5]
        rep.verdict("check_wreath.sign_flip", lambda: wreath.check_wreath(rw))
        rep.verdict("check_l_wreath.sign_flip", lambda: wreath.check_l_wreath(lw))
        rep.verdict("twisted_tensor_product.sign_flip",
                    lambda: _merge(wreath.twisted_tensor_product(rext, text, rmap)[3:]))
        rep.verdict("twisted_tensor_product.broken",
                    lambda: wreath.twisted_tensor_product(*C.broken_ttp_map()))
        rep.verdict("check_left_module_twisting.self",
                    lambda: wreath.check_left_module_twisting(C.module_twist_self))

        for name in ("ore_commutative", "ore_quantum_plane", "ore_weyl"):
            for deg in ORE_DEGREES:
                rep.verdict(f"check_ore_wreath.{name}.{deg}",
                            lambda: ore.check_ore_wreath(getattr(C, name), deg))
                rep.verdict(f"ore_vs_wreath_product.{name}.{deg}",
                            lambda: ore.ore_vs_wreath_product(getattr(C, name), deg))
        rep.verdict("check_ore_wreath.ore_broken.3",
                    lambda: ore.check_ore_wreath(C.ore_broken, 3))

        for name in ADJOINT_COWREATHS:
            rep.verdict(f"adjunction.{name}",
                        lambda: _adjunction_round_trips(getattr(C, name),
                                                        products[name], seed))


def _lift_and_check(entwining, cw):
    from coringlab import cowreath
    lifted = cowreath.entwining_lift_cowreath(entwining, cw)
    return lifted, cowreath.check_cowreath(lifted)


def _merge(reports):
    from coringlab.reports import Report
    out = Report(" + ".join(r.check for r in reports))
    for r in reports:
        out.extend(r)
    return out


def _adjunction_round_trips(w, product, seed):
    """hat and tilde are mutually inverse on seeded samples of colinear
    maps (Y)_xi -> X, with X = C over itself and Y = X (x) M."""
    from coringlab import coring, cowreath
    from coringlab.reports import Report, Witness
    rep = Report(f"adjunction round trips ({w.name})")
    x = coring.comodule_over_itself(w.coring)
    y = cowreath.induced_comodule_tensor(w, x, product)
    samples = cowreath.sample_adjunction_maps(w, x, y, count=ADJUNCTION_SAMPLES,
                                              seed=seed)
    for f in samples:
        g = cowreath.adjunction_hat(w, x, y, f)
        if cowreath.adjunction_tilde(w, x, y, g).matrix != f.matrix:
            rep.add(Witness("adjunction-round-trip", (f.name,), "", ""))
    return rep


# ---------------------------------------------------------------------------
# cli


def cli_groups(fixture, tmp):
    """The README commands, grouped so that a build runs before the check
    of the file it saved.  Paths are relative to the checkout root."""
    g = "sessions/grouplike_coalgebras.json"
    cw = "sessions/cowreaths.json"
    ttp = "sessions/sign_flip_ttp.json"
    ore_q = "sessions/ore_rational.json"
    out = os.path.join(tmp, "out.json")
    lift = os.path.join(tmp, "lift.json")
    return [
        [("check-C2", ["--session", g, "check", "coring", "C2"], None),
         ("check-C2-json", ["--session", g, "check", "coring", "C2", "--format", "json"], None),
         ("check-broken", ["--session", g, "check", "coring", "broken"], None)],
        [("check-dk-json", ["--session", "sessions/entwinings.json", "check",
                            "entwining", "dk", "--format", "json"], None)],
        [("build-product", ["--session", cw, "build", "cowreath-product", "flip",
                            "--out", "P", "--save", out], out),
         ("check-product", ["--session", out, "check", "coring", "P"], None)],
        [("build-lift", ["--session", cw, "build", "lift", "flip-ent", "flip",
                         "--out", "L", "--save", lift], lift),
         ("check-lift", ["--session", lift, "check", "cowreath", "L"], None)],
        [("check-flip-json", ["--session", cw, "check", "cowreath", "flip",
                              "--format", "json"], None)],
        [("check-signflip", ["--session", ttp, "check", "wreath", "signflip"], None),
         ("check-twisting", ["--session", ttp, "check", "twisting", "X=R"], None)],
        [("ore-check", ["--session", ore_q, "ore", "check", "--data",
                        "quantum-plane", "--degree", "4"], None),
         ("ore-compare", ["--session", ore_q, "ore", "compare", "--data",
                          "commutative", "--degree", "4"], None)],
        [("adjoint-hat", ["--session", fixture, "adjoint", "hat", "--cowreath", "W",
                          "--x", "X", "--y", "Y", "--map", "f"], None),
         ("adjoint-hat-json", ["--session", fixture, "adjoint", "hat", "--cowreath",
                               "W", "--x", "X", "--y", "Y", "--map", "f",
                               "--format", "json"], None)],
    ]


FIXTURE = os.path.join("perfbench", "fixtures", "my_session.json")


class CliWorkload:
    """Cold `python -m coringlab.cli` processes, run one at a time.  The
    seed fixes the order of the command groups."""

    def __init__(self, root, env, tmp):
        self.root, self.env, self.tmp = root, env, tmp

    def build_inputs(self, seed):
        import coringlab.cli  # noqa: F401  (what a cold command imports)
        groups = cli_groups(FIXTURE, self.tmp)
        random.Random(f"coringlab-cli-{seed}").shuffle(groups)
        return [cmd for group in groups for cmd in group]

    def run(self, inputs, rep, child=None):
        """`child(name)` returns the argv prefix of a traced command;
        untraced commands run `python -m coringlab.cli`."""
        for name, argv, saved in inputs:
            prefix = child(name) if child else [sys.executable, "-m", "coringlab.cli"]
            rep.verdict(name, lambda: self._command(prefix + argv, saved),
                        outcome=lambda out: (f"exit {out[0]}", (), out[1]))

    def _command(self, argv, saved):
        proc = subprocess.run(argv, cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=120)
        digest = sha(proc.stdout)
        if saved:
            with open(os.path.join(self.root, saved), "rb") as fh:
                digest += ":" + sha(fh.read())
        return proc.returncode, digest
