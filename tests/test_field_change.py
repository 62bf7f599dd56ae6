"""Metamorphic test: the verdicts of a session do not depend on its field.

Each shipped QQ session is parsed again with its field set to GF(p).  Every
`check` target must keep its status and its set of witness tags, and every
map its domain and codomain dimensions, so the quotient bases keep their
ranks.  A prime that divides a denominator of the session's constants is
skipped, since the constant has no image in GF(p).  The QQ runs use the
rational kernels of `exactla` and the GF(p) runs the modular ones, so the
two field implementations are checked against each other on the same
structures.  Generated flip cowreaths with fractional constants, and
twins with a scaled structure map, are checked the same way."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coringlab.cli import run_check
from coringlab.coring import check_coring, coalgebra_over_field
from coringlab.corpus import corpus_sessions
from coringlab.cowreath import Cowreath, check_cowreath, cowreath_product, flip_cowreath
from coringlab.exactla import GF, QQ
from coringlab.ore import check_ore_wreath, ore_vs_wreath_product, twist_vs_skew_mul
from coringlab.session import parse_session

# session section -> `check` kind
CHECKS = {"algebras": "algebra", "bimodules": "bimodule", "corings": "coring",
          "comodules": "comodule", "entwinings": "entwining",
          "r_objects": "r-object", "cowreaths": "cowreath", "wreaths": "wreath",
          "ttps": "wreath", "twistings": "twisting"}

QQ_SESSIONS = sorted(name for name, raw in corpus_sessions().items()
                     if raw["field"] == "QQ")
PRIMES = [5, 7, 101]


def denominators(value):
    """The denominators above 1 of every "p/q" string under value (names
    that contain a slash, such as 'k[x]/(x^3)', are not scalars)."""
    if isinstance(value, dict):
        return {d for v in value.values() for d in denominators(v)}
    if isinstance(value, list):
        return {d for v in value for d in denominators(v)}
    try:
        den = Fraction(value).denominator if isinstance(value, str) else 1
    except ValueError:
        return set()
    return {den} - {1}


def verdicts(raw):
    """(kind, name) -> [(status, tag set)] of every check target, the
    `ore check` and `ore compare` reports of each skew polynomial datum at
    degree 3 among them, and map name -> (domain dim, codomain dim)."""
    s = parse_session(copy.deepcopy(raw))
    reports = {}
    for section, kind in CHECKS.items():
        for name in getattr(s, section):
            reports[kind, name] = run_check(s, kind, name)
    for name, d in s.skewpoly.items():
        reports["ore", name] = [check_ore_wreath(d, 3), ore_vs_wreath_product(d, 3),
                                twist_vs_skew_mul(d, 3)]
    checks = {key: [(r.status, {w.equation for w in r.witnesses}) for r in reps]
              for key, reps in reports.items()}
    dims = {name: (m.domain.dim, m.codomain.dim) for name, m in s.maps.items()}
    return checks, dims


@pytest.fixture(scope="module")
def qq_verdicts():
    return {name: verdicts(corpus_sessions()[name]) for name in QQ_SESSIONS}


def test_six_qq_sessions_are_checked():
    assert len(QQ_SESSIONS) == 6


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("fname", QQ_SESSIONS)
def test_verdicts_survive_reduction_mod_p(fname, p, qq_verdicts):
    raw = corpus_sessions()[fname]
    if any(d % p == 0 for d in denominators(raw)):
        pytest.skip(f"{p} divides a denominator of {fname}")
    checks, dims = qq_verdicts[fname]
    assert verdicts(dict(raw, field=f"GF({p})")) == (checks, dims)


def test_denominators_of_scalar_strings_only():
    assert denominators({"a": [["1/6", "2"]], "b": "3/4", "c": "k[x]/(x^2)"}) == {6, 4}


# ---------------------------------------------------------------------------
# generated flip cowreaths with fractional constants


def rescaled_grouplike(field, lams, name):
    """Delta(h_i) = lam_i^-1 h_i (x) h_i and eps(h_i) = lam_i: the grouplike
    coalgebra on h_i = lam_i g_i, as the benchmark's dimension ladder builds
    it, read from "p/q" strings so that each field reduces the same text."""
    n = len(lams)
    return coalgebra_over_field(
        field, n, [{i * n + i: str(1 / lam)} for i, lam in enumerate(lams)],
        [str(lam) for lam in lams], [f"h{i}" for i in range(n)], name)


def cowreath_verdicts(field, lams, mus, twin):
    """(status, tag set) of `check_cowreath`, of the morphism report of
    `cowreath_product` and of the product's `check_coring`, for the flip
    cowreath of the two rescaled grouplikes, or for its twin with xi or
    delta scaled by t when twin is (which, t)."""
    w = flip_cowreath(rescaled_grouplike(field, lams, "C"),
                      rescaled_grouplike(field, mus, "D"))
    if twin is not None:
        which, t = twin
        t = field.parse(str(t))
        w = Cowreath(w.object, w.xi.scale(t) if which == "xi" else w.xi,
                     w.delta.scale(t) if which == "delta" else w.delta,
                     name="twin")
    product, morph = cowreath_product(w)
    return [(r.status, {x.equation for x in r.witnesses})
            for r in (check_cowreath(w), morph, check_coring(product))]


FRACTIONS = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), data=st.data(),
       twin=st.one_of(st.none(), st.tuples(st.sampled_from(["xi", "delta"]),
                                           FRACTIONS.filter(lambda t: t != 1))))
def test_generated_cowreath_verdicts_survive_reduction_mod_p(n, data, twin):
    """A flip cowreath of two rescaled grouplikes, and a twin with xi or
    delta scaled by t != 1, keep their verdicts over GF(p).  The constants
    are the lam_i, the mu_i and, for a twin, t and t - 1 (a twin whose t
    is 0 or 1 mod p is not broken in the same way); a p that divides a
    numerator or denominator of one of them is skipped."""
    lams = data.draw(st.lists(FRACTIONS, min_size=n, max_size=n))
    mus = data.draw(st.lists(FRACTIONS, min_size=n, max_size=n))
    constants = lams + mus + ([twin[1], twin[1] - 1] if twin else [])
    expected = cowreath_verdicts(QQ, lams, mus, twin)
    if twin is None:
        assert all(status == "pass" for status, _ in expected)
    else:
        assert expected[0][0] == "fail"
    for p in PRIMES:
        if any(c.numerator % p == 0 or c.denominator % p == 0 for c in constants):
            continue
        assert cowreath_verdicts(GF(p), lams, mus, twin) == expected, p
