"""Metamorphic test: the verdicts of a session do not depend on its field.

Each shipped QQ session is parsed again with its field set to GF(p).  Every
`check` target must keep its status and its set of witness tags, and every
map its domain and codomain dimensions, so the quotient bases keep their
ranks.  A prime that divides a denominator of the session's constants is
skipped, since the constant has no image in GF(p).  The QQ runs use the
rational kernels of `exactla` and the GF(p) runs the modular ones, so the
two field implementations are checked against each other on the same
structures."""

import copy
from fractions import Fraction

import pytest

from coringlab.cli import run_check
from coringlab.corpus import corpus_sessions
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
