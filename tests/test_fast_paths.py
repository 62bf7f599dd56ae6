"""Each fast path checked against the plain path it replaces.

* A marked identity (`Matrix.identity`) short-circuits `@` and `kron`; the
  results must equal the same products with an unmarked identity matrix.
* `tensor_over` returns marked identities as `project` and `section` of a
  flat quotient; they must carry the data the `from_entries` construction
  gives, and the inherited actions must match the plain products.
* QQ scalars are ints when integral and Fractions otherwise; every
  operation must agree with plain `Fraction` arithmetic.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coringlab.algebra import field_algebra, group_algebra_cyclic
from coringlab.bimodule import (
    Bimodule,
    clear_caches,
    k_bimodule,
    regular_bimodule,
    tensor_over,
)
from coringlab.exactla import GF, QQ, Matrix
from coringlab.reports import InputError

FIELDS = [QQ, GF(101)]
QQ_VALUES = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(max_denominator=50),
)


def plain_identity(field, n):
    """The identity matrix without the identity mark."""
    return Matrix(field, n, n, {i: {i: field.one()} for i in range(n)})


def unmarked(m):
    return Matrix(m.field, m.rows, m.cols, m.data)


@st.composite
def sparse_matrix(draw, field):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, max(rows - 1, 0)),
                  st.integers(0, max(cols - 1, 0))),
        st.one_of(st.integers(-6, 6), st.fractions(max_denominator=7)),
        max_size=rows * cols))
    return Matrix.from_entries(
        field, rows, cols, {k: field.parse(v) for k, v in entries.items()})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_identity_matmul_matches_plain(field, data):
    m = data.draw(sparse_matrix(field))
    left, right = Matrix.identity(field, m.rows), Matrix.identity(field, m.cols)
    assert left @ m == plain_identity(field, m.rows) @ m
    assert m @ right == m @ plain_identity(field, m.cols)
    assert (left @ m).rows == m.rows and (m @ right).cols == m.cols
    with pytest.raises(InputError):
        Matrix.identity(field, m.rows + 1) @ m


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 4))
def test_identity_kron_matches_plain(field, data, n):
    m = data.draw(sparse_matrix(field))
    ident, plain = Matrix.identity(field, n), plain_identity(field, n)
    for fast, slow in ((ident.kron(m), plain.kron(m)),
                       (m.kron(ident), m.kron(plain))):
        assert fast == slow
        assert (fast.rows, fast.cols) == (slow.rows, slow.cols)
        assert all(fast.data.values())
    both = ident.kron(Matrix.identity(field, m.rows))
    assert both.is_identity
    assert both == plain.kron(plain_identity(field, m.rows))


def test_only_identity_is_marked():
    assert Matrix.identity(QQ, 3).is_identity
    assert not plain_identity(QQ, 3).is_identity
    assert not Matrix.identity(QQ, 3).scale(QQ.one()).is_identity


def _plain_project_section(tq):
    """project and section of tq as the from_entries construction builds
    them from the echelon form of the balancing relations."""
    f = tq.field
    flat = tq.factor_left.dim * tq.factor_right.dim
    pos = {c: t for t, c in enumerate(tq.free_cols)}
    entries = {(t, c): f.one() for t, c in enumerate(tq.free_cols)}
    for p, row in tq.echelon.pivot_rows.items():
        for c, v in row.items():
            entries[(pos[c], p)] = f.neg(v)
    project = Matrix.from_entries(f, tq.dim, flat, entries)
    section = Matrix.from_entries(
        f, flat, tq.dim, {(c, t): f.one() for t, c in enumerate(tq.free_cols)})
    return project, section


def _check_against_plain(tq):
    project, section = _plain_project_section(tq)
    assert tq.project == project and tq.section == section
    assert (tq.project.rows, tq.project.cols) == (project.rows, project.cols)
    assert tq.project.is_identity == tq.section.is_identity == (not tq.relations)
    m, n = tq.factor_left, tq.factor_right
    for k, act in enumerate(tq.left_action):
        plain = plain_identity(tq.field, n.dim)
        assert act == project @ unmarked(m.left_action[k]).kron(plain) @ section
    for k, act in enumerate(tq.right_action):
        plain = plain_identity(tq.field, m.dim)
        assert act == project @ plain.kron(unmarked(n.right_action[k])) @ section


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(dm=st.integers(1, 4), dn=st.integers(1, 4), g=st.integers(1, 3))
def test_flat_tensor_over_matches_from_entries(field, dm, dn, g):
    clear_caches()
    k = field_algebra(field)
    group = regular_bimodule(group_algebra_cyclic(field, g))
    ident = Matrix.identity(field, group.dim)
    # kZ/g acting on the left, k on the right: a flat quotient with a
    # nontrivial inherited left action
    m = Bimodule(group.left_algebra, k, group.dim, group.left_action, [ident],
                 name="G")
    tq = tensor_over(k, m, k_bimodule(k, dn))
    assert not tq.relations and tq.dim == group.dim * dn
    _check_against_plain(tq)
    _check_against_plain(tensor_over(k, k_bimodule(k, dm), k_bimodule(k, dn)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_tensor_over_with_relations_matches_from_entries(field):
    clear_caches()
    reg = regular_bimodule(group_algebra_cyclic(field, 2))
    tq = tensor_over(reg.right_algebra, reg, reg)
    assert tq.relations
    _check_against_plain(tq)


def _assert_canonical(x, expected: Fraction):
    assert x == expected
    if expected.denominator == 1:
        assert type(x) is int
    else:
        assert type(x) is Fraction


@settings(max_examples=200, deadline=None)
@given(QQ_VALUES, QQ_VALUES)
def test_qq_arithmetic_matches_fraction(a, b):
    x, y = QQ.parse(a), QQ.parse(b)
    fa, fb = Fraction(a), Fraction(b)
    _assert_canonical(x, fa)
    _assert_canonical(QQ.add(x, y), fa + fb)
    _assert_canonical(QQ.sub(x, y), fa - fb)
    _assert_canonical(QQ.mul(x, y), fa * fb)
    _assert_canonical(QQ.neg(x), -fa)
    if fb:
        _assert_canonical(QQ.div(x, y), fa / fb)
        _assert_canonical(QQ.inv(y), 1 / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(y)
        with pytest.raises(ZeroDivisionError):
            QQ.div(x, y)


@settings(max_examples=100, deadline=None)
@given(QQ_VALUES)
def test_qq_parse_text_and_fmt(a):
    fa = Fraction(a)
    _assert_canonical(QQ.parse(str(fa)), fa)
    _assert_canonical(QQ.parse(f"{fa.numerator * 3}/{fa.denominator * 3}"), fa)
    assert QQ.fmt(QQ.parse(a)) == str(fa)


def test_qq_constants_are_canonical_ints():
    for x in (QQ.zero(), QQ.one(), QQ.from_int(-7), QQ.parse(True),
              QQ.parse(Fraction(6, 3)), QQ.parse("2.0")):
        assert type(x) is int
    assert QQ.parse(True) == 1 and QQ.parse(False) == 0
    _assert_canonical(QQ.parse(0.5), Fraction(1, 2))


@pytest.mark.parametrize("text", ["1/0", "x", "", "1/2/3", None, "nan"])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_bad_scalar_text_is_input_error(field, text):
    with pytest.raises(InputError, match="bad scalar"):
        field.parse(text)


def test_gf_denominator_divisible_by_p_is_input_error():
    with pytest.raises(InputError, match="1/5"):
        GF(5).parse("1/5")
    with pytest.raises(InputError):
        GF(5).parse(Fraction(2, 15))
    assert GF(5).parse("3/2") == 4
