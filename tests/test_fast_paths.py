"""Each fast path checked against the plain path it replaces.

* A marked identity (`Matrix.identity`) short-circuits `@` and `kron`; the
  results must equal the same products with an unmarked identity matrix.
* `tensor_over` returns marked identities as `project` and `section` of a
  flat quotient; they must carry the data the `from_entries` construction
  gives, and the inherited actions must match the plain products.
* A marked identity builds its entries only when `data` is read; every
  reader must see what the `from_entries` identity holds.
* `tensor_over` skips basis elements whose two actions are marked
  identities, reads columns from cached transposes and checks descent on
  the echelon rows; relations, quotient maps, actions and descent errors
  must match a plain construction that reads every column with
  `Matrix.col` and checks descent on every raw relation.
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
from coringlab.exactla import GF, QQ, Echelon, Matrix, solve
from coringlab.reports import InputError, WellDefinednessError

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


def _sparse_vector(field, n):
    return st.dictionaries(
        st.integers(0, max(n - 1, 0)), st.integers(1, 6).map(field.from_int),
        max_size=n)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(0, 6))
def test_lazy_identity_matches_from_entries(field, data, n):
    def lazy():
        # a fresh identity for each reader, so that each read is the first
        return Matrix.identity(field, n)

    plain = Matrix.from_entries(field, n, n, {(i, i): field.one() for i in range(n)})
    assert lazy() == plain and plain == lazy()
    assert lazy().data == plain.data
    assert lazy().to_rows() == plain.to_rows()
    assert lazy().transpose() == plain.transpose()
    assert lazy().nnz() == plain.nnz() == n
    vec = data.draw(_sparse_vector(field, n))
    assert lazy().apply(vec) == plain.apply(vec) == vec
    assert lazy().tapply(vec) == plain.tapply(vec) == vec
    m = data.draw(sparse_matrix(field))
    assert lazy().kron(m) == plain.kron(m)
    assert m.kron(lazy()) == m.kron(plain)
    assert m.kron(lazy()).data == m.kron(plain).data


def test_identity_of_negative_size_is_input_error():
    with pytest.raises(InputError):
        Matrix.identity(QQ, -1)
    assert Matrix.identity(QQ, 0).data == {}


def plain_tensor_relations(a, m, n):
    """The balancing relations of M (x)_A N and their echelon form, built
    without fast paths: every basis element of A, every (i, j), columns
    read with `Matrix.col`."""
    f = m.field
    dn = n.dim
    ech = Echelon(f, m.dim * dn)
    relations = []
    for k in range(a.dim):
        for i in range(m.dim):
            for j in range(dn):
                rel = {p * dn + j: v for p, v in m.right_action[k].col(i).items()}
                for q, w in n.left_action[k].col(j).items():
                    u = f.sub(rel.get(i * dn + q, f.zero()), w)
                    if f.is_zero(u):
                        rel.pop(i * dn + q, None)
                    else:
                        rel[i * dn + q] = u
                if rel:
                    relations.append(rel)
                    ech.add(rel)
    return relations, ech


def raw_descent_message(m, n, relations, ech):
    """The message of the descent check run on every raw relation, or None
    when both inherited actions descend."""
    f, name = m.field, f"({m.name}(x){n.name})"
    for k, act in enumerate(m.left_action):
        big = unmarked(act).kron(plain_identity(f, n.dim))
        if any(ech.reduce(big.apply(rel)) for rel in relations):
            return (f"left action of {m.left_algebra.labels[k]} does not "
                    f"descend to {name}")
    for k, act in enumerate(n.right_action):
        big = plain_identity(f, m.dim).kron(unmarked(act))
        if any(ech.reduce(big.apply(rel)) for rel in relations):
            return (f"right action of {n.right_algebra.labels[k]} does not "
                    f"descend to {name}")
    return None


def _block_diag(field, mats):
    entries, off = {}, 0
    for mat in mats:
        for i, row in mat.data.items():
            for j, v in row.items():
                entries[(off + i, off + j)] = v
        off += mat.rows
    return Matrix.from_entries(field, off, off, entries)


@st.composite
def change_of_basis(draw, field, d):
    """An invertible P, a permuted unitriangular matrix with entries in
    {-1, 0, 1}, and its inverse."""
    perm = draw(st.permutations(range(d)))
    entries = {(perm[i], i): field.one() for i in range(d)}
    for i in range(d):
        for j in range(i):
            entries[(perm[i], j)] = field.from_int(draw(st.integers(-1, 1)))
    p = Matrix.from_entries(field, d, d, entries)
    return p, solve(p, plain_identity(field, d))


@st.composite
def side_bimodule(draw, field, base, base_on_right, name):
    """A bimodule with `base` acting on the right (or left) side.

    Over kZ/g it is a sum of copies of the regular bimodule.  Over the
    ground field the base acts by a marked or a plain identity and a group
    algebra kZ/h acts on the other side.  Either may be written in a random
    basis; conjugation leaves no marked identity.
    """
    copies = draw(st.integers(1, 2))
    if base.dim == 1:
        other = group_algebra_cyclic(field, draw(st.integers(1, 3)))
        reg = regular_bimodule(other)
        d = copies * other.dim
        acts = reg.left_action if base_on_right else reg.right_action
        other_act = [_block_diag(field, [x] * copies) for x in acts]
        ident = (Matrix.identity if draw(st.booleans()) else plain_identity)(field, d)
        if base_on_right:
            left, right, la, ra = other, base, other_act, [ident]
        else:
            left, right, la, ra = base, other, [ident], other_act
    else:
        reg = regular_bimodule(base)
        d = copies * base.dim
        left = right = base
        la = [_block_diag(field, [x] * copies) for x in reg.left_action]
        ra = [_block_diag(field, [x] * copies) for x in reg.right_action]
    if draw(st.booleans()):
        p, p_inv = draw(change_of_basis(field, d))
        la = [p_inv @ x @ p for x in la]
        ra = [p_inv @ x @ p for x in ra]
    return Bimodule(left, right, d, la, ra, name=name)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), g=st.integers(1, 3))
def test_tensor_over_matches_plain_construction(field, data, g):
    clear_caches()
    base = field_algebra(field) if g == 1 else group_algebra_cyclic(field, g)
    m = data.draw(side_bimodule(field, base, True, "M"))
    n = data.draw(side_bimodule(field, base, False, "N"))
    relations, ech = plain_tensor_relations(base, m, n)
    assert raw_descent_message(m, n, relations, ech) is None
    tq = tensor_over(base, m, n)
    assert tq.relations == relations
    assert tq.free_cols == ech.free_columns()
    assert tq.echelon.pivot_rows == ech.pivot_rows
    _check_against_plain(tq)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_descent_failure_matches_raw_relation_check(field, side):
    clear_caches()
    a = group_algebra_cyclic(field, 2)
    reg = regular_bimodule(a)
    ident = Matrix.identity(field, 2)
    # diag(1, -1) does not commute with the regular action of g, which
    # swaps the basis
    twist = Matrix.from_entries(field, 2, 2, {(0, 0): field.one(),
                                              (1, 1): field.neg(field.one())})
    if side == "left":
        m = Bimodule(a, a, 2, [ident, twist], reg.right_action, name="M")
        n = Bimodule(a, a, 2, reg.left_action, reg.right_action, name="N")
    else:
        m = Bimodule(a, a, 2, reg.left_action, reg.right_action, name="M")
        n = Bimodule(a, a, 2, reg.left_action, [ident, twist], name="N")
    relations, ech = plain_tensor_relations(a, m, n)
    expected = raw_descent_message(m, n, relations, ech)
    assert expected is not None and expected.startswith(side)
    with pytest.raises(WellDefinednessError) as err:
        tensor_over(a, m, n)
    assert str(err.value) == expected
    assert err.value.relation in [ech.full_row(p) for p in ech.pivots()]


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
