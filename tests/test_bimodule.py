from fractions import Fraction

import pytest

from coringlab.exactla import GF, QQ, Matrix
from coringlab.algebra import (
    field_algebra,
    group_algebra_cyclic,
    truncated_poly_algebra,
)
from coringlab.bimodule import (
    Bimodule,
    LinearMap,
    check_bimodule,
    k_bimodule,
    pipe,
    regroup,
    regular_bimodule,
    space,
    tensor_maps,
    tensor_over,
    unit_iso,
)
from coringlab.reports import InputError, WellDefinednessError


def dense_rref_rank(rows):
    """Independent textbook row reduction over Fraction lists."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [v - c * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def scalar_bimodule(alg, left_scalars, right_scalars, name="M"):
    """One-dimensional bimodule where each basis element acts by a scalar."""
    f = alg.field
    left = [Matrix.from_entries(f, 1, 1, {(0, 0): f.parse(c)})
            for c in left_scalars]
    right = [Matrix.from_entries(f, 1, 1, {(0, 0): f.parse(c)})
             for c in right_scalars]
    return Bimodule(alg, alg, 1, left, right, name=name)


class TestBimoduleChecks:
    def test_regular(self):
        a = group_algebra_cyclic(QQ, 2)
        assert check_bimodule(regular_bimodule(a)).ok

    def test_scalar_actions_through_projection(self):
        a = group_algebra_cyclic(QQ, 2)
        m = scalar_bimodule(a, [1, 1], [1, 1])
        assert check_bimodule(m).ok

    def test_sign_actions_still_commute(self):
        a = group_algebra_cyclic(QQ, 2)
        m = scalar_bimodule(a, [1, 1], [1, -1])
        assert check_bimodule(m).ok

    def test_nonassociative_action_detected(self):
        a = truncated_poly_algebra(QQ, 2)
        f = QQ
        bad = Bimodule(a, a, 1,
                       [Matrix.identity(f, 1), Matrix.identity(f, 1)],
                       [Matrix.identity(f, 1), Matrix.zeros(f, 1, 1)],
                       name="bad")
        rep = check_bimodule(bad)
        assert not rep.ok and "left-assoc" in rep.equations()


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
class TestIdentityMarker:
    """`Bimodule` stores an action equal to the identity as the marked
    identity, and every other action as it was given."""

    def test_plain_identity_is_marked(self, field):
        one = field.one()
        from_entries = Matrix.from_entries(field, 3, 3,
                                           {(i, i): one for i in range(3)})
        from_rows = Matrix.from_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        a = group_algebra_cyclic(field, 2)
        m = Bimodule(a, a, 3, [from_entries, from_rows],
                     [from_rows, from_entries])
        for act, given in zip(m.left_action + m.right_action,
                              [from_entries, from_rows, from_rows, from_entries]):
            assert act.is_identity and not given.is_identity
            assert act == given and given == act
            assert act.to_rows() == given.to_rows()

    def test_regular_unit_column_is_marked(self, field):
        a = group_algebra_cyclic(field, 2)
        reg = regular_bimodule(a)
        assert reg.left_action[0].is_identity
        assert reg.right_action[0].is_identity
        assert reg.left_action[0] == a.left_mult_matrix(0)
        assert not reg.left_action[1].is_identity
        assert not reg.right_action[1].is_identity

    def test_zero_dimensional_bimodule_is_marked(self, field):
        from coringlab.coring import zero_bimodule
        z = zero_bimodule(group_algebra_cyclic(field, 2))
        assert all(act.is_identity and act.rows == 0
                   for act in z.left_action + z.right_action)

    @pytest.mark.parametrize("rows", [
        [[1, 0], [0, -1]],
        [[0, 1], [1, 0]],
        [[2, 0], [0, 2]],
        [[1, 1], [0, 1]],
    ], ids=["diag(1,-1)", "permutation", "2I", "I+offdiag"])
    def test_other_actions_stay_unmarked(self, field, rows):
        a = group_algebra_cyclic(field, 2)
        act = Matrix.from_rows(field, rows)
        ident = Matrix.from_rows(field, [[1, 0], [0, 1]])
        m = Bimodule(a, a, 2, [ident, act], [act, ident])
        assert m.left_action[1] is act and m.right_action[0] is act
        assert not act.is_identity
        assert m.left_action[0].is_identity and m.right_action[1].is_identity


class TestTensorQuotient:
    def test_over_the_field_is_flat(self):
        k = field_algebra(QQ)
        a = k_bimodule(k, 3)
        b = k_bimodule(k, 2)
        tq = tensor_over(k, a, b)
        assert tq.dim == 6
        assert tq.project == Matrix.identity(QQ, 6)

    def test_regular_unit_isomorphism(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        tq = tensor_over(a, reg, reg)
        assert tq.dim == a.dim

    def test_truncated_poly_killing_action(self):
        # both factors are the one-dimensional module with x acting as zero;
        # over k[x]/(x^2) the balancing relations vanish entirely
        a = truncated_poly_algebra(QQ, 2)
        m = scalar_bimodule(a, [1, 0], [1, 0])
        tq = tensor_over(a, m, m)
        assert tq.dim == 1
        # independent oracle: rank of the relation matrix by dense reduction
        flat_rows = [[rel.get(0, 0)] for rel in tq.relations]
        assert dense_rref_rank(flat_rows) == 1 * 1 - tq.dim

    def test_relation_rank_matches_dense_oracle(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        tq = tensor_over(a, reg, reg)
        flat = reg.dim * reg.dim
        rows = []
        for rel in tq.relations:
            row = [0] * flat
            for kk, v in rel.items():
                row[kk] = v
            rows.append(row)
        assert dense_rref_rank(rows) == flat - tq.dim

    def test_project_section_identity(self):
        a = group_algebra_cyclic(QQ, 3)
        reg = regular_bimodule(a)
        tq = tensor_over(a, reg, reg)
        assert tq.project @ tq.section == Matrix.identity(QQ, tq.dim)

    def test_project_kills_exactly_relations(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        tq = tensor_over(a, reg, reg)
        for rel in tq.relations:
            assert tq.project.apply(rel) == {}
        from coringlab.exactla import kernel_basis, rank
        assert rank(tq.project) == tq.dim
        # kernel of project has dimension = rank of the relation span
        assert kernel_basis(tq.project).cols == reg.dim * reg.dim - tq.dim

    def test_base_mismatch_rejected(self):
        a = group_algebra_cyclic(QQ, 2)
        b = truncated_poly_algebra(QQ, 2)
        with pytest.raises(InputError):
            tensor_over(b, regular_bimodule(a), regular_bimodule(a))

    def test_zero_dimensional_factor(self):
        from coringlab.coring import zero_bimodule
        a = group_algebra_cyclic(QQ, 2)
        z = zero_bimodule(a)
        tq = tensor_over(a, regular_bimodule(a), z)
        assert tq.dim == 0


class TestTensorMaps:
    def test_identity(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        tq = tensor_over(a, reg, reg)
        idm = LinearMap.identity(reg)
        tm = tensor_maps(idm, idm, tq, tq)
        assert tm.matrix == Matrix.identity(QQ, tq.dim)

    def test_zero(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        tq = tensor_over(a, reg, reg)
        tm = tensor_maps(LinearMap.zero(reg, reg), LinearMap.identity(reg),
                         tq, tq)
        assert tm.matrix.is_zero()

    def test_functoriality(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        tq = tensor_over(a, reg, reg)
        # bimodule endomorphisms of the regular bimodule: central elements
        f1 = LinearMap(reg, reg, Matrix.from_rows(QQ, [[1, 2], [2, 1]]))
        f2 = LinearMap(reg, reg, Matrix.from_rows(QQ, [[0, 1], [1, 0]]))
        lhs = tensor_maps(f1.after(f2), f2.after(f1), tq, tq)
        rhs = tensor_maps(f1, f2, tq, tq).after(tensor_maps(f2, f1, tq, tq))
        assert lhs.matrix == rhs.matrix

    def test_ill_defined_map_reported(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        tq = tensor_over(a, reg, reg)
        # a non-module map: projection onto the first coordinate
        bad = LinearMap(reg, reg, Matrix.from_rows(QQ, [[1, 0], [0, 0]]))
        with pytest.raises(WellDefinednessError):
            tensor_maps(bad, LinearMap.identity(reg), tq, tq)


class TestUnitIsoAndAssociativity:
    def test_unit_isos_regular(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        for side in ("left", "right"):
            iso, inv = unit_iso(side, reg)
            assert iso.matrix @ inv.matrix == Matrix.identity(QQ, reg.dim)

    def test_unit_iso_zero_dim(self):
        from coringlab.coring import zero_bimodule
        a = group_algebra_cyclic(QQ, 2)
        z = zero_bimodule(a)
        iso, inv = unit_iso("left", z)
        assert iso.matrix.rows == 0

    def test_associator_dims_and_inverse(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        from coringlab.bimodule import associator
        fwd, bwd = associator(reg, reg, reg)
        assert fwd.domain.dim == bwd.codomain.dim
        assert fwd.matrix @ bwd.matrix == Matrix.identity(QQ, fwd.codomain.dim)
        assert bwd.matrix @ fwd.matrix == Matrix.identity(QQ, fwd.domain.dim)

    def test_associator_compatible_with_actions(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        from coringlab.bimodule import associator, bilinearity_report
        fwd, _ = associator(reg, reg, reg)
        assert bilinearity_report(fwd).ok

    def test_regroup_left_assoc_matches_nested(self):
        a = group_algebra_cyclic(QQ, 2)
        reg = regular_bimodule(a)
        s1 = space(reg, reg, reg)
        mn = tensor_over(a, reg, reg)
        s2 = space(mn, reg)
        iso = regroup(s1, s2)
        back = regroup(s2, s1)
        assert iso.matrix @ back.matrix == Matrix.identity(QQ, s2.dim)


def test_pipe_multiplication_of_group_algebra():
    a = group_algebra_cyclic(QQ, 2)
    reg = regular_bimodule(a)
    mul = pipe(space(reg, reg)).absorb_left(1).done(space(reg))
    v = space(reg, reg).quotient.project.apply({1 * 2 + 1: QQ.one()})
    assert mul.apply(v) == {0: Fraction(1)}


from hypothesis import given, settings, strategies as st

signs = st.sampled_from([1, -1])


@settings(max_examples=16, deadline=None)
@given(signs, signs, signs, signs)
def test_sign_module_tensor_dimension(l1, r1, l2, r2):
    """Over the group algebra of the two-element group, one-dimensional
    bimodules are sign choices; the balancing relation kills the line
    exactly when the inner signs disagree."""
    a = group_algebra_cyclic(QQ, 2)
    m = scalar_bimodule(a, [1, l1], [1, r1], name=f"M{l1}{r1}")
    n = scalar_bimodule(a, [1, l2], [1, r2], name=f"N{l2}{r2}")
    assert check_bimodule(m).ok and check_bimodule(n).ok
    tq = tensor_over(a, m, n)
    assert tq.dim == (1 if r1 == l2 else 0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_tensor_over_field_dims_multiply(dm, dn):
    from coringlab.algebra import field_algebra
    from coringlab.bimodule import k_bimodule
    k = field_algebra(QQ)
    tq = tensor_over(k, k_bimodule(k, dm), k_bimodule(k, dn))
    assert tq.dim == dm * dn
    assert tq.project @ tq.section == Matrix.identity(QQ, tq.dim)
