import pytest

from coringlab.exactla import GF, QQ, Matrix
from coringlab.algebra import (
    AlgebraMorphism,
    FinAlgebra,
    check_algebra,
    check_algebra_morphism,
    field_algebra,
    group_algebra_cyclic,
    identity_morphism,
    matrix_algebra,
    opposite_algebra,
    truncated_poly_algebra,
    unit_inclusion,
)
from coringlab.reports import InputError


def test_field_is_an_algebra():
    assert check_algebra(field_algebra(QQ)).ok


def test_group_algebra_z2():
    a = group_algebra_cyclic(QQ, 2)
    rep = check_algebra(a)
    assert rep.ok
    # hand oracle: all eight triads of the two-element group
    f = QQ
    for i in range(2):
        for j in range(2):
            for k in range(2):
                lhs = a.mul_vec(a.mult[i][j], {k: f.one()})
                assert lhs == {(i + j + k) % 2: f.one()}


def test_truncated_poly_and_matrix_algebras():
    assert check_algebra(truncated_poly_algebra(QQ, 4)).ok
    assert check_algebra(matrix_algebra(GF(3), 2)).ok


def test_broken_associativity_detected():
    f = QQ
    one = f.one()
    # inconsistent table: 1*x = 1 while x*1 = x and x*x = 1, so
    # (x*1)*x = x*x = 1 but x*(1*x) = x*1 = x
    mult = [[{0: one}, {0: one}], [{1: one}, {0: one}]]
    a = FinAlgebra(f, 2, mult, {0: one}, name="broken")
    rep = check_algebra(a)
    assert not rep.ok
    assert "assoc" in rep.equations()
    assert rep.witnesses[0].basis  # a concrete triple is named


def test_unit_failure_detected():
    f = QQ
    one = f.one()
    mult = [[{0: one}, {1: one}], [{1: one}, {}]]
    a = FinAlgebra(f, 2, mult, {1: one}, name="badunit")
    rep = check_algebra(a)
    assert "unit-left" in rep.equations() or "unit-right" in rep.equations()


def test_malformed_table_rejected():
    with pytest.raises(InputError):
        FinAlgebra(QQ, 2, [[{}]], {0: QQ.one()})


def test_identity_and_inclusion_morphisms():
    a = group_algebra_cyclic(QQ, 2)
    assert check_algebra_morphism(identity_morphism(a)).ok
    assert check_algebra_morphism(unit_inclusion(field_algebra(QQ), a)).ok


def test_swap_is_not_a_morphism():
    a = group_algebra_cyclic(QQ, 2)
    swap = AlgebraMorphism(a, a, Matrix.from_rows(QQ, [[0, 1], [1, 0]]))
    rep = check_algebra_morphism(swap)
    assert not rep.ok
    assert "unit" in rep.equations()


def test_composition_of_morphisms_passes():
    a = group_algebra_cyclic(QQ, 4)
    # g -> g^3 is an automorphism of Z/4
    perm = {0: 0, 1: 3, 2: 2, 3: 1}
    m = AlgebraMorphism(a, a, Matrix.from_entries(
        QQ, 4, 4, {(perm[i], i): QQ.one() for i in range(4)}))
    assert check_algebra_morphism(m).ok
    assert check_algebra_morphism(m.compose(m)).ok


def test_opposite_preserves_validity():
    a = group_algebra_cyclic(QQ, 3)
    assert check_algebra(opposite_algebra(a)).ok
    f = QQ
    one = f.one()
    bad = FinAlgebra(f, 2, [[{0: one}, {1: one}], [{1: one}, {1: one}]],
                     {0: one}, name="bad")
    assert check_algebra(bad).ok == check_algebra(opposite_algebra(bad)).ok


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
def test_zero_entries_are_dropped(field):
    """An algebra given with stored zeros in its table or unit is the same
    algebra as without them: `algebras_match` says so and `tensor_over`
    accepts one as the base of the other's regular bimodule."""
    from coringlab.bimodule import algebras_match, regular_bimodule, tensor_over
    with_zeros = FinAlgebra(field, 2, [[{0: 1, 1: 0}, {1: 1}], [{1: 1}, {0: 1}]],
                            {0: 1, 1: 0})
    plain = FinAlgebra(field, 2, [[{0: 1}, {1: 1}], [{1: 1}, {0: 1}]], {0: 1})
    assert with_zeros.mult == plain.mult and with_zeros.unit == plain.unit
    assert algebras_match(with_zeros, plain) and algebras_match(plain, with_zeros)
    tq = tensor_over(with_zeros, regular_bimodule(with_zeros), regular_bimodule(plain))
    assert tq.dim == 2
    if field != QQ:
        # a multiple of p is zero in GF(p)
        mod_p = FinAlgebra(field, 2, [[{0: 1, 1: 101}, {1: 1}], [{1: 1}, {0: 1}]],
                           {0: 1, 1: -202})
        assert mod_p.mult == plain.mult and mod_p.unit == plain.unit


def test_zero_entries_outside_the_basis_are_still_rejected():
    with pytest.raises(InputError, match="outside the basis"):
        FinAlgebra(QQ, 1, [[{0: 1, 3: 0}]], {0: 1})
    with pytest.raises(InputError, match="outside the basis"):
        FinAlgebra(QQ, 1, [[{0: 1}]], {0: 1, 2: 0})
