from fractions import Fraction

import pytest

from coringlab.exactla import GF, QQ, Matrix
from coringlab.algebra import (
    AlgebraMorphism,
    check_algebra,
    field_algebra,
    identity_morphism,
    truncated_poly_algebra,
)
from coringlab.ore import (
    OreTwistTable,
    SkewPoly,
    SkewPolyData,
    check_ore_wreath,
    check_skew_data,
    ore_degree_zero_check,
    ore_twist,
    ore_universal_check,
    ore_vs_wreath_product,
    skew_mul,
    twist_vs_skew_mul,
    wreath_monomial_product,
)
from coringlab.reports import InputError

BOUND = 4


def all_cases(corpus):
    return [corpus.ore_commutative, corpus.ore_quantum_plane, corpus.ore_weyl]


class TestSkewMul:
    def test_commutative_case(self, corpus):
        d = corpus.ore_commutative
        y = SkewPoly.y(d)
        x = SkewPoly.monomial(d, {1: QQ.one()}, 0)
        assert skew_mul(d, y, x).coeffs == {1: {1: Fraction(1)}}

    def test_derivation_rewrite_over_rationals(self):
        # the rewrite itself needs no validity: on length-3 truncated
        # polynomials with the formal derivative, Y.x - x.Y = 1
        B = truncated_poly_algebra(QQ, 3)
        delta = Matrix.from_entries(QQ, 3, 3, {(0, 1): QQ.one(),
                                               (1, 2): QQ.from_int(2)})
        d = SkewPolyData(B, identity_morphism(B), delta, name="rw")
        y = SkewPoly.y(d)
        x = SkewPoly.monomial(d, {1: QQ.one()}, 0)
        yx = skew_mul(d, y, x)
        xy = skew_mul(d, x, y)
        diff = yx + SkewPoly(d, {n: {k: -v for k, v in vec.items()}
                                 for n, vec in xy.coeffs.items()})
        assert diff.coeffs == {0: {0: Fraction(1)}}

    def test_quantum_plane_rewrite(self, corpus):
        d = corpus.ore_quantum_plane
        y = SkewPoly.y(d)
        v = SkewPoly.monomial(d, {1: QQ.one()}, 0)
        assert skew_mul(d, y, v).coeffs == {1: {1: Fraction(2)}}

    def test_degree_bound(self, corpus):
        d = corpus.ore_commutative
        p = SkewPoly(d, {2: {1: QQ.one()}, 0: {0: QQ.one()}})
        q = SkewPoly(d, {3: {0: QQ.one()}})
        assert skew_mul(d, p, q).degree() <= p.degree() + q.degree()

    def test_associative_unital(self, corpus):
        for d in (corpus.ore_quantum_plane, corpus.ore_weyl):
            f = d.coeff_algebra.field
            one = SkewPoly.one(d)
            ps = [SkewPoly.monomial(d, {1: f.one()}, 1),
                  SkewPoly.monomial(d, {0: f.one()}, 2),
                  SkewPoly.monomial(d, {2: f.one()}, 0)]
            for p in ps:
                assert skew_mul(d, one, p) == p == skew_mul(d, p, one)
            a, b, c = ps
            assert skew_mul(d, skew_mul(d, a, b), c) == \
                skew_mul(d, a, skew_mul(d, b, c))


class TestTwistTable:
    def test_base_cases(self, corpus):
        d = corpus.ore_weyl
        t = OreTwistTable(d, BOUND)
        f = d.coeff_algebra.field
        b = {1: f.one()}
        assert ore_twist(t, 0, b) == {0: b}
        expect = {1: d.sigma.matrix.apply(b)}
        img = d.delta.apply(b)
        if img:
            expect[0] = img
        assert ore_twist(t, 1, b) == expect

    def test_quantum_plane_degree_two(self, corpus):
        t = OreTwistTable(corpus.ore_quantum_plane, BOUND)
        assert ore_twist(t, 2, {1: QQ.one()}) == {2: {1: Fraction(4)}}

    def test_out_of_range(self, corpus):
        t = OreTwistTable(corpus.ore_commutative, 2)
        with pytest.raises(InputError):
            ore_twist(t, 3, {0: QQ.one()})

    def test_negative_degree_is_input_error(self, corpus):
        # a negative degree once read the top-degree row of the table
        t = OreTwistTable(corpus.ore_commutative, 3)
        e0 = {0: QQ.one()}
        with pytest.raises(InputError, match="negative degree"):
            ore_twist(t, -1, e0)
        with pytest.raises(InputError, match="negative degree"):
            wreath_monomial_product(t, e0, -1, e0, 0)
        assert ore_twist(t, 3, e0) == {3: e0}

    def test_table_agrees_with_rewrite_engine(self, corpus):
        for d in all_cases(corpus):
            rep = twist_vs_skew_mul(d, BOUND)
            assert rep.ok, rep.summary()


class TestOreWreath:
    def test_all_three_cases_pass(self, corpus):
        for d in all_cases(corpus):
            rep = check_ore_wreath(d, BOUND)
            assert rep.ok, (d.name, rep.summary())

    def test_commutative_higher_bound(self, corpus):
        assert check_ore_wreath(corpus.ore_commutative, 5).ok

    def test_broken_derivation_names_laws(self, corpus):
        rep = check_ore_wreath(corpus.ore_broken, 3)
        assert not rep.ok
        eqs = set(rep.equations())
        assert "derivation" in eqs
        assert "mu-left-linear" in eqs

    def test_product_comparison(self, corpus):
        for d in all_cases(corpus):
            rep = ore_vs_wreath_product(d, BOUND)
            assert rep.ok, (d.name, rep.summary())

    def test_degree_zero_slice(self, corpus):
        for d in all_cases(corpus):
            assert ore_degree_zero_check(d, BOUND).ok


class TestUniversalProperty:
    def test_weyl_case_with_matrix_target(self, corpus):
        d = corpus.ore_weyl
        S, phi, z = corpus.ore_weyl_target
        rep = ore_universal_check(d, BOUND, S, phi, z)
        assert rep.ok, rep.summary()

    def test_relation_violation_detected(self, corpus):
        d = corpus.ore_weyl
        S, phi, _ = corpus.ore_weyl_target
        rep = ore_universal_check(d, BOUND, S, phi, {0: 1})
        assert not rep.ok and "ore-relation" in rep.equations()


class TestIteratedExtension:
    def test_two_stage_tower(self, corpus):
        # first stage: a central variable over the ground field, realized on
        # its length-3 truncation; second stage: the quantum variable on top
        k = field_algebra(QQ)
        stage1 = SkewPolyData(k, identity_morphism(k),
                              Matrix.zeros(QQ, 1, 1), name="stage1")
        assert check_ore_wreath(stage1, BOUND).ok
        stage2 = corpus.ore_quantum_plane
        assert check_ore_wreath(stage2, BOUND).ok

    def test_two_stage_tower_char3(self, corpus):
        f3 = GF(3)
        k3 = field_algebra(f3)
        stage1 = SkewPolyData(k3, identity_morphism(k3),
                              Matrix.zeros(f3, 1, 1), name="stage1")
        assert check_ore_wreath(stage1, BOUND).ok
        assert check_ore_wreath(corpus.ore_weyl, BOUND).ok
