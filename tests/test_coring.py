import re

import pytest

from coringlab.exactla import GF, QQ, Matrix
from coringlab.algebra import field_algebra
from coringlab.reports import InputError
from coringlab.bimodule import LinearMap, space
from coringlab.coring import (
    Bicomodule,
    Comodule,
    check_bicomodule,
    check_comodule,
    check_coring,
    check_coring_morphism,
    comodule_over_itself,
    corings_match,
    grouplike_coalgebra,
    grouplike_primitive_coalgebra,
    hom_basis,
    is_colinear,
    tensor_coalgebra,
    trivial_coring,
    zero_bimodule,
)


class TestCoring:
    def test_trivial_coring(self, corpus):
        assert check_coring(corpus.triv_z2).ok

    def test_grouplike_coalgebras(self, corpus):
        assert check_coring(corpus.c2).ok
        assert check_coring(corpus.c3).ok
        assert check_coring(corpus.gp).ok

    def test_broken_counit_names_the_witness(self, corpus):
        rep = check_coring(corpus.broken_coalgebra)
        assert not rep.ok
        assert {"counit-left", "counit-right"} & set(rep.equations())
        assert any("g" in str(w.basis) for w in rep.witnesses)

    def test_tensor_coalgebra(self, corpus):
        assert check_coring(tensor_coalgebra(corpus.c2, corpus.c3)).ok


class TestComodule:
    def test_coring_over_itself(self, corpus):
        assert check_comodule(comodule_over_itself(corpus.c2)).ok
        assert check_comodule(comodule_over_itself(corpus.c2, "left")).ok
        assert check_comodule(comodule_over_itself(corpus.triv_z2)).ok

    def test_zero_comodule(self, corpus):
        z = zero_bimodule(field_algebra(QQ))
        target = space(z, corpus.c2.carrier)
        m = Comodule("right", corpus.c2, z,
                     LinearMap(z, target.quotient, Matrix.zeros(QQ, 0, 0)))
        assert check_comodule(m).ok

    def test_scaled_coaction_fails_counit(self, corpus):
        c = corpus.c2
        m = Comodule("right", c, c.carrier, c.comult.scale(QQ.from_int(2)))
        rep = check_comodule(m)
        assert not rep.ok and "coaction-counit" in rep.equations()


class TestBicomodule:
    @pytest.mark.parametrize("which", ["c2", "c3", "gp", "triv_z2"])
    def test_every_passing_coring_is_a_bicomodule_over_itself(self, corpus,
                                                              which):
        c = getattr(corpus, which)
        bi = Bicomodule(c, c, c.carrier, c.comult, c.comult)
        assert check_bicomodule(bi).ok

    def test_zero_bicomodule(self, corpus):
        z = zero_bimodule(field_algebra(QQ))
        c = corpus.c2
        lam = LinearMap(z, space(c.carrier, z).quotient, Matrix.zeros(QQ, 0, 0))
        rho = LinearMap(z, space(z, c.carrier).quotient, Matrix.zeros(QQ, 0, 0))
        assert check_bicomodule(Bicomodule(c, c, z, lam, rho)).ok

    def test_broken_lambda_fails(self, corpus):
        c = corpus.c2
        zero_lam = LinearMap.zero(c.carrier, space(c.carrier, c.carrier).quotient)
        bi = Bicomodule(c, c, c.carrier, zero_lam, c.comult)
        rep = check_bicomodule(bi)
        assert not rep.ok and "coaction-counit" in rep.equations()


class TestColinearity:
    def test_identity_and_zero(self, corpus):
        m = comodule_over_itself(corpus.c2)
        ident = LinearMap.identity(corpus.c2.carrier)
        assert is_colinear(ident, m, m).ok
        assert is_colinear(LinearMap.zero(m.carrier, m.carrier), m, m).ok

    def test_noncolinear_permutation(self, corpus):
        m = comodule_over_itself(corpus.c2)
        perm = LinearMap(m.carrier, m.carrier,
                         Matrix.from_rows(QQ, [[0, 1], [1, 0]]))
        rep = is_colinear(perm, m, m)
        assert not rep.ok
        assert any("g" in str(w.basis) for w in rep.witnesses)

    def test_left_comodule(self, corpus):
        """(C x f).lam = lam'.f on C2 over itself from the left: the identity
        passes; swapping the two grouplikes fails at both columns, and each
        witness prints the two sides evaluated here on C (x) C."""
        m = comodule_over_itself(corpus.c2, side="left")
        C = m.carrier
        assert is_colinear(LinearMap.identity(C), m, m).ok
        swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
        rep = is_colinear(LinearMap(C, C, swap), m, m)
        assert rep.equations() == ["colinear"]
        cc = space(C, C)
        lam = cc.section @ m.coaction.matrix
        lhs = cc.project @ Matrix.identity(QQ, 2).kron(swap) @ lam
        rhs = cc.project @ lam @ swap
        assert [(w.basis, w.lhs, w.rhs) for w in rep.witnesses] == [
            ((C.basis_label(j),), cc.quotient.fmt_vec(lhs.col(j)),
             cc.quotient.fmt_vec(rhs.col(j))) for j in range(2)]
        assert [(w.lhs, w.rhs) for w in rep.witnesses] == [
            ("1(x)g", "g(x)g"), ("g(x)1", "1(x)1")]


class TestCoringsMatch:
    """Comodules compare only over one coring: the same object, or one
    with equal base, carrier actions, comultiplication and counit."""

    def test_equal_structure_matches(self, corpus):
        import os
        from coringlab.entwine import entwined_coring
        from coringlab.session import parse_session
        assert corings_match(corpus.c2, corpus.c2)
        assert corings_match(corpus.c2, corpus.d2)
        lifted = corpus.lifted_flip_cw
        assert lifted.xi.codomain is not lifted.coring.carrier
        assert corings_match(lifted.coring, entwined_coring(corpus.flip_entwining))
        path = os.path.join(os.path.dirname(__file__), "..", "sessions",
                            "grouplike_coalgebras.json")
        loaded = parse_session(path).lookup("corings", "C2")
        assert loaded is not corpus.c2 and corings_match(loaded, corpus.c2)

    def test_other_structure_does_not_match(self, corpus):
        assert not corings_match(corpus.c2, corpus.gp)
        assert not corings_match(corpus.c2, corpus.c3)
        assert not corings_match(corpus.c2, corpus.triv_z2)
        assert not corings_match(corpus.c2, corpus.broken_coalgebra)

    def test_hom_basis_and_colinearity_refuse_other_corings(self, corpus):
        x, y = comodule_over_itself(corpus.c2), comodule_over_itself(corpus.gp)
        message = re.escape("comodules over different corings: C2 and C[g,x]")
        with pytest.raises(InputError, match=message):
            hom_basis(x, y)
        with pytest.raises(InputError, match=message):
            is_colinear(LinearMap.identity(corpus.c2.carrier), x, y)

    def test_equal_corings_are_accepted(self, corpus):
        x, y = comodule_over_itself(corpus.c2), comodule_over_itself(corpus.d2)
        assert len(hom_basis(x, y)) == 2
        assert is_colinear(LinearMap.identity(corpus.c2.carrier), x, y).ok

    @pytest.mark.parametrize("src, dst", [
        ("bimodule", "comodule"), ("comodule", "bimodule"),
        ("bicomodule", "comodule")])
    def test_hom_basis_refuses_mixed_kinds(self, corpus, src, dst):
        """A Hom space between two kinds of object is malformed input: with
        a bimodule source, the coaction of a comodule target used to be
        ignored (4 maps where the colinear space has dimension 2)."""
        c = corpus.c2
        objects = {"bimodule": c.carrier, "comodule": comodule_over_itself(c),
                   "bicomodule": Bicomodule(c, c, c.carrier, c.comult, c.comult)}
        names = {"bimodule": "Bimodule", "comodule": "Comodule",
                 "bicomodule": "Bicomodule"}
        with pytest.raises(InputError) as err:
            hom_basis(objects[src], objects[dst])
        assert str(err.value) == (f"hom_basis needs two of one kind, got a "
                                  f"{names[src]} and a {names[dst]}")


class TestCoringMorphism:
    def test_identity(self, corpus):
        ident = LinearMap.identity(corpus.c2.carrier)
        assert check_coring_morphism(ident, corpus.c2, corpus.c2).ok

    def test_counit_into_trivial_coring(self, corpus):
        trivk = trivial_coring(corpus.c2.base)
        rep = check_coring_morphism(corpus.c2.counit, corpus.c2, trivk)
        assert rep.ok

    def test_base_over_another_field_is_refused(self):
        """The bases must match as algebras, field included: kZ2's
        multiplication table over QQ and over GF(3) is the same."""
        c, d = grouplike_coalgebra(QQ, 2), grouplike_coalgebra(GF(3), 2)
        ident = LinearMap(c.carrier, d.carrier, Matrix.identity(QQ, 2), "id")
        with pytest.raises(InputError, match="coring morphism needs a common base"):
            check_coring_morphism(ident, c, d)

    def test_equal_bases_that_are_distinct_objects_pass(self, corpus):
        assert corpus.c2.base is not corpus.d2.base
        ident = LinearMap(corpus.c2.carrier, corpus.d2.carrier,
                          Matrix.identity(QQ, 2), "id")
        assert check_coring_morphism(ident, corpus.c2, corpus.d2).ok

    def test_doubling_fails(self, corpus):
        dbl = LinearMap.identity(corpus.c2.carrier).scale(QQ.from_int(2))
        rep = check_coring_morphism(dbl, corpus.c2, corpus.c2)
        assert not rep.ok and "morphism-comult" in rep.equations()

    def test_composition_closure(self, corpus):
        # g -> g^2 on Z/3 grouplikes is a coalgebra morphism; so is its square
        c = corpus.c3
        perm = {0: 0, 1: 2, 2: 1}
        m = LinearMap(c.carrier, c.carrier, Matrix.from_entries(
            QQ, 3, 3, {(perm[i], i): QQ.one() for i in range(3)}))
        assert check_coring_morphism(m, c, c).ok
        assert check_coring_morphism(m.after(m), c, c).ok
