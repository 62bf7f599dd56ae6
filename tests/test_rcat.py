import pytest

from coringlab.exactla import QQ, Matrix
from coringlab.bimodule import LinearMap, regroup, space
from coringlab.coring import check_bicomodule, flip_map, grouplike_coalgebra
from coringlab.rcat import (
    LObject,
    RMorphism,
    RObject,
    canonical_c_object,
    check_l_morphism,
    check_l_object,
    check_r_morphism,
    check_r_object,
    identity_l_object,
    identity_r_object,
    l_tensor_objects,
    object_from_coring_morphism,
    r_object_bicomodule,
    r_tensor_morphisms,
    r_tensor_objects,
    sample_r_morphisms,
)


@pytest.fixture(scope="module")
def flip_obj(corpus):
    d = grouplike_coalgebra(QQ, 2, name="Df")
    return RObject(corpus.c2, d.carrier,
                   flip_map(corpus.c2.carrier, d.carrier), "flipobj")


class TestObjects:
    def test_identity_object(self, corpus):
        assert check_r_object(identity_r_object(corpus.c2)).ok
        assert check_r_object(identity_r_object(corpus.triv_z2)).ok

    def test_canonical_object(self, corpus):
        can = canonical_c_object(corpus.c2)
        assert check_r_object(can).ok

    def test_canonical_grouplike_values(self, corpus):
        can = canonical_c_object(corpus.c2)
        q = can.cm.quotient
        # on g (x) g the three terms collapse to g (x) g
        v = q.project.apply({3: QQ.one()})
        assert can.twist.apply(v) == can.mc.quotient.project.apply({3: QQ.one()})

    def test_canonical_primitive_values(self, corpus):
        can = canonical_c_object(corpus.gp)
        # labels: g at 0, x at 1; g (x) x goes to x (x) g
        v = can.cm.quotient.project.apply({0 * 2 + 1: QQ.one()})
        out = can.twist.apply(v)
        assert out == can.mc.quotient.project.apply({1 * 2 + 0: QQ.one()})

    def test_canonical_on_trivial_coring_is_identity(self, corpus):
        can = canonical_c_object(corpus.triv_z2)
        assert can.twist.matrix == Matrix.identity(QQ, can.cm.dim)

    def test_zero_twist_fails_counit_law(self, corpus, flip_obj):
        bad = RObject(corpus.c2, flip_obj.carrier,
                      LinearMap.zero(flip_obj.cm.quotient,
                                     flip_obj.mc.quotient))
        rep = check_r_object(bad)
        assert not rep.ok and "twist-counit" in rep.equations()

    def test_object_from_coring_morphism(self, corpus):
        ident = LinearMap.identity(corpus.c2.carrier)
        obj = object_from_coring_morphism(ident, corpus.c2, corpus.c2)
        assert check_r_object(obj).ok

    def test_object_from_non_morphism_fails(self, corpus):
        dbl = LinearMap.identity(corpus.c2.carrier).scale(QQ.from_int(2))
        obj = object_from_coring_morphism(dbl, corpus.c2, corpus.c2)
        rep = check_r_object(obj)
        assert not rep.ok

    def test_object_from_morphism_over_group_algebra_base(self, corpus):
        ident = LinearMap.identity(corpus.triv_z2.carrier)
        obj = object_from_coring_morphism(ident, corpus.triv_z2,
                                          corpus.triv_z2)
        assert check_r_object(obj).ok


class TestBicomoduleEquivalence:
    def test_valid_twist_gives_valid_bicomodule(self, corpus, flip_obj):
        assert check_r_object(flip_obj).ok
        assert check_bicomodule(r_object_bicomodule(flip_obj)).ok

    def test_invalid_twist_fails_both(self, corpus, flip_obj):
        bad = RObject(corpus.c2, flip_obj.carrier,
                      LinearMap.zero(flip_obj.cm.quotient,
                                     flip_obj.mc.quotient))
        assert not check_r_object(bad).ok
        assert not check_bicomodule(r_object_bicomodule(bad)).ok

    def test_identity_object_bicomodule(self, corpus):
        obj = identity_r_object(corpus.c2)
        assert check_bicomodule(r_object_bicomodule(obj)).ok


class TestTensor:
    def test_tensor_objects_pass(self, corpus, flip_obj):
        both = r_tensor_objects(flip_obj, flip_obj)
        assert check_r_object(both).ok

    def test_tensor_with_identity_keeps_dimension(self, corpus, flip_obj):
        ident = identity_r_object(corpus.c2)
        t = r_tensor_objects(flip_obj, ident)
        assert t.carrier.dim == flip_obj.carrier.dim

    def test_flip_tensor_flip_is_flip_of_tensor(self, corpus, flip_obj):
        both = r_tensor_objects(flip_obj, flip_obj)
        expected = flip_map(corpus.c2.carrier, both.carrier)
        assert both.twist.matrix == expected.matrix

    def test_identity_morphism_tensor(self, corpus, flip_obj):
        idf = RMorphism.identity(flip_obj)
        t = r_tensor_morphisms(idf, idf)
        assert t.map.matrix == Matrix.identity(QQ, t.src.cm.dim)
        assert check_r_morphism(t).ok

    def test_zero_tensor_is_zero(self, corpus, flip_obj):
        z = RMorphism.zero(flip_obj, flip_obj)
        t = r_tensor_morphisms(z, RMorphism.identity(flip_obj))
        assert t.map.matrix.is_zero()

    def test_sampled_morphisms_are_morphisms(self, corpus, flip_obj):
        for m in sample_r_morphisms(flip_obj, flip_obj, count=4, seed=1):
            assert check_r_morphism(m).ok

    def test_interchange_law(self, corpus, flip_obj):
        fs = sample_r_morphisms(flip_obj, flip_obj, count=2, seed=2)
        gs = sample_r_morphisms(flip_obj, flip_obj, count=2, seed=3)
        f1, f2 = fs
        g1, g2 = gs
        lhs = r_tensor_morphisms(
            RMorphism(flip_obj, flip_obj, f2.map.after(f1.map)),
            RMorphism(flip_obj, flip_obj, g2.map.after(g1.map)))
        t1 = r_tensor_morphisms(f1, g1)
        t2 = r_tensor_morphisms(f2, g2)
        assert lhs.map.matrix == t2.map.after(t1.map).matrix

    def test_monoidal_coherence_under_regroup(self, corpus, flip_obj):
        o = flip_obj
        o12 = r_tensor_objects(o, o)
        left = r_tensor_objects(o12, o)
        o23 = r_tensor_objects(o, o)
        right = r_tensor_objects(o, o23)
        C = corpus.c2.carrier
        conv_dom = regroup(space(C, left.carrier), space(C, right.carrier))
        conv_cod = regroup(space(left.carrier, C), space(right.carrier, C))
        assert conv_cod.after(left.twist).matrix == \
            right.twist.after(conv_dom).matrix



class TestAlgebra:
    def test_algebra_laws_build_one_product_object_and_no_product_morphism(
            self, corpus, monkeypatch):
        """`check_r_algebra` builds the product object M (x) M, the domain
        of mu, and pipes each composite law from its source: no other
        product object and no product morphism is built."""
        from coringlab import rcat
        from coringlab.entwine import entwining_wreath
        calls = {"r_tensor_objects": 0, "r_tensor_morphisms": 0}
        for name in calls:
            real = getattr(rcat, name)

            def spy(*args, name=name, real=real, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(rcat, name, spy)
        assert rcat.check_r_algebra(*entwining_wreath(corpus.flip_entwining)).ok
        assert calls == {"r_tensor_objects": 1, "r_tensor_morphisms": 0}


class TestLeftSide:
    def test_identity_l_object(self, corpus):
        assert check_l_object(identity_l_object(corpus.c2)).ok

    def test_flip_mirror(self, corpus):
        d = grouplike_coalgebra(QQ, 2, name="Dl")
        o = LObject(corpus.c2, d.carrier,
                    flip_map(d.carrier, corpus.c2.carrier))
        assert check_l_object(o).ok
        assert check_l_object(l_tensor_objects(o, o)).ok

    def test_broken_mirror_twist(self, corpus):
        d = grouplike_coalgebra(QQ, 2, name="Dl2")
        o = LObject(corpus.c2, d.carrier,
                    LinearMap.zero(space(d.carrier, corpus.c2.carrier).quotient,
                                   space(corpus.c2.carrier, d.carrier).quotient))
        rep = check_l_object(o)
        assert not rep.ok and "twist-counit" in rep.equations()
