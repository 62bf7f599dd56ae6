"""Memoized constructions: one value per owner and key, and no value that
outlives its owner.

`Pipe.done`, `Pipe.reverse` and the checkers compare leaves and factors by
identity, so a repeated call of a memoized constructor must return the same
object.  Entries live on the object they are built from (`bimodule.memo`),
so dropping the inputs of a computation frees every quotient and space it
built.
"""

import gc

import pytest

from coringlab.algebra import field_algebra, truncated_poly_algebra, unit_inclusion
from coringlab.bimodule import (
    Space,
    TensorQuotient,
    is_regular,
    k_bimodule,
    mirror,
    regular_bimodule,
    space,
    tensor_over,
)
from coringlab.coring import check_coring, coop, flip_map, grouplike_coalgebra
from coringlab.corpus import Corpus
from coringlab.cowreath import check_cowreath, cowreath_product, flip_cowreath
from coringlab.entwine import algebra_as_k_bimodule, flip_entwining
from coringlab.exactla import GF, QQ
from coringlab.rcat import RObject, _twist_pipes, r_object_bicomodule
from coringlab.reports import InputError
from coringlab.wreath import RingExtension, opposite_extension


def _live_quotients_and_spaces():
    return [o for o in gc.get_objects() if isinstance(o, (TensorQuotient, Space))]


def test_dropped_flip_cowreaths_leave_no_quotients_or_spaces():
    def one_round():
        w = flip_cowreath(grouplike_coalgebra(QQ, 4, name="C4"),
                          grouplike_coalgebra(QQ, 4, name="D4"))
        assert check_cowreath(w).ok
        product, morph = cowreath_product(w)
        assert morph.ok and check_coring(product).ok

    gc.collect()
    before = _live_quotients_and_spaces()
    known = {id(o) for o in before}
    for _ in range(3):
        one_round()
    gc.collect()
    left = [o for o in _live_quotients_and_spaces() if id(o) not in known]
    assert left == []


def test_space_without_factors_is_input_error():
    with pytest.raises(InputError):
        space()


@pytest.fixture
def ext():
    k = field_algebra(QQ)
    r = truncated_poly_algebra(QQ, 2, gen="x", name="R")
    return RingExtension(k, r, unit_inclusion(k, r))


class TestSameObject:
    def test_tensor_over_and_space(self):
        c = grouplike_coalgebra(QQ, 2, name="C")
        C, a = c.carrier, c.base
        assert tensor_over(a, C, C) is tensor_over(a, C, C)
        assert space(C, C) is space(C, C)
        assert space(C, C).quotient is tensor_over(a, C, C)
        assert space(C, C, C) is space(C, C, C)
        assert space(C) is space(C)

    def test_regular_bimodule(self):
        a = truncated_poly_algebra(QQ, 3, name="A")
        reg = regular_bimodule(a)
        assert regular_bimodule(a) is reg
        assert is_regular(reg)
        assert not is_regular(k_bimodule(field_algebra(QQ), 1))

    def test_algebra_as_k_bimodule(self):
        a = truncated_poly_algebra(QQ, 2, name="A")
        k1, k2 = field_algebra(QQ), field_algebra(QQ)
        v = algebra_as_k_bimodule(a, k1)
        assert algebra_as_k_bimodule(a, k1) is v
        w = algebra_as_k_bimodule(a, k2)
        assert w.left_algebra is k2 and v.left_algebra is k1
        assert algebra_as_k_bimodule(a, k2) is w

    def test_ring_extension(self, ext):
        assert ext.t_bimodule is ext.t_bimodule
        assert ext.mult_map() is ext.mult_map()

    def test_opposite_extension(self, ext):
        opp = opposite_extension(ext)
        assert opposite_extension(ext) is opp
        assert opposite_extension(opp) is ext
        assert opp.t_bimodule is mirror(ext.t_bimodule)

    def test_coop(self):
        c = grouplike_coalgebra(QQ, 2, name="C")
        assert coop(c) is coop(c)

    def test_r_object_bicomodule(self):
        o = _flip_object()
        assert r_object_bicomodule(o) is r_object_bicomodule(o)

    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
    def test_twist_pipes(self, field):
        o = _flip_object(field)
        assert _twist_pipes(o) is _twist_pipes(o)


def _flip_object(field=QQ):
    c, d = grouplike_coalgebra(field, 2, name="C"), grouplike_coalgebra(field, 2, name="D")
    return RObject(c, d.carrier, flip_map(c.carrier, d.carrier), "flip")


def test_dropped_object_frees_its_bicomodule_without_gc():
    """The bicomodule memo holds no reference back to its object, so
    dropping the object frees both by reference counting alone."""
    import weakref
    o = _flip_object()
    refs = [weakref.ref(o), weakref.ref(r_object_bicomodule(o))]
    assert refs[1]() is not None
    gc.disable()
    try:
        del o
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
def test_dropped_object_frees_its_twist_pipes_without_gc(field):
    """The twist pipes kept on an object, and the finished map kept on one
    of them, hold no reference back to the object, so dropping the object
    frees them by reference counting alone."""
    import weakref
    from coringlab.bimodule import compare_pipes
    from coringlab.rcat import check_r_object
    from coringlab.reports import Report
    o = _flip_object(field)
    assert check_r_object(o).ok
    tw = _twist_pipes(o)[3]
    compare_pipes(Report("twist"), "twist", tw, tw)
    refs = [weakref.ref(o), weakref.ref(tw.finished)]
    del tw
    gc.disable()
    try:
        del o
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_flip_entwinings_over_two_coalgebras_use_their_own_ground_algebras():
    corpus = Corpus()
    first = flip_entwining(corpus.z2, corpus.c2)
    second = flip_entwining(corpus.z2, corpus.d2)
    assert first.a_bimodule.left_algebra is corpus.c2.base
    assert second.a_bimodule.left_algebra is corpus.d2.base
