"""The left-handed checks and constructions, derived from the right-handed
ones through the mirror: the mirror's involutions, pinned outcomes of
broken left-handed inputs (status, check name and violated equation tags),
and left-handed constructions over a base that is not the ground field.
"""

import pytest

from coringlab.bimodule import (
    LinearMap,
    k_bimodule,
    mirror,
    mirror_map,
    op,
    regular_bimodule,
    rev,
    space,
)
from coringlab.coring import check_coring, coop, flip_map, grouplike_coalgebra
from coringlab.cowreath import LCowreath, check_l_cowreath
from coringlab.entwine import entwined_coring
from coringlab.exactla import QQ, Matrix
from coringlab.reports import InputError
from coringlab.rcat import (
    LMorphism,
    LObject,
    check_l_morphism,
    check_l_object,
    identity_l_object,
    l_tensor_objects,
)
from coringlab.wreath import LWreath, check_l_wreath


def bump(f, entries):
    """f with 1 added at each (row, col) entry."""
    d = Matrix.from_entries(QQ, f.matrix.rows, f.matrix.cols,
                            {k: QQ.one() for k in entries})
    return LinearMap(f.domain, f.codomain, f.matrix + d, name=f.name)


def outcome(rep):
    return rep.ok, rep.check, rep.equations()


@pytest.fixture(scope="module", params=["c2", "entwined"])
def coring(request, corpus):
    """A coalgebra over QQ, and the coring kZ2 (x) C2 over kZ2, whose tensor
    squares are not flat."""
    if request.param == "c2":
        return corpus.c2
    return entwined_coring(corpus.flip_entwining)


class TestInvolutions:
    def test_op(self, coring):
        a = coring.base
        assert op(a) is not a and op(op(a)) is a
        assert op(a).mult == [[a.mult[j][i] for j in range(a.dim)]
                              for i in range(a.dim)]

    def test_mirror_of_plain_bimodule(self, coring):
        C = coring.carrier
        m = mirror(C)
        assert m.left_action == C.right_action
        assert m.right_action == C.left_action
        assert m.labels == C.labels
        assert m.left_algebra is op(C.right_algebra)
        assert mirror(m) is C

    def test_mirror_of_regular_bimodule(self, coring):
        reg = regular_bimodule(coring.base)
        assert mirror(reg) is regular_bimodule(op(coring.base))
        assert mirror(mirror(reg)) is reg

    def test_mirror_of_tensor_quotient(self, coring):
        C = coring.carrier
        for sp in (space(C, C), space(C, regular_bimodule(coring.base), C),
                   space(C, C, C)):
            q = sp.quotient
            m = mirror(q)
            assert m.dim == q.dim
            assert m.factor_left is mirror(q.factor_right)
            assert mirror(m) is q

    def test_coop(self, coring):
        cop = coop(coring)
        assert cop.base is op(coring.base)
        assert cop.carrier is mirror(coring.carrier)
        assert coop(cop) is coring
        assert check_coring(cop).ok

    def test_rev_round_trip(self, coring):
        C = coring.carrier
        for x in (C, space(C, C).quotient, space(C, C, C).quotient):
            there = rev(x)
            back = rev(mirror(x))
            assert back.after(there).matrix == Matrix.identity(QQ, x.dim)
            assert there.after(back).matrix == Matrix.identity(QQ, x.dim)

    def test_rev_swaps_pure_tensors(self, corpus):
        C = corpus.c2.carrier
        V = k_bimodule(corpus.c2.base, 3, name="V")
        cv = space(C, V).quotient
        r = rev(cv)
        for i in range(C.dim):
            for j in range(V.dim):
                assert r.apply({i * V.dim + j: QQ.one()}) == \
                    {j * C.dim + i: QQ.one()}

    def test_mirror_map_rejects_other_leaves(self, corpus):
        C = corpus.c2.carrier
        f = LinearMap.identity(space(C, C).quotient)
        with pytest.raises(InputError):
            mirror_map(f, dom=space(mirror(C)))


@pytest.fixture(scope="module")
def flip_lobject(corpus):
    d = grouplike_coalgebra(QQ, 2, name="Dm")
    return LObject(corpus.c2, d.carrier, flip_map(d.carrier, corpus.c2.carrier))


class TestBrokenLeftInputs:
    def test_zero_twist(self, flip_lobject):
        o = flip_lobject
        z = LObject(o.coring, o.carrier,
                    LinearMap.zero(o.twist.domain, o.twist.codomain))
        assert outcome(check_l_object(z)) == (
            False, "left twist object Dm", ["twist-counit"])

    def test_perturbed_twist(self, flip_lobject):
        o = flip_lobject
        p = LObject(o.coring, o.carrier, bump(o.twist, [(0, 1)]))
        assert outcome(check_l_object(p)) == (
            False, "left twist object Dm", ["twist-comult", "twist-counit"])

    def test_noncolinear_morphism(self, flip_lobject):
        o = flip_lobject
        perm = Matrix.from_entries(
            QQ, 4, 4, {(0, 1): QQ.one(), (1, 0): QQ.one(),
                       (2, 3): QQ.one(), (3, 2): QQ.one()})
        m = LMorphism(o, o, LinearMap(o.lc.quotient, o.lc.quotient, perm))
        assert outcome(check_l_morphism(m)) == (
            False, "left twist morphism f",
            ["morphism-left-colinear", "morphism-right-colinear"])

    def test_perturbed_xi(self, corpus):
        w = corpus.dl_cw[1]
        bad = LCowreath(w.lobject, bump(w.xi, [(0, 1)]), w.delta, name=w.name)
        assert outcome(check_l_cowreath(bad)) == (
            False, "left cowreath ldl(C2,D2)",
            ["cw-counit", "cw-twist", "xi-left-colinear", "xi-right-colinear"])

    def test_perturbed_delta(self, corpus):
        w = corpus.dl_cw[1]
        bad = LCowreath(w.lobject, w.xi, bump(w.delta, [(1, 0)]), name=w.name)
        assert outcome(check_l_cowreath(bad)) == (
            False, "left cowreath ldl(C2,D2)",
            ["cw-counit", "cw-twist", "delta-left-colinear",
             "delta-right-colinear"])

    @pytest.mark.parametrize("part, entries, tags", [
        ("twist", [(2, 2)], ["lt-mult", "lt-unit"]),
        ("eta", [(1, 0)], ["left-linear", "lw-twist", "lw-unit",
                           "right-linear"]),
        ("mu", [(2, 3)], ["lw-assoc"]),
        ("mu", [(0, 0)], ["left-linear", "lw-assoc", "lw-twist", "lw-unit",
                          "right-linear"]),
    ])
    def test_perturbed_sign_flip_wreath(self, corpus, part, entries, tags):
        lw = corpus.sign_flip_ttp[4]
        maps = dict(twist=lw.twist, eta=lw.eta, mu=lw.mu)
        maps[part] = bump(maps[part], entries)
        bad = LWreath(lw.rext, lw.carrier, name=lw.name, **maps)
        assert outcome(check_l_wreath(bad)) == (
            False, "left wreath lttp(R,T)", tags)


def test_failing_witness_lives_in_the_mirrored_space(flip_lobject):
    """Left-handed witnesses name bases of the mirrored spaces, whose tensor
    factors come in reverse order."""
    o = flip_lobject
    p = LObject(o.coring, o.carrier, bump(o.twist, [(0, 1)]))
    w = next(w for w in check_l_object(p).witnesses
             if w.equation == "twist-counit")
    assert (w.basis, w.lhs, w.rhs) == (("g(x)1",), "2*1", "1")


class TestNonFlatBase:
    """Left-handed constructions over kZ2, where C (x) M is a proper quotient."""

    @pytest.fixture(scope="class", params=["triv_z2", "entwined"])
    def base_coring(self, request, corpus):
        if request.param == "triv_z2":
            return corpus.triv_z2
        return entwined_coring(corpus.flip_entwining)

    def test_identity_l_object(self, base_coring):
        o = identity_l_object(base_coring)
        assert o.carrier is regular_bimodule(base_coring.base)
        assert check_l_object(o).ok

    def test_l_tensor_objects(self, base_coring):
        o = identity_l_object(base_coring)
        t = l_tensor_objects(o, o)
        assert t.carrier.factor_left is o.carrier
        assert check_l_object(t).ok
        assert check_l_object(l_tensor_objects(t, o)).ok

    def test_identity_morphism(self, base_coring):
        o = identity_l_object(base_coring)
        assert check_l_morphism(LMorphism.identity(o)).ok
