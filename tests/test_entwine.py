import re

import pytest

from coringlab.exactla import GF, QQ, Matrix
from coringlab.algebra import FinAlgebra, group_algebra_cyclic
from coringlab.bimodule import LinearMap, space
from coringlab.coring import (Coring, check_coring, coalgebra_over_field, corings_match, flip_map,
                             grouplike_coalgebra)
from coringlab.entwine import (
    DoiKoppinenData,
    EntwiningStructure,
    algebra_as_k_bimodule,
    check_doi_koppinen,
    check_entwining,
    check_entwining_wreath,
    doi_koppinen_entwining,
    doi_koppinen_self,
    entwined_coring,
    entwining_r_object,
    flip_entwining,
    lift_r_object,
)
from coringlab.rcat import RObject, check_r_object
from coringlab.reports import InputError


class TestEntwining:
    def test_flip_passes(self, corpus):
        assert check_entwining(corpus.flip_entwining).ok

    def test_doi_koppinen_passes(self, corpus):
        assert check_doi_koppinen(
            doi_koppinen_self(corpus.z2, corpus.c2)).ok
        assert check_entwining(corpus.dk_entwining).ok

    def test_doi_koppinen_values(self, corpus):
        # the coaction is comultiplication and the action multiplication, so
        # on g (x) g the map returns g (x) g.g = g (x) 1
        e = corpus.dk_entwining
        col = e.psi.matrix.col(1 * 2 + 1)
        assert col == {1 * 2 + 0: QQ.one()}

    def test_broken_scaling_fails_mult_law(self, corpus):
        rep = check_entwining(corpus.broken_entwining)
        assert not rep.ok and "entwine-mult" in rep.equations()

    def test_non_multiplicative_coaction_rejected(self, corpus):
        from coringlab.entwine import DoiKoppinenData
        dk = doi_koppinen_self(corpus.z2, corpus.c2)
        bad = DoiKoppinenData(
            dk.h_algebra, dk.h_coalgebra, dk.algebra,
            dk.coaction + Matrix.from_entries(QQ, 4, 2, {(3, 1): QQ.one()}),
            dk.coalgebra, dk.action)
        with pytest.raises(InputError):
            doi_koppinen_entwining(bad)

    def test_trivial_data_gives_the_flip(self, corpus):
        # coaction a -> a (x) 1 and action c (x) h -> eps(h) c
        from coringlab.entwine import DoiKoppinenData
        H, Hc = corpus.z2, corpus.c2
        A, C = corpus.z2, corpus.d2
        f = QQ
        coaction = Matrix.from_entries(
            f, A.dim * H.dim, A.dim,
            {(i * H.dim + 0, i): f.one() for i in range(A.dim)})
        action = Matrix.from_entries(
            f, C.carrier.dim, C.carrier.dim * H.dim,
            {(q, q * H.dim + h): f.one()
             for q in range(C.carrier.dim) for h in range(H.dim)})
        e = doi_koppinen_entwining(
            DoiKoppinenData(H, Hc, A, coaction, C, action))
        expected = flip_map(C.carrier, algebra_as_k_bimodule(A, C.base))
        assert e.psi.matrix == expected.matrix

    def test_entwining_split_into_object_laws(self, corpus):
        # the comultiplication/counit halves of the four laws are exactly the
        # twist object laws over the coalgebra
        for e in (corpus.flip_entwining, corpus.dk_entwining):
            assert check_r_object(entwining_r_object(e)).ok
        bad_obj = entwining_r_object(corpus.broken_entwining)
        full = check_entwining(corpus.broken_entwining)
        obj_rep = check_r_object(bad_obj)
        mult_half = {"entwine-mult", "entwine-unit"} & set(full.equations())
        comult_half = {"twist-comult", "twist-counit"} & set(obj_rep.equations())
        assert mult_half or comult_half


class TestEntwinedCoring:
    def test_flip_coring_has_plain_right_action(self, corpus):
        cor = entwined_coring(corpus.flip_entwining)
        assert check_coring(cor).ok
        A = corpus.z2
        for i in range(A.dim):
            expect = A.right_mult_matrix(i).kron(
                Matrix.identity(QQ, corpus.c2.carrier.dim))
            assert cor.carrier.right_action[i] == expect

    def test_dk_coring_passes(self, corpus):
        cor = entwined_coring(corpus.dk_entwining)
        assert check_coring(cor).ok
        assert cor.carrier.dim == 4

    def test_broken_entwining_breaks_the_coring(self, corpus):
        from coringlab.reports import WellDefinednessError
        try:
            cor = entwined_coring(corpus.broken_entwining)
            rep = check_coring(cor)
            assert not rep.ok
        except WellDefinednessError:
            pass  # the corrupted right action may already fail to balance


class TestLift:
    def test_lift_of_flip_object(self, corpus):
        d = grouplike_coalgebra(QQ, 2, name="Dlift")
        n = RObject(corpus.c2, d.carrier,
                    flip_map(corpus.c2.carrier, d.carrier))
        for e in (corpus.flip_entwining, corpus.dk_entwining):
            lifted = lift_r_object(e, n)
            assert check_r_object(lifted).ok

    def test_lift_of_identity_like_object(self, corpus):
        from coringlab.rcat import identity_r_object
        n = identity_r_object(corpus.c2)
        lifted = lift_r_object(corpus.flip_entwining, n)
        assert check_r_object(lifted).ok
        assert lifted.carrier.dim == corpus.z2.dim ** 2

    def test_lift_of_invalid_object_fails(self, corpus):
        d = grouplike_coalgebra(QQ, 2, name="Dbad")
        bad = RObject(
            corpus.c2, d.carrier,
            LinearMap.zero(space(corpus.c2.carrier, d.carrier).quotient,
                           space(d.carrier, corpus.c2.carrier).quotient))
        lifted = lift_r_object(corpus.flip_entwining, bad)
        rep = check_r_object(lifted)
        assert not rep.ok and rep.witnesses


    def test_lift_over_another_coring_is_input_error(self, corpus):
        """C[g,x] has the dimension of C2 but another comultiplication."""
        from coringlab.cowreath import entwining_lift_cowreath, flip_cowreath
        w = flip_cowreath(corpus.gp, corpus.d2)
        message = re.escape("object over C[g,x] must live over the entwining coalgebra C2")
        with pytest.raises(InputError, match=message):
            lift_r_object(corpus.flip_entwining, w.object)
        with pytest.raises(InputError, match=message):
            entwining_lift_cowreath(corpus.flip_entwining, w)

    def test_lift_over_an_equal_coring_is_accepted(self, corpus):
        from coringlab.cowreath import check_cowreath, entwining_lift_cowreath, flip_cowreath
        w = flip_cowreath(corpus.d2, corpus.c2)
        assert check_cowreath(entwining_lift_cowreath(corpus.flip_entwining, w)).ok


FIELDS = [QQ, GF(101)]


def flip_lift_inputs(field):
    """A fresh flip entwining of kZ2 over C2, and the flip cowreath of C2
    and D2 that lifts along it."""
    from coringlab.cowreath import flip_cowreath
    c, d = (grouplike_coalgebra(field, 2, name=n) for n in ("C2", "D2"))
    return flip_entwining(group_algebra_cyclic(field, 2, name="kZ2"), c), flip_cowreath(c, d)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
class TestOneEntwinedCoring:
    """`entwined_coring` is memoized on its entwining, and a lift builds
    its coring and its normal form once."""

    def test_memoized_on_its_entwining(self, field):
        e, _ = flip_lift_inputs(field)
        cor = entwined_coring(e)
        assert entwined_coring(e) is cor
        named = entwined_coring(e, name="E")
        assert named is not cor and (named.name, named.carrier.name) == ("E", "E")
        assert corings_match(named, cor) and entwined_coring(e) is cor
        twin = EntwiningStructure(e.algebra, e.coalgebra, e.psi, e.name)
        assert entwined_coring(twin) is not cor

    def test_lift_builds_one_entwined_coring(self, field, monkeypatch):
        """On a fresh entwining a lift builds exactly one coring, the one
        its object lives over; once `entwined_coring(e)` has run, none."""
        from coringlab.cowreath import check_cowreath, entwining_lift_cowreath
        built, real = [], Coring.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        (e, w), (e2, w2) = flip_lift_inputs(field), flip_lift_inputs(field)
        monkeypatch.setattr(Coring, "__init__", spy)
        lifted = entwining_lift_cowreath(e, w)
        assert len(built) == 1 and built[0] is lifted.coring is entwined_coring(e)
        cor = entwined_coring(e2)
        del built[:]
        lifted = entwining_lift_cowreath(e2, w2)
        assert built == [] and lifted.coring is cor
        monkeypatch.undo()
        assert check_cowreath(lifted).ok

    def test_xi_and_delta_live_on_one_copy_of_the_carrier(self, field):
        """xi and delta land on an equal copy of the object's coring
        carrier, one copy for both, whose quotients share the numeric core
        of the object's."""
        from coringlab.cowreath import check_cowreath, entwining_lift_cowreath
        lifted = entwining_lift_cowreath(*flip_lift_inputs(field))
        X, M = lifted.coring.carrier, lifted.object.carrier
        copy = lifted.xi.codomain
        assert copy is not X
        assert (copy.name, copy.labels, copy.left_action, copy.right_action) == (
            X.name, X.labels, X.left_action, X.right_action)
        assert lifted.xi.domain is lifted.delta.domain is space(copy, M).quotient
        assert lifted.delta.codomain is space(copy, M, M).quotient
        assert lifted.xi.domain.project is space(X, M).quotient.project
        assert lifted.delta.codomain.project is space(X, M, M).quotient.project
        assert check_cowreath(lifted).ok

    def test_saved_lift_holds_the_carrier_copy(self, field, corpus):
        """A saved lift holds the copy as `kZ2(x)C22` beside the object's
        `kZ2(x)C2`, and xi and delta refer to the copy."""
        from coringlab.cowreath import entwining_lift_cowreath
        from coringlab.session_write import SessionStore
        lifts = [entwining_lift_cowreath(*flip_lift_inputs(field))]
        if field == QQ:
            lifts += [corpus.lifted_flip_cw, corpus.lifted_dk_cw]
        for lifted in lifts:
            store = SessionStore.empty(field)
            store.add_cowreath("L", lifted)
            raw = store.raw
            assert {"kZ2(x)C2", "kZ2(x)C22"} <= set(raw["bimodules"])
            assert [c["carrier"] for c in raw["corings"].values()] == ["kZ2(x)C2"]
            mod = "kZ2(x)D2(x)kZ2"
            assert raw["maps"]["L.xi"]["domain"] == ["kZ2(x)C22", mod]
            assert raw["maps"]["L.xi"]["codomain"] == "kZ2(x)C22"
            assert raw["maps"]["L.delta"]["domain"] == ["kZ2(x)C22", mod]
            assert raw["maps"]["L.delta"]["codomain"] == [["kZ2(x)C22", mod], mod]


class TestEntwiningWreath:
    def test_flip_and_dk_wreaths(self, corpus):
        assert check_entwining_wreath(corpus.flip_entwining).ok
        assert check_entwining_wreath(corpus.dk_entwining).ok

    def test_broken_entwining_fails_wreath_laws(self, corpus):
        rep = check_entwining_wreath(corpus.broken_entwining)
        assert not rep.ok


# -- the kernel formulas against the index loops they replaced -------------------


def loop_right_action(e, i):
    """(a_p (x) c_q).a_i = sum of v w a_t (x) c_s over psi(c_q (x) a_i) =
    sum v a_r (x) c_s and a_p a_r = sum w a_t."""
    A, dc = e.algebra, e.coalgebra.carrier.dim
    f, da = A.field, A.dim
    entries = {}
    for q in range(dc):
        for flat, v in e.psi.matrix.col(q * da + i).items():
            r, s = divmod(flat, dc)
            for p in range(da):
                for t, w in A.mult[p][r].items():
                    key = (t * dc + s, p * dc + q)
                    entries[key] = f.add(entries.get(key, f.zero()), f.mul(v, w))
    return Matrix.from_entries(f, da * dc, da * dc, entries)


def loop_dk_psi(dk):
    """psi(c_q (x) a_i) = sum of v w a_r (x) c_t over rho(a_i) = sum v a_r
    (x) h_s and c_q . h_s = sum w c_t."""
    A, dc, dh = dk.algebra, dk.coalgebra.carrier.dim, dk.h_algebra.dim
    f, da = A.field, A.dim
    entries = {}
    for q in range(dc):
        for i in range(da):
            for flat, v in dk.coaction.col(i).items():
                r, s = divmod(flat, dh)
                for t, w in dk.action.col(q * dh + s).items():
                    key = (r * dc + t, q * da + i)
                    entries[key] = f.add(entries.get(key, f.zero()), f.mul(v, w))
    return Matrix.from_entries(f, da * dc, dc * da, entries)


def u_basis_z2(field):
    """kZ2 in the basis 1, u = 1 + 2g (u^2 = 3 + 2u): its multiplication
    matrices are not monomial."""
    one, u = {0: field.one()}, {1: field.one()}
    return FinAlgebra(field, 2, [[one, u], [u, {0: field.from_int(3), 1: field.from_int(2)}]],
                      one, labels=["1", "u"], name="kZ2(u)")


def dk_cases():
    """Doi-Koppinen data: kZn and Cn on themselves, and kZ2 acting on C2
    relabelled c1, cg."""
    for n in (2, 3):
        yield doi_koppinen_self(group_algebra_cyclic(QQ, n, name=f"kZ{n}"),
                                grouplike_coalgebra(QQ, n, name=f"C{n}"))
    dk = doi_koppinen_self(group_algebra_cyclic(QQ, 2, name="kZ2"),
                           grouplike_coalgebra(QQ, 2, name="C2"))
    one = QQ.one()
    c = coalgebra_over_field(QQ, 2, [{0: one}, {3: one}], [one, one],
                             labels=["c1", "cg"], name="C")
    yield DoiKoppinenData(dk.h_algebra, dk.h_coalgebra, dk.algebra, dk.coaction,
                          c, dk.action)


def entwining_cases(corpus):
    yield from (corpus.flip_entwining, corpus.dk_entwining, corpus.broken_entwining)
    yield from (doi_koppinen_entwining(dk) for dk in dk_cases())
    for field in (QQ, GF(7)):
        yield flip_entwining(u_basis_z2(field), grouplike_coalgebra(field, 3, name="C3"))


class TestKernelFormulas:
    def test_entwined_right_action_matches_the_index_loop(self, corpus):
        for e in entwining_cases(corpus):
            right = entwined_coring(e).carrier.right_action
            assert right == [loop_right_action(e, i) for i in range(e.algebra.dim)], e

    def test_doi_koppinen_psi_matches_the_index_loop(self):
        for dk in dk_cases():
            assert doi_koppinen_entwining(dk).psi.matrix == loop_dk_psi(dk)
