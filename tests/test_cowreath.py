import re

import pytest

from coringlab.exactla import QQ, Matrix
from coringlab.bimodule import LinearMap, tensor_over
from coringlab.coring import (
    Comodule,
    check_comodule,
    check_coring,
    comodule_over_itself,
    flip_map,
    hom_basis,
    is_colinear,
    tensor_coalgebra,
)
from coringlab.cowreath import (
    Cowreath,
    adjunction_hat,
    adjunction_tilde,
    check_cow_comodule,
    check_cow_comodule_morphism,
    check_cowreath,
    check_cowreath_abstract,
    check_l_cowreath,
    coring_distributive_cowreath,
    cow_comodule_self,
    cow_comodule_square,
    cowreath_product,
    flip_cowreath,
    functor_o,
    induced_comodule_tensor,
    induction_xi,
    sample_adjunction_maps,
    sample_vw_maps,
    unit_cowreath,
    vw_functor_v,
    vw_functor_w,
    vw_hat,
    vw_tilde,
)
from coringlab.rcat import check_r_object
from coringlab.reports import InputError, PreconditionFailure


def valid_corpus_cowreaths(corpus):
    return [
        corpus.flip_cw,
        corpus.flip_cw3,
        corpus.unit_cw,
        corpus.dl_cw[0],
        corpus.lifted_flip_cw,
        corpus.lifted_dk_cw,
    ]


def invalid_corpus_cowreaths(corpus):
    return [corpus.broken_cw_delta, corpus.broken_cw_xi]


class TestCowreathChecks:
    def test_valid_instances(self, corpus):
        for w in valid_corpus_cowreaths(corpus):
            rep = check_cowreath(w)
            assert rep.ok, rep.summary()

    def test_delta_zero_fails_counit_section(self, corpus):
        rep = check_cowreath(corpus.broken_cw_delta)
        assert not rep.ok and "cw-counit" in rep.equations()
        assert rep.witnesses

    def test_equivalence_of_both_formulations(self, corpus):
        instances = valid_corpus_cowreaths(corpus) + \
            invalid_corpus_cowreaths(corpus)
        assert len(instances) >= 8
        for w in instances:
            concrete = check_cowreath(w)
            abstract = check_cowreath_abstract(w)
            assert concrete.ok == abstract.ok, w.name
            if not concrete.ok:
                assert concrete.witnesses and abstract.witnesses


    def test_no_pipe_is_finished_twice(self, corpus, monkeypatch):
        """A pipe that two comparisons share is finished once, for both:
        the lhs of xi-left-colinear and xi-right-colinear, and the source
        pipe of the two counit laws of a coring and of the abstract
        cowreath.  Checked on every checker that compares a law with its
        source pipe, over the corpus, the lifts and the product corings,
        and on the entwining, Doi-Koppinen and R-algebra laws."""
        from coringlab import bimodule
        from coringlab.cowreath import CowComodule
        from coringlab.entwine import (check_doi_koppinen, check_entwining,
                                       doi_koppinen_self, entwining_wreath)
        from coringlab.rcat import check_r_algebra
        from coringlab.wreath import (check_left_module_twisting, check_wreath,
                                      check_wreath_module, regular_wreath_bimodule)
        cowreaths = valid_corpus_cowreaths(corpus) + invalid_corpus_cowreaths(corpus)
        corings = [corpus.c2, corpus.c3, corpus.gp, corpus.triv_z2, corpus.broken_coalgebra] + [
            cowreath_product(w)[0] for w in (corpus.flip_cw, corpus.unit_cw,
                                             corpus.lifted_flip_cw)]
        rw = corpus.sign_flip_ttp[3]
        y, l_act, r_act = regular_wreath_bimodule(rw)
        entwinings = (corpus.flip_entwining, corpus.dk_entwining, corpus.broken_entwining)
        calls = (
            [(check_coring, c) for c in corings]
            + [(check_comodule, comodule_over_itself(c, side))
               for c in corings for side in ("right", "left")]
            + [(check, w) for w in cowreaths
               for check in (check_cowreath, check_cowreath_abstract)]
            + [(check_cow_comodule, x) for w in cowreaths[:4] for x in (
                cow_comodule_self(w), cow_comodule_square(w),
                CowComodule("left", w, w.object, w.delta))]
            + [(check_wreath, rw), (check_wreath_module, rw, "right", y, r_act),
               (check_wreath_module, rw, "left", y, l_act),
               (check_left_module_twisting, corpus.module_twist_self)]
            + [(check_entwining, e) for e in entwinings]
            + [(check_r_algebra, *entwining_wreath(e)) for e in entwinings]
            + [(check_doi_koppinen, doi_koppinen_self(corpus.z2, corpus.c2))])
        finished = []
        real = bimodule.Pipe.done

        def spy(self, *args, **kwargs):
            finished.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(bimodule.Pipe, "done", spy)
        for check, *args in calls:
            finished.clear()
            check(*args)
            assert finished, (check.__name__, args)
            assert len({id(p) for p in finished}) == len(finished), (check.__name__, args)


class TestCollapseCases:
    def test_flip_over_one_dimensional_coalgebra(self, corpus):
        # D of dimension one: the cowreath is the unit one up to the
        # identification of C (x) k with C
        from coringlab.algebra import field_algebra
        from coringlab.coring import trivial_coring
        ck = trivial_coring(field_algebra(QQ))
        w = flip_cowreath(corpus.c2, ck)
        assert w.object.carrier.dim == 1
        assert check_cowreath(w).ok
        prod, morph = cowreath_product(w)
        assert check_coring(prod).ok and morph.ok
        assert prod.carrier.dim == corpus.c2.carrier.dim

    def test_lift_over_one_dimensional_coalgebra(self, corpus):
        # C = k: the induced coring is the trivial one on the algebra and
        # the lifted cowreath collapses accordingly
        from coringlab.algebra import field_algebra
        from coringlab.coring import trivial_coring
        from coringlab.cowreath import entwining_lift_cowreath
        from coringlab.entwine import flip_entwining as make_flip
        ck = trivial_coring(field_algebra(QQ))
        e = make_flip(corpus.z2, ck)
        base = flip_cowreath(ck, ck)
        lifted = entwining_lift_cowreath(e, base)
        assert check_cowreath(lifted).ok
        prod, morph = cowreath_product(lifted)
        assert check_coring(prod).ok and morph.ok


class TestDistributiveLaw:
    def test_flip_law_over_field(self, corpus):
        right, left = corpus.dl_cw
        assert check_cowreath(right).ok
        assert check_l_cowreath(left).ok

    def test_law_on_three_grouplikes(self, corpus):
        dm = flip_map(corpus.c2.carrier, corpus.c3.carrier)
        right, left = coring_distributive_cowreath(corpus.c2, corpus.c3, dm)
        assert check_cowreath(right).ok
        assert check_l_cowreath(left).ok

    def test_zero_law_rejected_naming_first_axiom(self, corpus):
        dm = flip_map(corpus.c2.carrier, corpus.d2.carrier)
        with pytest.raises(PreconditionFailure) as exc:
            coring_distributive_cowreath(
                corpus.c2, corpus.d2,
                LinearMap.zero(dm.domain, dm.codomain))
        assert "dl-1" in exc.value.report.equations()


class TestProduct:
    def test_flip_product_equals_tensor_coalgebra(self, corpus):
        prod, morph = cowreath_product(corpus.flip_cw)
        assert check_coring(prod).ok
        assert morph.ok
        tc = tensor_coalgebra(corpus.c2, corpus.d2)
        assert prod.comult.matrix == tc.comult.matrix
        assert prod.counit.matrix == tc.counit.matrix

    def test_unit_cowreath_product_is_the_coring(self, corpus):
        prod, morph = cowreath_product(corpus.unit_cw)
        assert prod.carrier.dim == corpus.triv_z2.carrier.dim
        assert check_coring(prod).ok and morph.ok

    def test_xi_is_a_coring_morphism_on_all_valid_instances(self, corpus):
        for w in valid_corpus_cowreaths(corpus):
            prod, morph = cowreath_product(w)
            assert morph.ok, (w.name, morph.summary())

    def test_comult_is_the_coaction_induced_by_c_over_itself(self, corpus):
        """The product's comultiplication and `induced_comodule_tensor` of C
        over itself are one pipe: same carrier and codomain, and both equal
        (C x twist).(comult x delta) written out here."""
        from coringlab.bimodule import pipe, space
        for w in valid_corpus_cowreaths(corpus):
            c = w.coring
            C, M = c.carrier, w.object.carrier
            prod, _ = cowreath_product(w)
            ind = induced_comodule_tensor(w, comodule_over_itself(c), prod)
            assert ind.carrier is prod.carrier and prod.comult.name == "comult"
            assert ind.coaction.codomain is prod.comult.codomain
            assert ind.coaction.name == "rho-tensor"
            plain = (pipe(space(C, M)).apply(c.comult, 0, 1, [C, C])
                     .apply(w.delta, 1, 2, [C, M, M]).apply(w.object.twist, 1, 2, [M, C])
                     .done(space(prod.carrier, prod.carrier)))
            assert ind.coaction.matrix == prod.comult.matrix == plain.matrix, w.name

    def test_lifted_products_pass(self, corpus):
        for w in (corpus.lifted_flip_cw, corpus.lifted_dk_cw):
            prod, morph = cowreath_product(w)
            rep = check_coring(prod)
            assert rep.ok, rep.summary()

    def test_lift_over_kz2_with_three_grouplikes(self, corpus):
        # kZ2/C3/D2: the coassociativity space of the product has relations
        # between leaves, so its leaf-flat space is larger than the
        # factor-flat one the pipes work on
        from coringlab.bimodule import space
        from coringlab.cowreath import entwining_lift_cowreath
        from coringlab.entwine import flip_entwining as make_flip
        e = make_flip(corpus.z2, corpus.c3)
        lifted = entwining_lift_cowreath(e, flip_cowreath(corpus.c3, corpus.d2))
        rep = check_cowreath(lifted)
        assert rep.ok, rep.summary()
        prod, morph = cowreath_product(lifted)
        rep = check_coring(prod)
        assert rep.ok and morph.ok, rep.summary()
        p = prod.carrier
        coassoc = space(p, p, p)
        assert coassoc.leaf_flat_dim() > p.dim ** 3 > coassoc.dim


class TestCowreathComodules:
    def test_self_comodule(self, corpus):
        rep = check_cow_comodule(cow_comodule_self(corpus.flip_cw))
        assert rep.ok, rep.summary()

    def test_square_comodule(self, corpus):
        rep = check_cow_comodule(cow_comodule_square(corpus.flip_cw))
        assert rep.ok, rep.summary()

    def test_identity_morphism(self, corpus):
        x = cow_comodule_self(corpus.flip_cw)
        ident = LinearMap.identity(x.coaction.domain)
        assert check_cow_comodule_morphism(ident, x, x).ok

    def test_broken_coaction_detected(self, corpus):
        w = corpus.flip_cw
        x = cow_comodule_self(w)
        from coringlab.cowreath import CowComodule
        bad = CowComodule("right", w, x.object,
                          x.coaction.scale(QQ.from_int(2)))
        rep = check_cow_comodule(bad)
        assert not rep.ok


class TestInductionFunctors:
    def test_induced_comodule_over_the_product(self, corpus):
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        x = comodule_over_itself(corpus.c2)
        ind = induced_comodule_tensor(w, x, prod)
        assert check_comodule(ind).ok

    def test_functoriality_on_colinear_maps(self, corpus):
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        x = comodule_over_itself(corpus.c2)
        ind = induced_comodule_tensor(w, x, prod)
        # a colinear endomorphism of x extends to one of x (x) M
        from coringlab.bimodule import tensor_maps
        g = LinearMap(x.carrier, x.carrier,
                      Matrix.from_entries(QQ, 2, 2, {(0, 0): QQ.one()}))
        assert is_colinear(g, x, x).ok
        gm = tensor_maps(g, LinearMap.identity(w.object.carrier),
                         ind.carrier, ind.carrier)
        assert is_colinear(gm, ind, ind).ok

    def test_corestriction(self, corpus):
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        x = comodule_over_itself(corpus.c2)
        ind = induced_comodule_tensor(w, x, prod)
        back = induction_xi(w, ind, corpus.c2)
        assert check_comodule(back).ok

    def test_corestriction_of_product_over_itself(self, corpus):
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        y = comodule_over_itself(prod)
        back = induction_xi(w, y, corpus.c2)
        assert check_comodule(back).ok

    def test_unit_cowreath_corestriction_is_identity_like(self, corpus):
        w = corpus.unit_cw
        prod, _ = cowreath_product(w)
        y = comodule_over_itself(prod)
        back = induction_xi(w, y, corpus.triv_z2)
        assert check_comodule(back).ok

    def test_corestriction_keeps_morphisms_colinear(self, corpus):
        # the corestriction acts by the identity on maps, so a colinear map
        # over the product stays colinear over the base coring
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        x = comodule_over_itself(corpus.c2)
        y = induced_comodule_tensor(w, x, prod)
        f = sample_adjunction_maps(w, x, y, count=1, seed=41)[0]
        g = adjunction_hat(w, x, y, f)
        target = induced_comodule_tensor(w, x, prod)
        assert is_colinear(g, y, target).ok
        assert is_colinear(g, induction_xi(w, y, corpus.c2),
                           induction_xi(w, target, corpus.c2)).ok


class TestAdjunction:
    def _setup(self, corpus, w, base):
        prod, _ = cowreath_product(w)
        x = comodule_over_itself(base)
        y = induced_comodule_tensor(w, x, prod)
        return prod, x, y

    @pytest.mark.parametrize("which", ["flip_cw", "flip_cw3", "unit_cw"])
    def test_round_trips_on_samples(self, corpus, which):
        w = getattr(corpus, which)
        base = w.coring
        prod, x, y = self._setup(corpus, w, base)
        samples = sample_adjunction_maps(w, x, y, count=5, seed=7)
        assert len(samples) == 5
        for f in samples:
            g = adjunction_hat(w, x, y, f)
            assert adjunction_tilde(w, x, y, g).matrix == f.matrix
            g2 = adjunction_hat(w, x, y, adjunction_tilde(w, x, y, g))
            assert g2.matrix == g.matrix

    def test_hat_output_is_colinear(self, corpus):
        w = corpus.flip_cw
        prod, x, y = self._setup(corpus, w, w.coring)
        target = induced_comodule_tensor(w, x, prod)
        for f in sample_adjunction_maps(w, x, y, count=3, seed=9):
            g = adjunction_hat(w, x, y, f)
            rep = is_colinear(g, y, target)
            assert rep.ok, rep.summary()

    def test_tilde_output_is_colinear(self, corpus):
        w = corpus.flip_cw
        prod, x, y = self._setup(corpus, w, w.coring)
        y_xi = induction_xi(w, y, w.coring)
        for f in sample_adjunction_maps(w, x, y, count=3, seed=4):
            g = adjunction_hat(w, x, y, f)
            back = adjunction_tilde(w, x, y, g)
            rep = is_colinear(back, y_xi, x)
            assert rep.ok, rep.summary()

    def test_non_colinear_input_detected(self, corpus):
        w = corpus.flip_cw
        prod, x, y = self._setup(corpus, w, w.coring)
        y_xi = induction_xi(w, y, w.coring)
        flagged = None
        for i in range(x.carrier.dim):
            for j in range(y.carrier.dim):
                f = LinearMap(y.carrier, x.carrier, Matrix.from_entries(
                    QQ, x.carrier.dim, y.carrier.dim, {(i, j): QQ.one()}))
                rep = is_colinear(f, y_xi, x)
                if not rep.ok:
                    flagged = rep
                    break
            if flagged:
                break
        assert flagged is not None and flagged.witnesses


class TestExactAdjunction:
    """The adjunction decided on bases of both Hom spaces instead of on
    samples: the transposes are linear, so a basis covers every map."""

    DIMS = {"flip_cw": 4, "flip_cw3": 6, "unit_cw": 2, "dl_cw": 4,
            "lifted_flip_cw": 8, "lifted_dk_cw": 8}

    @pytest.mark.parametrize("which", list(DIMS))
    def test_hom_bases_correspond(self, corpus, which):
        w = corpus.dl_cw[0] if which == "dl_cw" else getattr(corpus, which)
        prod, _ = cowreath_product(w)
        x = comodule_over_itself(w.coring)
        y = induced_comodule_tensor(w, x, prod)
        y_xi = induction_xi(w, y, w.coring)
        target = induced_comodule_tensor(w, x, prod)
        left = hom_basis(y_xi, x)
        right = hom_basis(y, target)
        assert len(left) == len(right) == self.DIMS[which]
        for m in left:
            f = LinearMap(y.carrier, x.carrier, m, name="f")
            g = adjunction_hat(w, x, y, f)
            rep = is_colinear(g, y, target)
            assert rep.ok, rep.summary()
            assert adjunction_tilde(w, x, y, g).matrix == m
        for m in right:
            g = LinearMap(y.carrier, target.carrier, m, name="g")
            f = adjunction_tilde(w, x, y, g)
            rep = is_colinear(f, y_xi, x)
            assert rep.ok, rep.summary()
            assert adjunction_hat(w, x, y, f).matrix == m

    @pytest.mark.parametrize("transpose", [adjunction_hat, adjunction_tilde])
    def test_left_comodules_are_input_errors(self, corpus, transpose):
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        x = comodule_over_itself(corpus.c2)
        y = induced_comodule_tensor(w, x, prod)
        xl = comodule_over_itself(corpus.c2, side="left")
        yl = comodule_over_itself(prod, side="left")
        f = LinearMap(y.carrier, x.carrier,
                      Matrix.zeros(QQ, x.carrier.dim, y.carrier.dim))
        for xx, yy, bad in ((xl, y, xl), (x, yl, yl)):
            with pytest.raises(InputError, match=re.escape(
                    f"the adjunction takes right comodules; {bad.name} is a "
                    "left comodule")):
                transpose(w, xx, yy, f)

    @pytest.mark.parametrize("functor", ["hat", "tilde", "induced"])
    def test_comodule_over_another_coring_is_input_error(self, corpus, functor):
        """X must coact into the coring of the cowreath: X = C[g,x] over
        itself, with each map of the shape the functor takes, used to give
        a map (or a comodule) for the flip cowreath over C2."""
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        y = induced_comodule_tensor(w, comodule_over_itself(corpus.c2), prod)
        xg = comodule_over_itself(corpus.gp)
        target = tensor_over(xg.carrier.right_algebra, xg.carrier, w.object.carrier)
        call = {
            "hat": lambda: adjunction_hat(w, xg, y, LinearMap(
                y.carrier, xg.carrier, Matrix.zeros(QQ, xg.carrier.dim, y.carrier.dim))),
            "tilde": lambda: adjunction_tilde(w, xg, y, LinearMap(
                y.carrier, target, Matrix.zeros(QQ, target.dim, y.carrier.dim))),
            "induced": lambda: induced_comodule_tensor(w, xg, prod),
        }[functor]
        with pytest.raises(InputError, match=re.escape(
                f"{xg.name} is a comodule over C[g,x], not over C2, the coring "
                f"of {w.name}")):
            call()


class TestComparisonFunctor:
    def test_self_comodule_comparison(self, corpus):
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        x = cow_comodule_self(w)
        img = functor_o(w, x, prod)
        assert check_comodule(img).ok

    def test_square_comodule_comparison(self, corpus):
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        x = cow_comodule_square(w)
        img = functor_o(w, x, prod)
        assert check_comodule(img).ok

    def test_invalid_comodule_detected_through_comparison(self, corpus):
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        x = cow_comodule_self(w)
        from coringlab.cowreath import CowComodule
        bad = CowComodule("right", w, x.object,
                          LinearMap.zero(x.coaction.domain,
                                         x.coaction.codomain))
        img = functor_o(w, bad, prod)
        assert not check_comodule(img).ok


class TestVWAdjunction:
    def test_w_is_the_right_half_of_the_bicomodule(self, corpus):
        """W(o) is C (x) Y with the coaction (C x twist).(comult x Y),
        written out here: the carrier and rho of `r_object_bicomodule`."""
        from coringlab.bimodule import pipe, space
        from coringlab.rcat import r_object_bicomodule
        for w in valid_corpus_cowreaths(corpus):
            o, c = w.object, w.coring
            C, Y = c.carrier, o.carrier
            z, b = vw_functor_w(o), r_object_bicomodule(o)
            assert z.carrier is b.carrier and z.coring is c
            assert z.coaction.codomain is b.rho.codomain and z.coaction.name == "rho"
            plain = (pipe(space(C, Y)).apply(c.comult, 0, 1, [C, C])
                     .apply(o.twist, 1, 2, [Y, C]).done(space(z.carrier, C)))
            assert z.coaction.matrix == b.rho.matrix == plain.matrix, w.name

    def test_w_then_v_gives_twist_object(self, corpus):
        o = corpus.flip_cw.object
        z = vw_functor_w(o)
        assert check_comodule(z).ok
        back = vw_functor_v(z)
        assert check_r_object(back).ok

    def test_round_trips(self, corpus):
        o = corpus.flip_cw.object
        z = vw_functor_w(o)
        for g in sample_vw_maps(o, z, count=5, seed=11):
            gh = vw_hat(o, z, g)
            assert vw_tilde(o, z, gh).matrix == g.matrix

    def test_hat_then_tilde_fixes_colinear_maps(self, corpus):
        o = corpus.flip_cw.object
        z = vw_functor_w(o)
        for g in sample_vw_maps(o, z, count=3, seed=13):
            gh = vw_hat(o, z, g)
            gh2 = vw_hat(o, z, vw_tilde(o, z, gh))
            assert gh2.matrix == gh.matrix


class TestObjectLevelDiagram:
    """Each arrow of the comparison square is well defined on the corpus;
    the square itself is not asserted to commute."""

    def test_all_four_paths_build(self, corpus):
        w = corpus.flip_cw
        prod, _ = cowreath_product(w)
        x = cow_comodule_self(w)
        upper = functor_o(w, x, prod)
        assert check_comodule(upper).ok
        lower = induction_xi(w, upper, w.coring)
        assert check_comodule(lower).ok
        z = vw_functor_w(w.object)
        assert check_comodule(z).ok
        tensored = induced_comodule_tensor(w, z, prod)
        assert check_comodule(tensored).ok
