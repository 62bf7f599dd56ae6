"""Cowreaths: coalgebras in the twist-object category of a coring.

A cowreath bundles a twist object (M, m) with bicolinear structure maps
xi: C (x) M -> C and delta: C (x) M -> C (x) M (x) M subject to three
diagrams (a counit section law, compatibility of xi with the twist, and
coassociativity).  The same data can be checked through the abstract
coalgebra equations obtained by unfolding the categorical product of
morphisms; both routes are implemented so their equivalence is testable.

The product construction turns C (x) M into a coring over the base; the
comodule categories, the induction functors and the adjunction transposes
live here as well.  Left-handed cowreath data (from a mixed distributive
law) is checked as the right-handed cowreath of its mirror over the
co-opposite coring.
"""

from __future__ import annotations

from .bimodule import (
    LinearMap,
    bilinearity_report,
    compare_pipes,
    mirror_map,
    pipe,
    regroup,
    regular_bimodule,
    space,
    tensor_over,
)
from .coring import (Comodule, Coring, check_coring_morphism, corings_match, flip_map,
                     sample_maps)
from .rcat import (LObject, RMorphism, RObject, _twist_pipes, check_r_morphism, check_r_object,
                   identity_r_object, mirror_object, r_object_bicomodule, r_tensor_objects)
from .reports import InputError, PreconditionFailure, Report, mirrored_report


class Cowreath:
    """A twist object with counit-like xi and comultiplication-like delta."""

    def __init__(self, object: RObject, xi: LinearMap, delta: LinearMap,
                 name=None):
        self.object = object
        self.xi = xi
        self.delta = delta
        self.name = name or f"cowreath({object.name})"
        C = object.coring.carrier
        M = object.carrier
        if xi.domain.dim != space(C, M).dim or xi.codomain.dim != C.dim:
            raise InputError("xi must map C(x)M to C")
        if (delta.domain.dim != space(C, M).dim
                or delta.codomain.dim != space(C, M, M).dim):
            raise InputError("delta must map C(x)M to C(x)M(x)M")

    @property
    def coring(self):
        return self.object.coring

    def __repr__(self):
        return f"Cowreath({self.name})"


def _object_and_colinearity(w: Cowreath, rep: Report):
    """The laws of w's twist object (`check_r_object`), then that xi and
    delta are morphisms in the category (bicolinear maps), on pipes from
    C (x) M: the twist pipes that `check_r_object` reads, kept on w's
    object (`_twist_pipes`: comult (x) M, its continuation by C (x) twist,
    and twist), and delta.  Returns the source pipe of C (x) M and the
    pipes of twist, of delta and of (comult x M x M).delta, which the
    cowreath laws continue."""
    c = w.coring
    C, M = c.carrier, w.object.carrier
    tw = w.object.twist
    src, cm, ct, st = _twist_pipes(w.object)
    d = src.apply(w.delta, 0, 2, [C, M, M])
    rep.extend(check_r_object(w.object))
    rep.extend(bilinearity_report(w.xi, "xi"))
    rep.extend(bilinearity_report(w.delta, "delta"))

    lhs = src.apply(w.xi, 0, 2, [C]).apply(c.comult, 0, 1, [C, C])
    compare_pipes(rep, "xi-left-colinear", lhs, cm.apply(w.xi, 1, 2, [C]))
    compare_pipes(rep, "xi-right-colinear", lhs, ct.apply(w.xi, 0, 2, [C]))

    dc = d.apply(c.comult, 0, 1, [C, C])
    compare_pipes(rep, "delta-left-colinear", dc, cm.apply(w.delta, 1, 2, [C, M, M]))
    compare_pipes(rep, "delta-right-colinear",
                  dc.apply(tw, 1, 2, [M, C]).apply(tw, 2, 2, [M, C]),
                  ct.apply(w.delta, 0, 2, [C, M, M]))
    return src, st, d, dc


def check_cowreath(w: Cowreath) -> Report:
    """The three defining diagrams, after the object laws and the
    bicolinearity of xi and delta."""
    rep = Report(f"cowreath {w.name}")
    src, st, d, _ = _object_and_colinearity(w, rep)
    C, M = w.coring.carrier, w.object.carrier
    tw = w.object.twist
    compare_pipes(rep, "cw-counit", d.apply(w.xi, 0, 2, [C]), src)
    dt = d.apply(tw, 0, 2, [M, C])
    compare_pipes(rep, "cw-twist", dt.apply(w.xi, 1, 2, [C]), st)

    compare_pipes(rep, "cw-coassoc", dt.apply(w.delta, 1, 2, [C, M, M]),
                  d.apply(w.delta, 0, 2, [C, M, M]).apply(tw, 0, 2, [M, C]))
    return rep


def check_cowreath_abstract(w: Cowreath) -> Report:
    """The coalgebra equations written through the categorical product of
    morphisms, an independent route to the same property."""
    rep = Report(f"cowreath {w.name} (abstract)")
    src, _, _, dc = _object_and_colinearity(w, rep)
    c = w.coring
    C, M = c.carrier, w.object.carrier
    tw = w.object.twist
    areg = regular_bimodule(c.base)
    dct = dc.apply(tw, 1, 2, [M, C])
    compare_pipes(rep, "cw-abstract-counit-1",
                  dct.apply(w.xi, 2, 2, [C]).apply(c.counit, 2, 1, [areg]).absorb_left(2), src)
    compare_pipes(rep, "cw-abstract-counit-2",
                  dc.apply(w.xi, 1, 2, [C]).apply(c.counit, 1, 1, [areg]).absorb_right(1), src)

    lhs = (
        dc.apply(w.delta, 1, 2, [C, M, M])
        .apply(tw, 1, 2, [M, C])
        .apply(tw, 2, 2, [M, C])
        .apply(c.counit, 3, 1, [areg])
        .absorb_left(3)
    )
    rhs = (
        dct.apply(w.delta, 2, 2, [C, M, M])
        .apply(c.counit, 2, 1, [areg])
        .absorb_left(2)
    )
    compare_pipes(rep, "cw-abstract-coassoc", lhs, rhs)
    return rep


# ---------------------------------------------------------------------------
# stock cowreaths


def unit_cowreath(c: Coring) -> Cowreath:
    """The base algebra with its unit twist, xi and delta the unit maps."""
    obj = identity_r_object(c)
    C = c.carrier
    areg = obj.carrier
    xi = pipe(space(C, areg)).absorb_left(1).done(space(C), name="xi")
    delta = (
        pipe(space(C, areg))
        .insert_central(areg, c.base.unit_vector(), 2)
        .done(space(C, areg, areg), name="delta")
    )
    return Cowreath(obj, xi, delta, name=f"unit({c.name})")


def flip_cowreath(c: Coring, d: Coring, name=None) -> Cowreath:
    """Coalgebra D over coalgebra C through the flip, xi = C (x) eps_D,
    delta = C (x) comult_D."""
    C, D = c.carrier, d.carrier
    obj = RObject(c, D, flip_map(C, D), name=f"({d.name},flip)")
    areg = regular_bimodule(c.base)
    xi = (
        pipe(space(C, D)).apply(d.counit, 1, 1, [areg]).absorb_left(1)
        .done(space(C), name="xi")
    )
    delta = (
        pipe(space(C, D)).apply(d.comult, 1, 1, [D, D])
        .done(space(C, D, D), name="delta")
    )
    return Cowreath(obj, xi, delta, name=name or f"flip({c.name},{d.name})")


class LCowreath:
    """Left-handed cowreath data: an object of the mirror category with
    structure maps xi: L (x) D -> D and delta: L (x) D -> L (x) L (x) D."""

    def __init__(self, lobject: LObject, xi: LinearMap, delta: LinearMap,
                 name=None):
        self.lobject = lobject
        self.xi = xi
        self.delta = delta
        self.name = name or f"lcowreath({lobject.name})"

    @property
    def coring(self):
        return self.lobject.coring


def check_l_cowreath(w: LCowreath) -> Report:
    """The right-handed cowreath laws on the mirror of w."""
    o = mirror_object(w.lobject)
    D, L = o.coring.carrier, o.carrier
    mw = Cowreath(o, mirror_map(w.xi), mirror_map(w.delta, cod=space(D, L, L)),
                  name=w.name)
    return mirrored_report(check_cowreath(mw), f"left cowreath {w.name}")


def coring_distributive_cowreath(c: Coring, d: Coring, dmap: LinearMap,
                                 name=None):
    """A mixed distributive law between two corings over the same base gives
    a right cowreath on D over C and left cowreath data on C over D.

    Raises PreconditionFailure naming the violated law dl-1..dl-4.
    """
    C, D = c.carrier, d.carrier
    rep = Report("distributive law")
    rep.extend(bilinearity_report(dmap, "dmap"))
    areg = regular_bimodule(c.base)

    src = pipe(space(C, D))
    dm = src.apply(dmap, 0, 2, [D, C])
    # eps_C (x) D and comult_C (x) D are the left xi and delta, and
    # C (x) eps_D and C (x) comult_D the right ones, as in `flip_cowreath`
    ed = src.apply(c.counit, 0, 1, [areg]).absorb_right(0)
    cd = src.apply(c.comult, 0, 1, [C, C])
    de = src.apply(d.counit, 1, 1, [areg]).absorb_left(1)
    dd = src.apply(d.comult, 1, 1, [D, D])

    compare_pipes(rep, "dl-1", dm.apply(c.counit, 1, 1, [areg]).absorb_left(1), ed)
    compare_pipes(rep, "dl-2", dm.apply(c.comult, 1, 1, [C, C]),
                  cd.apply(dmap, 1, 2, [D, C]).apply(dmap, 0, 2, [D, C]))
    compare_pipes(rep, "dl-3", dm.apply(d.counit, 0, 1, [areg]).absorb_right(0), de)
    compare_pipes(rep, "dl-4", dm.apply(d.comult, 0, 1, [D, D]),
                  dd.apply(dmap, 0, 2, [D, C]).apply(dmap, 1, 2, [D, C]))
    if not rep.ok:
        raise PreconditionFailure(rep)

    obj = RObject(c, D, dmap, name=f"({d.name},{dmap.name})")
    right = Cowreath(obj, de.done(space(C), name="xi"),
                     dd.done(space(C, D, D), name="delta"),
                     name=name or f"dl({c.name},{d.name})")

    lobj = LObject(d, C, dmap, name=f"({c.name},{dmap.name})")
    xi_l = ed.done(space(D), name="xi-left")
    delta_l = cd.done(space(C, C, D), name="delta-left")
    left = LCowreath(lobj, xi_l, delta_l, name=f"ldl({c.name},{d.name})")
    return right, left


def entwining_lift_cowreath(e: EntwiningStructure, n: Cowreath,
                            name=None) -> Cowreath:
    """Lift a cowreath over the coalgebra to one over the induced coring:
    n's xi and delta on the legs of `lift_normal_form`.  xi lands in a
    coring equal to, but not, the object's (see `entwine`)."""
    from .entwine import entwined_coring, lift_normal_form, lift_r_object, relabel
    cor = entwined_coring(e)
    obj = lift_r_object(e, n.object)
    ab, C, N, M = e.a_bimodule, e.coalgebra.carrier, n.object.carrier, obj.carrier
    legs_c, legs_m = space(ab, C).quotient, space(ab, N, ab).quotient
    unit = e.algebra.unit
    normal = lift_normal_form(e, cor.carrier, M, N)
    # a (x) xi(c (x) u) (x) b -> a psi(xi(c (x) u) (x) b)
    xi = (
        normal.apply(n.xi, 1, 2, [C]).apply(e.psi, 1, 2, [ab, C])
        .apply(e.mu, 0, 2, [ab]).apply(relabel(legs_c, cor.carrier), 0, 2)
        .done(space(cor.carrier), name="xi-lift")
    )
    # a (x) delta(c (x) u) (x) b, with c' (x) u' (x) v' in delta's image,
    # -> (a (x) c') (x) (1 (x) u' (x) 1) (x) (1 (x) v' (x) b)
    delta = (
        normal.apply(n.delta, 1, 2, [C, N, N]).insert_central(ab, unit, 3)
        .insert_central(ab, unit, 3).insert_central(ab, unit, 2)
        .apply(relabel(legs_c, cor.carrier), 0, 2)
        .apply(relabel(legs_m, M), 1, 3).apply(relabel(legs_m, M), 2, 3)
        .done(space(cor.carrier, M, M), name="delta-lift")
    )
    return Cowreath(obj, xi, delta, name=name or f"lift({n.name})")


# ---------------------------------------------------------------------------
# the product coring


def cowreath_product(w: Cowreath, name=None):
    """The coring on C (x) M, plus the report that xi is a coring morphism
    from it onto C."""
    c = w.coring
    C = c.carrier
    carrier, comult = _induced_coaction(w, C, c.comult, "comult")
    areg = regular_bimodule(c.base)
    counit = (
        pipe(space(carrier))
        .refine(0)
        .apply(w.xi, 0, 2, [C])
        .apply(c.counit, 0, 1, [areg])
        .done(space(areg), name="counit")
    )
    product = Coring(c.base, carrier, comult, counit,
                     name=name or f"{c.name}(x){w.object.name}")
    xi_as_map = LinearMap(carrier, C, w.xi.matrix, name="xi")
    morph = check_coring_morphism(xi_as_map, product, c,
                                  name=f"xi as coring morphism ({w.name})")
    return product, morph


def _induced_coaction(w: Cowreath, X, rho: LinearMap, name, product_carrier=None):
    """The carrier X (x)_A M and the coaction (X x twist).(X x delta).(rho x M)
    of it into carrier (x) product_carrier, by default carrier (x) carrier:
    with X = C and rho = comult the comultiplication of the product coring,
    and with a right C-comodule X the coaction of `induced_comodule_tensor`."""
    C, M = w.coring.carrier, w.object.carrier
    carrier = tensor_over(X.right_algebra, X, M)
    return carrier, (
        pipe(space(carrier))
        .refine(0)
        .apply(rho, 0, 1, [X, C])
        .apply(w.delta, 1, 2, [C, M, M])
        .apply(w.object.twist, 1, 2, [M, C])
        .done(space(carrier, product_carrier or carrier), name=name)
    )


# ---------------------------------------------------------------------------
# comodules over a cowreath


class CowComodule:
    """A right or left comodule over a cowreath, in unreduced form."""

    def __init__(self, side: str, cowreath: Cowreath, object: RObject,
                 coaction: LinearMap, name=None):
        if side not in ("left", "right"):
            raise InputError("side must be 'left' or 'right'")
        self.side = side
        self.cowreath = cowreath
        self.object = object
        self.coaction = coaction
        self.name = name or f"{object.name}"
        C = cowreath.coring.carrier
        X = object.carrier
        M = cowreath.object.carrier
        target = space(C, X, M) if side == "right" else space(C, M, X)
        if (coaction.domain.dim != space(C, X).dim
                or coaction.codomain.dim != target.dim):
            raise InputError("coaction shape mismatch")


def check_cow_comodule(x: CowComodule) -> Report:
    rep = Report(f"cowreath comodule {x.name} ({x.side})")
    w = x.cowreath
    c = w.coring
    C = c.carrier
    X = x.object.carrier
    M = w.object.carrier
    xt = x.object.twist
    mt = w.object.twist
    src, _, _, tw = _twist_pipes(x.object)
    rep.extend(check_r_object(x.object))
    rep.extend(bilinearity_report(x.coaction, "coaction"))

    # the coaction is a morphism into the product object
    if x.side == "right":
        prod, tshape = r_tensor_objects(x.object, w.object), space(C, X, M)
    else:
        prod, tshape = r_tensor_objects(w.object, x.object), space(C, M, X)
    conv = regroup(tshape, space(C, prod.carrier))
    rep.extend(check_r_morphism(
        RMorphism(x.object, prod, conv.after(x.coaction), name="coaction")))
    if x.side == "right":
        co = src.apply(x.coaction, 0, 2, [C, X, M])
        cot = co.apply(xt, 0, 2, [X, C])
        compare_pipes(rep, "comodule-counit", cot.apply(w.xi, 1, 2, [C]), tw)
        compare_pipes(rep, "comodule-coassoc",
                      co.apply(x.coaction, 0, 2, [C, X, M]).apply(xt, 0, 2, [X, C]),
                      cot.apply(w.delta, 1, 2, [C, M, M]))
    else:
        co = src.apply(x.coaction, 0, 2, [C, M, X])
        compare_pipes(rep, "comodule-counit", co.apply(w.xi, 0, 2, [C]), src)
        compare_pipes(rep, "comodule-coassoc",
                      co.apply(w.delta, 0, 2, [C, M, M]).apply(mt, 0, 2, [M, C]),
                      co.apply(mt, 0, 2, [M, C]).apply(x.coaction, 1, 2, [C, M, X]))
    return rep


def check_cow_comodule_morphism(f: LinearMap, x: CowComodule,
                                y: CowComodule) -> Report:
    """f: C (x) X -> C (x) X' commuting with the coactions."""
    rep = Report(f"cowreath comodule morphism {f.name}")
    w = x.cowreath
    C = w.coring.carrier
    X, Y = x.object.carrier, y.object.carrier
    M = w.object.carrier
    rep.extend(check_r_morphism(RMorphism(x.object, y.object, f)))
    if x.side == "right":
        lhs = (
            pipe(space(C, X)).apply(f, 0, 2, [C, Y])
            .apply(y.coaction, 0, 2, [C, Y, M])
        )
        rhs = (
            pipe(space(C, X)).apply(x.coaction, 0, 2, [C, X, M])
            .apply(f, 0, 2, [C, Y])
        )
        compare_pipes(rep, "comodule-morphism", lhs, rhs)
    else:
        mt = w.object.twist
        lhs = (
            pipe(space(C, X)).apply(f, 0, 2, [C, Y])
            .apply(y.coaction, 0, 2, [C, M, Y])
            .apply(mt, 0, 2, [M, C])
        )
        rhs = (
            pipe(space(C, X)).apply(x.coaction, 0, 2, [C, M, X])
            .apply(mt, 0, 2, [M, C])
            .apply(f, 1, 2, [C, Y])
        )
        compare_pipes(rep, "comodule-morphism", lhs, rhs)
    return rep


def cow_comodule_self(w: Cowreath) -> CowComodule:
    """(M, tw) as a right comodule over itself via delta."""
    return CowComodule("right", w, w.object, w.delta, name=f"{w.name} self")


def cow_comodule_square(w: Cowreath) -> CowComodule:
    """M (x) M with the composite twist, coacting through delta."""
    c = w.coring
    C, M = c.carrier, w.object.carrier
    sq = r_tensor_objects(w.object, w.object)
    areg = regular_bimodule(c.base)
    coaction = (
        pipe(space(C, sq.carrier))
        .refine(1)
        .apply(c.comult, 0, 1, [C, C])
        .apply(w.object.twist, 1, 2, [M, C])
        .apply(w.delta, 2, 2, [C, M, M])
        .apply(c.counit, 2, 1, [areg])
        .absorb_left(2)
        .done(space(C, sq.carrier, M), name="rho-square")
    )
    return CowComodule("right", w, sq, coaction, name=f"{w.name} square")


# ---------------------------------------------------------------------------
# functors between the comodule categories


def induced_comodule_tensor(w: Cowreath, x: Comodule, product: Coring,
                            name=None) -> Comodule:
    """Send a right comodule over C to one over the product coring by
    tensoring with M and twisting."""
    if x.side != "right":
        raise InputError("the induction functor takes right comodules")
    _right_comodules(w, x)
    carrier, coaction = _induced_coaction(w, x.carrier, x.coaction, "rho-tensor",
                                          product.carrier)
    return Comodule("right", product, carrier, coaction,
                    name=name or f"{x.name}(x)M")


def induction_xi(w: Cowreath, y: Comodule, c: Coring, name=None) -> Comodule:
    """Corestrict a comodule over the product coring along xi."""
    if y.side != "right":
        raise InputError("corestriction takes right comodules")
    C = c.carrier
    Y = y.carrier
    prod_carrier = y.coring.carrier
    coaction = (
        pipe(space(Y))
        .apply(y.coaction, 0, 1, [Y, prod_carrier])
        .apply(LinearMap(prod_carrier, C, w.xi.matrix, name="xi"), 1, 1, [C])
        .done(space(Y, C), name="rho-xi")
    )
    return Comodule("right", c, Y, coaction, name=name or f"{y.name}_xi")


def _right_comodules(w, x, *others):
    """Raise InputError naming the first of x and others that is not a
    right comodule, or x when it is not over the coring of w."""
    for m in (x, *others):
        if m.side != "right":
            raise InputError(f"the adjunction takes right comodules; "
                             f"{m.name} is a {m.side} comodule")
    if not corings_match(x.coring, w.coring):
        raise InputError(f"{x.name} is a comodule over {x.coring.name}, not over "
                         f"{w.coring.name}, the coring of {w.name}")


def adjunction_hat(w: Cowreath, x: Comodule, y: Comodule,
                   f: LinearMap) -> LinearMap:
    """Transpose a map (Y)_xi -> X to a map Y -> X (x) M."""
    _right_comodules(w, x, y)
    c = w.coring
    C, M = c.carrier, w.object.carrier
    X, Y = x.carrier, y.carrier
    areg = regular_bimodule(c.base)
    target = tensor_over(X.right_algebra, X, M)
    return (
        pipe(space(Y))
        .apply(y.coaction, 0, 1, [Y, y.coring.carrier])
        .refine(1)
        .apply(w.object.twist, 1, 2, [M, C])
        .apply(f, 0, 1, [X])
        .apply(c.counit, 2, 1, [areg])
        .absorb_left(2)
        .done(space(target), name=f"hat({f.name})")
    )


def adjunction_tilde(w: Cowreath, x: Comodule, y: Comodule,
                     g: LinearMap) -> LinearMap:
    """Transpose a map Y -> X (x) M back to a map (Y)_xi -> X."""
    _right_comodules(w, x, y)
    c = w.coring
    C, M = c.carrier, w.object.carrier
    X, Y = x.carrier, y.carrier
    areg = regular_bimodule(c.base)
    return (
        pipe(space(Y))
        .apply(g, 0, 1, [X, M])
        .apply(x.coaction, 0, 1, [X, C])
        .apply(w.xi, 1, 2, [C])
        .apply(c.counit, 1, 1, [areg])
        .absorb_left(1)
        .done(space(X), name=f"tilde({g.name})")
    )


def functor_o(w: Cowreath, x: CowComodule, product: Coring,
              name=None) -> Comodule:
    """The faithful functor sending a cowreath comodule to a comodule over
    the product coring on the carrier C (x) X."""
    if x.side != "right":
        raise InputError("the comparison functor takes right comodules")
    c = w.coring
    C = c.carrier
    X = x.object.carrier
    M = w.object.carrier
    carrier = tensor_over(C.right_algebra, C, X)
    coaction = (
        pipe(space(carrier))
        .refine(0)
        .apply(c.comult, 0, 1, [C, C])
        .apply(x.coaction, 1, 2, [C, X, M])
        .apply(x.object.twist, 1, 2, [X, C])
        .done(space(carrier, product.carrier), name="rho-O")
    )
    return Comodule("right", product, carrier, coaction,
                    name=name or f"O({x.name})")


# ---------------------------------------------------------------------------
# the free/forgetful style adjunction between bicomodules and twist objects


def vw_functor_w(o: RObject, name=None) -> Comodule:
    """C (x) Y with the twisted right coaction: the right half of
    `r_object_bicomodule`."""
    b = r_object_bicomodule(o)
    return Comodule("right", o.coring, b.carrier, b.rho, name=name or f"W({o.name})")


def vw_functor_v(z: Comodule, name=None) -> RObject:
    """The twist rho . (eps (x) Z) on the carrier of a bicomodule."""
    c = z.coring
    C, Z = c.carrier, z.carrier
    areg = regular_bimodule(c.base)
    twist = (
        pipe(space(C, Z))
        .apply(c.counit, 0, 1, [areg])
        .absorb_right(0)
        .apply(z.coaction, 0, 1, [Z, C])
        .done(space(Z, C), name="twist-V")
    )
    return RObject(c, Z, twist, name=name or f"V({z.name})")


def vw_hat(o: RObject, z: Comodule, g: LinearMap) -> LinearMap:
    """Raise g: C (x) Y -> Z to (C (x) g).(comult (x) Y)."""
    c = o.coring
    C, Y = c.carrier, o.carrier
    Z = z.carrier
    return (
        pipe(space(C, Y))
        .apply(c.comult, 0, 1, [C, C])
        .apply(g, 1, 2, [Z])
        .done(space(C, Z), name=f"hat({g.name})")
    )


def vw_tilde(o: RObject, z: Comodule, f: LinearMap) -> LinearMap:
    """Lower f: C (x) Y -> C (x) Z to (eps (x) Z).f."""
    c = o.coring
    C, Y = c.carrier, o.carrier
    Z = z.carrier
    areg = regular_bimodule(c.base)
    return (
        pipe(space(C, Y))
        .apply(f, 0, 2, [C, Z])
        .apply(c.counit, 0, 1, [areg])
        .absorb_right(0)
        .done(space(Z), name=f"tilde({f.name})")
    )


# ---------------------------------------------------------------------------
# sampling colinear maps by solving the constraints exactly


def sample_adjunction_maps(w: Cowreath, x: Comodule, y: Comodule,
                           count=5, seed=0):
    """Deterministic sample of maps (Y)_xi -> X that are bimodule maps and
    colinear for the xi-corestricted coaction."""
    return sample_maps(induction_xi(w, y, w.coring), x, count, seed, "s")


def sample_vw_maps(o: RObject, z: Comodule, count=5, seed=0):
    """Deterministic sample of bicomodule maps C (x) Y -> Z."""
    return sample_maps(vw_functor_w(o), z, count, seed, "s")
