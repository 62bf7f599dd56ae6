"""The monoidal category of twist objects attached to a coring, plus its
left-handed mirror.

An object is an A-bimodule M with an A-bilinear twist t: C (x) M -> M (x) C
compatible with the comultiplication and counit.  A morphism (in unreduced
form) is a C-bicolinear map C (x) M -> C (x) M', where C (x) M carries the
left coaction comult (x) M and the right coaction (C (x) t).(comult (x) M).
Those pipes and that of t are kept on the object (`_twist_pipes`), and
every law on C (x) M continues them.

The left-handed mirror has objects (L, t: L (x) C -> C (x) L).  Its laws are
not restated: an LObject is the RObject (L^op, rev . t . rev) over the
co-opposite coring, read in the opposite bicategory, so every left-handed
check and construction is the right-handed one conjugated by `mirror_object`
and `mirror_morphism`.  Reports keep the left-handed check names with
`left` and `right` swapped in each tag; a failing witness names a basis
element of the mirrored space, whose tensor factors come in reverse order.
"""

from __future__ import annotations

from .bimodule import (
    Bimodule,
    LinearMap,
    bilinearity_report,
    mirror,
    compare_pipes,
    memo,
    mirror_map,
    pipe,
    regular_bimodule,
    space,
    tensor_over,
    unit_twist,
)
from .coring import Bicomodule, Coring, coop, sample_maps
from .reports import InputError, Report, mirrored_report


class RObject:
    """A pair (M, twist) with twist: C (x) M -> M (x) C."""

    def __init__(self, coring: Coring, carrier: Bimodule, twist: LinearMap,
                 name=None):
        self.coring = coring
        self.carrier = carrier
        self.twist = twist
        self.name = name or carrier.name
        C = coring.carrier
        if (twist.domain.dim != space(C, carrier).dim
                or twist.codomain.dim != space(carrier, C).dim):
            raise InputError("twist must map C(x)M to M(x)C")

    @property
    def cm(self):
        return space(self.coring.carrier, self.carrier)

    @property
    def mc(self):
        return space(self.carrier, self.coring.carrier)

    def __repr__(self):
        return f"RObject({self.name} over {self.coring.name})"


class RMorphism:
    """A map C (x) M -> C (x) M' between twist objects."""

    def __init__(self, src: RObject, dst: RObject, map: LinearMap, name=None):
        self.src = src
        self.dst = dst
        self.map = map
        self.name = name or map.name
        if (map.domain.dim != src.cm.dim or map.codomain.dim != dst.cm.dim):
            raise InputError("morphism must map C(x)M to C(x)M'")

    @classmethod
    def identity(cls, o: RObject):
        return cls(o, o, LinearMap.identity(o.cm.quotient), name="id")

    @classmethod
    def zero(cls, src: RObject, dst: RObject):
        return cls(src, dst,
                   LinearMap.zero(src.cm.quotient, dst.cm.quotient), name="0")


def check_r_object(o: RObject) -> Report:
    """Bilinearity plus the twist-comultiplication and twist-counit laws,
    on the twist pipes kept on o (`_twist_pipes`), which a caller that
    checks more laws on them (`cowreath`) reads too."""
    rep = Report(f"twist object {o.name}")
    c = o.coring
    C, M = c.carrier, o.carrier
    src, _, ct, tw = _twist_pipes(o)
    rep.extend(bilinearity_report(o.twist, "twist"))
    compare_pipes(rep, "twist-comult", tw.apply(c.comult, 1, 1, [C, C]),
                  ct.apply(o.twist, 0, 2, [M, C]))
    areg = regular_bimodule(c.base)
    compare_pipes(rep, "twist-counit", tw.apply(c.counit, 1, 1, [areg]).absorb_left(1),
                  src.apply(c.counit, 0, 1, [areg]).absorb_right(0))
    return rep


def _twist_pipes(o: RObject):
    """The pipe src from C (x) M, cm = comult (x) M, ct = (C x twist).cm and
    tw = twist, memoized on o: every law on C (x) M of o, its morphisms
    and its cowreaths continues these."""
    def build():
        C, M = o.coring.carrier, o.carrier
        src = pipe(space(C, M))
        cm = src.apply(o.coring.comult, 0, 1, [C, C])
        return src, cm, cm.apply(o.twist, 1, 2, [M, C]), src.apply(o.twist, 0, 2, [M, C])
    return memo(o, "twist_pipes", build)


def check_r_morphism(m: RMorphism) -> Report:
    """Left and right C-colinearity in unreduced form."""
    rep = Report(f"twist morphism {m.name}")
    c = m.src.coring
    C, N = c.carrier, m.dst.carrier
    rep.extend(bilinearity_report(m.map, "morphism"))
    src, cm, ct, _ = _twist_pipes(m.src)
    fc = src.apply(m.map, 0, 2, [C, N]).apply(c.comult, 0, 1, [C, C])
    compare_pipes(rep, "morphism-left-colinear", fc, cm.apply(m.map, 1, 2, [C, N]))
    compare_pipes(rep, "morphism-right-colinear", fc.apply(m.dst.twist, 1, 2, [N, C]),
                  ct.apply(m.map, 0, 2, [C, N]))
    return rep


def identity_r_object(c: Coring) -> RObject:
    """The unit object: the base algebra with the unit-isomorphism twist."""
    return RObject(c, regular_bimodule(c.base), unit_twist(c.carrier, c.base),
                   name=f"I({c.base.name})")


def r_object_bicomodule(o: RObject) -> Bicomodule:
    """The bicomodule on C (x) M induced by a twist object (memoized on o)."""
    return memo(o, "bicomodule", lambda: _r_object_bicomodule(o))


def _r_object_bicomodule(o: RObject) -> Bicomodule:
    c = o.coring
    C, X = c.carrier, o.cm.quotient
    _, cm, ct, _ = _twist_pipes(o)
    lam = cm.done(space(C, X), name="lam")
    rho = ct.done(space(X, C), name="rho")
    return Bicomodule(c, c, X, lam, rho, name=f"C(x){o.name}")


def r_tensor_objects(o1: RObject, o2: RObject, name=None) -> RObject:
    """Monoidal product: carrier M (x) M', twist (M x t').(t x M')."""
    c = o1.coring
    C = c.carrier
    M1, M2 = o1.carrier, o2.carrier
    carrier = tensor_over(M1.right_algebra, M1, M2)
    twist = (
        pipe(space(C, carrier))
        .refine(1)
        .apply(o1.twist, 0, 2, [M1, C])
        .apply(o2.twist, 1, 2, [M2, C])
        .done(space(carrier, C), name="twist")
    )
    return RObject(c, carrier, twist, name=name or f"{o1.name}(x){o2.name}")


def r_tensor_morphisms(f: RMorphism, g: RMorphism, name=None) -> RMorphism:
    """Monoidal product of morphisms, following the defining composite."""
    C = f.src.coring.carrier
    src = r_tensor_objects(f.src, g.src)
    dst = r_tensor_objects(f.dst, g.dst)
    mp = _tensor_stages(pipe(space(C, src.carrier)).refine(1), f, g).done(
        space(C, dst.carrier), name="f(x)g")
    return RMorphism(src, dst, mp, name=name or f"{f.name}(x){g.name}")


def _tensor_stages(p, f: RMorphism, g: RMorphism):
    """The defining composite of f (x) g, unreduced, on a pipe p at the
    factors (C, M1, M2): comult, f and the twist of its target, g, the
    counit, and the merge of (N1, N2) into N1 (x) N2, ending at
    (C, N1 (x) N2)."""
    c = f.src.coring
    C, N1, N2 = c.carrier, f.dst.carrier, g.dst.carrier
    return (
        p.apply(c.comult, 0, 1, [C, C])
        .apply(f.map, 1, 2, [C, N1])
        .apply(f.dst.twist, 1, 2, [N1, C])
        .apply(g.map, 2, 2, [C, N2])
        .apply(c.counit, 2, 1, [regular_bimodule(c.base)])
        .absorb_left(2)
        ._merge(tensor_over(N1.right_algebra, N1, N2), 1)
    )


def canonical_c_object(c: Coring) -> RObject:
    """The twist c (x) c' -> c_(1) (x) c_(2) eps(c') + eps(c) c'_(1) (x) c'_(2)
    - c (x) c' on the carrier C itself."""
    C = c.carrier
    areg = regular_bimodule(c.base)
    term1 = (
        pipe(space(C, C))
        .apply(c.counit, 1, 1, [areg])
        .absorb_left(1)
        .apply(c.comult, 0, 1, [C, C])
        .done(name="t1")
    )
    term2 = (
        pipe(space(C, C))
        .apply(c.counit, 0, 1, [areg])
        .absorb_right(0)
        .apply(c.comult, 0, 1, [C, C])
        .done(name="t2")
    )
    ident = LinearMap.identity(space(C, C).quotient)
    twist = term1 + term2 - ident
    return RObject(c, C, twist, name=f"({c.name},can)")


def object_from_coring_morphism(phi: LinearMap, d: Coring, c: Coring) -> RObject:
    """The twist c (x) d -> eps(c) d_(1) (x) phi(d_(2)) on the carrier of d,
    attached to a coring morphism phi: D -> C over the same base."""
    C, D = c.carrier, d.carrier
    areg = regular_bimodule(c.base)
    twist = (
        pipe(space(C, D))
        .apply(c.counit, 0, 1, [areg])
        .absorb_right(0)
        .apply(d.comult, 0, 1, [D, D])
        .apply(phi, 1, 1, [C])
        .done(space(D, C), name="induced-twist")
    )
    return RObject(c, D, twist, name=f"({d.name},{phi.name})")


# ---------------------------------------------------------------------------
# algebras inside the category (wreaths over a coring)


def check_r_algebra(o: RObject, eta: LinearMap, mu: LinearMap) -> Report:
    """Verify that (eta, mu) make the twist object an algebra in the
    category: morphism conditions, unit laws, associativity.

    eta: C (x) A -> C (x) M and mu: C (x) (M (x) M) -> C (x) M.  Each law
    is a pair of pipes from C (x) (I (x) M), C (x) (M (x) I) or
    C (x) ((M (x) M) (x) M): the unreduced eta (x) id, id (x) eta,
    mu (x) id or id (x) mu (`_tensor_stages`) followed by mu, against the
    unit isomorphism or, for associativity, the other bracketing, which
    the pipe reaches by refining M (x) M and merging the other pair.
    """
    rep = Report(f"algebra on {o.name}")
    c = o.coring
    C, M = c.carrier, o.carrier
    ident_obj = identity_r_object(c)
    o2 = r_tensor_objects(o, o)
    eta_mor = RMorphism(ident_obj, o, eta, name="eta")
    mu_mor = RMorphism(o2, o, mu, name="mu")
    rep.extend(check_r_morphism(eta_mor))
    rep.extend(check_r_morphism(mu_mor))
    id_mor = RMorphism.identity(o)
    I, A = ident_obj.carrier, M.right_algebra

    def then_mu(p, f, g):
        return _tensor_stages(p, f, g).apply(mu, 0, 2, [C, M])

    unit_l = pipe(space(C, tensor_over(I.right_algebra, I, M))).refine(1)
    compare_pipes(rep, "alg-unit-left", then_mu(unit_l, eta_mor, id_mor), unit_l.absorb_right(1))
    unit_r = pipe(space(C, tensor_over(A, M, I))).refine(1)
    compare_pipes(rep, "alg-unit-right", then_mu(unit_r, id_mor, eta_mor), unit_r.absorb_left(2))
    assoc = pipe(space(C, tensor_over(A, o2.carrier, M))).refine(1)
    compare_pipes(rep, "alg-assoc", then_mu(assoc, mu_mor, id_mor),
                  then_mu(assoc.refine(1)._merge(o2.carrier, 2), id_mor, mu_mor))
    return rep


def sample_r_morphisms(src: RObject, dst: RObject, count=5, seed=0):
    """Deterministic sample of morphisms src -> dst: the bicolinear maps
    between the induced bicomodules (`r_object_bicomodule`), solved
    exactly."""
    return [RMorphism(src, dst, f) for f in sample_maps(
        r_object_bicomodule(src), r_object_bicomodule(dst), count, seed, "r")]


# ---------------------------------------------------------------------------
# the left-handed mirror category: every law and construction is the
# right-handed one, conjugated by the mirror over the co-opposite coring


class LObject:
    """A pair (twist, L) with twist: L (x) C -> C (x) L."""

    def __init__(self, coring: Coring, carrier: Bimodule, twist: LinearMap,
                 name=None):
        self.coring = coring
        self.carrier = carrier
        self.twist = twist
        self.name = name or carrier.name
        C = coring.carrier
        if (twist.domain.dim != space(carrier, C).dim
                or twist.codomain.dim != space(C, carrier).dim):
            raise InputError("twist must map L(x)C to C(x)L")

    @property
    def lc(self):
        return space(self.carrier, self.coring.carrier)


class LMorphism:
    """A map L (x) C -> L' (x) C between left twist objects."""

    def __init__(self, src: LObject, dst: LObject, map: LinearMap, name=None):
        self.src = src
        self.dst = dst
        self.map = map
        self.name = name or map.name
        if (map.domain.dim != src.lc.dim or map.codomain.dim != dst.lc.dim):
            raise InputError("morphism must map L(x)C to L'(x)C")

    @classmethod
    def identity(cls, o: LObject):
        return cls(o, o, LinearMap.identity(o.lc.quotient), name="id")


def mirror_object(o, name=None):
    """The twist object of the other hand over the co-opposite coring:
    (L, L (x) C -> C (x) L) goes to (L^op, C^op (x) L^op -> L^op (x) C^op)
    as an RObject, and an RObject back to an LObject."""
    cls = RObject if isinstance(o, LObject) else LObject
    return cls(coop(o.coring), mirror(o.carrier), mirror_map(o.twist),
               name=name or o.name)


def mirror_morphism(m):
    cls = RMorphism if isinstance(m, LMorphism) else LMorphism
    return cls(mirror_object(m.src), mirror_object(m.dst), mirror_map(m.map),
               name=m.name)


def check_l_object(o: LObject) -> Report:
    return mirrored_report(check_r_object(mirror_object(o)),
                           f"left twist object {o.name}")


def check_l_morphism(m: LMorphism) -> Report:
    """Colinearity for the structures rho = L x comult and
    lam = (twist x C).(L x comult)."""
    return mirrored_report(check_r_morphism(mirror_morphism(m)),
                           f"left twist morphism {m.name}")


def identity_l_object(c: Coring) -> LObject:
    return mirror_object(identity_r_object(coop(c)), name=f"I({c.base.name})")


def l_tensor_objects(o1: LObject, o2: LObject, name=None) -> LObject:
    """Product object ((t1 x K).(L x t2), L (x) K)."""
    prod = r_tensor_objects(mirror_object(o2), mirror_object(o1))
    return mirror_object(prod, name=name or f"{o1.name}(x){o2.name}")


def l_tensor_morphisms(f: LMorphism, g: LMorphism, name=None) -> LMorphism:
    """Product of morphisms in the mirror category."""
    prod = r_tensor_morphisms(mirror_morphism(g), mirror_morphism(f))
    return LMorphism(l_tensor_objects(f.src, g.src),
                     l_tensor_objects(f.dst, g.dst), mirror_map(prod.map),
                     name=name or f"{f.name}(x){g.name}")
