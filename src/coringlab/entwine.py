"""Entwining structures over the ground field, their induced corings over
the algebra, the Doi-Koppinen construction, object lifting, and the induced
wreath data over the coalgebra.

The induced coring's maps and the lifts are pipes over the ground-field
legs A, C and N.  The plain carriers A (x) C and A (x) N (x) A have the flat
order of their legs' quotient over the field, and `relabel` is the
identity between the two.  `lift_normal_form` pushes the middle A of
(A (x) C) (x)_A (A (x) N (x) A) through psi and multiplies; each lifted map
then applies N's map, psi, mu and A's unit, relabels back and ends in
`done`.  `cowreath.entwining_lift_cowreath` builds the entwined coring
twice, itself and in `lift_r_object`: xi lands in the first, the object
lives over the second, and saved lift sessions hold both, so building one
would change their bytes.  The second is still its own carrier with its
own names, so the saved bytes are unchanged, but its quotients reuse the
numeric core of the first's, which have the same content (`tensor_over`'s
content table), so they are not built again.

The entwined coring's right action (mu (x) C)(A (x) psi)(A (x) C (x) e_i),
the Doi-Koppinen map psi = (A (x) act)(flip (x) H)(C (x) rho) and the
wreath's unit C (x) 1 are `kron` and `@` formulas on the flat legs.
The entwining laws and the Doi-Koppinen coaction and action laws are
pairs of pipes over the ground-field legs, compared by `compare_pipes`.
The legs' tensor quotients over the field have the kron order, so a
witness names a flat label such as `g(x)1` and prints both sides on the
codomain legs.  The Doi-Koppinen module laws are those of the right
action c.h, checked by `check_bimodule`.
"""

from __future__ import annotations

from .algebra import (
    AlgebraMorphism,
    FinAlgebra,
    check_algebra_morphism,
    field_algebra,
    multiplication_matrix,
    unit_column,
)
from .bimodule import (Bimodule, LinearMap, Matrix, check_bimodule, compare_pipes, k_bimodule,
                       memo, pipe, regular_bimodule, space)
from .coring import Coring, corings_match, flip_map
from .reports import InputError, Report


def algebra_as_k_bimodule(a: FinAlgebra, kalg: FinAlgebra) -> Bimodule:
    """The space of a as a bimodule over the ground algebra kalg (memoized
    on a, per kalg)."""
    return memo(a, ("k_bimodule", id(kalg)),
                lambda: k_bimodule(kalg, a.dim, labels=a.labels, name=a.name))


class EntwiningStructure:
    """(A, C, psi) with psi: C (x) A -> A (x) C over the ground field."""

    def __init__(self, algebra: FinAlgebra, coalgebra: Coring,
                 psi: LinearMap, name="psi"):
        if coalgebra.base.dim != 1:
            raise InputError("entwining needs a coalgebra over the field")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.kalg = coalgebra.base
        self.psi = psi
        self.name = name
        da, dc = algebra.dim, coalgebra.carrier.dim
        if psi.matrix.rows != da * dc or psi.matrix.cols != dc * da:
            raise InputError("entwining map must be (A x C) x (C x A)")

    @property
    def a_bimodule(self):
        return algebra_as_k_bimodule(self.algebra, self.kalg)

    @property
    def mu(self):
        """The multiplication of A on the ground-field legs A (x) A -> A."""
        ab = self.a_bimodule
        return LinearMap(space(ab, ab).quotient, ab, multiplication_matrix(self.algebra),
                         name="mu")

    def __repr__(self):
        return f"Entwining({self.algebra.name}, {self.coalgebra.name})"


def flip_entwining(a: FinAlgebra, c: Coring, name="flip") -> EntwiningStructure:
    ab = algebra_as_k_bimodule(a, c.base)
    return EntwiningStructure(a, c, flip_map(c.carrier, ab), name)


def check_entwining(e: EntwiningStructure) -> Report:
    """The four compatibility laws with multiplication, unit,
    comultiplication and counit, as pipes over the ground-field legs."""
    rep = Report(f"entwining {e.name}")
    C = e.coalgebra
    ab, cc, psi = e.a_bimodule, C.carrier, e.psi
    areg = regular_bimodule(e.kalg)
    caa = pipe(space(cc, ab, ab))
    compare_pipes(rep, "entwine-mult", caa.apply(e.mu, 1, 2, [ab]).apply(psi, 0, 2, [ab, cc]),
                  caa.apply(psi, 0, 2, [ab, cc]).apply(psi, 1, 2, [ab, cc])
                  .apply(e.mu, 0, 2, [ab]))
    c = pipe(space(cc))
    compare_pipes(rep, "entwine-unit",
                  c.insert_central(ab, e.algebra.unit, 1).apply(psi, 0, 2, [ab, cc]),
                  c.insert_central(ab, e.algebra.unit, 0))
    ca = pipe(space(cc, ab))
    cap = ca.apply(psi, 0, 2, [ab, cc])
    compare_pipes(rep, "entwine-comult", cap.apply(C.comult, 1, 1, [cc, cc]),
                  ca.apply(C.comult, 0, 1, [cc, cc]).apply(psi, 1, 2, [ab, cc])
                  .apply(psi, 0, 2, [ab, cc]))
    compare_pipes(rep, "entwine-counit", cap.apply(C.counit, 1, 1, [areg]).absorb_left(1),
                  ca.apply(C.counit, 0, 1, [areg]).absorb_right(0))
    return rep


def entwined_coring(e: EntwiningStructure, name=None) -> Coring:
    """The coring on A (x) C over A: left action by multiplication, right
    action through the entwining map, A (x) comult and A (x) counit."""
    A, C = e.algebra, e.coalgebra
    da, dc = A.dim, C.carrier.dim
    f = A.field
    ia, ic = Matrix.identity(f, da), Matrix.identity(f, dc)
    left = [A.left_mult_matrix(i).kron(ic) for i in range(da)]
    # (a (x) c).a_i = (mu (x) C)(A (x) psi)(a (x) c (x) a_i)
    through = multiplication_matrix(A).kron(ic) @ ia.kron(e.psi.matrix)
    # column t da + i of through is (a (x) c)_t (x) a_i
    right = [through.columns(range(i, da * dc * da, da)) for i in range(da)]
    labels = [f"{A.labels[p]}(x){C.carrier.labels[q]}"
              for p in range(da) for q in range(dc)]
    carrier = Bimodule(A, A, da * dc, left, right, labels,
                       name=name or f"{A.name}(x){C.name}")
    ab, cc = e.a_bimodule, C.carrier
    legs = space(ab, cc).quotient
    from_legs = relabel(legs, carrier)
    split = pipe(space(carrier)).apply(relabel(carrier, legs), 0, 1, [ab, cc])
    # a (x) c -> (a (x) c1) (x) (1 (x) c2)
    comult = (
        split.apply(C.comult, 1, 1, [cc, cc]).insert_central(ab, A.unit, 2)
        .apply(from_legs, 0, 2).apply(from_legs, 1, 2)
        .done(space(carrier, carrier), name="comult")
    )
    # a (x) c -> a . eps(c)
    counit = (
        split.apply(C.counit, 1, 1).absorb_left(1)
        .apply(relabel(ab, regular_bimodule(A)), 0, 1)
        .done(name="counit")
    )
    return Coring(A, carrier, comult, counit,
                  name=name or f"{A.name}(x){C.name}")


# ---------------------------------------------------------------------------
# Doi-Koppinen data


class DoiKoppinenData:
    """A bialgebra H, a right H-comodule algebra A, a right H-module
    coalgebra C, all over the ground field."""

    def __init__(self, h_algebra: FinAlgebra, h_coalgebra: Coring,
                 algebra: FinAlgebra, coaction: Matrix,
                 coalgebra: Coring, action: Matrix):
        if h_algebra.dim != h_coalgebra.carrier.dim:
            raise InputError("bialgebra halves must share a basis")
        self.h_algebra = h_algebra
        self.h_coalgebra = h_coalgebra
        self.algebra = algebra
        self.coaction = coaction  # dA*dH x dA
        self.coalgebra = coalgebra
        self.action = action      # dC x dC*dH


def tensor_fin_algebra(a: FinAlgebra, b: FinAlgebra, name=None) -> FinAlgebra:
    """Structure constants of A (x) B with componentwise multiplication."""
    f = a.field
    dim = a.dim * b.dim
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for i1 in range(a.dim):
        for j1 in range(b.dim):
            for i2 in range(a.dim):
                for j2 in range(b.dim):
                    prod = {}
                    for p, v in a.mult[i1][i2].items():
                        for q, w in b.mult[j1][j2].items():
                            prod[p * b.dim + q] = f.mul(v, w)
                    mult[i1 * b.dim + j1][i2 * b.dim + j2] = prod
    unit = {}
    for p, v in a.unit.items():
        for q, w in b.unit.items():
            unit[p * b.dim + q] = f.mul(v, w)
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    return FinAlgebra(f, dim, mult, unit, labels,
                      name=name or f"{a.name}(x){b.name}")


def check_doi_koppinen(dk: DoiKoppinenData) -> Report:
    """Bialgebra laws, comodule-algebra laws, module-coalgebra laws.  The
    right action c.h has the matrices act . (I_C (x) e_h), read off as the
    columns c (x) h of act, whose laws are checked by `check_bimodule`; the
    coaction and the action's coalgebra laws are pipes over the
    ground-field legs."""
    rep = Report("doi-koppinen data")
    H, Hc, A, C = dk.h_algebra, dk.h_coalgebra, dk.algebra, dk.coalgebra
    f = H.field
    hb, cb, ab = Hc.carrier, C.carrier, algebra_as_k_bimodule(A, Hc.base)
    dflat = Hc.cc.section @ Hc.comult.matrix
    rep.extend(check_algebra_morphism(
        AlgebraMorphism(H, tensor_fin_algebra(H, H), dflat)), prefix="bialgebra-comult")
    rep.extend(check_algebra_morphism(
        AlgebraMorphism(H, field_algebra(f), Hc.counit.matrix)), prefix="bialgebra-counit")
    rep.extend(check_algebra_morphism(
        AlgebraMorphism(A, tensor_fin_algebra(A, H), dk.coaction)),
        prefix="comodule-algebra-mult")
    rho = LinearMap(ab, space(ab, hb).quotient, dk.coaction, name="coaction")
    act = LinearMap(space(cb, hb).quotient, cb, dk.action, name="action")
    hreg, creg = regular_bimodule(Hc.base), regular_bimodule(C.base)
    a = pipe(space(ab))
    ar = a.apply(rho, 0, 1, [ab, hb])
    compare_pipes(rep, "comodule-coassoc", ar.apply(rho, 0, 1, [ab, hb]),
                  ar.apply(Hc.comult, 1, 1, [hb, hb]))
    compare_pipes(rep, "comodule-counit", ar.apply(Hc.counit, 1, 1, [hreg]).absorb_left(1), a)
    # column c dh + h of act is c (x) h
    racts = [dk.action.columns(range(h, cb.dim * H.dim, H.dim)) for h in range(H.dim)]
    rep.extend(check_bimodule(cb, right=(H, racts),
                              tags=(None, "module-unit", None, "module-assoc", None)))
    # the action is a coalgebra morphism
    ch = pipe(space(cb, hb))
    cha = ch.apply(act, 0, 2, [cb])
    compare_pipes(rep, "action-comult", cha.apply(C.comult, 0, 1, [cb, cb]),
                  ch.apply(C.comult, 0, 1, [cb, cb]).apply(Hc.comult, 2, 1, [hb, hb])
                  .apply(flip_map(cb, hb), 1, 2, [hb, cb])
                  .apply(act, 0, 2, [cb]).apply(act, 1, 2, [cb]))
    compare_pipes(rep, "action-counit", cha.apply(C.counit, 0, 1, [creg]),
                  ch.apply(C.counit, 0, 1, [creg]).apply(Hc.counit, 1, 1, [hreg])
                  .absorb_left(1))
    return rep


def doi_koppinen_entwining(dk: DoiKoppinenData, name="dk") -> EntwiningStructure:
    """psi(c (x) a) = a_(0) (x) (c . a_(1)); preconditions are verified."""
    pre = check_doi_koppinen(dk)
    if not pre.ok:
        raise InputError("doi-koppinen preconditions failed: "
                         + ", ".join(pre.equations()))
    A, cb, f = dk.algebra, dk.coalgebra.carrier, dk.algebra.field
    ia, ic, ih = (Matrix.identity(f, d) for d in (A.dim, cb.dim, dk.h_algebra.dim))
    ab = algebra_as_k_bimodule(A, dk.coalgebra.base)
    flip = flip_map(cb, ab)
    # c (x) a -> c (x) a_(0) (x) a_(1) -> a_(0) (x) c (x) a_(1) -> a_(0) (x) c.a_(1)
    psi_mat = ia.kron(dk.action) @ flip.matrix.kron(ih) @ ic.kron(dk.coaction)
    psi = LinearMap(flip.domain, flip.codomain, psi_mat, name=name)
    return EntwiningStructure(A, dk.coalgebra, psi, name=name)


def doi_koppinen_self(h_algebra: FinAlgebra, h_coalgebra: Coring) -> DoiKoppinenData:
    """H coacting on itself by comultiplication and acting on itself by
    multiplication."""
    return DoiKoppinenData(
        h_algebra, h_coalgebra,
        h_algebra, h_coalgebra.cc.section @ h_coalgebra.comult.matrix,
        h_coalgebra, multiplication_matrix(h_algebra),
    )


# ---------------------------------------------------------------------------
# lifting objects along an entwining


def lift_carrier(e: EntwiningStructure, n_carrier: Bimodule) -> Bimodule:
    """A (x) N (x) A as an (A, A)-bimodule with outer actions."""
    A = e.algebra
    f = A.field
    da, dn = A.dim, n_carrier.dim
    ina = Matrix.identity(f, dn * da)
    ian = Matrix.identity(f, da * dn)
    left = [A.left_mult_matrix(i).kron(ina) for i in range(da)]
    right = [ian.kron(A.right_mult_matrix(i)) for i in range(da)]
    labels = [
        f"{A.labels[p]}(x){n_carrier.labels[u]}(x){A.labels[v]}"
        for p in range(da) for u in range(dn) for v in range(da)
    ]
    return Bimodule(A, A, da * dn * da, left, right, labels,
                    name=f"{A.name}(x){n_carrier.name}(x){A.name}")


def relabel(src: Bimodule, dst: Bimodule) -> LinearMap:
    """The identity between two bimodules with one flat basis order: a plain
    carrier over A and the ground-field quotient of its legs, either way."""
    return LinearMap(src, dst, Matrix.identity(src.field, src.dim), name="relabel")


def lift_normal_form(e: EntwiningStructure, coring_carrier: Bimodule,
                     m_carrier: Bimodule, n_carrier: Bimodule):
    """The pipe from (A (x) C) (x)_A (A (x) N (x) A) to the ground-field legs
    [A, C, N, A]: relabel both carriers into their legs, push the middle A
    leg through the entwining map and multiply the two A legs,
    a (x) c (x) a' (x) u (x) b -> a psi(c (x) a') (x) u (x) b."""
    ab, C = e.a_bimodule, e.coalgebra.carrier
    return (
        pipe(space(coring_carrier, m_carrier))
        .apply(relabel(coring_carrier, space(ab, C).quotient), 0, 1, [ab, C])
        .apply(relabel(m_carrier, space(ab, n_carrier, ab).quotient), 2, 1,
               [ab, n_carrier, ab])
        .apply(e.psi, 1, 2, [ab, C]).apply(e.mu, 0, 2, [ab])
    )


def lift_r_object(e: EntwiningStructure, n: RObject, name=None) -> RObject:
    """Lift an object over the coalgebra to one over the induced coring."""
    from .rcat import RObject
    if not corings_match(n.coring, e.coalgebra):
        raise InputError(f"object over {n.coring.name} must live over the "
                         f"entwining coalgebra {e.coalgebra.name}")
    cor = entwined_coring(e)
    ab, C, N = e.a_bimodule, e.coalgebra.carrier, n.carrier
    M = lift_carrier(e, N)
    # after the normal form: twist C (x) N, push the last A leg through psi
    # and embed a (x) u (x) b (x) c as (a (x) u (x) b) (x) (1 (x) c)
    twist = (
        lift_normal_form(e, cor.carrier, M, N)
        .apply(n.twist, 1, 2, [N, C]).apply(e.psi, 2, 2, [ab, C])
        .insert_central(ab, e.algebra.unit, 3)
        .apply(relabel(space(ab, N, ab).quotient, M), 0, 3)
        .apply(relabel(space(ab, C).quotient, cor.carrier), 1, 2)
        .done(space(M, cor.carrier), name="lifted-twist")
    )
    return RObject(cor, M, twist, name=name or f"lift({n.name})")


# ---------------------------------------------------------------------------
# the wreath over the coalgebra attached to an entwining


def entwining_r_object(e: EntwiningStructure) -> RObject:
    """(A, psi) as a twist object over the coalgebra."""
    from .rcat import RObject
    return RObject(e.coalgebra, e.a_bimodule, e.psi, name=f"({e.algebra.name},{e.name})")


def entwining_wreath(e: EntwiningStructure):
    """The algebra structure (unit C (x) 1, multiplication C (x) mu) on the
    twist object (A, psi) over the coalgebra.  Returns (object, eta, mu)."""
    obj = entwining_r_object(e)
    C, ab, A = e.coalgebra.carrier, e.a_bimodule, e.algebra
    ic = Matrix.identity(A.field, C.dim)
    ca = space(C, ab).quotient
    eta = LinearMap(space(C, regular_bimodule(e.kalg)).quotient, ca,
                    ic.kron(unit_column(A)), name="eta")
    mu = LinearMap(space(C, space(ab, ab).quotient).quotient, ca,
                   ic.kron(multiplication_matrix(A)), name="mu")
    return obj, eta, mu


def check_entwining_wreath(e: EntwiningStructure) -> Report:
    from .rcat import check_r_algebra
    obj, eta, mu = entwining_wreath(e)
    return check_r_algebra(obj, eta, mu)
