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
from .bimodule import Bimodule, LinearMap, Matrix, k_bimodule, memo, pipe, regular_bimodule, space
from .coring import Coring, corings_match
from .rcat import RObject, check_r_algebra
from .reports import InputError, Report, Witness


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
    from .coring import flip_map
    return EntwiningStructure(a, c, flip_map(c.carrier, ab), name)


def check_entwining(e: EntwiningStructure) -> Report:
    """The four compatibility laws with multiplication, unit,
    comultiplication and counit."""
    rep = Report(f"entwining {e.name}")
    A, C = e.algebra, e.coalgebra
    da, dc = A.dim, C.carrier.dim
    f = A.field
    psi = e.psi.matrix
    mu = multiplication_matrix(A)
    one = unit_column(A)
    dmat = _comult_flat(C)
    eps = C.counit.matrix
    ic = Matrix.identity(f, dc)
    ia = Matrix.identity(f, da)

    lhs = psi @ ic.kron(mu)
    rhs = mu.kron(ic) @ ia.kron(psi) @ psi.kron(ia)
    _flat_compare(rep, "entwine-mult", lhs, rhs, e, ("C", "A", "A"))

    lhs = psi @ ic.kron(one)
    rhs = one.kron(ic)
    _flat_compare(rep, "entwine-unit", lhs, rhs, e, ("C",))

    lhs = ia.kron(dmat) @ psi
    rhs = psi.kron(ic) @ ic.kron(psi) @ dmat.kron(ia)
    _flat_compare(rep, "entwine-comult", lhs, rhs, e, ("C", "A"))

    lhs = ia.kron(eps) @ psi
    rhs = eps.kron(ia)
    _flat_compare(rep, "entwine-counit", lhs, rhs, e, ("C", "A"))
    return rep


def _comult_flat(c: Coring) -> Matrix:
    """Comultiplication of a coalgebra over the field as a flat matrix."""
    sp = c.cc
    return sp.section @ c.comult.matrix


def _flat_compare(rep, tag, lhs, rhs, e, shape):
    if lhs == rhs:
        return
    dims = {"C": e.coalgebra.carrier.dim, "A": e.algebra.dim}
    labels = {"C": e.coalgebra.carrier.labels, "A": e.algebra.labels}
    count = 0
    for j in range(lhs.cols):
        lc, rc = lhs.col(j), rhs.col(j)
        if lc != rc:
            idx = []
            rem = j
            for s in reversed(shape):
                rem, r = divmod(rem, dims[s])
                idx.append(labels[s][r])
            f = e.algebra.field
            rep.add(Witness(tag, tuple(reversed(idx)),
                            str({k: f.fmt(v) for k, v in sorted(lc.items())}),
                            str({k: f.fmt(v) for k, v in sorted(rc.items())})))
            count += 1
            if count >= 3:
                break


def entwined_coring(e: EntwiningStructure, name=None) -> Coring:
    """The coring on A (x) C over A: left action by multiplication, right
    action through the entwining map, A (x) comult and A (x) counit."""
    A, C = e.algebra, e.coalgebra
    da, dc = A.dim, C.carrier.dim
    f = A.field
    psi = e.psi.matrix
    left = [A.left_mult_matrix(i).kron(Matrix.identity(f, dc))
            for i in range(da)]
    right = []
    for i in range(da):
        entries = {}
        for q in range(dc):
            img = psi.col(q * da + i)  # psi(c_q (x) a_i)
            for flat, v in img.items():
                r, s = divmod(flat, dc)
                for p in range(da):
                    for t, w in A.mult[p][r].items():
                        key = (t * dc + s, p * dc + q)
                        entries[key] = f.add(entries.get(key, f.zero()),
                                             f.mul(v, w))
        right.append(Matrix.from_entries(f, da * dc, da * dc, entries))
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
    """Bialgebra laws, comodule-algebra laws, module-coalgebra laws."""
    rep = Report("doi-koppinen data")
    H, Hc = dk.h_algebra, dk.h_coalgebra
    f = H.field
    dh = H.dim
    hh = tensor_fin_algebra(H, H)
    dflat = _comult_flat(Hc)
    rep.extend(_morph_report(
        "bialgebra-comult", AlgebraMorphism(H, hh, dflat)))
    kalg_target = field_algebra(f)
    rep.extend(_morph_report(
        "bialgebra-counit",
        AlgebraMorphism(H, kalg_target, Hc.counit.matrix)))

    A = dk.algebra
    da = A.dim
    ah = tensor_fin_algebra(A, H)
    rep.extend(_morph_report(
        "comodule-algebra-mult", AlgebraMorphism(A, ah, dk.coaction)))
    ia, ih = Matrix.identity(f, da), Matrix.identity(f, dh)
    lhs = dk.coaction.kron(ih) @ dk.coaction
    rhs = ia.kron(dflat) @ dk.coaction
    if lhs != rhs:
        rep.add(Witness("comodule-coassoc", ("A",), "rho twice", "Delta after rho"))
    if ia.kron(Hc.counit.matrix) @ dk.coaction != ia:
        rep.add(Witness("comodule-counit", ("A",), "eps after rho", "id"))

    C = dk.coalgebra
    dc = C.carrier.dim
    ic = Matrix.identity(f, dc)
    act = dk.action
    if act @ ic.kron(unit_column(H)) != ic:
        rep.add(Witness("module-unit", ("C",), "act(1)", "id"))
    lhs = act @ ic.kron(multiplication_matrix(H))
    rhs = act @ act.kron(ih)
    if lhs != rhs:
        rep.add(Witness("module-assoc", ("C",), "act(hh')", "act;act"))
    # action is a coalgebra morphism
    cflat = _comult_flat(C)
    lhs = cflat @ act
    mid = ic.kron(_swap_matrix(f, dc, dh)).kron(ih)
    rhs = act.kron(act) @ mid @ cflat.kron(dflat)
    if lhs != rhs:
        rep.add(Witness("action-comult", ("C", "H"), "Delta(c.h)",
                        "(c1.h1)(x)(c2.h2)"))
    if C.counit.matrix @ act != C.counit.matrix.kron(Hc.counit.matrix):
        rep.add(Witness("action-counit", ("C", "H"), "eps(c.h)",
                        "eps(c)eps(h)"))
    return rep


def _swap_matrix(f, m, n) -> Matrix:
    entries = {}
    for i in range(m):
        for j in range(n):
            entries[(j * m + i, i * n + j)] = f.one()
    return Matrix.from_entries(f, m * n, m * n, entries)


def _morph_report(tag, morphism) -> Report:
    sub = check_algebra_morphism(morphism)
    out = Report(tag)
    for w in sub.witnesses:
        out.add(Witness(f"{tag}-{w.equation}", w.basis, w.lhs, w.rhs))
    return out


def doi_koppinen_entwining(dk: DoiKoppinenData, name="dk") -> EntwiningStructure:
    """psi(c (x) a) = a_(0) (x) (c . a_(1)); preconditions are verified."""
    pre = check_doi_koppinen(dk)
    if not pre.ok:
        raise InputError("doi-koppinen preconditions failed: "
                         + ", ".join(pre.equations()))
    A, C, H = dk.algebra, dk.coalgebra, dk.h_algebra
    f = A.field
    da, dc, dh = A.dim, C.carrier.dim, H.dim
    entries = {}
    for q in range(dc):
        for i in range(da):
            for flat, v in dk.coaction.col(i).items():
                r, s = divmod(flat, dh)  # a_(0) = a_r, a_(1) = h_s
                for t, w in dk.action.col(q * dh + s).items():
                    key = (r * dc + t, q * da + i)
                    entries[key] = f.add(entries.get(key, f.zero()),
                                         f.mul(v, w))
    psi_mat = Matrix.from_entries(f, da * dc, dc * da, entries)
    ab = algebra_as_k_bimodule(A, C.base)
    psi = LinearMap(space(C.carrier, ab).quotient,
                    space(ab, C.carrier).quotient, psi_mat, name=name)
    return EntwiningStructure(A, C, psi, name=name)


def doi_koppinen_self(h_algebra: FinAlgebra, h_coalgebra: Coring) -> DoiKoppinenData:
    """H coacting on itself by comultiplication and acting on itself by
    multiplication."""
    return DoiKoppinenData(
        h_algebra, h_coalgebra,
        h_algebra, _comult_flat(h_coalgebra),
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
    return RObject(e.coalgebra, e.a_bimodule, e.psi, name=f"({e.algebra.name},{e.name})")


def entwining_wreath(e: EntwiningStructure):
    """The algebra structure (unit C (x) 1, multiplication C (x) mu) on the
    twist object (A, psi) over the coalgebra.  Returns (object, eta, mu)."""
    obj = entwining_r_object(e)
    C = e.coalgebra.carrier
    ab = e.a_bimodule
    A = e.algebra
    f = A.field
    dc, da = C.dim, A.dim
    kreg = regular_bimodule(e.kalg)
    eta_entries = {}
    for q in range(dc):
        for k, w in A.unit.items():
            eta_entries[(q * da + k, q)] = w
    eta = LinearMap(space(C, kreg).quotient, space(C, ab).quotient,
                    Matrix.from_entries(f, dc * da, dc, eta_entries),
                    name="eta")
    aa = space(ab, ab).quotient
    mu_mat = Matrix.identity(f, dc).kron(multiplication_matrix(A))
    mu = LinearMap(space(C, aa).quotient, space(C, ab).quotient, mu_mat,
                   name="mu")
    return obj, eta, mu


def check_entwining_wreath(e: EntwiningStructure) -> Report:
    obj, eta, mu = entwining_wreath(e)
    return check_r_algebra(obj, eta, mu)
