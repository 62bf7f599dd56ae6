"""Corings, comodules, bicomodules, colinearity and coring morphisms.

A coring over A is an A-bimodule C with A-bilinear comultiplication
Delta: C -> C (x)_A C and counit eps: C -> A satisfying coassociativity and
the two counit laws; the counit laws are evaluated through the explicit unit
isomorphisms, never by silent identification.

Hom bases.  `hom_basis` solves every Hom space the package needs: bimodule
maps, colinear bimodule maps between comodules on one side, and bicolinear
maps between bicomodules.  Each constraint is one linear equation in the
unknown matrix F, L . F = P . w(F) . S with w(F) = F (x) I_d or I_d (x) F,
and the answer is the canonical kernel basis of the reduced echelon form,
which depends only on the solution space.  The samplers of the adjunctions
and of twist-object morphisms draw from these bases through one seeded
sampler, `sample_maps`.
"""

from __future__ import annotations

from .algebra import FinAlgebra, field_algebra
from .bimodule import (
    Bimodule,
    LinearMap,
    Matrix,
    algebras_match,
    bilinearity_report,
    compare_maps,
    compare_pipes,
    k_bimodule,
    mirror,
    mirror_map,
    mirrored,
    op,
    pipe,
    regular_bimodule,
    space,
    tensor_maps,
)
from .reports import InputError, Report


class Coring:
    """An A-coring presented by carrier bimodule, comultiplication, counit."""

    def __init__(self, base: FinAlgebra, carrier: Bimodule, comult: LinearMap,
                 counit: LinearMap, name="C"):
        self.base = base
        self.carrier = carrier
        self.comult = comult
        self.counit = counit
        self.name = name
        cc = space(carrier, carrier)
        if comult.domain.dim != carrier.dim or comult.codomain.dim != cc.dim:
            raise InputError(
                f"comultiplication must map the carrier into the "
                f"{cc.dim}-dimensional tensor square")
        if counit.domain.dim != carrier.dim or counit.codomain.dim != base.dim:
            raise InputError("counit must land in the base")

    @property
    def cc(self):
        return space(self.carrier, self.carrier)

    def __repr__(self):
        return f"Coring({self.name} over {self.base.name}, dim={self.carrier.dim})"


def corings_match(c: Coring, d: Coring) -> bool:
    """c is d, or the bases `algebras_match` and the carrier actions,
    comultiplication and counit matrices are equal."""
    x, y = c.carrier, d.carrier
    return c is d or (algebras_match(c.base, d.base) and x.left_action == y.left_action
                      and x.right_action == y.right_action
                      and c.comult.matrix == d.comult.matrix
                      and c.counit.matrix == d.counit.matrix)


def _same_coring(src, dst):
    if not corings_match(src.coring, dst.coring):
        raise InputError(f"comodules over different corings: {src.coring.name} "
                         f"and {dst.coring.name}")


def coop(c: Coring) -> Coring:
    """The co-opposite coring over A^op: the mirrored carrier, with
    comultiplication c -> c_(2) (x) c_(1) through `rev`; coop(coop(c)) is c."""
    return mirrored(c, lambda c: Coring(
        op(c.base), mirror(c.carrier), mirror_map(c.comult),
        mirror_map(c.counit), name=f"{c.name}^cop"))


def check_coring(c: Coring) -> Report:
    rep = Report(f"coring {c.name}")
    rep.extend(bilinearity_report(c.comult, "comult"))
    rep.extend(bilinearity_report(c.counit, "counit"))
    C = c.carrier
    src = pipe(space(C))
    cm = src.apply(c.comult, 0, 1, [C, C])
    compare_pipes(rep, "coassoc", cm.apply(c.comult, 0, 1, [C, C]),
                  cm.apply(c.comult, 1, 1, [C, C]))
    areg = regular_bimodule(c.base)
    compare_pipes(rep, "counit-left", cm.apply(c.counit, 0, 1, [areg]).absorb_right(0), src)
    compare_pipes(rep, "counit-right", cm.apply(c.counit, 1, 1, [areg]).absorb_left(1), src)
    return rep


def check_coring_morphism(phi: LinearMap, src: Coring, dst: Coring,
                          name=None) -> Report:
    """eps_dst . phi = eps_src and (phi x phi) . Delta_src = Delta_dst . phi.

    A bilinear phi makes phi (x) phi well defined, so the left side of
    `morphism-comult` is piped: Delta_src, then phi on each factor, n^2
    products per stage instead of the n^4 of the Kronecker product phi (x)
    phi.  The matrix is the same.  A phi that is not bilinear goes through
    `tensor_maps`, which builds phi (x) phi and raises WellDefinednessError
    when it does not descend to the quotients."""
    rep = Report(name or f"coring morphism {phi.name}: {src.name} -> {dst.name}")
    if not algebras_match(src.base, dst.base):
        raise InputError("coring morphism needs a common base")
    bilinear = bilinearity_report(phi, "morphism")
    rep.extend(bilinear)
    compare_maps(rep, "morphism-counit", dst.counit.after(phi), src.counit)
    if bilinear.ok:
        S, D = src.carrier, dst.carrier
        lhs = (
            pipe(space(src.comult.domain))
            .apply(src.comult, 0, 1, [S, S])
            .apply(phi, 0, 1, [D])
            .apply(phi, 1, 1, [D])
            .done(dst.cc, name=f"({phi.name}x{phi.name}).comult")
        )
    else:
        pp = tensor_maps(phi, phi, src.cc.quotient, dst.cc.quotient)
        lhs = pp.after(src.comult)
    compare_maps(rep, "morphism-comult", lhs, dst.comult.after(phi))
    return rep


class Comodule:
    """A one-sided comodule over a coring, with A-bilinear coaction."""

    def __init__(self, side: str, coring: Coring, carrier: Bimodule,
                 coaction: LinearMap, name="M"):
        if side not in ("left", "right"):
            raise InputError("side must be 'left' or 'right'")
        self.side = side
        self.coring = coring
        self.carrier = carrier
        self.coaction = coaction
        self.name = name
        C = coring.carrier
        target = space(carrier, C) if side == "right" else space(C, carrier)
        if coaction.domain.dim != carrier.dim or coaction.codomain.dim != target.dim:
            raise InputError("coaction shape mismatch")

    def __repr__(self):
        return f"Comodule({self.name}, {self.side} over {self.coring.name})"


def check_comodule(m: Comodule) -> Report:
    rep = Report(f"comodule {m.name}")
    C = m.coring.carrier
    X = m.carrier
    rho = m.coaction
    rep.extend(bilinearity_report(rho, "coaction"))
    areg = regular_bimodule(m.coring.base)
    src = pipe(space(X))
    if m.side == "right":
        co = src.apply(rho, 0, 1, [X, C])
        compare_pipes(rep, "coaction-coassoc", co.apply(rho, 0, 1, [X, C]),
                      co.apply(m.coring.comult, 1, 1, [C, C]))
        cu = co.apply(m.coring.counit, 1, 1, [areg]).absorb_left(1)
    else:
        co = src.apply(rho, 0, 1, [C, X])
        compare_pipes(rep, "coaction-coassoc", co.apply(rho, 1, 1, [C, X]),
                      co.apply(m.coring.comult, 0, 1, [C, C]))
        cu = co.apply(m.coring.counit, 0, 1, [areg]).absorb_right(0)
    compare_pipes(rep, "coaction-counit", cu, src)
    return rep


class Bicomodule:
    def __init__(self, left_coring: Coring, right_coring: Coring,
                 carrier: Bimodule, lam: LinearMap, rho: LinearMap, name="M"):
        self.left_coring = left_coring
        self.right_coring = right_coring
        self.carrier = carrier
        self.lam = lam
        self.rho = rho
        self.name = name

    def left_part(self):
        return Comodule("left", self.left_coring, self.carrier, self.lam,
                        name=self.name)

    def right_part(self):
        return Comodule("right", self.right_coring, self.carrier, self.rho,
                        name=self.name)


def check_bicomodule(m: Bicomodule) -> Report:
    rep = Report(f"bicomodule {m.name}")
    rep.extend(check_comodule(m.left_part()))
    rep.extend(check_comodule(m.right_part()))
    C = m.left_coring.carrier
    D = m.right_coring.carrier
    X = m.carrier
    x = pipe(space(X))
    compare_pipes(rep, "bicomodule-compat",
                  x.apply(m.rho, 0, 1, [X, D]).apply(m.lam, 0, 1, [C, X]),
                  x.apply(m.lam, 0, 1, [C, X]).apply(m.rho, 1, 1, [X, D]))
    return rep


def is_colinear(f: LinearMap, src: Comodule, dst: Comodule) -> Report:
    """Module-map linearity plus compatibility with the coactions."""
    rep = Report(f"colinearity of {f.name}")
    if src.side != dst.side:
        raise InputError("comodule sides differ")
    _same_coring(src, dst)
    rep.extend(bilinearity_report(f, "map"))
    C = src.coring.carrier
    X, Y = src.carrier, dst.carrier
    x = pipe(space(X))
    fx = x.apply(f, 0, 1, [Y])
    if src.side == "right":
        lhs = x.apply(src.coaction, 0, 1, [X, C]).apply(f, 0, 1, [Y])
        rhs = fx.apply(dst.coaction, 0, 1, [Y, C])
    else:
        lhs = x.apply(src.coaction, 0, 1, [C, X]).apply(f, 1, 1, [Y])
        rhs = fx.apply(dst.coaction, 0, 1, [C, Y])
    compare_pipes(rep, "colinear", lhs, rhs)
    return rep


def hom_basis(src, dst) -> list:
    """Canonical basis, as matrices, of the maps src -> dst that are
    bimodule maps between two `Bimodule`s, colinear bimodule maps between
    two `Comodule`s on one side of a coring, or bicolinear bimodule maps
    between two `Bicomodule`s.  Arguments of two kinds, comodules on
    different sides, or comodules over corings that do not match
    (`corings_match`), raise InputError.

    Every constraint is L . F = P . w(F) . S with w(F) = F (x) I_d (right)
    or I_d (x) F (left).  An action pair b . F = F . a is the case d = 1,
    P = I.  A coaction's is rho' . F = P . w(F) . S with P the projection
    onto the target's tensor quotient and S the section of the source's
    after rho, which is exact on the bimodule maps the action pairs cut
    out.  The basis is the kernel basis of the reduced echelon form, which
    depends only on the solution space, so it is the same however the
    constraints are written."""
    kinds = ["Bimodule" if isinstance(m, Bimodule) else type(m).__name__
             for m in (src, dst)]
    if kinds[0] != kinds[1]:
        raise InputError(f"hom_basis needs two of one kind, got a {kinds[0]} "
                         f"and a {kinds[1]}")
    if isinstance(src, Bicomodule):
        pairs = [(src.left_part(), dst.left_part()),
                 (src.right_part(), dst.right_part())]
    elif isinstance(src, Comodule):
        if src.side != dst.side:
            raise InputError("comodule sides differ")
        pairs = [(src, dst)]
    else:
        pairs = []
    X, Y = (getattr(m, "carrier", m) for m in (src, dst))
    f = X.field
    n_in, n_out = X.dim, Y.dim
    ident = Matrix.identity(f, n_out)
    eqs = [(b, ident, a, "right", 1)
           for b, a in zip(Y.left_action + Y.right_action,
                           X.left_action + X.right_action)]
    for s, t in pairs:
        _same_coring(s, t)
        C = s.coring.carrier
        sp_x, sp_y = ((space(X, C), space(Y, C)) if s.side == "right"
                      else (space(C, X), space(C, Y)))
        eqs.append((t.coaction.matrix, sp_y.project,
                    sp_x.section @ s.coaction.matrix, s.side, C.dim))
    rows = []
    for L, P, S, side, d in eqs:
        block: dict = {}
        for p, lrow in L.data.items():
            for i, v in lrow.items():
                for q in range(n_in):
                    block.setdefault(p * n_in + q, {})[i * n_in + q] = v
        for p, prow in P.data.items():
            for r, pv in prow.items():
                i, c = divmod(r, d) if side == "right" else divmod(r, n_out)[::-1]
                for j in range(n_in):
                    s_at = j * d + c if side == "right" else c * n_in + j
                    for q, sv in S.data.get(s_at, {}).items():
                        row, key = block.setdefault(p * n_in + q, {}), i * n_in + j
                        row[key] = f.sub(row.get(key, f.zero()), f.mul(pv, sv))
        rows += ({k: v for k, v in row.items() if not f.is_zero(v)}
                 for row in block.values())
    from .echelon import Echelon
    ker = Echelon(f, n_out * n_in, rows).kernel().transpose().data
    return [Matrix.from_entries(f, n_out, n_in, {divmod(k, n_in): v
                                                 for k, v in ker[t].items()})
            for t in range(len(ker))]


def sample_maps(src, dst, count, seed, prefix, dom=None, cod=None) -> list:
    """Deterministic small-integer combinations of `hom_basis(src, dst)`,
    as maps dom -> cod named prefix0, prefix1, ...; dom and cod default to
    the carriers of src and dst."""
    import random
    dom = getattr(src, "carrier", src) if dom is None else dom
    cod = getattr(dst, "carrier", dst) if cod is None else cod
    basis = hom_basis(src, dst)
    field = dom.field
    rng = random.Random(seed)
    out = []
    if not basis:
        return out
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        coeffs = [rng.randint(-2, 2) for _ in basis]
        if all(c == 0 for c in coeffs):
            continue
        acc = Matrix.zeros(field, basis[0].rows, basis[0].cols)
        for c, b in zip(coeffs, basis):
            if c:
                acc = acc + b.scale(field.from_int(c))
        if acc.is_zero():
            continue
        out.append(LinearMap(dom, cod, acc, name=f"{prefix}{len(out)}"))
    return out


# ---------------------------------------------------------------------------
# constructors


def trivial_coring(a: FinAlgebra) -> Coring:
    """A as a coring over itself: comultiplication A = A (x)_A A, counit id."""
    areg = regular_bimodule(a)
    sp = space(areg, areg)
    comult = (
        pipe(space(areg))
        .insert_central(areg, a.unit_vector(), 1)
        .done(sp, name="triv-comult")
    )
    counit = LinearMap.identity(areg, name="triv-counit")
    return Coring(a, areg, comult, counit, name=f"triv({a.name})")


def coalgebra_over_field(field, dim, comult_cols, counit_row, labels=None,
                         name="C") -> Coring:
    """A coalgebra over the ground field as a coring over k.

    comult_cols[i] is the coefficient dict of Delta(e_i) on pure tensors
    (flat index j*dim + l for e_j (x) e_l); counit_row[i] is eps(e_i).
    """
    kalg = field_algebra(field)
    carrier = k_bimodule(kalg, dim, labels=labels, name=name)
    sp = space(carrier, carrier)
    entries = {}
    for i, col in enumerate(comult_cols):
        for flat, v in col.items():
            entries[(flat, i)] = field.parse(v)
    comult_flat = Matrix.from_entries(field, dim * dim, dim, entries)
    comult = LinearMap(carrier, sp.quotient, sp.project @ comult_flat,
                       name="comult")
    eps = Matrix.from_entries(
        field, 1, dim,
        {(0, i): field.parse(v) for i, v in enumerate(counit_row)
         if not field.is_zero(field.parse(v))})
    counit = LinearMap(carrier, regular_bimodule(kalg), eps, name="counit")
    return Coring(kalg, carrier, comult, counit, name=name)


def grouplike_coalgebra(field, n, name=None) -> Coring:
    """n grouplike elements: Delta(g_i) = g_i (x) g_i, eps(g_i) = 1."""
    one = field.one()
    cols = [{i * n + i: one} for i in range(n)]
    labels = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    return coalgebra_over_field(field, n, cols, [one] * n, labels,
                                name or f"kZ{n}")


def grouplike_primitive_coalgebra(field, name="C[g,x]") -> Coring:
    """One grouplike g and one g-primitive x: Delta(x) = x(x)g + g(x)x."""
    one = field.one()
    cols = [{0: one}, {2: one, 1: one}]
    return coalgebra_over_field(field, 2, cols, [one, field.zero()],
                                labels=["g", "x"], name=name)


def flip_map(v: Bimodule, w: Bimodule, name="flip") -> LinearMap:
    """The flip V (x) W -> W (x) V over the ground field."""
    if v.left_algebra.dim != 1 or w.left_algebra.dim != 1:
        raise InputError("flip is only available over the ground field")
    svw = space(v, w)
    swv = space(w, v)
    f = v.field
    entries = {}
    for i in range(v.dim):
        for j in range(w.dim):
            entries[(j * v.dim + i, i * w.dim + j)] = f.one()
    mat = Matrix.from_entries(f, v.dim * w.dim, v.dim * w.dim, entries)
    return LinearMap(svw.quotient, swv.quotient,
                     swv.project @ mat @ svw.section, name)


def tensor_coalgebra(c: Coring, d: Coring, name=None) -> Coring:
    """The tensor product coalgebra of two coalgebras over the field."""
    if c.base.dim != 1 or d.base.dim != 1:
        raise InputError("tensor coalgebra needs coalgebras over the field")
    Cc, Dc = c.carrier, d.carrier
    carrier = space(Cc, Dc).quotient
    target = space(carrier, carrier)
    comult = (
        pipe(space(carrier))
        .refine(0)
        .apply(c.comult, 0, 1, [Cc, Cc])
        .apply(d.comult, 2, 1, [Dc, Dc])
        .apply(flip_map(Cc, Dc), 1, 2, [Dc, Cc])
        .done(target, name="comult")
    )
    kreg = regular_bimodule(c.base)
    counit = (
        pipe(space(carrier))
        .refine(0)
        .apply(c.counit, 0, 1, [kreg])
        .absorb_right(0)
        .apply(d.counit, 0, 1, [kreg])
        .done(space(kreg), name="counit")
    )
    return Coring(c.base, carrier, comult, counit,
                  name=name or f"{c.name}(x){d.name}")


def zero_bimodule(a: FinAlgebra, name="0") -> Bimodule:
    z = Matrix.zeros(a.field, 0, 0)
    return Bimodule(a, a, 0, [z] * a.dim, [z] * a.dim, labels=[], name=name)


def comodule_over_itself(c: Coring, side="right") -> Comodule:
    return Comodule(side, c, c.carrier, c.comult, name=f"{c.name} over itself")
