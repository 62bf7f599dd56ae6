"""Wreaths over a ring extension: the dual, algebra-flavoured machinery.

Fix a unital ring extension iota: A -> T.  Objects here are A-bimodules P
with a twist T (x) P -> P (x) T compatible with the multiplication and unit
of T; a wreath adds T-bilinear structure maps eta: T -> R (x) T and
mu: R (x) R (x) T -> R (x) T subject to three diagrams, and its product
makes R (x) T a ring extension of T.  Twisted tensor products, module
twisting maps and the dual comparison functors all live here.  The
left-handed wreath of a twisted tensor product is checked as the
right-handed wreath of its mirror over the opposite extension, with the
tags renamed `rt-` -> `lt-` and `w-` -> `lw-`.  The unit, associativity
and commuting laws of a module over the wreath product (`pm-*`, `od-*`)
are checked by `check_bimodule` on the matrices by which each basis
element acts.  Every T-bimodule X1 (x) ... (x) Xn (x) T whose left action
threads T through the twists is built by `threaded_t_bimodule`; the
T-bilinearity of eta, mu and a wreath module's action is checked on these.
The product's multiplication and the dual comparison's left action are
one pipe program (`_left_product`).
"""

from __future__ import annotations

from .algebra import (
    AlgebraMorphism,
    FinAlgebra,
    check_algebra,
    check_algebra_morphism,
    multiplication_matrix,
)
from .bimodule import (
    Bimodule,
    LinearMap,
    Matrix,
    bilinearity_report,
    check_bimodule,
    compare_maps,
    compare_pipes,
    memo,
    mirror,
    mirror_map,
    mirrored,
    op,
    pipe,
    regular_bimodule,
    restricted_bimodule,
    space,
    tensor_over,
    unit_twist,
)
from .reports import InputError, PreconditionFailure, Report, mirrored_report


class RingExtension:
    """iota: A -> T, a unital morphism of algebras."""

    def __init__(self, base: FinAlgebra, total: FinAlgebra,
                 iota: AlgebraMorphism, name=None):
        if iota.source is not base or iota.target is not total:
            raise InputError("iota must run from the base into the total ring")
        self.base = base
        self.total = total
        self.iota = iota
        self.name = name or f"{base.name}->{total.name}"

    @property
    def t_bimodule(self) -> Bimodule:
        return memo(self, "t_bimodule",
                    lambda: restricted_bimodule(self.total, self.iota))

    def check(self) -> Report:
        return check_algebra_morphism(self.iota)

    def mult_map(self) -> LinearMap:
        """Multiplication T (x)_A T -> T as a map of quotients."""
        def build():
            tb = self.t_bimodule
            sp = space(tb, tb)
            return LinearMap(sp.quotient, tb,
                             multiplication_matrix(self.total) @ sp.section,
                             name="mult")
        return memo(self, "mult_map", build)


def opposite_extension(ext: RingExtension) -> RingExtension:
    """iota: A^op -> T^op, whose T-bimodule is the mirror of ext's, so that
    the mirrored spaces coincide; opposite_extension is an involution."""
    def build(ext):
        iota = AlgebraMorphism(op(ext.base), op(ext.total), ext.iota.matrix,
                               name=ext.iota.name)
        opp = RingExtension(op(ext.base), op(ext.total), iota,
                            name=f"{ext.name}^op")
        memo(opp, "t_bimodule", lambda: mirror(ext.t_bimodule))
        return opp
    return mirrored(ext, build)


class RTObject:
    """A pair (P, twist) with twist: T (x) P -> P (x) T."""

    def __init__(self, ext: RingExtension, carrier: Bimodule,
                 twist: LinearMap, name=None):
        self.ext = ext
        self.carrier = carrier
        self.twist = twist
        self.name = name or carrier.name
        tb = ext.t_bimodule
        if (twist.domain.dim != space(tb, carrier).dim
                or twist.codomain.dim != space(carrier, tb).dim):
            raise InputError("twist must map T(x)P to P(x)T")

    def __repr__(self):
        return f"RTObject({self.name} over {self.ext.name})"


def identity_rt_object(ext: RingExtension) -> RTObject:
    """The unit object: the base algebra with its unit-isomorphism twist."""
    return RTObject(ext, regular_bimodule(ext.base), unit_twist(ext.t_bimodule, ext.base),
                    name=f"I({ext.base.name})")


def check_rt_object(o: RTObject) -> Report:
    """Bilinearity plus compatibility with multiplication and unit."""
    rep = Report(f"ring twist object {o.name}")
    ext = o.ext
    tb = ext.t_bimodule
    P = o.carrier
    rep.extend(bilinearity_report(o.twist, "twist"))
    mult = ext.mult_map()
    lhs = (
        pipe(space(tb, tb, P))
        .apply(o.twist, 1, 2, [P, tb])
        .apply(o.twist, 0, 2, [P, tb])
        .apply(mult, 1, 2, [tb])
    )
    rhs = (
        pipe(space(tb, tb, P))
        .apply(mult, 0, 2, [tb])
        .apply(o.twist, 0, 2, [P, tb])
    )
    compare_pipes(rep, "rt-mult", lhs, rhs)
    one = ext.total.unit_vector()
    lhs2 = (
        pipe(space(P))
        .insert_central(tb, one, 0)
        .apply(o.twist, 0, 2, [P, tb])
    )
    rhs2 = pipe(space(P)).insert_central(tb, one, 1)
    compare_pipes(rep, "rt-unit", lhs2, rhs2)
    return rep


def strict_morphism_check(f: LinearMap, o: RTObject, p: RTObject) -> Report:
    """The strict intertwining tw'.(T x f) = (f x T).tw for f: P -> Q."""
    rep = Report(f"strict morphism {f.name}")
    ext = o.ext
    tb = ext.t_bimodule
    P, Q = o.carrier, p.carrier
    rep.extend(bilinearity_report(f, "map"))
    lhs = (
        pipe(space(tb, P))
        .apply(f, 1, 1, [Q])
        .apply(p.twist, 0, 2, [Q, tb])
    )
    rhs = (
        pipe(space(tb, P))
        .apply(o.twist, 0, 2, [P, tb])
        .apply(f, 0, 1, [Q])
    )
    compare_pipes(rep, "strict-intertwine", lhs, rhs)
    return rep


# ---------------------------------------------------------------------------
# induced module structures


def element_action_matrices(action: LinearMap, elt_carrier: Bimodule,
                            carrier: Bimodule, side="left"):
    """Per-basis action matrices for an action map elt (x) carrier -> carrier
    (or carrier (x) elt -> carrier) where elt may itself be a quotient."""
    d, n = elt_carrier.dim, carrier.dim
    sp = (space(elt_carrier, carrier) if side == "left"
          else space(carrier, elt_carrier))
    ap = action.matrix @ sp.project
    # e_i (x) m is flat column i n + m, and m (x) e_i is m d + i
    if side == "left":
        return [ap.columns(range(i * n, i * n + n)) for i in range(d)]
    return [ap.columns(range(i, n * d, d)) for i in range(d)]


def t_bimodule_from_maps(total: FinAlgebra, carrier: Bimodule,
                         l_map: LinearMap, r_map: LinearMap,
                         tb: Bimodule, name=None) -> Bimodule:
    left = element_action_matrices(l_map, tb, carrier)
    right = element_action_matrices(r_map, tb, carrier, side="right")
    return Bimodule(total, total, carrier.dim, left, right,
                    labels=carrier.labels, name=name or f"{carrier.name}|T")


def induced_t_bimodule(o: RTObject, x: Bimodule, l_x: LinearMap,
                       r_x: LinearMap, name=None) -> Bimodule:
    """P (x) X as a T-bimodule: left action through the twist, right action
    on the X leg.  x is the carrier of a T-bimodule presented over (A, A)
    with its T-actions given as maps."""
    ext = o.ext
    tb = ext.t_bimodule
    P = o.carrier
    carrier = tensor_over(P.right_algebra, P, x)
    lmap = (
        pipe(space(tb, carrier))
        .refine(1)
        .apply(o.twist, 0, 2, [P, tb])
        .apply(l_x, 1, 2, [x])
        .done(space(carrier), name="l-ind")
    )
    rmap = (
        pipe(space(carrier, tb))
        .refine(0)
        .apply(r_x, 1, 2, [x])
        .done(space(carrier), name="r-ind")
    )
    return t_bimodule_from_maps(ext.total, carrier, lmap, rmap, tb, name)


def threaded_t_bimodule(ext: RingExtension, twists, factors, name=None) -> Bimodule:
    """X1 (x) ... (x) Xn (x) T as a T-bimodule.  T acts on the left by
    threading through each factor's twist twists[i]: T (x) Xi -> Xi (x) T
    and multiplying at the end, and on the right by multiplying the T leg."""
    tb = ext.t_bimodule
    n = len(factors)
    out = space(*factors, tb)
    p = pipe(space(tb, *factors, tb))
    for i, tw in enumerate(twists):
        p = p.apply(tw, i, 2, [factors[i], tb])
    l_map = p.apply(ext.mult_map(), n, 2, [tb]).done(out, name="l-threaded")
    r_map = (pipe(space(*factors, tb, tb)).apply(ext.mult_map(), n, 2, [tb])
             .done(out, name="r-outer"))
    return t_bimodule_from_maps(ext.total, out.quotient, l_map, r_map, tb, name)


def pt_bimodule(o: RTObject) -> Bimodule:
    """P (x) T with its canonical T-bimodule structure."""
    return threaded_t_bimodule(o.ext, [o.twist], [o.carrier], name=f"{o.name}(x)T")


def full_t_morphism_check(f: LinearMap, o: RTObject, p: RTObject) -> Report:
    """T-bilinearity of f (x) T for the induced T-bimodule structures; the
    roundabout route that the strict check shortcuts."""
    from .bimodule import tensor_maps
    rep = Report(f"induced morphism {f.name}(x)T")
    ext = o.ext
    tb = ext.t_bimodule
    src = tensor_over(o.carrier.right_algebra, o.carrier, tb)
    dst = tensor_over(p.carrier.right_algebra, p.carrier, tb)
    ft = tensor_maps(f, LinearMap.identity(tb), src, dst)
    src_tt = pt_bimodule(o)
    dst_tt = pt_bimodule(p)
    wrapped = LinearMap(src_tt, dst_tt, ft.matrix, name=f"{f.name}(x)T")
    rep.extend(bilinearity_report(wrapped, "t-bilinear"))
    return rep


# ---------------------------------------------------------------------------
# wreaths


class Wreath:
    """A ring twist object with T-bilinear eta and mu."""

    def __init__(self, object: RTObject, eta: LinearMap, mu: LinearMap,
                 name=None):
        self.object = object
        self.eta = eta
        self.mu = mu
        self.name = name or f"wreath({object.name})"
        ext = object.ext
        tb = ext.t_bimodule
        R = object.carrier
        if eta.domain.dim != tb.dim or eta.codomain.dim != space(R, tb).dim:
            raise InputError("eta must map T to R(x)T")
        if (mu.domain.dim != space(R, R, tb).dim
                or mu.codomain.dim != space(R, tb).dim):
            raise InputError("mu must map R(x)R(x)T to R(x)T")

    @property
    def ext(self):
        return self.object.ext

    def rt_carrier(self):
        tb = self.ext.t_bimodule
        R = self.object.carrier
        return tensor_over(R.right_algebra, R, tb)


def check_wreath(w: Wreath) -> Report:
    """Object laws, T-bilinearity of eta and mu, and the three wreath
    diagrams (unit section, twist compatibility, associativity)."""
    rep = Report(f"wreath {w.name}")
    rep.extend(check_rt_object(w.object))
    ext = w.ext
    tb = ext.t_bimodule
    R = w.object.carrier

    t_tt = regular_bimodule(ext.total)
    rt_tt = pt_bimodule(w.object)
    rrt_tt = threaded_t_bimodule(ext, [w.object.twist, w.object.twist], [R, R])
    eta_t = LinearMap(t_tt, rt_tt, w.eta.matrix, name="eta")
    rep.extend(bilinearity_report(eta_t, "eta-T"))
    mu_t = LinearMap(rrt_tt, rt_tt, w.mu.matrix, name="mu")
    rep.extend(bilinearity_report(mu_t, "mu-T"))

    rt = pipe(space(R, tb))
    compare_pipes(rep, "w-unit",
                  rt.apply(w.eta, 1, 1, [R, tb]).apply(w.mu, 0, 3, [R, tb]), rt)
    tr = pipe(space(tb, R))
    lhs = (
        tr.apply(w.eta, 0, 1, [R, tb])
        .apply(w.object.twist, 1, 2, [R, tb])
        .apply(w.mu, 0, 3, [R, tb])
    )
    compare_pipes(rep, "w-twist", lhs, tr.apply(w.object.twist, 0, 2, [R, tb]))
    lhs = (
        pipe(space(R, R, tb, R))
        .apply(w.mu, 0, 3, [R, tb])
        .apply(w.object.twist, 1, 2, [R, tb])
        .apply(w.mu, 0, 3, [R, tb])
    )
    rhs = (
        pipe(space(R, R, tb, R))
        .apply(w.object.twist, 2, 2, [R, tb])
        .apply(w.mu, 1, 3, [R, tb])
        .apply(w.mu, 0, 3, [R, tb])
    )
    compare_pipes(rep, "w-assoc", lhs, rhs)
    return rep


def _product_algebra(carrier: Bimodule, mult: LinearMap, eta: LinearMap,
                     total: FinAlgebra, name) -> FinAlgebra:
    """The algebra on a tensor quotient with multiplication
    mult: carrier (x) carrier -> carrier and unit eta(1)."""
    f = carrier.field
    d = carrier.dim
    project = space(carrier, carrier).project
    table = [[mult.matrix.tapply(project.tapply({i * d + j: f.one()}))
              for j in range(d)] for i in range(d)]
    return FinAlgebra(f, d, table, eta.matrix.tapply(dict(total.unit)),
                      labels=[carrier.basis_label(i) for i in range(d)],
                      name=name)


def _left_product(w: Wreath, y: RTObject, action: LinearMap, name) -> LinearMap:
    """(R (x) T) (x) (Y (x) T) -> Y (x) T: T passes Y by y's twist, then
    action: R (x) Y (x) T -> Y (x) T and the multiplication of T.  With
    Y = R and action = mu it is the product's multiplication."""
    tb = w.ext.t_bimodule
    Y = y.carrier
    yt = tensor_over(Y.right_algebra, Y, tb)
    return (
        pipe(space(w.rt_carrier(), yt))
        .refine(0)
        .refine(2)
        .apply(y.twist, 1, 2, [Y, tb])
        .apply(action, 0, 3, [Y, tb])
        .apply(w.ext.mult_map(), 1, 2, [tb])
        .done(space(yt), name=name)
    )


def _product(w: Wreath, name=None) -> FinAlgebra:
    """The product algebra on R (x) T, with unit eta(1)."""
    return _product_algebra(w.rt_carrier(), _left_product(w, w.object, w.mu, "product-mult"),
                            w.eta, w.ext.total, name or f"{w.name}-product")


def wreath_product(w: Wreath, name=None):
    """The product algebra on R (x) T and the extension of T into it.

    Returns (RingExtension A -> R(x)T, algebra report, eta-morphism report).
    """
    ext = w.ext
    R = w.object.carrier
    rt = w.rt_carrier()
    product = _product(w, name)
    alg_rep = check_algebra(product)
    eta_morph = AlgebraMorphism(ext.total, product, w.eta.matrix, name="eta")
    eta_rep = check_algebra_morphism(eta_morph)
    f = R.field
    iota_mat_cols = {}
    for i in range(ext.base.dim):
        img = rt.left_action[i].tapply(product.unit)
        for r, v in img.items():
            iota_mat_cols[(r, i)] = v
    iota = AlgebraMorphism(
        ext.base, product,
        Matrix.from_entries(f, rt.dim, ext.base.dim, iota_mat_cols),
        name="iota")
    return RingExtension(ext.base, product, iota), alg_rep, eta_rep


# ---------------------------------------------------------------------------
# modules over a wreath


def check_wreath_module(w: Wreath, side: str, y: RTObject,
                        action: LinearMap) -> Report:
    """Module laws for a one-sided action of the wreath on a twist object."""
    rep = Report(f"wreath {side} module {y.name}")
    rep.extend(check_rt_object(y))
    ext = w.ext
    tb = ext.t_bimodule
    R = w.object.carrier
    Y = y.carrier
    factors, twists = (([Y, R], [y.twist, w.object.twist]) if side == "right"
                       else ([R, Y], [w.object.twist, y.twist]))
    dom_tt = threaded_t_bimodule(ext, twists, factors)
    rep.extend(bilinearity_report(
        LinearMap(dom_tt, pt_bimodule(y), action.matrix, name="action"), "action-T"))
    if side == "right":
        yt = pipe(space(Y, tb))
        compare_pipes(rep, "wm-unit",
                      yt.apply(w.eta, 1, 1, [R, tb]).apply(action, 0, 3, [Y, tb]), yt)
        lhs = (
            pipe(space(Y, R, tb, R))
            .apply(w.object.twist, 2, 2, [R, tb])
            .apply(w.mu, 1, 3, [R, tb])
            .apply(action, 0, 3, [Y, tb])
        )
        rhs = (
            pipe(space(Y, R, tb, R))
            .apply(action, 0, 3, [Y, tb])
            .apply(w.object.twist, 1, 2, [R, tb])
            .apply(action, 0, 3, [Y, tb])
        )
        compare_pipes(rep, "wm-assoc", lhs, rhs)
    else:
        ty = pipe(space(tb, Y))
        lhs = (
            ty.apply(w.eta, 0, 1, [R, tb])
            .apply(y.twist, 1, 2, [Y, tb])
            .apply(action, 0, 3, [Y, tb])
        )
        compare_pipes(rep, "wm-unit", lhs, ty.apply(y.twist, 0, 2, [Y, tb]))
        lhs = (
            pipe(space(R, R, tb, Y))
            .apply(y.twist, 2, 2, [Y, tb])
            .apply(action, 1, 3, [Y, tb])
            .apply(action, 0, 3, [Y, tb])
        )
        rhs = (
            pipe(space(R, R, tb, Y))
            .apply(w.mu, 0, 3, [R, tb])
            .apply(y.twist, 1, 2, [Y, tb])
            .apply(action, 0, 3, [Y, tb])
        )
        compare_pipes(rep, "wm-assoc", lhs, rhs)
    return rep


def check_wreath_bimodule(w: Wreath, y: RTObject, l_action: LinearMap,
                          r_action: LinearMap) -> Report:
    """Both module structures plus the middle compatibility law."""
    rep = Report(f"wreath bimodule {y.name}")
    rep.extend(check_wreath_module(w, "left", y, l_action))
    rep.extend(check_wreath_module(w, "right", y, r_action))
    ext = w.ext
    tb = ext.t_bimodule
    R = w.object.carrier
    Y = y.carrier
    one = ext.total.unit_vector()
    lhs = (
        pipe(space(R, Y, R, tb))
        .insert_central(tb, one, 3)
        .apply(r_action, 1, 3, [Y, tb])
        .apply(ext.mult_map(), 2, 2, [tb])
        .apply(l_action, 0, 3, [Y, tb])
    )
    rhs = (
        pipe(space(R, Y, R, tb))
        .insert_central(tb, one, 2)
        .apply(l_action, 0, 3, [Y, tb])
        .apply(w.object.twist, 1, 2, [R, tb])
        .apply(ext.mult_map(), 2, 2, [tb])
        .apply(r_action, 0, 3, [Y, tb])
    )
    compare_pipes(rep, "wb-compat", lhs, rhs)
    return rep


def regular_wreath_bimodule(w: Wreath):
    """The wreath acting on itself: Y = R with mu as both actions, so that
    Y (x) T carries the regular product bimodule structure."""
    return w.object, w.mu, w.mu


# ---------------------------------------------------------------------------
# twisted tensor products


class LWreath:
    """Left-handed wreath data over the base ring R: an object of the mirror
    category with eta: R -> R (x) U and mu: R (x) U (x) U -> R (x) U."""

    def __init__(self, rext: RingExtension, carrier: Bimodule,
                 twist: LinearMap, eta: LinearMap, mu: LinearMap, name=None):
        self.rext = rext
        self.carrier = carrier
        self.twist = twist
        self.eta = eta
        self.mu = mu
        self.name = name or f"lwreath({carrier.name})"


def check_l_wreath(w: LWreath) -> Report:
    """The right-handed wreath laws on the mirror of w, over the opposite
    extension of R."""
    ext = opposite_extension(w.rext)
    R, U = ext.t_bimodule, mirror(w.carrier)
    mw = Wreath(RTObject(ext, U, mirror_map(w.twist), name=w.name),
                mirror_map(w.eta), mirror_map(w.mu, dom=space(U, U, R)),
                name=w.name)
    return mirrored_report(check_wreath(mw), f"left wreath {w.name}",
                           (("rt-", "lt-"), ("w-", "lw-")))


def l_wreath_product(w: LWreath, name=None):
    """Product algebra on R (x) U from the left-handed wreath."""
    rext = w.rext
    rb = rext.t_bimodule
    U = w.carrier
    ru = tensor_over(rb.right_algebra, rb, U)
    mult = (
        pipe(space(ru, ru))
        .refine(0)
        .refine(2)
        .apply(w.twist, 1, 2, [rb, U])
        .apply(rext.mult_map(), 0, 2, [rb])
        .apply(w.mu, 0, 3, [rb, U])
        .done(space(ru), name="product-mult")
    )
    product = _product_algebra(ru, mult, w.eta, rext.total,
                               name or f"{w.name}-product")
    return product, check_algebra(product)


def twisted_tensor_product(rext: RingExtension, text: RingExtension,
                           rmap: LinearMap, name=None):
    """Verify the four twisted tensor product laws, then return the wreath
    over T, the left wreath over R, and the product algebra.

    Raises PreconditionFailure naming ttp-1..ttp-4 on invalid input.
    """
    if rext.base is not text.base:
        raise InputError("both rings must extend the same base")
    rb = rext.t_bimodule
    tb = text.t_bimodule
    mu_r = rext.mult_map()
    mu_t = text.mult_map()
    rep = Report("twisted tensor product")
    rep.extend(bilinearity_report(rmap, "rmap"))
    one_r = rext.total.unit_vector()
    one_t = text.total.unit_vector()
    # the inclusions r -> r (x) 1 and t -> 1 (x) t, also the two wreaths' units
    incl_r = pipe(space(rb)).insert_central(tb, one_t, 1)
    incl_t = pipe(space(tb)).insert_central(rb, one_r, 0)

    l1 = (
        pipe(space(rb))
        .insert_central(tb, one_t, 0)
        .apply(rmap, 0, 2, [rb, tb])
    )
    compare_pipes(rep, "ttp-1", l1, incl_r)
    l2 = (
        pipe(space(tb, tb, rb))
        .apply(mu_t, 0, 2, [tb])
        .apply(rmap, 0, 2, [rb, tb])
    )
    r2 = (
        pipe(space(tb, tb, rb))
        .apply(rmap, 1, 2, [rb, tb])
        .apply(rmap, 0, 2, [rb, tb])
        .apply(mu_t, 1, 2, [tb])
    )
    compare_pipes(rep, "ttp-2", l2, r2)
    l3 = (
        pipe(space(tb))
        .insert_central(rb, one_r, 1)
        .apply(rmap, 0, 2, [rb, tb])
    )
    compare_pipes(rep, "ttp-3", l3, incl_t)
    l4 = (
        pipe(space(tb, rb, rb))
        .apply(mu_r, 1, 2, [rb])
        .apply(rmap, 0, 2, [rb, tb])
    )
    r4 = (
        pipe(space(tb, rb, rb))
        .apply(rmap, 0, 2, [rb, tb])
        .apply(rmap, 1, 2, [rb, tb])
        .apply(mu_r, 0, 2, [rb])
    )
    compare_pipes(rep, "ttp-4", l4, r4)
    if not rep.ok:
        raise PreconditionFailure(rep)

    obj = RTObject(text, rb, rmap, name=f"({rext.total.name},tw)")
    eta = incl_t.done(space(rb, tb), name="eta")
    mu_w = (
        pipe(space(rb, rb, tb)).apply(mu_r, 0, 2, [rb])
        .done(space(rb, tb), name="mu")
    )
    right_wreath = Wreath(obj, eta, mu_w,
                          name=name or f"ttp({rext.total.name},{text.total.name})")
    eta_l = incl_r.done(space(rb, tb), name="eta-left")
    mu_l = (
        pipe(space(rb, tb, tb)).apply(mu_t, 1, 2, [tb])
        .done(space(rb, tb), name="mu-left")
    )
    left_wreath = LWreath(rext, tb, rmap, eta_l, mu_l,
                          name=f"lttp({rext.total.name},{text.total.name})")
    product_ext, alg_rep, eta_rep = wreath_product(right_wreath)
    return right_wreath, left_wreath, product_ext, alg_rep, eta_rep


# ---------------------------------------------------------------------------
# module twisting maps


class ModuleTwist:
    """A left module twisting map: an (R, A)-bimodule X presented over
    (A, A) with its R-action as a map, plus a twist T (x) X -> X (x) T."""

    def __init__(self, ttp_wreath: Wreath, rext: RingExtension,
                 carrier: Bimodule, l_x: LinearMap, twist: LinearMap,
                 name=None):
        self.wreath = ttp_wreath
        self.rext = rext
        self.carrier = carrier
        self.l_x = l_x       # R (x) X -> X
        self.twist = twist   # T (x) X -> X (x) T
        self.name = name or f"twist({carrier.name})"


def check_left_module_twisting(mt: ModuleTwist) -> Report:
    """The unit, multiplicativity and action-compatibility laws."""
    rep = Report(f"module twisting {mt.name}")
    w = mt.wreath
    ext = w.ext
    tb = ext.t_bimodule
    rb = mt.rext.t_bimodule
    X = mt.carrier
    mu_t = ext.mult_map()
    mu_r = mt.rext.mult_map()
    rep.extend(bilinearity_report(mt.twist, "twist"))
    rep.extend(bilinearity_report(mt.l_x, "action"))

    # the action is unital and associative
    x = pipe(space(X))
    r1 = x.insert_central(rb, mt.rext.total.unit_vector(), 0)
    compare_pipes(rep, "mt-action-unit", r1.apply(mt.l_x, 0, 2, [X]), x)
    a2l = (
        pipe(space(rb, rb, X))
        .apply(mu_r, 0, 2, [rb])
        .apply(mt.l_x, 0, 2, [X])
    )
    a2r = (
        pipe(space(rb, rb, X))
        .apply(mt.l_x, 1, 2, [X])
        .apply(mt.l_x, 0, 2, [X])
    )
    compare_pipes(rep, "mt-action-assoc", a2l, a2r)

    one_t = ext.total.unit_vector()
    l1 = x.insert_central(tb, one_t, 0).apply(mt.twist, 0, 2, [X, tb])
    compare_pipes(rep, "mt-unit", l1, x.insert_central(tb, one_t, 1))
    l2 = (
        pipe(space(tb, tb, X))
        .apply(mu_t, 0, 2, [tb])
        .apply(mt.twist, 0, 2, [X, tb])
    )
    r2 = (
        pipe(space(tb, tb, X))
        .apply(mt.twist, 1, 2, [X, tb])
        .apply(mt.twist, 0, 2, [X, tb])
        .apply(mu_t, 1, 2, [tb])
    )
    compare_pipes(rep, "mt-mult", l2, r2)
    l3 = (
        pipe(space(tb, rb, X))
        .apply(mt.l_x, 1, 2, [X])
        .apply(mt.twist, 0, 2, [X, tb])
    )
    r3 = (
        pipe(space(tb, rb, X))
        .apply(w.object.twist, 0, 2, [rb, tb])
        .apply(mt.twist, 1, 2, [X, tb])
        .apply(mt.l_x, 0, 2, [X])
    )
    compare_pipes(rep, "mt-action", l3, r3)
    return rep


def induced_twisted_action(mt: ModuleTwist, y: Bimodule,
                           l_y: LinearMap) -> LinearMap:
    """The product action on X (x) Y for a (T, A)-bimodule Y given by its
    T-action map l_y: T (x) Y -> Y."""
    w = mt.wreath
    ext = w.ext
    tb = ext.t_bimodule
    rb = mt.rext.t_bimodule
    X = mt.carrier
    xy = tensor_over(X.right_algebra, X, y)
    return (
        pipe(space(rb, tb, X, y))
        .apply(mt.twist, 1, 2, [X, tb])
        .apply(mt.l_x, 0, 2, [X])
        .apply(l_y, 1, 2, [y])
        .done(space(xy), name="l-XY")
    )


def extract_module_twist(mt_shape_action: LinearMap, ttp_wreath: Wreath,
                         rext: RingExtension, carrier: Bimodule) -> LinearMap:
    """Recover the twist T (x) X -> X (x) T from a product action on
    X (x) T of the canonical shape, by feeding 1_R and 1_T."""
    ext = ttp_wreath.ext
    tb = ext.t_bimodule
    rb = rext.t_bimodule
    return (
        pipe(space(tb, carrier))
        .insert_central(rb, rext.total.unit_vector(), 0)
        .insert_central(tb, ext.total.unit_vector(), 3)
        .apply(mt_shape_action, 0, 4, [carrier, tb])
        .done(space(carrier, tb), name="extracted-twist")
    )


# the action laws of a module over the wreath product (`check_bimodule`)
_PM_TAGS = ("pm-unit", "pm-right-unit", "pm-assoc", "pm-right-assoc", "pm-commute")


class BimoduleTwistData:
    """Data for the two-sided twisting check: an R-bimodule X with a left
    twist, and a T-bimodule V with a right twist."""

    def __init__(self, mt: ModuleTwist, r_x: LinearMap,
                 v_carrier: Bimodule, l_v: LinearMap, r_v: LinearMap,
                 v_twist: LinearMap, name=None):
        self.mt = mt
        self.r_x = r_x           # X (x) R -> X
        self.v_carrier = v_carrier
        self.l_v = l_v           # T (x) V -> V
        self.r_v = r_v           # V (x) T -> V
        self.v_twist = v_twist   # V (x) R -> R (x) V
        self.name = name or "bimodule twist"


def check_bimodule_twisting(bt: BimoduleTwistData) -> Report:
    """The mixed compatibility square plus the bimodule laws of the induced
    two-sided action on X (x) V over the product."""
    rep = Report(f"bimodule twisting {bt.name}")
    mt = bt.mt
    w = mt.wreath
    ext = w.ext
    tb = ext.t_bimodule
    rb = mt.rext.t_bimodule
    X, V = mt.carrier, bt.v_carrier

    lhs = (
        pipe(space(tb, X, V, rb))
        .apply(mt.twist, 0, 2, [X, tb])
        .apply(bt.l_v, 1, 2, [V])
        .apply(bt.v_twist, 1, 2, [rb, V])
        .apply(bt.r_x, 0, 2, [X])
    )
    rhs = (
        pipe(space(tb, X, V, rb))
        .apply(bt.v_twist, 2, 2, [rb, V])
        .apply(bt.r_x, 1, 2, [X])
        .apply(mt.twist, 0, 2, [X, tb])
        .apply(bt.l_v, 1, 2, [V])
    )
    compare_pipes(rep, "bt-compat", lhs, rhs)

    xv = tensor_over(X.right_algebra, X, V)
    l_xv = induced_twisted_action(mt, V, bt.l_v)
    r_xv = (
        pipe(space(X, V, rb, tb))
        .apply(bt.v_twist, 1, 2, [rb, V])
        .apply(bt.r_x, 0, 2, [X])
        .apply(bt.r_v, 1, 2, [V])
        .done(space(xv), name="r-XV")
    )
    product = _product(w)
    rt = w.rt_carrier()
    return rep.extend(check_bimodule(
        xv, left=(product, element_action_matrices(l_xv, rt, xv)),
        right=(product, element_action_matrices(r_xv, rt, xv, side="right")),
        tags=_PM_TAGS))


def r_action_matrices_check(mt: ModuleTwist, y: Bimodule, l_y: LinearMap,
                            product: FinAlgebra, rt_carrier: Bimodule) -> Report:
    """Module laws of the induced action plus compatibility with the
    inclusion of the first tensorand."""
    action = induced_twisted_action(mt, y, l_y)
    xy = action.codomain
    acts = element_action_matrices(action, rt_carrier, xy)
    rep = check_bimodule(xy, left=(product, acts), tags=_PM_TAGS,
                         name=f"induced action on {mt.carrier.name}(x){y.name}")
    # (r (x) 1) . (x (x) y) = (r x) (x) y
    f = mt.carrier.field
    rb = mt.rext.t_bimodule
    lx_mats = element_action_matrices(mt.l_x, rb, mt.carrier)
    one_t = mt.wreath.ext.total.unit_vector()
    sp = space(mt.carrier, y)
    tb = mt.wreath.ext.t_bimodule
    emb = pipe(space(rb)).insert_central(tb, one_t, 1).done(space(rb, tb))
    ident_y = Matrix.identity(f, y.dim)
    for i in range(mt.rext.total.dim):
        act_u = xy.act_matrix(acts, emb.matrix.tapply({i: f.one()}))
        expect = sp.project @ lx_mats[i].kron(ident_y) @ sp.section
        if act_u != expect:
            compare_maps(rep, "mt-inclusion", LinearMap(xy, xy, act_u),
                         LinearMap(xy, xy, expect), 1, (mt.rext.total.labels[i],))
    return rep


# ---------------------------------------------------------------------------
# dual comparison functor and hom transposes


def functor_o_dual(w: Wreath, y: RTObject, l_action: LinearMap):
    """Send a left wreath module to a module over the product on Y (x) T;
    returns (carrier, left action map).  T acts on the right as on
    `pt_bimodule(y)`."""
    l_map = _left_product(w, y, l_action, "l-dual")
    return l_map.codomain, l_map


def check_functor_o_dual(w: Wreath, y: RTObject, l_action: LinearMap) -> Report:
    """The product's left action and T's right action on Y (x) T are
    unital, associative and commute."""
    yt, l_map = functor_o_dual(w, y, l_action)
    return check_bimodule(
        yt, left=(_product(w), element_action_matrices(l_map, w.rt_carrier(), yt)),
        right=(w.ext.total, pt_bimodule(y).right_action),
        tags=("pm-unit", "od-right-unit", "pm-assoc", "od-right-assoc", "od-commute"),
        name=f"dual comparison on {y.name}")


def dual_hat(o: RTObject, g: LinearMap) -> LinearMap:
    """Raise g: X -> P (x) T to the right-T-linear map X (x) T -> P (x) T."""
    ext = o.ext
    tb = ext.t_bimodule
    P = o.carrier
    X = g.domain
    pt = tensor_over(P.right_algebra, P, tb)
    return (
        pipe(space(X, tb))
        .apply(g, 0, 1, [P, tb])
        .apply(ext.mult_map(), 1, 2, [tb])
        .done(space(pt), name=f"hat({g.name})")
    )


def dual_tilde(o: RTObject, f: LinearMap, x_carrier: Bimodule) -> LinearMap:
    """Lower f: X (x) T -> P (x) T to X -> P (x) T along x -> x (x) 1."""
    ext = o.ext
    tb = ext.t_bimodule
    return (
        pipe(space(x_carrier))
        .insert_central(tb, ext.total.unit_vector(), 1)
        .apply(f, 0, 2, [f.codomain])
        .done(space(f.codomain), name=f"tilde({f.name})")
    )


def sample_dual_maps(o: RTObject, x_carrier: Bimodule, l_x: LinearMap,
                     count=5, seed=0):
    """Deterministic sample of left-T right-A linear maps X -> P (x) T."""
    from .coring import sample_maps
    ext = o.ext
    tb = ext.t_bimodule
    P = o.carrier
    pt = tensor_over(P.right_algebra, P, tb)
    x_lacts = element_action_matrices(l_x, tb, x_carrier)
    src = Bimodule(ext.total, x_carrier.right_algebra, x_carrier.dim, x_lacts,
                   x_carrier.right_action)
    dst = Bimodule(ext.total, pt.right_algebra, pt.dim,
                   pt_bimodule(o).left_action, pt.right_action)
    return sample_maps(src, dst, count, seed, "g", dom=x_carrier, cod=pt)
