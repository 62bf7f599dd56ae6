"""Skew polynomial arithmetic and the degree-bounded wreath view of it.

B[Y; sigma; delta] rewrites Y.b = sigma(b).Y + delta(b).  The twist table
gives the inductive map sending X^n (x) b to the coefficient list of Y^n.b;
polynomials multiply through the same rewrite but on an unrelated data
structure, so the two act as mutual oracles.  All wreath verifications are
degree bounded: inputs are chosen so no output exceeds the bound, making
every reported pass exact rather than a truncation.

Each side computes a value once.  `skew_mul` keeps the rewrite Y^n . c in a
memo on the `SkewPolyData`, keyed on (n, c), so it lives exactly as long as
the data and references nothing that points back at it; it never reads an
`OreTwistTable`.  A table twists each basis vector once per degree, and the
checks below read those twists and form each product once instead of
recomputing them inside their loops.  Neither hands a cached dict to a
caller: `twist`, `ore_twist` and `skew_mul` return fresh dicts.  Like every
structure here, a `SkewPolyData` is treated as immutable once built.
"""

from __future__ import annotations

from .algebra import AlgebraMorphism, FinAlgebra, check_algebra_morphism
from .exactla import Matrix
from .reports import InputError, Record, Report, Witness


class SkewPolyData(Record):
    """Coefficient algebra B, endomorphism sigma, left sigma-derivation."""

    _fields = ("coeff_algebra", "sigma", "delta", "name")

    def __init__(self, coeff_algebra: FinAlgebra, sigma: AlgebraMorphism,
                 delta: Matrix, name: str = "ore"):
        b = coeff_algebra
        if sigma.source is not b or sigma.target is not b:
            raise InputError("sigma must be an endomorphism of B")
        if delta.rows != b.dim or delta.cols != b.dim:
            raise InputError("delta must be a square matrix on B")
        self.coeff_algebra = coeff_algebra
        self.sigma = sigma
        self.delta = delta
        self.name = name
        # Y^n . c by the rewrite, keyed on (n, frozenset(c.items())); read
        # only through `_rewritten`
        self._rewrites = {}


def check_skew_data(d: SkewPolyData) -> Report:
    """sigma is an algebra endomorphism; delta obeys the twisted Leibniz
    rule delta(bb') = delta(b) b' + sigma(b) delta(b')."""
    rep = Report(f"skew data {d.name}")
    sub = check_algebra_morphism(d.sigma)
    for w in sub.witnesses:
        rep.add(Witness(f"sigma-{w.equation}", w.basis, w.lhs, w.rhs))
    b = d.coeff_algebra
    f = b.field
    for i in range(b.dim):
        di = d.delta.col(i)
        si = d.sigma.matrix.col(i)
        for j in range(b.dim):
            lhs = d.delta.apply(b.mult[i][j])
            rhs = b.mul_vec(di, {j: f.one()})
            for k, v in b.mul_vec(si, d.delta.col(j)).items():
                u = f.add(rhs.get(k, f.zero()), v)
                if f.is_zero(u):
                    rhs.pop(k, None)
                else:
                    rhs[k] = u
            if lhs != rhs:
                rep.add(Witness("derivation", (b.labels[i], b.labels[j]),
                                b.fmt_vec(lhs), b.fmt_vec(rhs)))
    return rep


# ---------------------------------------------------------------------------
# skew polynomials


class SkewPoly:
    """A left-coefficient polynomial sum of b_n . Y^n, stored sparsely."""

    def __init__(self, data: SkewPolyData, coeffs: dict | None = None):
        self.data = data
        self.coeffs = {}
        if coeffs:
            for n, vec in coeffs.items():
                if n < 0:
                    raise InputError("negative degree")
                v = {k: c for k, c in vec.items()
                     if not data.coeff_algebra.field.is_zero(c)}
                if v:
                    self.coeffs[n] = v

    @classmethod
    def monomial(cls, data, vec, n=0):
        return cls(data, {n: dict(vec)})

    @classmethod
    def one(cls, data):
        return cls(data, {0: data.coeff_algebra.unit_vector()})

    @classmethod
    def y(cls, data, n=1):
        return cls(data, {n: data.coeff_algebra.unit_vector()})

    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, SkewPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        f = self.data.coeff_algebra.field
        out = {n: dict(v) for n, v in self.coeffs.items()}
        for n, v in other.coeffs.items():
            tgt = out.setdefault(n, {})
            for k, c in v.items():
                u = f.add(tgt.get(k, f.zero()), c)
                if f.is_zero(u):
                    tgt.pop(k, None)
                else:
                    tgt[k] = u
            if not tgt:
                del out[n]
        return SkewPoly(self.data, out)

    def __repr__(self):
        b = self.data.coeff_algebra
        if not self.coeffs:
            return "0"
        parts = []
        for n in sorted(self.coeffs):
            parts.append(f"({b.fmt_vec(self.coeffs[n])})Y^{n}")
        return " + ".join(parts)


def _rewrite_once(data: SkewPolyData, coeffs: dict) -> dict:
    """Multiply by Y on the left: c.Y^i becomes sigma(c).Y^(i+1) + delta(c).Y^i."""
    f = data.coeff_algebra.field
    out: dict = {}
    for i, vec in coeffs.items():
        for tgt_deg, mat in ((i + 1, data.sigma.matrix), (i, data.delta)):
            img = mat.tapply(vec)
            if img:
                f.axpy(out.setdefault(tgt_deg, {}), img, f.one())
    return {n: v for n, v in out.items() if v}


def _rewritten(d: SkewPolyData, n: int, cvec: dict) -> dict:
    """Y^n . c as {degree: vector}: n rewrites of c, each kept in the memo
    on d.  The result is shared with the memo and must not be mutated."""
    if n <= 0:
        return {0: cvec}
    memo = d._rewrites
    key = frozenset(cvec.items())
    done = n
    while done and (done, key) not in memo:
        done -= 1
    moved = memo[done, key] if done else {0: cvec}
    for k in range(done + 1, n + 1):
        moved = memo[k, key] = _rewrite_once(d, moved)
    return moved


def skew_mul(d: SkewPolyData, p: SkewPoly, q: SkewPoly) -> SkewPoly:
    """Product under the rewrite rule, left-coefficient convention."""
    b = d.coeff_algebra
    f = b.field
    one = f.one()
    out: dict = {}
    for n, bvec in p.coeffs.items():
        for m, cvec in q.coeffs.items():
            for i, vec in _rewritten(d, n, cvec).items():
                f.axpy(out.setdefault(i + m, {}), b.mul_vec(bvec, vec), one)
    return SkewPoly(d, out)


# ---------------------------------------------------------------------------
# the inductive twist table


class OreTwistTable:
    """Degree-indexed matrices: table[n][i].b is the X^i coefficient of the
    twist applied to X^n (x) b."""

    def __init__(self, data: SkewPolyData, max_degree: int):
        if max_degree < 0:
            raise InputError("degree bound must be nonnegative")
        self.data = data
        self.max_degree = max_degree
        b = data.coeff_algebra
        f = b.field
        ident = Matrix.identity(f, b.dim)
        self.table = [{0: ident}]
        for n in range(max_degree):
            prev = self.table[n]
            nxt: dict = {}
            for i, mat in prev.items():
                for tgt, step in ((i + 1, data.sigma.matrix), (i, data.delta)):
                    cur = nxt.get(tgt)
                    nxt[tgt] = step @ mat if cur is None else cur + step @ mat
            self.table.append({i: m for i, m in nxt.items() if not m.is_zero()})
        self._basis = [None] * (max_degree + 1)

    def twist(self, n: int, bvec: dict) -> dict:
        """Coefficients {degree: vector} of the twist on X^n (x) b."""
        if n < 0:
            raise InputError(f"negative degree {n}")
        if n > self.max_degree:
            raise InputError(
                f"degree {n} exceeds the table bound {self.max_degree}")
        out = {}
        for i, mat in self.table[n].items():
            img = mat.tapply(bvec)
            if img:
                out[i] = img
        return out

    def _basis_twists(self, n: int) -> list:
        """[twist(n, e_k) for each basis vector e_k], computed once per
        degree 0 <= n <= max_degree and shared: callers must not mutate it."""
        got = self._basis[n]
        if got is None:
            one = self.data.coeff_algebra.field.one()
            got = self._basis[n] = [
                self.twist(n, {k: one})
                for k in range(self.data.coeff_algebra.dim)]
        return got


def ore_twist(t: OreTwistTable, n: int, bvec: dict) -> dict:
    return t.twist(n, bvec)


def _fmt_poly(b: FinAlgebra, coeffs: dict) -> str:
    if not coeffs:
        return "0"
    return " + ".join(f"({b.fmt_vec(coeffs[n])})X^{n}" for n in sorted(coeffs))


def _left_mul(b: FinAlgebra, u: dict, poly: dict, shift: int = 0) -> dict:
    """u . poly for a {degree: vector} poly, degrees raised by shift and
    zero coefficients dropped."""
    out = {}
    for deg, vec in poly.items():
        prod = b.mul_vec(u, vec)
        if prod:
            out[deg + shift] = prod
    return out


def check_ore_wreath(d: SkewPolyData, bound: int) -> Report:
    """Degree-bounded wreath laws for the inductive twist with unit
    X^n -> 1 (x) X^n and multiplication b (x) b' (x) X^n -> bb' (x) X^n."""
    rep = Report(f"ore wreath {d.name} (degree <= {bound})")
    rep.extend(check_skew_data(d))
    b = d.coeff_algebra
    f = b.field
    one_f = f.one()
    table = OreTwistTable(d, bound)
    # tw[n][k] is the twist of X^n (x) e_k
    tw = [table._basis_twists(n) for n in range(bound + 1)]
    basis = [{i: one_f} for i in range(b.dim)]

    for i, e in enumerate(basis):
        if tw[0][i] != {0: e}:
            rep.add(Witness("rt-unit", (b.labels[i],),
                            _fmt_poly(b, tw[0][i]), _fmt_poly(b, {0: e})))

    for n in range(bound + 1):
        for m in range(bound + 1 - n):
            for idx in range(b.dim):
                lhs = tw[n + m][idx]
                rhs: dict = {}
                for i, vec in tw[m][idx].items():
                    for j, vec2 in table.twist(n, vec).items():
                        f.axpy(rhs.setdefault(i + j, {}), vec2, one_f)
                rhs = {k: v for k, v in rhs.items() if v}
                if lhs != rhs:
                    rep.add(Witness("rt-mult", (n, m, b.labels[idx]),
                                    _fmt_poly(b, lhs), _fmt_poly(b, rhs)))

    one = b.unit_vector()
    for n in range(bound + 1):
        img = table.twist(n, one)
        if img != {n: one}:
            rep.add(Witness("eta-left-linear", (n,),
                            _fmt_poly(b, img), _fmt_poly(b, {n: one})))

    # T-bilinearity of the multiplication: threading X^n through b then b'
    # must match threading through bb'
    for n in range(bound + 1):
        for i in range(b.dim):
            ti = tw[n][i]
            for j in range(b.dim):
                lhs = {}
                for deg1, vec1 in ti.items():
                    for deg2, vec2 in tw[deg1][j].items():
                        f.axpy(lhs.setdefault(deg2, {}),
                               b.mul_vec(vec1, vec2), one_f)
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = table.twist(n, b.mult[i][j])
                if lhs != rhs:
                    rep.add(Witness("mu-left-linear",
                                    (n, b.labels[i], b.labels[j]),
                                    _fmt_poly(b, lhs), _fmt_poly(b, rhs)))

    # the three wreath diagrams on monomial inputs
    for n in range(bound + 1):
        # e_j . tw(X^n (x) e_k), shared by every i below
        jk = [[_left_mul(b, ej, tk) for tk in tw[n]] for ej in basis]
        for i, bi in enumerate(basis):
            # unit section: mu.(B x eta) applied to b (x) X^n
            if b.mul_vec(bi, one) != bi:
                rep.add(Witness("w-unit", (b.labels[i], n), "b.1", "b"))
            # twist compatibility: mu.(B x tw).(eta x B) = tw
            lhs = _left_mul(b, one, tw[n][i])
            if lhs != tw[n][i]:
                rep.add(Witness("w-twist", (n, b.labels[i]),
                                _fmt_poly(b, lhs), _fmt_poly(b, tw[n][i])))
            for j in range(b.dim):
                for k in range(b.dim):
                    lhs = _left_mul(b, b.mult[i][j], tw[n][k])
                    rhs = _left_mul(b, bi, jk[j][k])
                    if lhs != rhs:
                        rep.add(Witness("w-assoc",
                                        (b.labels[i], b.labels[j], n, b.labels[k]),
                                        _fmt_poly(b, lhs), _fmt_poly(b, rhs)))
    return rep


def wreath_monomial_product(table: OreTwistTable, bvec: dict, n: int,
                            cvec: dict, m: int) -> dict:
    """(b (x) X^n)(c (x) X^m) through the twist table; {degree: vector}."""
    return _left_mul(table.data.coeff_algebra, bvec, table.twist(n, cvec), m)


def ore_vs_wreath_product(d: SkewPolyData, bound: int) -> Report:
    """The wreath product multiplication agrees with the rewrite product on
    all monomials of total degree within the bound."""
    rep = Report(f"ore product comparison {d.name} (degree <= {bound})")
    b = d.coeff_algebra
    f = b.field
    table = OreTwistTable(d, bound)
    basis = [{i: f.one()} for i in range(b.dim)]
    monos = [[SkewPoly.monomial(d, e, n) for e in basis]
             for n in range(bound + 1)]
    for n in range(bound + 1):
        # (e_i (x) X^n)(e_j (x) 1) through the table; X^m only shifts it
        prods = [[_left_mul(b, ei, tj) for tj in table._basis_twists(n)]
                 for ei in basis]
        for m in range(bound + 1 - n):
            for i in range(b.dim):
                for j in range(b.dim):
                    lhs = {deg + m: v for deg, v in prods[i][j].items()}
                    rhs = skew_mul(d, monos[n][i], monos[m][j]).coeffs
                    if lhs != rhs:
                        rep.add(Witness(
                            "product-mismatch",
                            (b.labels[i], n, b.labels[j], m),
                            _fmt_poly(b, lhs), _fmt_poly(b, rhs)))
    return rep


def twist_vs_skew_mul(d: SkewPolyData, bound: int) -> Report:
    """The table and the rewrite engine agree on Y^n . b for all n, b."""
    rep = Report(f"twist table vs rewrite {d.name}")
    b = d.coeff_algebra
    f = b.field
    table = OreTwistTable(d, bound)
    for n in range(bound + 1):
        for i in range(b.dim):
            via_table = table.twist(n, {i: f.one()})
            via_mul = skew_mul(
                d, SkewPoly.y(d, n), SkewPoly.monomial(d, {i: f.one()}, 0)
            ).coeffs
            if via_table != via_mul:
                rep.add(Witness("twist-vs-rewrite", (n, b.labels[i]),
                                _fmt_poly(b, via_table),
                                _fmt_poly(b, via_mul)))
    return rep


def ore_degree_zero_check(d: SkewPolyData, bound: int) -> Report:
    """Degree zero embeds the coefficient ring multiplicatively."""
    rep = Report(f"degree-zero slice {d.name}")
    b = d.coeff_algebra
    f = b.field
    table = OreTwistTable(d, bound)
    for i in range(b.dim):
        for j in range(b.dim):
            prod = wreath_monomial_product(table, {i: f.one()}, 0,
                                           {j: f.one()}, 0)
            expect = {0: b.mult[i][j]} if b.mult[i][j] else {}
            if prod != expect:
                rep.add(Witness("slice-mult", (b.labels[i], b.labels[j]),
                                _fmt_poly(b, prod), _fmt_poly(b, expect)))
    return rep


def ore_universal_check(d: SkewPolyData, bound: int, target: FinAlgebra,
                        phi: Matrix, z_vec: dict) -> Report:
    """Given a morphism into a target ring and an element satisfying the
    rewrite relation there, the degreewise extension b (x) X^n -> phi(b) z^n
    is multiplicative up to the bound."""
    rep = Report(f"universal extension {d.name} -> {target.name}")
    b = d.coeff_algebra
    f = b.field
    morph = AlgebraMorphism(b, target, phi, name="phi")
    sub = check_algebra_morphism(morph)
    for w in sub.witnesses:
        rep.add(Witness(f"phi-{w.equation}", w.basis, w.lhs, w.rhs))
    # z . phi(b) = phi(sigma(b)) . z + phi(delta(b))
    for i in range(b.dim):
        e = {i: f.one()}
        lhs = target.mul_vec(z_vec, phi.apply(e))
        rhs = target.mul_vec(phi.apply(d.sigma.matrix.apply(e)), z_vec)
        for k, v in phi.apply(d.delta.apply(e)).items():
            u = f.add(rhs.get(k, f.zero()), v)
            if f.is_zero(u):
                rhs.pop(k, None)
            else:
                rhs[k] = u
        if lhs != rhs:
            rep.add(Witness("ore-relation", (b.labels[i],),
                            target.fmt_vec(lhs), target.fmt_vec(rhs)))
    if not rep.ok:
        return rep

    table = OreTwistTable(d, bound)
    zpow = [target.unit_vector()]
    for _ in range(bound):
        zpow.append(target.mul_vec(zpow[-1], z_vec))

    def extend(coeffs: dict) -> dict:
        out: dict = {}
        for n, vec in coeffs.items():
            img = target.mul_vec(phi.apply(vec), zpow[n])
            for k, v in img.items():
                u = f.add(out.get(k, f.zero()), v)
                if f.is_zero(u):
                    out.pop(k, None)
                else:
                    out[k] = u
        return out

    one_img = extend({0: b.unit_vector()})
    if one_img != target.unit:
        rep.add(Witness("ext-unit", ("1",), target.fmt_vec(one_img),
                        target.fmt_vec(dict(target.unit))))
    for n in range(bound + 1):
        for m in range(bound + 1 - n):
            for i in range(b.dim):
                for j in range(b.dim):
                    prod = wreath_monomial_product(
                        table, {i: f.one()}, n, {j: f.one()}, m)
                    lhs = extend(prod)
                    rhs = target.mul_vec(
                        target.mul_vec(phi.apply({i: f.one()}), zpow[n]),
                        target.mul_vec(phi.apply({j: f.one()}), zpow[m]))
                    if lhs != rhs:
                        rep.add(Witness("ext-mult",
                                        (b.labels[i], n, b.labels[j], m),
                                        target.fmt_vec(lhs),
                                        target.fmt_vec(rhs)))
    return rep
