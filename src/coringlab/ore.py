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
`OreTwistTable`.  A table twists each basis vector once per degree.  The
wreath checks hold each such twist of X^n (x) e_k as one flat dict keyed
degree * dim + c, and every law they evaluate is linear in its input, so
it is read off those basis twists: a twist of X^n (x) v is the sum of
v[c] times the twist of e_c, raised by whole degree blocks.  The products
e_a . twist(X^n (x) e_k) are formed once per (n, a, k), and the product
comparison forms (e_i Y^n)(e_j) once per (n, i, j) on each side and
raises it by m for every X^m.  Polynomials go back to {degree: vector}
only to format a witness.  Nothing hands a cached dict to a caller:
`twist`, `ore_twist` and `skew_mul` return fresh dicts.  Like every
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
    rep.extend(check_algebra_morphism(d.sigma), prefix="sigma")
    b = d.coeff_algebra
    f = b.field
    for i in range(b.dim):
        di = d.delta.col(i)
        si = d.sigma.matrix.col(i)
        for j in range(b.dim):
            lhs = d.delta.apply(b.mult[i][j])
            rhs = f.axpy(b.mul_vec(di, {j: f.one()}),
                         b.mul_vec(si, d.delta.col(j)), f.one())
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
            tgt = f.axpy(out.setdefault(n, {}), v, f.one())
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


def _flat(dim: int, poly: dict) -> dict:
    """A {degree: vector} polynomial as one flat dict {degree * dim + c: scalar}."""
    return {deg * dim + c: v for deg, vec in poly.items() for c, v in vec.items()}


def _fmt_flat(b: FinAlgebra, flat: dict, shift: int = 0) -> str:
    """`_fmt_poly` of a flat polynomial, its degrees raised by shift."""
    poly: dict = {}
    for p, v in flat.items():
        poly.setdefault(p // b.dim + shift, {})[p % b.dim] = v
    return _fmt_poly(b, poly)


def _lin(f, dim: int, rows: list, flat: dict) -> dict:
    """The linear map e_c X^deg -> rows[c] X^deg on a flat polynomial, each
    rows[c] flat too; a vector of B is a flat polynomial of degree 0."""
    out: dict = {}
    for p, v in flat.items():
        c = p % dim
        s = p - c
        f.axpy(out, {q + s: w for q, w in rows[c].items()} if s else rows[c], v)
    return out


def _flat_twists(table: OreTwistTable) -> list:
    """tw[n][k], the twist of X^n (x) e_k as a flat polynomial, for every
    degree of the table."""
    dim = table.data.coeff_algebra.dim
    return [[_flat(dim, t) for t in table._basis_twists(n)]
            for n in range(table.max_degree + 1)]


def check_ore_wreath(d: SkewPolyData, bound: int) -> Report:
    """Degree-bounded wreath laws for the inductive twist with unit
    X^n -> 1 (x) X^n and multiplication b (x) b' (x) X^n -> bb' (x) X^n."""
    rep = Report(f"ore wreath {d.name} (degree <= {bound})")
    rep.extend(check_skew_data(d))
    b = d.coeff_algebra
    f, dim, mult, labels = b.field, b.dim, b.mult, b.labels
    one = b.unit
    basis = [{i: f.one()} for i in range(dim)]
    tw = _flat_twists(OreTwistTable(d, bound))
    # prods[n][a][k] is e_a . tw[n][k]
    prods = [[[_lin(f, dim, row, t) for t in twn] for row in mult] for twn in tw]

    def fail(tag, where, lhs, rhs):
        rep.add(Witness(tag, where, _fmt_flat(b, lhs), _fmt_flat(b, rhs)))

    for i, e in enumerate(basis):
        if tw[0][i] != e:
            fail("rt-unit", (labels[i],), tw[0][i], e)

    for n in range(bound + 1):
        for m in range(bound + 1 - n):
            for idx in range(dim):
                rhs = _lin(f, dim, tw[n], tw[m][idx])
                if tw[n + m][idx] != rhs:
                    fail("rt-mult", (n, m, labels[idx]), tw[n + m][idx], rhs)

    for n in range(bound + 1):
        img = _lin(f, dim, tw[n], one)
        want = {n * dim + c: v for c, v in one.items()}
        if img != want:
            fail("eta-left-linear", (n,), img, want)

    # T-bilinearity of the multiplication: threading X^n through b then b'
    # must match threading through bb'
    for n in range(bound + 1):
        for i in range(dim):
            for j in range(dim):
                lhs: dict = {}
                for p, v in tw[n][i].items():
                    f.axpy(lhs, prods[p // dim][p % dim][j], v)
                rhs = _lin(f, dim, tw[n], mult[i][j])
                if lhs != rhs:
                    fail("mu-left-linear", (n, labels[i], labels[j]), lhs, rhs)

    # the three wreath diagrams on monomial inputs.  Each side of w-twist
    # and w-assoc maps the twist linearly by e_c -> 1.e_c, (e_i e_j) e_c or
    # e_i (e_j e_c); where the two w-assoc rows agree on every e_c, so do
    # both sides, whatever the twist
    units = [b.mul_vec(e, one) for e in basis]
    unit_rows = [b.mul_vec(one, e) for e in basis]
    assoc = [[([b.mul_vec(mult[i][j], e) for e in basis],
               [b.mul_vec(ei, mult[j][c]) for c in range(dim)])
              for j in range(dim)] for i, ei in enumerate(basis)]
    for n in range(bound + 1):
        for i, ei in enumerate(basis):
            # unit section: mu.(B x eta) applied to b (x) X^n
            if units[i] != ei:
                rep.add(Witness("w-unit", (labels[i], n), b.fmt_vec(units[i]),
                                b.fmt_vec(ei)))
            # twist compatibility: mu.(B x tw).(eta x B) = tw
            lhs = _lin(f, dim, unit_rows, tw[n][i])
            if lhs != tw[n][i]:
                fail("w-twist", (n, labels[i]), lhs, tw[n][i])
            for j, (left, right) in enumerate(assoc[i]):
                for k in range(dim) if left != right else ():
                    lhs = _lin(f, dim, left, tw[n][k])
                    rhs = _lin(f, dim, right, tw[n][k])
                    if lhs != rhs:
                        fail("w-assoc", (labels[i], labels[j], n, labels[k]),
                             lhs, rhs)
    return rep


def wreath_monomial_product(table: OreTwistTable, bvec: dict, n: int,
                            cvec: dict, m: int) -> dict:
    """(b (x) X^n)(c (x) X^m) through the twist table; {degree: vector}."""
    b = table.data.coeff_algebra
    return {deg + m: p for deg, vec in table.twist(n, cvec).items()
            if (p := b.mul_vec(bvec, vec))}


def ore_vs_wreath_product(d: SkewPolyData, bound: int) -> Report:
    """The wreath product multiplication agrees with the rewrite product on
    all monomials of total degree within the bound."""
    rep = Report(f"ore product comparison {d.name} (degree <= {bound})")
    b = d.coeff_algebra
    f, dim = b.field, b.dim
    tw = _flat_twists(OreTwistTable(d, bound))
    basis = [{i: f.one()} for i in range(dim)]
    monos = [SkewPoly.monomial(d, e) for e in basis]
    for n in range(bound + 1):
        # (e_i (x) X^n)(e_j (x) X^m) on each side is the product at m = 0
        # raised by m, so each pair is compared once and reported per m
        bad = []
        for i, ei in enumerate(basis):
            y = SkewPoly.monomial(d, ei, n)
            for j, mono in enumerate(monos):
                lhs = _lin(f, dim, b.mult[i], tw[n][j])
                rhs = _flat(dim, skew_mul(d, y, mono).coeffs)
                if lhs != rhs:
                    bad.append((i, j, lhs, rhs))
        for m in range(bound + 1 - n):
            for i, j, lhs, rhs in bad:
                rep.add(Witness("product-mismatch",
                                (b.labels[i], n, b.labels[j], m),
                                _fmt_flat(b, lhs, m), _fmt_flat(b, rhs, m)))
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
    rep.extend(check_algebra_morphism(AlgebraMorphism(b, target, phi, name="phi")),
               prefix="phi")
    # z . phi(b) = phi(sigma(b)) . z + phi(delta(b))
    for i in range(b.dim):
        e = {i: f.one()}
        lhs = target.mul_vec(z_vec, phi.apply(e))
        rhs = f.axpy(target.mul_vec(phi.apply(d.sigma.matrix.apply(e)), z_vec),
                     phi.apply(d.delta.apply(e)), f.one())
        if lhs != rhs:
            rep.add(Witness("ore-relation", (b.labels[i],),
                            target.fmt_vec(lhs), target.fmt_vec(rhs)))
    if not rep.ok:
        return rep

    dim = b.dim
    zpow = [target.unit_vector()]
    for _ in range(bound):
        zpow.append(target.mul_vec(zpow[-1], z_vec))
    # phiz[n][c] = phi(e_c) z^n; the extension is linear, so it maps a flat
    # polynomial p to the sum of p[n * dim + c] phiz[n][c]
    phiz = [[target.mul_vec(phi.col(c), zn) for c in range(dim)] for zn in zpow]

    def extend(flat: dict, shift: int = 0) -> dict:
        out: dict = {}
        for p, v in flat.items():
            f.axpy(out, phiz[p // dim + shift][p % dim], v)
        return out

    one_img = extend(b.unit)
    if one_img != target.unit:
        rep.add(Witness("ext-unit", ("1",), target.fmt_vec(one_img),
                        target.fmt_vec(dict(target.unit))))
    tw = _flat_twists(OreTwistTable(d, bound))
    for n in range(bound + 1):
        # (e_i X^n)(e_j X^m) is e_i . tw[n][j] raised by m
        prods = [[_lin(f, dim, row, t) for t in tw[n]] for row in b.mult]
        for m in range(bound + 1 - n):
            for i in range(dim):
                for j in range(dim):
                    lhs = extend(prods[i][j], m)
                    rhs = target.mul_vec(phiz[n][i], phiz[m][j])
                    if lhs != rhs:
                        rep.add(Witness("ext-mult",
                                        (b.labels[i], n, b.labels[j], m),
                                        target.fmt_vec(lhs),
                                        target.fmt_vec(rhs)))
    return rep
