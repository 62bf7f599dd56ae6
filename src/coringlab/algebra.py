"""Finite-dimensional unital associative algebras by structure constants.

The table `mult[i][j]` holds the coefficient vector of e_i * e_j in the
chosen basis, as a sparse dict {k: scalar} that stores no zero (zero
entries given to the constructor are dropped).  Labels are display metadata
only; element identity is positional.
"""

from __future__ import annotations

from .exactla import Matrix
from .reports import InputError, Record, Report, Witness


def _nonzero(field, vec: dict) -> dict:
    return {k: v for k, v in vec.items() if not field.is_zero(v)}


class FinAlgebra:
    """Unital associative algebra given by structure constants."""

    def __init__(self, field, dim, mult, unit, labels=None, name="A"):
        if dim <= 0:
            raise InputError("algebra dimension must be positive")
        if len(mult) != dim or any(len(row) != dim for row in mult):
            raise InputError("structure constant table must be dim x dim")
        self.field = field
        self.dim = dim
        mult = [[dict(mult[i][j]) for j in range(dim)] for i in range(dim)]
        for i in range(dim):
            for j in range(dim):
                if any(not (0 <= k < dim) for k in mult[i][j]):
                    raise InputError(
                        f"product vector at ({i},{j}) uses an index outside "
                        f"the basis")
        unit = dict(unit)
        if any(not (0 <= k < dim) for k in unit):
            raise InputError("unit vector uses an index outside the basis")
        # zero entries are dropped, so equal algebras have equal tables
        self.mult = [[_nonzero(field, vec) for vec in row] for row in mult]
        self.unit = _nonzero(field, unit)
        self.labels = list(labels) if labels else [f"e{i}" for i in range(dim)]
        if len(self.labels) != dim:
            raise InputError("label count must equal dim")
        self.name = name
        self._left = None
        self._right = None

    # -- multiplication -----------------------------------------------------

    def mul_vec(self, u: dict, v: dict) -> dict:
        f = self.field
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                f.axpy(out, self.mult[i][j], f.mul(a, b))
        return out

    def left_mult_matrix(self, i) -> Matrix:
        """Matrix of x -> e_i * x acting on column vectors."""
        if self._left is None:
            self._left = [self._mult_matrix(i, left=True) for i in range(self.dim)]
        return self._left[i]

    def right_mult_matrix(self, i) -> Matrix:
        """Matrix of x -> x * e_i."""
        if self._right is None:
            self._right = [self._mult_matrix(i, left=False) for i in range(self.dim)]
        return self._right[i]

    def _mult_matrix(self, i, left) -> Matrix:
        entries = {}
        for j in range(self.dim):
            prod = self.mult[i][j] if left else self.mult[j][i]
            for k, v in prod.items():
                entries[(k, j)] = v
        return Matrix.from_entries(self.field, self.dim, self.dim, entries)

    def unit_vector(self) -> dict:
        return dict(self.unit)

    def basis_label(self, i) -> str:
        return self.labels[i]

    def fmt_vec(self, v: dict) -> str:
        """v as `c*label + ...` in basis order, a coefficient 1 as the bare
        label and the zero vector as `0`.  `Bimodule` shares this method,
        so it reads the labels through `basis_label`."""
        f = self.field
        if not v:
            return "0"
        parts = []
        for i in sorted(v):
            c = f.fmt(v[i])
            lab = self.basis_label(i)
            parts.append(lab if c == "1" else f"{c}*{lab}")
        return " + ".join(parts)

    def __repr__(self):
        return f"FinAlgebra({self.name}, dim={self.dim}, {self.field!r})"


class AlgebraMorphism(Record):
    _fields = ("source", "target", "matrix", "name")

    def __init__(self, source: FinAlgebra, target: FinAlgebra, matrix: Matrix,
                 name: str = "f"):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise InputError(
                f"morphism matrix must be {target.dim}x{source.dim}")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.name = name

    def apply(self, v: dict) -> dict:
        return self.matrix.apply(v)

    def compose(self, other: "AlgebraMorphism") -> "AlgebraMorphism":
        if other.target is not self.source:
            raise InputError("morphisms not composable")
        return AlgebraMorphism(
            other.source, self.target, self.matrix @ other.matrix,
            name=f"{self.name}*{other.name}",
        )


# ---------------------------------------------------------------------------
# checks


def check_algebra(a: FinAlgebra) -> Report:
    """Associativity on all basis triples and two-sided unit laws."""
    rep = Report(f"algebra {a.name}")
    f = a.field
    for i in range(a.dim):
        for j in range(a.dim):
            ij = a.mult[i][j]
            for k in range(a.dim):
                lhs = a.mul_vec(ij, {k: f.one()})
                rhs = a.mul_vec({i: f.one()}, a.mult[j][k])
                if lhs != rhs:
                    rep.add(Witness(
                        "assoc", (a.labels[i], a.labels[j], a.labels[k]),
                        a.fmt_vec(lhs), a.fmt_vec(rhs),
                    ))
    # unit laws
    one = a.unit
    for i in range(a.dim):
        e = {i: f.one()}
        lhs = a.mul_vec(one, e)
        if lhs != e:
            rep.add(Witness("unit-left", (a.labels[i],), a.fmt_vec(lhs), a.fmt_vec(e)))
        rhs = a.mul_vec(e, one)
        if rhs != e:
            rep.add(Witness("unit-right", (a.labels[i],), a.fmt_vec(rhs), a.fmt_vec(e)))
    return rep


def check_algebra_morphism(m: AlgebraMorphism) -> Report:
    """f(1) = 1 and f(e_i e_j) = f(e_i) f(e_j) on all basis pairs."""
    rep = Report(f"algebra morphism {m.name}")
    s, t = m.source, m.target
    img_one = m.apply(s.unit)
    if img_one != t.unit:
        rep.add(Witness("unit", ("1",), t.fmt_vec(img_one), t.fmt_vec(t.unit)))
    f = s.field
    for i in range(s.dim):
        fi = m.apply({i: f.one()})
        for j in range(s.dim):
            lhs = m.apply(s.mult[i][j])
            rhs = t.mul_vec(fi, m.apply({j: f.one()}))
            if lhs != rhs:
                rep.add(Witness(
                    "mult", (s.labels[i], s.labels[j]),
                    t.fmt_vec(lhs), t.fmt_vec(rhs),
                ))
    return rep


# ---------------------------------------------------------------------------
# stock constructors


def field_algebra(field, name=None) -> FinAlgebra:
    """The ground field as a one-dimensional algebra."""
    one = field.one()
    return FinAlgebra(
        field, 1, [[{0: one}]], {0: one}, labels=["1"],
        name=name or field.name if hasattr(field, "name") else "k",
    )


def group_algebra_cyclic(field, n, name=None) -> FinAlgebra:
    """Group algebra of Z/n with basis 1, g, ..., g^(n-1)."""
    one = field.one()
    mult = [[{(i + j) % n: one} for j in range(n)] for i in range(n)]
    labels = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    return FinAlgebra(field, n, mult, {0: one}, labels, name or f"k[Z/{n}]")


def truncated_poly_algebra(field, n, gen="x", name=None) -> FinAlgebra:
    """k[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    one = field.one()
    mult = [
        [({i + j: one} if i + j < n else {}) for j in range(n)]
        for i in range(n)
    ]
    labels = ["1"] + [f"{gen}^{i}" if i > 1 else gen for i in range(1, n)]
    return FinAlgebra(field, n, mult, {0: one}, labels, name or f"k[{gen}]/({gen}^{n})")


def matrix_algebra(field, n, name=None) -> FinAlgebra:
    """Full matrix algebra M_n(k), basis E(r,c) in row-major order."""
    one = field.one()
    dim = n * n
    mult = [[{} for _ in range(dim)] for _ in range(dim)]
    for r in range(n):
        for c in range(n):
            for r2 in range(n):
                for c2 in range(n):
                    if c == r2:
                        mult[r * n + c][r2 * n + c2] = {r * n + c2: one}
    unit = {i * n + i: one for i in range(n)}
    labels = [f"E{r}{c}" for r in range(n) for c in range(n)]
    return FinAlgebra(field, dim, mult, unit, labels, name or f"M{n}(k)")


def opposite_algebra(a: FinAlgebra) -> FinAlgebra:
    mult = [[a.mult[j][i] for j in range(a.dim)] for i in range(a.dim)]
    return FinAlgebra(a.field, a.dim, mult, a.unit, a.labels, f"{a.name}^op")


def multiplication_matrix(a: FinAlgebra) -> Matrix:
    """Flat matrix of the multiplication A (x) A -> A."""
    entries = {}
    for i in range(a.dim):
        for j in range(a.dim):
            for t, v in a.mult[i][j].items():
                entries[(t, i * a.dim + j)] = v
    return Matrix.from_entries(a.field, a.dim, a.dim * a.dim, entries)


def unit_column(a: FinAlgebra) -> Matrix:
    return Matrix.from_entries(a.field, a.dim, 1,
                               {(k, 0): v for k, v in a.unit.items()})


def identity_morphism(a: FinAlgebra) -> AlgebraMorphism:
    return AlgebraMorphism(a, a, Matrix.identity(a.field, a.dim), name="id")


def unit_inclusion(field_alg: FinAlgebra, a: FinAlgebra) -> AlgebraMorphism:
    """k -> A sending 1 to the unit of A."""
    return AlgebraMorphism(field_alg, a, unit_column(a), name="unit")
