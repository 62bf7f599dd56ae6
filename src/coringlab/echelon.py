"""Echelon forms and the solvers built on them, over Q and GF(p).

Reduced row echelon forms are unique for a given row space, so pivot
columns, kernels and quotient bases are reproducible no matter in which
order relations are fed in.  `Echelon` takes its rows when built, and
`Echelon.kernel` reads the canonical kernel basis off its pivot rows in
one pass; every solver here (`rref`, `rank`, `kernel_basis`, `solve`),
the general path of `bimodule.tensor_over`, `TensorQuotient.echelon` and
`coring.hom_basis` use both.  This is the one place where the solver
would be swapped.

Pivoting convention: columns are eliminated left to right; within a column
the first remaining row with a nonzero entry is used.  This matches the
textbook RREF and keeps every derived basis deterministic.

The module is apart from `exactla` so that a process which builds no
echelon form, as no command of the CLI's README does, never compiles it:
each user imports it where it builds one, and `exactla` and the package
resolve these five names on first use (PEP 562).
"""

from __future__ import annotations

from .exactla import Matrix
from .reports import InputError


class Echelon:
    """Incrementally maintained reduced row echelon basis of a row space.

    `pivot_rows[c]` is the unique basis row with leading 1 in column c; its
    other nonzero entries sit only on non-pivot columns.  `touch[c]` indexes
    which pivot rows have a nonzero entry in column c (for back substitution).
    The rows it is built with are added in order, skipping empty ones.
    """

    def __init__(self, field, ncols: int, rows=()):
        self.field = field
        self.ncols = ncols
        self.pivot_rows: dict = {}
        self.touch: dict = {}
        for row in rows:
            if row:
                self.add(row)

    @classmethod
    def from_reduced(cls, field, ncols: int, pivot_rows: dict) -> "Echelon":
        """The echelon whose rows are already reduced: pivot_rows[p] is the
        row of pivot p without its leading 1, on non-pivot columns only.
        Nothing is added or reduced; the rows are only indexed."""
        ech = cls(field, ncols)
        ech.pivot_rows = pivot_rows
        for p, row in pivot_rows.items():
            ech._track(p, row)
        return ech

    def reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the current row space (vec is not mutated).

        Stored pivot rows carry no pivot-column entries (the leading 1 is
        implicit and back substitution removed the rest), so one pass over
        the pivot columns present in vec is complete.
        """
        f = self.field
        v = dict(vec)
        for p in list(v.keys() & self.pivot_rows.keys()):
            coeff = v.pop(p)
            f.axpy(v, self.pivot_rows[p], f.neg(coeff))
        return v

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True if the rank grew."""
        f = self.field
        v = self.reduce(vec)
        if not v:
            return False
        lead = min(v)
        v = f.scaled(v, f.inv(v[lead]))
        del v[lead]
        # back-substitute the new pivot into existing rows
        for q in list(self.touch.get(lead, ())):
            row = self.pivot_rows[q]
            coeff = row.pop(lead)
            self._untrack(q, (lead,))
            before = set(row)
            f.axpy(row, v, f.neg(coeff))
            self._track(q, set(row) - before)
            for c in before - set(row):
                self._untrack(q, (c,))
        self.pivot_rows[lead] = v
        self._track(lead, v.keys())
        return True

    def _track(self, pivot, cols):
        for c in cols:
            self.touch.setdefault(c, set()).add(pivot)

    def _untrack(self, pivot, cols):
        for c in cols:
            s = self.touch.get(c)
            if s:
                s.discard(pivot)
                if not s:
                    del self.touch[c]

    def pivots(self):
        return tuple(sorted(self.pivot_rows))

    def free_columns(self):
        piv = self.pivot_rows
        if not piv:
            return tuple(range(self.ncols))
        return tuple(c for c in range(self.ncols) if c not in piv)

    def full_row(self, pivot) -> dict:
        row = dict(self.pivot_rows[pivot])
        row[pivot] = self.field.one()
        return row

    def kernel(self) -> Matrix:
        """The canonical null space basis, ncols x (number of free
        columns): column t has 1 at the t-th free column c and -r[c] at
        each pivot whose row r holds c.  One pass over the pivot rows, so
        O(ncols + nnz): row p is the negated row of pivot p, re-indexed by
        free position; a free column's row is its 1, and a pivot with an
        empty row has no row."""
        f, rows = self.field, self.pivot_rows
        free = self.free_columns()
        pos = {c: t for t, c in enumerate(free)}
        return Matrix(f, self.ncols, len(free), {
            p: {pos[c]: f.neg(v) for c, v in rows[p].items()}
            if p in rows else {pos[p]: f.one()}
            for p in range(self.ncols) if rows.get(p, True)})


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (reduced Matrix, pivot columns)."""
    ech = Echelon(m.field, m.cols, map(m.data.get, range(m.rows)))
    pivots = ech.pivots()
    data = {i: ech.full_row(p) for i, p in enumerate(pivots)}
    return Matrix(m.field, m.rows, m.cols, data), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form the canonical null space basis, one per free column,
    in increasing free-column order (`Echelon.kernel`)."""
    return Echelon(m.field, m.cols, map(m.data.get, range(m.rows))).kernel()


def solve(m: Matrix, rhs: Matrix):
    """Particular solution of m @ x = rhs with free variables set to 0.

    Returns None when any rhs column is outside the column space.
    """
    if rhs.rows != m.rows:
        raise InputError("rhs row count does not match")
    n = m.cols
    ech = Echelon(m.field, n + rhs.cols, (
        {**m.data.get(i, {}), **{n + j: v for j, v in rhs.data.get(i, {}).items()}}
        for i in range(m.rows)))
    if any(p >= n for p in ech.pivot_rows):
        return None
    data = {}
    for p, row in ech.pivot_rows.items():
        for j, v in row.items():
            if j >= n:
                data.setdefault(p, {})[j - n] = v
    return Matrix(m.field, n, rhs.cols, data)
