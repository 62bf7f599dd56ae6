"""Exact linear algebra over Q and GF(p).

Scalars over Q are exact rationals in canonical form: a Python `int` when
the value is integral and a `fractions.Fraction` otherwise (arbitrary
precision, so row reduction never overflows, and integer arithmetic skips
the gcd work of `Fraction`).  Over GF(p) they are canonical ints in [0, p).
`parse` and `fmt` are exact for integers of any length: past the
interpreter's digit limit they convert decimal text in pieces.
No scalar is ever a float or a bool.  Each field has two vector kernels:
`axpy` adds a scaled vector into another in place, and `scaled` returns a
scaled copy with no lookups and no zero tests (a nonzero times a nonzero
is nonzero).  The row kernel starts each output row as a scaled copy of
its first contribution and adds the rest with `axpy`, `tapply` (= `apply`)
is one `axpy` per vector entry, and `Matrix.scale` is `scaled`.  The QQ
kernels do no Fraction arithmetic whose result is known: `axpy` stores the
product alone in an entry new to its target, `axpy` and `scaled` copy or
negate for a coefficient of +-1, and `inv(+-1)` is its argument.

Matrices are sparse: a map row -> {col -> nonzero scalar}.  A matrix built
by `Matrix.identity` carries an identity mark, so products and Kronecker
products with it copy instead of multiplying, and its entries are built
only when something reads `data`; matrices are immutable and may be
shared.  Two more kinds keep a matrix by its columns and build its rows
only when `data` is read: `Transposed` holds the column dicts, and
`Monomial`, a matrix with at most one entry per column, holds two flat
lists (target row and weight per column) and builds even its column dicts
only on first read.  `Transposed.after`, a matrix in column form times
I (x) act (x) I, is one `padded_matmul` of its column dicts, and
`columns`, a choice of columns of any matrix, reads its column dicts
(the cached `transpose`) with no product by a 0/1 matrix.  Monomials
compose with the padded form of one, select columns, test that they
factor through a monomial projection and compare (`==`) in one pass over
the lists, with no dict.  Two matrix kernels form every product,
I (x) F (x) I times M (`padded_matmul`): pipe stages, `F @ M` (pre = post
= 1) and `kron` of unmarked A, B as (A (x) I)(I (x) B).  While M is a
`Monomial` and F is monomial, the list kernel (`Monomial._padded_lists`)
gives a `Monomial` in one pass over the lists: each column of M moves to
its new row and its weight is multiplied by F's, with no multiply where
either weight is one.  Otherwise the row kernel (`Matrix._padded_rows`)
scatters the rows of M through the column dicts of F, which a `Monomial`
F builds once from its lists.  A marked identity M (the start of a pipe
over a flat source) gives the Kronecker product, and `kron` of a marked
identity and a `Monomial` copies blocks of the lists, so a monomial F
gives a `Monomial` there too.
`Matrix.monomial` converts any matrix that qualifies, once: the form, or
False for none, is kept on the matrix (the `_mono` slot every kind sets
when built), so a structure map that many pipes apply is tested once.
`Matrix.marked` finds an identity in each kind's own form.

The solvers, `Echelon`, `rref`, `rank`, `kernel_basis` and `solve`,
live in `coringlab.echelon`, which every process that imports this module
would otherwise compile; they stay importable from here, resolved on
first use (PEP 562).
"""

from __future__ import annotations

from fractions import Fraction

from .reports import InputError


# ---------------------------------------------------------------------------
# fields


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _canon(x):
    """x as a canonical QQ scalar: an integral Fraction becomes its int."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


# Decimal text and ints convert in pieces of at most 600 digits: the
# interpreter refuses `int()` of a string and `str()` of an int past its
# digit limit (4,300 by default, never below 640), and the limit is left as
# it is.  These run only where the plain conversion raised.

def _from_digits(s: str) -> int:
    """int(s) for a string of ASCII digits of any length."""
    if len(s) <= 600:
        return int(s)
    k = len(s) // 2
    return _from_digits(s[:-k]) * 10 ** k + _from_digits(s[-k:])


def _to_digits(n: int) -> str:
    """str(n) for an int n >= 0 of any length."""
    if n.bit_length() <= 1990:  # below 10**600
        return str(n)
    k = n.bit_length() * 3 // 20  # about half its digits, so hi > 0
    hi, lo = divmod(n, 10 ** k)
    return _to_digits(hi) + _to_digits(lo).zfill(k)


def _long_text(a) -> str:
    """str(a) for an int or a Fraction, its integers of any length."""
    if type(a) is Fraction:
        return f"{_long_text(a.numerator)}/{_to_digits(a.denominator)}"
    return "-" + _to_digits(-a) if a < 0 else _to_digits(a)


def _long_ratio(text: str):
    """(numerator, denominator) of a scalar string of the session grammar,
    `[+-]?[0-9]+(/[0-9]+)?`, its integers of any length; a ValueError for
    any other text."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    for part in (digits, den) if slash else (digits,):
        if not (part.isascii() and part.isdigit()):
            raise ValueError(text)
    n = _from_digits(digits)
    return -n if num[:1] == "-" else n, _from_digits(den) if slash else 1


class RationalField:
    """The field Q with canonical scalars: int when integral, else Fraction.

    `inv` and `div` divide through `Fraction`, so no operation ever yields
    a float; `str` of an integral value is the same for both types.  A
    canonical +-1 is an int, so `axpy` and `inv` recognize it by its type.
    """

    name = "QQ"
    char = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return _canon(Fraction(n))

    def add(self, a, b):
        return _canon(a + b)

    def sub(self, a, b):
        return _canon(a - b)

    def mul(self, a, b):
        return _canon(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if type(a) is int and (a == 1 or a == -1):
            return a
        return _canon(Fraction(1, a))

    def div(self, a, b):
        return _canon(Fraction(a, b))

    def is_zero(self, a):
        return a == 0

    def axpy(self, target: dict, src: dict, coeff):
        """target += coeff * src in place, in plain int/Fraction arithmetic:
        a sum that cancels is removed and a Fraction that is integral is
        stored as its int.  An entry new to target stores the product alone,
        and a coefficient of 1 or -1 (always an int) copies or negates src's
        entry instead of multiplying."""
        if not coeff:
            return target
        unit = type(coeff) is int and (coeff == 1 or coeff == -1)
        get = target.get
        for j, v in src.items():
            w = (v if coeff == 1 else -v) if unit else coeff * v
            t = get(j)
            if t is not None:
                w += t
            if not w:
                target.pop(j, None)
            elif type(w) is Fraction and w.denominator == 1:
                target[j] = w.numerator
            else:
                target[j] = w
        return target

    def scaled(self, src: dict, coeff) -> dict:
        """coeff * src as a new dict: a copy or its negation for a
        coefficient of 1 or -1, else each product with an integral Fraction
        stored as its int; {} for a zero coefficient."""
        if not coeff:
            return {}
        if type(coeff) is int and (coeff == 1 or coeff == -1):
            return dict(src) if coeff == 1 else {j: -v for j, v in src.items()}
        out = {}
        for j, v in src.items():
            w = coeff * v
            out[j] = w.numerator if type(w) is Fraction and w.denominator == 1 else w
        return out

    def parse(self, text):
        if isinstance(text, (int, Fraction)):
            return _canon(Fraction(text))
        try:
            try:
                return _canon(Fraction(str(text)))
            except ValueError:
                return _canon(Fraction(*_long_ratio(str(text))))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad scalar {text!r} for QQ") from None

    def fmt(self, a) -> str:
        try:
            return str(a)
        except ValueError:
            return _long_text(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """GF(p) with int scalars reduced to [0, p)."""

    char: int

    def __init__(self, p: int):
        if not isinstance(p, int) or p >= 2**31 or not _is_prime(p):
            raise InputError(f"modulus {p!r} is not a prime below 2^31")
        self.p = p
        self.char = p
        self.name = f"GF({p})"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def axpy(self, target: dict, src: dict, coeff):
        """target += coeff * src in place, with one reduction mod p per
        entry; a sum that cancels is removed."""
        p = self.p
        if not coeff % p:
            return target
        get = target.get
        for j, v in src.items():
            w = (get(j, 0) + coeff * v) % p
            if w:
                target[j] = w
            else:
                target.pop(j, None)
        return target

    def scaled(self, src: dict, coeff) -> dict:
        """coeff * src as a new dict, each entry reduced mod p; {} for a
        coefficient that is 0 mod p."""
        p = self.p
        if not coeff % p:
            return {}
        return {j: coeff * v % p for j, v in src.items()}

    def parse(self, text):
        if isinstance(text, int):
            return text % self.p
        try:
            if isinstance(text, Fraction):
                return self.div(text.numerator % self.p, text.denominator % self.p)
            num, slash, den = str(text).partition("/")
            try:
                if not slash:
                    return int(num) % self.p
                return self.div(int(num) % self.p, int(den) % self.p)
            except ValueError:
                num, den = _long_ratio(str(text))
                return self.div(num % self.p, den % self.p)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad scalar {text!r} for {self.name}") from None

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

_GF_CACHE: dict = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def field_from_name(name: str):
    if not isinstance(name, str):
        raise InputError(
            f"field must be a string such as 'QQ' or 'GF(p)', got {name!r}")
    name = name.strip()
    if name in ("QQ", "Q"):
        return QQ
    if name.startswith("GF(") and name.endswith(")"):
        try:
            p = int(name[3:-1])
        except ValueError:
            raise InputError(f"bad modulus in field {name!r}") from None
        return GF(p)
    raise InputError(f"unknown field {name!r}; use 'QQ' or 'GF(p)'")


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Sparse matrix over a fixed field.

    Instances are immutable and may be shared: `@` and `kron` return an
    operand itself when the other one is a marked identity, and `transpose`
    is computed once and cached, so no code may mutate `data` in place.
    `is_identity` is true only for the matrices `identity` builds.
    """

    __slots__ = ("field", "rows", "cols", "data", "_t", "_mono")
    is_identity = False

    def __init__(self, field, rows: int, cols: int, data: dict | None = None):
        if rows < 0 or cols < 0:
            raise InputError("negative matrix dimensions")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data if data is not None else {}
        self._t = self._mono = None

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field, n):
        """The marked n x n identity.  Its entries are built only when `data`
        is first read, so `@` and `kron` with it cost O(1) per operand."""
        return _Identity(field, n)

    @classmethod
    def from_rows(cls, field, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        data = {}
        for i, row in enumerate(rows_list):
            if len(row) != cols:
                raise InputError("ragged matrix rows")
            r = {}
            for j, v in enumerate(row):
                v = field.parse(v)
                if not field.is_zero(v):
                    r[j] = v
            if r:
                data[i] = r
        return cls(field, rows, cols, data)

    @classmethod
    def from_entries(cls, field, rows, cols, entries: dict):
        data = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise InputError("entry outside matrix shape")
            if not field.is_zero(v):
                data.setdefault(i, {})[j] = v
        return cls(field, rows, cols, data)

    # -- access ------------------------------------------------------------

    def entry(self, i, j):
        return self.data.get(i, {}).get(j, self.field.zero())

    def col(self, j) -> dict:
        out = {}
        for i, row in self.data.items():
            if j in row:
                out[i] = row[j]
        return out

    def to_rows(self):
        z = self.field.zero()
        return [
            [self.data.get(i, {}).get(j, z) for j in range(self.cols)]
            for i in range(self.rows)
        ]

    def nnz(self):
        return sum(len(r) for r in self.data.values())

    def is_zero(self):
        return not self.data

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    __hash__ = None

    def __add__(self, other):
        self._expect_shape(other, same=True)
        f = self.field
        data = {i: dict(r) for i, r in self.data.items()}
        for i, r in other.data.items():
            tgt = data.setdefault(i, {})
            f.axpy(tgt, r, f.one())
            if not tgt:
                del data[i]
        return Matrix(f, self.rows, self.cols, data)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one()))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one()))

    def scale(self, coeff):
        f = self.field
        if f.is_zero(coeff):
            return Matrix(f, self.rows, self.cols)
        scaled = f.scaled
        data = {i: scaled(r, coeff) for i, r in self.data.items()}
        return Matrix(f, self.rows, self.cols, data)

    def __matmul__(self, other):
        """The other operand when one is a marked identity, else the stage
        `self.padded_matmul(1, 1, other)`: the list or the row kernel."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise InputError(
                f"matmul shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        return self.padded_matmul(1, 1, other)

    def transpose(self):
        """The transpose, computed on the first call and cached; row c of it
        is column c of self."""
        if self._t is None:
            data = {}
            for i, row in self.data.items():
                for j, v in row.items():
                    data.setdefault(j, {})[i] = v
            self._t = Matrix(self.field, self.cols, self.rows, data)
        return self._t

    def columns(self, cols):
        """The matrix whose column t is column cols[t] of self, in column
        form (`Transposed`); it shares the column dicts of self, and is
        self @ S for the 0/1 matrix S that picks those columns, with no
        product taken."""
        data = self.transpose().data
        return Transposed(Matrix(self.field, len(cols), self.rows,
                                 {t: data[c] for t, c in enumerate(cols) if c in data}))

    def monomial(self) -> "Monomial | None":
        """self as a `Monomial`, or None when a column has two entries;
        found on the first call and kept on self (False for none)."""
        if self._mono is None:
            tgt, wt = [-1] * self.cols, [self.field.zero()] * self.cols
            self._mono = False
            if self._t is None:  # by rows: a column met twice has two entries
                for r, row in self.data.items():
                    for c, v in row.items():
                        if tgt[c] >= 0:
                            return None
                        tgt[c], wt[c] = r, v
            else:
                for c, col in self._t.data.items():
                    if len(col) > 1:
                        return None
                    (tgt[c], wt[c]), = col.items()
            self._mono = Monomial(self.field, self.rows, tgt, wt)
        return self._mono or None

    def marked(self) -> "Matrix":
        """The marked identity when self is a square identity matrix, else
        self.  A matrix kept by its columns (`Transposed`) is tested on
        them, so its rows are not built: an identity is its own
        transpose."""
        if self.is_identity or self.rows != self.cols:
            return self
        lines = (self.transpose() if isinstance(self, Transposed) else self).data
        one = self.field.one()
        if len(lines) != self.rows or any(len(line) != 1 or line.get(i) != one
                                          for i, line in lines.items()):
            return self
        return Matrix.identity(self.field, self.rows)

    def tapply(self, vec: dict) -> dict:
        """Matrix times sparse vector (also `apply`): one `axpy` of column j
        (cached transpose) per entry j of vec, none for j past the columns."""
        cols = self.transpose().data
        axpy = self.field.axpy
        out: dict = {}
        for j, v in vec.items():
            col = cols.get(j)
            if col:
                axpy(out, col, v)
        return out

    apply = tapply

    def padded_matmul(self, pre: int, post: int, m: "Matrix") -> "Matrix":
        """(I_pre (x) self (x) I_post) @ m without building the Kronecker
        product.  A marked identity self leaves m as it is, and a marked
        identity m makes the Kronecker product the result, so it is built:
        a `Monomial` when self is monomial (`monomial`, kept on self).
        When m is a `Monomial` and self is monomial, the product is a
        `Monomial` made in one pass over the lists (`Monomial._padded_lists`,
        the list kernel); any other m is scattered row by row (`_padded_rows`,
        the row kernel), a `Monomial` self included.  `@` and `kron` of
        unmarked matrices are such stages."""
        fr, fc, f = self.rows, self.cols, self.field
        if m.rows != pre * fc * post:
            raise InputError(
                f"padded matmul shape mismatch I{pre} x {fr}x{fc} x I{post} "
                f"@ {m.rows}x{m.cols}")
        if self.is_identity:
            return m
        if m.is_identity:
            out = self.monomial() or self
            if pre != 1:
                out = Matrix.identity(f, pre).kron(out)
            if post != 1:
                out = out.kron(Matrix.identity(f, post))
            return out
        if isinstance(m, Monomial):
            k = self.monomial()
            if k is not None:
                return k._padded_lists(pre, post, m)
        return self._padded_rows(pre, post, m)

    def _padded_rows(self, pre, post, m):
        """The row kernel of `padded_matmul`: row k = (a*fc + c)*post + b
        of m is scattered into each row (a*fr + r)*post + b, scaled by
        self[r, c] (read from the cached transpose, which a `Monomial` builds
        from its lists once), for fr x fc the shape of self; rows that
        cancel are dropped.  The sums are those of the product with the
        Kronecker product, so every entry is the same."""
        fr, fc, f = self.rows, self.cols, self.field
        cols = self.transpose().data
        axpy, scaled = f.axpy, f.scaled
        block = fc * post
        data: dict = {}
        for k, row in m.data.items():
            a, rest = divmod(k, block)
            c, b = divmod(rest, post)
            col = cols.get(c)
            if col:
                base = a * fr * post + b
                for r, v in col.items():
                    i = base + r * post
                    acc = data.get(i)
                    if acc is None:
                        data[i] = scaled(row, v)
                    else:
                        axpy(acc, row, v)
        return Matrix(f, pre * fr * post, m.cols,
                      {i: acc for i, acc in data.items() if acc})

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major index convention.  A marked identity
        factor makes the product a block copy of the other factor, and of
        its two lists when that is a `Monomial`, so the product is one too.
        Unmarked A (x) B is (A (x) I)(I (x) B), a stage on that block copy."""
        f = self.field
        oc, orr = other.cols, other.rows
        if self.is_identity and other.is_identity:
            return Matrix.identity(f, self.rows * orr)
        if self.is_identity and isinstance(other, Monomial):
            return Monomial(f, self.rows * orr, [i * orr + t if t >= 0 else -1
                                                 for i in range(self.rows) for t in other.tgt],
                            other.wt * self.rows)
        if other.is_identity and isinstance(self, Monomial):
            return Monomial(f, self.rows * orr, [t * orr + i if t >= 0 else -1
                                                 for t in self.tgt for i in range(orr)],
                            [w for w in self.wt for _ in range(orr)])
        if self.is_identity:
            data = {
                i1 * orr + i2: {i1 * oc + j2: v for j2, v in r2.items()}
                for i1 in range(self.rows) for i2, r2 in other.data.items()
            }
            return Matrix(f, self.rows * orr, self.cols * oc, data)
        if other.is_identity:
            data = {
                i1 * orr + i2: {j1 * oc + i2: v for j1, v in r1.items()}
                for i1, r1 in self.data.items() for i2 in range(orr)
            }
            return Matrix(f, self.rows * orr, self.cols * oc, data)
        return self.padded_matmul(1, orr, Matrix.identity(f, self.cols).kron(other))

    def _expect_shape(self, other, same=False):
        if same and (self.rows != other.rows or self.cols != other.cols):
            raise InputError("matrix shape mismatch")

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}, nnz={self.nnz()})"


class _Identity(Matrix):
    """A marked identity.  `data` is built on its first read, so matrices
    that are only multiplied or Kronecker-multiplied never hold entries."""

    __slots__ = ("_entries",)
    is_identity = True

    def __init__(self, field, n):
        # the base slot `data` stays unset: this class reads `_entries`
        if n < 0:
            raise InputError("negative matrix dimensions")
        self.field = field
        self.rows = self.cols = n
        self._t = self._mono = self._entries = None

    @property
    def data(self):
        if self._entries is None:
            one = self.field.one()
            self._entries = {i: {i: one} for i in range(self.rows)}
        return self._entries

    def transpose(self):
        return self

    def monomial(self):
        return Monomial(self.field, self.rows, list(range(self.rows)),
                        [self.field.one()] * self.rows)


class Transposed(Matrix):
    """The transpose of t, a matrix given by its columns (the rows of t):
    t is its cached transpose, and its own rows are built on the first read
    of `data`, so a reader of columns alone never builds them."""

    __slots__ = ("_rows",)

    def __init__(self, t):
        # the base slot `data` stays unset: this class reads `_rows`
        self.field, self.rows, self.cols = t.field, t.cols, t.rows
        self._t = t
        self._rows = self._mono = None

    @property
    def data(self):
        if self._rows is None:
            self._rows = self._t.transpose().data
        return self._rows

    def after(self, pre, act, post):
        """self @ (I_pre (x) act (x) I_post) in column form: its transpose
        is (I_pre (x) act^T (x) I_post) @ self^T, one `padded_matmul` that
        scatters each column of self through the columns of act, with no
        Kronecker product and no row of self built."""
        return Transposed(act.transpose().padded_matmul(pre, post, self.transpose()))


class Monomial(Transposed):
    """A rows x cols matrix with at most one entry per column, kept as two
    flat lists: column c is {tgt[c]: wt[c]}, and it is zero where
    tgt[c] is -1 (wt[c] is then not read).  The column dicts (`transpose`)
    and the rows (`data`) are built on first read and equal those of a
    plain `Matrix` with the same entries, so every other operation reads
    a monomial like any matrix.  Composition with the padded form of one
    (`after`), a choice of columns (`columns`), the test that it factors
    through a monomial projection (`factors_through`) and equality with
    another monomial (`==`) are one pass over the lists, and so is its
    Kronecker product with a marked identity (`kron`).  A pipe stage
    through its padded form on a monomial accumulated matrix, and a
    product `F @ M` of a monomial F (plain or not) by a `Monomial` M, are
    the list kernel (`_padded_lists`), which keeps the result a
    `Monomial`; a stage on any other matrix is the row kernel
    (`Matrix._padded_rows`), which reads the column dicts.
    `Matrix.monomial` keeps the monomial form of a plain matrix on it, so
    a stage map is converted once."""

    __slots__ = ("tgt", "wt")

    def __init__(self, field, rows, tgt, wt):
        # the base slot `data` stays unset, as in `Transposed`
        self.field, self.rows, self.cols = field, rows, len(tgt)
        self.tgt, self.wt = tgt, wt
        self._t = self._rows = self._mono = None

    def transpose(self):
        if self._t is None:
            self._t = Matrix(self.field, self.cols, self.rows,
                             {c: {t: w} for c, (t, w) in enumerate(zip(self.tgt, self.wt))
                              if t >= 0})
        return self._t

    @property
    def data(self):
        if self._rows is None:
            rows = {}
            for c, (t, w) in enumerate(zip(self.tgt, self.wt)):
                if t >= 0:
                    rows.setdefault(t, {})[c] = w
            self._rows = rows
        return self._rows

    def monomial(self):
        return self

    def __eq__(self, other):
        """Against another `Monomial`, the shapes, the targets and the live
        weights (dead ones are not read), and against a marked identity the
        test of `marked`, with no dict built; against any other matrix, the
        entries."""
        if isinstance(other, _Identity):
            return self.rows == other.rows and self.marked() is not self
        if not isinstance(other, Monomial):
            return super().__eq__(other)
        return (self.rows == other.rows and self.tgt == other.tgt
                and (self.wt == other.wt
                     or all(w == u for t, w, u in zip(self.tgt, self.wt, other.wt)
                            if t >= 0)))

    __hash__ = None

    def marked(self):
        one = self.field.one()
        if (self.rows == self.cols and self.tgt == list(range(self.rows))
                and all(w == one for w in self.wt)):
            return Matrix.identity(self.field, self.rows)
        return self

    def columns(self, cols):
        tgt, wt = self.tgt, self.wt
        return Monomial(self.field, self.rows, [tgt[c] for c in cols],
                        [wt[c] for c in cols])

    def _padded_lists(self, pre, post, m):
        """The list kernel of `padded_matmul`, for a `Monomial` m, and of
        `self @ m` (pre = post = 1): the column of m at row
        k = (a*fc + c)*post + b moves to row (a, tgt[c], b), which is
        k + (a*(fr - fc) + tgt[c] - c)*post with a*fc + c = k // post, and
        its weight is multiplied by wt[c]; it is zero where its column of m
        or column c of self is.  The result is a `Monomial`, and no dict is
        built.  A weight that is the field's one is not multiplied: the
        test is `is`, since a scalar equal to one is that one int in either
        field, and a miss only multiplies by one."""
        f, fr, fc, tgt, wt = self.field, self.rows, self.cols, self.tgt, self.wt
        one, mul, d = f.one(), f.mul, fr - fc
        out_t, out_w = [], []
        for k, w in zip(m.tgt, m.wt):
            if k >= 0:
                q = k // post
                c = q % fc
                r = tgt[c]
                if r >= 0:
                    out_t.append(k + ((q // fc) * d + r - c) * post)
                    v = wt[c]
                    out_w.append(w if v is one else v if w is one else mul(w, v))
                    continue
            out_t.append(-1)
            out_w.append(one)
        return Monomial(f, pre * fr * post, out_t, out_w)

    def after(self, pre, act, post):
        """self @ (I_pre (x) act (x) I_post), a `Monomial` when act is
        monomial: column (a, c, b) is column (a, r, b) of self times v, for
        act's column c = {r: v}.  With post > 1 that copies blocks of the
        lists, scaled only where v is not 1; with post = 1 column (a, c) is
        column a * act.rows + r of self, so both lists are read through one
        index list.  Any other act takes `Transposed.after`."""
        k = act.monomial()
        if k is None:
            return super().after(pre, act, post)
        act = k
        tgt, wt, mul, one = self.tgt, self.wt, self.field.mul, self.field.one()
        if self.cols != pre * act.rows * post:
            raise InputError("monomial product shape mismatch")
        if post == 1:
            d = act.rows
            idx = [a * d + r if r >= 0 else -1 for a in range(pre) for r in act.tgt]
            return Monomial(self.field, self.rows, [tgt[i] if i >= 0 else -1 for i in idx],
                            [one if i < 0 else wt[i] if v == one else mul(wt[i], v)
                             for i, v in zip(idx, act.wt * pre)])
        out_t, out_w = [], []
        for a in range(pre):
            for r, v in zip(act.tgt, act.wt):
                if r < 0:
                    out_t += [-1] * post
                    out_w += [one] * post
                    continue
                s = (a * act.rows + r) * post
                out_t += tgt[s:s + post]
                out_w += wt[s:s + post] if v == one else [mul(w, v) for w in wt[s:s + post]]
        return Monomial(self.field, self.rows, out_t, out_w)

    def factors_through(self, proj, free):
        """self == self.columns(free) @ proj, for a monomial proj whose
        column free[t] is e_t: column c of self is proj.wt[c] times column
        free[proj.tgt[c]] of self, or zero where column c of proj is.  One
        pass over the targets and one over the live weights; no dict is
        built."""
        tgt, wt, one, mul = self.tgt, self.wt, self.field.one(), self.field.mul
        top = [tgt[c] for c in free]
        if [top[t] if t >= 0 else -1 for t in proj.tgt] != tgt:
            return False
        top = [wt[c] for c in free]
        return all(u == top[t] if w == one else u == mul(w, top[t])
                   for s, t, w, u in zip(tgt, proj.tgt, proj.wt, wt) if s >= 0)



_SOLVING = ("Echelon", "rref", "rank", "kernel_basis", "solve")


def __getattr__(name):
    if name in _SOLVING:
        from . import echelon
        return getattr(echelon, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
