"""Bimodules, tensor products over an algebra as explicit quotients, and a
pipeline for building the long composite maps the checkers need.

Conventions.  Action matrices act on column vectors; `left_action[k]` is the
matrix of x -> e_k . x for the k-th basis element of the left algebra, and
`right_action[k]` of x -> x . e_k.  Tensor indices are row major: the pure
tensor m_i (x) n_j has flat index i * dim(N) + j.

M (x)_A N is the quotient of the ground-field tensor space by the span of
the balancing relations  m.a (x) n - m (x) a.n.  The quotient basis is the
set of non-pivot flat coordinates under the canonical reduced row echelon
form of that span, so it is reproducible and `section` picks pure-tensor
representatives (project . section = id): it is an `exactla.Monomial`
whose column t is the t-th free flat column.  `project` is kept in column
form, one {basis index: coeff} per flat column, and everything else is
derived from it.  A bimodule stores every action equal to the identity as
the marked identity.  A basis element whose two actions are both marked
gives only zero relations and is skipped, so over the ground field the
quotient is flat at no cost, and a marked action is inherited as the
marked identity without a descent check.  When the other actions are
monomial (one entry per column), as in every lift of the corpus, each
relation ties two flat columns or kills one, and a weighted union-find
gives the echelon form without `Echelon`; `project` is then monomial
too, two flat lists (`exactla.Monomial`).  Every other action K
(act (x) I or I (x) act) descends when project . K vanishes on the
relation span, which is ker project: one test that project . K factors
through project (`TensorQuotient.kills`).  With a monomial project and a
monomial action, project . K is again monomial (block copies or a
permutation of project's lists), the inherited action is its free
columns and the test is one pass over the lists; otherwise project . K
is scattered column by column (`exactla.Transposed.after`) and tested
pivot by pivot.

Iterated tensors are built left associated.  A `Space` wraps a factor list
with the projection/section between its *factor-flat* space (the ground
field tensor product of the factors, each on its own quotient basis) and
the iterated quotient; its quotients are built with it, the two maps on
first read.  `Pipe` composes maps on factor-flat spaces, and a stage that
acts on some factors is never materialized as the Kronecker product
I (x) F (x) I: `Matrix.padded_matmul` forms the product.  While the
accumulated matrix and F are both monomial (grouplike comultiplications,
counits, flips, twists, every non-flat section and every union-find
projection), the accumulated matrix stays an `exactla.Monomial` and a
stage is one pass over flat lists (the list kernel).  From the first
stage that is not monomial on, its rows are scattered through the column
dicts of F (the row kernel), which a monomial F builds once from its two
lists.  This is the only level, and the only projection mechanism: a
pipe goes down by sections (`refine` splits a quotient factor into its
two factors) and up by projections (two neighbouring factors merge into
their quotient), one level at a time.  A plain
carrier with the flat order of its legs' quotient over the field (the
entwined coring's A (x) C) enters and leaves its legs by an identity map
(`entwine.relabel`), so the lifts along an entwining are pipes too.  `Pipe.apply`
merges the factors it consumes into their quotient, applies its map to
that one factor and refines the image into the factors it gives;
`Pipe.done` merges into the target's quotient; `Space.project` is those
merge stages on the identity.  A flat level's projection and section are
the marked identity, so it costs no stage and only renames the factors:
over flat levels an `apply` is one `padded_matmul`.  `regroup` (the
explicit associator between two bracketings of the same atomic
*leaves*), the mirror and a pipe that ends in another bracketing go down
to the leaves and up again one quotient at a time, so no map is built on
the product of all leaf dimensions.

A checker equation between two pipes that end on the same factors is
compared by `compare_pipes`; this is the one form of every law between
composites.  An identity law compares its pipe with the source pipe
itself, with no stage (project . section is the identity), and a twist
law with the source pipe continued by the twist; a pipe keeps its
finished map, so a shared one is finished once.
`compare_maps` is called directly only by `compare_pipes`,
`check_bimodule`, `bilinearity_report`, `coring.check_coring_morphism` and
`wreath.r_action_matrices_check`.  Whether lhs = rhs holds does not depend
on the basis of the target quotient, so when its outer level X (x)_A N is
not built yet, is not flat and has monomial unmarked pairs, the two pipes
are merged only as far as (X, N) and lhs - rhs is tested against the
relation span with the projection the level would have (`_union_find`,
whose kernel is that span); when it kills lhs - rhs the equation passes
and the level is never built.  It is built, and the two sides compared on
its canonical basis by `compare_maps`, for a witness (a column outside the
span), on a flat, built or `Echelon` level, and when building it could
raise: X and N must each be a tensor quotient or have commuting actions
(`_commutes`), so that every inherited action descends.

The mirror reads a bimodule in the opposite bicategory: `op` gives the
opposite algebra, `mirror` swaps a bimodule's two actions and reverses the
factors of a tensor quotient, and `rev` is the explicit isomorphism
x -> mirror(x); `mirror_map` conjugates a map by it.  Left-handed structures
are checked as the mirrors of right-handed ones.  Spaces of bimodule maps
are solved in `coring.hom_basis`, with those of comodule maps.

All values are immutable after construction and all operations are pure.
A pipe is a value too: each stage returns a new `Pipe` and leaves its
input as it was, so a checker builds a prefix that several of its
composites share once, binds it to a name and continues it on each branch.
The one thing set on a pipe later is the map `compare_pipes` finishes,
a pure function of the pipe, kept so that a shared pipe is finished once.
Derived structures (quotients, spaces, mirrors, regular bimodules, the
twist pipes of an `rcat` object) are memoized by `memo` on the object
they are built from, so an entry lives exactly as long as its owner and
nothing is kept at module level.  A tensor quotient has two memo
levels.  The first is keyed on the identity of its inputs and kept on M,
so a repeated call returns the same object, which `regroup` and `mirror`
rely on.  On a miss, a weak content table
kept on the base algebra gives the new quotient (its own object, with its
own factors and name) the numeric core of a live quotient whose inputs
have the same dims and action entries: `project`, `free_cols` and the
inherited actions, all immutable.  So equal content is built once, and
since the table holds its quotients weakly, no entry outlives them.  The
memo entries and the finished map a pipe keeps (`compare_pipes`) are the
only mutable state, so concurrent readers are safe once the structures
they share have been built.
"""

from __future__ import annotations

from functools import cached_property, partial
from math import prod
from weakref import WeakValueDictionary

from .algebra import FinAlgebra, opposite_algebra
from .exactla import Matrix, Monomial, Transposed
from .reports import InputError, Report, WellDefinednessError, Witness


def memo(owner, key, build):
    """build(), computed once per key and kept in the instance attribute
    `owner._memo`, so the entry lives exactly as long as owner does (a cycle
    through the entry is freed by the cyclic garbage collector).

    A key may contain id(x) only if the built value references x: x then
    outlives every entry whose key holds its id, so no other object can
    reuse that id while the entry is live.  A built value may itself be a
    `weakref.WeakValueDictionary` (`tensor_over`'s content table, keyed on
    content and holding no id): its values then live as long as their
    other references, not as long as owner.
    """
    try:
        table = owner._memo
    except AttributeError:
        table = owner._memo = {}
    if key not in table:
        table[key] = build()
    return table[key]


def algebras_match(a: FinAlgebra, b: FinAlgebra) -> bool:
    return a is b or (
        a.field == b.field and a.dim == b.dim and a.mult == b.mult and a.unit == b.unit
    )


class Bimodule:
    """An (A, B)-bimodule with explicit action matrices.

    An action matrix equal to the identity is stored as the marked identity
    (`Matrix.identity`), whatever matrix was passed: it is `==` to that
    matrix and has the same entries, but `@` and `kron` short-circuit on it
    and `tensor_over` neither recomputes nor descent-checks it.
    """

    def __init__(self, left_algebra, right_algebra, dim, left_action,
                 right_action, labels=None, name="M"):
        self.field = left_algebra.field
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left_action = [m.marked() for m in left_action]
        self.right_action = [m.marked() for m in right_action]
        if len(self.left_action) != left_algebra.dim:
            raise InputError("need one left action matrix per basis element")
        if len(self.right_action) != right_algebra.dim:
            raise InputError("need one right action matrix per basis element")
        for m in self.left_action + self.right_action:
            if m.rows != dim or m.cols != dim:
                raise InputError("action matrix shape mismatch")
        if labels and len(labels) != dim:
            raise InputError("label count must equal dim")
        self._labels = list(labels) if labels else None
        self.name = name

    @property
    def labels(self):
        """The basis labels; the default `m0, m1, ...` is built only when read."""
        if self._labels is None:
            return [f"m{i}" for i in range(self.dim)]
        return self._labels

    # -- actions by arbitrary elements --------------------------------------

    def act_matrix(self, acts, vec: dict) -> Matrix:
        """sum_k vec[k] acts[k]: the element vec acting through acts, one
        matrix on this carrier per basis element of an algebra (for
        example `left_action`)."""
        out = Matrix.zeros(self.field, self.dim, self.dim)
        for k, c in vec.items():
            out = out + acts[k].scale(c)
        return out

    def basis_label(self, i) -> str:
        return f"m{i}" if self._labels is None else self._labels[i]

    fmt_vec = FinAlgebra.fmt_vec

    def __repr__(self):
        return f"Bimodule({self.name}, dim={self.dim})"


def check_bimodule(m: Bimodule, left=None, right=None,
                   tags=("left-unital", "right-unital", "left-assoc",
                         "right-assoc", "actions-commute"), name=None) -> Report:
    """The action laws on the carrier m: unitality and associativity of
    each action given, then their commuting when both are given.  left and
    right are (algebra, action matrices) pairs, m's own two actions when
    neither is given.  tags name the left and right unit laws, the left and
    right associativity laws and the commuting law, in the order they are
    checked.  Each failing element or pair gives one witness: its labels
    and the first column of m where the two sides differ, both printed on
    m (`compare_maps`)."""
    if left is None and right is None:
        left, right = (m.left_algebra, m.left_action), (m.right_algebra, m.right_action)
    rep = Report(name or f"bimodule {m.name}")
    given = [(k, *pair) for k, pair in enumerate((left, right)) if pair]

    def law(tag, where, lhs, rhs):
        if lhs != rhs:
            compare_maps(rep, tag, LinearMap(m, m, lhs), LinearMap(m, m, rhs), 1, where)

    ident = Matrix.identity(m.field, m.dim)
    for k, alg, acts in given:
        law(tags[k], ("1",), m.act_matrix(acts, alg.unit), ident)
    for k, alg, acts in given:
        for i in range(alg.dim):
            for j in range(alg.dim):
                # right actions compose the other way: x.(ei ej) = (x.ei).ej
                rhs = acts[j] @ acts[i] if k else acts[i] @ acts[j]
                law(tags[2 + k], (alg.labels[i], alg.labels[j]),
                    m.act_matrix(acts, alg.mult[i][j]), rhs)
    if left and right:
        (a, lacts), (b, racts) = left, right
        for i in range(a.dim):
            for j in range(b.dim):
                law(tags[4], (a.labels[i], b.labels[j]), lacts[i] @ racts[j],
                    racts[j] @ lacts[i])
    return rep


# ---------------------------------------------------------------------------
# stock bimodules


def regular_bimodule(a: FinAlgebra) -> Bimodule:
    """A as an (A, A)-bimodule by multiplication (memoized on a)."""
    return memo(a, "regular_bimodule", lambda: Bimodule(
        a, a, a.dim,
        [a.left_mult_matrix(i) for i in range(a.dim)],
        [a.right_mult_matrix(i) for i in range(a.dim)],
        labels=a.labels, name=a.name,
    ))


def is_regular(b: Bimodule) -> bool:
    """True when b is `regular_bimodule` of its left algebra."""
    a = b.left_algebra
    return a is b.right_algebra and b.dim == a.dim and b is regular_bimodule(a)


def k_bimodule(kalg: FinAlgebra, dim, labels=None, name="V") -> Bimodule:
    """A plain vector space as a bimodule over the one-dimensional algebra."""
    if kalg.dim != 1:
        raise InputError("k_bimodule needs the ground field algebra")
    ident = Matrix.identity(kalg.field, dim)
    return Bimodule(kalg, kalg, dim, [ident], [ident], labels, name)


def restricted_bimodule(total: FinAlgebra, iota, name=None) -> Bimodule:
    """The target of a ring extension iota: A -> T as an (A, A)-bimodule."""
    a, reg = iota.source, regular_bimodule(total)
    imgs = [iota.apply({i: a.field.one()}) for i in range(a.dim)]
    left, right = ([reg.act_matrix(acts, img) for img in imgs]
                   for acts in (reg.left_action, reg.right_action))
    return Bimodule(a, a, total.dim, left, right, labels=total.labels,
                    name=name or f"{total.name}|{a.name}")


# ---------------------------------------------------------------------------
# linear maps


class LinearMap:
    """A field-linear map between bimodules, stored as a matrix on the
    chosen (quotient) bases."""

    def __init__(self, domain: Bimodule, codomain: Bimodule, matrix: Matrix,
                 name="f"):
        if matrix.rows != codomain.dim or matrix.cols != domain.dim:
            raise InputError(
                f"map {name}: matrix is {matrix.rows}x{matrix.cols}, "
                f"expected {codomain.dim}x{domain.dim}"
            )
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.name = name

    @classmethod
    def identity(cls, b: Bimodule, name="id"):
        return cls(b, b, Matrix.identity(b.field, b.dim), name)

    @classmethod
    def zero(cls, domain, codomain, name="0"):
        return cls(domain, codomain, Matrix.zeros(domain.field, codomain.dim, domain.dim), name)

    def after(self, other: "LinearMap") -> "LinearMap":
        """self o other."""
        if other.codomain.dim != self.domain.dim:
            raise InputError("composition dimension mismatch")
        return LinearMap(other.domain, self.codomain,
                         self.matrix @ other.matrix,
                         name=f"{self.name}.{other.name}")

    def __add__(self, other):
        return LinearMap(self.domain, self.codomain, self.matrix + other.matrix,
                         name=f"{self.name}+{other.name}")

    def __sub__(self, other):
        return LinearMap(self.domain, self.codomain, self.matrix - other.matrix,
                         name=f"{self.name}-{other.name}")

    def __neg__(self):
        return LinearMap(self.domain, self.codomain, -self.matrix, name=f"-{self.name}")

    def scale(self, c):
        return LinearMap(self.domain, self.codomain, self.matrix.scale(c), name=self.name)

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.domain.dim == other.domain.dim
            and self.codomain.dim == other.codomain.dim
            and self.matrix == other.matrix
        )

    __hash__ = None

    def apply(self, vec: dict) -> dict:
        return self.matrix.apply(vec)

    def __repr__(self):
        return f"LinearMap({self.name}: {self.domain.name} -> {self.codomain.name})"


def compare_maps(rep: Report, tag: str, lhs: LinearMap, rhs: LinearMap,
                 max_witnesses=3, prefix=()):
    """Record witnesses for the first max_witnesses basis columns where lhs
    and rhs disagree: the basis tuple is prefix and the column's label, and
    both columns are printed on the codomain."""
    if lhs.matrix == rhs.matrix:
        return rep
    dom, cod = lhs.domain, lhs.codomain
    count = 0
    for j in range(dom.dim):
        lc, rc = lhs.matrix.col(j), rhs.matrix.col(j)
        if lc != rc:
            rep.add(Witness(tag, (*prefix, dom.basis_label(j)),
                            cod.fmt_vec(lc), cod.fmt_vec(rc)))
            count += 1
            if count >= max_witnesses:
                break
    return rep


def compare_pipes(rep: Report, tag: str, lhs: "Pipe", rhs: "Pipe"):
    """`compare_maps` of lhs.done() and rhs.done(), two pipes from one
    source that end on the same factors.  rhs may be the source pipe with
    no stage (an identity law: project . section is the identity) or with
    one twist.  This is how every checker compares two composites;
    `compare_maps` is called directly only here, in `check_bimodule`,
    `bilinearity_report`, `coring.check_coring_morphism` and
    `wreath.r_action_matrices_check`.  When the outer level X (x)_A N of
    their target is not built yet, is not flat, has monomial unmarked
    pairs and passes the guards of `_decided`, the equation is decided by
    the projection that level would have (`_union_find`), and a pass
    builds no quotient.  Otherwise, and whenever that projection does not
    kill lhs - rhs, both pipes are finished into the built quotient and
    compared there, so every status, witness and error is that of
    `compare_maps`.  Each finished map is kept on its pipe (`finished`),
    so a pipe that several laws share is finished once."""
    if not _decided(lhs, rhs):
        for p in (lhs, rhs):
            if not hasattr(p, "finished"):
                p.finished = p.done()
        compare_maps(rep, tag, lhs.finished, rhs.finished)


def bilinearity_report(f: LinearMap, check_name=None) -> Report:
    """a.f(x) = f(a.x) and f(x).a = f(x.a) for each basis element a of the
    two algebras; a failing a names a and the first x where they differ."""
    rep = Report(check_name or f"bilinearity of {f.name}")
    dom, cod = f.domain, f.codomain
    for tag, alg, ca, da in (("left-linear", dom.left_algebra, cod.left_action, dom.left_action),
                             ("right-linear", dom.right_algebra, cod.right_action, dom.right_action)):
        for k in range(alg.dim):
            lhs, rhs = ca[k] @ f.matrix, f.matrix @ da[k]
            if lhs != rhs:
                compare_maps(rep, tag, LinearMap(dom, cod, lhs), LinearMap(dom, cod, rhs),
                             1, (alg.labels[k],))
    return rep


# ---------------------------------------------------------------------------
# tensor quotients


class TensorQuotient(Bimodule):
    """M (x)_A N presented on the canonical non-pivot pure-tensor basis.

    `project` is kept in column form: row c of `project.transpose()` is
    column c of project, {t: coeff} with e_c = sum_t coeff * (basis
    vector t), and no row when e_c is 0.  From the union-find it is an
    `exactla.Monomial`, whose two flat lists hold those columns and build
    the dicts only when read; from `Echelon` it is an `exactla.Transposed`
    of the column dicts.  `section` (a `Monomial` on both paths),
    `echelon` and `relations` are derived on first read.  A flat quotient
    has no relations, and its two maps are one marked identity.
    """

    def __init__(self, base, factor_left, factor_right, left_action,
                 right_action, project, free, name):
        super().__init__(factor_left.left_algebra, factor_right.right_algebra,
                         project.rows, left_action, right_action, name=name)
        self.base = base
        self.factor_left = factor_left
        self.factor_right = factor_right
        self.project = project    # dim x (dim M * dim N)
        if not project.is_identity:
            self.free_cols = free  # a flat quotient builds it on first read

    @cached_property
    def free_cols(self):
        """The flat coordinates of the quotient basis, in order: the
        non-pivot columns of the relation echelon."""
        return tuple(range(self.dim))

    @cached_property
    def pivots(self):
        """The pivot columns of the relation echelon, in order."""
        free = set(self.free_cols)
        return tuple(c for c in range(self.project.cols) if c not in free)

    @cached_property
    def section(self):
        """A `Monomial`: column t is e_(free_cols[t]) with weight 1, so row
        c is {t: 1} when c is the t-th free column, else empty."""
        if self.project.is_identity:
            return self.project
        return Monomial(self.field, self.project.cols, list(self.free_cols),
                        [self.field.one()] * self.dim)

    @cached_property
    def echelon(self):
        """The reduced echelon form of the relations: the row of pivot p is
        e_p - sum_t project[t, p] e_(free_cols[t])."""
        from .echelon import Echelon
        f, free, cols = self.field, self.free_cols, self.project.transpose().data
        return Echelon.from_reduced(f, self.project.cols, {
            p: {free[t]: f.neg(v) for t, v in cols.get(p, {}).items()}
            for p in self.pivots})

    @cached_property
    def relations(self):
        """The raw balancing relations, built on first read."""
        return list(_balancing(self.factor_left, self.factor_right))

    def kills(self, mat: Matrix) -> bool:
        """True when mat, a map out of the flat space, vanishes on the
        balancing relation span.  That span is ker project, so this holds
        exactly when mat factors through project: each column c of mat is
        sum_t project[t, c] (column free_cols[t] of mat).  When mat and
        project are both `Monomial`, that is one pass over their lists
        (`Monomial.factors_through`).  Otherwise a free column holds
        trivially, and a pivot column fails exactly when mat does not kill
        that pivot's echelon row (`_moved`).  A flat quotient has no
        relations and kills every map."""
        proj = self.project
        if isinstance(mat, Monomial) and isinstance(proj, Monomial):
            return mat.factors_through(proj, self.free_cols)
        return proj.is_identity or next(self._moved(mat), None) is None

    def _moved(self, mat: Matrix):
        """The pivots, in order, whose echelon row mat does not kill."""
        proj, free = self.project.transpose().data, self.free_cols
        cols, axpy, scaled = mat.transpose().data, self.field.axpy, self.field.scaled
        for c in self.pivots:
            want = {}
            for t, v in proj.get(c, {}).items():
                col = cols.get(free[t])
                if col:
                    want = axpy(want, col, v) if want else scaled(col, v)
            if want != cols.get(c, {}):
                yield c

    def basis_label(self, t) -> str:
        i, j = divmod(self.free_cols[t], self.factor_right.dim)
        return f"{self.factor_left.basis_label(i)}(x){self.factor_right.basis_label(j)}"


def tensor_over(a: FinAlgebra, m: Bimodule, n: Bimodule, name=None) -> TensorQuotient:
    """The quotient M (x)_A N with projection, section and inherited actions,
    memoized on m by the identity of a and n.  A miss takes the numeric
    core of a live quotient over a with the same content when there is one
    (`_shared_tensor`), so equal quotients are built once.

    The relation m.e_k (x) n - m (x) e_k.n is 0 for every m and n when both
    actions of e_k are marked identities, so those k contribute nothing and
    are skipped; over the ground field no relation is built at all.
    `Bimodule` marks every action equal to the identity, so the unit of a
    unital bimodule is always skipped.

    When every other R_k (the right action of e_k on M) and L_k (the left
    action on N) is monomial, with at most one entry per column, each
    relation is e_a = lam e_b or e_a = 0, and the quotient comes from a
    weighted union-find over the flat columns with no `Echelon`
    (`_union_find`).  Otherwise the relations go through `Echelon`, and
    `project` is the transpose of its canonical kernel basis
    (`Echelon.kernel`).  Both paths give the same reduced echelon form, as
    the columns of `project`.

    Each inherited action is pk . section for pk = project . K, with K the
    action tensored with an identity, and pk . section is the free columns
    of pk.  pk is `project.after`: when project and the action are
    monomial, a monomial built from project's lists (`Monomial.after`:
    O(flat) list copies and no dict, the inherited action O(qdim));
    otherwise the columns of project scattered through those of the
    action, in column form (`Transposed.after`, one `padded_matmul`).
    Neither builds a Kronecker product or a matrix product.
    The action is well defined when K keeps the relation span, that is
    when pk kills the relations (`TensorQuotient.kills`, one test per
    action, a single pass over the lists for a monomial pk).  A
    violation (possible only for inconsistent input actions) raises
    WellDefinednessError whose `relation` is the first echelon row, in
    pivot order, that K moves out of the span.  A marked action is
    inherited as the marked identity of the quotient and is not checked,
    since the identity keeps the relation span; every other action, a unit
    acting by another idempotent included, is computed and checked.  A flat
    quotient inherits act (x) I and has nothing to check.
    """
    return memo(m, _tensor_key(a, n), lambda: _shared_tensor(a, m, n, name))


def _tensor_key(a, n):
    """The key of M (x)_A N in the memo of M."""
    return "tensor", id(a), id(n)


def _unmarked(m, n):
    """The pairs (R_k, L_k) of M (x)_A N whose two actions are not both
    marked: the only ones that give relations."""
    return [(rk, lk) for rk, lk in zip(m.right_action, n.left_action)
            if not (rk.is_identity and lk.is_identity)]


def _shared_tensor(a, m, n, name):
    """M (x)_A N on a miss of the identity memo: a new quotient with its own
    factors and name, whose numeric core (`project`, `free_cols` and the
    inherited actions) is that of a live quotient over a with the same
    content when there is one, else from `_build_tensor`.  The content is
    all that the build reads: the two dims and the entries of the four
    action lists (`_content`).  The table is a `WeakValueDictionary` kept
    on a, so an entry lives as long as the quotient it holds; a build that
    raises stores nothing.  A quotient whose pairs are all marked is flat
    and costs nothing to build, so it computes no key."""
    if not _unmarked(m, n):
        return _build_tensor(a, m, n, name)
    table = memo(a, "tensor_content", WeakValueDictionary)
    key = _content(m, n)
    hit = table.get(key)
    if hit is None:
        table[key] = hit = _build_tensor(a, m, n, name)
        return hit
    _check_bases(a, m, n)
    return TensorQuotient(a, m, n, hit.left_action, hit.right_action,
                          hit.project, hit.free_cols,
                          name or f"({m.name}(x){n.name})")


def _content(m, n):
    """A key equal for two pairs (m, n) exactly when their dims and the
    entries of their four action lists are equal: per action its size for
    the marked identity, its targets and live weights when it is monomial,
    else its sorted entries.  It holds no id()."""
    return (m.dim, n.dim, *(tuple(map(_action_content, acts)) for acts in (
        m.right_action, n.left_action, m.left_action, n.right_action)))


def _action_content(x):
    if x.is_identity:
        return x.rows
    k = x.monomial()
    if k is not None:
        return tuple(k.tgt), tuple(w for t, w in zip(k.tgt, k.wt) if t >= 0)
    return "entries", tuple(sorted((i, j, v) for j, col in x.transpose().data.items()
                                   for i, v in col.items()))


def _balancing(m, n):
    """The nonzero balancing relations m.e_k (x) n - m (x) e_k.n, by k and
    then by flat index, for the k whose actions are not both marked."""
    f, dn = m.field, n.dim
    for rk, lk in _unmarked(m, n):
        # row c of a transpose is column c of the action
        rcols, lcols = rk.transpose().data, lk.transpose().data
        for i in range(m.dim):
            ri = rcols.get(i, {})
            for j in range(dn):
                rel = {p * dn + j: v for p, v in ri.items()}
                for q, w in lcols.get(j, {}).items():
                    tgt = i * dn + q
                    u = f.sub(rel.get(tgt, f.zero()), w)
                    if f.is_zero(u):
                        rel.pop(tgt, None)
                    else:
                        rel[tgt] = u
                if rel:
                    yield rel


def _check_bases(a, m, n):
    if not algebras_match(m.right_algebra, a) or not algebras_match(n.left_algebra, a):
        raise InputError(
            f"tensor base mismatch: {m.name} has right algebra "
            f"{m.right_algebra.name}, {n.name} has left algebra "
            f"{n.left_algebra.name}, expected {a.name}"
        )


def _build_tensor(a, m, n, name):
    _check_bases(a, m, n)
    f, dm, dn = m.field, m.dim, n.dim
    flat = dm * dn
    pairs = _unmarked(m, n)
    free = ()
    mono = [x.monomial() for pair in pairs for x in pair]
    if pairs and all(mono):
        free, project = _union_find(f, dm, dn, mono)
    elif pairs:
        # column p of project is row p of the canonical kernel basis
        from .echelon import Echelon
        ech = Echelon(f, flat, _balancing(m, n))
        free, project = ech.free_columns(), Transposed(ech.kernel())
    qdim = len(free) if pairs else flat
    ident = Matrix.identity(f, qdim)
    if qdim == flat:  # no relations, or all of them 0
        project = ident
    checks = []

    def inherit(act, left, side, label):
        if act.is_identity:
            return ident
        if project.is_identity:
            return (act.kron(Matrix.identity(f, dn)) if left
                    else Matrix.identity(f, dm).kron(act))
        pk = project.after(1, act, dn) if left else project.after(dm, act, 1)
        checks.append((side, label, pk))
        return pk.columns(free)

    tq = TensorQuotient(
        a, m, n,
        [inherit(x, True, "left", lab)
         for x, lab in zip(m.left_action, m.left_algebra.labels)],
        [inherit(x, False, "right", lab)
         for x, lab in zip(n.right_action, n.right_algebra.labels)],
        project, free, name or f"({m.name}(x){n.name})")
    for side, label, pk in checks:
        if not tq.kills(pk):
            raise WellDefinednessError(
                f"{side} action of {label} does not descend to {tq.name}",
                relation=tq.echelon.full_row(next(tq._moved(pk))))
    return tq


def _find(parent, weight, mul, c):
    """(root, w) with e_c = w e_root in the weighted union-find of
    `_union_find`: e_x = weight[x] e_parent[x], and a root is its own
    parent with weight 1.  The path from c is compressed."""
    p = parent[c]
    if parent[p] == p:
        return p, weight[c]
    path = []
    while parent[c] != c:
        path.append(c)
        c = parent[c]
    w = weight[c]
    for x in reversed(path):
        w = mul(weight[x], w)
        parent[x], weight[x] = c, w
    return c, w


def _union_find(f, dm, dn, mono):
    """(free columns, project as a `Monomial`) from the monomial forms
    R_0, L_0, R_1, L_1, ... of the unmarked pairs.

    The relation for (i, j) is v e_(p, j) - w e_(i, q), with (p, v) the
    entry of column i of R_k and (q, w) that of column j of L_k; with one of
    them missing it kills one column.  A tree of ties has e_c = weight[c]
    e_parent[c], with its largest column at the root and paths compressed
    on every `find`.  A component with a one-term relation, or with a tie
    that contradicts its weights, is dead: all its columns are pivots with
    empty echelon rows.  A live component keeps its root free, and each
    other column c is the pivot of e_c - weight[c] e_root.  That is the
    reduced echelon form `Echelon` gives.  Column c of project is
    {position of its root among the free columns: weight}, or zero in a
    dead component; the only lists kept are those two.
    """
    flat, one, mul, inv = dm * dn, f.one(), f.mul, f.inv
    parent, weight, dead = list(range(flat)), [one] * flat, [False] * flat
    find = partial(_find, parent, weight, mul)

    for rk, lk in zip(mono[::2], mono[1::2]):
        ls = list(enumerate(zip(lk.tgt, lk.wt)))
        for i, (p, v) in enumerate(zip(rk.tgt, rk.wt)):
            for j, (q, w) in ls:
                if p < 0 or q < 0:
                    if p >= 0 or q >= 0:
                        dead[find(p * dn + j if q < 0 else i * dn + q)[0]] = True
                    continue
                a, b = p * dn + j, i * dn + q
                ra, rb = parent[a], parent[b]  # find's first test, inlined
                ra, wa = (ra, weight[a]) if parent[ra] == ra else find(a)
                rb, wb = (rb, weight[b]) if parent[rb] == rb else find(b)
                # x e_ra = y e_rb
                x = v if wa == one else mul(v, wa)
                y = w if wb == one else mul(w, wb)
                if ra == rb:
                    dead[ra] = dead[ra] or x != y
                else:
                    if ra > rb:
                        ra, rb, x, y = rb, ra, y, x
                    parent[ra], weight[ra] = rb, mul(y, inv(x))
                    dead[rb] = dead[rb] or dead[ra]
    for c in range(flat):
        find(c)  # every column now points at its root
    free = tuple(c for c in range(flat) if parent[c] == c and not dead[c])
    pos = [-1] * flat
    for t, c in enumerate(free):
        pos[c] = t
    return free, Monomial(f, len(free), [pos[r] for r in parent], weight)


def _decided(lhs, rhs) -> bool:
    """True when the pipes lhs and rhs, merged only as far as the factors
    (X, N) of the outer level X (x)_A N of their target, agree on it, found
    without building that level; False sends `compare_pipes` to the built
    quotient.  It decides only on a level that is not built yet (the
    identity memo of `tensor_over`), is not flat and whose unmarked pairs
    are all monomial.  The inner levels are built as `Pipe.done` builds
    them, and so are their errors.  Building the outer level could raise
    only in `_check_bases`, which runs, or when an inherited action does
    not descend: the left action of X descends when the two actions of X
    commute, and the right action of N when those of N do, so each must be
    a `TensorQuotient` or pass `_commutes`.  Then lhs - rhs is zero on the
    quotient exactly when the level's canonical projection kills it: that
    `project` of `_union_find`, made from the same monomial pairs and kept
    nowhere, has the relation span as its kernel."""
    fs = lhs.factors
    # X inherits each marked right action of fs[-2] as a marked action, so
    # a level whose last two factors have only marked pairs is flat
    if len(fs) < 2 or rhs.factors != fs or not _unmarked(fs[-2], fs[-1]):
        return False
    x, n = fs[0], fs[-1]
    for f in fs[1:-1]:
        x = tensor_over(x.right_algebra, x, f)
    a = x.right_algebra
    mono = [k.monomial() for pair in _unmarked(x, n) for k in pair]
    if not mono or not all(mono) or _tensor_key(a, n) in getattr(x, "_memo", ()):
        return False
    _check_bases(a, x, n)
    if not (_commutes(x) and _commutes(n)):
        return False
    lm, rm = lhs._merge(x, 0).matrix, rhs._merge(x, 0).matrix
    if lm == rm:
        return True
    project = _union_find(x.field, x.dim, n.dim, mono)[1]
    return project @ lm == project @ rm


def _commutes(b) -> bool:
    """True when the left and right actions of b commute, so that both
    descend to every tensor quotient with b as a factor; a tensor quotient
    always passes.  Tested once per bimodule and kept on it, on the
    monomial forms of the actions where they have one, so that those
    products compose lists (`Monomial @ Monomial`); a marked action
    commutes with everything and is skipped."""
    def commute():
        left, right = ([k.monomial() or k for k in acts if not k.is_identity]
                       for acts in (b.left_action, b.right_action))
        return all(lk @ rk == rk @ lk for lk in left for rk in right)
    return isinstance(b, TensorQuotient) or memo(b, "actions_commute", commute)


def tensor_maps(f: LinearMap, g: LinearMap, source_q: TensorQuotient,
                target_q: TensorQuotient, name=None) -> LinearMap:
    """The induced map f (x) g between tensor quotients.

    Verifies well-definedness: f (x) g must carry the relation span of the
    source into the kernel of the target projection, that is
    target.project . (f (x) g) must kill the source relations.  On a
    violation `relation` is the first raw source relation not carried.
    """
    if source_q.factor_left.dim != f.domain.dim or source_q.factor_right.dim != g.domain.dim:
        raise InputError("source quotient factors do not match map domains")
    if target_q.factor_left.dim != f.codomain.dim or target_q.factor_right.dim != g.codomain.dim:
        raise InputError("target quotient factors do not match map codomains")
    mat = target_q.project @ f.matrix.kron(g.matrix)
    if not source_q.kills(mat):
        rel = next(rel for rel in source_q.relations if mat.tapply(rel))
        raise WellDefinednessError(
            f"{f.name}(x){g.name} is not well defined on {source_q.name}: "
            f"relation {sorted(rel.items())} not killed", relation=rel)
    mat = mat @ source_q.section
    return LinearMap(source_q, target_q, mat, name or f"{f.name}(x){g.name}")


# ---------------------------------------------------------------------------
# spaces: iterated left-associated quotients with flat projections


def leaf_factors(b: Bimodule):
    if isinstance(b, TensorQuotient):
        return leaf_factors(b.factor_left) + leaf_factors(b.factor_right)
    return (b,)


class Space:
    """A left-associated iterated tensor quotient of a factor list.

    `project` and `section` map between the factor-flat space (the ground
    field tensor product of the factors, each on its own basis) and the
    quotient.  Both are built on first read, `project` from the merge
    stages of a pipe and `section` from the sections of the levels; a pipe
    merges into a space by those stages itself, so a space that a pipe
    only ends in builds neither.  `leaves` are the atomic factors the
    quotient factors unfold to: spaces with the same leaves are bracketings
    of one another, and `Pipe.done` converts between them.  Every tensor
    quotient is built with the space, so an action that does not descend
    raises `WellDefinednessError` when the space is made.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.field = factors[0].field
        chain = [factors[0]]
        for nxt in factors[1:]:
            chain.append(tensor_over(chain[-1].right_algebra, chain[-1], nxt))
        self._chain = chain[1:]
        self.quotient = chain[-1]
        self.leaves = tuple(l for f in factors for l in leaf_factors(f))

    @cached_property
    def project(self):
        """The merge stages of a pipe (`_Stages._merge`) on the identity of
        the factor-flat space."""
        flat = Matrix.identity(self.field, prod(f.dim for f in self.factors))
        return _Stages(self.factors, flat)._merge(self.quotient, 0).matrix

    @cached_property
    def section(self):
        sec = Matrix.identity(self.field, self.factors[0].dim)
        for tq in self._chain:
            sec = sec.padded_matmul(1, tq.factor_right.dim, tq.section)
        return sec

    @property
    def dim(self):
        return self.quotient.dim

    def leaf_flat_dim(self):
        return prod(l.dim for l in self.leaves)

    def __repr__(self):
        return f"Space({'x'.join(f.name for f in self.factors)}, dim={self.dim})"


def space(*factors) -> Space:
    """The memoized `Space` of factors, kept on the first factor."""
    if not factors:
        raise InputError("space needs at least one factor")
    return memo(factors[0], ("space", *map(id, factors[1:])),
                lambda: Space(factors))


def regroup(src: Space, dst: Space, name="regroup") -> LinearMap:
    """Canonical isomorphism between two bracketings of the same leaves."""
    return pipe(src).done(dst, name)


def associator(m: Bimodule, n: Bimodule, p: Bimodule):
    """(M (x) N) (x) P -> M (x) (N (x) P), with inverse."""
    mn = tensor_over(m.right_algebra, m, n)
    np_ = tensor_over(n.right_algebra, n, p)
    left = space(mn, p)
    right = space(m, np_)
    return regroup(left, right, "assoc"), regroup(right, left, "assoc-inv")


# ---------------------------------------------------------------------------
# the mirror: opposite algebras and reversed tensor products

def mirrored(x, build):
    """The memoized image build(x) of x under an involution: built once and
    kept on x, with x recorded on the image as the image of its image."""
    def make():
        y = build(x)
        memo(y, "mirror", lambda: x)
        return y
    return memo(x, "mirror", make)


def op(a: FinAlgebra) -> FinAlgebra:
    """The opposite algebra; op(op(a)) is a."""
    return mirrored(a, opposite_algebra)


def mirror(b: Bimodule) -> Bimodule:
    """An (A, B)-bimodule as a (B^op, A^op)-bimodule: the same space and
    labels with the two action lists swapped.  The regular bimodule of A
    goes to that of A^op, and M (x)_A N to N^op (x)_{A^op} M^op, presented
    on its own canonical basis (`rev` is the isomorphism).  mirror(mirror(b))
    is b."""
    return mirrored(b, _build_mirror)


def _build_mirror(b: Bimodule) -> Bimodule:
    if isinstance(b, TensorQuotient):
        return tensor_over(op(b.base), mirror(b.factor_right),
                           mirror(b.factor_left))
    if is_regular(b):
        return regular_bimodule(op(b.left_algebra))
    return Bimodule(op(b.right_algebra), op(b.left_algebra), b.dim,
                    b.right_action, b.left_action, labels=b._labels,
                    name=b.name)


def rev(x: Bimodule) -> LinearMap:
    """The reversal isomorphism x -> mirror(x)."""
    return pipe(space(x)).reverse().done(space(mirror(x)), "rev")


def mirror_map(f: LinearMap, dom: Space = None, cod: Space = None) -> LinearMap:
    """rev(cod) . f . rev(mirror(dom)): f between the mirrors of its domain
    and codomain, or between `dom` and `cod`, other bracketings of their
    leaves."""
    dom = dom if dom is not None else space(mirror(f.domain))
    cod = cod if cod is not None else space(mirror(f.codomain))
    there = pipe(dom).reverse().done(space(f.domain))
    back = pipe(space(f.codomain)).reverse().done(cod)
    return LinearMap(dom.quotient, cod.quotient,
                     back.matrix @ f.matrix @ there.matrix, name=f.name)


# ---------------------------------------------------------------------------
# map pipelines


class _Stages:
    """A matrix into the factor-flat space of a factor tuple, changed stage
    by stage.  A stage is a new value and leaves its input as it was: it
    replaces the factors at [at, at+takes) by `gives` and multiplies by
    I (x) F (x) I through `padded_matmul`, so the Kronecker product is never
    built.  A monomial F on a monomial matrix keeps the matrix a
    `exactla.Monomial` (the list kernel); otherwise the rows of the matrix
    are scattered through the column dicts of F (the row kernel), which a
    monomial F builds once from its two lists.  `finished`, unset on a new
    value, keeps the map that `compare_pipes` finishes from it."""

    __slots__ = ("factors", "matrix", "source", "finished")

    def __init__(self, factors, matrix, source=None):
        self.factors = tuple(factors)
        self.matrix = matrix
        self.source = source

    def _with(self, at, takes, gives, matrix):
        """A copy of self on matrix, with the factors at [at, at+takes)
        replaced by gives."""
        new = object.__new__(type(self))
        new.source = self.source
        new.factors = self.factors[:at] + tuple(gives) + self.factors[at + takes:]
        new.matrix = matrix
        return new

    def _stage(self, flat_map: Matrix, at, takes, gives):
        dims = [f.dim for f in self.factors]
        mid = prod(dims[at:at + takes])
        if flat_map.cols != mid:
            raise InputError(
                f"stage expects flat dim {mid}, map has {flat_map.cols}")
        return self._with(at, takes, gives, flat_map.padded_matmul(
            prod(dims[:at]), prod(dims[at + takes:]), self.matrix))

    def _level(self, mat, at, takes, gives):
        """The stage of mat, a quotient's projection or section; a flat
        quotient's is the marked identity and only renames the factors."""
        if mat.is_identity:
            return self._with(at, takes, gives, self.matrix)
        return self._stage(mat, at, takes, gives)

    def _merge(self, node, at):
        """Merge the factors from position at on into node, which they
        bracket: children first, each quotient by its projection."""
        if self.factors[at] is node:
            return self
        return (self._merge(node.factor_left, at)
                ._merge(node.factor_right, at + 1)
                ._level(node.project, at, 2, [node]))


class Pipe(_Stages):
    """Builds a composite map between iterated quotients stage by stage.

    A pipe is a value: every stage returns a new pipe and leaves its input
    as it was, so a prefix that several composites share is built once,
    bound to a name and continued on each branch.  The checkers do this
    for the prefixes their equations share (comult (x) M, delta, ...),
    and `compare_pipes` keeps the map it finishes on the pipe.

    The accumulated matrix maps the source quotient into the factor-flat
    space of the current factors.  A map on some factors is applied in
    stages: the factors are merged into their quotient by the projection of
    each level, the map acts on that one factor, and its image is refined
    into the factors given by the section of each level.  Every stage acts
    by identities on the other factors, through `padded_matmul`, so
    I (x) F (x) I is never built, and a flat level, whose projection and
    section are the marked identity, costs no stage.  Every other section,
    and the projection of a union-find quotient, is monomial.  A pipe that
    starts at the marked identity or at a monomial section keeps its
    matrix an `exactla.Monomial` while every stage map is monomial, one
    pass over flat lists per stage (`Monomial._padded_lists`); a pipe with
    no stage ends in the section it starts from.  The first stage map with
    two entries in a column turns the matrix into rows, and every later
    stage, a monomial one too, scatters those rows through the column
    dicts of its map (the row kernel).  Every stage map must
    be bilinear over its outer algebras (the checkers verify this for
    user-supplied maps before piping them).  A section is bilinear up to
    the balancing relations of its own quotient, so every stage then
    carries the relations of the current factors into those of the next,
    and the final projection is independent of the chosen representatives.
    """

    __slots__ = ()

    def __init__(self, source: Space):
        super().__init__(source.factors, source.section, source)

    @property
    def field(self):
        return self.source.field

    # -- stages ---------------------------------------------------------------

    def apply(self, f: LinearMap, at=0, takes=1, gives=None):
        """Apply f to the factors at positions [at, at+takes): merge them
        into their quotient, apply f to it and refine its image into
        `gives` (by default f's codomain).  When every level of the merge
        (or of the refinement) is flat, it only renames factors, so the
        stage takes the factors (or gives the factors) as they are."""
        consumed = self.factors[at:at + takes]
        dom = space(*consumed)
        if dom.quotient.dim != f.domain.dim:
            raise InputError(
                f"pipe stage {f.name}: domain dim {f.domain.dim} but slot "
                f"has dim {dom.quotient.dim}")
        gives = list(gives) if gives is not None else [f.codomain]
        cod = space(*gives)
        if cod.quotient.dim != f.codomain.dim:
            raise InputError(
                f"pipe stage {f.name}: codomain dim {f.codomain.dim} but "
                f"gives has dim {cod.quotient.dim}")
        p = self
        if dom.quotient.dim != prod(x.dim for x in consumed):
            p, takes = p._merge(dom.quotient, at), 1
        if cod.quotient.dim == prod(x.dim for x in gives):
            return p._stage(f.matrix, at, takes, gives)
        p = p._stage(f.matrix, at, takes, [cod.quotient])
        for _ in gives[1:]:
            p = p.refine(at)
        return p

    def insert_central(self, b: Bimodule, element: dict, at):
        """Insert a factor at a fixed central element (units of algebras)."""
        col = Matrix.from_entries(
            self.field, b.dim, 1,
            {(i, 0): v for i, v in element.items()})
        return self._stage(col, at, 0, [b])

    def absorb_left(self, at):
        """Contract a regular-algebra factor into its left neighbour."""
        if at == 0:
            raise InputError("absorb_left needs a left neighbour")
        x = self.factors[at - 1]
        return self._stage(_contract_matrix(x, self.factors[at], True), at - 1, 2, [x])

    def absorb_right(self, at):
        """Contract a regular-algebra factor into its right neighbour."""
        if at == len(self.factors) - 1:
            raise InputError("absorb_right needs a right neighbour")
        x = self.factors[at + 1]
        return self._stage(_contract_matrix(x, self.factors[at], False), at, 2, [x])

    def refine(self, at):
        """Re-bracket: expose the two factors of a quotient factor, lifting
        it through its section."""
        f = self.factors[at]
        if not isinstance(f, TensorQuotient):
            raise InputError("refine needs a TensorQuotient factor")
        return self._level(f.section, at, 1, [f.factor_left, f.factor_right])

    def _refine_all(self):
        """Refined through every quotient factor down to the leaves."""
        p, at = self, 0
        while at < len(p.factors):
            if isinstance(p.factors[at], TensorQuotient):
                p = p.refine(at)
            else:
                at += 1
        return p

    def reverse(self):
        """Reverse the leaves, m1 (x) ... (x) mk -> mk (x) ... (x) m1, and
        replace each leaf by its mirror: refine to the leaves, then renumber
        the rows of the matrix into the reversed mixed-radix order."""
        p = self._refine_all()
        dims = [l.dim for l in p.factors]
        mat = p.matrix
        if len(dims) > 1:
            rows = {}
            for r, row in mat.data.items():
                out = 0
                for d in reversed(dims):
                    r, digit = divmod(r, d)
                    out = out * d + digit
                rows[out] = row
            mat = Matrix(self.field, mat.rows, mat.cols, rows)
        return p._with(0, len(dims), [mirror(l) for l in reversed(p.factors)], mat)

    # -- finish ---------------------------------------------------------------

    def done(self, target: Space = None, name="pipe") -> LinearMap:
        """The composite into target, by default the space of the current
        factors, merged into the target's quotient by projection stages.  A
        target with other factors must have the same leaves: the current
        factors are first refined down to them (sections).  A merge whose
        levels are all flat only renames factors, and is skipped."""
        p = self
        if target is None:
            target = space(*p.factors)
        if target.factors != p.factors:
            p = p._refine_all()
            if target.leaves != p.factors:
                raise InputError("pipe target leaves do not match")
        if target.quotient.dim != prod(x.dim for x in p.factors):
            p = p._merge(target.quotient, 0)
        return LinearMap(self.source.quotient, target.quotient, p.matrix, name)


def _contract_matrix(x: Bimodule, b: Bimodule, into_left: bool) -> Matrix:
    """Factor-flat matrix of x (x) b -> x.b, or b (x) x -> b.x.

    b must be the regular bimodule of the algebra acting on x on that side.
    """
    acts = x.right_action if into_left else x.left_action
    d = len(acts)
    if b.dim != d:
        raise InputError("absorbed factor is not the acting algebra")
    return Matrix.from_entries(x.field, x.dim, x.dim * d, {
        (i, j * d + k if into_left else k * x.dim + j): v
        for k, act in enumerate(acts) for i, row in act.data.items() for j, v in row.items()})


def pipe(source: Space) -> Pipe:
    return Pipe(source)


# ---------------------------------------------------------------------------
# unit isomorphisms


def unit_iso(side: str, m: Bimodule):
    """The isomorphism A (x)_A M = M (left) or M (x)_A A = M (right).

    Returns (iso, inverse) as LinearMaps on the canonical quotient bases.
    """
    if side not in ("left", "right"):
        raise InputError("side must be 'left' or 'right'")
    left = side == "left"
    alg = m.left_algebra if left else m.right_algebra
    a_reg, at, name = regular_bimodule(alg), 0 if left else 1, f"unit-{side[0]}"
    src = space(a_reg, m) if left else space(m, a_reg)
    iso = (pipe(src).absorb_right(0) if left else pipe(src).absorb_left(1)).done(
        space(m), name=name)
    inv = pipe(space(m)).insert_central(a_reg, alg.unit_vector(), at).done(
        src, name=f"{name}-inv")
    ident_q = Matrix.identity(m.field, iso.domain.dim)
    ident_m = Matrix.identity(m.field, m.dim)
    if iso.matrix @ inv.matrix != ident_m or inv.matrix @ iso.matrix != ident_q:
        raise WellDefinednessError("unit isomorphism failed to invert")
    return iso, inv


def unit_twist(b: Bimodule, a: FinAlgebra) -> LinearMap:
    """The twist b (x)_A A -> A (x)_A b, x (x) a -> 1 (x) x.a, of the unit
    object over b: the carrier of a coring over A, or T of an extension."""
    areg = regular_bimodule(a)
    return pipe(space(b, areg)).absorb_left(1).insert_central(
        areg, a.unit_vector(), 0).done(space(areg, b), name="unit-twist")


def clear_caches():
    """Nothing to do: every memo entry is kept on the object it was built
    from and dies with it (see `memo`).  Kept so that callers which reset
    between runs still import."""
