"""Each fast path checked against the plain path it replaces.

* A marked identity (`Matrix.identity`) short-circuits `@` and `kron`; the
  results must equal the same products with an unmarked identity matrix.
* `tensor_over` returns marked identities as `project` and `section` of a
  flat quotient; they must carry the data the `from_entries` construction
  gives, and the inherited actions must match the plain products.
* A marked identity builds its entries only when `data` is read; every
  reader must see what the `from_entries` identity holds.
* `Bimodule` stores every action equal to the identity as the marked
  identity.  `tensor_over` skips basis elements whose two actions are
  marked, gives a marked action the marked identity of the quotient as its
  inherited action without a descent check, reads columns from cached
  transposes and checks descent with one `TensorQuotient.kills` test per
  action; relations, quotient maps, actions, their markers and descent
  errors must match a plain construction that reads every column with
  `Matrix.col`, multiplies unmarked matrices and checks descent on every
  raw relation.
* `TensorQuotient.kills` tests that a map factors through `project`
  instead of checking each relation; on generated maps over kZ2 and kZ3 it
  must agree with the per-relation check, and the errors of `tensor_maps`
  must name the relation the plain first-raw-relation loop names.
* The Ore twist table and rewrite apply their matrices by `tapply`; twists,
  rewrites and reports must match the entry sums of `plain_apply`.
* `skew_mul` reads Y^n . c from a memo on the `SkewPolyData` and sums into
  one dict, and the Ore checks evaluate every law on flat coefficient
  vectors, by linearity from the basis twists, forming each product once
  per (n, i, j); products, twists and reports (witness order included)
  must match the plain rewrite loop, a fresh `tapply` twist and the
  re-twisting check loops, from a cold and a warm memo, at every bound up
  to the corpus's 8 and on tables perturbed at degrees 2 and 5.
  `ore_universal_check` forms each phi(e_c) z^n once and extends the
  flat products by linearity; its reports must match the loop that
  re-twists and extends every product, on the same bounds and tables.
  `skew_mul` must never read a twist table, no cached dict may reach a
  caller, and a dropped `SkewPolyData` must be freed without the cyclic
  collector.
* `Echelon.free_columns` of an echelon without pivots, which every flat
  quotient has, is `range(ncols)`; with and without pivots it must equal
  the column-by-column test against `pivot_rows`.  `TensorQuotient`
  reads its `free_cols` from its echelon on first use.
* `Echelon.kernel` builds the canonical kernel basis in one pass over the
  pivot rows; it must equal `plain_kernel`, the scan of every free column
  against every pivot row, over QQ and GF(101), with empty rows, pivots
  with empty rows, full rank and the zero matrix.  An `Echelon` built
  with rows adds each non-empty one in order, and `Echelon.from_reduced`
  indexes reduced rows as `add` does.
* QQ scalars are ints when integral and Fractions otherwise; every
  operation must agree with plain `Fraction` arithmetic.
* Each field's `axpy` replaces a loop of `field.add` and `field.mul`; it
  must store the same canonical sums and drop the same cancelled entries.
* The QQ `axpy` stores the product alone in an entry new to its target and
  copies or negates for a coefficient of +-1, `QQ.inv(+-1)` returns its
  argument and `scaled` by 1 copies; each must match the plain path on
  every such case, with canonical types, and the ladder rungs 1-4 and the
  corpus lifts must give the same matrices and reports with the plain
  paths patched in.
* Each field's `scaled` returns coeff * src as a new dict with no zero
  test, and `@` and `padded_matmul` start each output row with it; it
  must match the plain loop for coefficients 0, +-1, an int and a
  Fraction, with canonical types, and `@` must match the entry-by-entry
  sum of products.  `Matrix.scale` and `Echelon` use `scaled`.
* `check_coring_morphism` pipes (phi (x) phi) . Delta for a bilinear phi
  instead of building phi (x) phi with `tensor_maps`; the left side must
  be the matrix `tensor_maps` gives and the report (or the error) must be
  that of the `tensor_maps` route, on ladder rungs 1-4, on the corpus
  lifts and on generated bilinear and non-bilinear phi.
* `Pipe` works on the factor-flat space of its current factors; its
  composites must equal those of `LeafPipe`, the leaf-flat pipe it
  replaced, on generated stage sequences over kZ2 and kZ3 and on every
  corpus checker.
* A `Pipe` is a value: every stage returns a new pipe and leaves its input
  as it was, so the checkers build each shared prefix once and continue it
  on each branch.  No stage, nor `done`, may change the matrix or factors
  of the pipe it starts from, and a prefix drawn on corpus spaces (the
  flip cowreath and its kZ2 lift, with union-find quotients, over QQ and
  GF(101)) and continued two ways must give the composites of two pipes
  run from the source.  The corpus reports and maps, and the reports of
  both corpus lifts, are pinned by digest, since the `LeafPipe` oracle
  changes with `Pipe`.
* Every change of bracketing is a pipe program on that level: `Pipe.done`
  into another bracketing refines to the leaves by sections and merges
  them by projections, and `Pipe.reverse` renumbers the rows into the
  reversed leaf order.  `regroup`, `associator`, `rev`, `mirror_map` and
  `Pipe.done` must equal the leaf-flat maps they replaced (`deep_pair`,
  `deep_project`, `deep_section` and the leaf-reversing permutation, kept
  here as the oracle) on generated spaces over kZ2 and kZ3, over QQ and
  GF(101), and on P (x) P (x) P of the kZ2/C2/D2 flip product.
* A `Pipe` stage multiplies by I_pre (x) F (x) I_post through
  `Matrix.padded_matmul`, which scatters rows instead of building the
  Kronecker product; it must equal that product, formed by `plain_matmul`
  rather than by `@`, which runs the same kernels (no empty row stored,
  identity marks kept), and the pipes must give the composites, reports
  and product maps of the plain stage on ladder rungs 1-4, on the corpus
  lifts and on generated stage sequences.
* `Space.project` and `Space.section` are built on first read; they must
  equal the maps of the eager loop, and a space that a pipe only ends in
  must build neither.
* `Pipe.apply` merges the factors it takes into their quotient by one
  projection stage per level, applies its map to that factor and refines
  the image into the factors it gives; `Pipe.done` merges into the
  target's quotient the same way, and `Space.project` is those merge
  stages on the identity.  Against `ProjectPipe` (one stage of
  cod.section @ f @ dom.project, and target.project at the end, with the
  eager loop's `project`), on generated programs over kZ2 and kZ3, QQ and
  GF(101) that take and give 1 to 3 factors and mix flat and non-flat
  levels, with three-factor and re-bracketed targets, and on
  P (x) P (x) P of the kZ2/C2/D2 flip product, the maps must be equal.  A
  flat level costs no stage (an `apply` over flat levels is one
  `padded_matmul`), and `marked` tests a `Transposed` on its columns
  without building its rows.
* When every unmarked R_k and L_k is monomial, `tensor_over` builds the
  column form of `project` from a weighted union-find over the flat
  columns instead of `Echelon`, scatters each inherited action through
  those columns and checks descent column by column.  Against the plain
  path (`echelon_oracle`: raw relations through `Echelon`, from_entries
  maps, plain Kronecker products, the raw-relation descent check), the
  relations, free columns, echelon rows, `project`, `section`, inherited
  actions and their marks, and descent errors with the echelon row they
  name must match.  Inputs: free monomial actions over QQ and GF(101)
  (one-term relations, inconsistent cycles, dead components, actions
  that do not descend), sums of regular bimodules of kZ2, kZ3, the
  modular kZ2 over GF(2) and kZ3 over GF(3), Sweedler's H4 (x^2 = 0),
  k[x]/(x^3) and M2, conjugated by diagonal matrices for weights other
  than +-1, their quotients of three factors, and every quotient of the
  corpus lifts.  Monomial input never calls `Echelon.add`, even when
  `relations` and `echelon` are read; other input still does.
* A union-find quotient keeps `project` as an `exactla.Monomial` (two flat
  lists), and with a monomial action builds project . K from those lists
  (`Monomial.after`), inherits its free columns (`columns`) and tests
  descent in one pass (`factors_through`).  A `Monomial` must read like
  the plain Matrix with its entries (`==`, `transpose`, `@` on either
  side, `kron`, `tapply`, `padded_matmul`, `marked`), and its kernels
  must match plain products.  Any other act goes through
  `Transposed.after`, one `padded_matmul` of the column dicts, which must
  equal M @ (I (x) act (x) I) with the plain Kronecker product on either
  side and in the middle.  Against `scatter_path` (project as a
  `Transposed` of column dicts, `plain_scatter`, the column loop
  `Transposed.after` replaced, and the pivot-by-pivot `_moved`),
  on generated inputs over kZ2 and kZ3, QQ and GF(101), with one-term
  kills, dead components, monomial actions that do not descend and
  actions with two entries in a column (which keep the scatter path), and
  on every corpus lift quotient, the maps, inherited actions, marks, pks
  handed to `kills` and descent errors must match.  A monomial pk that
  descends never builds its column dicts or rows.
* A pipe stage through a `Monomial` on a plain accumulated matrix takes
  the row kernel (`Matrix._padded_rows`), which scatters the rows of the
  accumulated matrix through the column dicts of the `Monomial`; it must
  equal `Matrix.padded_matmul` of the plain copy and the plain Kronecker
  product over QQ and GF(101), with dead columns, weights other than +-1,
  colliding targets that cancel, empty rows and a marked-identity operand,
  and a second stage through the same `Monomial` reuses the column dicts
  the first built.  Every non-flat `section` is a `Monomial`; on union-find
  and `Echelon` quotients and every corpus lift quotient it must equal the
  old {c: {t: 1}} section.  `after` for a right action (post = 1) reads
  both lists through one index list and must equal the plain product.
  Building and checking a corpus lift runs monomial stages, and none
  builds a `Monomial.transpose`.
* A monomial stage on a `Monomial` accumulated matrix (the list kernel,
  `Monomial._padded_lists`) keeps the matrix a `Monomial`: it moves each
  column to its new row and multiplies the weights, with no multiply by
  one.  On a marked identity it is the Kronecker product, and `kron` of a
  marked identity and a `Monomial` copies blocks of the lists.  It must equal `padded_matmul` of
  plain copies entry for entry, scalar types included, over QQ and
  GF(101), with zero columns in both, weights of +-1 and Fractions, pre
  and post of 1 and more, and a marked identity; and every corpus checker,
  broken twins, lifts, mirrored checks and `gp`, and ladder rungs, must
  give the same reports, witness text, structure maps and `Pipe.done`
  matrices with `plain_padded_matmul`, the kernel choice without it.
  `Matrix.monomial` keeps the form on the matrix, or that there is none,
  and reads a plain matrix by rows and a `Transposed` by columns.
* `Matrix.columns` picks columns of any matrix from its column dicts; a
  plain matrix, its `Transposed` and a marked identity must give
  M @ S for the 0/1 matrix S that picks them, repeats included, in
  column form, and the `Transposed` builds no row.  The per-element
  action matrices of `wreath.element_action_matrices`, the right action
  of `entwine.entwined_coring` and the `racts` of `check_doi_koppinen`
  are such columns; on a non-flat quotient over kZ2 the first must
  equal the plain product by e_i (x) I or I (x) e_i.
  `Monomial ==` compares lists with another `Monomial` or a marked
  identity and builds no dict; it must agree with plain equality both ways
  and across kinds, ignore dead weights, and leave `Monomial` unhashable.
* `coring.hom_basis` writes each constraint of a Hom space as one sparse
  equation in the unknown matrix instead of evaluating the checkers on
  maps; its basis must equal `oracle_hom_basis`, the kernel of the
  bilinearity residues and `is_colinear`'s piped coaction equations on
  every elementary matrix, for generated bimodules over kZ2 and kZ3 (QQ
  and GF(101)), corings over themselves as right and left comodules, both
  Hom spaces of the cowreath adjunction and the bicomodules of twist
  objects, over the field, the corpus kZ2 lifts and a kZ2 lift over GF(3).
* Lifts along an entwining are pipes over the ground-field legs A, C and
  N.  The lifted twist, xi and delta, and the comultiplication and counit
  of `entwined_coring`, must equal the flat Kronecker chains and embedding
  loops they replaced, kept here as the oracle, entry for entry.  Inputs:
  the corpus flip and Doi-Koppinen lifts, kZ3/C2/D2, kZ2/C3/D2, the
  kZ3/C3/D2 Doi-Koppinen lift, kZ2 over GF(2) and kZ3 over GF(3), and
  arbitrary twist, xi and delta over QQ and GF(101), which need not be
  lawful because the construction is linear in them.
* Every product runs on the two stage kernels: `@` of two unmarked
  matrices is `padded_matmul(1, 1, other)`, `kron` of two unmarked
  factors is (A (x) I)(I (x) B), one stage on the block copy I (x) B, and
  `apply` is `tapply`.  Over QQ and GF(101), for every pair of kinds
  (plain, plain monomial, `Transposed`, `Monomial`) and shapes 0-4, `@`
  must equal `plain_matmul`, `kron` the entry-by-entry products
  (`plain_kron`) and `apply` the entry sums (`plain_apply`), scalar types
  included, with vector keys outside the columns and marked identities.
  `Monomial @ Monomial`, and a plain monomial times a `Monomial`, is the
  list kernel's stage with pre = post = 1: a `Monomial` built with no
  dict, equal to the plain product with dead columns on either side, and
  a marked-identity operand returns the other one.  The corpus comparison
  without the list kernel multiplies plain copies there too.
* `compare_pipes` decides an equation between two pipes on a union-find
  level it does not build: it passes when the canonical `project` of
  `_union_find` kills lhs - rhs.  project @ vec == 0 must agree with
  reduction by the raw relations through `Echelon`, on generated monomial
  levels over QQ and GF(101) (one-term kills, inconsistent cycles,
  vectors in and out of the span, every unit vector) and on one case per
  rule, and `_decided` itself must agree with `Echelon` on every column
  of lhs - rhs, on weighted levels that it leaves unbuilt (every corpus
  tie has weight 1).  Every corpus
  checker, broken twins, lifts, mirrored checks and `gp`, and perturbed
  entwined corings and lifts, must give the same reports, witness text
  and errors with `_decided` forced off, and a leaf whose two actions do
  not commute must raise the `WellDefinednessError` of the built path.
  The `LeafPipe` oracle runs with the decision off.
* Every identity and twist law (`counit-*`, `coaction-counit`,
  `cw-counit`, `cw-twist`, `cw-abstract-counit-*`, `comodule-counit`,
  `w-unit`, `w-twist`, `wm-unit`, `mt-action-unit`) goes through
  `compare_pipes`, with the source pipe, unstaged or with one twist, as
  its right-hand side.  The old form, the left pipe finished by hand and
  compared by `compare_maps` with the identity of its source quotient or
  with the twist, is the oracle: the witnesses of those tags must be
  equal on the corpus sessions over QQ and GF(101), the flip lift and its
  product, and on twins with one structure map perturbed, and all fifteen
  sites must be reached.
* The entwining laws (`entwine-*`), the Doi-Koppinen coaction and action
  laws (`comodule-coassoc`, `comodule-counit`, `action-comult`,
  `action-counit`) and the R-algebra laws (`alg-*`) are pairs of pipes
  through `compare_pipes`.  Their former forms are the oracle: flat `kron`
  chains compared on the legs' quotients, and finished products of
  morphisms followed by mu, with `regroup` for associativity.  The
  reports of those eleven tags must be equal, statuses, witness text and
  order included, on the corpus entwinings parsed over QQ and GF(101),
  on kZn acting and coacting on itself (n = 2, 3), and on twins with psi,
  the twist, the coaction, the action, eta or mu perturbed.
  `r_tensor_morphisms`, which merges (N1, N2) before it finishes, must
  give the map of the former program.  `LeafPipe` merges by renaming its
  factors.
* `compare_pipes(rep, tag, lhs, rhs)` keeps each finished map on its pipe,
  and two pipes on the same factors keep their own.  A twist object's
  pipes are kept on it, so a cowreath and its self comodule build the
  source pipe of C (x) M once.  A pipe finished into a space with other
  leaves raises, even when its matrix is still its source's section.
* The product of a wreath and the left action of the dual comparison are
  one pipe program, and T's right action on Y (x) T is read from
  `pt_bimodule(y)`; the former `l-dual` and `r-dual` programs are the
  oracle, on the regular module and on twins with its action or twist
  perturbed.  Neither the dual comparison nor the bimodule twisting check
  runs `check_algebra`.
"""

import copy
import functools
import hashlib
import json
import os
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from coringlab import bimodule, coring, exactla, ore
from coringlab.algebra import (
    AlgebraMorphism,
    FinAlgebra,
    field_algebra,
    group_algebra_cyclic,
    matrix_algebra,
    truncated_poly_algebra,
)
from coringlab.bimodule import (
    Bimodule,
    LinearMap,
    TensorQuotient,
    _contract_matrix,
    associator,
    bilinearity_report,
    clear_caches,
    k_bimodule,
    leaf_factors,
    memo,
    mirror,
    mirror_map,
    regroup,
    regular_bimodule,
    rev,
    space,
    tensor_maps,
    tensor_over,
)
from coringlab.coring import (Coring, check_coring, check_coring_morphism, compare_maps,
                             hom_basis)
from coringlab.corpus import Corpus
from coringlab.exactla import GF, QQ, Echelon, Matrix, _canon, solve
from coringlab.ore import (
    OreTwistTable,
    SkewPolyData,
    check_ore_wreath,
    ore_universal_check,
    ore_vs_wreath_product,
    twist_vs_skew_mul,
)
from coringlab.reports import (
    InputError,
    PreconditionFailure,
    Report,
    WellDefinednessError,
)
from coringlab.session import parse_session

FIELDS = [QQ, GF(101)]
QQ_VALUES = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(max_denominator=50),
)


def plain_identity(field, n):
    """The identity matrix without the identity mark."""
    return Matrix(field, n, n, {i: {i: field.one()} for i in range(n)})


def unmarked(m):
    return Matrix(m.field, m.rows, m.cols, m.data)


@st.composite
def sparse_matrix(draw, field):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return draw(shaped_matrix(field, rows, cols))


@st.composite
def shaped_matrix(draw, field, rows, cols):
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, max(rows - 1, 0)),
                  st.integers(0, max(cols - 1, 0))),
        st.one_of(st.integers(-6, 6), st.fractions(max_denominator=7)),
        max_size=min(rows * cols, 30)))
    return Matrix.from_entries(
        field, rows, cols, {k: field.parse(v) for k, v in entries.items()})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_identity_matmul_matches_plain(field, data):
    m = data.draw(sparse_matrix(field))
    left, right = Matrix.identity(field, m.rows), Matrix.identity(field, m.cols)
    assert left @ m == plain_identity(field, m.rows) @ m
    assert m @ right == m @ plain_identity(field, m.cols)
    assert (left @ m).rows == m.rows and (m @ right).cols == m.cols
    with pytest.raises(InputError):
        Matrix.identity(field, m.rows + 1) @ m


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 4))
def test_identity_kron_matches_plain(field, data, n):
    m = data.draw(sparse_matrix(field))
    ident, plain = Matrix.identity(field, n), plain_identity(field, n)
    for fast, slow in ((ident.kron(m), plain_kron(plain, m)),
                       (m.kron(ident), plain_kron(m, plain))):
        assert fast == slow
        assert (fast.rows, fast.cols) == (slow.rows, slow.cols)
        assert all(fast.data.values())
    both = ident.kron(Matrix.identity(field, m.rows))
    assert both.is_identity
    assert both == plain_kron(plain, plain_identity(field, m.rows))


def test_only_identity_is_marked():
    assert Matrix.identity(QQ, 3).is_identity
    assert not plain_identity(QQ, 3).is_identity
    assert not Matrix.identity(QQ, 3).scale(QQ.one()).is_identity


def _plain_project_section(tq):
    """project and section of tq as the from_entries construction builds
    them from the echelon form of the balancing relations."""
    f = tq.field
    flat = tq.factor_left.dim * tq.factor_right.dim
    pos = {c: t for t, c in enumerate(tq.free_cols)}
    entries = {(t, c): f.one() for t, c in enumerate(tq.free_cols)}
    for p, row in tq.echelon.pivot_rows.items():
        for c, v in row.items():
            entries[(pos[c], p)] = f.neg(v)
    project = Matrix.from_entries(f, tq.dim, flat, entries)
    section = Matrix.from_entries(
        f, flat, tq.dim, {(c, t): f.one() for t, c in enumerate(tq.free_cols)})
    return project, section


def _check_against_plain(tq):
    """tq's maps and inherited actions equal the plain products, and an
    inherited action is marked exactly when its input action is the
    identity (on the inputs checked here no other inherited action is)."""
    project, section = _plain_project_section(tq)
    assert tq.project == project and tq.section == section
    assert (tq.project.rows, tq.project.cols) == (project.rows, project.cols)
    assert tq.project.is_identity == tq.section.is_identity == (not tq.relations)
    m, n = tq.factor_left, tq.factor_right
    for k, act in enumerate(tq.left_action):
        given = m.left_action[k]
        plain = plain_identity(tq.field, n.dim)
        assert act == project @ unmarked(given).kron(plain) @ section
        assert act.is_identity == (unmarked(given) == plain_identity(tq.field, m.dim))
    for k, act in enumerate(tq.right_action):
        given = n.right_action[k]
        plain = plain_identity(tq.field, m.dim)
        assert act == project @ plain.kron(unmarked(given)) @ section
        assert act.is_identity == (unmarked(given) == plain_identity(tq.field, n.dim))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(dm=st.integers(1, 4), dn=st.integers(1, 4), g=st.integers(1, 3))
def test_flat_tensor_over_matches_from_entries(field, dm, dn, g):
    clear_caches()
    k = field_algebra(field)
    group = regular_bimodule(group_algebra_cyclic(field, g))
    ident = Matrix.identity(field, group.dim)
    # kZ/g acting on the left, k on the right: a flat quotient with a
    # nontrivial inherited left action
    m = Bimodule(group.left_algebra, k, group.dim, group.left_action, [ident],
                 name="G")
    tq = tensor_over(k, m, k_bimodule(k, dn))
    assert not tq.relations and tq.dim == group.dim * dn
    _check_against_plain(tq)
    _check_against_plain(tensor_over(k, k_bimodule(k, dm), k_bimodule(k, dn)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_tensor_over_with_relations_matches_from_entries(field):
    clear_caches()
    reg = regular_bimodule(group_algebra_cyclic(field, 2))
    tq = tensor_over(reg.right_algebra, reg, reg)
    assert tq.relations
    _check_against_plain(tq)


def _sparse_vector(field, n):
    return st.dictionaries(
        st.integers(0, max(n - 1, 0)), st.integers(1, 6).map(field.from_int),
        max_size=n)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(0, 6))
def test_lazy_identity_matches_from_entries(field, data, n):
    def lazy():
        # a fresh identity for each reader, so that each read is the first
        return Matrix.identity(field, n)

    plain = Matrix.from_entries(field, n, n, {(i, i): field.one() for i in range(n)})
    assert lazy() == plain and plain == lazy()
    assert lazy().data == plain.data
    assert lazy().to_rows() == plain.to_rows()
    assert lazy().transpose() == plain.transpose()
    assert lazy().nnz() == plain.nnz() == n
    vec = data.draw(_sparse_vector(field, n))
    assert lazy().apply(vec) == plain.apply(vec) == vec
    assert lazy().tapply(vec) == plain.tapply(vec) == vec
    m = data.draw(sparse_matrix(field))
    assert lazy().kron(m) == plain.kron(m)
    assert m.kron(lazy()) == m.kron(plain)
    assert m.kron(lazy()).data == m.kron(plain).data


def test_identity_of_negative_size_is_input_error():
    with pytest.raises(InputError):
        Matrix.identity(QQ, -1)
    assert Matrix.identity(QQ, 0).data == {}


def plain_tensor_relations(a, m, n):
    """The balancing relations of M (x)_A N and their echelon form, built
    without fast paths: every basis element of A, every (i, j), columns
    read with `Matrix.col`."""
    f = m.field
    dn = n.dim
    ech = Echelon(f, m.dim * dn)
    relations = []
    for k in range(a.dim):
        for i in range(m.dim):
            for j in range(dn):
                rel = {p * dn + j: v for p, v in m.right_action[k].col(i).items()}
                for q, w in n.left_action[k].col(j).items():
                    u = f.sub(rel.get(i * dn + q, f.zero()), w)
                    if f.is_zero(u):
                        rel.pop(i * dn + q, None)
                    else:
                        rel[i * dn + q] = u
                if rel:
                    relations.append(rel)
                    ech.add(rel)
    return relations, ech


def raw_descent_message(m, n, relations, ech):
    """The message of the descent check run on every raw relation, or None
    when both inherited actions descend."""
    f, name = m.field, f"({m.name}(x){n.name})"
    for k, act in enumerate(m.left_action):
        big = unmarked(act).kron(plain_identity(f, n.dim))
        if any(ech.reduce(big.apply(rel)) for rel in relations):
            return (f"left action of {m.left_algebra.labels[k]} does not "
                    f"descend to {name}")
    for k, act in enumerate(n.right_action):
        big = plain_identity(f, m.dim).kron(unmarked(act))
        if any(ech.reduce(big.apply(rel)) for rel in relations):
            return (f"right action of {n.right_algebra.labels[k]} does not "
                    f"descend to {name}")
    return None


def echelon_descent_relation(m, n, ech):
    """The first echelon row, in the order `tensor_over` checks them, that
    the plain Kronecker product of an action does not keep in the relation
    span; every action is checked, marked or not.  None when all descend."""
    f = m.field
    rows = [ech.full_row(p) for p in ech.pivots()]
    bigs = [unmarked(act).kron(plain_identity(f, n.dim)) for act in m.left_action]
    bigs += [plain_identity(f, m.dim).kron(unmarked(act)) for act in n.right_action]
    for big in bigs:
        for row in rows:
            if ech.reduce(big.apply(row)):
                return row
    return None


def _block_diag(field, mats):
    entries, off = {}, 0
    for mat in mats:
        for i, row in mat.data.items():
            for j, v in row.items():
                entries[(off + i, off + j)] = v
        off += mat.rows
    return Matrix.from_entries(field, off, off, entries)


@st.composite
def change_of_basis(draw, field, d):
    """An invertible P, a permuted unitriangular matrix with entries in
    {-1, 0, 1}, and its inverse."""
    perm = draw(st.permutations(range(d)))
    entries = {(perm[i], i): field.one() for i in range(d)}
    for i in range(d):
        for j in range(i):
            entries[(perm[i], j)] = field.from_int(draw(st.integers(-1, 1)))
    p = Matrix.from_entries(field, d, d, entries)
    return p, solve(p, plain_identity(field, d))


@st.composite
def side_bimodule(draw, field, base, base_on_right, name):
    """A bimodule with `base` acting on the right (or left) side.

    Over kZ/g it is a sum of copies of the regular bimodule.  Over the
    ground field the base acts by a marked or a plain identity and a group
    algebra kZ/h acts on the other side.  Either may be written in a random
    basis.  `Bimodule` marks every action equal to the identity, so the
    base's action over the ground field and the unit's actions reach
    `tensor_over` marked whether they were given plain, marked or
    conjugated.
    """
    copies = draw(st.integers(1, 2))
    if base.dim == 1:
        other = group_algebra_cyclic(field, draw(st.integers(1, 3)))
        reg = regular_bimodule(other)
        d = copies * other.dim
        acts = reg.left_action if base_on_right else reg.right_action
        other_act = [_block_diag(field, [x] * copies) for x in acts]
        ident = (Matrix.identity if draw(st.booleans()) else plain_identity)(field, d)
        if base_on_right:
            left, right, la, ra = other, base, other_act, [ident]
        else:
            left, right, la, ra = base, other, [ident], other_act
    else:
        reg = regular_bimodule(base)
        d = copies * base.dim
        left = right = base
        la = [_block_diag(field, [x] * copies) for x in reg.left_action]
        ra = [_block_diag(field, [x] * copies) for x in reg.right_action]
    if draw(st.booleans()):
        p, p_inv = draw(change_of_basis(field, d))
        la = [p_inv @ x @ p for x in la]
        ra = [p_inv @ x @ p for x in ra]
    return Bimodule(left, right, d, la, ra, name=name)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), g=st.integers(1, 3))
def test_tensor_over_matches_plain_construction(field, data, g):
    clear_caches()
    base = field_algebra(field) if g == 1 else group_algebra_cyclic(field, g)
    m = data.draw(side_bimodule(field, base, True, "M"))
    n = data.draw(side_bimodule(field, base, False, "N"))
    relations, ech = plain_tensor_relations(base, m, n)
    assert raw_descent_message(m, n, relations, ech) is None
    tq = tensor_over(base, m, n)
    assert tq.relations == relations
    assert tq.free_cols == ech.free_columns()
    assert tq.echelon.pivot_rows == ech.pivot_rows
    _check_against_plain(tq)
    # a quotient of a quotient: its factor's inherited actions are the
    # input actions, marked where the plain products are the identity
    p = data.draw(side_bimodule(field, tq.right_algebra, False, "P"))
    nested = space(m, n, p).quotient
    assert nested.factor_left is tq
    relations, ech = plain_tensor_relations(tq.right_algebra, tq, p)
    assert raw_descent_message(tq, p, relations, ech) is None
    assert nested.relations == relations
    assert nested.free_cols == ech.free_columns()
    _check_against_plain(nested)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_descent_failure_matches_raw_relation_check(field, side):
    clear_caches()
    a = group_algebra_cyclic(field, 2)
    reg = regular_bimodule(a)
    ident = Matrix.identity(field, 2)
    # diag(1, -1) does not commute with the regular action of g, which
    # swaps the basis
    twist = Matrix.from_entries(field, 2, 2, {(0, 0): field.one(),
                                              (1, 1): field.neg(field.one())})
    if side == "left":
        m = Bimodule(a, a, 2, [ident, twist], reg.right_action, name="M")
        n = Bimodule(a, a, 2, reg.left_action, reg.right_action, name="N")
    else:
        m = Bimodule(a, a, 2, reg.left_action, reg.right_action, name="M")
        n = Bimodule(a, a, 2, reg.left_action, [ident, twist], name="N")
    relations, ech = plain_tensor_relations(a, m, n)
    expected = raw_descent_message(m, n, relations, ech)
    assert expected is not None and expected.startswith(side)
    with pytest.raises(WellDefinednessError) as err:
        tensor_over(a, m, n)
    assert str(err.value) == expected
    assert err.value.relation in [ech.full_row(p) for p in ech.pivots()]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_non_identity_unit_action_is_descent_checked(field, monkeypatch):
    """The unit of kZ2 acting by an idempotent other than the identity: the
    skips are keyed on the matrix, not on the algebra's unit."""
    clear_caches()
    a = group_algebra_cyclic(field, 2)
    n = regular_bimodule(a)
    # kZ2 (+) k: on the left the unit acts by diag(1, 1, 0) and g swaps m0
    # and m1 and kills m2; on the right the unit acts by the identity and g
    # swaps m0 and m1 and fixes m2
    unit = Matrix.from_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    g = Matrix.from_rows(field, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    g_right = Matrix.from_rows(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    m = Bimodule(a, a, 3, [unit, g], [plain_identity(field, 3), g_right],
                 name="M")
    assert not m.left_action[0].is_identity and m.right_action[0].is_identity
    checked = []
    real = TensorQuotient.kills

    def spy(self, mat):
        checked.append(mat)
        return real(self, mat)

    monkeypatch.setattr(TensorQuotient, "kills", spy)
    relations, ech = plain_tensor_relations(a, m, n)
    assert raw_descent_message(m, n, relations, ech) is None
    tq = tensor_over(a, m, n)
    assert tq.relations == relations
    project, _ = _plain_project_section(tq)
    unit_pk = project @ unmarked(unit).kron(plain_identity(field, n.dim))
    assert any(mat == unit_pk for mat in checked)
    _check_against_plain(tq)
    assert not tq.left_action[0].is_identity

    # with the unit idempotent on the right too, its relations m2 (x) n = 0
    # are built; the quotient kills m2, so the inherited unit action is the
    # identity there and construction marks it
    m = Bimodule(a, a, 3, [unit, g], [unit, g], name="M")
    relations, ech = plain_tensor_relations(a, m, n)
    tq = tensor_over(a, m, n)
    assert tq.relations == relations
    assert {2 * n.dim: field.neg(field.one())} in tq.relations
    project, section = _plain_project_section(tq)
    plain = plain_identity(field, n.dim)
    assert tq.left_action[0] == project @ unmarked(unit).kron(plain) @ section
    assert tq.left_action[0].is_identity

    # an idempotent that moves m2 onto m0 does not descend
    bad = Matrix.from_rows(field, [[1, 0, 1], [0, 1, 0], [0, 0, 0]])
    m = Bimodule(a, a, 3, [bad, g], [unit, g], name="M")
    assert not m.left_action[0].is_identity
    relations, ech = plain_tensor_relations(a, m, n)
    expected = raw_descent_message(m, n, relations, ech)
    assert expected == "left action of 1 does not descend to (M(x)k[Z/2])"
    with pytest.raises(WellDefinednessError) as err:
        tensor_over(a, m, n)
    assert str(err.value) == expected
    assert err.value.relation == echelon_descent_relation(m, n, ech)


def _assert_canonical(x, expected: Fraction):
    assert x == expected
    if expected.denominator == 1:
        assert type(x) is int
    else:
        assert type(x) is Fraction


@settings(max_examples=200, deadline=None)
@given(QQ_VALUES, QQ_VALUES)
def test_qq_arithmetic_matches_fraction(a, b):
    x, y = QQ.parse(a), QQ.parse(b)
    fa, fb = Fraction(a), Fraction(b)
    _assert_canonical(x, fa)
    _assert_canonical(QQ.add(x, y), fa + fb)
    _assert_canonical(QQ.sub(x, y), fa - fb)
    _assert_canonical(QQ.mul(x, y), fa * fb)
    _assert_canonical(QQ.neg(x), -fa)
    if fb:
        _assert_canonical(QQ.div(x, y), fa / fb)
        _assert_canonical(QQ.inv(y), 1 / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(y)
        with pytest.raises(ZeroDivisionError):
            QQ.div(x, y)


@settings(max_examples=100, deadline=None)
@given(QQ_VALUES)
def test_qq_parse_text_and_fmt(a):
    fa = Fraction(a)
    _assert_canonical(QQ.parse(str(fa)), fa)
    _assert_canonical(QQ.parse(f"{fa.numerator * 3}/{fa.denominator * 3}"), fa)
    assert QQ.fmt(QQ.parse(a)) == str(fa)


def test_qq_constants_are_canonical_ints():
    for x in (QQ.zero(), QQ.one(), QQ.from_int(-7), QQ.parse(True),
              QQ.parse(Fraction(6, 3)), QQ.parse("2.0")):
        assert type(x) is int
    assert QQ.parse(True) == 1 and QQ.parse(False) == 0
    _assert_canonical(QQ.parse(0.5), Fraction(1, 2))


@pytest.mark.parametrize("text", ["1/0", "x", "", "1/2/3", None, "nan"])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_bad_scalar_text_is_input_error(field, text):
    with pytest.raises(InputError, match="bad scalar"):
        field.parse(text)


def test_gf_denominator_divisible_by_p_is_input_error():
    with pytest.raises(InputError, match="1/5"):
        GF(5).parse("1/5")
    with pytest.raises(InputError):
        GF(5).parse(Fraction(2, 15))
    assert GF(5).parse("3/2") == 4


# ---------------------------------------------------------------------------
# axpy against the plain field loop


def plain_axpy(field, target, src, coeff):
    """target += coeff * src through `field.add` and `field.mul`."""
    if field.is_zero(coeff):
        return target
    for j, v in src.items():
        w = field.add(target.get(j, field.zero()), field.mul(coeff, v))
        if field.is_zero(w):
            target.pop(j, None)
        else:
            target[j] = w
    return target


@st.composite
def axpy_case(draw, field):
    """(target, src, coeff) over field.  Part of src is drawn as the exact
    negative of target / coeff, so some sums cancel; over QQ the scalars
    are Fractions with small denominators, so some sums become integral."""
    scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)).map(field.parse)
    idx = st.integers(0, 7)
    target = {j: v for j, v in draw(st.dictionaries(idx, scalar)).items() if v}
    src = {j: v for j, v in draw(st.dictionaries(idx, scalar)).items() if v}
    coeff = draw(st.one_of(st.just(field.zero()), scalar))
    if not field.is_zero(coeff):
        for j in draw(st.lists(st.sampled_from(sorted(target)), unique=True)
                      if target else st.just([])):
            src[j] = field.neg(field.div(target[j], coeff))
    return target, src, coeff


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_axpy_matches_plain_field_loop(field, data):
    target, src, coeff = data.draw(axpy_case(field))
    expected = plain_axpy(field, dict(target), src, coeff)
    got = dict(target)
    assert field.axpy(got, src, coeff) is got
    assert got == expected
    assert all(not field.is_zero(v) for v in got.values())
    for v in got.values():
        assert type(v) is (int if field != QQ or Fraction(v).denominator == 1
                           else Fraction)
    if field.is_zero(coeff):
        assert got == target


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_free_columns_match_plain_scan(field, data):
    ncols = data.draw(st.integers(0, 8))
    ech = Echelon(field, ncols)
    vecs = data.draw(st.lists(st.dictionaries(
        st.integers(0, max(ncols - 1, 0)), st.integers(-3, 3).map(field.parse),
        max_size=ncols), max_size=4))
    for vec in vecs:
        ech.add({c: v for c, v in vec.items() if not field.is_zero(v)})
    plain = tuple(c for c in range(ncols) if c not in ech.pivot_rows)
    assert ech.free_columns() == plain


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_free_columns_with_and_without_pivots(field):
    ech = Echelon(field, 5)
    assert ech.free_columns() == (0, 1, 2, 3, 4)
    ech.add({1: field.one(), 3: field.from_int(2)})
    assert ech.free_columns() == (0, 2, 3, 4)
    assert Echelon(field, 0).free_columns() == ()


def plain_kernel(ech):
    """The canonical kernel basis by the loop `kernel_basis` ran before
    `Echelon.kernel`: each free column against every pivot row."""
    f = ech.field
    free = ech.free_columns()
    data = {}
    for t, c in enumerate(free):
        data.setdefault(c, {})[t] = f.one()
        for p, row in ech.pivot_rows.items():
            if c in row:
                data.setdefault(p, {})[t] = f.neg(row[c])
    return Matrix(f, ech.ncols, len(free), data)


@st.composite
def echelon_rows(draw, field, ncols):
    """Rows for an `Echelon` on ncols >= 1 columns: a mix of empty rows,
    unit rows (pivots whose rows are empty) and sparse rows; a full-rank
    triangle in shuffled order; or empty rows only (the zero matrix)."""
    kind = draw(st.sampled_from(["mixed", "full", "zero"]))
    scalar = nonzero_scalars(field).map(field.parse)
    if kind == "zero":
        return [{}] * draw(st.integers(0, 3))
    if kind == "full":
        return draw(st.permutations([{**draw(st.dictionaries(
            st.integers(c, ncols - 1), scalar, max_size=2)), c: draw(scalar)}
            for c in range(ncols)]))
    col = st.integers(0, ncols - 1)
    return draw(st.lists(st.one_of(
        st.just({}), col.map(lambda c: {c: field.one()}),
        st.dictionaries(col, scalar, max_size=ncols)), max_size=5))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_echelon_kernel_matches_free_pivot_scan(field, data):
    """`Echelon.kernel`, one pass over the pivot rows, equals the scan of
    every free column against every pivot row, stores no empty row and is
    killed by every row fed in; `kernel_basis` of those rows is it too.
    `Echelon.from_reduced` of the reduced rows indexes them as `add` did."""
    ncols = data.draw(st.integers(1, 6))
    rows = data.draw(echelon_rows(field, ncols))
    ech = Echelon(field, ncols, rows)
    got = ech.kernel()
    assert got == plain_kernel(ech) and all(got.data.values())
    assert got.cols == ncols - len(ech.pivot_rows)
    m = Matrix(field, len(rows), ncols, {i: r for i, r in enumerate(rows) if r})
    assert (m @ got).is_zero()
    assert exactla.kernel_basis(m) == got
    same = Echelon.from_reduced(field, ncols, {p: dict(r) for p, r in ech.pivot_rows.items()})
    assert same.pivot_rows == ech.pivot_rows and same.touch == ech.touch


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_echelon_kernel_cases(field, monkeypatch):
    """No columns give an empty kernel, and the zero matrix the identity; a
    unit row is a pivot with an empty row and no kernel entry; an `Echelon`
    built with rows adds each non-empty one, in order, and skips the rest."""
    added = []
    real = Echelon.add

    def spy(self, vec):
        added.append(dict(vec))
        return real(self, vec)

    monkeypatch.setattr(Echelon, "add", spy)
    one, two = field.one(), field.from_int(2)
    assert Echelon(field, 0).kernel() == Matrix(field, 0, 0)
    assert Echelon(field, 3, [{}, {}]).kernel() == plain_identity(field, 3)
    assert added == []
    ech = Echelon(field, 3, [{1: one}, {}, {0: one, 2: two}])
    assert added == [{1: one}, {0: one, 2: two}]
    assert ech.pivot_rows == {1: {}, 0: {2: two}}
    assert ech.kernel().data == {0: {0: field.neg(two)}, 2: {0: one}}


def test_axpy_cancels_and_canonicalizes():
    half, third = Fraction(1, 2), Fraction(1, 3)
    target = {0: half, 1: third, 2: 5}
    QQ.axpy(target, {0: half, 1: -third, 3: Fraction(3, 4)}, 1)
    assert target == {0: 1, 2: 5, 3: Fraction(3, 4)}
    assert type(target[0]) is int
    assert QQ.axpy(target, {2: half}, 0) == {0: 1, 2: 5, 3: Fraction(3, 4)}
    gf = GF(101)
    target = {0: 3, 1: 100}
    gf.axpy(target, {0: 98, 1: 1, 2: 50}, 1)
    assert target == {2: 50}
    assert gf.axpy(target, {2: 7}, 101) == {2: 50}


# -- the QQ kernels that skip arithmetic with 0 and +-1 ------------------------

QQ_AXPY_KINDS = ["empty-target", "one", "minus-one", "integral-products"]


def _assert_canonical_qq(values):
    for v in values:
        assert v and type(v) is (int if Fraction(v).denominator == 1 else Fraction)


@st.composite
def qq_axpy_case(draw, kind):
    """(target, src, coeff) over QQ for one fast path of `RationalField.axpy`:
    an empty target, a coefficient of 1 or -1, or a Fraction coefficient
    p/q whose product with every src entry is integral (the entries are
    k q / p).  Except for the last kind, part of src is the exact negative
    of target / coeff, so some sums cancel."""
    scalar = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)).map(QQ.parse)
    idx = st.integers(0, 7)
    target = {} if kind == "empty-target" else {
        j: v for j, v in draw(st.dictionaries(idx, scalar)).items() if v}
    if kind == "integral-products":
        coeff = draw(st.builds(Fraction, st.integers(-6, 6).filter(bool),
                               st.integers(2, 7)).filter(lambda c: c.denominator > 1))
        ks = draw(st.dictionaries(idx, st.integers(-6, 6).filter(bool)))
        return target, {j: QQ.div(k * coeff.denominator, coeff.numerator)
                        for j, k in ks.items()}, coeff
    coeff = {"one": 1, "minus-one": -1}.get(kind) or draw(scalar.filter(bool))
    src = {j: v for j, v in draw(st.dictionaries(idx, scalar)).items() if v}
    for j in draw(st.lists(st.sampled_from(sorted(target)), unique=True)
                  if target else st.just([])):
        src[j] = QQ.neg(QQ.div(target[j], coeff))
    return target, src, coeff


@pytest.mark.parametrize("kind", QQ_AXPY_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_qq_axpy_fast_paths_match_plain_field_loop(kind, data):
    target, src, coeff = data.draw(qq_axpy_case(kind))
    expected = plain_axpy(QQ, dict(target), src, coeff)
    got = dict(target)
    assert QQ.axpy(got, src, coeff) is got
    assert got == expected
    _assert_canonical_qq(got.values())
    if kind == "integral-products":
        assert all(type(got[j]) is int for j in src.keys() - target.keys())


def test_qq_axpy_fast_paths_cases():
    half, third = Fraction(1, 2), Fraction(1, 3)
    # new entries: the product alone, integral ones as ints
    got = QQ.axpy({}, {0: Fraction(3, 2), 1: half}, Fraction(2, 3))
    assert got == {0: 1, 1: third} and type(got[0]) is int
    # +-1 copies or negates, and still cancels and canonicalizes sums
    assert QQ.axpy({0: half, 1: third}, {0: half, 1: -third, 2: 4}, 1) == {0: 1, 2: 4}
    assert QQ.axpy({0: half, 1: 2}, {0: half, 1: 1, 2: third}, -1) == {1: 1, 2: -third}
    # an entry of src that is a stored zero stores nothing
    assert QQ.axpy({}, {0: 0, 1: half}, Fraction(2, 3)) == {1: third}
    assert QQ.axpy({}, {0: 0}, 1) == {}


@settings(max_examples=100, deadline=None)
@given(st.one_of(QQ_VALUES, st.sampled_from([1, -1])).filter(bool))
def test_qq_inv_matches_fraction(a):
    x = QQ.parse(a)
    expected = _canon(Fraction(1, x))
    got = QQ.inv(x)
    assert got == expected and type(got) is type(expected)


def test_qq_inv_of_unit_is_the_int():
    for a in (1, -1):
        assert type(QQ.inv(a)) is int and QQ.inv(a) == a
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def plain_vec_scale(field, src, coeff):
    if field.is_zero(coeff):
        return {}
    return {j: field.mul(coeff, v) for j, v in src.items()}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_vec_scale_matches_plain_loop(field, data):
    scalar = st.fractions(max_denominator=7).map(field.parse)
    src = data.draw(st.dictionaries(st.integers(0, 5), scalar.filter(bool)))
    coeff = data.draw(st.one_of(st.sampled_from([0, 1, -1]).map(field.parse), scalar))
    got = field.scaled(src, coeff)
    assert got == plain_vec_scale(field, src, coeff)
    assert got is not src
    if field == QQ:
        _assert_canonical_qq(got.values())


def test_vec_scale_by_one_is_a_copy():
    src = {0: Fraction(1, 2), 3: 5}
    out = QQ.scaled(src, 1)
    assert out == src and out is not src


def plain_scaled(field, src, coeff):
    """coeff * src the plain way: the field loop of `plain_axpy` into an
    empty dict, as every output row of `@` started before `scaled`."""
    return plain_axpy(field, {}, src, coeff)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scaled_matches_plain_loop(field, data):
    scalar = st.fractions(max_denominator=7).map(field.parse)
    src = data.draw(st.dictionaries(st.integers(0, 5),
                                    scalar.filter(lambda v: not field.is_zero(v))))
    coeff = data.draw(st.one_of(
        st.sampled_from([0, 1, -1, 3, -7]).map(field.parse), scalar))
    before = dict(src)
    got = field.scaled(src, coeff)
    assert got == plain_scaled(field, src, coeff) == plain_vec_scale(field, src, coeff)
    assert got is not src and src == before
    if field == QQ:
        _assert_canonical_qq(got.values())
    else:
        assert all(type(v) is int and 0 < v < field.p for v in got.values())


def test_scaled_cases():
    half = Fraction(1, 2)
    src = {0: Fraction(3, 2), 2: 4, 5: half}
    assert QQ.scaled(src, 0) == {}
    assert QQ.scaled(src, 1) == src and QQ.scaled(src, 1) is not src
    assert QQ.scaled(src, -1) == {0: Fraction(-3, 2), 2: -4, 5: -half}
    assert QQ.scaled(src, 6) == {0: 9, 2: 24, 5: 3}
    got = QQ.scaled(src, Fraction(2, 3))
    assert got == {0: 1, 2: Fraction(8, 3), 5: Fraction(1, 3)}
    assert type(got[0]) is int
    gf = GF(7)
    assert gf.scaled({0: 3, 1: 6}, 0) == gf.scaled({0: 3}, 14) == {}
    assert gf.scaled({0: 3, 1: 6}, -1) == {0: 4, 1: 1}
    assert gf.scaled({0: 3, 1: 6}, 12) == {0: 1, 1: 2}


def plain_matmul(a, b):
    """a @ b entry by entry, through `field.add` and `field.mul`."""
    f = a.field
    data = {}
    for i in range(a.rows):
        for j in range(b.cols):
            acc = f.zero()
            for k in range(a.cols):
                acc = f.add(acc, f.mul(a.entry(i, k), b.entry(k, j)))
            if not f.is_zero(acc):
                data.setdefault(i, {})[j] = acc
    return Matrix(f, a.rows, b.cols, data)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_matmul_drops_rows_that_cancel(field):
    """Row 0 of a takes rows 0 and 1 of b, which are negatives, equally: it
    cancels and is not stored.  Row 1 starts as a copy of row 0 of b."""
    p = field.parse
    a = Matrix(field, 2, 2, {0: {0: p("1/2"), 1: p("1/2")}, 1: {0: 1}})
    b = Matrix(field, 2, 3, {0: {0: p("2/3"), 2: 3}, 1: {0: p("-2/3"), 2: p(-3)}})
    got = a @ b
    assert got.data == {1: {0: p("2/3"), 2: 3}}
    assert got.data[1] is not b.data[0]


KINDS = ["plain", "plain monomial", "transposed", "monomial"]


@st.composite
def kind_matrix(draw, field, rows, cols, kind):
    """A rows x cols matrix of one kind: plain, plain with at most one
    entry per column, in column form (`Transposed`) or a `Monomial`; the
    monomial kinds have zero columns and weights of +-1 and Fractions."""
    if kind in ("plain monomial", "monomial"):
        tgt, wt = draw(kernel_lists(field, rows, cols))
        if kind == "monomial":
            return exactla.Monomial(field, rows, tgt, wt)
        return plain_of(field, rows, tgt, wt)
    m = draw(shaped_matrix(field, rows, cols))
    if kind == "plain":
        return m
    return exactla.Transposed(Matrix(field, cols, rows, m.transpose().data))


def plain_kron(a, b):
    """a (x) b entry by entry, through `field.mul`."""
    f = a.field
    data = {}
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            for i2 in range(b.rows):
                for j2 in range(b.cols):
                    v = f.mul(a.entry(i1, j1), b.entry(i2, j2))
                    if not f.is_zero(v):
                        data.setdefault(i1 * b.rows + i2, {})[j1 * b.cols + j2] = v
    return Matrix(f, a.rows * b.rows, a.cols * b.cols, data)


def plain_apply(m, vec):
    """m times the sparse vector vec entry by entry, through `field.add`
    and `field.mul`; a key of vec outside the columns of m adds nothing."""
    f = m.field
    out = {}
    for i in range(m.rows):
        acc = f.zero()
        for j, v in vec.items():
            acc = f.add(acc, f.mul(m.entry(i, j), v))
        if not f.is_zero(acc):
            out[i] = acc
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=120, deadline=None)
@given(data=st.data(), ka=st.sampled_from(KINDS), kb=st.sampled_from(KINDS))
def test_unmarked_kron_matches_entry_products(field, data, ka, kb):
    """`kron` of two unmarked factors, (A (x) I)(I (x) B) through the stage
    kernels, equals the entry-by-entry products, scalar types included,
    for every pair of kinds and shapes 0-4, and stores no empty row; it is
    a `Monomial` when A is monomial and B a `Monomial`."""
    a_rows, a_cols, b_rows, b_cols = (data.draw(st.integers(0, 4)) for _ in range(4))
    a = data.draw(kind_matrix(field, a_rows, a_cols, ka))
    b = data.draw(kind_matrix(field, b_rows, b_cols, kb))
    got = a.kron(b)
    assert isinstance(got, exactla.Monomial) == (kb == "monomial" and a.monomial() is not None)
    assert typed_entries(got) == typed_entries(plain_kron(a, b))
    assert all(got.data.values())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=120, deadline=None)
@given(data=st.data(), ka=st.sampled_from(KINDS), kb=st.sampled_from(KINDS))
def test_matmul_matches_entry_sums(field, data, ka, kb):
    """`@` of two unmarked matrices, `padded_matmul(1, 1, other)`, equals
    `plain_matmul`, scalar types included (canonical over QQ), for every
    pair of kinds, and stores no empty row.  A monomial left operand,
    plain or not, times a `Monomial` is a `Monomial` that builds no dict
    on the right operand or the result."""
    rows, mid, cols = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = data.draw(kind_matrix(field, rows, mid, ka))
    b = data.draw(kind_matrix(field, mid, cols, kb))
    got = a @ b
    if kb == "monomial" and a.monomial() is not None:
        assert isinstance(got, exactla.Monomial)
        assert b._rows is b._t is got._rows is got._t is None
    else:
        assert not isinstance(got, exactla.Monomial)
    assert typed_entries(got) == typed_entries(plain_matmul(a, b))
    assert all(got.data.values())
    if field == QQ:
        for row in got.data.values():
            _assert_canonical_qq(row.values())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS), rows=st.integers(0, 4),
       cols=st.integers(0, 4))
def test_apply_matches_entry_sums(field, data, kind, rows, cols):
    """`apply` is `tapply`, and on every kind and on a marked identity it
    equals the entry sums, scalar types included, with vector keys outside
    the columns of the matrix."""
    assert Matrix.apply is Matrix.tapply
    scalar = st.one_of(st.integers(-6, 6), st.fractions(max_denominator=7)).map(field.parse)
    for m in (data.draw(kind_matrix(field, rows, cols, kind)), Matrix.identity(field, rows)):
        vec = data.draw(st.dictionaries(st.integers(0, m.cols + 2),
                                        scalar.filter(lambda v: not field.is_zero(v))))
        got, want = m.apply(vec), plain_apply(m, vec)
        assert {i: (v, type(v)) for i, v in got.items()} == {
            i: (v, type(v)) for i, v in want.items()}


def plain_qq_kernels(monkeypatch):
    """Replace the QQ `axpy`, `scaled` and `inv` fast paths by the plain
    paths they replaced; `Echelon` scales its rows by `scaled`."""
    monkeypatch.setattr(QQ, "axpy", lambda t, s, c: plain_axpy(QQ, t, s, c))
    monkeypatch.setattr(QQ, "scaled", lambda s, c: plain_scaled(QQ, s, c))
    monkeypatch.setattr(QQ, "inv", lambda a: _canon(Fraction(1, a)))


def _assert_canonical_outputs(outputs):
    for out in outputs:
        if isinstance(out, Matrix):
            for row in out.data.values():
                _assert_canonical_qq(row.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qq_ladder_rung_matches_plain_kernels(n, monkeypatch):
    fast = ladder_outputs(QQ, n)
    _assert_canonical_outputs(fast)
    plain_qq_kernels(monkeypatch)
    assert ladder_outputs(QQ, n) == fast


def test_corpus_lifts_match_plain_kernels(monkeypatch):
    fast = lift_outputs(Corpus())
    _assert_canonical_outputs(fast)
    plain_qq_kernels(monkeypatch)
    assert lift_outputs(Corpus()) == fast


# ---------------------------------------------------------------------------
# the factor-level Pipe against the leaf-level pipe it replaced


def _leaf_dim(factors):
    d = 1
    for f in factors:
        for leaf in leaf_factors(f):
            d *= leaf.dim
    return d


def _kron_all(mats):
    out = mats[0]
    for m in mats[1:]:
        out = out.kron(m)
    return out


def deep_pair(b):
    """(project, section) between the leaf-flat space of b and b itself."""
    def build():
        if not isinstance(b, TensorQuotient):
            ident = Matrix.identity(b.field, b.dim)
            return ident, ident
        pl, sl = deep_pair(b.factor_left)
        pr, sr = deep_pair(b.factor_right)
        return b.project @ pl.kron(pr), sl.kron(sr) @ b.section
    return memo(b, "deep_pair", build)


def deep_project(sp):
    """The projection of the leaf-flat space of sp onto its quotient, with
    the factor-flat projection of the eager loop."""
    return (eager_project_section(sp.factors)[0]
            @ _kron_all([deep_pair(f)[0] for f in sp.factors]))


def deep_section(sp):
    """The section of the leaf-flat space of sp."""
    return _kron_all([deep_pair(f)[1] for f in sp.factors]) @ sp.section


def leaf_reversal(leaves):
    """The permutation m1 (x) ... (x) mk -> mk (x) ... (x) m1 of the
    leaf-flat space of leaves."""
    f = leaves[0].field
    # pos[i] is the reversed flat index of the leaf-flat index i
    pos, width = [0], 1
    for leaf in leaves:
        pos = [j * width + p for p in pos for j in range(leaf.dim)]
        width *= leaf.dim
    return Matrix.from_entries(f, width, width,
                               {(p, i): f.one() for i, p in enumerate(pos)})


def leaf_regroup(src, dst):
    """`regroup` through the leaf-flat space."""
    if src.leaves != dst.leaves:
        raise InputError("regroup requires identical leaf sequences")
    return deep_project(dst) @ deep_section(src)


def leaf_rev_matrix(src, dst):
    """The reversal from src to dst, a bracketing of its mirrored leaves in
    reverse order, through the leaf-flat space."""
    if dst.leaves != tuple(mirror(l) for l in reversed(src.leaves)):
        raise InputError("reversal needs the mirrored leaves in reverse order")
    return deep_project(dst) @ leaf_reversal(src.leaves) @ deep_section(src)


def leaf_mirror_map(f, dom=None, cod=None):
    """`mirror_map` through the leaf-flat space."""
    dom = dom if dom is not None else space(mirror(f.domain))
    cod = cod if cod is not None else space(mirror(f.codomain))
    return (leaf_rev_matrix(space(f.codomain), cod) @ f.matrix
            @ leaf_rev_matrix(dom, space(f.domain)))


class LeafPipe:
    """The leaf-level pipe: the accumulated matrix acts on the flat space of
    the current leaves, and every stage goes through the deep projections
    and sections of the quotients it touches.  Like `Pipe`, every stage
    returns a new pipe and leaves its input as it was."""

    def __init__(self, source):
        self.source = source
        self.factors = list(source.factors)
        self.field = source.field
        self.matrix = Matrix.identity(self.field, source.leaf_flat_dim())

    def _with(self, factors, matrix):
        new = object.__new__(LeafPipe)
        new.source, new.field = self.source, self.field
        new.factors, new.matrix = factors, matrix
        return new

    def _stage(self, flat_map, at, takes, gives):
        pre = _leaf_dim(self.factors[:at])
        mid = _leaf_dim(self.factors[at:at + takes])
        post = _leaf_dim(self.factors[at + takes:])
        if flat_map.cols != mid:
            raise InputError(
                f"stage expects flat dim {mid}, map has {flat_map.cols}")
        stage = flat_map
        if pre != 1:
            stage = Matrix.identity(self.field, pre).kron(stage)
        if post != 1:
            stage = stage.kron(Matrix.identity(self.field, post))
        return self._with(self.factors[:at] + list(gives) + self.factors[at + takes:],
                          stage @ self.matrix)

    def apply(self, f, at=0, takes=1, gives=None):
        dom = space(*self.factors[at:at + takes])
        gives = list(gives) if gives is not None else [f.codomain]
        cod = space(*gives)
        if dom.dim != f.domain.dim or cod.dim != f.codomain.dim:
            raise InputError(f"pipe stage {f.name}: dimension mismatch")
        flat_map = deep_section(cod) @ f.matrix @ deep_project(dom)
        return self._stage(flat_map, at, takes, gives)

    def insert_central(self, b, element, at):
        col = Matrix.from_entries(self.field, b.dim, 1,
                                  {(i, 0): v for i, v in element.items()})
        return self._stage(deep_pair(b)[1] @ col, at, 0, [b])

    def _absorb(self, x, b, into_left):
        px, sx = deep_pair(x)
        pb = deep_pair(b)[0]
        flat_in = px.kron(pb) if into_left else pb.kron(px)
        return sx @ _contract_matrix(x, b, into_left) @ flat_in

    def absorb_left(self, at):
        if at == 0:
            raise InputError("absorb_left needs a left neighbour")
        x = self.factors[at - 1]
        return self._stage(self._absorb(x, self.factors[at], True),
                           at - 1, 2, [x])

    def absorb_right(self, at):
        if at == len(self.factors) - 1:
            raise InputError("absorb_right needs a right neighbour")
        x = self.factors[at + 1]
        return self._stage(self._absorb(x, self.factors[at], False),
                           at, 2, [x])

    def refine(self, at):
        f = self.factors[at]
        if not isinstance(f, TensorQuotient):
            raise InputError("refine needs a TensorQuotient factor")
        return self._with(self.factors[:at] + [f.factor_left, f.factor_right]
                          + self.factors[at + 1:], self.matrix)

    def reverse(self):
        leaves = [l for f in self.factors for l in leaf_factors(f)]
        return self._with([mirror(l) for l in reversed(leaves)],
                          leaf_reversal(leaves) @ self.matrix)

    def _merge(self, node, at):
        """The factors from position at on that bracket node, as node: the
        leaves stay, so only the factors change."""
        end, left = at, len(leaf_factors(node))
        while left:
            left -= len(leaf_factors(self.factors[end]))
            end += 1
        return self._with(self.factors[:at] + [node] + self.factors[end:], self.matrix)

    def done(self, target=None, name="pipe"):
        cur = space(*self.factors)
        if target is None:
            target = cur
        if tuple(target.leaves) != tuple(cur.leaves):
            raise InputError("pipe target leaves do not match")
        mat = deep_project(target) @ self.matrix @ deep_section(self.source)
        return LinearMap(self.source.quotient, target.quotient, mat, name)


@st.composite
def hom_combination(draw, x, y, basis):
    """A combination of basis, a basis of bimodule maps x -> y, with
    coefficients in -2..2."""
    field = x.field
    mat = Matrix.zeros(field, y.dim, x.dim)
    for b in basis:
        c = draw(st.integers(-2, 2))
        if c:
            mat = mat + b.scale(field.from_int(c))
    return mat


def _nested(factors):
    """f1 (x) (f2 (x) (... (x) fk)), each quotient over the right algebra of
    its left factor."""
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = tensor_over(f.right_algebra, f, out)
    return out


@st.composite
def bracketing(draw, factors):
    """A space on factors in order, cut into right-nested groups."""
    cuts = sorted(draw(st.sets(st.integers(1, len(factors) - 1)))
                  if len(factors) > 1 else set())
    bounds = [0] + cuts + [len(factors)]
    return space(*[_nested(factors[a:b]) for a, b in zip(bounds, bounds[1:])])


# leaf-flat spaces stay at most this large, so the leaf-level reference
# stays cheap
LEAF_BUDGET = 216


@st.composite
def pipe_program(draw, field, base):
    """A source space over base and a stage sequence for it.

    The factors are generated A-bimodules, the regular bimodule of A and a
    left-associated quotient of two of them.  Every applied map is a
    bimodule map drawn from the canonical Hom basis, so every stage is
    bilinear; `done` goes to the current factors or, through right-nested
    groups, to another bracketing of the same leaves.
    """
    areg = regular_bimodule(base)
    mods = [draw(side_bimodule(field, base, True, f"M{i}")) for i in range(2)]
    pool = mods + [areg, tensor_over(base, mods[0], mods[1])]
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)
                   .filter(lambda fs: _leaf_dim(fs) <= LEAF_BUDGET))
    source = space(*factors)
    factors = list(factors)
    homs = {}
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        kinds = ["apply", "apply", "insert"]
        if any(isinstance(f, TensorQuotient) for f in factors):
            kinds.append("refine")
        if any(f is areg for f in factors) and len(factors) > 1:
            kinds.append("absorb")
        kind = draw(st.sampled_from(kinds))
        if kind == "refine":
            at = draw(st.sampled_from(
                [i for i, f in enumerate(factors) if isinstance(f, TensorQuotient)]))
            stages.append(("refine", at))
            factors[at:at + 1] = [factors[at].factor_left, factors[at].factor_right]
        elif kind == "absorb":
            at = draw(st.sampled_from([i for i, f in enumerate(factors) if f is areg]))
            if at > 0 and (at == len(factors) - 1 or draw(st.booleans())):
                stages.append(("absorb_left", at))
                del factors[at]
            else:
                stages.append(("absorb_right", at))
                del factors[at]
        elif kind == "insert":
            at = draw(st.integers(0, len(factors)))
            if _leaf_dim(factors + [areg]) > LEAF_BUDGET:
                continue
            stages.append(("insert_central", areg, base.unit_vector(), at))
            factors.insert(at, areg)
        else:
            # a map on two factors at once is what tells a projection from
            # a choice of coordinates, so it is drawn more often
            at = draw(st.integers(0, len(factors) - 1))
            takes = min(len(factors) - at, draw(st.sampled_from([1, 2, 2])))
            consumed = factors[at:at + takes]
            gives = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
            rest = factors[:at] + factors[at + takes:]
            if _leaf_dim(rest + gives) > LEAF_BUDGET:
                continue
            x, y = space(*consumed).quotient, space(*gives).quotient
            key = (id(x), id(y))
            if key not in homs:
                homs[key] = hom_basis(x, y)
            mat = draw(hom_combination(x, y, homs[key]))
            stages.append(("apply", LinearMap(x, y, mat, "f"), at, takes, gives))
            factors[at:at + takes] = gives
    target = draw(bracketing(factors)) if draw(st.booleans()) else None
    return source, stages, target


def run_program(cls, source, stages, target):
    p = cls(source)
    for stage in stages:
        p = getattr(p, stage[0])(*stage[1:])
    return p.done(target)


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pipe_matches_leaf_pipe(field, g, data):
    base = group_algebra_cyclic(field, g)
    source, stages, target = data.draw(pipe_program(field, base))
    fast = run_program(bimodule.Pipe, source, stages, target)
    slow = run_program(LeafPipe, source, stages, target)
    assert fast.domain is slow.domain and fast.codomain is slow.codomain
    assert fast.matrix == slow.matrix


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bracketing_maps_match_leaf_flat(field, g, data):
    """`regroup`, `associator`, `rev`, `mirror_map` and `Pipe.done` into
    another bracketing re-bracket through pipe stages; each must equal its
    leaf-flat construction, and the round trips must be the identity."""
    base = group_algebra_cyclic(field, g)
    areg = regular_bimodule(base)
    mods = [data.draw(side_bimodule(field, base, True, f"M{i}")) for i in range(2)]
    pool = mods + [areg, tensor_over(base, mods[0], mods[1])]
    factors = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)
                        .filter(lambda fs: _leaf_dim(fs) <= LEAF_BUDGET))
    src = space(*factors)
    dst = data.draw(bracketing(list(src.leaves)))
    there, back = regroup(src, dst), regroup(dst, src)
    assert there.domain is src.quotient and there.codomain is dst.quotient
    assert there.matrix == leaf_regroup(src, dst)
    assert back.matrix == leaf_regroup(dst, src)
    assert back.matrix @ there.matrix == Matrix.identity(field, src.dim)
    assert bimodule.pipe(src).done(dst).matrix == there.matrix

    m, n, q = (data.draw(st.sampled_from(pool)) for _ in range(3))
    assume(_leaf_dim([m, n, q]) <= LEAF_BUDGET)
    fwd, inv = associator(m, n, q)
    left = space(tensor_over(base, m, n), q)
    right = space(m, tensor_over(base, n, q))
    assert fwd.matrix == leaf_regroup(left, right)
    assert inv.matrix == leaf_regroup(right, left)

    for x in (src.quotient, dst.quotient):
        r, r_back = rev(x), rev(mirror(x))
        assert r.domain is x and r.codomain is mirror(x)
        assert r.matrix == leaf_rev_matrix(space(x), space(mirror(x)))
        assert r_back.matrix == leaf_rev_matrix(space(mirror(x)), space(x))
        assert r_back.matrix @ r.matrix == Matrix.identity(field, x.dim)

    x, y = src.quotient, data.draw(st.sampled_from(pool))
    f = LinearMap(x, y, data.draw(hom_combination(x, y, hom_basis(x, y))), "f")
    assert mirror_map(f).matrix == leaf_mirror_map(f)
    dom = data.draw(bracketing([mirror(l) for l in reversed(src.leaves)]))
    cod = data.draw(bracketing([mirror(l) for l in reversed(space(y).leaves)]))
    mf = mirror_map(f, dom=dom, cod=cod)
    assert mf.domain is dom.quotient and mf.codomain is cod.quotient
    assert mf.matrix == leaf_mirror_map(f, dom, cod)


def test_lift_product_cube_bracketings_match_leaf_flat(monkeypatch):
    """P (x) P (x) P for the product P of the kZ2/C2/D2 flip lift, whose
    leaf-flat space has dimension 32,768: both bracketings and both
    reversals build no identity or Kronecker product of that size, match
    the leaf-flat maps, and their round trips are the identity."""
    from coringlab import cowreath
    p = cowreath.cowreath_product(Corpus().lifted_flip_cw)[0].carrier
    left = space(p, p, p)
    right = space(p, tensor_over(p.right_algebra, p, p))
    x = left.quotient
    space(mirror(x))
    assert left.leaf_flat_dim() == 32768
    sizes = [0]
    kron, identity = Matrix.kron, Matrix.identity
    monkeypatch.setattr(Matrix, "kron", lambda a, b: (
        sizes.append(a.rows * b.rows), kron(a, b))[1])
    monkeypatch.setattr(Matrix, "identity", classmethod(lambda cls, f, n: (
        sizes.append(n), identity(f, n))[1]))
    there, back = regroup(left, right), regroup(right, left)
    r, r_back = rev(x), rev(mirror(x))
    monkeypatch.undo()
    assert max(sizes) < p.dim ** 3 < left.leaf_flat_dim()
    ident = Matrix.identity(p.field, left.dim)
    assert there.matrix == leaf_regroup(left, right)
    assert back.matrix == leaf_regroup(right, left)
    assert back.matrix @ there.matrix == ident
    assert r.matrix == leaf_rev_matrix(space(x), space(mirror(x)))
    assert r_back.matrix == leaf_rev_matrix(space(mirror(x)), space(x))
    assert r_back.matrix @ r.matrix == ident


def corpus_outputs(corpus):
    """The report of every corpus checker as JSON, and the structure maps
    that pipes build, in the order of `scripts/run_corpus_checks.py`."""
    from coringlab import cowreath, entwine, ore, wreath
    out = []

    def add(rep):
        out.append(rep.to_json())

    def maps(*lin):
        out.append([(m.domain.dim, m.codomain.dim, m.matrix.data) for m in lin])

    C = corpus
    for c in (C.triv_z2, C.c2, C.c3, C.gp, C.broken_coalgebra):
        add(check_coring(c))
    for e in (C.flip_entwining, C.dk_entwining):
        add(entwine.check_entwining(e))
        ec = entwine.entwined_coring(e)
        maps(ec.comult, ec.counit)
        add(check_coring(ec))
        add(entwine.check_entwining_wreath(e))
    add(entwine.check_entwining(C.broken_entwining))
    for w in (C.flip_cw, C.flip_cw3, C.unit_cw, C.dl_cw[0], C.lifted_flip_cw,
              C.lifted_dk_cw):
        maps(w.delta, w.xi, w.object.twist)
        add(cowreath.check_cowreath(w))
        prod, morph = cowreath.cowreath_product(w)
        maps(prod.comult, prod.counit)
        add(check_coring(prod))
        add(morph)
    add(cowreath.check_l_cowreath(C.dl_cw[1]))
    add(cowreath.check_cowreath(C.broken_cw_delta))
    add(cowreath.check_cowreath(C.broken_cw_xi))
    rext, text, rmap, rw, lw, prod_ext, alg_rep, eta_rep = C.sign_flip_ttp
    add(wreath.check_wreath(rw))
    add(wreath.check_l_wreath(lw))
    add(alg_rep)
    add(eta_rep)
    with pytest.raises(PreconditionFailure) as err:
        wreath.twisted_tensor_product(*C.broken_ttp_map())
    add(err.value.report)
    add(wreath.check_left_module_twisting(C.module_twist_self))
    for d in (C.ore_commutative, C.ore_quantum_plane, C.ore_weyl):
        add(ore.check_ore_wreath(d, 4))
        add(ore.ore_vs_wreath_product(d, 4))
    add(ore.check_ore_wreath(C.ore_broken, 3))
    return out


def test_corpus_checkers_match_leaf_pipe(monkeypatch):
    fast = corpus_outputs(Corpus())
    monkeypatch.setattr(bimodule, "Pipe", LeafPipe)
    # the oracle finishes every pipe: `compare_pipes` decides on `Pipe`s
    monkeypatch.setattr(bimodule, "_decided", lambda lhs, rhs: False)
    slow = corpus_outputs(Corpus())
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a == b


def _sha256(obj):
    """The digest of obj as canonical JSON: sorted keys, scalars by str."""
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_corpus_outputs_are_pinned():
    """Every corpus report and piped structure map, byte for byte: the
    `LeafPipe` oracle changes with `Pipe`, so the outputs are also pinned
    without it.  The broken entwining's three witnesses name the flat
    tensor basis and print both sides on it (the entwining laws are pipes
    over the ground-field legs)."""
    assert _sha256(corpus_outputs(Corpus())) == (
        "3576baa1d5f7bc3a7622bef8a0789907da940c99e0ccf934cae6f67769963ee0")


@pytest.mark.parametrize("which", ["lifted_flip_cw", "lifted_dk_cw"])
def test_lift_cowreath_reports_are_pinned(which):
    from coringlab.cowreath import check_cowreath
    assert _sha256(check_cowreath(getattr(Corpus(), which)).to_json()) == (
        "6771489b51a1fa151685a1ee6d19ce960473c36e24fab339fdddd07b1cee5013")


# ---------------------------------------------------------------------------
# pipes are values: a shared prefix continued two ways against fresh pipes


def test_stage_leaves_its_input_pipe_unchanged():
    """Every stage, and `done`, returns a new value: the pipe it starts
    from keeps its matrix (entries included) and its factors, and the same
    stage run again on it gives the same matrix.  The spaces are those of
    the corpus kZ2 lift, whose quotients come from the union-find."""
    w = Corpus().lifted_flip_cw
    c = w.coring
    C, M = c.carrier, w.object.carrier
    areg = regular_bimodule(c.base)
    unit = c.base.unit_vector()
    src = bimodule.pipe(space(C, M))
    counit = src.apply(c.counit, 0, 1, [areg])
    cases = [
        (src, lambda p: p.apply(w.delta, 0, 2, [C, M, M])),
        (src, lambda p: p.apply(w.object.twist, 0, 2)),
        (src, lambda p: p.insert_central(areg, unit, 2)),
        (counit, lambda p: p.absorb_right(0)),
        (src.insert_central(areg, unit, 2), lambda p: p.absorb_left(2)),
        (src.apply(w.xi, 0, 2, [C]).apply(c.comult, 0, 1), lambda p: p.refine(0)),
        (src, lambda p: p.reverse()),
        (src.apply(w.delta, 0, 2, [C, M, M]), lambda p: p.done()),
        (src, lambda p: p.done(space(space(C, M).quotient))),
    ]
    for p, stage in cases:
        factors, mat = tuple(p.factors), p.matrix
        data = {r: dict(row) for r, row in mat.data.items()}
        out = stage(p)
        assert out is not p
        assert p.matrix is mat and p.matrix.data == data
        assert tuple(p.factors) == factors
        assert stage(p).matrix == out.matrix


@pytest.fixture(scope="module")
def branch_cowreaths():
    """{(field, kind): cowreath}: over QQ and GF(101), the corpus flip
    cowreath on C2 and D2 (flat quotients) and its lift along the flip
    entwining of kZ2 (union-find quotients)."""
    from coringlab.coring import grouplike_coalgebra
    from coringlab.cowreath import entwining_lift_cowreath, flip_cowreath
    from coringlab.entwine import flip_entwining
    out = {}
    for field in FIELDS:
        c = grouplike_coalgebra(field, 2, name="C2")
        w = out[field, "flip"] = flip_cowreath(c, grouplike_coalgebra(field, 2, name="D2"))
        a = group_algebra_cyclic(field, 2, name="kZ2")
        out[field, "lift"] = entwining_lift_cowreath(flip_entwining(a, c), w)
    return out


# factor-flat spaces of the branch programs stay at most this large
BRANCH_BUDGET = 256


def _after(stage, factors):
    """The factors after stage."""
    kind = stage[0]
    if kind == "apply":
        _, _, at, takes, gives = stage
        return factors[:at] + list(gives) + factors[at + takes:]
    if kind == "insert_central":
        _, b, _, at = stage
        return factors[:at] + [b] + factors[at:]
    at = stage[1]
    if kind == "refine":
        x = factors[at]
        return factors[:at] + [x.factor_left, x.factor_right] + factors[at + 1:]
    return factors[:at] + factors[at + 1:]  # absorb_left, absorb_right


@st.composite
def cowreath_stages(draw, w, factors, most):
    """Up to `most` stages on factors: w's comult, counit, twist, xi and
    delta where their domain sits (as leaves, or as the one quotient
    factor), giving leaves or the codomain quotient; the unit of the base
    inserted anywhere and absorbed into a neighbour; and `refine`.
    Returns (stages, the factors after them)."""
    c = w.coring
    C, M = c.carrier, w.object.carrier
    areg = regular_bimodule(c.base)
    maps = [(c.comult, [C], [C, C]), (c.counit, [C], [areg]),
            (w.object.twist, [C, M], [M, C]), (w.xi, [C, M], [C]),
            (w.delta, [C, M], [C, M, M])]
    factors, stages = list(factors), []
    for _ in range(draw(st.integers(0, most))):
        applies, refines, absorbs = [], [], []
        for f, takes, gives in maps:
            for shape in ([takes, [f.domain]] if len(takes) > 1 else [takes]):
                n = len(shape)
                for at in range(len(factors) - n + 1):
                    if all(x is y for x, y in zip(factors[at:at + n], shape)):
                        applies += [("apply", f, at, n, gives),
                                    ("apply", f, at, n, [f.codomain])]
        for at, x in enumerate(factors):
            if isinstance(x, TensorQuotient):
                refines.append(("refine", at))
            if x is areg and at > 0:
                absorbs.append(("absorb_left", at))
            if x is areg and at < len(factors) - 1:
                absorbs.append(("absorb_right", at))
        inserts = [("insert_central", areg, c.base.unit_vector(), at)
                   for at in range(len(factors) + 1)]
        # a kind first, then a stage of it; maps are drawn most often
        kinds = [k for k in (applies, applies, refines, absorbs, inserts) if k]
        stage = draw(st.sampled_from(draw(st.sampled_from(kinds))))
        new = _after(stage, factors)
        if _leaf_dim(new) <= BRANCH_BUDGET:
            stages.append(stage)
            factors = new
    return stages, factors


@pytest.mark.parametrize("which", ["flip", "lift"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_shared_prefix_branches_match_fresh_pipes(branch_cowreaths, field, which, data):
    """A prefix of stages on corpus spaces, over QQ and GF(101), built
    once and continued two ways: each branch's composite, into the space of
    its factors or another bracketing of them, must equal that of a pipe
    that runs the whole program from the source, and the prefix must stay
    as it was."""
    w = branch_cowreaths[field, which]
    C, M = w.coring.carrier, w.object.carrier
    source = space(*data.draw(st.sampled_from(
        [[C], [C, M], [space(C, M).quotient], [C, C], [C, M, M]])))
    prefix, factors = data.draw(cowreath_stages(w, source.factors, 3))
    shared = bimodule.pipe(source)
    for stage in prefix:
        shared = getattr(shared, stage[0])(*stage[1:])
    kept = (shared.matrix, tuple(shared.factors))
    for _ in range(2):
        rest, end = data.draw(cowreath_stages(w, factors, 3))
        target = data.draw(bracketing(end)) if data.draw(st.booleans()) else None
        branch = shared
        for stage in rest:
            branch = getattr(branch, stage[0])(*stage[1:])
        got = branch.done(target)
        fresh = run_program(bimodule.Pipe, source, prefix + rest, target)
        assert got.codomain is fresh.codomain
        assert got.matrix == fresh.matrix
    assert (shared.matrix, tuple(shared.factors)) == kept


@st.composite
def perturbation(draw, field, rows, cols):
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
        st.integers(-2, 2).map(field.from_int), max_size=3))
    return Matrix.from_entries(field, rows, cols, entries)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), which=st.sampled_from(["triv", "flip", "dk"]))
def test_perturbed_coring_over_kz2_matches_leaf_pipe(data, which):
    """Perturbed structure maps of corings over kZ2 are mostly not
    bilinear.  Their further tags depend on the representatives the
    sections pick, so only the status must agree; a perturbation that
    happens to stay bilinear must give the same report."""
    from coringlab import entwine
    corpus = Corpus()
    base = {"triv": corpus.triv_z2,
            "flip": lambda: entwine.entwined_coring(corpus.flip_entwining),
            "dk": lambda: entwine.entwined_coring(corpus.dk_entwining)}[which]
    base = base() if callable(base) else base
    comult = base.comult.matrix + data.draw(
        perturbation(QQ, base.comult.matrix.rows, base.comult.matrix.cols))
    counit = base.counit.matrix + data.draw(
        perturbation(QQ, base.counit.matrix.rows, base.counit.matrix.cols))
    c = Coring(base.base, base.carrier,
               LinearMap(base.comult.domain, base.comult.codomain, comult, "d"),
               LinearMap(base.counit.domain, base.counit.codomain, counit, "e"),
               name="perturbed")
    fast = check_coring(c)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bimodule, "Pipe", LeafPipe)
        mp.setattr(bimodule, "_decided", lambda lhs, rhs: False)
        slow = check_coring(c)
    assert fast.status == slow.status
    if bilinearity_report(c.comult).ok and bilinearity_report(c.counit).ok:
        assert fast.to_json() == slow.to_json()


# ---------------------------------------------------------------------------
# padded products against the Kronecker products they replace


def _assert_padded(f, pre, post, m):
    """f.padded_matmul(pre, post, m) equals the product with
    I_pre (x) f (x) I_post built as a matrix, stores no empty row and keeps
    its identity mark; returns it."""
    field = f.field
    padded = Matrix.identity(field, pre).kron(f).kron(Matrix.identity(field, post))
    plain = plain_matmul(padded, m)
    fast = f.padded_matmul(pre, post, m)
    assert fast == plain
    assert (fast.rows, fast.cols) == (plain.rows, plain.cols)
    assert fast.is_identity == (padded.is_identity and m.is_identity)
    assert all(fast.data.values())
    return fast


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data(), pre=st.integers(1, 3), post=st.integers(1, 3))
def test_padded_matmul_matches_kron_product(field, data, pre, post):
    f = data.draw(sparse_matrix(field))
    rows = pre * f.cols * post
    m = data.draw(shaped_matrix(field, rows, data.draw(st.integers(0, 4))))
    _assert_padded(f, pre, post, m)
    _assert_padded(f, pre, post, Matrix.identity(field, rows))
    m = data.draw(shaped_matrix(field, pre * f.rows * post, 3))
    assert Matrix.identity(field, f.rows).padded_matmul(pre, post, m) is m
    with pytest.raises(InputError):
        f.padded_matmul(pre, post, Matrix.zeros(field, rows + 1, 1))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("pre, post", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_padded_matmul_cases(field, pre, post):
    one = field.one()
    # a column, as `insert_central` pipes it (takes = 0, so f has one column)
    col = Matrix.from_entries(field, 3, 1, {(0, 0): one, (2, 0): field.from_int(5)})
    m = Matrix.from_entries(field, pre * post, 4, {
        (i, i % 4): field.from_int(i + 2) for i in range(pre * post)})
    _assert_padded(col, pre, post, m)
    _assert_padded(col, pre, post, Matrix.identity(field, pre * post))
    # rows that cancel: row 0 of f scatters m_0 - m_1 = 0
    f = Matrix.from_rows(field, [[1, -1], [1, 1]])
    rows = pre * 2 * post
    m = Matrix.from_entries(field, rows, 2,
                            {(i, j): one for i in range(rows) for j in range(2)})
    out = _assert_padded(f, pre, post, m)
    assert len(out.data) == pre * post
    assert all((i // post) % 2 == 1 for i in out.data)
    # a rectangular f
    wide = Matrix.from_rows(field, [[1, 0, 2]])
    _assert_padded(wide, pre, post, Matrix.from_entries(
        field, pre * 3 * post, 2, {(i, i % 2): one for i in range(pre * 3 * post)}))
    # a marked identity f leaves m as it is; a marked identity m makes the
    # Kronecker product the result
    assert Matrix.identity(field, 2).padded_matmul(pre, post, m) is m
    assert _assert_padded(Matrix.identity(field, 2), pre, post,
                          Matrix.identity(field, rows)).is_identity
    assert f.padded_matmul(1, 1, Matrix.identity(field, 2)) is f


def plain_stage(self, flat_map, at, takes, gives):
    """The `Pipe` stage that `padded_matmul` replaced: I_pre (x) flat_map (x)
    I_post is built as a matrix and multiplied once."""
    dims = [f.dim for f in self.factors]
    pre, mid, post = (prod(dims[:at]), prod(dims[at:at + takes]),
                      prod(dims[at + takes:]))
    if flat_map.cols != mid:
        raise InputError(f"stage expects flat dim {mid}, map has {flat_map.cols}")
    stage = flat_map
    if pre != 1:
        stage = Matrix.identity(self.field, pre).kron(stage)
    if post != 1:
        stage = stage.kron(Matrix.identity(self.field, post))
    return self._with(at, takes, gives, stage @ self.matrix)


def rescaled_grouplike(field, lams, name):
    """The grouplike coalgebra on h_i = lam_i g_i, as the benchmark's
    dimension ladder builds it."""
    from coringlab.coring import coalgebra_over_field
    n = len(lams)
    return coalgebra_over_field(
        field, n, [{i * n + i: str(1 / lam)} for i, lam in enumerate(lams)],
        [str(lam) for lam in lams], [f"h{i}" for i in range(n)], name)


def ladder_cowreath(field, n):
    """The flip cowreath of rung n, from fresh structures."""
    from coringlab import cowreath
    lams = [Fraction((-1) ** i * (i + 2), i + 1) for i in range(n)]
    mus = [Fraction(i + 3, (-1) ** i * (2 * i + 1)) for i in range(n)]
    return cowreath.flip_cowreath(rescaled_grouplike(field, lams, f"C{n}"),
                                  rescaled_grouplike(field, mus, f"D{n}"))


def ladder_outputs(field, n):
    """The flip cowreath of rung n, from fresh structures: its report, the
    product's maps, the morphism report and the product's report."""
    from coringlab import cowreath
    w = ladder_cowreath(field, n)
    product, morph = cowreath.cowreath_product(w)
    return [cowreath.check_cowreath(w).to_json(), product.comult.matrix,
            product.counit.matrix, morph.to_json(), check_coring(product).to_json()]


def lift_outputs(corpus):
    from coringlab import cowreath
    out = []
    for w in (corpus.lifted_flip_cw, corpus.lifted_dk_cw):
        product, morph = cowreath.cowreath_product(w)
        out += [w.delta.matrix, w.xi.matrix, cowreath.check_cowreath(w).to_json(),
                product.comult.matrix, product.counit.matrix, morph.to_json(),
                check_coring(product).to_json()]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ladder_rung_matches_plain_stage(field, n, monkeypatch):
    fast = ladder_outputs(field, n)
    assert all(fast[i]["status"] == "pass" for i in (0, 3, 4))
    monkeypatch.setattr(bimodule.Pipe, "_stage", plain_stage)
    assert ladder_outputs(field, n) == fast


def test_corpus_lifts_match_plain_stage(monkeypatch):
    fast = lift_outputs(Corpus())
    monkeypatch.setattr(bimodule.Pipe, "_stage", plain_stage)
    assert lift_outputs(Corpus()) == fast


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pipe_matches_plain_stage(field, g, data):
    base = group_algebra_cyclic(field, g)
    source, stages, target = data.draw(pipe_program(field, base))
    fast = run_program(bimodule.Pipe, source, stages, target)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bimodule.Pipe, "_stage", plain_stage)
        slow = run_program(bimodule.Pipe, source, stages, target)
    assert fast.matrix == slow.matrix


# ---------------------------------------------------------------------------
# the piped morphism equation against the tensor_maps route it replaced


def tensor_maps_morphism_report(phi, src, dst, name=None):
    """`check_coring_morphism` as it was before the pipe: phi (x) phi is
    built by `tensor_maps` for every phi, bilinear or not."""
    rep = Report(name or f"coring morphism {phi.name}: {src.name} -> {dst.name}")
    if not (src.base is dst.base or src.base.mult == dst.base.mult):
        raise InputError("coring morphism needs a common base")
    rep.extend(bilinearity_report(phi, "morphism"))
    compare_maps(rep, "morphism-counit", dst.counit.after(phi), src.counit)
    pp = tensor_maps(phi, phi, src.cc.quotient, dst.cc.quotient)
    compare_maps(rep, "morphism-comult", pp.after(src.comult),
                 dst.comult.after(phi))
    return rep


def _outcome(check, phi, src, dst):
    try:
        return check(phi, src, dst).to_json()
    except WellDefinednessError as err:
        return "WellDefinednessError", str(err), err.relation


def assert_morphism_matches_tensor_maps(phi, src, dst):
    """`check_coring_morphism` gives the report, or raises the error, of the
    `tensor_maps` route; for a bilinear phi its `morphism-comult` left side
    is the matrix of that route.  Returns the report."""
    sides = []

    def spy(rep, tag, lhs, rhs, max_witnesses=3):
        if tag == "morphism-comult":
            sides.append(lhs)
        return compare_maps(rep, tag, lhs, rhs, max_witnesses)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coring, "compare_maps", spy)
        fast = _outcome(check_coring_morphism, phi, src, dst)
    assert fast == _outcome(tensor_maps_morphism_report, phi, src, dst)
    if bilinearity_report(phi).ok:
        plain = tensor_maps(phi, phi, src.cc.quotient, dst.cc.quotient).after(src.comult)
        [lhs] = sides
        assert lhs.matrix == plain.matrix
        assert (lhs.domain, lhs.codomain) == (plain.domain, plain.codomain)
    return fast


def xi_morphism(w):
    """(xi as a map out of the product, the product coring, the factor coring)."""
    from coringlab import cowreath
    product, _ = cowreath.cowreath_product(w)
    xi = LinearMap(product.carrier, w.coring.carrier, w.xi.matrix, name="xi")
    return xi, product, w.coring


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ladder_xi_morphism_matches_tensor_maps(field, n):
    rep = assert_morphism_matches_tensor_maps(*xi_morphism(ladder_cowreath(field, n)))
    assert rep["status"] == "pass"


def test_corpus_lift_xi_morphisms_match_tensor_maps():
    corpus = Corpus()
    for w in (corpus.lifted_flip_cw, corpus.lifted_dk_cw):
        phi, product, c = xi_morphism(w)
        assert product.base.dim == 2
        assert assert_morphism_matches_tensor_maps(phi, product, c)["status"] == "pass"


def _kz2_morphism_case(which):
    """(src, dst) corings over kZ2: a corpus lift's product and its factor
    coring, or a coring over kZ2 and itself."""
    from coringlab import entwine
    corpus = Corpus()
    if which == "lift":
        _, product, c = xi_morphism(corpus.lifted_flip_cw)
        return product, c
    if which == "triv":
        return corpus.triv_z2, corpus.triv_z2
    c = entwine.entwined_coring(corpus.dk_entwining)
    return c, c


@st.composite
def bilinear_map(draw, src, dst):
    """A combination of the canonical basis of the bimodule maps between the
    carriers, with small integer coefficients."""
    field = src.carrier.field
    basis = hom_basis(src.carrier, dst.carrier)
    mat = Matrix.zeros(field, dst.carrier.dim, src.carrier.dim)
    for b in basis:
        mat = mat + b.scale(field.from_int(draw(st.integers(-2, 2))))
    return LinearMap(src.carrier, dst.carrier, mat, name="phi")


@settings(max_examples=20, deadline=None)
@given(data=st.data(), which=st.sampled_from(["lift", "triv", "dk"]))
def test_bilinear_non_morphisms_over_kz2_match_tensor_maps(data, which):
    src, dst = _kz2_morphism_case(which)
    phi = data.draw(bilinear_map(src, dst))
    assert bilinearity_report(phi).ok
    rep = assert_morphism_matches_tensor_maps(phi, src, dst)
    if rep["status"] == "fail":
        assert {w["equation"] for w in rep["witnesses"]} <= {
            "morphism-counit", "morphism-comult"}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_generated_non_morphisms_on_ladder_match_tensor_maps(field, n, data):
    """Over the ground field every map is bilinear: random maps out of a
    rung's product, into its factor coring, are almost never morphisms."""
    _, product, c = xi_morphism(ladder_cowreath(field, n))
    mat = data.draw(shaped_matrix(field, c.carrier.dim, product.carrier.dim))
    phi = LinearMap(product.carrier, c.carrier, mat, name="phi")
    assert_morphism_matches_tensor_maps(phi, product, c)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), which=st.sampled_from(["lift", "triv", "dk"]))
def test_non_bilinear_maps_over_kz2_raise_or_report_as_before(data, which):
    """A perturbed bimodule map that is no longer bilinear still goes
    through `tensor_maps`: the same report, or the same
    WellDefinednessError naming the same relation."""
    src, dst = _kz2_morphism_case(which)
    phi = data.draw(bilinear_map(src, dst))
    bump = data.draw(perturbation(QQ, dst.carrier.dim, src.carrier.dim))
    phi = LinearMap(src.carrier, dst.carrier, phi.matrix + bump, name="phi")
    assume(not bilinearity_report(phi).ok)
    assert_morphism_matches_tensor_maps(phi, src, dst)


# ---------------------------------------------------------------------------
# Space maps, built on first read, against the eager loop


def eager_project_section(factors):
    """project and section of space(*factors) as the loop in `Space.__init__`
    built both, with the Kronecker product of each step."""
    f = factors[0].field
    cur = factors[0]
    proj = sec = Matrix.identity(f, cur.dim)
    for nxt in factors[1:]:
        tq = tensor_over(cur.right_algebra, cur, nxt)
        ident = Matrix.identity(f, nxt.dim)
        proj = tq.project @ proj.kron(ident)
        sec = sec.kron(ident) @ tq.section
        cur = tq
    return proj, sec


def _assert_eager_maps(factors):
    sp = space(*factors)
    proj, sec = eager_project_section(factors)
    for fast, plain in ((sp.section, sec), (sp.project, proj)):
        assert fast == plain
        assert (fast.rows, fast.cols) == (plain.rows, plain.cols)
        assert fast.is_identity == plain.is_identity
        assert all(fast.data.values())
    assert sp.project @ sp.section == plain_identity(sp.field, sp.dim)


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_space_maps_match_eager_loop(field, g, data):
    base = group_algebra_cyclic(field, g)
    mods = [data.draw(side_bimodule(field, base, True, f"M{i}")) for i in range(2)]
    pool = mods + [regular_bimodule(base), tensor_over(base, mods[0], mods[1])]
    _assert_eager_maps(data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                          max_size=3)))


def test_corpus_space_maps_match_eager_loop():
    corpus = Corpus()
    for c in (corpus.triv_z2, corpus.c3, corpus.gp, corpus.lifted_flip_cw.coring):
        _assert_eager_maps((c.carrier,) * 2)
        _assert_eager_maps((c.carrier,) * 3)


def test_target_space_never_builds_section():
    """A space that a pipe only ends in builds neither `project` nor
    `section`: `done` merges into its quotient by stages.  Every tensor
    quotient of a space is built when the space is."""
    base = group_algebra_cyclic(QQ, 2)
    areg = regular_bimodule(base)
    lin = bimodule.pipe(space(areg)).insert_central(
        areg, base.unit_vector(), 1).done()
    target = space(areg, areg)
    assert lin.codomain is target.quotient
    assert "project" not in vars(target) and "section" not in vars(target)
    # g acts on the right by diag(1, -1), which does not commute with its
    # left action, so the right action does not descend to the last quotient
    bad = Bimodule(base, base, 2, areg.left_action,
                   [areg.right_action[0], Matrix.from_rows(QQ, [[1, 0], [0, -1]])])
    with pytest.raises(WellDefinednessError):
        space(areg, areg, bad)


# ---------------------------------------------------------------------------
# projection by stages against the factor-flat projection it replaced


class ProjectPipe(bimodule.Pipe):
    """The pipe before projection by stages: `apply` multiplies by
    cod.section @ f @ dom.project in one stage and `done` by
    target.project, with `project` from the eager kron+matmul loop."""

    def apply(self, f, at=0, takes=1, gives=None):
        dom = space(*self.factors[at:at + takes])
        gives = list(gives) if gives is not None else [f.codomain]
        cod = space(*gives)
        flat_map = cod.section @ f.matrix @ eager_project_section(dom.factors)[0]
        return self._stage(flat_map, at, takes, gives)

    def done(self, target=None, name="pipe"):
        p = self
        if target is None:
            target = space(*p.factors)
        if target.factors != tuple(p.factors):
            p = p._refine_all()
            assert target.leaves == tuple(p.factors)
            for at, f in enumerate(target.factors):
                p = p._merge(f, at)
        proj = eager_project_section(target.factors)[0]
        return LinearMap(self.source.quotient, target.quotient,
                         proj @ p.matrix, name)


@st.composite
def trivial_bimodule(draw, field, base, name):
    """k^d with every basis element of base acting by the identity on both
    sides (a plain identity, which `Bimodule` marks): its quotients with
    other trivial factors are flat."""
    d = draw(st.integers(1, 2))
    ident = plain_identity(field, d)
    return Bimodule(base, base, d, [ident] * base.dim, [ident] * base.dim, name=name)


# factor-flat spaces stay at most this large, so the eager projections stay
# cheap
FLAT_BUDGET = 216


def _flat_dim(factors):
    return prod(f.dim for f in factors)


@st.composite
def apply_program(draw, field, base):
    """A source space over base, `apply` stages that take and give 1 to 3
    factors, and a target: the final factors, or another bracketing of
    them.  Trivial factors next to each other give flat levels and next to
    the others non-flat ones, so spaces mix both.  The stage maps are
    arbitrary matrices: projecting by stages only re-associates the
    product, so it must agree exactly for any map."""
    areg = regular_bimodule(base)
    mods = [draw(side_bimodule(field, base, True, f"M{i}")) for i in range(2)]
    triv = [draw(trivial_bimodule(field, base, f"T{i}")) for i in range(2)]
    pool = mods + triv + [areg, tensor_over(base, triv[0], triv[1]),
                          tensor_over(base, mods[0], triv[0])]
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)
                   .filter(lambda fs: _flat_dim(fs) <= FLAT_BUDGET))
    source, stages = space(*factors), []
    for _ in range(draw(st.integers(1, 3))):
        takes = min(len(factors), draw(st.integers(1, 3)))
        at = draw(st.integers(0, len(factors) - takes))
        gives = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        new = factors[:at] + gives + factors[at + takes:]
        if _flat_dim(new) > FLAT_BUDGET:
            continue
        x, y = space(*factors[at:at + takes]).quotient, space(*gives).quotient
        mat = draw(shaped_matrix(field, y.dim, x.dim))
        stages.append(("apply", LinearMap(x, y, mat, "f"), at, takes, gives))
        factors = new
    target = draw(bracketing(factors)) if draw(st.booleans()) else None
    return source, stages, target


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_staged_projection_matches_factor_flat_project(field, g, data):
    """`apply` merges and refines by stages, `done` merges into the target
    by stages, and `Space.project` is those merge stages on the identity;
    each must equal the factor-flat projection of the eager loop."""
    base = group_algebra_cyclic(field, g)
    source, stages, target = data.draw(apply_program(field, base))
    fast = run_program(bimodule.Pipe, source, stages, target)
    slow = run_program(ProjectPipe, source, stages, target)
    assert fast.domain is slow.domain and fast.codomain is slow.codomain
    assert fast.matrix == slow.matrix
    assert all(fast.matrix.data.values())
    _assert_eager_maps(source.factors)
    if target is not None:
        _assert_eager_maps(target.factors)


def test_lift_product_cube_pipes_match_factor_flat_project():
    """P (x) P (x) P for the product P of the kZ2/C2/D2 flip lift, whose
    levels have relations: the comultiplication piped twice (gives of two,
    three-factor targets), a map on all three factors into another
    bracketing, and the counit absorbed into a neighbour must equal the
    factor-flat projection of the eager loop."""
    from coringlab import cowreath
    prod = cowreath.cowreath_product(Corpus().lifted_flip_cw)[0]
    p, delta, eps = prod.carrier, prod.comult, prod.counit
    cube = space(p, p, p)
    right = space(p, tensor_over(p.right_algebra, p, p))
    assoc = regroup(cube, right)
    programs = [
        (space(p), [("apply", delta, 0, 1, [p, p]),
                    ("apply", delta, 1, 1, [p, p])], None),
        (space(p), [("apply", delta, 0, 1, [p, p]),
                    ("apply", delta, 0, 1, [p, p])], right),
        (cube, [("apply", assoc, 0, 3, list(right.factors))], cube),
        (cube, [("apply", eps, 2, 1, [eps.codomain]), ("absorb_left", 2),
                ("apply", delta, 0, 1, [p, p])], None),
    ]
    for source, stages, target in programs:
        fast = run_program(bimodule.Pipe, source, stages, target)
        slow = run_program(ProjectPipe, source, stages, target)
        assert fast.codomain is slow.codomain
        assert fast.matrix == slow.matrix
    assert run_program(bimodule.Pipe, *programs[2]).matrix == Matrix.identity(
        p.field, cube.dim)
    _assert_eager_maps(cube.factors)
    _assert_eager_maps(right.factors)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_flat_levels_cost_no_stage(field, monkeypatch):
    """Over the ground field every level is flat, so its projection and
    section are marked identities and cost no stage: an `apply` is one
    `padded_matmul` whatever it takes and gives, `done` adds none, and
    `Space.project` stays the marked identity."""
    x = rescaled_grouplike(field, [Fraction(2), Fraction(-3), Fraction(1, 2)],
                           "C").carrier
    two, three = space(x, x), space(x, x, x)
    f = LinearMap(two.quotient, three.quotient,
                  Matrix.from_entries(field, 27, 9, {(i * 3, i): field.one()
                                                      for i in range(9)}), "f")
    g = LinearMap(x, two.quotient,
                  Matrix.from_entries(field, 9, 3, {(4, 1): field.one()}), "g")
    p = bimodule.pipe(two)
    calls = []
    monkeypatch.setattr(Matrix, "padded_matmul", lambda *a, _f=Matrix.padded_matmul: (
        calls.append("padded_matmul"), _f(*a))[1])
    monkeypatch.setattr(bimodule.Pipe, "_stage", lambda *a, _f=bimodule.Pipe._stage: (
        calls.append("stage"), _f(*a))[1])
    p = p.apply(f, 0, 2, [x, x, x])
    assert calls == ["stage", "padded_matmul"]
    p = p.apply(g, 2, 1, [x, x]).apply(f, 1, 2, [x, x, x])
    lin = p.done()
    assert calls == ["stage", "padded_matmul"] * 3
    monkeypatch.undo()
    target = space(x, x, x, x, x)
    assert lin.codomain is target.quotient
    assert "project" not in vars(target)
    assert target.project.is_identity and target.section.is_identity
    slow = run_program(ProjectPipe, two, [("apply", f, 0, 2, [x, x, x]),
                                          ("apply", g, 2, 1, [x, x]),
                                          ("apply", f, 1, 2, [x, x, x])], None)
    assert lin.matrix == slow.matrix


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 4))
def test_marked_transposed_matches_plain_rows(field, data, n):
    """`marked` reads a `Transposed` by its columns: it marks exactly the
    matrices the row test marks, and leaves the rows of the others
    unbuilt."""
    m = data.draw(st.one_of(shaped_matrix(field, n, n),
                            st.just(plain_identity(field, n)),
                            shaped_matrix(field, n, n + 1)))
    t = exactla.Transposed(m)
    out = t.marked()
    plain = unmarked(m.transpose()).marked()
    assert out.is_identity == plain.is_identity
    if not out.is_identity:
        assert out is t and t._rows is None
    assert out == plain


def test_inherited_actions_keep_their_rows_unbuilt():
    """The inherited actions of a quotient with relations are built in
    column form, and marking them builds no rows."""
    base = group_algebra_cyclic(QQ, 2)
    areg = regular_bimodule(base)
    tq = space(areg, areg, areg).quotient
    acts = [a for a in tq.left_action + tq.right_action if not a.is_identity]
    assert acts and all(isinstance(a, exactla.Transposed) and a._rows is None
                        for a in acts)


def _plain_kills(relations, mat):
    """mat vanishes on every raw relation."""
    return all(not mat.apply(rel) for rel in relations)


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kills_matches_per_relation_check(field, g, data):
    """`kills` on project . K, for K an action tensored with the identity,
    perturbed or not, and on maps out of the flat space that factor through
    `project`, perturbed or not, against the plain per-relation checks."""
    clear_caches()
    base = group_algebra_cyclic(field, g)
    m = data.draw(side_bimodule(field, base, True, "M"))
    n = data.draw(side_bimodule(field, base, False, "N"))
    tq = tensor_over(base, m, n)
    relations, ech = plain_tensor_relations(base, m, n)
    assert tq.relations == relations
    flat = m.dim * n.dim
    acts = ([unmarked(x).kron(plain_identity(field, n.dim)) for x in m.left_action]
            + [plain_identity(field, m.dim).kron(unmarked(x))
               for x in n.right_action])
    for act in acts:
        assert tq.kills(tq.project @ act)
    act = data.draw(st.sampled_from(acts)) + data.draw(
        perturbation(field, flat, flat))
    assert tq.kills(tq.project @ act) == all(
        not ech.reduce(act.apply(rel)) for rel in relations)
    rows = data.draw(st.integers(1, 4))
    through = data.draw(perturbation(field, rows, tq.dim)) @ tq.project
    assert tq.kills(through)
    mat = through + data.draw(perturbation(field, rows, flat))
    assert tq.kills(mat) == _plain_kills(relations, mat)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kills_rejects_non_descending_action(field):
    clear_caches()
    a = group_algebra_cyclic(field, 2)
    reg = regular_bimodule(a)
    tq = tensor_over(a, reg, reg)
    twist = Matrix.from_entries(field, 2, 2, {(0, 0): field.one(),
                                              (1, 1): field.neg(field.one())})
    act = twist.kron(plain_identity(field, 2))
    assert any(tq.echelon.reduce(act.apply(rel)) for rel in tq.relations)
    assert not tq.kills(tq.project @ act)
    assert not tq.kills(act) and not _plain_kills(tq.relations, act)


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tensor_maps_matches_first_raw_relation(field, g, data):
    """f (x) g for perturbed identities f and g: an ill-defined one names
    the first raw relation it does not carry into the target relations, a
    well-defined one is the plain product."""
    clear_caches()
    base = group_algebra_cyclic(field, g)
    m = data.draw(side_bimodule(field, base, True, "M"))
    n = data.draw(side_bimodule(field, base, False, "N"))
    tq = tensor_over(base, m, n)
    relations, ech = plain_tensor_relations(base, m, n)
    fmat = plain_identity(field, m.dim) + data.draw(
        perturbation(field, m.dim, m.dim))
    gmat = plain_identity(field, n.dim) + data.draw(
        perturbation(field, n.dim, n.dim))
    fmap, gmap = LinearMap(m, m, fmat, "f"), LinearMap(n, n, gmat, "g")
    big = unmarked(fmat).kron(unmarked(gmat))
    bad = next((rel for rel in relations if ech.reduce(big.apply(rel))), None)
    if bad is None:
        project, section = _plain_project_section(tq)
        assert tensor_maps(fmap, gmap, tq, tq).matrix == project @ big @ section
        return
    with pytest.raises(WellDefinednessError) as err:
        tensor_maps(fmap, gmap, tq, tq)
    assert str(err.value) == (f"f(x)g is not well defined on {tq.name}: "
                              f"relation {sorted(bad.items())} not killed")
    assert err.value.relation == bad


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_flat_quotient_calls_kills_zero_times(field, monkeypatch):
    clear_caches()
    calls = []
    real = TensorQuotient.kills

    def spy(self, mat):
        calls.append(mat)
        return real(self, mat)

    monkeypatch.setattr(TensorQuotient, "kills", spy)
    k = field_algebra(field)
    group = regular_bimodule(group_algebra_cyclic(field, 3))
    # kZ3 acts on the left by non-identity matrices, which are inherited
    m = Bimodule(group.left_algebra, k, group.dim, group.left_action,
                 [Matrix.identity(field, group.dim)], name="G")
    for tq in (tensor_over(k, m, k_bimodule(k, 2)),
               tensor_over(k, k_bimodule(k, 2), k_bimodule(k, 3))):
        assert not tq.relations
    assert calls == []


ORE_CASES = ["ore_commutative", "ore_quantum_plane", "ore_weyl", "ore_broken"]


def plain_twist(table, n, bvec):
    """`OreTwistTable.twist` by the entry sums of `plain_apply`."""
    out = {}
    for i, mat in table.table[n].items():
        img = plain_apply(mat, bvec)
        if img:
            out[i] = img
    return out


def plain_rewrite_once(data, coeffs):
    """`ore._rewrite_once` by the entry sums of `plain_apply` and
    `field.add`."""
    f = data.coeff_algebra.field
    out = {}
    for i, vec in coeffs.items():
        for deg, mat in ((i + 1, data.sigma.matrix), (i, data.delta)):
            tgt = out.setdefault(deg, {})
            for k, c in plain_apply(mat, vec).items():
                u = f.add(tgt.get(k, f.zero()), c)
                if f.is_zero(u):
                    tgt.pop(k, None)
                else:
                    tgt[k] = u
    return {deg: v for deg, v in out.items() if v}


def _nonzero_vector(field, n):
    return st.dictionaries(st.integers(0, n - 1), st.integers(-6, 6).map(
        field.from_int).filter(lambda v: not field.is_zero(v)), max_size=n)


@pytest.mark.parametrize("case", ORE_CASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ore_twist_and_rewrite_match_row_loop(case, data):
    """Over QQ (commutative, quantum plane, broken derivation) and GF(3)
    (Weyl)."""
    d = getattr(Corpus(), case)
    f, dim = d.coeff_algebra.field, d.coeff_algebra.dim
    table = OreTwistTable(d, 4)
    vec = data.draw(_nonzero_vector(f, dim))
    for n in range(5):
        assert table.twist(n, vec) == plain_twist(table, n, vec)
    coeffs = data.draw(st.dictionaries(st.integers(0, 4), _nonzero_vector(f, dim),
                                       max_size=3))
    assert ore._rewrite_once(d, coeffs) == plain_rewrite_once(d, coeffs)


@pytest.mark.parametrize("case", ORE_CASES)
def test_ore_reports_match_row_loop(case, monkeypatch):
    def reports(corpus):
        d = getattr(corpus, case)
        out = [check_ore_wreath(d, 4), ore_vs_wreath_product(d, 4),
               twist_vs_skew_mul(d, 4)]
        if case == "ore_weyl":
            out.append(ore_universal_check(d, 4, *corpus.ore_weyl_target))
        return out

    fast = reports(Corpus())
    rewrites = []

    def counted_rewrite_once(d, coeffs):
        rewrites.append(1)
        return plain_rewrite_once(d, coeffs)

    monkeypatch.setattr(OreTwistTable, "twist",
                        lambda self, n, bvec: plain_twist(self, n, bvec))
    monkeypatch.setattr(ore, "_rewrite_once", counted_rewrite_once)
    # fresh data, so that its rewrite memo is empty and the oracle runs
    assert fast == reports(Corpus())
    assert rewrites
    assert (case == "ore_broken") == any(not r.ok for r in fast)


# -- the Ore rewrite memo, basis twists and single accumulator ---------------
#
# `skew_mul` reads Y^n . c from a memo on the `SkewPolyData` and accumulates
# into one dict; the checks read each basis twist once per table and form
# each product once.  The oracles below are the plain paths they replace:
# n calls of `_rewrite_once` per term summed by `SkewPoly.__add__`, the
# uncached `tapply` twist, and the check loops that re-twist and re-multiply
# inside every iteration.

ORE_GEN_FIELDS = [QQ, GF(101)]


def plain_skew_mul(d, p, q):
    """The product by n calls of `ore._rewrite_once` per term, each term a
    `SkewPoly` added to the running sum."""
    b = d.coeff_algebra
    out = ore.SkewPoly(d)
    for n, bvec in p.coeffs.items():
        for m, cvec in q.coeffs.items():
            moved = {0: dict(cvec)}
            for _ in range(n):
                moved = ore._rewrite_once(d, moved)
            acc = {}
            for i, vec in moved.items():
                prod = b.mul_vec(bvec, vec)
                if prod:
                    acc[i + m] = prod
            out = out + ore.SkewPoly(d, acc)
    return out


def tapply_twist(table, n, bvec):
    """The twist by one `tapply` per table matrix, computed afresh."""
    if not 0 <= n <= table.max_degree:
        raise InputError(f"degree {n} out of range")
    out = {}
    for i, mat in table.table[n].items():
        img = mat.tapply(bvec)
        if img:
            out[i] = img
    return out


def _plain_add_into(f, tgt, vec):
    for k, c in vec.items():
        u = f.add(tgt.get(k, f.zero()), c)
        if f.is_zero(u):
            tgt.pop(k, None)
        else:
            tgt[k] = u


def plain_check_ore_wreath(d, bound):
    """`check_ore_wreath` that twists and multiplies inside every loop."""
    fmt = ore._fmt_poly
    rep = ore.Report(f"ore wreath {d.name} (degree <= {bound})")
    rep.extend(ore.check_skew_data(d))
    b = d.coeff_algebra
    f = b.field
    table = ore.OreTwistTable(d, bound)
    tw = lambda n, v: tapply_twist(table, n, v)  # noqa: E731
    W = ore.Witness
    for i in range(b.dim):
        e = {i: f.one()}
        if tw(0, e) != {0: e}:
            rep.add(W("rt-unit", (b.labels[i],), fmt(b, tw(0, e)), fmt(b, {0: e})))
    for n in range(bound + 1):
        for m in range(bound + 1 - n):
            for idx in range(b.dim):
                e = {idx: f.one()}
                lhs = tw(n + m, e)
                rhs = {}
                for i, vec in tw(m, e).items():
                    for j, vec2 in tw(n, vec).items():
                        _plain_add_into(f, rhs.setdefault(i + j, {}), vec2)
                rhs = {k: v for k, v in rhs.items() if v}
                if lhs != rhs:
                    rep.add(W("rt-mult", (n, m, b.labels[idx]), fmt(b, lhs), fmt(b, rhs)))
    one = b.unit_vector()
    for n in range(bound + 1):
        want = {n: one} if one else {}
        if tw(n, one) != want:
            rep.add(W("eta-left-linear", (n,), fmt(b, tw(n, one)), fmt(b, want)))
    for n in range(bound + 1):
        for i in range(b.dim):
            for j in range(b.dim):
                lhs = {}
                for deg1, vec1 in tw(n, {i: f.one()}).items():
                    for deg2, vec2 in tw(deg1, {j: f.one()}).items():
                        prod = b.mul_vec(vec1, vec2)
                        if prod:
                            _plain_add_into(f, lhs.setdefault(deg2, {}), prod)
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = tw(n, b.mult[i][j])
                if lhs != rhs:
                    rep.add(W("mu-left-linear", (n, b.labels[i], b.labels[j]),
                              fmt(b, lhs), fmt(b, rhs)))

    def times(u, poly):
        return {deg: p for deg, vec in poly.items() if (p := b.mul_vec(u, vec))}

    for n in range(bound + 1):
        for i in range(b.dim):
            bi = {i: f.one()}
            if b.mul_vec(bi, one) != bi:
                rep.add(W("w-unit", (b.labels[i], n), b.fmt_vec(b.mul_vec(bi, one)),
                          b.fmt_vec(bi)))
            lhs = times(one, tw(n, bi))
            if lhs != tw(n, bi):
                rep.add(W("w-twist", (n, b.labels[i]), fmt(b, lhs), fmt(b, tw(n, bi))))
            for j in range(b.dim):
                for k in range(b.dim):
                    lhs = times(b.mult[i][j], tw(n, {k: f.one()}))
                    rhs = times(bi, times({j: f.one()}, tw(n, {k: f.one()})))
                    if lhs != rhs:
                        rep.add(W("w-assoc", (b.labels[i], b.labels[j], n, b.labels[k]),
                                  fmt(b, lhs), fmt(b, rhs)))
    return rep


def plain_ore_vs_wreath_product(d, bound):
    """`ore_vs_wreath_product` with a fresh twist, product and monomials for
    every (n, m, i, j)."""
    rep = ore.Report(f"ore product comparison {d.name} (degree <= {bound})")
    b = d.coeff_algebra
    f = b.field
    table = ore.OreTwistTable(d, bound)
    for n in range(bound + 1):
        for m in range(bound + 1 - n):
            for i in range(b.dim):
                for j in range(b.dim):
                    lhs = {}
                    for deg, vec in tapply_twist(table, n, {j: f.one()}).items():
                        prod = b.mul_vec({i: f.one()}, vec)
                        if prod:
                            lhs[deg + m] = prod
                    rhs = plain_skew_mul(d, ore.SkewPoly.monomial(d, {i: f.one()}, n),
                                         ore.SkewPoly.monomial(d, {j: f.one()}, m)).coeffs
                    if lhs != rhs:
                        rep.add(ore.Witness("product-mismatch", (b.labels[i], n, b.labels[j], m),
                                            ore._fmt_poly(b, lhs), ore._fmt_poly(b, rhs)))
    return rep


def plain_twist_vs_skew_mul(d, bound):
    rep = ore.Report(f"twist table vs rewrite {d.name}")
    b = d.coeff_algebra
    f = b.field
    table = ore.OreTwistTable(d, bound)
    for n in range(bound + 1):
        for i in range(b.dim):
            via_table = tapply_twist(table, n, {i: f.one()})
            via_mul = plain_skew_mul(d, ore.SkewPoly.y(d, n),
                                     ore.SkewPoly.monomial(d, {i: f.one()}, 0)).coeffs
            if via_table != via_mul:
                rep.add(ore.Witness("twist-vs-rewrite", (n, b.labels[i]),
                                    ore._fmt_poly(b, via_table), ore._fmt_poly(b, via_mul)))
    return rep


def _ore_scalar(field):
    """Small scalars; the denominators are units in GF(3) and GF(101)."""
    return st.builds(Fraction, st.integers(-4, 4),
                     st.sampled_from([1, 2, 4])).map(field.parse)


def _ore_vector(field, dim):
    return st.dictionaries(st.integers(0, dim - 1), _ore_scalar(field), max_size=dim)


@st.composite
def generated_skew_data(draw, field):
    """Arbitrary sigma and delta on k[x]/(x^dim) or on arbitrary structure
    constants: the rewrite and the table need no validity, and invalid data
    makes every law of the checks report witnesses."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        B = truncated_poly_algebra(field, dim)
    else:
        vec = _ore_vector(field, dim)
        B = FinAlgebra(field, dim, [[draw(vec) for _ in range(dim)]
                                    for _ in range(dim)], draw(vec))
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    sigma = Matrix.from_entries(field, dim, dim, draw(
        st.dictionaries(cells, _ore_scalar(field), max_size=dim * dim)))
    delta = Matrix.from_entries(field, dim, dim, draw(
        st.dictionaries(cells, _ore_scalar(field), max_size=dim * dim)))
    return SkewPolyData(B, AlgebraMorphism(B, B, sigma, name="s"), delta, name="gen")


def _ore_poly(d, data):
    f, dim = d.coeff_algebra.field, d.coeff_algebra.dim
    return ore.SkewPoly(d, data.draw(st.dictionaries(
        st.integers(0, 4), _ore_vector(f, dim), max_size=3)))


def _fresh_corpus_data(case):
    return getattr(Corpus(), case)


ORE_DATA = ([pytest.param(lambda data, c=c: _fresh_corpus_data(c), id=c)
             for c in ORE_CASES]
            + [pytest.param(lambda data, f=f: data.draw(generated_skew_data(f)),
                            id=f"generated-{f.name}") for f in ORE_GEN_FIELDS])


def _count_rewrites(monkeypatch):
    calls = []
    real = ore._rewrite_once

    def counted(d, coeffs):
        calls.append(1)
        return real(d, coeffs)

    monkeypatch.setattr(ore, "_rewrite_once", counted)
    return calls


@pytest.mark.parametrize("make", ORE_DATA)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_skew_mul_matches_plain_rewrite_loop(make, data):
    """Multi-term products from a cold memo, the same products from a warm
    one, and products that reuse part of it, all equal the plain loop."""
    d = make(data)
    pairs = [(_ore_poly(d, data), _ore_poly(d, data)) for _ in range(3)]
    expected = [plain_skew_mul(d, p, q) for p, q in pairs]
    cold = [ore.skew_mul(d, p, q) for p, q in pairs]
    warm = [ore.skew_mul(d, p, q) for p, q in pairs]
    assert cold == expected == warm
    for r in cold:
        assert all(r.coeffs.values())
        assert all(not d.coeff_algebra.field.is_zero(c)
                   for vec in r.coeffs.values() for c in vec.values())


@pytest.mark.parametrize("field", ORE_GEN_FIELDS, ids=repr)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_warm_skew_mul_rewrites_nothing(field, data):
    """A warm memo answers Y^n . c without rewriting, and a higher degree
    continues from the highest rewrite kept."""
    d = data.draw(generated_skew_data(field))
    c = data.draw(_ore_vector(field, d.coeff_algebra.dim))
    y = lambda n: ore.SkewPoly.monomial(d, {0: field.one()}, n)  # noqa: E731
    cpoly = ore.SkewPoly(d, {0: c})
    expected = {n: plain_skew_mul(d, y(n), cpoly) for n in (2, 3, 5)}
    rewrites = 1 if cpoly.coeffs else 0
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_rewrites(mp)
        assert ore.skew_mul(d, y(3), cpoly) == expected[3]
        assert len(calls) == 3 * rewrites
        calls.clear()
        assert ore.skew_mul(d, y(3), cpoly) == expected[3]
        assert ore.skew_mul(d, y(2), cpoly) == expected[2]
        assert calls == []
        assert ore.skew_mul(d, y(5), cpoly) == expected[5]
        assert len(calls) == 2 * rewrites


@pytest.mark.parametrize("make", ORE_DATA)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_twists_match_uncached_tapply(make, data):
    """Basis twists, kept once per degree, and twists of non-basis vectors,
    asked twice, equal a fresh `tapply` per table matrix."""
    d = make(data)
    f, dim = d.coeff_algebra.field, d.coeff_algebra.dim
    table = OreTwistTable(d, 4)
    vecs = [data.draw(_ore_vector(f, dim)) for _ in range(3)]
    for n in range(5):
        assert table._basis_twists(n) == [
            tapply_twist(table, n, {k: f.one()}) for k in range(dim)]
        assert table._basis_twists(n) is table._basis_twists(n)
        for v in vecs:
            assert table.twist(n, v) == tapply_twist(table, n, v)
            assert ore.ore_twist(table, n, v) == tapply_twist(table, n, v)


def _plain_ore_reports(d, bound):
    return [plain_check_ore_wreath(d, bound), plain_ore_vs_wreath_product(d, bound),
            plain_twist_vs_skew_mul(d, bound)]


def _ore_reports(d, bound):
    return [check_ore_wreath(d, bound), ore_vs_wreath_product(d, bound),
            twist_vs_skew_mul(d, bound)]


@pytest.mark.parametrize("make", ORE_DATA)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_ore_reports_match_plain_loops(make, data):
    """Reports, witnesses and their order: the hoisted checks against the
    loops that twist and multiply in every iteration, on fresh data (a cold
    memo) and again on the same data (a warm one)."""
    d = make(data)
    bound = data.draw(st.integers(0, 4))
    expected = _plain_ore_reports(d, bound)
    for _ in range(2):
        assert _ore_reports(d, bound) == expected


@pytest.mark.parametrize("case", ORE_CASES)
def test_ore_reports_match_plain_loops_up_to_the_corpus_bound(case):
    """Every bound from 0 to 8, the degrees the `corpus` benchmark runs, on
    fresh data (a cold memo) and again on the same data (a warm one)."""
    for bound in range(9):
        d = _fresh_corpus_data(case)
        expected = _plain_ore_reports(d, bound)
        for _ in range(2):
            assert _ore_reports(d, bound) == expected


def test_skew_mul_never_reads_the_twist_table(monkeypatch):
    """A spy on every `OreTwistTable` entry point sees no call from
    `skew_mul`, cold or warm, and the memo holds only dicts."""
    seen = []
    for name in ("__init__", "twist", "_basis_twists"):
        real = getattr(OreTwistTable, name)

        def spy(self, *args, _real=real, _name=name):
            seen.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(OreTwistTable, name, spy)
    for case in ORE_CASES:
        d = _fresh_corpus_data(case)
        f = d.coeff_algebra.field
        for _ in range(2):
            for n in range(6):
                for j in range(d.coeff_algebra.dim):
                    ore.skew_mul(d, ore.SkewPoly.y(d, n),
                                 ore.SkewPoly(d, {1: {j: f.one()}, 0: {0: f.one()}}))
        assert d._rewrites
        assert all(type(v) is dict and all(type(w) is dict for w in v.values())
                   for v in d._rewrites.values())
    assert seen == []
    OreTwistTable(_fresh_corpus_data("ore_weyl"), 2).twist(1, {0: 1})
    assert seen == ["__init__", "twist"]


def _perturbed_table(monkeypatch, degree=2):
    """Every table built from now on has e_0 added to the top entry of
    `degree`, so its twists disagree with the rewrite."""
    real = OreTwistTable.__init__

    def init(self, data, max_degree):
        real(self, data, max_degree)
        if max_degree >= degree:
            f, dim = data.coeff_algebra.field, data.coeff_algebra.dim
            bump = Matrix.from_entries(f, dim, dim, {(0, 0): f.one()})
            cur = self.table[degree].get(degree)
            self.table[degree][degree] = bump if cur is None else cur + bump

    monkeypatch.setattr(OreTwistTable, "__init__", init)


@pytest.mark.parametrize("case", ORE_CASES)
def test_perturbed_table_is_caught_as_by_the_plain_loops(case, monkeypatch):
    """With one table entry perturbed, the comparisons report exactly the
    `product-mismatch` and `twist-vs-rewrite` witnesses of the plain
    computation, cold and warm; were `skew_mul` to read the table, the two
    sides would agree and report nothing."""
    _perturbed_table(monkeypatch)
    d = _fresh_corpus_data(case)
    expected = [plain_ore_vs_wreath_product(d, 4), plain_twist_vs_skew_mul(d, 4)]
    assert "product-mismatch" in expected[0].equations()
    assert "twist-vs-rewrite" in expected[1].equations()
    for _ in range(2):
        assert [ore_vs_wreath_product(d, 4), twist_vs_skew_mul(d, 4)] == expected


@pytest.mark.parametrize("degree", [2, 5])
@pytest.mark.parametrize("case", ORE_CASES)
def test_perturbed_table_at_the_corpus_bound(case, degree, monkeypatch):
    """A table perturbed at degree 2 or 5 and read up to degree 8 makes
    `rt-mult`, `mu-left-linear` and `product-mismatch` fire at high degree,
    with the witnesses of the plain loops, cold and warm."""
    _perturbed_table(monkeypatch, degree)
    d = _fresh_corpus_data(case)
    expected = _plain_ore_reports(d, 8)
    assert {"rt-mult", "mu-left-linear"} <= set(expected[0].equations())
    assert "product-mismatch" in expected[1].equations()
    assert any(w.basis[3] > 0 for w in expected[1].witnesses)
    for _ in range(2):
        assert _ore_reports(d, 8) == expected


def plain_ore_universal_check(d, bound, target, phi, z_vec):
    """`ore_universal_check` that re-twists each product through
    `wreath_monomial_product` and extends both sides afresh for every
    (n, m, i, j)."""
    rep = ore.Report(f"universal extension {d.name} -> {target.name}")
    b = d.coeff_algebra
    f = b.field
    rep.extend(ore.check_algebra_morphism(AlgebraMorphism(b, target, phi, name="phi")),
               prefix="phi")
    for i in range(b.dim):
        e = {i: f.one()}
        lhs = target.mul_vec(z_vec, phi.apply(e))
        rhs = f.axpy(target.mul_vec(phi.apply(d.sigma.matrix.apply(e)), z_vec),
                     phi.apply(d.delta.apply(e)), f.one())
        if lhs != rhs:
            rep.add(ore.Witness("ore-relation", (b.labels[i],),
                                target.fmt_vec(lhs), target.fmt_vec(rhs)))
    if not rep.ok:
        return rep
    table = ore.OreTwistTable(d, bound)
    zpow = [target.unit_vector()]
    for _ in range(bound):
        zpow.append(target.mul_vec(zpow[-1], z_vec))

    def extend(coeffs):
        out = {}
        for n, vec in coeffs.items():
            f.axpy(out, target.mul_vec(phi.apply(vec), zpow[n]), f.one())
        return out

    one_img = extend({0: b.unit_vector()})
    if one_img != target.unit:
        rep.add(ore.Witness("ext-unit", ("1",), target.fmt_vec(one_img),
                            target.fmt_vec(dict(target.unit))))
    for n in range(bound + 1):
        for m in range(bound + 1 - n):
            for i in range(b.dim):
                for j in range(b.dim):
                    lhs = extend(ore.wreath_monomial_product(
                        table, {i: f.one()}, n, {j: f.one()}, m))
                    rhs = target.mul_vec(
                        target.mul_vec(phi.apply({i: f.one()}), zpow[n]),
                        target.mul_vec(phi.apply({j: f.one()}), zpow[m]))
                    if lhs != rhs:
                        rep.add(ore.Witness("ext-mult", (b.labels[i], n, b.labels[j], m),
                                            target.fmt_vec(lhs), target.fmt_vec(rhs)))
    return rep


@pytest.mark.parametrize("degree", [None, 1, 2, 5])
def test_universal_check_matches_the_retwisting_loop(degree, monkeypatch):
    """The Weyl data into its corpus target at every bound from 0 to 8, on
    fresh data, with the table as built and perturbed at degree 1, 2 or 5:
    the same report, witnesses in order, as the loop that re-twists every
    product.  Only a perturbed table can make `ext-mult` fail, from its
    perturbed degree on; z^3 = 0 in the target, so a perturbation at
    degree 5 maps to 0 and fails nothing."""
    if degree is not None:
        _perturbed_table(monkeypatch, degree)
    for bound in range(9):
        corpus = Corpus()
        d, target = corpus.ore_weyl, corpus.ore_weyl_target
        expected = plain_ore_universal_check(d, bound, *target)
        fails = degree in (1, 2) and bound >= degree
        assert ("ext-mult" in expected.equations()) == fails
        assert expected.ok != fails
        assert ore_universal_check(d, bound, *target) == expected


@pytest.mark.parametrize("field", ORE_GEN_FIELDS, ids=repr)
def test_non_associative_data_reports_as_the_plain_loops(field):
    """Fixed data on which the unit, multiplication and wreath-diagram laws
    fail: structure constants that are neither associative nor unital, a
    sigma that is no morphism and a delta that is no derivation.  `w-assoc`
    is evaluated only where (e_i e_j) e_c and e_i (e_j e_c) differ, so it
    must still report each witness of the plain loops."""
    B = FinAlgebra(field, 2, [[{0: 1, 1: 1}, {1: 1}], [{}, {0: 2}]], {0: 1, 1: 1})
    sigma = Matrix.from_entries(field, 2, 2, {(0, 1): 1, (1, 0): 1})
    delta = Matrix.from_entries(field, 2, 2, {(1, 0): 1})
    d = SkewPolyData(B, AlgebraMorphism(B, B, sigma, name="s"), delta, name="gen")
    expected = plain_check_ore_wreath(d, 8)
    assert {"mu-left-linear", "w-assoc", "w-twist", "w-unit"} <= set(expected.equations())
    for _ in range(2):
        assert check_ore_wreath(d, 8) == expected


def _ore_session_with_unit(unit):
    """sessions/ore_rational.json with the unit of k[y]/(y^3), the
    coefficient algebra of `quantum-plane`, replaced."""
    path = os.path.join(os.path.dirname(__file__), "..", "sessions", "ore_rational.json")
    with open(path) as fh:
        raw = json.load(fh)
    raw["algebras"]["k[y]/(y^3)"]["unit"] = unit
    return raw


def test_zero_unit_fails_through_the_unit_laws_only():
    """With a zero unit, eta twists 0 to 0 at every degree, so
    `eta-left-linear` holds; the report fails through `w-unit`, which shows
    b.1 = 0 against b, and `w-twist`, as the plain loops say."""
    d = parse_session(_ore_session_with_unit(["0", "0", "0"])).skewpoly["quantum-plane"]
    rep = check_ore_wreath(d, 2)
    assert rep.equations() == ["w-twist", "w-unit"]
    assert rep == plain_check_ore_wreath(d, 2)
    units = [(w.basis, w.lhs, w.rhs) for w in rep.witnesses if w.equation == "w-unit"]
    assert units == [((label, n), "0", label) for n in range(3)
                     for label in ("1", "y", "y^2")]


def test_w_unit_witness_shows_both_values():
    """A unit moved to y: each `w-unit` witness prints b.1 = b.y against
    b, in the order of the plain loops."""
    d = parse_session(_ore_session_with_unit(["0", "1", "0"])).skewpoly["quantum-plane"]
    rep = check_ore_wreath(d, 1)
    assert rep == plain_check_ore_wreath(d, 1)
    units = [(w.basis, w.lhs, w.rhs) for w in rep.witnesses if w.equation == "w-unit"]
    assert units == [((label, n), lhs, label) for n in range(2)
                     for label, lhs in (("1", "y"), ("y", "y^2"), ("y^2", "0"))]


def test_cached_values_are_not_handed_out(corpus):
    """Mutating what `ore_twist`, `wreath_monomial_product` and `skew_mul`
    return, or the polynomials passed in, changes no later result."""
    for d in (corpus.ore_weyl, corpus.ore_quantum_plane):
        f = d.coeff_algebra.field
        table = OreTwistTable(d, 4)
        table._basis_twists(3)
        before = [ore.ore_twist(table, 3, {k: f.one()}) for k in range(3)]
        for k in range(3):
            got = ore.ore_twist(table, 3, {k: f.one()})
            for vec in got.values():
                vec[0] = f.from_int(7)
            got[9] = {1: f.one()}
            ore.wreath_monomial_product(table, {1: f.one()}, 3, {k: f.one()}, 0)[5] = {}
        assert [ore.ore_twist(table, 3, {k: f.one()}) for k in range(3)] == before
        assert [tapply_twist(table, 3, {k: f.one()}) for k in range(3)] == before
        assert table._basis_twists(3) == before

        p = ore.SkewPoly(d, {2: {1: f.one()}, 1: {0: f.from_int(2)}})
        q = ore.SkewPoly(d, {3: {0: f.one(), 2: f.one()}, 0: {1: f.one()}})
        first = ore.skew_mul(d, p, q)
        expect = plain_skew_mul(d, p, q)
        for vec in first.coeffs.values():
            vec[2] = f.from_int(5)
        first.coeffs[11] = {0: f.one()}
        for vec in q.coeffs.values():
            vec[1] = f.from_int(3)
        q2 = ore.SkewPoly(d, {3: {0: f.one(), 2: f.one()}, 0: {1: f.one()}})
        assert ore.skew_mul(d, p, q2) == expect == plain_skew_mul(d, p, q2)


def test_dropped_skew_data_frees_its_memo_without_gc():
    """The memo holds no reference back to its data, so dropping the data
    and its table frees both by reference counting alone."""
    import gc
    import weakref

    B = truncated_poly_algebra(GF(101), 3)
    delta = Matrix.from_entries(GF(101), 3, 3, {(0, 1): 1, (1, 2): 2})
    d = SkewPolyData(B, AlgebraMorphism(B, B, Matrix.identity(GF(101), 3)), delta)
    check_ore_wreath(d, 4)
    ore_vs_wreath_product(d, 4)
    assert d._rewrites
    table = OreTwistTable(d, 4)
    table._basis_twists(4)
    refs = [weakref.ref(d), weakref.ref(table)]
    gc.disable()
    try:
        del d, table
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# monomial quotients: the union-find path against the Echelon path


def echelon_oracle(a, m, n):
    """What `tensor_over` must give for M (x)_A N, built the plain way: the
    raw relations through `Echelon`, project and section from_entries, each
    inherited action as project @ (act (x) I) @ section with the plain
    Kronecker product, or, when an action does not descend, the message of
    the raw-relation check and the first echelon row it names."""
    f = m.field
    relations, ech = plain_tensor_relations(a, m, n)
    rows = [ech.full_row(p) for p in ech.pivots()]
    bigs = [("left", label, unmarked(x).kron(plain_identity(f, n.dim)))
            for label, x in zip(m.left_algebra.labels, m.left_action)]
    bigs += [("right", label, plain_identity(f, m.dim).kron(unmarked(x)))
             for label, x in zip(n.right_algebra.labels, n.right_action)]
    for side, label, big in bigs:
        if any(ech.reduce(big.tapply(rel)) for rel in relations):
            row = next(row for row in rows if ech.reduce(big.tapply(row)))
            return {"error": (f"{side} action of {label} does not descend to "
                              f"({m.name}(x){n.name})", row)}
    free = ech.free_columns()
    pos = {c: t for t, c in enumerate(free)}
    entries = {(t, c): f.one() for t, c in enumerate(free)}
    for p, row in ech.pivot_rows.items():
        for c, v in row.items():
            entries[(pos[c], p)] = f.neg(v)
    flat = m.dim * n.dim
    project = Matrix.from_entries(f, len(free), flat, entries)
    section = Matrix.from_entries(
        f, flat, len(free), {(c, t): f.one() for t, c in enumerate(free)})
    acts = [project @ unmarked(x).kron(plain_identity(f, n.dim)) @ section
            for x in m.left_action]
    acts += [project @ plain_identity(f, m.dim).kron(unmarked(x)) @ section
             for x in n.right_action]
    return {"relations": relations, "free": free, "pivot_rows": ech.pivot_rows,
            "project": project, "section": section, "acts": acts}


def assert_matches_echelon(a, m, n):
    """tensor_over(a, m, n) gives what `echelon_oracle` gives: the same
    relations, basis, echelon rows, maps, inherited actions and marks, or
    the same descent error naming the same echelon row.  Returns the
    quotient, or None after an error."""
    want = echelon_oracle(a, m, n)
    if "error" in want:
        message, relation = want["error"]
        with pytest.raises(WellDefinednessError) as err:
            tensor_over(a, m, n)
        assert str(err.value) == message
        assert err.value.relation == relation
        return None
    tq = tensor_over(a, m, n)
    assert tq.relations == want["relations"]
    assert tq.free_cols == want["free"]
    assert tq.echelon.pivot_rows == want["pivot_rows"]
    assert tq.echelon.pivots() == tuple(sorted(want["pivot_rows"]))
    assert tq.project == want["project"] and tq.section == want["section"]
    assert tq.project.is_identity == tq.section.is_identity == (not tq.relations)
    ident = plain_identity(m.field, tq.dim)
    for got, plain in zip(tq.left_action + tq.right_action, want["acts"]):
        assert got == plain
        assert got.is_identity == (plain == ident)
    return tq


def nonzero_scalars(field):
    if field == QQ:
        return st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    return st.integers(1, field.p - 1)


@st.composite
def monomial_matrix(draw, field, d):
    """A d x d matrix with at most one nonzero entry in each column, mostly
    1, so that random ties still leave components alive."""
    entries = {}
    for j in range(d):
        if draw(st.integers(0, 7)):
            v = draw(st.one_of(st.just(1), nonzero_scalars(field)))
            entries[(draw(st.integers(0, d - 1)), j)] = v
    return Matrix.from_entries(field, d, d, entries)


@st.composite
def monomial_input(draw, field):
    """(a, m, n) with free monomial R_k and L_k, so that the relations tie
    columns at random: one-term relations, inconsistent cycles and dead
    components all occur.  Some R_k, L_k and inherited actions are the
    identity (marked by `Bimodule`); the other inherited actions are
    monomial, so some do not descend."""
    def acts(d, count):
        return [plain_identity(field, d) if draw(st.integers(0, 2)) == 0
                else draw(monomial_matrix(field, d)) for _ in range(count)]

    a = group_algebra_cyclic(field, draw(st.integers(1, 3)))
    outer = group_algebra_cyclic(field, draw(st.integers(1, 2)))
    dm, dn = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    keep = draw(st.booleans())  # inherited actions all identity: they descend
    m = Bimodule(outer, a, dm,
                 [plain_identity(field, dm)] * outer.dim if keep else acts(dm, outer.dim),
                 acts(dm, a.dim), name="M")
    n = Bimodule(a, outer, dn, acts(dn, a.dim),
                 [plain_identity(field, dn)] * outer.dim if keep else acts(dn, outer.dim),
                 name="N")
    return a, m, n


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_monomial_quotients_match_echelon(field, data):
    a, m, n = data.draw(monomial_input(field))
    assert_matches_echelon(a, m, n)


def sweedler_algebra(field):
    """Sweedler's H4: basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx."""
    one, neg = field.one(), field.neg(field.one())
    mult = [[{0: one}, {1: one}, {2: one}, {3: one}],
            [{1: one}, {0: one}, {3: one}, {2: one}],
            [{2: one}, {3: neg}, {}, {}],
            [{3: one}, {2: neg}, {}, {}]]
    return FinAlgebra(field, 4, mult, {0: one}, ["1", "g", "x", "gx"], "H4")


def conjugated(b, d):
    """b with every action conjugated by the invertible diagonal matrix d,
    so the actions stay monomial but their entries are no longer +-1."""
    f = b.field
    inv = Matrix(f, d.rows, d.cols, {i: {i: f.inv(row[i])} for i, row in d.data.items()})
    return Bimodule(b.left_algebra, b.right_algebra, b.dim,
                    [inv @ x @ d for x in b.left_action],
                    [inv @ x @ d for x in b.right_action], name=b.name)


MONOMIAL_BASES = [
    ("kZ2/QQ", lambda: group_algebra_cyclic(QQ, 2)),
    ("kZ3/GF(101)", lambda: group_algebra_cyclic(GF(101), 3)),
    ("kZ2/GF(2)", lambda: group_algebra_cyclic(GF(2), 2)),
    ("kZ3/GF(3)", lambda: group_algebra_cyclic(GF(3), 3)),
    ("H4/QQ", lambda: sweedler_algebra(QQ)),
    ("H4/GF(3)", lambda: sweedler_algebra(GF(3))),
    ("k[x]/(x^3)/QQ", lambda: truncated_poly_algebra(QQ, 3)),
    ("M2/GF(101)", lambda: matrix_algebra(GF(101), 2)),
]


@pytest.mark.parametrize("make", [m for _, m in MONOMIAL_BASES],
                         ids=[name for name, _ in MONOMIAL_BASES])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_regular_bimodules_match_echelon(make, data):
    """Sums of regular bimodules over semisimple, modular and nilpotent
    bases, each conjugated by a diagonal matrix or not, and the quotients of
    three factors built on them."""
    a = make()
    f = a.field
    reg = regular_bimodule(a)

    def factor(name):
        copies = data.draw(st.integers(1, 2))
        d = copies * a.dim
        b = Bimodule(a, a, d, [_block_diag(f, [x] * copies) for x in reg.left_action],
                     [_block_diag(f, [x] * copies) for x in reg.right_action], name=name)
        if data.draw(st.booleans()):
            diag = [data.draw(nonzero_scalars(f)) for _ in range(d)]
            b = conjugated(b, Matrix(f, d, d, {i: {i: f.parse(v)} for i, v in enumerate(diag)}))
        return b

    m, n, p = factor("M"), factor("N"), factor("P")
    tq = assert_matches_echelon(a, m, n)
    assert tq is not None and tq.relations
    nested = assert_matches_echelon(a, tq, p)
    assert nested is not None and nested.dim == a.dim * (tq.dim // a.dim) * (p.dim // a.dim)


def test_sweedler_quotient_has_one_term_relations():
    """x^2 = 0 gives relations with one term; the regular H4 (x) H4 over H4
    is H4 again, on the free columns of the largest pure tensors."""
    a = sweedler_algebra(QQ)
    reg = regular_bimodule(a)
    tq = assert_matches_echelon(a, reg, reg)
    assert any(len(rel) == 1 for rel in tq.relations)
    assert tq.dim == 4


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_inconsistent_cycle_and_dead_component(field):
    """M . e sends m0 to m1, m1 to 2 m0, m2 to 0 and fixes m3, and e fixes
    n0.  The relations m1 (x) n0 = m0 (x) n0 and 2 m0 (x) n0 = m1 (x) n0
    close a cycle of weight 2, so that component is 0; the one-term
    relation m2 (x) n0 = 0 kills the next; m3 (x) n0 alone stays free."""
    a = field_algebra(field)
    one, two = field.one(), field.from_int(2)
    e = Matrix.from_entries(field, 4, 4, {(1, 0): one, (0, 1): two, (3, 3): one})
    k = field_algebra(field)
    m = Bimodule(k, a, 4, [Matrix.identity(field, 4)], [e], name="M")
    n = Bimodule(a, k, 1, [Matrix.from_entries(field, 1, 1, {(0, 0): one})],
                 [Matrix.identity(field, 1)], name="N")
    tq = assert_matches_echelon(a, m, n)
    assert tq.free_cols == (3,)
    assert tq.echelon.pivot_rows == {0: {}, 1: {}, 2: {}}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_non_descending_monomial_action_names_the_echelon_row(field):
    """kZ3 (x)_kZ3 kZ3 with the left action of g on M replaced by a
    transposition, which does not commute with the right action."""
    a = group_algebra_cyclic(field, 3)
    reg = regular_bimodule(a)
    swap = Matrix.from_entries(field, 3, 3, {(1, 0): 1, (0, 1): 1, (2, 2): 1})
    m = Bimodule(a, a, 3, [reg.left_action[0], swap, swap @ swap @ swap],
                 reg.right_action, name="M")
    assert assert_matches_echelon(a, m, reg) is None


def test_corpus_lifts_match_echelon(monkeypatch):
    """Every quotient the corpus lifts build, with their checks and
    products, against the Echelon path."""
    from coringlab import cowreath
    built = []
    real = bimodule._build_tensor

    def spy(a, m, n, name):
        built.append((a, m, n))
        return real(a, m, n, name)

    monkeypatch.setattr(bimodule, "_build_tensor", spy)
    corpus = Corpus()
    for w in (corpus.lifted_flip_cw, corpus.lifted_dk_cw):
        assert cowreath.check_cowreath(w).ok
        product, morph = cowreath.cowreath_product(w)
        assert morph.ok and check_coring(product).ok
    monkeypatch.setattr(bimodule, "_build_tensor", real)
    with_relations = 0
    for a, m, n in built:
        with_relations += bool(assert_matches_echelon(a, m, n).relations)
    assert with_relations >= 10


def test_monomial_input_never_calls_echelon_add(monkeypatch):
    calls = []
    real = Echelon.add

    def spy(self, vec):
        calls.append(vec)
        return real(self, vec)

    monkeypatch.setattr(Echelon, "add", spy)
    a = group_algebra_cyclic(QQ, 3)
    reg = regular_bimodule(a)
    tq = space(reg, reg, reg).quotient
    tq.kills(tq.project)
    assert tq.relations and tq.echelon.pivot_rows and tq.section
    assert calls == []
    # regular kZ2 in a basis where g acts by [[-1, 0], [1, 1]], whose first
    # column has two entries
    a = group_algebra_cyclic(QQ, 2)
    reg = regular_bimodule(a)
    p = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    p_inv = solve(p, plain_identity(QQ, 2))
    m = Bimodule(a, a, 2, [p_inv @ x @ p for x in reg.left_action],
                 [p_inv @ x @ p for x in reg.right_action], name="M")
    assert m.right_action[1] == Matrix.from_rows(QQ, [[-1, 0], [1, 1]])
    calls.clear()  # solve used Echelon
    tensor_over(a, m, m)
    assert calls
    assert_matches_echelon(a, m, m)


# ---------------------------------------------------------------------------
# monomial matrices: the two-list kind against a plain Matrix, and the
# monomial path of a union-find quotient against the scatter path


@st.composite
def monomial_lists(draw, field, rows, cols):
    """(tgt, wt) of a rows x cols monomial: each column zero (target -1) or
    one nonzero entry.  A zero column still gets a nonzero weight, which no
    reader may use."""
    tgt = [draw(st.integers(-1, rows - 1)) for _ in range(cols)]
    wt = [draw(nonzero_scalars(field)) for _ in range(cols)]
    return tgt, wt


def plain_of(field, rows, tgt, wt):
    """The plain Matrix with the entries of the monomial (tgt, wt)."""
    return Matrix.from_entries(field, rows, len(tgt), {
        (t, c): w for c, (t, w) in enumerate(zip(tgt, wt)) if t >= 0})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(0, 4), cols=st.integers(0, 4))
def test_monomial_matches_plain_matrix(field, data, rows, cols):
    """A `Monomial` reads like the plain Matrix with its entries under `==`,
    `transpose`, `@` on either side, `kron` on either side, `apply`,
    `tapply` and as the stage matrix of `padded_matmul`; each reader gets
    a fresh monomial, so that every read is the first."""
    tgt, wt = data.draw(monomial_lists(field, rows, cols))
    plain = plain_of(field, rows, tgt, wt)

    def mono():
        return exactla.Monomial(field, rows, list(tgt), list(wt))

    assert mono() == plain and plain == mono()
    assert mono().data == plain.data and mono().to_rows() == plain.to_rows()
    assert mono().transpose() == plain.transpose()
    assert mono().transpose().data == plain.transpose().data
    assert mono().nnz() == plain.nnz()
    vec = data.draw(_sparse_vector(field, cols))
    assert mono().apply(vec) == plain.apply(vec)
    assert mono().tapply(vec) == plain.tapply(vec)
    right = data.draw(shaped_matrix(field, cols, data.draw(st.integers(0, 4))))
    left = data.draw(shaped_matrix(field, data.draw(st.integers(0, 4)), rows))
    assert mono() @ right == plain @ right
    assert left @ mono() == left @ plain
    other = data.draw(sparse_matrix(field))
    assert mono().kron(other) == plain.kron(other)
    assert other.kron(mono()) == other.kron(plain)
    pre, post = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    m = data.draw(shaped_matrix(field, pre * cols * post, data.draw(st.integers(0, 3))))
    assert mono().padded_matmul(pre, post, m) == plain.padded_matmul(pre, post, m)
    converted = plain.monomial()
    assert isinstance(converted, exactla.Monomial) and converted == plain
    assert converted.tgt == tgt
    assert mono().monomial() == plain


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 4))
def test_marked_monomial_matches_plain_rows(field, data, n):
    """`marked` finds an identity in a `Monomial`'s lists: it marks exactly
    the matrices the row test marks, and builds neither the rows nor the
    column dicts of the others."""
    tgt, wt = data.draw(st.one_of(
        monomial_lists(field, n, n),
        st.just((list(range(n)), [field.one()] * n)),
        monomial_lists(field, n, n + 1)))
    mono = exactla.Monomial(field, n, tgt, wt)
    out = mono.marked()
    plain = plain_of(field, n, tgt, wt).marked()
    assert out.is_identity == plain.is_identity
    if not out.is_identity:
        assert out is mono and mono._t is None and mono._rows is None
    assert out == plain
    assert plain_of(field, n, tgt, wt).monomial().marked().is_identity == plain.is_identity


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monomial_kernels_match_plain_products(field, data):
    """`after` is self @ (I_pre (x) act (x) I_post), `columns` picks
    columns, and `factors_through` holds exactly when
    self == self.columns(free) @ proj, each against plain products (for
    `after`, formed entry by entry by `plain_kron` and `plain_matmul`); a
    monomial that is X @ proj by construction factors, and one with a
    changed weight or target does so only when the plain test says so."""
    draw = data.draw
    pre, post = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d, e, rows = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    tgt, wt = draw(monomial_lists(field, rows, pre * d * post))
    act = draw(monomial_lists(field, d, e))
    got = exactla.Monomial(field, rows, tgt, wt).after(
        pre, exactla.Monomial(field, d, *act), post)
    padded = plain_kron(plain_kron(plain_identity(field, pre), plain_of(field, d, *act)),
                        plain_identity(field, post))
    assert isinstance(got, exactla.Monomial)
    assert got._t is None and got._rows is None
    assert got == plain_matmul(plain_of(field, rows, tgt, wt), padded)
    picks = draw(st.lists(st.integers(0, len(tgt) - 1), max_size=5))
    assert exactla.Monomial(field, rows, tgt, wt).columns(picks) == Matrix.from_entries(
        field, rows, len(picks), {(t, s): wt[c] for s, c in enumerate(picks)
                                  if (t := tgt[c]) >= 0})

    # a monomial projection: free[t] is e_t, every other column anywhere
    flat = draw(st.integers(1, 6))
    free = sorted(draw(st.sets(st.integers(0, flat - 1), max_size=flat)))
    qdim = len(free)
    ptgt, pwt = draw(monomial_lists(field, qdim, flat))
    for t, c in enumerate(free):
        ptgt[c], pwt[c] = t, field.one()
    proj = exactla.Monomial(field, qdim, ptgt, pwt)
    plain_proj = plain_of(field, qdim, ptgt, pwt)
    xt, xw = draw(monomial_lists(field, rows, qdim))
    through = (plain_of(field, rows, xt, xw) @ plain_proj).monomial()
    assert through.factors_through(proj, free)
    mt, mw = list(through.tgt), list(through.wt)
    c = draw(st.integers(0, flat - 1))
    mw[c] = draw(nonzero_scalars(field))
    if draw(st.booleans()):
        mt[c] = draw(st.integers(-1, rows - 1))
    changed = plain_of(field, rows, mt, mw)
    sec = Matrix.from_entries(field, flat, qdim, {(c, t): field.one() for t, c in enumerate(free)})
    assert exactla.Monomial(field, rows, mt, mw).factors_through(proj, free) == (
        changed == changed @ sec @ plain_proj)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_after_matches_dense_kron_product(field, data):
    """`Transposed.after`, and `Monomial.after` with an act that is not
    monomial, equal M @ (I_pre (x) act (x) I_post), formed entry by entry
    (`plain_kron`, `plain_matmul`), for act on the left (pre = 1), on the right (post = 1) and in
    the middle, with the identities of size up to 3; the result is in
    column form and no row of M is built."""
    draw = data.draw
    pre, post = draw(st.sampled_from([(1, 2), (1, 3), (2, 1), (3, 1), (2, 2), (2, 3)]))
    d, e, rows = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    base = draw(shaped_matrix(field, d, e))
    # two entries in column 0, so that act is not monomial
    act = Matrix.from_entries(field, d, e, {
        **{(i, j): v for i, row in base.data.items() for j, v in row.items()},
        (0, 0): field.parse(draw(nonzero_scalars(field))),
        (1, 0): field.parse(draw(nonzero_scalars(field)))})
    assert act.monomial() is None
    padded = plain_kron(plain_kron(plain_identity(field, pre), act),
                        plain_identity(field, post))
    m = draw(shaped_matrix(field, rows, pre * d * post))
    t = exactla.Transposed(m.transpose())
    got = t.after(pre, act, post)
    assert isinstance(got, exactla.Transposed) and t._rows is None
    assert got == plain_matmul(m, padded)
    tgt, wt = draw(monomial_lists(field, rows, pre * d * post))
    mono = exactla.Monomial(field, rows, tgt, wt)
    got = mono.after(pre, act, post)
    assert not isinstance(got, exactla.Monomial) and mono._rows is None
    assert got == plain_matmul(plain_of(field, rows, tgt, wt), padded)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_columns_match_the_plain_selection_product(field, data):
    """`columns` of a plain matrix, of its column form and of a marked
    identity is M @ S for the 0/1 matrix S that picks the columns,
    repeats included; the result is in column form, and the `Transposed`
    builds no row."""
    draw = data.draw
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    m = draw(shaped_matrix(field, rows, cols))
    picks = draw(st.lists(st.integers(0, cols - 1), max_size=5))
    select = Matrix.from_entries(field, cols, len(picks),
                                 {(c, s): field.one() for s, c in enumerate(picks)})
    t = exactla.Transposed(m.transpose())
    for x, plain in ((m, m), (t, m),
                     (Matrix.identity(field, cols), plain_identity(field, cols))):
        got = x.columns(picks)
        assert isinstance(got, exactla.Transposed)
        assert got == plain_matmul(plain, select)
    assert t._rows is None


@pytest.mark.parametrize("side", ["left", "right"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_element_action_matrices_match_the_kron_product(side, data):
    """The action matrices of e_i on X = kZ2 (x) C2 (dim 4) through a map
    on kZ2 (x)_kZ2 X or X (x)_kZ2 kZ2, whose flat basis is not its
    quotient basis, are the columns e_i (x) x or x (x) e_i of
    action . project: the plain path multiplies by e_i (x) I or
    I (x) e_i, entry by entry (`plain_kron`, `plain_matmul`)."""
    from coringlab.wreath import element_action_matrices
    corpus = Corpus()
    e, x = regular_bimodule(corpus.z2), corpus.lifted_flip_cw.coring.carrier
    sp = space(e, x) if side == "left" else space(x, e)
    assert sp.quotient.dim < e.dim * x.dim
    action = LinearMap(sp.quotient, x, data.draw(shaped_matrix(QQ, x.dim, sp.quotient.dim)))
    ident = plain_identity(QQ, x.dim)
    ap = plain_matmul(action.matrix, sp.project)
    got = element_action_matrices(action, e, x, side)
    assert len(got) == e.dim
    for i, m in enumerate(got):
        col = Matrix.from_entries(QQ, e.dim, 1, {(i, 0): QQ.one()})
        assert m == plain_matmul(ap, plain_kron(col, ident) if side == "left"
                                 else plain_kron(ident, col))


def plain_scatter(f, proj, act, dm, dn, left):
    """The columns of project . K, K = act (x) I_dn (left) or I_dm (x) act,
    from the columns proj of project: column (i, j) of K is column i (or j)
    of act placed at j (or i).  The column loop `tensor_over` ran before
    `Transposed.after`."""
    axpy, scaled = f.axpy, f.scaled
    stride = dn if left else 1
    out = {}
    for own, acol in act.transpose().data.items():
        for r, v in acol.items():
            shift = (r - own) * stride
            for c in (range(own * dn, own * dn + dn) if left
                      else range(own, dm * dn, dn)):
                src = proj.get(c + shift)
                if src:
                    col = out.get(c)
                    if col is None:
                        out[c] = scaled(src, v)
                    else:
                        axpy(col, src, v)
    return {c: col for c, col in out.items() if col}


def scatter_path(a, m, n):
    """What `tensor_over` gave before monomial projects, on input whose
    unmarked R_k and L_k are monomial: `project` a `Transposed` of column
    dicts (from the plain echelon of the raw relations), each unmarked
    action scattered through them (`plain_scatter`) into pk, its inherited
    action the free columns of pk, and descent tested pivot by pivot on
    dicts (`_moved`).  Returns {"error": (message, relation)} for the first
    action that does not descend, else project, section, free columns, the
    pks in checking order and the inherited actions; None for a flat
    quotient."""
    f, dm, dn = m.field, m.dim, n.dim
    flat = dm * dn
    _, ech = plain_tensor_relations(a, m, n)
    free = ech.free_columns()
    if len(free) == flat:  # a flat quotient takes neither path
        return None
    pos = {c: t for t, c in enumerate(free)}
    cols = {c: {t: f.one()} for t, c in enumerate(free)}
    for p, row in ech.pivot_rows.items():
        if row:
            cols[p] = {pos[c]: f.neg(v) for c, v in row.items()}
    project = exactla.Transposed(Matrix(f, flat, len(free), cols))
    ident = Matrix.identity(f, len(free))
    old = TensorQuotient(a, m, n, [ident] * m.left_algebra.dim,
                         [ident] * n.right_algebra.dim, project, free, "old")
    name = f"({m.name}(x){n.name})"
    pks, acts = [], []
    sides = [("left", True, lab, x) for lab, x in zip(m.left_algebra.labels, m.left_action)]
    sides += [("right", False, lab, x) for lab, x in zip(n.right_algebra.labels, n.right_action)]
    for side, left, label, act in sides:
        if act.is_identity:
            acts.append(ident)
            continue
        pkt = Matrix(f, flat, len(free), plain_scatter(f, cols, act, dm, dn, left))
        pk = exactla.Transposed(pkt)
        moved = next(old._moved(pk), None)
        if moved is not None:
            return {"error": (f"{side} action of {label} does not descend to {name}",
                              old.echelon.full_row(moved))}
        pks.append(pk)
        rows = pkt.data
        acts.append(exactla.Transposed(Matrix(f, len(free), len(free), {
            t: rows[c] for t, c in enumerate(free) if c in rows})))
    section = Matrix.from_entries(f, flat, len(free),
                                  {(c, t): f.one() for t, c in enumerate(free)})
    return {"project": project, "section": section, "free": free, "pks": pks,
            "acts": acts}


def assert_matches_scatter_path(a, m, n, want, monkeypatch):
    """M (x)_A N, built afresh, against want = `scatter_path(a, m, n)` on a
    union-find quotient: the same project, section, free columns, inherited
    actions and marks, or the same descent error and relation; each pk
    handed to `kills` equals the scattered one, and is a `Monomial` exactly
    when its action is monomial.  Returns the quotient, or None after an
    error."""
    handed = []
    real = TensorQuotient.kills

    def spy(self, mat):
        handed.append((mat, real(self, mat)))
        return handed[-1][1]

    monkeypatch.setattr(TensorQuotient, "kills", spy)
    try:
        if "error" in want:
            with pytest.raises(WellDefinednessError) as err:
                bimodule._build_tensor(a, m, n, None)
            message, relation = want["error"]
            assert str(err.value) == message and err.value.relation == relation
            assert [ok for _, ok in handed] == [True] * (len(handed) - 1) + [False]
            return None
        tq = bimodule._build_tensor(a, m, n, None)
    finally:
        monkeypatch.setattr(TensorQuotient, "kills", real)
    assert isinstance(tq.project, exactla.Monomial)
    assert tq.project == want["project"] and tq.section == want["section"]
    assert tq.free_cols == want["free"]
    ident = plain_identity(m.field, tq.dim)
    for got, plain in zip(tq.left_action + tq.right_action, want["acts"]):
        assert got == plain and got.is_identity == (plain == ident)
    unmarked_acts = [x for x in m.left_action + n.right_action if not x.is_identity]
    assert len(handed) == len(want["pks"]) == len(unmarked_acts)
    for (pk, ok), old, act in zip(handed, want["pks"], unmarked_acts):
        assert ok and pk == old
        assert isinstance(pk, exactla.Monomial) == (act.monomial() is not None)
    return tq


@st.composite
def two_entry_matrix(draw, field, d):
    """A d x d monomial matrix with a second entry added to one column, so
    that it is not monomial (d >= 2)."""
    base = draw(monomial_matrix(field, d))
    entries = {(i, j): v for i, row in base.data.items() for j, v in row.items()}
    j = draw(st.integers(0, d - 1))
    rows = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    for i in rows:
        entries[(i, j)] = draw(nonzero_scalars(field))
    return Matrix.from_entries(field, d, d, entries)


@st.composite
def union_find_input(draw, field, g):
    """(a, m, n) over a = kZg whose unmarked R_k and L_k are monomial, so
    the quotient takes the union-find path.  R_k and L_k are the identity
    or random monomials (empty columns give one-term kills, weights other
    than 1 give inconsistent cycles and dead components), or block copies
    of the regular actions, whose quotient is large.  With all R_k, or all
    L_k, the identity, every action on that side descends.  Each outer
    action is the identity, a scalar c I, a diagonal matrix (which keeps
    every target, so only its weights can fail to descend), a random
    monomial (which on a regular quotient mostly does not descend) or a
    matrix with two entries in a column, which must take the scatter
    path."""
    a = group_algebra_cyclic(field, g)
    outer = group_algebra_cyclic(field, draw(st.integers(1, 2)))
    mode = draw(st.sampled_from(["random", "R", "L", "regular"]))
    if mode == "regular":
        reg = regular_bimodule(a)
        dm, dn = g * draw(st.integers(1, 2)), g * draw(st.integers(1, 2))
    else:
        dm, dn = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def balancing(d, side):
        if mode == side:
            return [plain_identity(field, d)] * g
        if mode == "regular":
            acts = reg.right_action if side == "R" else reg.left_action
            return [_block_diag(field, [x] * (d // g)) for x in acts]
        return [plain_identity(field, d) if draw(st.integers(0, 3)) == 0
                else draw(monomial_matrix(field, d)) for _ in range(g)]

    def outer_acts(d):
        out = []
        for _ in range(outer.dim):
            kind = draw(st.sampled_from(
                ["identity", "scalar", "diagonal", "monomial", "two-entry"]))
            if kind == "two-entry" and d < 2:
                kind = "monomial"
            if kind == "identity":
                out.append(plain_identity(field, d))
            elif kind == "scalar":
                out.append(plain_identity(field, d).scale(draw(nonzero_scalars(field))))
            elif kind == "diagonal":
                out.append(Matrix(field, d, d, {i: {i: draw(nonzero_scalars(field))}
                                                for i in range(d)}))
            elif kind == "monomial":
                out.append(draw(monomial_matrix(field, d)))
            else:
                out.append(draw(two_entry_matrix(field, d)))
        return out

    m = Bimodule(outer, a, dm, outer_acts(dm), balancing(dm, "R"), name="M")
    n = Bimodule(a, outer, dn, balancing(dn, "L"), outer_acts(dn), name="N")
    return a, m, n


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_monomial_path_matches_scatter_path(field, g, data):
    """A union-find quotient's project, section, free columns, inherited
    actions and descent errors against the scatter path, over kZ2 and kZ3;
    each pk handed to `kills` equals the scattered one and is monomial
    exactly when its action is."""
    a, m, n = data.draw(union_find_input(field, g))
    want = scatter_path(a, m, n)
    assume(want is not None)
    with pytest.MonkeyPatch.context() as mp:
        assert_matches_scatter_path(a, m, n, want, mp)


def test_corpus_lift_quotients_match_scatter_path(monkeypatch):
    """Every quotient with relations that the corpus lifts build, with
    their checks and products, against the scatter path."""
    from coringlab import cowreath
    built = []
    real = bimodule._build_tensor

    def spy(a, m, n, name):
        built.append((a, m, n))
        return real(a, m, n, name)

    monkeypatch.setattr(bimodule, "_build_tensor", spy)
    corpus = Corpus()
    for w in (corpus.lifted_flip_cw, corpus.lifted_dk_cw):
        assert cowreath.check_cowreath(w).ok
        product, morph = cowreath.cowreath_product(w)
        assert morph.ok and check_coring(product).ok
    monkeypatch.setattr(bimodule, "_build_tensor", real)
    checked = 0
    for a, m, n in built:
        want = scatter_path(a, m, n)
        if want is not None:
            assert assert_matches_scatter_path(a, m, n, want, monkeypatch) is not None
            checked += 1
    assert checked >= 10


def test_descending_monomial_pk_keeps_its_lists_only(monkeypatch):
    """When a union-find quotient with monomial actions descends, no action
    is scattered (`Transposed.after`), and the pk handed to `kills` builds
    neither its column dicts (`transpose`) nor its rows."""
    handed = []
    real = TensorQuotient.kills

    def spy(self, mat):
        handed.append(mat)
        return real(self, mat)

    def no_scatter(*args):
        raise AssertionError("a monomial action was scattered")

    monkeypatch.setattr(TensorQuotient, "kills", spy)
    monkeypatch.setattr(exactla.Transposed, "after", no_scatter)
    for field in FIELDS:
        reg = regular_bimodule(group_algebra_cyclic(field, 3))
        # kZ3 twisted on the right by g -> g^2, so that level 2 of the space
        # differs in content from level 1 and is built, not shared
        twisted = Bimodule(reg.left_algebra, reg.right_algebra, 3, reg.left_action,
                           [reg.right_action[2 * k % 3] for k in range(3)],
                           name="kZ3^s")
        tq = space(reg, reg, twisted).quotient
        assert isinstance(tq.project, exactla.Monomial)
        assert tq.factor_left.dim == 3 and tq.dim == 3
    # the unmarked g and g^2 on each side, at both levels, over each field
    assert len(handed) == 8 * len(FIELDS)
    for pk in handed:
        assert isinstance(pk, exactla.Monomial)
        assert pk._t is None and pk._rows is None


# ---------------------------------------------------------------------------
# pipe stages and sections read the two monomial lists


def assert_monomial_padded(mono, pre, post, m):
    """mono.padded_matmul(pre, post, m) equals `Matrix.padded_matmul` of the
    plain matrix with mono's entries and the entry sums (`plain_matmul`) of
    the entry-by-entry Kronecker product (`plain_kron`) times m and stores
    no empty row, and a second stage through mono reuses the
    column dicts the first built (`mono._t`); returns it."""
    field = mono.field
    plain = plain_of(field, mono.rows, mono.tgt, mono.wt)
    fast = mono.padded_matmul(pre, post, m)
    assert fast == Matrix.padded_matmul(plain, pre, post, m)
    assert fast == plain_matmul(plain_kron(plain_kron(plain_identity(field, pre), plain),
                                           plain_identity(field, post)), m)
    assert (fast.rows, fast.cols) == (pre * mono.rows * post, m.cols)
    assert all(fast.data.values())
    if not m.is_identity:
        cols = mono._t
        assert cols is not None and not fast.is_identity
        assert mono.padded_matmul(pre, post, m) == fast and mono._t is cols
    return fast


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data(), pre=st.integers(1, 3), post=st.integers(1, 3))
def test_monomial_padded_matmul_matches_plain(field, data, pre, post):
    """The stage of a `Monomial` on a plain accumulated matrix is the row
    kernel: dead columns, weights other than +-1, colliding targets,
    accumulated matrices with empty rows, and a marked-identity operand,
    which gives the Kronecker product."""
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    tgt, wt = data.draw(monomial_lists(field, rows, cols))
    m = data.draw(shaped_matrix(field, pre * cols * post, data.draw(st.integers(0, 4))))
    assert_monomial_padded(exactla.Monomial(field, rows, tgt, wt), pre, post, m)
    assert_monomial_padded(exactla.Monomial(field, rows, tgt, wt), pre, post,
                           Matrix.identity(field, pre * cols * post))
    with pytest.raises(InputError):
        exactla.Monomial(field, rows, tgt, wt).padded_matmul(
            pre, post, Matrix.zeros(field, pre * cols * post + 1, 1))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("pre, post", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_monomial_padded_matmul_cases(field, pre, post):
    """Columns 0 and 2 both target row 0, with weights 2 and -2, so the rows
    they carry cancel where they are equal; column 1 is dead."""
    one, two = field.one(), field.from_int(2)
    mono = exactla.Monomial(field, 2, [0, -1, 0, 1], [two, one, field.neg(two), one])
    n = pre * 4 * post
    same = Matrix.from_entries(field, n, 2, {(i, 0): one for i in range(n)})
    out = assert_monomial_padded(mono, pre, post, same)
    # only the rows from column 3 are left: row (a, 1, b) for each a, b
    assert sorted(out.data) == sorted((a * 2 + 1) * post + b
                                      for a in range(pre) for b in range(post))
    # a matrix with rows only at the dead column gives no row at all
    dead = Matrix.from_entries(field, n, 1, {
        ((a * 4 + 1) * post + b, 0): one for a in range(pre) for b in range(post)})
    assert assert_monomial_padded(mono, pre, post, dead).data == {}
    odd = Matrix.from_entries(field, n, 3, {(i, i % 3): field.from_int(i + 1)
                                            for i in range(0, n, 2)})
    assert_monomial_padded(mono, pre, post, odd)
    assert_monomial_padded(mono, pre, post, Matrix.identity(field, n))


def old_section(tq):
    """The section as it was built before it was monomial: row c is {t: 1}
    when c is the t-th free column."""
    one = tq.field.one()
    return Matrix(tq.field, tq.project.cols, tq.dim,
                  {c: {t: one} for t, c in enumerate(tq.free_cols)})


def assert_section_matches(tq):
    """tq's section is a `Monomial` that equals the old one under `==`,
    `data` and `transpose()`, or a flat quotient's marked identity."""
    if tq.project.is_identity:
        assert tq.section is tq.project
        return
    want = old_section(tq)
    assert isinstance(tq.section, exactla.Monomial)
    assert tq.section.tgt == list(tq.free_cols)
    fresh = type(tq).section.func(tq)
    assert fresh == want and want == fresh
    assert fresh.transpose() == want.transpose()
    assert fresh.transpose().data == want.transpose().data
    assert type(tq).section.func(tq).data == want.data


@st.composite
def echelon_input(draw, field):
    """(a, m, n) over kZ2 or kZ3 with identity outer actions, whose R_k and
    L_k are random monomials and at least one of them has two entries in a
    column, so the quotient goes through `Echelon`."""
    g = draw(st.integers(2, 3))
    a, outer = group_algebra_cyclic(field, g), group_algebra_cyclic(field, 1)
    dm, dn = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rk = [draw(monomial_matrix(field, dm)) for _ in range(g)]
    lk = [draw(monomial_matrix(field, dn)) for _ in range(g)]
    if draw(st.booleans()):
        rk[draw(st.integers(0, g - 1))] = draw(two_entry_matrix(field, dm))
    else:
        lk[draw(st.integers(0, g - 1))] = draw(two_entry_matrix(field, dn))
    m = Bimodule(outer, a, dm, [plain_identity(field, dm)], rk, name="M")
    n = Bimodule(a, outer, dn, lk, [plain_identity(field, dn)], name="N")
    return a, m, n


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monomial_section_matches_old_section(field, data):
    """On union-find and on `Echelon` quotients the monomial section is the
    old {c: {t: 1}} section."""
    a, m, n = data.draw(union_find_input(field, data.draw(st.integers(2, 3))))
    try:
        tq = bimodule._build_tensor(a, m, n, None)
    except WellDefinednessError:
        tq = None
    if tq is not None:
        assert tq.project.is_identity or isinstance(tq.project, exactla.Monomial)
        assert_section_matches(tq)
    a, m, n = data.draw(echelon_input(field))
    tq = bimodule._build_tensor(a, m, n, None)
    assert tq.project.is_identity or not isinstance(tq.project, exactla.Monomial)
    assert_section_matches(tq)


def test_corpus_lift_sections_match_old_section(monkeypatch):
    """Every quotient the corpus lifts build, with their checks and
    products, has the old section; the conjugated regular kZ2 with a
    two-entry action takes the `Echelon` path and has it too."""
    from coringlab import cowreath
    built = []
    real = bimodule._build_tensor

    def spy(a, m, n, name):
        built.append(real(a, m, n, name))
        return built[-1]

    monkeypatch.setattr(bimodule, "_build_tensor", spy)
    corpus = Corpus()
    for w in (corpus.lifted_flip_cw, corpus.lifted_dk_cw):
        assert cowreath.check_cowreath(w).ok
        product, morph = cowreath.cowreath_product(w)
        assert morph.ok and check_coring(product).ok
    monkeypatch.setattr(bimodule, "_build_tensor", real)
    for tq in built:
        assert_section_matches(tq)
    assert sum(isinstance(tq.project, exactla.Monomial) for tq in built) >= 10
    a = group_algebra_cyclic(QQ, 2)
    reg = regular_bimodule(a)
    p = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    p_inv = solve(p, plain_identity(QQ, 2))
    m = Bimodule(a, a, 2, [p_inv @ x @ p for x in reg.left_action],
                 [p_inv @ x @ p for x in reg.right_action], name="M")
    tq = tensor_over(a, m, m)
    assert isinstance(tq.project, exactla.Transposed)
    assert not isinstance(tq.project, exactla.Monomial)
    assert_section_matches(tq)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_monomial_after_right_action_matches_plain(field, data):
    """`after` with post = 1 (a right action I_pre (x) act) equals the plain
    product, with dead columns and weights other than +-1 in the action
    and in self, and with an action that has no rows."""
    draw = data.draw
    pre, d, e, rows = (draw(st.integers(1, 3)), draw(st.integers(0, 3)),
                       draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    tgt, wt = draw(monomial_lists(field, rows, pre * d))
    act = draw(monomial_lists(field, d, e))
    got = exactla.Monomial(field, rows, tgt, wt).after(
        pre, exactla.Monomial(field, d, *act), 1)
    assert isinstance(got, exactla.Monomial)
    assert got.cols == pre * e and got.rows == rows
    assert got == plain_of(field, rows, tgt, wt) @ plain_identity(field, pre).kron(
        plain_of(field, d, *act))


def test_corpus_lift_stages_build_no_monomial_transpose(monkeypatch):
    """Building and checking a corpus lift runs monomial pipe stages, and
    none of them builds the column dicts of a `Monomial` (`transpose`)."""
    from coringlab import cowreath
    built, stage, monomial_stages = [], [0], [0]
    real_t, real_stage = exactla.Monomial.transpose, bimodule._Stages._stage

    def transpose(self):
        if self._t is None and stage[0]:
            built.append(self.cols)
        return real_t(self)

    def spy_stage(self, flat_map, *args):
        monomial_stages[0] += isinstance(flat_map, exactla.Monomial)
        stage[0] += 1
        try:
            return real_stage(self, flat_map, *args)
        finally:
            stage[0] -= 1

    monkeypatch.setattr(exactla.Monomial, "transpose", transpose)
    monkeypatch.setattr(bimodule._Stages, "_stage", spy_stage)
    corpus = Corpus()
    for e in (corpus.flip_entwining, corpus.dk_entwining):
        lifted = cowreath.entwining_lift_cowreath(e, corpus.flip_cw)
        assert cowreath.check_cowreath(lifted).ok
    assert monomial_stages[0] >= 10
    assert built == []


def _flat_image(mats):
    """The entries of mats, stacked row major into one vector."""
    out, off = {}, 0
    for m in mats:
        for r, row in m.data.items():
            for c, v in row.items():
                out[off + r * m.cols + c] = v
        off += m.rows * m.cols
    return out, off


def _colinear_defect(e, s, t):
    """lhs - rhs of `is_colinear`'s coaction equation for e: s -> t."""
    C = s.coring.carrier
    X, Y = s.carrier, t.carrier
    if s.side == "right":
        lhs = (bimodule.pipe(space(X)).apply(s.coaction, 0, 1, [X, C])
               .apply(e, 0, 1, [Y]).done())
        rhs = (bimodule.pipe(space(X)).apply(e, 0, 1, [Y])
               .apply(t.coaction, 0, 1, [Y, C]).done())
    else:
        lhs = (bimodule.pipe(space(X)).apply(s.coaction, 0, 1, [C, X])
               .apply(e, 1, 1, [Y]).done())
        rhs = (bimodule.pipe(space(X)).apply(e, 0, 1, [Y])
               .apply(t.coaction, 0, 1, [C, Y]).done())
    return lhs.matrix - rhs.matrix


def oracle_hom_basis(src, dst):
    """The Hom space of `coring.hom_basis` by brute force: every constraint
    evaluated on every elementary matrix E_ki (the bilinearity residues
    b . E - E . a, and each coaction's two sides piped as `is_colinear`
    pipes them), stacked as columns, and the kernel of that matrix.  On a
    non-flat base the pipes are exact only for bilinear maps, which are
    all the kernel holds, so the kernel is the Hom space."""
    if isinstance(src, coring.Bicomodule):
        parts = [(src.left_part(), dst.left_part()),
                 (src.right_part(), dst.right_part())]
    elif isinstance(src, coring.Comodule):
        parts = [(src, dst)]
    else:
        parts = []
    X, Y = (getattr(m, "carrier", m) for m in (src, dst))
    field = X.field
    cols, height = {}, 0
    for k in range(Y.dim):
        for i in range(X.dim):
            e = LinearMap(X, Y, Matrix.from_entries(field, Y.dim, X.dim,
                                                    {(k, i): field.one()}), "e")
            image = [b @ e.matrix - e.matrix @ a for b, a in zip(
                Y.left_action + Y.right_action, X.left_action + X.right_action)]
            image += [_colinear_defect(e, s, t) for s, t in parts]
            cols[k * X.dim + i], height = _flat_image(image)
    rows: dict = {}
    for c, col in cols.items():
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    ker = exactla.kernel_basis(Matrix(field, height, Y.dim * X.dim, rows))
    return [Matrix.from_entries(field, Y.dim, X.dim,
                                {divmod(k, X.dim): v for k, v in ker.col(t).items()})
            for t in range(ker.cols)]


def assert_hom_basis_matches_oracle(src, dst):
    basis = hom_basis(src, dst)
    assert basis == oracle_hom_basis(src, dst)
    return basis


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_hom_basis_of_bimodules_matches_oracle(field, g, data):
    """Bimodule maps between generated bimodules over kZg and their tensor
    quotient, in random bases, over QQ and GF(101)."""
    base = group_algebra_cyclic(field, g)
    m = data.draw(side_bimodule(field, base, True, "M"))
    n = data.draw(side_bimodule(field, base, True, "N"))
    pool = [m, n, tensor_over(base, m, n)]
    x, y = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
    assert_hom_basis_matches_oracle(x, y)


def _gf3_lift():
    """The kZ2/C2/D2 flip lift over GF(3)."""
    from coringlab.cowreath import entwining_lift_cowreath, flip_cowreath
    from coringlab.entwine import flip_entwining
    field = GF(3)
    z2 = group_algebra_cyclic(field, 2, name="kZ2")
    c = coring.grouplike_coalgebra(field, 2, name="C2")
    d = coring.grouplike_coalgebra(field, 2, name="D2")
    return entwining_lift_cowreath(flip_entwining(z2, c), flip_cowreath(c, d))


def _adjunction_comodules(w):
    """X = C over itself, Y = X (x) M over the product and (Y)_xi."""
    from coringlab.cowreath import cowreath_product, induced_comodule_tensor, induction_xi
    prod, _ = cowreath_product(w)
    x = coring.comodule_over_itself(w.coring)
    y = induced_comodule_tensor(w, x, prod)
    return x, y, induction_xi(w, y, w.coring)


def _hom_case_cowreath(corpus, which):
    return _gf3_lift() if which == "gf3_lift" else getattr(corpus, which)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("which", ["c2", "triv_z2", "dk", "lifted_flip_cw", "gf3_lift"])
def test_hom_basis_of_comodules_matches_oracle(corpus, which, side):
    """A coring over itself as a right and as a left comodule: over the
    field (C2), over kZ2 (the trivial coring, the Doi-Koppinen entwined
    coring and the lifted coring), and over kZ2 in GF(3)."""
    from coringlab import entwine
    if which == "c2":
        c = corpus.c2
    elif which == "triv_z2":
        c = corpus.triv_z2
    elif which == "dk":
        c = entwine.entwined_coring(corpus.dk_entwining)
    else:
        c = _hom_case_cowreath(corpus, which).coring
    x = coring.comodule_over_itself(c, side=side)
    assert assert_hom_basis_matches_oracle(x, x)


@pytest.mark.parametrize("which", ["flip_cw", "lifted_flip_cw", "lifted_dk_cw", "gf3_lift"])
def test_hom_basis_of_adjunction_comodules_matches_oracle(corpus, which):
    """Both Hom spaces of the cowreath adjunction: (Y)_xi -> X over C and
    Y -> X (x) M over the product coring."""
    x, y, y_xi = _adjunction_comodules(_hom_case_cowreath(corpus, which))
    assert assert_hom_basis_matches_oracle(y_xi, x)
    assert assert_hom_basis_matches_oracle(y, y)


@pytest.mark.parametrize("which", ["flip_cw", "flip_cw3", "lifted_flip_cw", "lifted_dk_cw",
                                   "gf3_lift"])
def test_hom_basis_of_r_object_bicomodules_matches_oracle(corpus, which):
    """Bicolinear maps between the bicomodules C (x) M of twist objects,
    on the ground field and over kZ2.  The flip lift's bicomodule is also
    compared with that of another object lifted along an equal but distinct
    flip entwining, so over an equal but distinct coring (the entwined
    coring is memoized on its entwining).  The Doi-Koppinen lift's coring has
    another right action, so a Hom space between the two lifts is an input
    error."""
    from coringlab.entwine import EntwiningStructure, lift_r_object
    from coringlab.rcat import r_object_bicomodule
    o = _hom_case_cowreath(corpus, which).object
    b = r_object_bicomodule(o)
    assert assert_hom_basis_matches_oracle(b, b)
    if which == "lifted_flip_cw":
        e = corpus.flip_entwining
        twin = EntwiningStructure(e.algebra, e.coalgebra, e.psi, e.name)
        other = r_object_bicomodule(lift_r_object(twin, corpus.flip_cw3.object))
        assert other.left_coring is not b.left_coring
        assert assert_hom_basis_matches_oracle(b, other)
        dk = r_object_bicomodule(corpus.lifted_dk_cw.object)
        with pytest.raises(InputError, match="comodules over different corings"):
            hom_basis(b, dk)


def test_hom_basis_of_mixed_sides_is_input_error(corpus):
    right = coring.comodule_over_itself(corpus.c2)
    left = coring.comodule_over_itself(corpus.c2, side="left")
    for src, dst in ((right, left), (left, right)):
        with pytest.raises(InputError, match="comodule sides differ"):
            hom_basis(src, dst)


def test_hom_basis_of_different_corings_is_input_error(corpus):
    """Comodules whose coactions land over corings of other dimensions
    have no common colinearity equation."""
    c2, c3 = (coring.comodule_over_itself(c) for c in (corpus.c2, corpus.c3))
    for src, dst in ((c2, c3), (c3, c2)):
        with pytest.raises(InputError, match="comodules over different corings"):
            hom_basis(src, dst)


@pytest.mark.parametrize("which", ["lifted_flip_cw", "lifted_dk_cw"])
def test_sampled_r_morphisms_over_kz2_are_morphisms(corpus, which):
    """`sample_r_morphisms` over a base that is not the ground field gives
    twist-object morphisms."""
    from coringlab.rcat import check_r_morphism, sample_r_morphisms
    o = getattr(corpus, which).object
    samples = sample_r_morphisms(o, o, count=4, seed=5)
    assert len(samples) == 4
    for m in samples:
        rep = check_r_morphism(m)
        assert rep.ok, rep.summary()


# ---------------------------------------------------------------------------
# lifts along an entwining: pipes over the ground-field legs against the
# flat Kronecker chains and embedding loops they replaced


def _normal_form_matrix(e, coring_carrier, m_carrier, dn):
    """Flat map (A (x) C) (x) (A (x) N (x) A) -> A (x) C (x) N (x) A that
    pushes the middle algebra leg through the entwining map."""
    from coringlab.algebra import multiplication_matrix
    A = e.algebra
    f = A.field
    da, dc = A.dim, e.coalgebra.carrier.dim
    psi = e.psi.matrix
    mu = multiplication_matrix(A)
    ident_tail = Matrix.identity(f, dn * da)
    step1 = Matrix.identity(f, da).kron(psi).kron(ident_tail)
    step2 = mu.kron(Matrix.identity(f, dc * dn * da))
    return step2 @ step1


def flat_lifted_twist(e, n):
    """The matrix of the lifted twist of the object n, as `lift_r_object`
    built it from flat Kronecker chains."""
    from coringlab.entwine import entwined_coring, lift_carrier
    cor = entwined_coring(e)
    A = e.algebra
    f = A.field
    da, dc, dn = A.dim, e.coalgebra.carrier.dim, n.carrier.dim
    M = lift_carrier(e, n.carrier)
    nf = _normal_form_matrix(e, cor.carrier, M, dn)
    psi = e.psi.matrix
    # over the field the twist of n already acts on plain flat coordinates
    ntw_flat = n.twist.matrix
    step_a = Matrix.identity(f, da).kron(ntw_flat).kron(Matrix.identity(f, da))
    step_b = Matrix.identity(f, da * dn).kron(psi)
    # embed A (x) N (x) A (x) C into M (x)_A coring
    entries = {}
    dm = da * dn * da
    dcc = da * dc
    for a in range(da):
        for u in range(dn):
            for b in range(da):
                for q in range(dc):
                    col = ((a * dn + u) * da + b) * dc + q
                    for k, w in A.unit.items():
                        row = ((a * dn + u) * da + b) * dcc + (k * dc + q)
                        entries[(row, col)] = w
    embed = Matrix.from_entries(f, dm * dcc, dm * dc, entries)
    src = space(cor.carrier, M)
    dst = space(M, cor.carrier)
    return dst.project @ embed @ step_b @ step_a @ nf @ src.section


def flat_lifted_xi_delta(e, n, cor_carrier, M):
    """The matrices of xi and delta of the cowreath n lifted onto the
    coring carrier cor_carrier and the lifted carrier M, as
    `entwining_lift_cowreath` built them from flat Kronecker chains."""
    from coringlab.algebra import multiplication_matrix
    A = e.algebra
    f = A.field
    da = A.dim
    dc = e.coalgebra.carrier.dim
    dn = n.object.carrier.dim
    nf = _normal_form_matrix(e, cor_carrier, M, dn)
    psi = e.psi.matrix
    mu = multiplication_matrix(A)
    ia = Matrix.identity(f, da)
    src = space(cor_carrier, M)

    # xi-tilde: normal form, A x xi x A, A x psi, mu x C
    xi_flat = ia.kron(n.xi.matrix).kron(ia)
    step = ia.kron(psi)
    final = mu.kron(Matrix.identity(f, dc))
    xi_mat = final @ step @ xi_flat @ nf @ src.section

    # delta-tilde: normal form, A x delta x A, then the identification
    # sending a(x)c(x)u(x)v(x)b to (a(x)c) (x) (1(x)u(x)1) (x) (1(x)v(x)b)
    delta_flat = ia.kron(n.delta.matrix).kron(ia)
    dm = M.dim
    dcc = da * dc
    emb_entries = {}
    for a in range(da):
        for q in range(dc):
            cidx = a * dc + q
            for u in range(dn):
                for v in range(dn):
                    for b in range(da):
                        col = (((a * dc + q) * dn + u) * dn + v) * da + b
                        for k1, w1 in A.unit.items():
                            for k2, w2 in A.unit.items():
                                for k3, w3 in A.unit.items():
                                    m1 = (k1 * dn + u) * da + k2
                                    m2 = (k3 * dn + v) * da + b
                                    row = (cidx * dm + m1) * dm + m2
                                    key = (row, col)
                                    val = f.mul(w1, f.mul(w2, w3))
                                    emb_entries[key] = f.add(
                                        emb_entries.get(key, f.zero()), val)
    embed = Matrix.from_entries(f, dcc * dm * dm, dcc * dn * dn * da,
                                emb_entries)
    dst = space(cor_carrier, M, M)
    delta_mat = dst.project @ embed @ delta_flat @ nf @ src.section
    return xi_mat, delta_mat


def flat_entwined_comult_counit(e, carrier):
    """The matrices of the comultiplication and counit of the entwined
    coring on carrier, as `entwined_coring` built them by embedding loops."""
    A, C = e.algebra, e.coalgebra
    da, dc = A.dim, C.carrier.dim
    f = A.field
    sp = space(carrier, carrier)
    dmat = C.cc.section @ C.comult.matrix
    entries = {}
    dcc = da * dc
    for p in range(da):
        for q in range(dc):
            for flat, v in dmat.col(q).items():
                jj, ll = divmod(flat, dc)
                for k, w in A.unit.items():
                    row = (p * dc + jj) * dcc + (k * dc + ll)
                    entries[(row, p * dc + q)] = f.mul(v, w)
    up = Matrix.from_entries(f, dcc * dcc, dcc, entries)
    eps_entries = {}
    epsm = e.coalgebra.counit.matrix
    for p in range(da):
        for q in range(dc):
            v = epsm.entry(0, q)
            if not f.is_zero(v):
                eps_entries[(p, p * dc + q)] = v
    return sp.project @ up, Matrix.from_entries(f, da, dcc, eps_entries)


def assert_lift_matches_flat(e, n):
    """The lifted twist, xi and delta of the cowreath n, and the
    comultiplication and counit of the entwined coring, equal the flat
    construction entry for entry."""
    from coringlab.cowreath import entwining_lift_cowreath
    from coringlab.entwine import entwined_coring
    lifted = entwining_lift_cowreath(e, n)
    obj = lifted.object
    assert obj.twist.matrix == flat_lifted_twist(e, n.object)
    xi, delta = flat_lifted_xi_delta(e, n, lifted.xi.codomain, obj.carrier)
    assert lifted.xi.matrix == xi
    assert lifted.delta.matrix == delta
    for cor in (obj.coring, entwined_coring(e)):
        comult, counit = flat_entwined_comult_counit(e, cor.carrier)
        assert cor.comult.matrix == comult
        assert cor.counit.matrix == counit
    return lifted


def lift_case(corpus, which):
    """(entwining, cowreath over its coalgebra) of each named lift."""
    from coringlab.coring import grouplike_coalgebra
    from coringlab.cowreath import flip_cowreath
    from coringlab.entwine import doi_koppinen_entwining, doi_koppinen_self, flip_entwining
    if which == "flip":
        return corpus.flip_entwining, corpus.flip_cw
    if which == "dk":
        return corpus.dk_entwining, corpus.flip_cw
    g, c, field, dk = {"kz3-c2-d2": (3, 2, QQ, False), "kz2-c3-d2": (2, 3, QQ, False),
                       "kz3-c3-d2-dk": (3, 3, QQ, True), "kz2-gf2": (2, 2, GF(2), False),
                       "kz3-gf3": (3, 2, GF(3), False)}[which]
    a = group_algebra_cyclic(field, g, name=f"kZ{g}")
    cc = grouplike_coalgebra(field, c, name=f"C{c}")
    e = (doi_koppinen_entwining(doi_koppinen_self(a, cc)) if dk
         else flip_entwining(a, cc))
    return e, flip_cowreath(cc, grouplike_coalgebra(field, 2, name="D2"))


@pytest.mark.parametrize("which", ["flip", "dk", "kz3-c2-d2", "kz2-c3-d2", "kz3-c3-d2-dk",
                                   "kz2-gf2", "kz3-gf3"])
def test_lift_pipes_match_flat_construction(corpus, which):
    """The corpus flip and Doi-Koppinen lifts, kZ3/C2/D2, kZ2/C3/D2, the
    kZ3/C3/D2 Doi-Koppinen lift and the modular kZ2 over GF(2) and kZ3
    over GF(3)."""
    assert_lift_matches_flat(*lift_case(corpus, which))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lift_pipes_of_arbitrary_maps_match_flat_construction(field, data):
    """Arbitrary twist, xi and delta over the flip or Doi-Koppinen
    entwining of kZ2 with C2: the construction is linear in them, so they
    need not satisfy any law."""
    from coringlab.coring import grouplike_coalgebra
    from coringlab.cowreath import Cowreath
    from coringlab.entwine import doi_koppinen_entwining, doi_koppinen_self, flip_entwining
    from coringlab.rcat import RObject
    a = group_algebra_cyclic(field, 2, name="kZ2")
    c = grouplike_coalgebra(field, 2, name="C2")
    e = (doi_koppinen_entwining(doi_koppinen_self(a, c)) if data.draw(st.booleans())
         else flip_entwining(a, c))
    dn = data.draw(st.integers(1, 2))
    n = k_bimodule(c.base, dn, name="N")
    cn, nc, cnn = space(c.carrier, n), space(n, c.carrier), space(c.carrier, n, n)

    def arbitrary(dom, cod, name):
        return LinearMap(dom.quotient, cod.quotient,
                         data.draw(shaped_matrix(field, cod.dim, dom.dim)), name)

    obj = RObject(c, n, arbitrary(cn, nc, "twist"))
    w = Cowreath(obj, arbitrary(cn, space(c.carrier), "xi"), arbitrary(cn, cnn, "delta"))
    assert_lift_matches_flat(e, w)


# ---------------------------------------------------------------------------
# quotients of equal content share one numeric core


def _quotient_or_error(build):
    """build(), or the message and relation of its descent error."""
    try:
        return build()
    except WellDefinednessError as err:
        return str(err), err.relation


def assert_same_quotient(got, want):
    """got, from `tensor_over`, is want, a fresh `_build_tensor`, field by
    field: the project lists (or columns), the free columns, both inherited
    action lists with their marks, the name and the basis labels; or both
    are the same descent error."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple)
    assert type(got.project) is type(want.project) and got.project == want.project
    if isinstance(want.project, exactla.Monomial):
        assert got.project.tgt == want.project.tgt
        assert got.project.wt == want.project.wt
    assert got.free_cols == want.free_cols and got.dim == want.dim
    assert len(got.left_action) == len(want.left_action)
    assert len(got.right_action) == len(want.right_action)
    for x, y in zip(got.left_action + got.right_action,
                    want.left_action + want.right_action):
        assert type(x) is type(y) and x == y and x.is_identity == y.is_identity
    assert got.name == want.name
    assert [got.basis_label(t) for t in range(got.dim)] == [
        want.basis_label(t) for t in range(want.dim)]


def _has_relations(m, n):
    return any(not (rk.is_identity and lk.is_identity)
               for rk, lk in zip(m.right_action, n.left_action))


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_quotients_match_fresh_builds(field, g, data):
    """tensor_over on (m, n), and then on three pairs of new objects with
    the same balancing actions R_k and L_k: with the same outer actions
    (M's left, N's right), with M's left actions scaled by c != 1 and with
    N's right actions scaled by c.  Each must equal a fresh
    `_build_tensor`; the first pair shares `project`, and a key that
    ignored either outer action list would hand the others the wrong
    inherited actions.  Inputs take the union-find path over kZg or the
    `Echelon` path."""
    a, m, n = data.draw(st.one_of(union_find_input(field, g), echelon_input(field)))
    c = data.draw(nonzero_scalars(field).filter(lambda v: v != 1), label="c")
    first = _quotient_or_error(lambda: tensor_over(a, m, n))
    assert_same_quotient(first, _quotient_or_error(
        lambda: bimodule._build_tensor(a, m, n, None)))
    for scale_left, scale_right in ((False, False), (True, False), (False, True)):
        m2 = Bimodule(m.left_algebra, a, m.dim,
                      [x.scale(c) for x in m.left_action] if scale_left else m.left_action,
                      m.right_action, name="M2")
        n2 = Bimodule(a, n.right_algebra, n.dim, n.left_action,
                      [x.scale(c) for x in n.right_action] if scale_right
                      else n.right_action, name="N2")
        got = _quotient_or_error(lambda: tensor_over(a, m2, n2))
        assert_same_quotient(got, _quotient_or_error(
            lambda: bimodule._build_tensor(a, m2, n2, None)))
        if not (scale_left or scale_right or isinstance(got, tuple)) and _has_relations(m, n):
            assert got.project is first.project and got.factor_left is m2


def test_corpus_quotients_match_fresh_builds(monkeypatch):
    """Every quotient that the corpus checkers, lifts and products take from
    `tensor_over` (every miss of its identity memo) against a fresh
    `_build_tensor`.  Six come from the content table: the two quotients
    of each lift's xi and delta, re-homed onto an equal copy of its coring
    carrier, which share the numeric core of the object's quotients, and
    two of kZ2 over itself."""
    made, built = [], set()
    real_shared, real_build = bimodule._shared_tensor, bimodule._build_tensor

    def shared(a, m, n, name):
        made.append((a, m, n, name, real_shared(a, m, n, name)))
        return made[-1][-1]

    def build(a, m, n, name):
        tq = real_build(a, m, n, name)
        built.add(id(tq))
        return tq

    monkeypatch.setattr(bimodule, "_shared_tensor", shared)
    monkeypatch.setattr(bimodule, "_build_tensor", build)
    C = Corpus()
    corpus_outputs(C)
    monkeypatch.undo()
    for a, m, n, name, tq in made:
        assert_same_quotient(tq, bimodule._build_tensor(a, m, n, name))
    hits = {id(tq) for *_, tq in made if id(tq) not in built}
    for w in (C.lifted_flip_cw, C.lifted_dk_cw):
        X, M = w.coring.carrier, w.object.carrier
        for q, own in ((w.xi.domain, space(X, M)), (w.delta.codomain, space(X, M, M))):
            assert id(q) in hits and q.project is own.quotient.project
    assert len(hits) == 6


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_failed_descent_raises_on_every_equal_content_call(field):
    """The kZ3 (x) kZ3 whose left action of g is a transposition does not
    descend; a failed build is never stored, so every new M of that
    content raises the same error, naming the same echelon row."""
    a = group_algebra_cyclic(field, 3)
    reg = regular_bimodule(a)
    swap = Matrix.from_entries(field, 3, 3, {(1, 0): 1, (0, 1): 1, (2, 2): 1})
    errors = []
    for _ in range(3):
        m = Bimodule(a, a, 3, [reg.left_action[0], swap, swap @ swap @ swap],
                     reg.right_action, name="M")
        for _ in range(2):
            with pytest.raises(WellDefinednessError) as err:
                tensor_over(a, m, reg)
            errors.append((str(err.value), err.value.relation))
    assert errors == errors[:1] * 6
    assert not a._memo["tensor_content"]


def test_dropped_quotients_free_their_content_entry():
    """The content table holds its quotients weakly: two quotients of one
    content share their core, and once both are dropped the entry is gone
    after a collection, while the table itself stays on the algebra."""
    import gc
    import weakref
    a = group_algebra_cyclic(QQ, 2)
    reg = regular_bimodule(a)

    def copy(name):
        return Bimodule(a, a, 2, reg.left_action, reg.right_action, name=name)

    m1, m2 = copy("M1"), copy("M2")
    q1, q2 = tensor_over(a, m1, reg), tensor_over(a, m2, reg)
    assert q2.project is q1.project and q2.factor_left is m2
    table = a._memo["tensor_content"]
    assert len(table) == 1
    gone = weakref.ref(q1), weakref.ref(q2)
    del m1, m2, q1, q2
    gc.collect()
    assert [r() for r in gone] == [None, None]
    assert len(table) == 0 and a._memo["tensor_content"] is table


# ---------------------------------------------------------------------------
# the list kernel: a monomial stage on a monomial running map


def plain_padded_matmul(self, pre, post, m):
    """`Matrix.padded_matmul` without the list kernel: a marked identity
    self leaves m as it is, a marked identity m makes the Kronecker product
    the result, and any other m is scattered row by row (`_padded_rows`,
    which reads the column dicts of a `Monomial` self from its cached
    `transpose`)."""
    if m.rows != pre * self.cols * post:
        raise InputError("padded matmul shape mismatch")
    if self.is_identity:
        return m
    if m.is_identity:
        out = self
        if pre != 1:
            out = Matrix.identity(self.field, pre).kron(out)
        if post != 1:
            out = out.kron(Matrix.identity(self.field, post))
        return out
    return self._padded_rows(pre, post, m)


def typed_entries(mat):
    """The shape and entries of mat, each scalar with its type."""
    return mat.rows, mat.cols, {(i, j): (v, type(v)) for i, row in mat.data.items()
                                for j, v in row.items()}


@st.composite
def kernel_lists(draw, field, rows, cols):
    """(tgt, wt) of a rows x cols monomial whose weights are often +-1, and
    over QQ often Fractions; zero columns (target -1) keep a weight that no
    reader may use."""
    units = [field.one(), field.neg(field.one())]
    tgt = [draw(st.integers(-1, rows - 1)) for _ in range(cols)]
    wt = [field.parse(draw(st.one_of(st.sampled_from(units), nonzero_scalars(field))))
          for _ in range(cols)]
    return tgt, wt


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), pre=st.integers(1, 3), post=st.integers(1, 3))
def test_list_kernel_matches_plain_padded_matmul(field, data, pre, post):
    """A monomial F, plain or a `Monomial`, times a `Monomial` M is a
    `Monomial` equal entry for entry, scalar types included, to
    `padded_matmul` of plain copies (the row kernel), with zero columns in
    M and in F and weights of +-1 and Fractions; times a marked identity it
    is I_pre (x) F (x) I_post, a `Monomial` from `kron` with the marked
    identities, and a second stage continues on the lists.  The Kronecker
    products and the product of two stages are formed entry by entry
    (`plain_kron`, `plain_matmul`)."""
    draw = data.draw
    fr, fc, n = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 6))
    rows = pre * fc * post
    ftgt, fwt = draw(kernel_lists(field, fr, fc))
    mtgt, mwt = draw(kernel_lists(field, rows, n))
    plain_f = plain_of(field, fr, ftgt, fwt)
    want = Matrix.padded_matmul(plain_f, pre, post, plain_of(field, rows, mtgt, mwt))
    for f in (plain_of(field, fr, ftgt, fwt), exactla.Monomial(field, fr, ftgt, fwt)):
        m = exactla.Monomial(field, rows, list(mtgt), list(mwt))
        got = f.padded_matmul(pre, post, m)
        assert isinstance(got, exactla.Monomial)
        assert got._t is None and got._rows is None and m._rows is None
        assert typed_entries(got) == typed_entries(want)
        assert got == want and want == got
    ident = Matrix.identity(field, rows)
    got = exactla.Monomial(field, fr, ftgt, fwt).padded_matmul(pre, post, ident)
    assert isinstance(got, exactla.Monomial)
    assert typed_entries(got) == typed_entries(
        plain_kron(plain_kron(plain_identity(field, pre), plain_f), plain_identity(field, post)))
    mono = exactla.Monomial(field, fr, ftgt, fwt)
    for block, want in ((Matrix.identity(field, pre).kron(mono),
                         plain_kron(plain_identity(field, pre), plain_f)),
                        (mono.kron(Matrix.identity(field, post)),
                         plain_kron(plain_f, plain_identity(field, post)))):
        assert isinstance(block, exactla.Monomial)
        assert typed_entries(block) == typed_entries(want)
    gr = draw(st.integers(0, 3))
    again = plain_of(field, gr, *draw(kernel_lists(field, gr, fr)))
    twice = again.padded_matmul(pre, post, got)
    assert isinstance(twice, exactla.Monomial)
    assert typed_entries(twice) == typed_entries(plain_kron(
        plain_kron(plain_identity(field, pre), plain_matmul(again, plain_f)),
        plain_identity(field, post)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("pre, post", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_list_kernel_cases(field, pre, post):
    """Columns of M that meet a zero column of F die, two columns that land
    on one row stay two entries of that row, and a weight of one on either
    side leaves the other weight itself; a non-monomial F, or a plain M,
    takes the row kernel."""
    one, two, half = field.one(), field.from_int(2), field.div(field.one(), field.from_int(2))
    f = exactla.Monomial(field, 2, [1, -1, 1], [two, one, one])
    rows = pre * 3 * post
    m = exactla.Monomial(field, rows, [rows - 1, -1] + list(range(rows)),
                         [half, one] + [one] * rows)
    got = f.padded_matmul(pre, post, m)
    want = Matrix.padded_matmul(unmarked(f), pre, post, unmarked(m))
    assert isinstance(got, exactla.Monomial) and typed_entries(got) == typed_entries(want)
    # row (a, 1, b) dies, rows (a, 0, b) and (a, 2, b) both land on (a, 1, b)
    assert all(got.tgt[2 + k] == -1 for k in range(rows) if (k // post) % 3 == 1)
    assert got.wt[0] is half and got.wt[2] is two and got.wt[2 + 2 * post] is one
    wide = Matrix.from_rows(field, [[1, 0, 0], [1, 0, 1]])
    assert not isinstance(wide.padded_matmul(pre, post, m), exactla.Monomial)
    assert wide.padded_matmul(pre, post, m) == Matrix.padded_matmul(
        wide, pre, post, unmarked(m))
    assert not isinstance(f.padded_matmul(pre, post, unmarked(m)), exactla.Monomial)


def test_monomial_form_is_kept_on_the_matrix():
    """`monomial` finds the form once and keeps it on the matrix, or keeps
    that there is none; a plain matrix is read by rows without building its
    transpose, a `Transposed` by its columns without building its rows, and
    every kind starts with no form kept."""
    f = QQ
    plain = Matrix.from_entries(f, 3, 3, {(2, 0): f.from_int(5), (0, 2): f.one()})
    k = plain.monomial()
    assert k is plain.monomial() and plain._t is None
    assert k.tgt == [2, -1, 0] and k == plain
    two = Matrix.from_entries(f, 2, 2, {(0, 0): f.one(), (1, 0): f.one()})
    assert two.monomial() is None and two._mono is False and two.monomial() is None
    cols = exactla.Transposed(unmarked(plain).transpose())
    assert cols.monomial() == plain and cols._rows is None
    assert exactla.Transposed(two.transpose()).monomial() is None
    mono = exactla.Monomial(f, 3, [0, 1], [f.one(), f.one()])
    assert mono.monomial() is mono
    for m in (Matrix.zeros(f, 2, 2), Matrix.identity(f, 2), exactla.Transposed(two), mono):
        assert m._mono is None


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_pipe_over_flat_levels_keeps_a_monomial(field):
    """A pipe over the ground field starts at the marked identity, ends
    there when it has no stage, and keeps its running map a `Monomial`
    through monomial stages; a stage that is not monomial turns it into a
    plain matrix, and the composites equal the plain kernels'."""
    x = rescaled_grouplike(field, [Fraction(2), Fraction(-3)], "C").carrier
    two = space(x, x)
    assert bimodule.pipe(two).done().matrix.is_identity
    flip = LinearMap(two.quotient, two.quotient, Matrix.from_entries(
        field, 4, 4, {(2 * (i % 2) + i // 2, i): field.one() for i in range(4)}), "flip")
    mix = LinearMap(x, x, Matrix.from_rows(field, [[1, 1], [0, 1]]), "mix")
    p = bimodule.pipe(two).apply(flip, 0, 2, [x, x])
    assert isinstance(p.matrix, exactla.Monomial)
    q = p.apply(flip, 0, 2, [x, x])
    assert isinstance(q.matrix, exactla.Monomial) and q.done().matrix == Matrix.identity(field, 4)
    r = p.apply(mix, 1)
    assert not isinstance(r.matrix, exactla.Monomial)
    fast = [s.done().matrix for s in (p, q, r)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "padded_matmul", plain_padded_matmul)
        p = bimodule.pipe(two).apply(flip, 0, 2, [x, x])
        slow = [s.done().matrix for s in (p, p.apply(flip, 0, 2, [x, x]), p.apply(mix, 1))]
    assert [typed_entries(m) for m in fast] == [typed_entries(m) for m in slow]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), rows=st.integers(0, 4), cols=st.integers(0, 4))
def test_monomial_equality_matches_plain(field, data, rows, cols):
    """`==` between two `Monomial`s compares shapes, targets and live
    weights, and against a marked identity reads the lists too, building no
    dict; it agrees with plain equality both ways and across kinds, ignores
    the weights of zero columns, and a `Monomial` is not hashable."""
    tgt, wt = data.draw(kernel_lists(field, rows, cols))
    other_t, other_w = list(tgt), list(wt)
    if cols and data.draw(st.booleans()):
        c = data.draw(st.integers(0, cols - 1))
        other_t[c] = data.draw(st.integers(-1, rows - 1))
        other_w[c] = field.parse(data.draw(nonzero_scalars(field)))
    dead = [field.from_int(7) if t < 0 else w for t, w in zip(other_t, other_w)]
    want = plain_of(field, rows, tgt, wt) == plain_of(field, rows, other_t, other_w)
    for wts in (other_w, dead):
        a = exactla.Monomial(field, rows, tgt, wt)
        b = exactla.Monomial(field, rows, other_t, wts)
        assert (a == b) == (b == a) == want
        assert (a != b) == (not want)
        assert a._rows is a._t is b._rows is b._t is None
        for plain in (plain_of(field, rows, other_t, other_w),
                      exactla.Transposed(plain_of(field, rows, other_t, other_w).transpose())):
            assert (a == plain) == (plain == a) == want
    a, wider = (exactla.Monomial(field, r, tgt, wt) for r in (rows, rows + 1))
    assert (a == wider) == (wider == a) == (plain_of(field, rows, tgt, wt) == plain_of(
        field, rows + 1, tgt, wt))
    square = exactla.Monomial(field, cols, list(range(cols)), [field.one()] * cols)
    assert square == Matrix.identity(field, cols) and Matrix.identity(field, cols) == square
    for ident in (Matrix.identity(field, rows), Matrix.identity(field, cols)):
        a = exactla.Monomial(field, rows, tgt, wt)
        assert (a == ident) == (plain_of(field, rows, tgt, wt) == plain_identity(field, ident.rows))
        assert a._rows is a._t is None
    assert exactla.Monomial.__hash__ is None
    with pytest.raises(TypeError):
        hash(a)




def test_corpus_checkers_match_without_list_kernel(monkeypatch):
    """Every corpus checker, broken twins, the lifts, the mirrored
    left-handed checks and `gp` (whose comultiplication is not monomial)
    give the same reports, witness text included, the same structure maps
    and the same matrix at every `Pipe.done`, entry for entry, with the
    list kernel patched out of `padded_matmul`, which `@` runs too."""
    calls, done = [], []
    real, real_done = exactla.Monomial._padded_lists, bimodule.Pipe.done
    monkeypatch.setattr(exactla.Monomial, "_padded_lists",
                        lambda *a: (calls.append(1), real(*a))[1])
    monkeypatch.setattr(bimodule.Pipe, "done", lambda *a, **k: (
        done.append(typed_entries((lin := real_done(*a, **k)).matrix)), lin)[1])
    fast = corpus_outputs(Corpus())
    assert len(calls) > 100
    fast_done, done[:], calls[:] = done[:], [], []
    monkeypatch.setattr(Matrix, "padded_matmul", plain_padded_matmul)
    slow, slow_done = corpus_outputs(Corpus()), done
    assert calls == []
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a == b
    assert len(fast_done) == len(slow_done) > 100
    assert fast_done == slow_done


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [2, 3])
def test_ladder_rung_matches_without_list_kernel(field, n, monkeypatch):
    fast = ladder_outputs(field, n)
    monkeypatch.setattr(Matrix, "padded_matmul", plain_padded_matmul)
    assert ladder_outputs(field, n) == fast


# ---------------------------------------------------------------------------
# a compared equation decided on a level that is not built


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(0, 4), mid=st.integers(0, 4),
       cols=st.integers(0, 4))
def test_monomial_product_matches_plain(field, data, rows, mid, cols):
    """`Monomial @ Monomial` composes the lists: a `Monomial` equal entry
    for entry, scalar types included, to the product of plain copies, with
    zero columns on either side and weights of +-1 and Fractions, building
    no dict on the operands or the result; a marked identity on either side
    returns the other operand."""
    a_t, a_w = data.draw(kernel_lists(field, rows, mid))
    b_t, b_w = data.draw(kernel_lists(field, mid, cols))
    a, b = (exactla.Monomial(field, rows, a_t, a_w),
            exactla.Monomial(field, mid, b_t, b_w))
    got = a @ b
    assert isinstance(got, exactla.Monomial)
    assert a._rows is a._t is b._rows is b._t is got._rows is got._t is None
    want = plain_of(field, rows, a_t, a_w) @ plain_of(field, mid, b_t, b_w)
    assert typed_entries(got) == typed_entries(want)
    assert a @ Matrix.identity(field, mid) is a
    assert Matrix.identity(field, mid) @ b is b


@st.composite
def span_vectors(draw, field, flat, relations):
    """Flat vectors of a level: sums of relations (in the span), each
    perturbed or not by a unit vector, and two-term differences."""
    scalar = nonzero_scalars(field)
    out = []
    for _ in range(draw(st.integers(1, 4))):
        vec = {}
        for rel in draw(st.lists(st.sampled_from(relations), max_size=3)
                        if relations else st.just([])):
            field.axpy(vec, rel, field.parse(draw(scalar)))
        if flat and draw(st.booleans()):
            field.axpy(vec, {draw(st.integers(0, flat - 1)): field.one()},
                       field.parse(draw(scalar)))
        out.append(vec)
    if flat:
        a, b = draw(st.integers(0, flat - 1)), draw(st.integers(0, flat - 1))
        out.append(field.axpy({a: field.one()}, {b: field.parse(draw(scalar))},
                              field.neg(field.one())))
    return [v for v in out if v]


def assert_projection_kills_the_span(field, m, n, vectors):
    """project @ vec == 0 for the union-find `project` of the level, on
    each vector (every unit vector among them), against reduction by the
    raw relations through `Echelon`; returns in_span(vec), the first."""
    flat = m.dim * n.dim
    mono = [k.monomial() for pair in bimodule._unmarked(m, n) for k in pair]
    _, project = bimodule._union_find(field, m.dim, n.dim, mono)
    ech = Echelon(field, flat, bimodule._balancing(m, n))
    for vec in vectors + [{c: field.one()} for c in range(flat)]:
        assert (not project.tapply(vec)) == (not ech.reduce(vec))
    return lambda vec: not project.tapply(vec)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_union_find_projection_kills_the_span(field, data):
    """A flat vector of a generated monomial level is in the relation span
    exactly when the canonical `project` kills it: free monomial R_k and
    L_k with one-term kills, inconsistent cycles and dead components, and
    vectors in the span and out of it."""
    a, m, n = data.draw(monomial_input(field))
    relations = list(bimodule._balancing(m, n))
    vectors = data.draw(span_vectors(field, m.dim * n.dim, relations))
    assert_projection_kills_the_span(field, m, n, vectors)


def free_level(field, right, left, dm, dn):
    """(M, N) over kZ_len(right) with R_k = right[k] and L_k = left[k],
    each a (tgt, wt) monomial, and the other actions the identity."""
    a = group_algebra_cyclic(field, len(right))
    k = field_algebra(field)
    m = Bimodule(k, a, dm, [plain_identity(field, dm)],
                 [exactla.Monomial(field, dm, *r) for r in right], name="M")
    n = Bimodule(a, k, dn, [exactla.Monomial(field, dn, *l) for l in left],
                 [plain_identity(field, dn)], name="N")
    return m, n


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_union_find_projection_cases(field):
    """The rules one at a time, on M (x) N with dim N = 1, so that flat
    column i is e_i, and L_k the identity: column i of R_k = {p: v} ties
    v e_p = e_i, and a zero column kills e_i.  A weighted tie e_0 = 2 e_1
    keeps e_0 - e_1 out of the span and puts e_0 - 2 e_1 in it; a one-term
    kill of e_1 kills e_0 = e_1 too; a chain e_0 = e_1 = e_2 = e_3 ties
    its ends; and the cycle e_0 = e_1, e_0 = 2 e_1 of two pairs kills
    both."""
    one, two, neg = field.one(), field.from_int(2), field.neg(field.one())
    ident = ([0], [one])

    def case(right, dm):
        m, n = free_level(field, right, [ident] * len(right), dm, 1)
        return assert_projection_kills_the_span(field, m, n, [])

    in_span = case([([1, 1], [two, one])], 2)
    assert not in_span({0: one, 1: neg}) and in_span({0: one, 1: field.neg(two)})
    in_span = case([([1, -1], [one, one])], 2)
    assert in_span({0: one}) and in_span({1: one})
    in_span = case([([1, 2, 3, 3], [one] * 4)], 4)
    assert in_span({0: one, 3: neg}) and not in_span({0: one})
    in_span = case([([1, 1], [one, one]), ([1, 1], [two, one])], 2)
    assert in_span({0: one}) and in_span({1: one})


def assert_decided_as_echelon(field, m, n, base, diffs):
    """`_decided` on two pipes that end on (M, N), with columns base and
    base - diffs, is true exactly when `Echelon` reduces every column of
    diffs to 0, and M (x)_A N stays unbuilt; returns the decision."""
    flat, a = m.dim * n.dim, m.right_algebra

    def stages(cols):
        rows = Matrix(field, len(cols), flat, {t: c for t, c in enumerate(cols) if c})
        return bimodule._Stages((m, n), rows.transpose())

    rhs = [field.axpy(dict(b), d, field.neg(field.one())) for b, d in zip(base, diffs)]
    got = bimodule._decided(stages(base), stages(rhs))
    ech = Echelon(field, flat, bimodule._balancing(m, n))
    assert got == all(not ech.reduce(d) for d in diffs)
    assert bimodule._tensor_key(a, n) not in getattr(m, "_memo", {})
    return got


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_decided_on_weighted_levels(field):
    """`_decided` on the weighted levels of `test_union_find_projection_cases`,
    left unbuilt.  Every corpus tie has weight 1, so the weighted tie
    e_0 = 2 e_1 is what tells a decision that reads the weights from one
    that drops them, and a first column in the span with a second out of
    it what tells one that reads every column of lhs - rhs."""
    one, two, neg = field.one(), field.from_int(2), field.neg(field.one())
    ident, base = ([0], [one]), [{0: one}, {1: two}]

    def decide(right, dm, diffs):
        m, n = free_level(field, right, [ident] * len(right), dm, 1)
        return assert_decided_as_echelon(field, m, n, base[:len(diffs)], diffs)

    tie = [([1, 1], [two, one])]
    assert not decide(tie, 2, [{0: one, 1: neg}])
    assert decide(tie, 2, [{0: one, 1: field.neg(two)}])
    assert decide(tie, 2, [{0: two, 1: field.from_int(-4)}, {}])
    assert not decide(tie, 2, [{0: one, 1: field.neg(two)}, {0: one, 1: neg}])
    assert not decide(tie, 2, [{}, {1: one}])
    assert decide([([1, -1], [one, one])], 2, [{0: one}, {1: neg}])
    chain = [([1, 2, 3, 3], [one] * 4)]
    assert decide(chain, 4, [{0: one, 3: neg}, {1: two, 2: field.neg(two)}])
    assert not decide(chain, 4, [{0: one, 3: neg}, {2: one}])
    assert decide([([1, 1], [one, one]), ([1, 1], [two, one])], 2, [{0: one}, {1: two}])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decided_on_generated_weighted_levels(field, data):
    """`_decided` on random weighted `free_level` levels (one or two pairs,
    weights often not 1, zero columns) against `Echelon`, with columns of
    lhs - rhs in the span and out of it, in random order."""
    dm, dn = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, 2))
    right = [data.draw(kernel_lists(field, dm, dm)) for _ in range(count)]
    left = [data.draw(kernel_lists(field, dn, dn)) for _ in range(count)]
    m, n = free_level(field, right, left, dm, dn)
    assume(bimodule._unmarked(m, n))
    flat = dm * dn
    diffs = data.draw(st.permutations(data.draw(span_vectors(
        field, flat, list(bimodule._balancing(m, n))))))
    base = [{data.draw(st.integers(0, flat - 1)): field.one()} for _ in diffs]
    assert_decided_as_echelon(field, m, n, base, diffs)


def decision_outcome(fn):
    """The report of fn() as JSON, or the type, text and relation of the
    error it raises."""
    try:
        return fn().to_json()
    except Exception as err:  # noqa: BLE001  (every error is an outcome)
        return type(err).__name__, str(err), getattr(err, "relation", None)


def test_corpus_checkers_match_without_the_decision(monkeypatch):
    """Every corpus checker, broken twins, the lifts, the mirrored
    left-handed checks and `gp` give the same reports, witness text
    included, and the same structure maps with `_decided` forced off, and
    with it on some equations are decided and fewer quotients are built."""
    decided, built = [], []
    real, real_build = bimodule._decided, bimodule._build_tensor
    monkeypatch.setattr(bimodule, "_decided", lambda *a: (
        decided.append(out := real(*a)), out)[1])
    monkeypatch.setattr(bimodule, "_build_tensor", lambda *a: (
        built.append(1), real_build(*a))[1])
    fast, fast_built = corpus_outputs(Corpus()), len(built)
    assert decided.count(True) >= 12 and False in decided
    built[:] = []
    monkeypatch.setattr(bimodule, "_decided", lambda *a: False)
    slow = corpus_outputs(Corpus())
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a == b
    assert fast_built < len(built)


PERTURBED = {
    "entwined": lambda c: c.flip_entwining,
    "lifted-flip": lambda c: c.lifted_flip_cw,
    "lifted-dk": lambda c: c.lifted_dk_cw,
}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), which=st.sampled_from(sorted(PERTURBED)),
       part=st.sampled_from(["delta", "xi", "twist"]))
def test_perturbed_structures_match_without_the_decision(data, which, part):
    """A perturbed comultiplication of the entwined coring, or a perturbed
    delta, xi or twist of a corpus lift, mostly breaks a law, often one
    whose codomain the decision would skip, and often bilinearity: the
    report, witness text included, or the error must be those of the
    built path, each side from fresh structures."""
    from coringlab import cowreath, entwine
    from coringlab.rcat import RObject

    bumps = {}

    def bump(key, x):
        """x with its matrix perturbed, by the same draw on both sides."""
        if key not in bumps:
            bumps[key] = x.matrix + data.draw(perturbation(
                x.domain.field, x.matrix.rows, x.matrix.cols))
        return LinearMap(x.domain, x.codomain, bumps[key], x.name)

    def make():
        base = PERTURBED[which](Corpus())
        if which == "entwined":
            c = entwine.entwined_coring(base)
            return lambda: check_coring(
                Coring(c.base, c.carrier, bump("comult", c.comult), c.counit))
        maps = {"delta": base.delta, "xi": base.xi, "twist": base.object.twist}
        maps[part] = bump(part, maps[part])
        obj = RObject(base.coring, base.object.carrier, maps["twist"], base.object.name)
        return lambda: cowreath.check_cowreath(
            cowreath.Cowreath(obj, maps["xi"], maps["delta"], name=base.name))

    fast = decision_outcome(make())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bimodule, "_decided", lambda *a: False)
        slow = decision_outcome(make())
    assert fast == slow


def test_noncommuting_leaf_raises_as_the_built_path():
    """N over kZ2 whose left g swaps its basis and whose right g is
    diag(1, -1): the two actions do not commute, so the right action of N
    does not descend to kZ2 (x) N.  Two equal pipes that end on
    (kZ2, N) must not pass unbuilt: `compare_pipes` builds the level and
    raises the `WellDefinednessError` of the built path, relation
    included."""
    def run(decide):
        a = group_algebra_cyclic(QQ, 2)
        one, neg = QQ.one(), QQ.neg(QQ.one())
        n = Bimodule(a, a, 2, [plain_identity(QQ, 2), Matrix.from_rows(QQ, [[0, 1], [1, 0]])],
                     [plain_identity(QQ, 2), Matrix.from_entries(QQ, 2, 2, {(0, 0): one,
                                                                          (1, 1): neg})],
                     name="N")
        p = bimodule.pipe(space(regular_bimodule(a))).insert_central(n, {0: one}, 1)
        with pytest.MonkeyPatch.context() as mp:
            if not decide:
                mp.setattr(bimodule, "_decided", lambda *a: False)
            return decision_outcome(
                lambda: bimodule.compare_pipes(Report("t"), "t", p, p))

    fast = run(True)
    assert fast[0] == "WellDefinednessError" and fast[2]
    assert fast == run(False)


# ---------------------------------------------------------------------------
# identity and twist laws: the source pipe against the hand-finished form


def _old_coring(c):
    C, areg = c.carrier, regular_bimodule(c.base)
    cm = bimodule.pipe(space(C)).apply(c.comult, 0, 1, [C, C])
    left = cm.apply(c.counit, 0, 1, [areg]).absorb_right(0).done(name="(eps x C).comult")
    right = cm.apply(c.counit, 1, 1, [areg]).absorb_left(1).done(name="(C x eps).comult")
    return [("counit-left", left, LinearMap.identity(C)),
            ("counit-right", right, LinearMap.identity(C))]


def _old_comodule(m):
    C, X, counit = m.coring.carrier, m.carrier, m.coring.counit
    areg = regular_bimodule(m.coring.base)
    co = bimodule.pipe(space(X))
    if m.side == "right":
        cu = co.apply(m.coaction, 0, 1, [X, C]).apply(counit, 1, 1, [areg]).absorb_left(1)
    else:
        cu = co.apply(m.coaction, 0, 1, [C, X]).apply(counit, 0, 1, [areg]).absorb_right(0)
    return [("coaction-counit", cu.done(name="(X x eps).rho"), LinearMap.identity(X))]


def _old_cowreath(w):
    C, M, tw = w.coring.carrier, w.object.carrier, w.object.twist
    d = bimodule.pipe(space(C, M)).apply(w.delta, 0, 2, [C, M, M])
    d1 = d.apply(w.xi, 0, 2, [C]).done(name="(xi x M).delta")
    d2 = d.apply(tw, 0, 2, [M, C]).apply(w.xi, 1, 2, [C]).done(name="(M x xi).(tw x M).delta")
    return [("cw-counit", d1, LinearMap.identity(space(C, M).quotient)), ("cw-twist", d2, tw)]


def _old_cowreath_abstract(w):
    c = w.coring
    C, M, tw = c.carrier, w.object.carrier, w.object.twist
    areg = regular_bimodule(c.base)
    dc = (bimodule.pipe(space(C, M)).apply(w.delta, 0, 2, [C, M, M])
          .apply(c.comult, 0, 1, [C, C]))
    e1 = (dc.apply(tw, 1, 2, [M, C]).apply(w.xi, 2, 2, [C]).apply(c.counit, 2, 1, [areg])
          .absorb_left(2))
    e2 = dc.apply(w.xi, 1, 2, [C]).apply(c.counit, 1, 1, [areg]).absorb_right(1)
    ident = LinearMap.identity(space(C, M).quotient)
    return [("cw-abstract-counit-1", e1.done(name="abstract-counit-1"), ident),
            ("cw-abstract-counit-2", e2.done(name="abstract-counit-2"), ident)]


def _old_cow_comodule(x):
    w = x.cowreath
    C, X, M, xt = w.coring.carrier, x.object.carrier, w.object.carrier, x.object.twist
    co = bimodule.pipe(space(C, X))
    if x.side == "right":
        d1 = co.apply(x.coaction, 0, 2, [C, X, M]).apply(xt, 0, 2, [X, C]).apply(w.xi, 1, 2, [C])
        return [("comodule-counit", d1.done(name="(X x xi).(xt x M).rho"), xt)]
    d1 = co.apply(x.coaction, 0, 2, [C, M, X]).apply(w.xi, 0, 2, [C])
    return [("comodule-counit", d1.done(name="(xi x X).lam"),
             LinearMap.identity(space(C, X).quotient))]


def _old_wreath(w):
    tb, R, tw = w.ext.t_bimodule, w.object.carrier, w.object.twist
    d1 = bimodule.pipe(space(R, tb)).apply(w.eta, 1, 1, [R, tb]).apply(w.mu, 0, 3, [R, tb])
    d2 = (bimodule.pipe(space(tb, R)).apply(w.eta, 0, 1, [R, tb]).apply(tw, 1, 2, [R, tb])
          .apply(w.mu, 0, 3, [R, tb]))
    return [("w-unit", d1.done(name="mu.(R x eta)"), LinearMap.identity(space(R, tb).quotient)),
            ("w-twist", d2.done(name="mu.(R x tw).(eta x R)"), tw)]


def _old_wreath_module(w, side, y, action):
    tb, R, Y = w.ext.t_bimodule, w.object.carrier, y.carrier
    if side == "right":
        d1 = bimodule.pipe(space(Y, tb)).apply(w.eta, 1, 1, [R, tb]).apply(action, 0, 3, [Y, tb])
        return [("wm-unit", d1.done(name="act.(Y x eta)"),
                 LinearMap.identity(space(Y, tb).quotient))]
    d1 = (bimodule.pipe(space(tb, Y)).apply(w.eta, 0, 1, [R, tb]).apply(y.twist, 1, 2, [Y, tb])
          .apply(action, 0, 3, [Y, tb]))
    return [("wm-unit", d1.done(name="act.(R x tw).(eta x Y)"), y.twist)]


def _old_module_twisting(mt):
    X, rb = mt.carrier, mt.rext.t_bimodule
    a1 = (bimodule.pipe(space(X)).insert_central(rb, mt.rext.total.unit_vector(), 0)
          .apply(mt.l_x, 0, 2, [X]))
    return [("mt-action-unit", a1.done(name="act(1)"), LinearMap.identity(X))]


def unit_law_reports(check, args):
    """(new, old, sites) for the identity and twist laws of check on args:
    the checker's witnesses of those tags, and the reports of the old form,
    in which each left pipe is finished by hand and compared by
    `compare_maps` with the identity of its source quotient or with a
    twist.  sites names each law by checker, tag and side."""
    from coringlab import cowreath, wreath
    old_form = {
        check_coring: _old_coring,
        coring.check_comodule: _old_comodule,
        cowreath.check_cowreath: _old_cowreath,
        cowreath.check_cowreath_abstract: _old_cowreath_abstract,
        cowreath.check_cow_comodule: _old_cow_comodule,
        wreath.check_wreath: _old_wreath,
        wreath.check_wreath_module: _old_wreath_module,
        wreath.check_left_module_twisting: _old_module_twisting,
    }[check]
    rep = check(*args)
    laws = old_form(*args)
    tags = [tag for tag, _, _ in laws]
    new = Report("laws")
    for w in rep.witnesses:
        if w.equation in tags:
            new.add(w)
    old = Report("laws")
    for tag, lhs, rhs in laws:
        compare_maps(old, tag, lhs, rhs)
    side = getattr(args[0], "side", None) or (args[1] if len(args) > 1 else None)
    return new, old, {(check.__name__, tag, side) for tag in tags}


@functools.cache
def corpus_objects(field):
    """{(section, name): object} of the corpus sessions over QQ, parsed over
    field."""
    from coringlab.corpus import corpus_sessions
    s = {}
    for raw in corpus_sessions().values():
        if raw["field"] == "QQ":
            raw = copy.deepcopy(raw)
            raw["field"] = field.name
            s.update({(sec, key): obj for sec in ("algebras", "corings", "comodules",
                                                  "cowreaths", "entwinings", "wreaths",
                                                  "twistings")
                      for key, obj in getattr(parse_session(raw), sec).items()})
    return s


@functools.cache
def unit_law_cases(field):
    """(check, maps, build) for every checker that compares a law with its
    source pipe, over the corpus sessions parsed over field, the flip lift
    and its product coring: build(maps) gives the checker's arguments, and
    a twin is built from maps with one of them perturbed."""
    from coringlab import cowreath, wreath
    from coringlab.rcat import RObject

    s = corpus_objects(field)
    cws = [v for (sec, _), v in s.items() if sec == "cowreaths"]
    lift = cowreath.entwining_lift_cowreath(s["entwinings", "flip-ent"], s["cowreaths", "flip"])
    cws.append(lift)
    corings = [v for (sec, _), v in s.items() if sec == "corings"]
    corings.append(cowreath.cowreath_product(lift)[0])
    cases = []
    for c in corings:
        cases.append((check_coring, {"comult": c.comult, "counit": c.counit}, lambda m, c=c: (
            Coring(c.base, c.carrier, m["comult"], m["counit"], c.name),)))
        for side in ("right", "left"):
            x = coring.comodule_over_itself(c, side)
            cases.append((coring.check_comodule, {"coaction": x.coaction},
                          lambda m, x=x: (coring.Comodule(x.side, x.coring, x.carrier,
                                                          m["coaction"], x.name),)))

    def remade(w, m):
        o = w.object
        obj = RObject(o.coring, o.carrier, m.get("twist", o.twist), o.name)
        return cowreath.Cowreath(obj, m.get("xi", w.xi), m.get("delta", w.delta), w.name)

    for w in cws:
        maps = {"xi": w.xi, "delta": w.delta, "twist": w.object.twist}
        for check in (cowreath.check_cowreath, cowreath.check_cowreath_abstract):
            cases.append((check, maps, lambda m, w=w: (remade(w, m),)))
        for x in (cowreath.cow_comodule_self(w),
                  cowreath.CowComodule("left", w, w.object, w.delta, name="self-left")):
            cases.append((cowreath.check_cow_comodule, {"coaction": x.coaction},
                          lambda m, x=x: (cowreath.CowComodule(
                              x.side, x.cowreath, x.object, m["coaction"], x.name),)))
    for w in (v for (sec, _), v in s.items() if sec == "wreaths"):
        o = w.object
        maps = {"eta": w.eta, "mu": w.mu, "twist": o.twist}
        cases.append((wreath.check_wreath, maps, lambda m, w=w, o=o: (wreath.Wreath(
            wreath.RTObject(o.ext, o.carrier, m["twist"], o.name), m["eta"], m["mu"], w.name),)))
        y, l_act, r_act = wreath.regular_wreath_bimodule(w)
        for side, act in (("right", r_act), ("left", l_act)):
            cases.append((wreath.check_wreath_module, {"action": act, "twist": y.twist},
                          lambda m, w=w, y=y, side=side: (w, side, wreath.RTObject(
                              y.ext, y.carrier, m["twist"], y.name), m["action"])))
    for mt in (v for (sec, _), v in s.items() if sec == "twistings"):
        cases.append((wreath.check_left_module_twisting, {"l_x": mt.l_x, "twist": mt.twist},
                      lambda m, mt=mt: (wreath.ModuleTwist(mt.wreath, mt.rext, mt.carrier,
                                                           m["l_x"], m["twist"], mt.name),)))
    return cases


@pytest.mark.parametrize("field", FIELDS)
def test_unit_laws_match_the_hand_finished_pipes(field):
    """Every identity and twist law compared with its source pipe by
    `compare_pipes` gives the report of the old form, on every corpus
    structure, the flip lift and its product, and the fifteen sites are
    all reached."""
    sites = set()
    for check, maps, build in unit_law_cases(field):
        new, old, reached = unit_law_reports(check, build(maps))
        assert new == old, (check.__name__, reached)
        sites |= reached
    assert len(sites) == 15, sorted(sites)


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_perturbed_unit_laws_match_the_hand_finished_pipes(field, data):
    """A twin with one structure map perturbed mostly fails the identity
    or twist law that map enters: its witnesses, text and order included,
    are those of the old form.  A twin whose checker raises has no report
    to compare."""
    check, maps, build = data.draw(st.sampled_from(unit_law_cases(field)))
    part = data.draw(st.sampled_from(sorted(maps)))
    x = maps[part]
    bumped = LinearMap(x.domain, x.codomain, x.matrix + data.draw(perturbation(
        field, x.matrix.rows, x.matrix.cols)), x.name)
    args = build({**maps, part: bumped})
    try:
        new, old, _ = unit_law_reports(check, args)
    except (InputError, WellDefinednessError):
        return
    assert new == old


# ---------------------------------------------------------------------------
# entwining, Doi-Koppinen and R-algebra laws: pipes against the former forms

ENTWINING_TAGS = ("entwine-mult", "entwine-unit", "entwine-comult", "entwine-counit")
DK_TAGS = ("comodule-coassoc", "comodule-counit", "action-comult", "action-counit")
R_ALGEBRA_TAGS = ("alg-unit-left", "alg-unit-right", "alg-assoc")


def _flat_laws(laws):
    """(tag, lhs, rhs) maps of flat laws (tag, lhs, rhs, dom, cod) between
    the tensor quotients over the field of the legs dom and cod."""
    out = []
    for tag, lhs, rhs, dom, cod in laws:
        d, c = space(*dom).quotient, space(*cod).quotient
        out.append((tag, LinearMap(d, c, lhs), LinearMap(d, c, rhs)))
    return out


def _old_entwining(e):
    from coringlab.algebra import multiplication_matrix, unit_column
    A, C = e.algebra, e.coalgebra
    ab, cc = e.a_bimodule, C.carrier
    psi, mu, one = e.psi.matrix, multiplication_matrix(A), unit_column(A)
    dmat = C.cc.section @ C.comult.matrix
    eps = C.counit.matrix
    ic, ia = Matrix.identity(A.field, cc.dim), Matrix.identity(A.field, A.dim)
    return _flat_laws([
        ("entwine-mult", psi @ ic.kron(mu), mu.kron(ic) @ ia.kron(psi) @ psi.kron(ia),
         (cc, ab, ab), (ab, cc)),
        ("entwine-unit", psi @ ic.kron(one), one.kron(ic), (cc,), (ab, cc)),
        ("entwine-comult", ia.kron(dmat) @ psi, psi.kron(ic) @ ic.kron(psi) @ dmat.kron(ia),
         (cc, ab), (ab, cc, cc)),
        ("entwine-counit", ia.kron(eps) @ psi, eps.kron(ia), (cc, ab), (ab,))])


def _old_doi_koppinen(dk):
    from coringlab.coring import flip_map
    from coringlab.entwine import algebra_as_k_bimodule
    H, Hc, A, C = dk.h_algebra, dk.h_coalgebra, dk.algebra, dk.coalgebra
    hb, cb, ab = Hc.carrier, C.carrier, algebra_as_k_bimodule(A, Hc.base)
    dflat = Hc.cc.section @ Hc.comult.matrix
    cflat = C.cc.section @ C.comult.matrix
    rho, act = dk.coaction, dk.action
    ia, ih, ic = (Matrix.identity(H.field, x.dim) for x in (A, H, cb))
    return _flat_laws([
        ("comodule-coassoc", rho.kron(ih) @ rho, ia.kron(dflat) @ rho, (ab,), (ab, hb, hb)),
        ("comodule-counit", ia.kron(Hc.counit.matrix) @ rho, ia, (ab,), (ab,)),
        ("action-comult", cflat @ act,
         act.kron(act) @ ic.kron(flip_map(cb, hb).matrix).kron(ih) @ cflat.kron(dflat),
         (cb, hb), (cb, cb)),
        ("action-counit", C.counit.matrix @ act, C.counit.matrix.kron(Hc.counit.matrix),
         (cb, hb), (regular_bimodule(C.base),))])


def _old_tensor_map(f, g):
    """The map of `rcat.r_tensor_morphisms(f, g)` as it was built before it
    shared its stages with `check_r_algebra`."""
    from coringlab.rcat import r_tensor_objects
    c = f.src.coring
    C = c.carrier
    src, dst = r_tensor_objects(f.src, g.src), r_tensor_objects(f.dst, g.dst)
    return (bimodule.pipe(space(C, src.carrier)).refine(1)
            .apply(c.comult, 0, 1, [C, C]).apply(f.map, 1, 2, [C, f.dst.carrier])
            .apply(f.dst.twist, 1, 2, [f.dst.carrier, C])
            .apply(g.map, 2, 2, [C, g.dst.carrier])
            .apply(c.counit, 2, 1, [regular_bimodule(c.base)]).absorb_left(2)
            .done(space(C, dst.carrier), name="f(x)g"))


def _r_algebra_morphisms(o, eta, mu):
    from coringlab.rcat import RMorphism, identity_r_object, r_tensor_objects
    return (RMorphism(identity_r_object(o.coring), o, eta, name="eta"),
            RMorphism(r_tensor_objects(o, o), o, mu, name="mu"), RMorphism.identity(o))


def _old_r_algebra(o, eta, mu):
    """The three composite laws of `check_r_algebra` as finished products of
    morphisms followed by mu, the associativity law through `regroup`."""
    C, M = o.coring.carrier, o.carrier
    eta_mor, mu_mor, id_mor = _r_algebra_morphisms(o, eta, mu)
    left, right = _old_tensor_map(eta_mor, id_mor), _old_tensor_map(id_mor, eta_mor)
    unit_l = (bimodule.pipe(space(C, left.domain.factor_right)).refine(1).absorb_right(1)
              .done(space(C, M), name="lambda"))
    unit_r = (bimodule.pipe(space(C, right.domain.factor_right)).refine(1).absorb_left(2)
              .done(space(C, M), name="rho"))
    mm_l, mm_r = _old_tensor_map(mu_mor, id_mor), _old_tensor_map(id_mor, mu_mor)
    conj = regroup(space(C, mm_l.domain.factor_right), space(C, mm_r.domain.factor_right))
    return [("alg-unit-left", mu.after(left), unit_l),
            ("alg-unit-right", mu.after(right), unit_r),
            ("alg-assoc", mu.after(mm_l), mu.after(mm_r).after(conj))]


def composite_law_reports(check, args):
    """(new, old): the checker's witnesses of the laws of its former form,
    and the report of that form, each law compared by `compare_maps`."""
    from coringlab import entwine, rcat
    old_form, tags = {
        entwine.check_entwining: (_old_entwining, ENTWINING_TAGS),
        entwine.check_doi_koppinen: (_old_doi_koppinen, DK_TAGS),
        rcat.check_r_algebra: (_old_r_algebra, R_ALGEBRA_TAGS),
    }[check]
    new = Report("laws")
    for w in check(*args).witnesses:
        if w.equation in tags:
            new.add(w)
    old = Report("laws")
    laws = old_form(*args)
    assert tuple(tag for tag, _, _ in laws) == tags
    for tag, lhs, rhs in laws:
        compare_maps(old, tag, lhs, rhs)
    return new, old


@functools.cache
def composite_law_cases(field):
    """(check, maps, build) for the entwining laws and the R-algebra laws of
    every corpus entwining parsed over field, and the Doi-Koppinen laws of
    kZn acting and coacting on itself (n = 2, 3): build(maps) gives the
    checker's arguments, and a twin is built from maps with one of them
    perturbed."""
    from coringlab import entwine, rcat
    from coringlab.rcat import RObject
    s = corpus_objects(field)
    cases = []
    for e in (v for (sec, _), v in s.items() if sec == "entwinings"):
        cases.append((entwine.check_entwining, {"psi": e.psi}, lambda m, e=e: (
            entwine.EntwiningStructure(e.algebra, e.coalgebra, m["psi"], e.name),)))
        o, eta, mu = entwine.entwining_wreath(e)
        cases.append((rcat.check_r_algebra, {"twist": o.twist, "eta": eta, "mu": mu},
                      lambda m, o=o: (RObject(o.coring, o.carrier, m["twist"], o.name),
                                      m["eta"], m["mu"])))
    for n in (2, 3):
        dk = entwine.doi_koppinen_self(s["algebras", f"kZ{n}"], s["corings", f"C{n}"])
        cases.append((entwine.check_doi_koppinen,
                      {"coaction": dk.coaction, "action": dk.action},
                      lambda m, dk=dk: (entwine.DoiKoppinenData(
                          dk.h_algebra, dk.h_coalgebra, dk.algebra, m["coaction"],
                          dk.coalgebra, m["action"]),)))
    return cases


@pytest.mark.parametrize("field", FIELDS)
def test_composite_laws_match_the_former_forms(field):
    """The eleven entwining, Doi-Koppinen and R-algebra laws compared as
    pipes give the report of the flat `kron` chains and of the finished
    products of morphisms, on the corpus entwinings (the broken one fails
    some) and on Doi-Koppinen self-data."""
    tags = set()
    for check, maps, build in composite_law_cases(field):
        new, old = composite_law_reports(check, build(maps))
        assert new == old, check.__name__
        tags |= {w.equation for w in new.witnesses}
    assert tags == {"entwine-mult", "entwine-comult", "entwine-counit", "alg-unit-right",
                    "alg-assoc"}


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_perturbed_composite_laws_match_the_former_forms(field, data):
    """A twin with psi, the coaction, the action, eta or mu perturbed gives
    the report of the former forms for the eleven tags, statuses, witness
    text and order included.  A twin whose checker raises has no report to
    compare."""
    check, maps, build = data.draw(st.sampled_from(composite_law_cases(field)))
    part = data.draw(st.sampled_from(sorted(maps)))
    x = maps[part]
    mat = x.matrix if isinstance(x, LinearMap) else x
    mat = mat + data.draw(perturbation(field, mat.rows, mat.cols))
    bumped = LinearMap(x.domain, x.codomain, mat, x.name) if isinstance(x, LinearMap) else mat
    try:
        new, old = composite_law_reports(check, build({**maps, part: bumped}))
    except (InputError, WellDefinednessError):
        return
    assert new == old


@pytest.mark.parametrize("field", FIELDS)
def test_tensor_morphisms_match_the_finished_program(field):
    """`r_tensor_morphisms` ends its stages by merging (N1, N2) into their
    quotient before it finishes: its map equals the former program, which
    finished from (C, N1, N2), for the four products of `check_r_algebra`."""
    from coringlab import entwine
    from coringlab.rcat import r_tensor_morphisms
    for e in (v for (sec, _), v in corpus_objects(field).items() if sec == "entwinings"):
        eta_mor, mu_mor, id_mor = _r_algebra_morphisms(*entwine.entwining_wreath(e))
        for f, g in ((eta_mor, id_mor), (id_mor, eta_mor), (mu_mor, id_mor), (id_mor, mu_mor)):
            got, old = r_tensor_morphisms(f, g).map, _old_tensor_map(f, g)
            assert (got.domain, got.codomain) == (old.domain, old.codomain)
            assert got.matrix == old.matrix


# ---------------------------------------------------------------------------
# the one law protocol: the finished map kept on its pipe, and one
# product program on the wreath side


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_source_pipe_of_a_cowreath_object_is_built_once(field, monkeypatch):
    """The twist pipes are kept on their object: `check_cowreath` and then
    `check_cow_comodule` of its self comodule, and the morphism check of
    the coaction in it, build the source pipe of C (x) M once."""
    from coringlab.cowreath import Cowreath, check_cow_comodule, check_cowreath, cow_comodule_self
    from coringlab.rcat import RObject, _twist_pipes
    for key in ("flip", "unit", "broken-delta"):
        w = corpus_objects(field)["cowreaths", key]
        o = RObject(w.coring, w.object.carrier, w.object.twist, w.object.name)
        w = Cowreath(o, w.xi, w.delta, w.name)
        sp = space(w.coring.carrier, o.carrier)
        built, real = [], bimodule.Pipe.__init__

        def spy(self, source):
            built.append(source)
            real(self, source)
        monkeypatch.setattr(bimodule.Pipe, "__init__", spy)
        check_cowreath(w)
        check_cow_comodule(cow_comodule_self(w))
        monkeypatch.undo()
        assert [s for s in built if s is sp] == [sp], key
        assert _twist_pipes(o)[0].source is sp


def test_compare_pipes_takes_the_two_pipes_only():
    import inspect
    assert list(inspect.signature(bimodule.compare_pipes).parameters) == [
        "rep", "tag", "lhs", "rhs"]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_finished_map_is_kept_on_its_own_pipe(field, monkeypatch):
    """`compare_pipes` keeps each finish on its pipe and reads it back: a
    second law on the same pipe finishes nothing, and two pipes that end on
    the same factors keep their own maps."""
    w = corpus_objects(field)["cowreaths", "broken-delta"]
    C, M = w.coring.carrier, w.object.carrier
    src = bimodule.pipe(space(C, M))
    lhs = src.apply(w.delta, 0, 2, [C, M, M]).apply(w.xi, 0, 2, [C])
    finished = []
    real = bimodule.Pipe.done
    monkeypatch.setattr(bimodule.Pipe, "done",
                        lambda self, *a, **k: finished.append(self) or real(self, *a, **k))
    rep = Report("law")
    bimodule.compare_pipes(rep, "cw-counit", lhs, src)
    bimodule.compare_pipes(rep, "cw-counit", lhs, src)
    assert finished == [lhs, src]
    assert lhs.finished.matrix == real(lhs).matrix != src.finished.matrix
    assert src.finished.matrix == Matrix.identity(field, space(C, M).dim)
    assert not rep.ok


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_reversed_leaf_does_not_finish_into_its_source(field):
    """Reversing one leaf keeps the source's section as the matrix but
    gives the leaf's mirror as the factor, so finishing into the source
    must still raise on the leaves."""
    w = corpus_objects(field)["cowreaths", "broken-delta"]
    x = w.coring.carrier
    p = bimodule.pipe(space(x)).reverse()
    assert p.matrix is space(x).section and p.factors == (bimodule.mirror(x),)
    with pytest.raises(InputError, match="leaves do not match"):
        p.done(space(x))


def _old_functor_o_dual(w, y, l_action):
    """The former dual comparison: the `l-dual` and `r-dual` programs, and
    the product algebra of `wreath_product`."""
    from coringlab import wreath
    ext, tb, Y = w.ext, w.ext.t_bimodule, y.carrier
    yt, rt = tensor_over(Y.right_algebra, Y, tb), w.rt_carrier()
    l_map = (bimodule.pipe(space(rt, yt)).refine(0).refine(2)
             .apply(y.twist, 1, 2, [Y, tb]).apply(l_action, 0, 3, [Y, tb])
             .apply(ext.mult_map(), 1, 2, [tb]).done(space(yt), name="l-dual"))
    r_map = (bimodule.pipe(space(yt, tb)).refine(0).apply(ext.mult_map(), 1, 2, [tb])
             .done(space(yt), name="r-dual"))
    product = wreath.wreath_product(w)[0].total
    return yt, l_map, r_map, product


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_dual_comparison_matches_the_former_programs(field, monkeypatch):
    """The left action of the dual comparison is the product's program on
    (Y, action), the right one is that of `pt_bimodule(y)`, and the report
    is that of the former `l-dual` and `r-dual` programs, on the regular
    module and on twins with the action or the twist perturbed; neither
    it nor the bimodule twisting check runs `check_algebra`."""
    from coringlab import wreath
    w = corpus_objects(field)["wreaths", "signflip.wreath"]
    y, l_act, _ = wreath.regular_wreath_bimodule(w)
    tags = ("pm-unit", "od-right-unit", "pm-assoc", "od-right-assoc", "od-commute")
    bump = Matrix.from_entries(field, l_act.matrix.rows, l_act.matrix.cols,
                               {(1, 2): field.one()})
    twists = (y.twist, LinearMap(y.twist.domain, y.twist.codomain,
                                 y.twist.matrix + Matrix.from_entries(
                                     field, y.twist.matrix.rows, y.twist.matrix.cols,
                                     {(0, 1): field.one()}), "tw"))
    acts = (l_act, LinearMap(l_act.domain, l_act.codomain, l_act.matrix + bump, "act"))
    failed = 0
    for tw in twists:
        yy = wreath.RTObject(y.ext, y.carrier, tw, y.name)
        for act in acts:
            yt, l_old, r_old, product = _old_functor_o_dual(w, yy, act)
            carrier, l_map = wreath.functor_o_dual(w, yy, act)
            assert carrier is yt and l_map.codomain is yt and l_map.domain is l_old.domain
            assert l_map.matrix == l_old.matrix
            assert (wreath.pt_bimodule(yy).right_action
                    == wreath.element_action_matrices(r_old, w.ext.t_bimodule, yt, "right"))
            new = wreath._product(w)
            assert (new.mult, new.unit, new.labels) == (product.mult, product.unit,
                                                        product.labels)
            old = bimodule.check_bimodule(
                yt, left=(product, wreath.element_action_matrices(l_old, w.rt_carrier(), yt)),
                right=(w.ext.total, wreath.element_action_matrices(
                    r_old, w.ext.t_bimodule, yt, side="right")),
                tags=tags, name=f"dual comparison on {yy.name}")
            rep = wreath.check_functor_o_dual(w, yy, act)
            assert rep == old
            failed += not rep.ok
    assert failed
    calls = []
    monkeypatch.setattr(wreath, "check_algebra", lambda a: calls.append(a))
    mt = corpus_objects(field)["twistings", "X=R"]
    text, rmap = mt.wreath.ext, mt.wreath.object.twist
    data = wreath.BimoduleTwistData(mt, r_x=mt.rext.mult_map(), v_carrier=text.t_bimodule,
                                    l_v=text.mult_map(), r_v=text.mult_map(),
                                    v_twist=LinearMap(rmap.domain, rmap.codomain,
                                                      rmap.matrix, "vtw"))
    assert wreath.check_bimodule_twisting(data).ok
    assert wreath.check_functor_o_dual(w, y, l_act).ok
    assert calls == []
