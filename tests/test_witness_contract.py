"""The witness contract: a failing law names its basis element and prints
both sides' values, and those values re-evaluate.

Hypothesis perturbs one entry of a structure map of the shipped corpus
sessions, parsed over QQ and over GF(101): a bimodule action matrix, an
entwining map psi, the Doi-Koppinen action or coaction, the T-action that
induces a product-module action, and any session map through
`bilinearity_report`.  Every witness of the laws below is then recomputed
here from the raw matrices by index arithmetic, not by the checkers'
composites: both sides at the named algebra element(s) and basis column
must print as `fmt_vec` of those vectors, and differ.  The same
evaluation runs over every instance of each law, so a failing algebra
element or pair has exactly one witness, at its first differing column,
and a flat law has its first three differing columns, in column order.

A lint test pins that no `Witness(...)` in the package passes a fixed
string as a side, and another that every checker equation between two
composites goes through `compare_pipes`: `compare_maps` is called only
in the functions listed in `COMPARE_MAPS_CALLERS`.
"""

import ast
import copy
import functools
import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from coringlab.bimodule import (
    Bimodule,
    LinearMap,
    Matrix,
    bilinearity_report,
    check_bimodule,
    regular_bimodule,
    space,
)
from coringlab.coring import coalgebra_over_field
from coringlab.corpus import corpus_sessions
from coringlab.entwine import (
    DoiKoppinenData,
    EntwiningStructure,
    algebra_as_k_bimodule,
    check_doi_koppinen,
    check_entwining,
    doi_koppinen_self,
)
from coringlab.reports import Report, Witness
from coringlab.session import parse_session
from coringlab.wreath import induced_twisted_action, r_action_matrices_check, wreath_product

FIELDS = ["QQ", "GF(101)"]
SRC = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab")


@functools.cache
def sessions(field):
    """The QQ corpus sessions, parsed over field.  The tests build new
    structures from them and change none."""
    out = {}
    for name, raw in corpus_sessions().items():
        if raw["field"] == "QQ":
            raw = copy.deepcopy(raw)
            raw["field"] = field
            out[name] = parse_session(raw)
    return out


@st.composite
def perturbed(draw, mat):
    """mat with one entry raised by 1..5."""
    f = mat.field
    r, c = draw(st.integers(0, mat.rows - 1)), draw(st.integers(0, mat.cols - 1))
    bump = f.from_int(draw(st.integers(1, 5)))
    return mat + Matrix.from_entries(f, mat.rows, mat.cols, {(r, c): bump})


# -- independent evaluation ------------------------------------------------------


def vec(f, terms):
    """sum of coeff * e_k over (k, coeff) terms, without zero entries."""
    out = {}
    for k, v in terms:
        out[k] = f.add(out.get(k, f.zero()), v)
    return {k: v for k, v in out.items() if not f.is_zero(v)}


def col(mat, j):
    return mat.col(j).items()


def expected_witnesses(law):
    """The witnesses of law, found by evaluating every instance here.

    law is (tag, instances, dom, cod, ev): instances are (labels, idx)
    pairs, one per algebra element or pair (one witness each, at the first
    differing column), or the single ((), None) of a flat law (its first
    three differing columns); ev(idx, j) gives the two sides at column j
    as vectors on cod."""
    tag, instances, dom, cod, ev = law
    out = []
    for labels, idx in instances:
        diff = [(j, *ev(idx, j)) for j in range(dom.dim)]
        diff = [(j, l, r) for j, l, r in diff if l != r]
        for j, l, r in diff[:1 if labels else 3]:
            out.append(Witness(tag, (*labels, dom.basis_label(j)),
                               cod.fmt_vec(l), cod.fmt_vec(r)))
    return out


def assert_witnesses_reevaluate(rep, laws):
    """Each witness of a law in laws: both sides, evaluated at its named
    element(s) and column, print as it says and differ.  Then the witnesses
    of each law are exactly those that evaluating every instance gives."""
    by_tag = {law[0]: law for law in laws}
    for w in rep.witnesses:
        if w.equation not in by_tag:
            continue
        _, instances, dom, cod, ev = by_tag[w.equation]
        *labels, at = w.basis
        j = [dom.basis_label(t) for t in range(dom.dim)].index(at)
        lhs, rhs = ev(dict(instances)[tuple(labels)], j)
        assert lhs != rhs, w
        assert (w.lhs, w.rhs) == (cod.fmt_vec(lhs), cod.fmt_vec(rhs)), w
    for law in laws:
        assert [w for w in rep.witnesses if w.equation == law[0]] == \
            expected_witnesses(law), law[0]


def action_laws(m, left, right, tags):
    """The laws `check_bimodule` checks on the carrier m, evaluated from
    the action matrices: left and right are (algebra, matrices) or None,
    and tags name the two unit laws, the two associativity laws and the
    commuting law."""
    f = m.field

    def e(j):
        return {j: f.one()}

    def act(mats, elt, x):
        return vec(f, ((k, f.mul(c, v)) for e_k, c in elt.items()
                       for k, v in mats[e_k].apply(x).items()))

    laws = []
    for side, pair in enumerate((left, right)):
        if pair is None:
            continue
        alg, mats = pair
        laws.append((tags[side], [(("1",), None)], m, m,
                     lambda _, j, alg=alg, mats=mats: (act(mats, alg.unit, e(j)), e(j))))
        pairs = [((alg.labels[i], alg.labels[k]), (i, k))
                 for i in range(alg.dim) for k in range(alg.dim)]

        def assoc(ik, j, alg=alg, mats=mats, side=side):
            i, k = ik
            first, then = (k, i) if side == 0 else (i, k)   # x.(ei ek) = (x.ei).ek
            return (act(mats, alg.mult[i][k], e(j)),
                    mats[then].apply(mats[first].apply(e(j))))
        laws.append((tags[2 + side], pairs, m, m, assoc))
    if left and right:
        (a, lm), (b, rm) = left, right
        pairs = [((a.labels[i], b.labels[k]), (i, k))
                 for i in range(a.dim) for k in range(b.dim)]
        laws.append((tags[4], pairs, m, m, lambda ik, j: (
            lm[ik[0]].apply(rm[ik[1]].apply(e(j))),
            rm[ik[1]].apply(lm[ik[0]].apply(e(j))))))
    return laws


def columns_matrix(f, n, cols):
    """The n x len(cols) matrix with column j the dict cols[j]."""
    return Matrix.from_entries(f, n, len(cols), {(t, j): v for j, c in enumerate(cols)
                                                 for t, v in c.items()})


# -- the perturbed structures ----------------------------------------------------


def bimodule_cases(field):
    s = sessions(field)
    algebras = [a for sess in s.values() for a in sess.algebras.values() if a.dim > 1]
    return [regular_bimodule(a) for a in algebras] + \
        [b for sess in s.values() for b in sess.bimodules.values()]


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bimodule_action_witnesses_reevaluate(field, data):
    m = data.draw(st.sampled_from(bimodule_cases(field)))
    left, right = list(m.left_action), list(m.right_action)
    acts = data.draw(st.sampled_from([left, right]))
    k = data.draw(st.integers(0, len(acts) - 1))
    acts[k] = data.draw(perturbed(acts[k]))
    bad = Bimodule(m.left_algebra, m.right_algebra, m.dim, left, right,
                   labels=m.labels, name=m.name)
    assert_witnesses_reevaluate(check_bimodule(bad), action_laws(
        bad, (m.left_algebra, left), (m.right_algebra, right),
        ("left-unital", "right-unital", "left-assoc", "right-assoc",
         "actions-commute")))


def entwining_laws(e):
    """The four entwining laws on the flat legs, by index arithmetic:
    psi maps c_q (x) a_i (flat q*da + i) into A (x) C (flat r*dc + s)."""
    A, C = e.algebra, e.coalgebra
    f, da, dc = A.field, A.dim, C.carrier.dim
    psi, delta, eps = e.psi.matrix, C.comult.matrix, C.counit.matrix
    ab, cc = e.a_bimodule, C.carrier
    flat = [((), None)]

    def mult(_, j):
        (q, i), jj = divmod(j // da, da), j % da
        lhs = vec(f, ((t, f.mul(w, v)) for k, w in A.mult[i][jj].items()
                      for t, v in col(psi, q * da + k)))
        rhs = vec(f, ((t * dc + s2, f.mul(f.mul(v, w), m))
                      for rs, v in col(psi, q * da + i) for r, s in [divmod(rs, dc)]
                      for rs2, w in col(psi, s * da + jj) for r2, s2 in [divmod(rs2, dc)]
                      for t, m in A.mult[r][r2].items()))
        return lhs, rhs

    def unit(_, q):
        return (vec(f, ((t, f.mul(w, v)) for k, w in A.unit.items()
                        for t, v in col(psi, q * da + k))),
                vec(f, ((k * dc + q, w) for k, w in A.unit.items())))

    def comult(_, j):
        q, i = divmod(j, da)
        lhs = vec(f, (((r * dc + p) * dc + u, f.mul(v, w))
                      for rs, v in col(psi, j) for r, s in [divmod(rs, dc)]
                      for pu, w in col(delta, s) for p, u in [divmod(pu, dc)]))
        rhs = vec(f, (((r2 * dc + s2) * dc + s, f.mul(f.mul(w, x), y))
                      for pu, w in col(delta, q) for p, u in [divmod(pu, dc)]
                      for rs, x in col(psi, u * da + i) for r, s in [divmod(rs, dc)]
                      for rs2, y in col(psi, p * da + r) for r2, s2 in [divmod(rs2, dc)]))
        return lhs, rhs

    def counit(_, j):
        q, i = divmod(j, da)
        return (vec(f, ((rs // dc, f.mul(v, eps.entry(0, rs % dc))) for rs, v in col(psi, j))),
                vec(f, [(i, eps.entry(0, q))]))

    ac = space(ab, cc).quotient
    return [("entwine-mult", flat, space(cc, ab, ab).quotient, ac, mult),
            ("entwine-unit", flat, cc, ac, unit),
            ("entwine-comult", flat, space(cc, ab).quotient, space(ab, cc, cc).quotient, comult),
            ("entwine-counit", flat, space(cc, ab).quotient, ab, counit)]


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_entwining_witnesses_reevaluate(field, data):
    entwinings = [e for sess in sessions(field).values() for e in sess.entwinings.values()]
    e = data.draw(st.sampled_from(entwinings))
    psi = LinearMap(e.psi.domain, e.psi.codomain, data.draw(perturbed(e.psi.matrix)))
    bad = EntwiningStructure(e.algebra, e.coalgebra, psi, name=e.name)
    rep = check_entwining(bad)
    assert {w.equation for w in rep.witnesses} <= {
        "entwine-mult", "entwine-unit", "entwine-comult", "entwine-counit"}
    assert_witnesses_reevaluate(rep, entwining_laws(bad))


def doi_koppinen_laws(dk):
    """The comodule, module and action-coalgebra laws of Doi-Koppinen data:
    the coaction maps a_i to A (x) H (flat r*dh + s), the action maps
    c_q (x) h_s (flat q*dh + s) to C."""
    H, Hc, A, C = dk.h_algebra, dk.h_coalgebra, dk.algebra, dk.coalgebra
    f, dh, dc = H.field, H.dim, C.carrier.dim
    rho, act = dk.coaction, dk.action
    dH, eH = Hc.comult.matrix, Hc.counit.matrix
    dC, eC = C.comult.matrix, C.counit.matrix
    hb, cb, ab = Hc.carrier, C.carrier, algebra_as_k_bimodule(A, Hc.base)
    flat = [((), None)]

    def coassoc(_, a):
        lhs = vec(f, ((pq * dh + rs % dh, f.mul(v, w))
                      for rs, v in col(rho, a) for pq, w in col(rho, rs // dh)))
        rhs = vec(f, ((rs // dh * dh * dh + pq, f.mul(v, w))
                      for rs, v in col(rho, a) for pq, w in col(dH, rs % dh)))
        return lhs, rhs

    def co_counit(_, a):
        return (vec(f, ((rs // dh, f.mul(v, eH.entry(0, rs % dh))) for rs, v in col(rho, a))),
                {a: f.one()})

    def a_comult(_, j):
        lhs = vec(f, ((pq, f.mul(v, w)) for t, v in col(act, j) for pq, w in col(dC, t)))
        rhs = vec(f, ((t1 * dc + t2, f.mul(f.mul(v, w), f.mul(x1, x2)))
                      for pq, v in col(dC, j // dh) for su, w in col(dH, j % dh)
                      for t1, x1 in col(act, pq // dc * dh + su // dh)
                      for t2, x2 in col(act, pq % dc * dh + su % dh)))
        return lhs, rhs

    def a_counit(_, j):
        return (vec(f, ((0, f.mul(v, eC.entry(0, t))) for t, v in col(act, j))),
                vec(f, [(0, f.mul(eC.entry(0, j // dh), eH.entry(0, j % dh)))]))

    ch = space(cb, hb).quotient
    racts = [columns_matrix(f, dc, [act.col(q * dh + h) for q in range(dc)])
             for h in range(dh)]
    return [("comodule-coassoc", flat, ab, space(ab, hb, hb).quotient, coassoc),
            ("comodule-counit", flat, ab, ab, co_counit),
            ("action-comult", flat, ch, space(cb, cb).quotient, a_comult),
            ("action-counit", flat, ch, regular_bimodule(C.base), a_counit),
            *action_laws(cb, None, (H, racts),
                         (None, "module-unit", None, "module-assoc", None))]


# a perturbed coaction or action can break these; the first two are the
# algebra-morphism laws of the coaction, under the prefix of `Report.extend`
DK_TAGS = {"comodule-algebra-mult-unit", "comodule-algebra-mult-mult",
           "comodule-coassoc", "comodule-counit", "module-unit", "module-assoc",
           "action-comult", "action-counit"}


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_doi_koppinen_witnesses_reevaluate(field, data):
    s = sessions(field)
    n = data.draw(st.sampled_from([2, 3]))
    dk = doi_koppinen_self(s["z2_group_algebra.json"].algebras[f"kZ{n}"],
                           s["grouplike_coalgebras.json"].corings[f"C{n}"])
    assert check_doi_koppinen(dk).ok
    coaction, action = dk.coaction, dk.action
    if data.draw(st.booleans()):
        coaction = data.draw(perturbed(coaction))
    else:
        action = data.draw(perturbed(action))
    bad = DoiKoppinenData(dk.h_algebra, dk.h_coalgebra, dk.algebra, coaction,
                          dk.coalgebra, action)
    rep = check_doi_koppinen(bad)
    assert not rep.ok
    assert {w.equation for w in rep.witnesses} <= DK_TAGS
    assert_witnesses_reevaluate(rep, doi_koppinen_laws(bad))


def test_doi_koppinen_witness_names_the_coalgebra_leg_first():
    """C2 relabelled c1, cg, acting on itself through kZ2's multiplication.
    kZ2 and C2 share the labels 1 and g, so this coalgebra's own labels
    show which leg of C (x) H a flat witness names."""
    s = sessions("QQ")
    kz2 = s["z2_group_algebra.json"].algebras["kZ2"]
    dk = doi_koppinen_self(kz2, s["grouplike_coalgebras.json"].corings["C2"])
    f = kz2.field
    one = f.one()
    c = coalgebra_over_field(f, 2, [{0: one}, {3: one}], [one, one],
                             labels=["c1", "cg"], name="C")

    def data(action):
        return DoiKoppinenData(dk.h_algebra, dk.h_coalgebra, dk.algebra, dk.coaction,
                               c, action)

    assert check_doi_koppinen(data(dk.action)).ok
    # cg . 1 = c1 + cg
    bad = data(dk.action + Matrix.from_entries(f, 2, 4, {(0, 2): one}))
    rep = check_doi_koppinen(bad)
    assert [w for w in rep.witnesses if w.equation == "action-comult"] == [
        Witness("action-comult", ("cg(x)1",), "c1(x)c1 + cg(x)cg",
                "c1(x)c1 + c1(x)cg + cg(x)c1 + cg(x)cg")]
    assert_witnesses_reevaluate(rep, doi_koppinen_laws(bad))


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_module_witnesses_reevaluate(field, data):
    """The product action on X (x) Y induced by a perturbed T-action on
    Y = T, and its compatibility with the inclusion of R."""
    mt = sessions(field)["sign_flip_ttp.json"].twistings["X=R"]
    w = mt.wreath
    y, l_y = w.ext.t_bimodule, w.ext.mult_map()
    bad = LinearMap(l_y.domain, l_y.codomain, data.draw(perturbed(l_y.matrix)))
    product, rt = wreath_product(w)[0].total, w.rt_carrier()
    rep = r_action_matrices_check(mt, y, bad, product, rt)

    action = induced_twisted_action(mt, y, bad)
    xy, f = action.codomain, y.field
    X, R, T = mt.carrier, mt.rext.total, w.ext.total
    dy, dt, dxy = y.dim, T.dim, xy.dim
    # over the ground field every quotient here is flat, in kron order
    assert (action.domain.dim, dxy, rt.dim) == (rt.dim * dxy, X.dim * dy, R.dim * dt)
    acts = [columns_matrix(f, dxy, [action.matrix.col(u * dxy + j) for j in range(dxy)])
            for u in range(rt.dim)]

    def inclusion(i, j):
        lhs = vec(f, ((t, f.mul(c, v)) for k, c in T.unit.items()
                      for t, v in col(acts[i * dt + k], j)))
        x, y0 = divmod(j, dy)
        return lhs, vec(f, ((t * dy + y0, v) for t, v in col(mt.l_x.matrix, i * X.dim + x)))

    laws = action_laws(xy, (product, acts), None,
                       ("pm-unit", None, "pm-assoc", None, None))
    laws.append(("mt-inclusion", [((R.labels[i],), i) for i in range(R.dim)], xy, xy,
                 inclusion))
    assert_witnesses_reevaluate(rep, laws)


def bilinearity_laws(fmap):
    dom, cod = fmap.domain, fmap.codomain
    F, f = fmap.matrix, dom.field
    laws = []
    for tag, alg, ca, da in (("left-linear", dom.left_algebra, cod.left_action, dom.left_action),
                             ("right-linear", dom.right_algebra, cod.right_action,
                              dom.right_action)):
        laws.append((tag, [((alg.labels[k],), k) for k in range(alg.dim)], dom, cod,
                     lambda k, j, ca=ca, da=da: (ca[k].apply(F.col(j)),
                                                 F.apply(da[k].apply({j: f.one()})))))
    return laws


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bilinearity_witnesses_reevaluate(field, data):
    """Any session map, the structure maps over kZ2 among them."""
    maps = [m for sess in sessions(field).values() for m in sess.maps.values()]
    fmap = data.draw(st.sampled_from(maps))
    bad = LinearMap(fmap.domain, fmap.codomain, data.draw(perturbed(fmap.matrix)),
                    name=fmap.name)
    assert_witnesses_reevaluate(bilinearity_report(bad), bilinearity_laws(bad))


def test_bilinearity_names_the_element_and_the_column():
    s = sessions("QQ")["grouplike_coalgebras.json"]
    comult = s.maps["trivial.comult"]
    f = comult.domain.field
    bad = LinearMap(comult.domain, comult.codomain, comult.matrix + Matrix.from_entries(
        f, comult.matrix.rows, comult.matrix.cols, {(0, 1): f.one()}))
    rep = bilinearity_report(bad)
    assert not rep.ok
    assert all(len(w.basis) == 2 for w in rep.witnesses)
    assert_witnesses_reevaluate(rep, bilinearity_laws(bad))


def test_extend_prefixes_the_tags_of_a_sub_report():
    sub = Report("sub")
    sub.add(Witness("mult", ("g", "g"), "1", "g"))
    rep = Report("top").extend(sub, prefix="sigma")
    assert not rep.ok
    assert rep.witnesses == [Witness("sigma-mult", ("g", "g"), "1", "g")]
    assert Report("top").extend(Report("sub"), prefix="sigma").ok


# -- no fixed-string sides -------------------------------------------------------


def fixed_string_sides(tree):
    """(line, side) of every `Witness(...)` call in tree that passes a
    string constant, or an f-string of constant parts only, as lhs or rhs."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and
                getattr(node.func, "id", getattr(node.func, "attr", None)) == "Witness"):
            continue
        sides = node.args[2:4] + [k.value for k in node.keywords if k.arg in ("lhs", "rhs")]
        for side in sides:
            if (isinstance(side, ast.Constant) and isinstance(side.value, str)) or (
                    isinstance(side, ast.JoinedStr) and
                    all(isinstance(v, ast.Constant) for v in side.values)):
                yield node.lineno, ast.unparse(side)


def test_lint_finds_fixed_string_sides():
    tree = ast.parse('Witness("t", (), "L(1)", f"id")\n'
                     'Witness("t", (), lhs=fmt(v), rhs="x")\n'
                     'Witness("t", (), fmt(v), f"{x}")\n')
    assert [line for line, _ in fixed_string_sides(tree)] == [1, 1, 2]


def test_no_witness_has_a_fixed_string_side():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [(os.path.basename(path), line, side)
                  for line, side in fixed_string_sides(tree)]
    assert found == []


# -- one law form ----------------------------------------------------------------

# The functions, as module.function, that may call `compare_maps` directly:
# `compare_pipes` itself, the action and bilinearity laws, the coring
# morphism laws (whose sides are not two pipes from one source) and the
# inclusion law of `r_action_matrices_check`, one per basis element on
# matrices built by composition.
COMPARE_MAPS_CALLERS = {
    "bimodule.compare_pipes",
    "bimodule.check_bimodule",
    "bimodule.bilinearity_report",
    "coring.check_coring_morphism",
    "wreath.r_action_matrices_check",
}


def compare_maps_callers(tree, module):
    """(line, module.function) of every call of `compare_maps` in tree,
    named by the top-level function it is in (module alone outside one)."""
    for top in tree.body:
        name = f"{module}.{top.name}" if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else module
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "compare_maps":
                yield node.lineno, name


def test_lint_finds_compare_maps_calls():
    tree = ast.parse("def law(rep):\n"
                     "    def inner():\n"
                     "        compare_maps(rep, 't', f, g)\n"
                     "    bimodule.compare_maps(rep, 't', f, g)\n"
                     "compare_maps(rep, 't', f, g)\n"
                     "def other():\n"
                     "    compare_pipes(rep, 't', p, q)\n")
    assert sorted(compare_maps_callers(tree, "m")) == [(3, "m.law"), (4, "m.law"), (5, "m")]


def test_compare_maps_is_called_only_where_allowed():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)[:-3]
        found += [(name, line) for line, name in compare_maps_callers(tree, module)
                  if name not in COMPARE_MAPS_CALLERS]
    assert found == []
