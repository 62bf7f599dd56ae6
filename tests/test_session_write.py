"""`serialize_session` writes session text directly; it must give exactly
the text of `json.dumps(raw, indent=1, sort_keys=True)`, which stays here
as the oracle.  It is checked on the shipped files, on `SessionStore`
output for the corpus corings, cowreaths, products and lifts and for the
ladder products over QQ and GF(101), and on generated JSON trees and
matrices, whose rows of plain strings it writes in bulk.  The bytes of the
two corpus lifts with their products are pinned by digest.  `_fmt_matrix`
is checked against the row-by-row formatter it replaced, kept here."""

import glob
import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from coringlab.coring import grouplike_coalgebra
from coringlab.cowreath import cowreath_product, flip_cowreath
from coringlab.exactla import GF, QQ, Matrix, Monomial, Transposed
from coringlab.session import SessionStore, _fmt_matrix, serialize_session

ROOT = os.path.join(os.path.dirname(__file__), "..")
SHIPPED = sorted(glob.glob(os.path.join(ROOT, "sessions", "*.json"))) + [
    os.path.join(ROOT, "perfbench", "fixtures", "my_session.json")]
CORINGS = ("triv_z2", "c2", "c3", "gp")
COWREATHS = ("flip_cw", "flip_cw3", "unit_cw", "dl_cw", "lifted_flip_cw",
             "lifted_dk_cw")


def oracle(raw):
    return json.dumps(raw, indent=1, sort_keys=True)


def test_shipped_files_exist():
    assert len(SHIPPED) > 1 and all(os.path.exists(p) for p in SHIPPED)


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_shipped_file_is_its_serialization(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    raw = json.loads(text)
    assert serialize_session(raw) == oracle(raw)
    assert serialize_session(raw) + "\n" == text


def test_corpus_objects_products_and_lifts(corpus):
    for name in CORINGS + COWREATHS:
        obj = corpus.dl_cw[0] if name == "dl_cw" else getattr(corpus, name)
        store = SessionStore.empty(QQ)
        if name in CORINGS:
            store.add_coring("P", obj)
        else:
            store.add_cowreath("W", obj)
            store.add_coring("P", cowreath_product(obj)[0])
        assert serialize_session(store.raw) == oracle(store.raw), name


# sha256 of the serialized one-lift sessions (the lifted cowreath W and its
# product coring P); a change to these bytes changes the session format
LIFT_DIGESTS = {
    "lifted_flip_cw": "72dd8d7e041be593c575c9fad24143b8471d72910bbdcd4c51c51090c6dca975",
    "lifted_dk_cw": "4bfb03ccc725cf647dbf4aecd101da2c22b074c270237c34f6b4f3710365da84",
}


@pytest.mark.parametrize("name", sorted(LIFT_DIGESTS))
def test_lift_bytes_are_pinned(corpus, name):
    w = getattr(corpus, name)
    store = SessionStore.empty(QQ)
    store.add_cowreath("W", w)
    store.add_coring("P", cowreath_product(w)[0])
    text = serialize_session(store.raw)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LIFT_DIGESTS[name]


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ladder_products(field, n):
    w = flip_cowreath(grouplike_coalgebra(field, n, name=f"C{n}"),
                      grouplike_coalgebra(field, n, name=f"D{n}"))
    product, _ = cowreath_product(w)
    store = SessionStore.empty(field)
    store.add_coring("P", product)
    assert serialize_session(store.raw) == oracle(store.raw)


# strings that need escapes: quotes, backslashes, control characters,
# non-ASCII, the line separator U+2028 and astral characters
TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
                     "\u2028", "\U0001F600", "/", " ", "0"]),
    st.characters()), max_size=6)
LEAVES = st.one_of(
    TEXT, st.booleans(), st.none(),
    st.integers(-10, 10), st.integers(min_value=-10**40, max_value=10**40),
    st.floats())
# matrices as `_fmt_matrix` writes them, lists of nonempty rows of scalar
# strings, which the writer takes in bulk; and the same with rows or items
# that must leave the bulk path: a string that needs an escape or is not
# ASCII, an int, None, an empty row or a tuple row
SCALAR = st.one_of(
    st.integers(-999, 999).map(str),
    st.builds("{}/{}".format, st.integers(-999, 999), st.integers(2, 99)))
PLAIN_ROW = st.lists(SCALAR, min_size=1, max_size=5)
ODD_ROW = st.one_of(
    st.lists(st.one_of(SCALAR, TEXT, st.integers(-10, 10), st.none()),
             min_size=1, max_size=5),
    st.just([]),
    PLAIN_ROW.map(tuple))
MATRICES = st.one_of(
    st.lists(PLAIN_ROW, min_size=1, max_size=6),
    st.lists(st.one_of(PLAIN_ROW, ODD_ROW), min_size=1, max_size=6))
TREES = st.recursive(
    st.one_of(LEAVES, MATRICES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(TEXT, max_size=4),
        st.lists(SCALAR, max_size=4),
        st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(tree=TREES)
def test_generated_trees(tree):
    assert serialize_session(tree) == oracle(tree)


@settings(max_examples=300, deadline=None)
@given(matrix=MATRICES)
def test_generated_matrices(matrix):
    raw = {"maps": {"f": {"matrix": matrix}}}
    assert serialize_session(raw) == oracle(raw)


@pytest.mark.parametrize("tree", [
    {}, [], {"a": []}, {"a": {}}, [[]], [{}], [[], {}, [[]]],
    ["x", ["y", "z"]], ["x", 1, None, True, False], [1, "x"],
    ("x", ("y",)), {"t": ()}, [("0", "1"), ("2", "3")],
    {"k": [["1", "0"], ["-1/2", "0"]], "e": {"": [{}]}},
    {'q"\\\n\u2028\U0001F600\u00e9': ['\x00"\\', "\u2028", "\U0001F600"]},
    [["1", "0"], ["0", "\u2028"]], [["1"], [], ["2"]], [["1"], ("2",)],
    [["1", 2], [None]], [["~", " ", "!", "#", "[", "]"]], [["\x7f"]], [[""]],
    ["", ""], [["1", "2"], "3"], ["3", ["1", "2"]],
], ids=repr)
def test_edge_trees(tree):
    assert serialize_session(tree) == oracle(tree)


def test_session_module_resolves_the_writer():
    from coringlab import session, session_write
    for name in ("SessionStore", "serialize_session", "write_session"):
        assert getattr(session, name) is getattr(session_write, name)
    with pytest.raises(AttributeError):
        session.no_such_name


def row_by_row(field, mat):
    """The formatter `_fmt_matrix` replaced: each row formatted on its own,
    its zero formatted again for every row."""
    out = []
    for i in range(mat.rows):
        row = [field.fmt(field.zero())] * mat.cols
        for k, v in mat.data.get(i, {}).items():
            row[k] = field.fmt(v)
        out.append(row)
    return out


QQ_SCALARS = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**6).map(
        lambda f: f.numerator if f.denominator == 1 else f))
GF_SCALARS = st.integers(0, 100)


@st.composite
def matrices(draw, field):
    """A plain, transposed or monomial matrix over field, or a marked
    identity, of up to 6 rows and columns, 0 x n and n x 0 among them."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    scalars = QQ_SCALARS if field is QQ else GF_SCALARS
    kind = draw(st.sampled_from(["plain", "identity", "transposed", "monomial"]))
    if kind == "identity":
        return Matrix.identity(field, rows)
    if kind == "monomial":
        tgt = draw(st.lists(st.integers(-1, rows - 1), min_size=cols, max_size=cols))
        wt = draw(st.lists(scalars.filter(bool), min_size=cols, max_size=cols))
        return Monomial(field, rows, tgt, wt)
    shape = (cols, rows) if kind == "transposed" else (rows, cols)
    cells = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    entries = draw(st.dictionaries(cells, scalars)) if all(shape) else {}
    mat = Matrix.from_entries(field, *shape, entries)
    return Transposed(mat) if kind == "transposed" else mat


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fmt_matrix_matches_row_by_row(field, data):
    mat = data.draw(matrices(field))
    rows = _fmt_matrix(field, mat)
    assert rows == row_by_row(field, mat)
    assert len({id(row) for row in rows}) == len(rows)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=repr)
def test_fmt_matrix_edge_shapes(field):
    third = field.div(field.from_int(-1), field.from_int(3))
    cases = [Matrix.zeros(field, 0, 3), Matrix.zeros(field, 3, 0),
             Matrix.identity(field, 0), Matrix.identity(field, 3),
             Matrix.from_entries(field, 2, 3, {(0, 2): third,
                                               (1, 0): field.from_int(-5)}),
             Transposed(Matrix.from_entries(field, 3, 2, {(2, 1): third})),
             Monomial(field, 2, [1, -1, 0], [third, 0, 1]),
             Monomial(field, 0, [-1, -1], [0, 0])]
    for mat in cases:
        assert _fmt_matrix(field, mat) == row_by_row(field, mat), mat
    assert _fmt_matrix(field, cases[1]) == [[], [], []]
    assert _fmt_matrix(field, cases[0]) == []
