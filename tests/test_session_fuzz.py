"""The CLI exit-code contract under malformed sessions.

Each example takes a shipped session file, applies one to three mutations
(drop a key or element, change a value's JSON kind, put in another
scalar, change a list's shape) and runs a README-style command on it.  `cli.main`
must return 0, 1 or 2; any other exception escaping it fails the test.
The examples are derandomized so the suite stays reproducible.
"""

import copy
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from coringlab.cli import main

SESSIONS_DIR = os.path.join(os.path.dirname(__file__), "..", "sessions")

COMMANDS = [
    ("grouplike_coalgebras.json", ["check", "coring", "C2"]),
    ("grouplike_coalgebras.json", ["check", "comodule", "C2.self"]),
    ("entwinings.json", ["check", "entwining", "dk"]),
    ("cowreaths.json", ["check", "cowreath", "flip"]),
    ("cowreaths.json", ["build", "cowreath-product", "flip", "--out", "P"]),
    ("cowreaths.json", ["build", "lift", "flip-ent", "flip", "--out", "L"]),
    ("sign_flip_ttp.json", ["check", "wreath", "signflip"]),
    ("sign_flip_ttp.json", ["check", "twisting", "X=R"]),
    ("ore_rational.json", ["ore", "check", "--data", "quantum-plane", "--degree", "4"]),
    ("ore_rational.json", ["ore", "compare", "--data", "commutative", "--degree", "3"]),
    ("ore_gf3.json", ["ore", "check", "--data", "weyl", "--degree", "3"]),
    ("z2_group_algebra.json", ["check", "algebra", "kZ2"]),
]

# malformed scalars and field names, and well-formed scalars that change a
# structure constant so that checks fail or quotients change rank
SCALARS = ["x", "1/0", "", " ", "1//2", "1/", "/2", "1e400", "nan", "inf",
           "0x10", "--1", "1.5", "2/-4", "GF(4)", "GF(2)", "QQ",
           "0", "2", "-1", "1/2"]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(-4, 4, allow_nan=False) | st.sampled_from(SCALARS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["dim", "mult", "x"]), inner, max_size=2),
    max_leaves=4)


def _load(fname):
    with open(os.path.join(SESSIONS_DIR, fname)) as fh:
        return json.load(fh)


SESSIONS = {fname: _load(fname) for fname in {f for f, _ in COMMANDS}}


def _paths(node, prefix=()):
    """Every path into a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _mutate(doc, path, kind, value):
    """doc with the node at path dropped, replaced by value, or reshaped."""
    if not path:
        return value if kind != "shape" else [doc]
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    node = parent[last]
    if kind == "drop":
        del parent[last]
    elif kind == "shape" and isinstance(node, list) and node:
        parent[last] = node[:-1] if len(node) % 2 else node + node[:1]
    elif kind == "shape":
        parent[last] = [node]
    else:
        parent[last] = value
    return doc


@pytest.fixture(scope="module")
def work_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "session.json")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_sessions_keep_the_exit_code_contract(work_file, data):
    fname, argv = data.draw(st.sampled_from(COMMANDS), label="command")
    doc = copy.deepcopy(SESSIONS[fname])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        kind = data.draw(st.sampled_from(["drop", "kind", "scalar", "shape"]),
                         label="kind")
        value = data.draw(st.sampled_from(SCALARS) if kind == "scalar"
                          else JSON_VALUES, label="value")
        doc = _mutate(doc, path, kind, value)
    with open(work_file, "w") as fh:
        json.dump(doc, fh)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["--session", work_file] + argv)
    assert code in (0, 1, 2)
