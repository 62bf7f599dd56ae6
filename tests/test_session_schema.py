"""`SCHEMA` defines the fifteen sections once, for the reader and the
writer alike.  Every keyed field of every section is checked here: a
missing key and a dangling name are malformed input naming the entry
(an optional field is read as absent), and an object of any section
written alone into an empty store (with everything it names) parses back
to objects that write the same bytes again."""

import json
import os
import re

import pytest

from coringlab.cli import main
from coringlab.coring import comodule_over_itself
from coringlab.corpus import CORPUS, corpus_sessions
from coringlab.exactla import QQ
from coringlab.reports import InputError
from coringlab.session import (
    SCHEMA,
    _fmt_matrix,
    SECTIONS,
    SessionStore,
    parse_session,
    serialize_session,
    write_session,
)


def one_of_each():
    """section -> one corpus object of that section."""
    rext, text, rmap, rw = CORPUS.sign_flip_ttp[:4]
    return {
        "algebras": CORPUS.z2,
        # over kZ2, neither regular nor over the field
        "bimodules": CORPUS.lifted_flip_cw.coring.carrier,
        "morphisms": rext.iota,
        "maps": CORPUS.c3.comult,
        "corings": CORPUS.c2,
        "comodules": comodule_over_itself(CORPUS.c2),
        "r_objects": CORPUS.flip_cw.object,
        "entwinings": CORPUS.flip_entwining,
        "cowreaths": CORPUS.flip_cw,
        "extensions": rext,
        "rt_objects": rw.object,
        "wreaths": rw,
        "ttps": (rext, text, rmap),
        "twistings": CORPUS.module_twist_self,
        "skewpoly": CORPUS.ore_quantum_plane,
    }


# the fields with a JSON key: the "field" kind, the session's own, has none
FIELDS = [(section, key, kind) for section, (_, _, fields) in SCHEMA.items()
          for key, kind, _ in fields if key is not None]

# The name of each section's entry in `every_section`: algebras and
# bimodules share one namespace, so the bimodule cannot be "x" too.
NAME = dict.fromkeys(SCHEMA, "x") | {"bimodules": "y"}

INLINE = {"dim", "mult", "unit", "actions", "labels"}


def test_schema_covers_the_reference_sections():
    assert set(one_of_each()) == set(SCHEMA)
    assert SECTIONS == tuple(SCHEMA)
    assert SECTIONS[:2] == ("algebras", "bimodules")
    names = {kind for _, _, kind in FIELDS if isinstance(kind, str)}
    assert names <= set(SECTIONS) | {"space", "side"} | INLINE
    keyless = [(section, kind) for section, (_, _, fields) in SCHEMA.items()
               for key, kind, _ in fields if key is None]
    assert keyless == [("algebras", "field")]
    # an inline kind but "dim" is sized by a "dim" read before it
    for _, _, fields in SCHEMA.values():
        keys = [key for key, _, _ in fields]
        for i, (_, kind, _) in enumerate(fields):
            if kind in INLINE - {"dim"}:
                assert "dim" in keys[:i]
    # a matrix kind is the pair of keys read before it that fix its shape
    for _, _, fields in SCHEMA.values():
        for i, (_, kind, _) in enumerate(fields):
            if not isinstance(kind, str):
                assert len(kind) == 2
                assert set(kind) <= {key for key, _, _ in fields[:i]}


README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def readme_sections():
    """section -> the set of its keys, as the JSONC block of README "Session file
    format" shows them: each top-level key but "field" opens a section
    whose first key names its example entry."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Session file format", 1)[1]
    block = block.split("```jsonc\n", 1)[1].split("```", 1)[0]
    block = re.sub(r"//[^\n]*", "", block)
    out = {}
    for part in re.split(r'\n  (?=")', block)[1:]:
        section, *names = re.findall(r'"(\w+)"\s*:', part)
        if section != "field":
            out[section] = set(names[1:])
    return out


def test_readme_session_block_names_the_schema():
    assert readme_sections() == {
        section: {key for key, _, _ in fields if key is not None}
        for section, (_, _, fields) in SCHEMA.items()}


@pytest.fixture(scope="module")
def every_section():
    """Raw session data with an entry `NAME[section]` in each section."""
    store = SessionStore.empty(QQ)
    for section, obj in one_of_each().items():
        assert store.add(section, NAME[section], obj) == NAME[section]
    return json.loads(serialize_session(store.raw))


def test_every_section_parses(every_section):
    s = parse_session(every_section)
    for section in SCHEMA:
        assert NAME[section] in getattr(s, section)
    assert isinstance(s.ttps["x"], tuple) and len(s.ttps["x"]) == 3


@pytest.mark.parametrize("section, key, kind", FIELDS,
                         ids=[f"{s}.{k}" for s, k, _ in FIELDS])
def test_missing_key(every_section, section, key, kind):
    raw = json.loads(json.dumps(every_section))
    name = NAME[section]
    del raw[section][name][key]
    if kind == "side":
        # a comodule without a side is a right comodule
        assert parse_session(raw).comodules[name].side == "right"
        return
    if kind == "labels":
        # an entry without labels takes the default ones
        entry = getattr(parse_session(raw), section)[name]
        prefix = "e" if section == "algebras" else "m"
        assert entry.labels == [f"{prefix}{i}" for i in range(entry.dim)]
        return
    with pytest.raises(InputError) as err:
        parse_session(raw)
    assert str(err.value) == f"$.{section}.{name}.{key}: missing"


@pytest.mark.parametrize("section, key, kind", FIELDS,
                         ids=[f"{s}.{k}" for s, k, _ in FIELDS])
def test_dangling_name(every_section, section, key, kind):
    raw = json.loads(json.dumps(every_section))
    name = NAME[section]
    raw[section][name][key] = "nowhere"
    with pytest.raises(InputError) as err:
        parse_session(raw)
    expected = {"space": "unknown space reference 'nowhere'",
                "side": "side must be 'left' or 'right'",
                "dim": "expected an integer, got a string"}
    if isinstance(kind, tuple) or kind in INLINE - {"dim"}:
        # a matrix or inline kind reads the value as data, not as a name
        expected[kind] = "expected an array, got a string"
    assert str(err.value) == f"$.{section}.{name}.{key}: " + expected.get(
        kind, f"unknown {kind[:-1]} 'nowhere'")


@pytest.mark.parametrize("section, key, name", [
    ("morphisms", "source", "kZ2"), ("morphisms", "target", "kZ2"),
    ("bimodules", "left", "kZ2"), ("bimodules", "right", "kZ2"),
    ("skewpoly", "coeff", "kZ2"), ("skewpoly", "sigma", "id")])
def test_dangling_name_outside_the_schema(section, key, name):
    """The references that entries of `bimodules`, `morphisms` and
    `skewpoly` make name their JSON path in a hand-written session too."""
    raw = {"field": "QQ",
           "algebras": {"kZ2": {"dim": 2, "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                                "unit": [1, 0]}},
           "morphisms": {"id": {"source": "kZ2", "target": "kZ2",
                                "matrix": [[1, 0], [0, 1]]}},
           "bimodules": {"M": {"left": "kZ2", "right": "kZ2", "dim": 1,
                               "left_action": [[[1]], [[1]]],
                               "right_action": [[[1]], [[1]]]}},
           "skewpoly": {"S": {"coeff": "kZ2", "sigma": "id",
                              "delta": [[0, 0], [0, 0]]}}}
    parse_session(raw)
    entry = next(iter(raw[section]))
    raw[section][entry][key] = "nowhere"
    kind = "morphism" if key == "sigma" else "algebra"
    with pytest.raises(InputError) as err:
        parse_session(raw)
    assert str(err.value) == f"$.{section}.{entry}.{key}: unknown {kind} 'nowhere'"


def test_dangling_name_exits_two_with_its_path(every_section, tmp_path, capsys):
    raw = json.loads(json.dumps(every_section))
    raw["cowreaths"]["x"]["object"] = "nowhere"
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(raw))
    assert main(["--session", str(path), "check", "coring", "x"]) == 2
    assert capsys.readouterr().err == (
        "error: $.cowreaths.x.object: unknown r_object 'nowhere'\n")


def test_name_typed_on_the_cli_keeps_its_message(every_section, tmp_path, capsys):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(every_section))
    assert main(["--session", str(path), "check", "coring", "nowhere"]) == 2
    assert capsys.readouterr().err == "error: unknown coring 'nowhere'\n"


@pytest.mark.parametrize("section", list(SCHEMA))
def test_one_object_round_trips(section):
    """An object added alone brings in what it names; the parsed objects,
    written into a new store, give the same bytes."""
    store = SessionStore.empty(QQ)
    store.add(section, "x", one_of_each()[section])
    text = serialize_session(store.raw)
    s = parse_session(text)
    again = SessionStore.empty(s.field)
    again.add(section, "x", getattr(s, section)["x"])
    assert serialize_session(again.raw) == text
    assert serialize_session(parse_session(text).raw) == text


def test_twisting_alone_brings_in_what_it_names():
    store = SessionStore.empty(QQ)
    mt = CORPUS.module_twist_self
    store.add("twistings", "X", mt)
    raw = store.raw
    wreath = raw["twistings"]["X"]["wreath"]
    rt_object = raw["wreaths"][wreath]["object"]
    assert set(raw["extensions"]) == {
        raw["twistings"]["X"]["r"], raw["rt_objects"][rt_object]["extension"]}
    assert store.name_of("wreaths", mt.wreath) == wreath
    assert store.name_of("extensions", mt.rext) == raw["twistings"]["X"]["r"]
    assert raw["twistings"]["X"]["action"] == "X.action"


def test_name_of_adds_once():
    store = SessionStore.empty(QQ)
    name = store.name_of("corings", CORPUS.c3)
    assert name == CORPUS.c3.name
    assert store.name_of("corings", CORPUS.c3) == name
    assert list(store.raw["corings"]) == [name]
    assert store.add("corings", name, CORPUS.c3) == f"{name}2"


@pytest.mark.parametrize("section, name", [
    ("algebras", "kZ2"), ("bimodules", "brokenC")])
def test_non_string_labels_exit_two(tmp_path, capsys, section, name):
    raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
    raw[section][name]["labels"] = [7, 8]
    path = tmp_path / "bad.json"
    write_session(raw, path)
    assert main(["--session", str(path), "check", "coring", "broken"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: $.{section}.{name}.labels[0]: expected a string, got an integer")


@pytest.mark.parametrize("labels", [["a", "b", "c"], ["a"], []],
                         ids=["long", "short", "empty"])
@pytest.mark.parametrize("section, name", [
    ("algebras", "kZ2"), ("bimodules", "brokenC")])
def test_wrong_label_count_exit_two(tmp_path, capsys, section, name, labels):
    raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
    assert raw[section][name]["dim"] == 2
    raw[section][name]["labels"] = labels
    path = tmp_path / "bad.json"
    write_session(raw, path)
    assert main(["--session", str(path), "check", "coring", "broken"]) == 2
    assert capsys.readouterr().err == (
        f"error: $.{section}.{name}.labels: must have length 2\n")


def _set(raw, path, value):
    *keys, last = path
    for key in keys:
        raw = raw[key]
    raw[last] = value


@pytest.mark.parametrize("value, kind", [
    (0.1, "a float"), (1.0, "a float"), (True, "a boolean"),
    (False, "a boolean"), (None, "null")])
@pytest.mark.parametrize("path, shown", [
    (("maps", "C2.comult", "matrix", 0, 0), "$.maps.C2.comult.matrix[0][0]"),
    (("algebras", "kZ2", "mult", 1, 0, 1), "$.algebras.kZ2.mult[1][0][1]"),
    (("algebras", "kZ2", "unit", 0), "$.algebras.kZ2.unit[0]"),
    (("bimodules", "brokenC", "left_action", 0, 1, 1),
     "$.bimodules.brokenC.left_action[0][1][1]")])
def test_non_integer_scalars_exit_two(tmp_path, capsys, path, shown, value, kind):
    """A session scalar is an integer or a "p/q" string: a float (even an
    integral one), a boolean or null is malformed input naming its path,
    not a value, whatever `field.parse` would make of it."""
    raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
    _set(raw, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["--session", str(bad), "check", "coring", "C2"]) == 2
    assert capsys.readouterr().err == (
        f'error: {shown}: expected an integer or a "p/q" string, got {kind}\n')


def test_integer_and_fraction_scalars_are_read():
    raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
    _set(raw, ("maps", "C2.counit", "matrix", 0, 0), 1)
    _set(raw, ("maps", "C2.counit", "matrix", 0, 1), "2/2")
    s = parse_session(raw)
    assert s.maps["C2.counit"].matrix.data == {0: {0: 1, 1: 1}}


@pytest.mark.parametrize("row, value, shown", [
    (3, ["0", "1", "0"], "$.maps.C2.comult.matrix[3]: must have length 2, got 3"),
    (1, ["0"], "$.maps.C2.comult.matrix[1]: must have length 2, got 1"),
    (0, [], "$.maps.C2.comult.matrix[0]: must have length 2, got 0")])
def test_ragged_matrix_names_its_row(tmp_path, capsys, row, value, shown):
    """A row of the wrong length is named with its path; the message does
    not read the shape from row 0."""
    raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
    raw["maps"]["C2.comult"]["matrix"][row] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["--session", str(bad), "check", "coring", "C2"]) == 2
    assert capsys.readouterr().err == f"error: {shown}\n"


@pytest.mark.parametrize("rows, shown", [
    ([["1", "0"], ["0", "1"]], "got 2x2"),
    ([["1", "0", "0"]] * 4, "got 4x3"),
    ([], "got 0x0")])
def test_wrong_matrix_shape_is_reported_whole(tmp_path, capsys, rows, shown):
    raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
    raw["maps"]["C2.comult"]["matrix"] = rows
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["--session", str(bad), "check", "coring", "C2"]) == 2
    assert capsys.readouterr().err == (
        f"error: $.maps.C2.comult.matrix: matrix must be 4x2, {shown}\n")


@pytest.mark.parametrize("path, shown", [
    (("maps", "C2.comult", "codomain"), "$.maps.C2.comult.codomain"),
    (("maps", "C2.comult", "domain"), "$.maps.C2.comult.domain"),
    (("maps", "C2.comult", "codomain", 1), "$.maps.C2.comult.codomain[1]"),
    (("corings", "C2", "carrier"), "$.corings.C2.carrier")])
def test_empty_space_list_names_its_path(tmp_path, capsys, path, shown):
    raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
    _set(raw, path, [])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["--session", str(bad), "check", "coring", "C2"]) == 2
    assert capsys.readouterr().err == (
        f"error: {shown}: space needs at least one factor\n")


@pytest.mark.parametrize("value, shown", [
    (5, "$.maps.C2.comult.codomain: bad space reference 5"),
    (None, "$.maps.C2.comult.codomain: bad space reference None"),
    (["C2", 5], "$.maps.C2.comult.codomain[1]: bad space reference 5")])
def test_bad_space_reference_names_its_path(tmp_path, capsys, value, shown):
    raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
    raw["maps"]["C2.comult"]["codomain"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["--session", str(bad), "check", "coring", "C2"]) == 2
    assert capsys.readouterr().err == f"error: {shown}\n"


def test_maps_into_and_out_of_a_zero_space_round_trip():
    """A matrix with no rows is written as [] whatever its column count; the
    reader takes the column count from the map's domain."""
    raw = {"field": "QQ",
           "algebras": {"k": {"dim": 1, "mult": [[["1"]]], "unit": ["1"]}},
           "bimodules": {
               "Z": {"left": "k", "right": "k", "dim": 0,
                     "left_action": [[]], "right_action": [[]]},
               "V": {"left": "k", "right": "k", "dim": 2,
                     "left_action": [[["1", "0"], ["0", "1"]]],
                     "right_action": [[["1", "0"], ["0", "1"]]]}},
           "maps": {"f": {"domain": "V", "codomain": "Z", "matrix": []},
                    "g": {"domain": "Z", "codomain": "V", "matrix": [[], []]}}}
    s = parse_session(raw)
    f, g = s.maps["f"].matrix, s.maps["g"].matrix
    assert (f.rows, f.cols, f.data) == (0, 2, {})
    assert (g.rows, g.cols, g.data) == (2, 0, {})
    # the writer's rows of f and g are what was read
    assert _fmt_matrix(QQ, f) == [] and _fmt_matrix(QQ, g) == [[], []]
