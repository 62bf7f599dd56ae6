"""The JSON session format: named structure-constant data for everything
the command line can check or build.

Scalars are written as integers or "p/q" strings (integers mod p for prime
fields), one grammar for every field: an optionally signed integer in
ASCII digits, optionally over an unsigned one, of any length.  A float, a
boolean, null or any other string is malformed input.  Matrices are
row-major lists of rows.  A space reference is a bimodule name, an algebra
name (standing for its regular bimodule), or a list of space references
meaning the left-associated tensor product of the referenced factors over
their boundary algebras; matrix coordinates on such spaces use the
canonical quotient bases.  JSON nested past the recursion limit, in the
file or in a space reference, is malformed input too.

Every section, from `algebras` and `bimodules`, whose entries hold their
data inline, to those whose entries name other entries, is defined once,
in `SCHEMA`, which both `parse_session` and `SessionStore` read.
Algebras and bimodules share one namespace (`_SHARED`).

A session file is written with the bytes `json.dumps(raw, indent=1,
sort_keys=True)` would give, followed by a newline.  This module holds the
reading half, which every command needs.  The writing half, `SessionStore`,
`serialize_session` and `write_session`, lives in `session_write` and is
imported on first use of those names (PEP 562), so that commands which
only read a session do not compile it.  In the same way `bimodule` (and
with it `algebra`) is loaded by the first space reference, or by the
first entry of a section whose class lives there, so importing this
module, and `coringlab.cli` with it, loads only `exactla` and `reports`.
"""

from __future__ import annotations

import json
import re
from importlib import import_module

from .exactla import Matrix, field_from_name
from .reports import InputError


# The fifteen sections: each maps to the module and class of its entries
# and lists their fields as (key, kind, attribute) in constructor order.
# A kind is the section the key names, "space" for a space reference,
# "side" for a comodule's side, one of the inline kinds of `algebras` and
# `bimodules` ("dim", "mult", "unit", "actions" and the optional
# "labels", each sized by the entry's "dim"), or, for a matrix, the pair
# of earlier keys whose entries' dims are its row and column counts.  The
# "field" kind, under no key, is the session's field.  `parse_session`
# and `SessionStore` both read this table, the reader in its order.  A
# `ttps` entry is a plain (r, t, rmap) tuple, so it has no class and no
# attributes.
SCHEMA = {
    "algebras": ("algebra", "FinAlgebra", (
        (None, "field", "field"), ("dim", "dim", "dim"),
        ("mult", "mult", "mult"), ("unit", "unit", "unit"),
        ("labels", "labels", "labels"))),
    "bimodules": ("bimodule", "Bimodule", (
        ("left", "algebras", "left_algebra"),
        ("right", "algebras", "right_algebra"), ("dim", "dim", "dim"),
        ("left_action", "actions", "left_action"),
        ("right_action", "actions", "right_action"),
        ("labels", "labels", "labels"))),
    "morphisms": ("algebra", "AlgebraMorphism", (
        ("source", "algebras", "source"), ("target", "algebras", "target"),
        ("matrix", ("target", "source"), "matrix"))),
    "maps": ("bimodule", "LinearMap", (
        ("domain", "space", "domain"), ("codomain", "space", "codomain"),
        ("matrix", ("codomain", "domain"), "matrix"))),
    "corings": ("coring", "Coring", (
        ("base", "algebras", "base"), ("carrier", "space", "carrier"),
        ("comult", "maps", "comult"), ("counit", "maps", "counit"))),
    "comodules": ("coring", "Comodule", (
        ("side", "side", "side"), ("coring", "corings", "coring"),
        ("carrier", "space", "carrier"), ("coaction", "maps", "coaction"))),
    "r_objects": ("rcat", "RObject", (
        ("coring", "corings", "coring"), ("carrier", "space", "carrier"),
        ("twist", "maps", "twist"))),
    "entwinings": ("entwine", "EntwiningStructure", (
        ("algebra", "algebras", "algebra"),
        ("coalgebra", "corings", "coalgebra"), ("psi", "maps", "psi"))),
    "cowreaths": ("cowreath", "Cowreath", (
        ("object", "r_objects", "object"), ("xi", "maps", "xi"),
        ("delta", "maps", "delta"))),
    "extensions": ("wreath", "RingExtension", (
        ("base", "algebras", "base"), ("total", "algebras", "total"),
        ("iota", "morphisms", "iota"))),
    "rt_objects": ("wreath", "RTObject", (
        ("extension", "extensions", "ext"), ("carrier", "space", "carrier"),
        ("twist", "maps", "twist"))),
    "wreaths": ("wreath", "Wreath", (
        ("object", "rt_objects", "object"), ("eta", "maps", "eta"),
        ("mu", "maps", "mu"))),
    "ttps": (None, None, (
        ("r", "extensions", None), ("t", "extensions", None),
        ("rmap", "maps", None))),
    "twistings": ("wreath", "ModuleTwist", (
        ("wreath", "wreaths", "wreath"), ("r", "extensions", "rext"),
        ("carrier", "space", "carrier"), ("action", "maps", "l_x"),
        ("twist", "maps", "twist"))),
    "skewpoly": ("ore", "SkewPolyData", (
        ("coeff", "algebras", "coeff_algebra"), ("sigma", "morphisms", "sigma"),
        ("delta", ("coeff", "coeff"), "delta"))),
}

SECTIONS = tuple(SCHEMA)

# Algebras and bimodules share one namespace: a space reference names
# either, an algebra standing for its regular bimodule.
_SHARED = ("algebras", "bimodules")


class SessionFile:
    """A resolved object graph plus the raw data it was parsed from."""

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw
        for section in SECTIONS:
            setattr(self, section, {})

    # -- resolution ---------------------------------------------------------

    def resolve_space(self, ref, path):
        """The bimodule that ref names; path is its JSON path, for errors.
        A reference nested past the recursion limit is malformed input."""
        try:
            return self._space(ref, path)
        except RecursionError:
            raise InputError(f"{path}: space reference is nested too deeply") from None

    def _space(self, ref, path):
        from .bimodule import regular_bimodule, space
        if isinstance(ref, str):
            if ref in self.bimodules:
                return self.bimodules[ref]
            if ref in self.algebras:
                return regular_bimodule(self.algebras[ref])
            raise InputError(f"{path}: unknown space reference {ref!r}")
        if isinstance(ref, list):
            if not ref:
                raise InputError(f"{path}: space needs at least one factor")
            factors = [self._space(r, f"{path}[{i}]")
                       for i, r in enumerate(ref)]
            return space(*factors).quotient
        raise InputError(f"{path}: bad space reference {ref!r}")

    def lookup(self, section, name, path=None):
        """The entry of section that name names; a reference from a session
        entry passes its JSON path, which prefixes the error."""
        table = getattr(self, section)
        if not isinstance(name, str) or name not in table:
            where = f"{path}: " if path else ""
            raise InputError(f"{where}unknown {section.removesuffix('s')} {name!r}")
        return table[name]

    def taken(self, section, name) -> bool:
        """Whether a new entry of section may not be called name: the
        name is already in section, or in the other section of `_SHARED`
        when section is one of them."""
        return any(name in getattr(self, t)
                   for t in (_SHARED if section in _SHARED else (section,)))


# ---------------------------------------------------------------------------
# shape validation: every malformed value raises InputError naming its
# JSON path, so no Python exception escapes for a malformed session


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", bool: "a boolean", float: "a number",
               type(None): "null"}


def _expect(value, kind, path):
    """value, after checking that it has the JSON kind of `kind`."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        got = _JSON_KINDS.get(type(value), type(value).__name__)
        raise InputError(f"{path}: expected {_JSON_KINDS[kind]}, got {got}")
    return value


class _Entry:
    """One named entry of a session section, read by key."""

    def __init__(self, path, data):
        self.path = path
        self.data = _expect(data, dict, path)

    def __getitem__(self, key):
        if key not in self.data:
            raise InputError(f"{self.path}.{key}: missing")
        return self.data[key]

    def get(self, key, default=None):
        return self.data.get(key, default)


def _entries(raw, section):
    """(name, _Entry) for each entry of a section; an absent one is empty."""
    table = _expect(raw.get(section, {}), dict, f"$.{section}")
    return [(name, _Entry(f"$.{section}.{name}", data))
            for name, data in table.items()]


def _parse_matrix(field, rows_data, rows, cols, where) -> Matrix:
    _expect(rows_data, list, where)
    for i, r in enumerate(rows_data):
        _expect(r, list, f"{where}[{i}]")
    lengths = {len(r) for r in rows_data}
    if len(lengths) > 1:
        i = next(i for i, r in enumerate(rows_data) if len(r) != cols)
        raise InputError(f"{where}[{i}]: must have length {cols}, "
                         f"got {len(rows_data[i])}")
    if len(rows_data) != rows or lengths - {cols}:
        raise InputError(
            f"{where}: matrix must be {rows}x{cols}, "
            f"got {len(rows_data)}x{len(rows_data[0]) if rows_data else 0}")
    for i, r in enumerate(rows_data):
        _scalars(r, f"{where}[{i}]")
    if not rows_data:
        # [] is every matrix with no rows; from_rows would read 0 columns
        return Matrix.zeros(field, 0, cols)
    return Matrix.from_rows(field, rows_data)


# A session scalar string, over every field: an optionally signed integer
# in ASCII digits, optionally over an unsigned one.  No decimal point,
# exponent or space, so QQ and GF(p) read the same strings.
_SCALAR = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _scalars(entries, path):
    """Check that each entry is a JSON integer or a string of the scalar
    grammar (`_SCALAR`): a float, a boolean, null or another string is not
    a session scalar.  The field's `parse` then rejects a zero
    denominator."""
    for k, v in enumerate(entries):
        if type(v) is str:
            if _SCALAR.fullmatch(v):
                continue
            got = repr(v)
        elif type(v) is int:
            continue
        else:
            got = "a float" if type(v) is float else _JSON_KINDS.get(
                type(v), type(v).__name__)
        raise InputError(f'{path}[{k}]: expected an integer or a "p/q" '
                         f"string, got {got}")


def _parse_vec(field, entries, dim, path) -> dict:
    """Sparse vector {index: scalar} of a list of dim scalar texts, zeros
    dropped."""
    if len(_expect(entries, list, path)) != dim:
        raise InputError(f"{path}: must have length {dim}")
    _scalars(entries, path)
    vec = {k: field.parse(v) for k, v in enumerate(entries)}
    return {k: v for k, v in vec.items() if not field.is_zero(v)}


def _field(s, data, key, kind, read):
    """The value of one field of an entry (see `SCHEMA`); read holds the
    values of the fields before it."""
    path = f"{data.path}.{key}"
    field, dim = s.field, read.get("dim")
    if kind == "field":
        return field
    if isinstance(kind, tuple):
        rows, cols = (read[k].dim for k in kind)
        return _parse_matrix(field, data[key], rows, cols, path)
    if kind == "space":
        return s.resolve_space(data[key], path)
    if kind == "side":
        side = data.get(key, "right")
        if side not in ("left", "right"):
            raise InputError(f"{path}: side must be 'left' or 'right'")
        return side
    if kind == "dim":
        if _expect(data[key], int, path) < 0:
            raise InputError(f"{path}: must not be negative")
        return data[key]
    if kind == "labels":
        labels = data.get(key)
        if labels is not None:
            for i, label in enumerate(_expect(labels, list, path)):
                _expect(label, str, f"{path}[{i}]")
            if len(labels) != dim:
                raise InputError(f"{path}: must have length {dim}")
        return labels
    if kind == "unit":
        return _parse_vec(field, data[key], dim, path)
    if kind == "mult":
        rows = _expect(data[key], list, path)
        for i, r in enumerate(rows):
            _expect(r, list, f"{path}[{i}]")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise InputError(f"{path}: must be {dim}x{dim}")
        return [[_parse_vec(field, vec, dim, f"{path}[{i}][{j}]")
                 for j, vec in enumerate(r)] for i, r in enumerate(rows)]
    if kind == "actions":
        return [_parse_matrix(field, m, dim, dim, f"{path}[{k}]")
                for k, m in enumerate(_expect(data[key], list, path))]
    return s.lookup(kind, data[key], path)


def _read_json(source):
    """The JSON value of a file object, a JSON text or a path.  json raises
    a plain ValueError, not a JSONDecodeError, for an integer literal with
    more digits than int() converts, and a RecursionError for arrays or
    objects nested past the recursion limit; both are malformed input,
    named by the path when there is one."""
    where = "session"
    try:
        if hasattr(source, "read"):
            return json.load(source)
        text = str(source)
        if text.lstrip().startswith("{"):
            return json.loads(text)
        where = text
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except ValueError:
        raise InputError(f"{where}: a JSON integer literal is too long") from None
    except RecursionError:
        raise InputError(f"{where}: JSON arrays or objects are nested too deeply") from None


def parse_session(source) -> SessionFile:
    """Parse a session from a path, file object, JSON text, or dict.

    A section imports the class of its entries at its first entry, so
    parsing loads only the modules that the session's sections need."""
    raw = source if isinstance(source, dict) else _read_json(source)
    _expect(raw, dict, "$")
    if "field" not in raw:
        raise InputError("session needs a 'field' entry")
    field = field_from_name(raw["field"])
    s = SessionFile(field, raw)

    for section, (module, cls_name, fields) in SCHEMA.items():
        entries = _entries(raw, section)
        if entries and cls_name:
            cls = getattr(import_module(f".{module}", __package__), cls_name)
        table = getattr(s, section)
        for name, data in entries:
            if s.taken(section, name):
                raise InputError(
                    f"name {name!r} is declared both as an algebra and a "
                    f"bimodule; space references would be ambiguous")
            read = {}
            for key, kind, _ in fields:
                read[key] = _field(s, data, key, kind, read)
            # SkewPolyData checks this too, but cannot name the JSON path
            if section == "skewpoly" and not (
                    read["sigma"].source is read["coeff"] is read["sigma"].target):
                raise InputError(
                    f"{data.path}.sigma: sigma must be an endomorphism of B")
            args = read.values()
            try:
                table[name] = cls(*args, name=name) if cls_name else tuple(args)
            except InputError as exc:  # a constructor's check: name the entry
                raise InputError(f"{data.path}: {exc}") from None
    return s


def _fmt_matrix(field, mat: Matrix):
    """The rows of mat as scalar texts: a copy of one blank row per row,
    with only the nonzero entries written."""
    fmt = field.fmt
    blank = [fmt(field.zero())] * mat.cols
    rows = [blank.copy() for _ in range(mat.rows)]
    for i, vec in mat.data.items():
        row = rows[i]
        for k, v in vec.items():
            row[k] = fmt(v)
    return rows


def _fmt_vec(field, vec, dim):
    zero = field.fmt(field.zero())
    out = [zero] * dim
    for k, v in vec.items():
        out[k] = field.fmt(v)
    return out


_WRITING = ("SessionStore", "serialize_session", "write_session")


def __getattr__(name):
    if name in _WRITING:
        from . import session_write
        return getattr(session_write, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
