"""The JSON session format: named structure-constant data for everything
the command line can check or build.

Scalars are written as integers or "p/q" strings (integers mod p for prime
fields).  Matrices are row-major lists of rows.  A space reference is a
bimodule name, an algebra name (standing for its regular bimodule), or a
list of space references meaning the left-associated tensor product of the
referenced factors over their boundary algebras; matrix coordinates on such
spaces use the canonical quotient bases.

A session file is written with the bytes `json.dumps(raw, indent=1,
sort_keys=True)` would give, followed by a newline.  This module holds the
reading half, which every command needs.  The writing half, `SessionStore`,
`serialize_session` and `write_session`, lives in `session_write` and is
imported on first use of those names (PEP 562), so that commands which
only read a session do not compile it.
"""

from __future__ import annotations

import json

from .algebra import AlgebraMorphism, FinAlgebra
from .bimodule import Bimodule, LinearMap, Matrix, regular_bimodule, space
from .exactla import field_from_name
from .reports import InputError


SECTIONS = (
    "algebras", "morphisms", "bimodules", "maps", "corings", "comodules",
    "r_objects", "entwinings", "cowreaths", "extensions", "rt_objects",
    "wreaths", "ttps", "twistings", "skewpoly",
)


class SessionFile:
    """A resolved object graph plus the raw data it was parsed from."""

    def __init__(self, field, raw):
        self.field = field
        self.raw = raw
        self.algebras = {}
        self.morphisms = {}
        self.bimodules = {}
        self.maps = {}
        self.corings = {}
        self.comodules = {}
        self.r_objects = {}
        self.entwinings = {}
        self.cowreaths = {}
        self.extensions = {}
        self.rt_objects = {}
        self.wreaths = {}
        self.ttps = {}
        self.twistings = {}
        self.skewpoly = {}

    # -- resolution ---------------------------------------------------------

    def resolve_space(self, ref) -> Bimodule:
        if isinstance(ref, str):
            if ref in self.bimodules:
                return self.bimodules[ref]
            if ref in self.algebras:
                return regular_bimodule(self.algebras[ref])
            raise InputError(f"unknown space reference {ref!r}")
        if isinstance(ref, list):
            factors = [self.resolve_space(r) for r in ref]
            return space(*factors).quotient
        raise InputError(f"bad space reference {ref!r}")

    def lookup(self, section, name):
        table = getattr(self, section)
        if not isinstance(name, str) or name not in table:
            raise InputError(f"unknown {section[:-1]} {name!r}")
        return table[name]


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

    def list(self, key):
        return _expect(self[key], list, f"{self.path}.{key}")

    def labels(self):
        labels = self.get("labels")
        if labels is not None:
            _expect(labels, list, f"{self.path}.labels")
        return labels

    def dim(self):
        dim = _expect(self["dim"], int, f"{self.path}.dim")
        if dim < 0:
            raise InputError(f"{self.path}.dim: must not be negative")
        return dim


def _entries(raw, section):
    """(name, _Entry) for each entry of a section; an absent one is empty."""
    table = _expect(raw.get(section, {}), dict, f"$.{section}")
    return [(name, _Entry(f"$.{section}.{name}", data))
            for name, data in table.items()]


def _parse_matrix(field, rows_data, rows, cols, where) -> Matrix:
    _expect(rows_data, list, where)
    for i, r in enumerate(rows_data):
        _expect(r, list, f"{where}[{i}]")
    if len(rows_data) != rows or any(len(r) != cols for r in rows_data):
        raise InputError(
            f"{where}: matrix must be {rows}x{cols}, "
            f"got {len(rows_data)}x{len(rows_data[0]) if rows_data else 0}")
    return Matrix.from_rows(field, rows_data)


def _parse_vec(field, entries) -> dict:
    """Sparse vector {index: scalar} of a list of scalar texts, zeros dropped."""
    vec = {k: field.parse(v) for k, v in enumerate(entries)}
    return {k: v for k, v in vec.items() if not field.is_zero(v)}


def parse_session(source) -> SessionFile:
    """Parse a session from a path, file object, JSON text, or dict.

    A section imports the class of its entries at its first entry, so
    parsing loads only the modules that the session's sections need."""
    if isinstance(source, dict):
        raw = source
    elif hasattr(source, "read"):
        raw = json.load(source)
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            raw = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
    _expect(raw, dict, "$")
    if "field" not in raw:
        raise InputError("session needs a 'field' entry")
    field = field_from_name(raw["field"])
    s = SessionFile(field, raw)

    for name, data in _entries(raw, "algebras"):
        dim = data.dim()
        mult_rows = data.list("mult")
        for i, r in enumerate(mult_rows):
            _expect(r, list, f"{data.path}.mult[{i}]")
        if len(mult_rows) != dim or any(len(r) != dim for r in mult_rows):
            raise InputError(f"{data.path}.mult: must be {dim}x{dim}")
        mult = []
        for i in range(dim):
            row = []
            for j in range(dim):
                vec = _expect(mult_rows[i][j], list,
                              f"{data.path}.mult[{i}][{j}]")
                if len(vec) != dim:
                    raise InputError(
                        f"{data.path}.mult[{i}][{j}]: must have length {dim}")
                row.append(_parse_vec(field, vec))
            mult.append(row)
        if len(data.list("unit")) != dim:
            raise InputError(f"{data.path}.unit: must have length {dim}")
        unit = _parse_vec(field, data["unit"])
        s.algebras[name] = FinAlgebra(field, dim, mult, unit,
                                      labels=data.labels(), name=name)

    for name, data in _entries(raw, "morphisms"):
        src = s.lookup("algebras", data["source"])
        dst = s.lookup("algebras", data["target"])
        mat = _parse_matrix(field, data["matrix"], dst.dim, src.dim,
                            f"{data.path}.matrix")
        s.morphisms[name] = AlgebraMorphism(src, dst, mat, name=name)

    for name, data in _entries(raw, "bimodules"):
        if name in s.algebras:
            raise InputError(
                f"name {name!r} is declared both as an algebra and a "
                f"bimodule; space references would be ambiguous")
        left = s.lookup("algebras", data["left"])
        right = s.lookup("algebras", data["right"])
        dim = data.dim()
        las = [_parse_matrix(field, m, dim, dim, f"{data.path}.left_action[{k}]")
               for k, m in enumerate(data.list("left_action"))]
        ras = [_parse_matrix(field, m, dim, dim, f"{data.path}.right_action[{k}]")
               for k, m in enumerate(data.list("right_action"))]
        s.bimodules[name] = Bimodule(left, right, dim, las, ras,
                                     labels=data.labels(), name=name)

    for name, data in _entries(raw, "maps"):
        dom = s.resolve_space(data["domain"])
        cod = s.resolve_space(data["codomain"])
        mat = _parse_matrix(field, data["matrix"], cod.dim, dom.dim,
                            f"{data.path}.matrix")
        s.maps[name] = LinearMap(dom, cod, mat, name=name)

    for name, data in _entries(raw, "corings"):
        from .coring import Coring
        base = s.lookup("algebras", data["base"])
        carrier = s.resolve_space(data["carrier"])
        comult = s.lookup("maps", data["comult"])
        counit = s.lookup("maps", data["counit"])
        s.corings[name] = Coring(base, carrier, comult, counit, name=name)

    for name, data in _entries(raw, "comodules"):
        from .coring import Comodule
        coring = s.lookup("corings", data["coring"])
        carrier = s.resolve_space(data["carrier"])
        coaction = s.lookup("maps", data["coaction"])
        s.comodules[name] = Comodule(data.get("side", "right"), coring,
                                     carrier, coaction, name=name)

    for name, data in _entries(raw, "r_objects"):
        from .rcat import RObject
        coring = s.lookup("corings", data["coring"])
        carrier = s.resolve_space(data["carrier"])
        twist = s.lookup("maps", data["twist"])
        s.r_objects[name] = RObject(coring, carrier, twist, name=name)

    for name, data in _entries(raw, "entwinings"):
        from .entwine import EntwiningStructure
        alg = s.lookup("algebras", data["algebra"])
        coalg = s.lookup("corings", data["coalgebra"])
        psi = s.lookup("maps", data["psi"])
        s.entwinings[name] = EntwiningStructure(alg, coalg, psi, name=name)

    for name, data in _entries(raw, "cowreaths"):
        from .cowreath import Cowreath
        obj = s.lookup("r_objects", data["object"])
        xi = s.lookup("maps", data["xi"])
        delta = s.lookup("maps", data["delta"])
        s.cowreaths[name] = Cowreath(obj, xi, delta, name=name)

    for name, data in _entries(raw, "extensions"):
        from .wreath import RingExtension
        base = s.lookup("algebras", data["base"])
        total = s.lookup("algebras", data["total"])
        iota = s.lookup("morphisms", data["iota"])
        s.extensions[name] = RingExtension(base, total, iota, name=name)

    for name, data in _entries(raw, "rt_objects"):
        from .wreath import RTObject
        ext = s.lookup("extensions", data["extension"])
        carrier = s.resolve_space(data["carrier"])
        twist = s.lookup("maps", data["twist"])
        s.rt_objects[name] = RTObject(ext, carrier, twist, name=name)

    for name, data in _entries(raw, "wreaths"):
        from .wreath import Wreath
        obj = s.lookup("rt_objects", data["object"])
        eta = s.lookup("maps", data["eta"])
        mu = s.lookup("maps", data["mu"])
        s.wreaths[name] = Wreath(obj, eta, mu, name=name)

    for name, data in _entries(raw, "ttps"):
        rext = s.lookup("extensions", data["r"])
        text = s.lookup("extensions", data["t"])
        rmap = s.lookup("maps", data["rmap"])
        s.ttps[name] = (rext, text, rmap)

    for name, data in _entries(raw, "twistings"):
        from .wreath import ModuleTwist
        wr = s.lookup("wreaths", data["wreath"])
        rext = s.lookup("extensions", data["r"])
        carrier = s.resolve_space(data["carrier"])
        action = s.lookup("maps", data["action"])
        twist = s.lookup("maps", data["twist"])
        s.twistings[name] = ModuleTwist(wr, rext, carrier, action, twist,
                                        name=name)

    for name, data in _entries(raw, "skewpoly"):
        from .ore import SkewPolyData
        coeff = s.lookup("algebras", data["coeff"])
        sigma = s.lookup("morphisms", data["sigma"])
        delta = _parse_matrix(field, data["delta"], coeff.dim, coeff.dim,
                              f"{data.path}.delta")
        s.skewpoly[name] = SkewPolyData(coeff, sigma, delta, name=name)
    return s


def _fmt_matrix(field, mat: Matrix):
    data = mat.data
    return [_fmt_vec(field, data.get(i, {}), mat.cols) for i in range(mat.rows)]


def _fmt_vec(field, vec, dim):
    zero = field.fmt(field.zero())
    out = [zero] * dim
    for k, v in vec.items():
        out[k] = field.fmt(v)
    return out


_WRITING = ("SessionStore", "serialize_session", "write_session",
            "algebra_to_data", "bimodule_to_data", "map_to_data")


def __getattr__(name):
    if name in _WRITING:
        from . import session_write
        return getattr(session_write, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
