"""The JSON session format: named structure-constant data for everything
the command line can check or build.

Scalars are written as integers or "p/q" strings (integers mod p for prime
fields).  Matrices are row-major lists of rows.  A space reference is a
bimodule name, an algebra name (standing for its regular bimodule), or a
list of space references meaning the left-associated tensor product of the
referenced factors over their boundary algebras; matrix coordinates on such
spaces use the canonical quotient bases.
"""

from __future__ import annotations

import json

from .algebra import AlgebraMorphism, FinAlgebra
from .bimodule import (Bimodule, LinearMap, Matrix, TensorQuotient, is_regular,
                       regular_bimodule, space)
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


# ---------------------------------------------------------------------------
# serialization


def _fmt_matrix(field, mat: Matrix):
    data = mat.data
    return [_fmt_vec(field, data.get(i, {}), mat.cols) for i in range(mat.rows)]


def _fmt_vec(field, vec, dim):
    zero = field.fmt(field.zero())
    out = [zero] * dim
    for k, v in vec.items():
        out[k] = field.fmt(v)
    return out


def algebra_to_data(a: FinAlgebra):
    return {
        "dim": a.dim,
        "labels": list(a.labels),
        "mult": [[_fmt_vec(a.field, a.mult[i][j], a.dim)
                  for j in range(a.dim)] for i in range(a.dim)],
        "unit": _fmt_vec(a.field, a.unit, a.dim),
    }


def bimodule_to_data(b: Bimodule, left_name, right_name):
    return {
        "left": left_name,
        "right": right_name,
        "dim": b.dim,
        "labels": list(b.labels),
        "left_action": [_fmt_matrix(b.field, m) for m in b.left_action],
        "right_action": [_fmt_matrix(b.field, m) for m in b.right_action],
    }


def map_to_data(m: LinearMap, domain_ref, codomain_ref):
    return {
        "domain": domain_ref,
        "codomain": codomain_ref,
        "matrix": _fmt_matrix(m.matrix.field, m.matrix),
    }


def serialize_session(raw: dict) -> str:
    return json.dumps(raw, indent=1, sort_keys=True)


def write_session(raw: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_session(raw))
        fh.write("\n")


class SessionStore:
    """Adds objects to a session, serializing them as it goes.

    Composite carriers (tensor quotients) serialize as nested space
    references, so parsing rebuilds the exact same canonical bases.
    """

    def __init__(self, s: SessionFile):
        self.s = s
        self.raw = s.raw

    @classmethod
    def empty(cls, field):
        raw = {"field": field.name}
        return cls(SessionFile(field, raw))

    # -- reverse lookups ------------------------------------------------------

    def _fresh(self, table, name, *extra_tables):
        out = name
        n = 2
        while out in table or any(out in t for t in extra_tables):
            out = f"{name}{n}"
            n += 1
        return out

    def algebra_name(self, alg) -> str:
        """Algebras and bimodules share one namespace: an algebra name also
        resolves to its regular bimodule, so clashes must be avoided."""
        for name, a in self.s.algebras.items():
            if a is alg:
                return name
        name = self._fresh(self.s.algebras, alg.name, self.s.bimodules)
        self.s.algebras[name] = alg
        self.raw.setdefault("algebras", {})[name] = algebra_to_data(alg)
        return name

    def morphism_name(self, m) -> str:
        for name, x in self.s.morphisms.items():
            if x is m:
                return name
        name = self._fresh(self.s.morphisms, m.name)
        self.s.morphisms[name] = m
        self.raw.setdefault("morphisms", {})[name] = {
            "source": self.algebra_name(m.source),
            "target": self.algebra_name(m.target),
            "matrix": _fmt_matrix(m.source.field, m.matrix),
        }
        return name

    def space_ref(self, b: Bimodule):
        for name, x in self.s.bimodules.items():
            if x is b:
                return name
        for name, a in self.s.algebras.items():
            if a is b.left_algebra and is_regular(b):
                return name
        if isinstance(b, TensorQuotient):
            return [self.space_ref(b.factor_left),
                    self.space_ref(b.factor_right)]
        name = self._fresh(self.s.bimodules, b.name, self.s.algebras)
        self.s.bimodules[name] = b
        self.raw.setdefault("bimodules", {})[name] = bimodule_to_data(
            b, self.algebra_name(b.left_algebra),
            self.algebra_name(b.right_algebra))
        return name

    def map_name(self, m: LinearMap, name=None) -> str:
        for nm, x in self.s.maps.items():
            if x is m:
                return nm
        name = self._fresh(self.s.maps, name or m.name)
        self.s.maps[name] = m
        self.raw.setdefault("maps", {})[name] = map_to_data(
            m, self.space_ref(m.domain), self.space_ref(m.codomain))
        return name

    # -- adders ----------------------------------------------------------------

    def add_coring(self, name, cor: Coring) -> str:
        name = self._fresh(self.s.corings, name)
        self.raw.setdefault("corings", {})[name] = {
            "base": self.algebra_name(cor.base),
            "carrier": self.space_ref(cor.carrier),
            "comult": self.map_name(cor.comult, f"{name}.comult"),
            "counit": self.map_name(cor.counit, f"{name}.counit"),
        }
        self.s.corings[name] = cor
        return name

    def add_comodule(self, name, m: Comodule) -> str:
        name = self._fresh(self.s.comodules, name)
        coring_name = self.coring_name(m.coring)
        self.raw.setdefault("comodules", {})[name] = {
            "coring": coring_name,
            "side": m.side,
            "carrier": self.space_ref(m.carrier),
            "coaction": self.map_name(m.coaction, f"{name}.coaction"),
        }
        self.s.comodules[name] = m
        return name

    def coring_name(self, cor) -> str:
        for name, x in self.s.corings.items():
            if x is cor:
                return name
        return self.add_coring(cor.name, cor)

    def add_r_object(self, name, o: RObject) -> str:
        name = self._fresh(self.s.r_objects, name)
        self.raw.setdefault("r_objects", {})[name] = {
            "coring": self.coring_name(o.coring),
            "carrier": self.space_ref(o.carrier),
            "twist": self.map_name(o.twist, f"{name}.twist"),
        }
        self.s.r_objects[name] = o
        return name

    def r_object_name(self, o) -> str:
        for name, x in self.s.r_objects.items():
            if x is o:
                return name
        return self.add_r_object(o.name, o)

    def add_entwining(self, name, e: EntwiningStructure) -> str:
        name = self._fresh(self.s.entwinings, name)
        self.raw.setdefault("entwinings", {})[name] = {
            "algebra": self.algebra_name(e.algebra),
            "coalgebra": self.coring_name(e.coalgebra),
            "psi": self.map_name(e.psi, f"{name}.psi"),
        }
        self.s.entwinings[name] = e
        return name

    def add_cowreath(self, name, w: Cowreath) -> str:
        name = self._fresh(self.s.cowreaths, name)
        self.raw.setdefault("cowreaths", {})[name] = {
            "object": self.r_object_name(w.object),
            "xi": self.map_name(w.xi, f"{name}.xi"),
            "delta": self.map_name(w.delta, f"{name}.delta"),
        }
        self.s.cowreaths[name] = w
        return name

    def add_extension(self, name, ext: RingExtension) -> str:
        name = self._fresh(self.s.extensions, name)
        self.raw.setdefault("extensions", {})[name] = {
            "base": self.algebra_name(ext.base),
            "total": self.algebra_name(ext.total),
            "iota": self.morphism_name(ext.iota),
        }
        self.s.extensions[name] = ext
        return name

    def extension_name(self, ext) -> str:
        for name, x in self.s.extensions.items():
            if x is ext:
                return name
        return self.add_extension(ext.name, ext)

    def add_rt_object(self, name, o: RTObject) -> str:
        name = self._fresh(self.s.rt_objects, name)
        self.raw.setdefault("rt_objects", {})[name] = {
            "extension": self.extension_name(o.ext),
            "carrier": self.space_ref(o.carrier),
            "twist": self.map_name(o.twist, f"{name}.twist"),
        }
        self.s.rt_objects[name] = o
        return name

    def rt_object_name(self, o) -> str:
        for name, x in self.s.rt_objects.items():
            if x is o:
                return name
        return self.add_rt_object(o.name, o)

    def add_wreath(self, name, w: Wreath) -> str:
        name = self._fresh(self.s.wreaths, name)
        self.raw.setdefault("wreaths", {})[name] = {
            "object": self.rt_object_name(w.object),
            "eta": self.map_name(w.eta, f"{name}.eta"),
            "mu": self.map_name(w.mu, f"{name}.mu"),
        }
        self.s.wreaths[name] = w
        return name

    def add_ttp(self, name, rext, text, rmap) -> str:
        name = self._fresh(self.s.ttps, name)
        self.raw.setdefault("ttps", {})[name] = {
            "r": self.extension_name(rext),
            "t": self.extension_name(text),
            "rmap": self.map_name(rmap, f"{name}.rmap"),
        }
        self.s.ttps[name] = (rext, text, rmap)
        return name

    def add_twisting(self, name, mt: ModuleTwist, wreath_name) -> str:
        name = self._fresh(self.s.twistings, name)
        self.raw.setdefault("twistings", {})[name] = {
            "wreath": wreath_name,
            "r": self.extension_name(mt.rext),
            "carrier": self.space_ref(mt.carrier),
            "action": self.map_name(mt.l_x, f"{name}.action"),
            "twist": self.map_name(mt.twist, f"{name}.twist"),
        }
        self.s.twistings[name] = mt
        return name

    def add_skewpoly(self, name, d: SkewPolyData) -> str:
        name = self._fresh(self.s.skewpoly, name)
        self.raw.setdefault("skewpoly", {})[name] = {
            "coeff": self.algebra_name(d.coeff_algebra),
            "sigma": self.morphism_name(d.sigma),
            "delta": _fmt_matrix(d.coeff_algebra.field, d.delta),
        }
        self.s.skewpoly[name] = d
        return name
