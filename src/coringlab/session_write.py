"""The writing half of the session format: `SessionStore` turns objects
into session data, and `serialize_session` writes that data as text.

Only commands that write a session import this module; `coringlab.session`
resolves `SessionStore`, `serialize_session` and `write_session` from here.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .algebra import FinAlgebra
from .bimodule import Bimodule, LinearMap, TensorQuotient, is_regular
from .session import SessionFile, _fmt_matrix, _fmt_vec


def serialize_session(raw: dict) -> str:
    """The text of `json.dumps(raw, indent=1, sort_keys=True)`, written
    directly: with an indent, `json` runs its pure-Python encoder, which
    spends several generator frames on every matrix entry."""
    return _dump(raw, "\n")


def _dump(value, nl):
    """`value` as indented JSON whose closing bracket follows `nl`."""
    if isinstance(value, str):
        return _quote(value)
    inner = nl + " "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_quote(k)}: {_dump(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + sep.join(items) + nl + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            # a list of strings, as every matrix row is, in one join
            body = sep.join(map(_quote, value))
        except TypeError:
            body = sep.join([_dump(v, inner) for v in value])
        return "[" + inner + body + nl + "]"
    return json.dumps(value)


def write_session(raw: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_session(raw))
        fh.write("\n")


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
