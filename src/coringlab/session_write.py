"""The writing half of the session format: `SessionStore` turns objects
into session data, and `serialize_session` writes that data as text.

`SessionStore.add(section, name, obj)` writes an entry of any section of
`session.SCHEMA`, the table the reader uses too; only `algebras` and
`bimodules`, whose entries are inline data, have writers of their own.

The writer's cost follows the bytes it writes.  `serialize_session`
appends pieces of text to one list and joins them once, so no subtree is
copied again at each level that encloses it.  A list whose items are all
plain strings (printable ASCII other than `"` and `\\`, which JSON writes
between quotes with no escape), or all nonempty lists of plain strings, as
every matrix `_fmt_matrix` makes is, is written by `str.join` alone, with
no Python frame per row or entry; one `fullmatch` over its strings run
together decides that.  Every other value takes the per-item path.

Only commands that write a session import this module; `coringlab.session`
resolves `SessionStore`, `serialize_session` and `write_session` from here.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quote

from .algebra import FinAlgebra
from .bimodule import Bimodule, LinearMap, TensorQuotient, is_regular
from .session import SCHEMA, SessionFile, _fmt_matrix, _fmt_vec


def serialize_session(raw: dict) -> str:
    """The text of `json.dumps(raw, indent=1, sort_keys=True)`, written
    directly (with an indent, `json` runs its pure-Python encoder, which
    spends several generator frames on every matrix entry) as pieces
    appended to one list and joined once.  Matrices and other lists of
    plain strings are joined in bulk (`_bulk`); any other list goes item
    by item, its strings through `_quote` and other leaves through
    `json.dumps`."""
    out = []
    _dump(raw, "\n", out)
    return "".join(out)


# a plain string: printable ASCII other than '"' and '\', which JSON writes
# between quotes with no escape
_PLAIN = re.compile(r'[ !#-\[\]-~]*')


def _dump(value, nl, out):
    """Append to out the pieces of `value` as indented JSON whose closing
    bracket follows `nl`."""
    if isinstance(value, str):
        out.append(_quote(value))
        return
    inner = nl + " "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        lead = "{" + inner
        for k in sorted(value):
            out.append(f"{lead}{_quote(k)}: ")
            _dump(value[k], inner, out)
            lead = "," + inner
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        body = _bulk(value, inner)
        if body:
            out += ("[" + inner, *body, nl + "]")
            return
        lead = "[" + inner
        for v in value:
            out.append(lead)
            _dump(v, inner, out)
            lead = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(value))


def _bulk(value, inner):
    """The pieces of the items of a list of plain strings, or of nonempty
    lists of plain strings, each joined in one call with no Python frame
    per item; None for any other list.  One `fullmatch` over the strings
    run together tests that they are plain."""
    rows = set(map(type, value)) == {list} and all(value)
    try:
        text = "".join(map("".join, value) if rows else value)
    except TypeError:
        return None
    if not _PLAIN.fullmatch(text):
        return None
    if not rows:
        return '"', f'",{inner}"'.join(value), '"'
    inner2 = inner + " "
    return (f'[{inner2}"',
            f'"{inner}],{inner}[{inner2}"'.join(map(f'",{inner2}"'.join, value)),
            f'"{inner}]')


def write_session(raw: dict, path):
    """Write `serialize_session(raw)` and a newline to path.  The text is
    built whole before it is written: the layer tracer of `perfbench`
    counts the bytes a command writes at `serialize_session`."""
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


def _known(table, obj):
    """The name under which `obj` itself is in a session table, or None."""
    for name, x in table.items():
        if x is obj:
            return name
    return None


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
        name = _known(self.s.algebras, alg)
        if name is None:
            name = self._fresh(self.s.algebras, alg.name, self.s.bimodules)
            self.s.algebras[name] = alg
            self.raw.setdefault("algebras", {})[name] = algebra_to_data(alg)
        return name

    def space_ref(self, b: Bimodule):
        """A tensor quotient, never a named or regular bimodule, is written
        as the references of its factors."""
        if isinstance(b, TensorQuotient):
            return [self.space_ref(b.factor_left),
                    self.space_ref(b.factor_right)]
        name = _known(self.s.bimodules, b)
        if name is None and is_regular(b):
            name = _known(self.s.algebras, b.left_algebra)
        if name is not None:
            return name
        name = self._fresh(self.s.bimodules, b.name, self.s.algebras)
        self.s.bimodules[name] = b
        self.raw.setdefault("bimodules", {})[name] = bimodule_to_data(
            b, self.algebra_name(b.left_algebra),
            self.algebra_name(b.right_algebra))
        return name

    def map_name(self, m: LinearMap, name=None) -> str:
        return self.name_of("maps", m, name)

    # -- adders ----------------------------------------------------------------

    def add(self, section, name, obj) -> str:
        """Add `obj` to a section of `SCHEMA` under a fresh form of `name`,
        adding what its fields refer to first, in field order."""
        _, cls_name, fields = SCHEMA[section]
        table = getattr(self.s, section)
        name = self._fresh(table, name)
        values = obj if cls_name is None else [
            getattr(obj, attr) for _, _, attr in fields]
        self.raw.setdefault(section, {})[name] = {
            key: self._field(kind, value, f"{name}.{key}")
            for (key, kind, _), value in zip(fields, values)}
        table[name] = obj
        return name

    def name_of(self, section, obj, name=None) -> str:
        """The name of `obj` in a section of `SCHEMA`, adding it under
        `name`, or its own name, if it is not there yet."""
        known = _known(getattr(self.s, section), obj)
        return self.add(section, name or obj.name, obj) if known is None else known

    def _field(self, kind, value, map_name):
        """The session value of one field; a new map is named `map_name`."""
        if kind == "space":
            return self.space_ref(value)
        if kind == "algebras":
            return self.algebra_name(value)
        if kind == "side":
            return value
        if isinstance(kind, tuple):
            return _fmt_matrix(value.field, value)
        return self.name_of(kind, value, map_name if kind == "maps" else None)

    def add_coring(self, name, cor) -> str:
        return self.add("corings", name, cor)

    def add_comodule(self, name, m) -> str:
        return self.add("comodules", name, m)

    def add_cowreath(self, name, w) -> str:
        return self.add("cowreaths", name, w)
