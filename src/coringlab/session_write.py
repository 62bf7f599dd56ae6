"""The writing half of the session format: `SessionStore` turns objects
into session data, and `serialize_session` writes that data as text.

`SessionStore.add(section, name, obj)` writes an entry of any section of
`session.SCHEMA`, the table the reader uses too, under a name that no
entry of its namespace holds (`SessionFile.taken`).

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

from .bimodule import Bimodule, LinearMap, TensorQuotient, is_regular
from .reports import InputError
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

    def _fresh(self, section, name):
        """name, or name with the first number from 2 on that makes it a
        name a new entry of section may take (`SessionFile.taken`)."""
        out = name
        n = 2
        while self.s.taken(section, out):
            out = f"{name}{n}"
            n += 1
        return out

    def algebra_name(self, alg) -> str:
        return self.name_of("algebras", alg)

    def space_ref(self, b: Bimodule):
        """A tensor quotient, never a named or regular bimodule, is written
        as the references of its factors."""
        if isinstance(b, TensorQuotient):
            return [self.space_ref(b.factor_left),
                    self.space_ref(b.factor_right)]
        name = _known(self.s.bimodules, b)
        if name is None and is_regular(b):
            name = _known(self.s.algebras, b.left_algebra)
        return self.add("bimodules", b.name, b) if name is None else name

    def map_name(self, m: LinearMap, name=None) -> str:
        return self.name_of("maps", m, name)

    # -- adders ----------------------------------------------------------------

    def add(self, section, name, obj) -> str:
        """Add `obj` to a section of `SCHEMA` under a fresh form of `name`,
        adding what its fields refer to first, in field order.  An object
        over another field than the store's raises `InputError`: its file
        would read back over the store's field."""
        field = getattr(obj, "field", self.s.field)
        if field != self.s.field:
            raise InputError(f"{section} entry {name} is over {field.name}, "
                             f"not the session's field {self.s.field.name}")
        _, cls_name, fields = SCHEMA[section]
        name = self._fresh(section, name)
        # held before its fields are added, so that none of them takes name
        getattr(self.s, section)[name] = obj
        values = obj if cls_name is None else [
            getattr(obj, attr) for _, _, attr in fields]
        entry = {}
        for (key, kind, _), value in zip(fields, values):
            if key is not None:  # the "field" kind: the session's own
                entry[key] = self._field(kind, value, entry, f"{name}.{key}")
        self.raw.setdefault(section, {})[name] = entry
        return name

    def name_of(self, section, obj, name=None) -> str:
        """The name of `obj` in a section of `SCHEMA`, adding it under
        `name`, or its own name, if it is not there yet."""
        known = _known(getattr(self.s, section), obj)
        return self.add(section, name or obj.name, obj) if known is None else known

    def _field(self, kind, value, entry, map_name):
        """The session value of one field; entry holds the fields written
        before it, and a new map is named `map_name`."""
        if kind == "space":
            return self.space_ref(value)
        if kind in ("side", "dim"):
            return value
        if kind == "labels":
            return list(value)
        if isinstance(kind, tuple):
            return _fmt_matrix(value.field, value)
        if kind == "actions":
            return [_fmt_matrix(m.field, m) for m in value]
        field, dim = self.s.field, entry.get("dim")
        if kind == "unit":
            return _fmt_vec(field, value, dim)
        if kind == "mult":
            return [[_fmt_vec(field, vec, dim) for vec in row] for row in value]
        return self.name_of(kind, value, map_name if kind == "maps" else None)

    def add_coring(self, name, cor) -> str:
        return self.add("corings", name, cor)

    def add_comodule(self, name, m) -> str:
        return self.add("comodules", name, m)

    def add_cowreath(self, name, w) -> str:
        return self.add("cowreaths", name, w)
