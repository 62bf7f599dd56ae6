"""Verification reports with witnesses.

Every checker returns a Report.  A failing report carries at least one
Witness naming the violated equation tag, the basis tuple it was evaluated
on, and the two values that disagree.  Witness values are formatted strings
so reports serialize to JSON without knowing the scalar type.
"""

from __future__ import annotations

import re


class InputError(ValueError):
    """Malformed input: shape mismatch, unresolved name, non-prime modulus."""


class WellDefinednessError(ValueError):
    """An induced map on a tensor quotient does not kill the relation span."""

    def __init__(self, message, relation=None):
        super().__init__(message)
        self.relation = relation


class PreconditionFailure(ValueError):
    """A builder's input fails its defining laws; carries the full report."""

    def __init__(self, report):
        super().__init__(
            f"{report.check}: violated " + ", ".join(report.equations()))
        self.report = report


class Record:
    """A plain class that compares and prints field by field, as a dataclass
    does: `_fields` names the constructor arguments in order.  Instances
    are mutable, so they are unhashable."""

    _fields = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"


class Witness(Record):
    _fields = ("equation", "basis", "lhs", "rhs")

    def __init__(self, equation: str, basis: tuple, lhs: str, rhs: str):
        self.equation = equation
        self.basis = basis
        self.lhs = lhs
        self.rhs = rhs

    def to_json(self):
        return {
            "equation": self.equation,
            "basis": list(self.basis),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class Report(Record):
    _fields = ("check", "status", "witnesses")

    def __init__(self, check: str, status: str = "pass", witnesses=None):
        self.check = check
        self.status = status  # pass | fail
        self.witnesses = [] if witnesses is None else witnesses

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def add(self, witness: Witness):
        self.status = "fail"
        self.witnesses.append(witness)

    def extend(self, other: "Report", prefix=None):
        """Fold a sub-report into this one, each tag as `prefix-tag` when a
        prefix is given."""
        if not other.ok:
            self.status = "fail"
            self.witnesses.extend(
                other.witnesses if prefix is None else
                (Witness(f"{prefix}-{w.equation}", w.basis, w.lhs, w.rhs)
                 for w in other.witnesses))
        return self

    def equations(self):
        return sorted({w.equation for w in self.witnesses})

    def to_json(self):
        return {
            "check": self.check,
            "status": self.status,
            "witnesses": [w.to_json() for w in self.witnesses],
        }

    def summary(self) -> str:
        if self.ok:
            return f"{self.check}: pass"
        lines = [f"{self.check}: {self.status}"]
        for w in self.witnesses:
            lines.append(
                f"  {w.equation} at {w.basis}: lhs={w.lhs} rhs={w.rhs}"
            )
        return "\n".join(lines)


_OTHER_HAND = {"left": "right", "right": "left"}


def mirrored_report(rep: Report, check: str, prefixes=()) -> Report:
    """A report of a check run on a mirrored structure, under the name of
    the check of the other hand.  Each tag has `left` and `right` swapped,
    then the first matching (old, new) tag prefix replaced.  Witness bases
    and values stay those of the mirrored spaces, whose tensor factors come
    in reverse order."""
    out = Report(check, rep.status)
    for w in rep.witnesses:
        tag = re.sub("left|right", lambda m: _OTHER_HAND[m.group()], w.equation)
        for old, new in prefixes:
            if tag.startswith(old):
                tag = new + tag[len(old):]
                break
        out.witnesses.append(Witness(tag, w.basis, w.lhs, w.rhs))
    return out
