"""Check reports shared by the verification commands.

A Report is an ordered list of CheckResult rows with stable ids.  Statuses:
pass / fail / indeterminate / external-dependency.  Only "fail" makes a
report unsuccessful; indeterminate and external-dependency rows are listed
but do not fail a run.  Rows are frozen values, final when a suite adds
them, so Report.extend can share them between reports.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import format_rational
from .values import Value, set_field

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"
EXTERNAL = "external-dependency"

SCHEMA_VERSION = 1


def jsonable(value):
    """Render values with exact rationals as 'p/q' strings, recursively."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


class CheckResult(Value):
    __slots__ = ("id", "statement", "status", "value", "note")

    def __init__(self, id: str, statement: str, status: str, value: object = None,
                 note: str = ""):
        set_field(self, "id", id)
        set_field(self, "statement", statement)
        set_field(self, "status", status)
        set_field(self, "value", value)
        set_field(self, "note", note)

    def as_dict(self) -> dict:
        d = {"id": self.id, "statement": self.statement, "status": self.status,
             "value": jsonable(self.value)}
        if self.note:
            d["note"] = self.note
        return d


class Report(Value):
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult] | None = None):
        set_field(self, "checks", [] if checks is None else checks)

    def add(self, id: str, statement: str, ok: bool, value=None, note: str = "") -> CheckResult:
        return self.add_status(id, statement, PASS if ok else FAIL, value, note)

    def add_status(self, id: str, statement: str, status: str, value=None,
                   note: str = "") -> CheckResult:
        r = CheckResult(id, statement, status, value, note)
        self.checks.append(r)
        return r

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __getitem__(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)
