"""Per-identity verification outcomes, serializable for the CLI."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .qseries import _fraction, equals_to_order


@dataclass(frozen=True)
class VerificationReport:
    name: str
    params: dict
    trunc: Fraction
    passed: bool
    first_mismatch: Optional[tuple[Fraction, int, int]]
    wall_time_ms: float
    notes: str = ""

    def to_json_dict(self) -> dict:
        mism = None
        if self.first_mismatch is not None:
            e, lhs, rhs = self.first_mismatch
            mism = {"exponent": [e.numerator, e.denominator], "lhs": lhs, "rhs": rhs}
        out = {
            "name": self.name,
            "params": {k: _jsonable(v) for k, v in sorted(self.params.items())},
            "trunc": [self.trunc.numerator, self.trunc.denominator],
            "pass": self.passed,
            "first_mismatch": mism,
            "wall_time_ms": round(self.wall_time_ms, 3),
        }
        if self.notes:
            out["notes"] = self.notes
        return out

    def text_row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.first_mismatch is not None:
            e, lhs, rhs = self.first_mismatch
            extra = f"  first mismatch at q^({e}): {lhs} vs {rhs}"
        ptxt = " ".join(f"{k}={_jsonable(v)}" for k, v in sorted(self.params.items()))
        return f"{status}  {self.name}  [{ptxt}] trunc={self.trunc}{extra}"


def _jsonable(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


class ReportBuilder:
    """The report rows of one call, all at one truncation.

    Each row is timed from the end of the previous row (the first from the
    builder's creation), so no second is counted twice.
    """

    def __init__(self, trunc) -> None:
        self.trunc = _fraction(trunc)
        self.reports: list[VerificationReport] = []
        self._mark = time.perf_counter()

    def add(self, name: str, params: dict, *checks) -> VerificationReport:
        """Append one row; it passes when every check passes.

        A check is (label, lhs, rhs) for two series compared to the
        truncation, or (label, ok, mismatch) for a verdict found otherwise.
        The first failing check gives the row its first mismatch and, as its
        label, its notes.  A series check with no term at or below the
        truncation on either side compares nothing, and raises ValueError
        naming its label; a verdict check never does.
        """
        passed, notes, first = True, "", None
        for label, x, y in checks:
            if isinstance(x, bool):
                ok, mismatch = x, y
            elif any(s.terms and s.min_exponent() <= self.trunc for s in (x, y)):
                ok, mismatch = equals_to_order(x, y, self.trunc)
            else:
                check = f" in check {label!r}" if label else ""
                raise ValueError(f"{name} compares nothing{check}: neither side has a term at or below trunc {self.trunc}")
            if passed and not ok:
                passed, notes, first = False, label, mismatch
        now = time.perf_counter()
        ms = (now - self._mark) * 1000.0
        self._mark = now
        report = VerificationReport(name, params, self.trunc, passed, first, ms, notes)
        self.reports.append(report)
        return report
