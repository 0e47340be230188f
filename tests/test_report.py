"""The report row builder: timing, merged checks and JSON rows."""

from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from raytheta import report
from raytheta.qseries import QSeries
from raytheta.report import ReportBuilder

ONE = QSeries.from_exponents({0: 1, 1: 2}, 4)
OTHER = QSeries.from_exponents({0: 1, 1: 3}, 4)


def test_row_times_run_from_the_previous_row(monkeypatch):
    ticks = iter([10.0, 10.5, 12.0, 12.25])
    monkeypatch.setattr(report, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    rows = ReportBuilder(4)
    rows.add("a", {}, ("", ONE, ONE))
    rows.add("b", {}, ("", ONE, OTHER))
    rows.add("c", {}, ("", True, None))
    assert [r.wall_time_ms for r in rows.reports] == [500.0, 1500.0, 250.0]
    # the rows tile the builder's lifetime: no second is counted twice
    assert sum(r.wall_time_ms for r in rows.reports) == 2250.0


def test_merged_checks_report_the_first_failure():
    rows = ReportBuilder(F(4))
    ok = rows.add("ok", {"k": 1}, ("first", ONE, ONE), ("second", True, None))
    assert ok.passed and ok.first_mismatch is None and ok.notes == ""
    series_first = rows.add(
        "series", {}, ("first", ONE, ONE), ("second", ONE, OTHER), ("third", False, (F(0), 5, 6))
    )
    assert not series_first.passed
    assert series_first.notes == "second"
    assert series_first.first_mismatch == (F(1), 2, 3)
    verdict_first = rows.add("verdict", {}, ("first", False, (F(0), 5, 6)), ("second", ONE, OTHER))
    assert verdict_first.notes == "first"
    assert verdict_first.first_mismatch == (F(0), 5, 6)
    unlabelled = rows.add("bare", {}, ("", ONE, OTHER))
    assert not unlabelled.passed and "notes" not in unlabelled.to_json_dict()
    assert [r.name for r in rows.reports] == ["ok", "series", "verdict", "bare"]
    assert all(r.trunc == F(4) for r in rows.reports)


def test_a_row_that_compares_no_term_is_refused():
    late = QSeries.from_exponents({5: 1}, 8)
    rows = ReportBuilder(F(4))
    with pytest.raises(ValueError, match="compares nothing"):
        rows.add("empty", {}, ("", late, late))
    with pytest.raises(ValueError, match="compares nothing"):
        rows.add("zero", {}, ("", QSeries.zero(4), QSeries.zero(4)), ("", True, None))
    # every series check must compare a term: one empty check refuses the
    # row and is named, even beside a check that compares; verdicts never raise
    with pytest.raises(ValueError, match="some compares nothing in check 'late form'"):
        rows.add("some", {}, ("early form", ONE, ONE), ("late form", late, late))
    assert rows.add("one_side", {}, ("", ONE, late), ("", late, ONE)).passed is False
    assert rows.add("verdict", {}, ("", True, None)).passed
    assert [r.name for r in rows.reports] == ["one_side", "verdict"]
