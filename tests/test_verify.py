"""The cross-checking suites themselves: deterministic, green, and
serializable.

Every suite compares two independent computation routes case by case; a
healthy tree runs all of them with zero mismatches.  The record format is
the machine-readable contract, so it must round-trip.
"""

import hashlib
import time
from fractions import Fraction

import pytest

from tilecount import VerificationReport, run_suite, verify
from tilecount.verify import (
    ORACLE_ORDER_CEILING,
    SUITE_NAMES,
    format_report,
    parse_record,
    report_record,
)


def test_every_suite_passes_small():
    for name in SUITE_NAMES:
        if name == "all":
            continue
        reports = run_suite(name, n=3, cases=3, seed=1)
        assert reports, name
        bad = [r for r in reports if not r.equal]
        assert not bad, (name, bad[:3])


def test_all_runs_every_suite():
    reports = run_suite("all", n=2, cases=2, seed=2)
    assert {r.suite for r in reports} == set(SUITE_NAMES) - {"all"}
    assert all(r.equal for r in reports)


def test_same_seed_same_cases():
    a = run_suite("stanley", cases=4, seed=9)
    b = run_suite("stanley", cases=4, seed=9)
    assert [report_record(r) for r in a] == [report_record(r) for r in b]


def test_seed_zero_case_stream_is_pinned():
    # every case id and both values of every case, in order
    reports = run_suite("all", seed=0)
    assert len(reports) == 452
    lines = "\n".join(report_record(r) for r in reports)
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "b4b831a59f5c61e08cbc4d934cf7c07138af75a3fc6535de4de364bf9d9b9588"
    )


def test_run_suite_stamps_suite_and_runtime():
    start = time.perf_counter()
    reports = run_suite("stanley", n=3, cases=3, seed=1)
    wall = time.perf_counter() - start
    assert reports and all(r.suite == "stanley" for r in reports)
    assert all(r.runtime >= 0 for r in reports)
    assert sum(r.runtime for r in reports) <= wall


@pytest.mark.parametrize("size", [{"n": 0}, {"n": -1}, {"cases": 0}, {"cases": -1}])
def test_sizes_below_one_rejected(size):
    with pytest.raises(ValueError):
        run_suite("stanley", **size)
    with pytest.raises(ValueError):
        run_suite("all", **size)


def test_oracle_order_ceiling(monkeypatch):
    # run by name, an order above the ceiling is refused; under "all" the
    # ceiling caps the oracle suite and every other suite gets n as given
    with pytest.raises(ValueError, match=f"<= {ORACLE_ORDER_CEILING}"):
        run_suite("oracle-vs-reduce", n=ORACLE_ORDER_CEILING + 1)
    seen = {}

    def recorder(name):
        def suite(rng, n, cases):
            seen[name] = n
            return iter(())

        return suite

    for name in list(verify._SUITES):
        monkeypatch.setitem(verify._SUITES, name, recorder(name))
    run_suite("all", n=ORACLE_ORDER_CEILING + 3)
    assert seen == {
        name: ORACLE_ORDER_CEILING if name == "oracle-vs-reduce" else ORACLE_ORDER_CEILING + 3
        for name in verify._SUITES
    }


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything")


def test_record_round_trip():
    r = VerificationReport(
        suite="stanley",
        case="wrap-3",
        route_a=Fraction(22, 7),
        route_b=Fraction(22, 7),
        equal=True,
        runtime=0.25,
    )
    back = parse_record(report_record(r))
    assert (back.suite, back.case) == (r.suite, r.case)
    assert back.route_a == r.route_a and back.route_b == r.route_b
    assert back.equal is True


def test_record_keeps_disagreements():
    r = VerificationReport("s", "c", Fraction(1), Fraction(2), False, 0.0)
    back = parse_record(report_record(r))
    assert back.equal is False
    assert back.route_a != back.route_b


def test_parse_record_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_record("too few fields")


def test_format_report_flags_failures():
    good = VerificationReport("s", "c", Fraction(1), Fraction(1), True, 0.001)
    bad = VerificationReport("s", "c", Fraction(1), Fraction(2), False, 0.001)
    assert "ok" in format_report(good)
    assert "FAIL" in format_report(bad)
