"""End-to-end verification criteria.

Runs the built-in suite once per module and asserts each criterion on
its own, so a failure names the exact published claim that broke.  One
criterion records a known shortfall (the flat-floor gap-growth clause of
A9) and is pinned to its documented behavior instead of a pass.
"""

import hashlib
import json

import pytest

from vanishdamp import acceptance

EXPECTED_IDS = [f"A{k}" for k in range(1, 14)]

# SHA-256 of every criterion's id, title, verdict, detail and measured
# numbers (the JSON of ``as_dict`` without ``seconds``, keys sorted)
RESULTS_SHA256 = "1bddd5b63784f88bd4f271e8209a164714cfa31e76c46387af12daf0ed5c1405"


@pytest.fixture(scope="module")
def suite():
    results = acceptance.run_criteria()
    return {r.criterion_id: r for r in results}


def test_suite_covers_every_criterion(suite):
    assert list(suite) == EXPECTED_IDS
    assert [cid for cid, _ in acceptance.list_criteria()] == EXPECTED_IDS


def test_results_carry_the_listed_titles(suite):
    assert [(r.criterion_id, r.title) for r in suite.values()] == acceptance.list_criteria()


def test_results_are_pinned(suite):
    rows = [{k: v for k, v in r.as_dict().items() if k != "seconds"} for r in suite.values()]
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RESULTS_SHA256


@pytest.mark.parametrize("cid", [c for c in EXPECTED_IDS if c != "A9"])
def test_criterion_passes(suite, cid):
    result = suite[cid]
    print(result.line())
    assert result.passed, result.detail


def test_criterion_a9_period_holds_gap_growth_does_not(suite):
    """The trapped-well period clause passes; the flat-floor clause cannot.

    Between flat-floor crossings the system coasts, so consecutive
    crossing gaps grow linearly and their spread over any long window is
    far above the factor-2 target.  The criterion reports that honestly
    rather than loosening the target, and this test pins the measured
    shape: period matched, gap-growth clause failed, criterion failed.
    """
    result = suite["A9"]
    print(result.line())
    assert result.measured["period_ok"] is True
    assert result.measured["log_ok"] is False
    assert not result.passed
