"""End-to-end verification criteria.

Runs the built-in suite once per module and asserts each criterion on
its own, so a failure names the exact published claim that broke.  One
criterion records a known shortfall (the flat-floor gap-growth clause of
A9) and is pinned to its documented behavior instead of a pass.
"""

import contextlib
import hashlib
import io
import json
import multiprocessing

import pytest

from vanishdamp import acceptance
from vanishdamp.cli import main

EXPECTED_IDS = [f"A{k}" for k in range(1, 14)]

# SHA-256 of every criterion's id, title, verdict, detail and measured
# numbers (the JSON of ``as_dict`` without ``seconds``, keys sorted)
RESULTS_SHA256 = "1bddd5b63784f88bd4f271e8209a164714cfa31e76c46387af12daf0ed5c1405"


def _rows(results):
    return [{k: v for k, v in r.as_dict().items() if k != "seconds"} for r in results]


@pytest.fixture(scope="module")
def full_run():
    """The whole suite's results by id, and the results of every fixture
    as that run built them."""
    built = {}
    fixture = acceptance._Suite.fixture

    def keep(self, name):
        built[name] = fixture(self, name)
        return built[name]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance._Suite, "fixture", keep)
        results = acceptance.run_criteria()
    return {r.criterion_id: r for r in results}, built


@pytest.fixture(scope="module")
def suite(full_run):
    return full_run[0]


def test_suite_covers_every_criterion(suite):
    assert list(suite) == EXPECTED_IDS
    assert [cid for cid, _ in acceptance.list_criteria()] == EXPECTED_IDS


def test_results_carry_the_listed_titles(suite):
    assert [(r.criterion_id, r.title) for r in suite.values()] == acceptance.list_criteria()


def test_results_are_pinned(suite):
    text = json.dumps(_rows(suite.values()), sort_keys=True)
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


# ---------------------------------------------------------------------------
# the process pool that every criterion's runs are submitted to up front

# criteria whose runs are cheap: a singular run, four decay runs, a slow
# decay run, three flat-floor runs, three matched runs, six recursions
# and two planar runs
POOLED = ["A1", "A2", "A3", "A6", "A7", "A12", "A13"]


def test_pool_started_by_spawn_gives_the_same_results(suite, record_pools):
    # the tasks and their arguments pickle, and a worker that starts from a
    # fresh interpreter computes what the default run computed
    sizes = record_pools(2, mp_context=multiprocessing.get_context("spawn"))
    results = acceptance.run_criteria(POOLED)
    assert sizes == [2]
    assert multiprocessing.active_children() == []
    assert _rows(results) == _rows(suite[cid] for cid in POOLED)


def test_one_cpu_starts_no_process(suite, record_pools):
    sizes = record_pools(1)
    results = acceptance.run_criteria(POOLED)
    assert sizes == []
    assert multiprocessing.active_children() == []
    assert _rows(results) == _rows(suite[cid] for cid in POOLED)


def test_solver_failure_in_a_worker_exits_3(monkeypatch, capsys, record_pools):
    # a step of 1e6 makes every A12 recursion diverge inside its worker;
    # six recursions take six of eight CPUs
    sizes = record_pools(8)
    monkeypatch.setattr(acceptance, "_A12_EPS", 1e6)
    assert main(["verify", "--only", "A12"]) == 3
    assert "solver failure (NonFiniteState)" in capsys.readouterr().err
    assert sizes == [6]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, pools", [(2, [2]), (1, [])], ids=["2cpus", "1cpu"])
def test_solver_failure_is_raised_when_its_criterion_is_judged(
        monkeypatch, record_pools, cpus, pools):
    # A1's run and A12's diverging recursions are submitted together, but
    # A1 is judged and reported before A12 reads a failed recursion, in a
    # pool or, on one CPU, in this process
    sizes = record_pools(cpus)
    monkeypatch.setattr(acceptance, "_A12_EPS", 1e6)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        assert main(["verify", "--only", "A1,A12"]) == 3
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("A1 PASS")
    assert lines[1].startswith("solver failure (NonFiniteState)")
    assert sizes == pools
    assert multiprocessing.active_children() == []


def test_one_run_starts_no_process(capsys, record_pools):
    sizes = record_pools(2)
    assert main(["verify", "--only", "A1"]) == 0
    assert capsys.readouterr().out.startswith("A1 PASS")
    assert sizes == []


@pytest.mark.parametrize("cid", EXPECTED_IDS)
def test_criterion_reads_the_fixtures_it_declares(full_run, monkeypatch, record_pools, cid):
    # alone on one CPU, so that no run starts, a criterion reads its
    # fixtures from the full run; the recorded reads must be exactly its
    # declaration, which is what the pool is given: a stale name would
    # start runs no one reads, a missing one would raise KeyError
    results, built = full_run
    sizes = record_pools(1)
    read = []

    def fixture(self, name):
        read.append(name)
        return built[name]

    monkeypatch.setattr(acceptance._Suite, "fixture", fixture)
    assert _rows(acceptance.run_criteria([cid])) == _rows([results[cid]])
    assert sizes == []
    [declared] = [reads for c, _, reads, _ in acceptance._CRITERIA if c == cid]
    assert sorted(set(read)) == sorted(declared)
