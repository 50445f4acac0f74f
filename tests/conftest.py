"""Shared fixture runs, integrated once per session, the recorder of the
worker pools a command starts, and the counter of a loop's calls."""

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from vanishdamp import (
    Constant,
    DoubleWell,
    FlatBottom,
    PowerLaw,
    Quadratic,
    SystemSpec,
    integrate,
)
from vanishdamp import workers


@pytest.fixture
def record_pools(monkeypatch):
    """``record_pools(cpus, **options)`` gives ``workers`` ``cpus`` usable
    CPUs and returns a list that collects the size of every pool started in
    this process; ``options`` go to each pool.  A pool started inside a
    worker process fails the task that started it."""

    def record(cpus, **options):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        sizes = []

        def pool(max_workers):
            assert multiprocessing.parent_process() is None, "a worker started workers"
            sizes.append(max_workers)
            return ProcessPoolExecutor(max_workers=max_workers, **options)

        monkeypatch.setattr(workers, "_executor", pool)
        return sizes

    return record


@pytest.fixture
def calls_from():
    """``calls_from(func, thunk)`` runs ``thunk()`` and returns its result
    and the Python and C calls made from ``func``'s own frame.  Unlike a
    timing, the count is deterministic, so a bound on it cannot flake on
    a busy or shared host."""

    def count(func, thunk):
        code = func.__code__
        calls = 0

        def hook(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += frame.f_back is not None and frame.f_back.f_code is code
            elif event == "c_call":
                calls += frame.f_code is code

        before = sys.getprofile()
        sys.setprofile(hook)
        try:
            result = thunk()
        finally:
            sys.setprofile(before)
        return result, calls

    return count


@pytest.fixture(scope="session")
def j_run():
    """Singular 1/t damping on the unit quadratic, to t = 50."""
    return integrate(
        SystemSpec(
            schedule=PowerLaw(c=1.0, gamma=1.0, s0=0.0),
            potential=Quadratic(1),
            x0=1.0,
            v0=0.0,
            t_end=50.0,
            rel_tol=1e-9,
        )
    )


@pytest.fixture(scope="session")
def j_run_long():
    """Same system out to t = 200 for event-spacing statistics."""
    return integrate(
        SystemSpec(
            schedule=PowerLaw(c=1.0, gamma=1.0, s0=0.0),
            potential=Quadratic(1),
            x0=1.0,
            v0=0.0,
            t_end=200.0,
            rel_tol=1e-9,
        )
    )


@pytest.fixture(scope="session")
def well_run():
    """Double well under 1/(t+1) damping, the oscillating-trap run."""
    return integrate(
        SystemSpec(
            schedule=PowerLaw(c=1.0, gamma=1.0, s0=1.0),
            potential=DoubleWell(),
            x0=0.37,
            v0=1.1,
            t_end=1.0e4,
            rel_tol=1e-6,
        )
    )


@pytest.fixture(scope="session")
def flat_sweep_run():
    """Flat floor under 1/(t+1) damping: persistent coasting."""
    return integrate(
        SystemSpec(
            schedule=PowerLaw(c=1.0, gamma=1.0, s0=1.0),
            potential=FlatBottom(1),
            x0=0.0,
            v0=1.5,
            t_end=1.0e5,
            rel_tol=1e-9,
        )
    )


@pytest.fixture(scope="session")
def flat_settle_run():
    """Flat floor under 1/(t+1)^0.5 damping: settles inside the floor."""
    return integrate(
        SystemSpec(
            schedule=PowerLaw(c=1.0, gamma=0.5, s0=1.0),
            potential=FlatBottom(1),
            x0=0.0,
            v0=1.5,
            t_end=1.0e4,
            rel_tol=1e-9,
        )
    )


@pytest.fixture(scope="session")
def constant_well_run():
    """Double well under constant unit damping: fast settling."""
    return integrate(
        SystemSpec(
            schedule=Constant(1.0),
            potential=DoubleWell(),
            x0=0.37,
            v0=1.1,
            t_end=1.0e2,
            rel_tol=1e-9,
        )
    )
