"""The one worker-process policy: how many workers a ``Pool`` starts, and
what runs in their place."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from vanishdamp import workers


def test_a_worker_sees_one_usable_cpu(record_pools):
    # so a worker never starts workers of its own
    record_pools(4)
    assert workers.usable_cpus() == 4
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(workers.usable_cpus).result() == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "calls, cap, here, cpus, started",
    [
        (1, None, 1, 2, [1]),  # a run's recursion beside its integration
        (1, None, 1, 1, []),  # the same on one CPU
        (0, None, 1, 2, []),  # nothing to run beside the integration
        (20, None, 0, 2, [2]),  # verify
        (1, None, 0, 8, []),  # verify of a single run
        (3, 1000, 0, 1, [3]),  # sweep --jobs 1000 of 3 rows: the cap is not clamped
        (3, 1, 0, 8, []),  # sweep --jobs 1
    ],
    ids=["run", "run_1cpu", "run_idle", "verify", "verify_1run", "sweep_jobs1000", "sweep_jobs1"],
)
def test_pool_size(record_pools, calls, cap, here, cpus, started):
    # a pool given no call starts no process
    sizes = record_pools(cpus)
    with workers.Pool(calls, cap, here):
        pass
    assert sizes == started


def test_without_workers_a_call_is_made_when_its_result_is_read(record_pools):
    sizes = record_pools(1)
    made = []
    with workers.Pool(2) as pool:
        first = pool.submit(made.append, 1)
        failing = pool.submit(int, "one")
        assert made == []
        with pytest.raises(ValueError):
            failing.result()
        first.result()
        assert made == [1]
    assert sizes == []
