"""The package's one worker-process policy (README, "Worker processes").

The process modules load when first needed: ``multiprocessing`` with the
first ``usable_cpus`` call, ``concurrent.futures`` with the first pool
that starts a worker.  A command that does neither never loads them."""

from __future__ import annotations

import functools
import os
import types
from typing import Callable, Optional


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 inside a worker process."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor(n: int):
    """A process pool of ``n`` workers: the one place a worker is started."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=n)


class Pool:
    """min(calls, cap) worker processes, ``cap`` being by default the
    usable CPUs less the ``here`` that the caller keeps busy itself, and
    none unless they and ``here`` come to at least two.  Leaving the block
    cancels the calls not yet started and waits for the workers."""

    def __init__(self, calls: int, cap: Optional[int] = None, here: int = 0) -> None:
        workers = min(calls, usable_cpus() - here if cap is None else cap)
        self._executor = _executor(workers) if workers + here >= 2 else None

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)

    def submit(self, task: Callable, *args):
        """A future of ``task(*args)``, or one that makes the call here."""
        if self._executor is None:
            return types.SimpleNamespace(result=functools.partial(task, *args))
        return self._executor.submit(task, *args)
