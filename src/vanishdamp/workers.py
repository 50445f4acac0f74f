"""The package's one worker-process policy (README, "Worker processes")."""

from __future__ import annotations

import functools
import multiprocessing
import os
import types
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 inside a worker process."""
    if multiprocessing.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Pool:
    """min(calls, cap) worker processes, ``cap`` being by default the
    usable CPUs less the ``here`` that the caller keeps busy itself, and
    none unless they and ``here`` come to at least two.  Leaving the block
    cancels the calls not yet started and waits for the workers."""

    def __init__(self, calls: int, cap: Optional[int] = None, here: int = 0) -> None:
        workers = min(calls, usable_cpus() - here if cap is None else cap)
        self._executor = ProcessPoolExecutor(max_workers=workers) if workers + here >= 2 else None

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
