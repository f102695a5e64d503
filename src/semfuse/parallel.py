"""One worker thread per process, for the parts of a scan that do not
depend on each other.

`beside(fn, *args)` runs `fn(*args)` on the worker while the body of its
`with` block runs on the calling thread, and waits for the job when the
block ends, also when the body raises. Callers split work only by rows of a
row-wise kernel or between independent steps, never inside a reduction, so
every output has the bits of the serial computation. The job is the
earlier step in serial order, so its error wins over the body's. A caller
allocates every array that outlives its call: glibc gives each allocating
thread its own arena, which would hold such arrays apart.

A job runs inline on the caller, as the same function, when the process
has one usable core and when the worker is busy (a job started inside
another job's body, by a job, or from a second calling thread), so no job
waits behind another. A forked child starts its own worker on first use.
There is no setting.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_busy = False


def _forget_worker() -> None:
    # a forked child has no copy of the parent's worker thread, so the
    # parent's executor would queue the child's jobs forever
    global _lock, _pool, _busy
    _lock, _pool, _busy = threading.Lock(), None, False


if hasattr(os, "register_at_fork"):  # a platform without fork has no child to mend
    os.register_at_fork(after_in_child=_forget_worker)


def _cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else every core."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _claim() -> ThreadPoolExecutor | None:
    """The worker, marked busy, if a second core is usable and the worker
    is free; None otherwise."""
    global _pool, _busy
    if _cores() < 2:
        return None
    with _lock:
        if _busy:
            return None
        _busy = True
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="semfuse")
        return _pool


def _free() -> None:
    global _busy
    with _lock:
        _busy = False


def _run_and_free(fn, args):
    try:
        return fn(*args)
    finally:
        _free()


class Job:
    """`fn(*args)`, started on the worker or run inline at once."""

    def __init__(self, fn, args):
        self._future = None
        pool = _claim()
        if pool is not None:
            try:
                self._future = pool.submit(_run_and_free, fn, args)
            except RuntimeError:
                # the executor refuses new jobs once the interpreter exits
                _free()
        if self._future is None:
            self._value = fn(*args)

    def result(self):
        """The job's value once it has finished; raises its error."""
        return self._value if self._future is None else self._future.result()


@contextmanager
def beside(fn, *args):
    """Run `fn(*args)` on the worker during the block; yields its Job."""
    job = Job(fn, args)
    try:
        yield job
    finally:
        job.result()


def split_rows(fn, n: int, block: int = 1) -> None:
    """`fn(lo, hi)` over the rows [0, n): the worker takes the first half of
    the `block`-row blocks and the caller the rest. Fewer than two blocks
    run on the caller alone."""
    blocks = -(-n // block)
    at = blocks // 2 * block
    if at == 0:
        fn(0, n)
        return
    with beside(fn, 0, at):
        fn(at, n)
