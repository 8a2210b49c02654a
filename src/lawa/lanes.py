"""Two lanes of work: one on a worker thread, one on the calling thread.

The wide pieces of a training step are independent: the optimizer's
blocks, and ``backward``'s weight-gradient and input-gradient products.
Each piece is a run of numpy and BLAS calls that release the GIL, so on
a host with a second CPU two can run at once. Each piece writes only its
own arrays, so the results are bitwise those of running them one after
the other. Handing a piece to the worker costs a wake-up and GIL
hand-offs, so the callers share only pieces large enough to pay for
that (``optim.LANE_BLOCKS``, ``engine.LANE_PRODUCT``).

The worker does not always wake at once: on a 2-CPU virtual machine
whose second CPU had gone idle, a wake-up took 0.05 to 0.17 ms in the
median and over 1 ms in one call of ten. So :func:`share` hands the
pieces out one at a time to whichever lane is free, rather than dealing
them out in advance, and :func:`fork_join` runs the worker's half on the
calling thread when the worker has not begun it by the time the
caller's half is done.

The worker is the one thread of a ``ThreadPoolExecutor``, made by the
first :func:`fork_join` and kept for the life of the process;
``concurrent.futures`` is imported then, not before. A process forked
after that makes its own, as the parent's thread does not exist in the
child.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool = None  # (pid of the process that made it, its single-thread executor)
_making = threading.Lock()


def _worker():
    """This process's single-thread executor, made on first use."""
    global _pool
    with _making:
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _pool = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="lawa-lane"))
        return _pool[1]


def _wait(future) -> BaseException | None:
    """What the call of a begun ``future`` raised, or None, once the call
    has returned. An exception that interrupts the wait, such as a signal
    handler's KeyboardInterrupt, is raised then, not while the call may
    still be writing."""
    interrupted = None
    while True:
        try:
            error = future.exception()
        except BaseException as exc:
            interrupted = exc
            continue
        if interrupted is not None:
            raise interrupted
        return error


def fork_join(on_worker: Callable[[], object], here: Callable[[], object]) -> None:
    """Run ``on_worker`` on the worker thread and ``here`` on the calling
    thread; return once both are done.

    ``on_worker`` runs on the calling thread instead, after ``here``, if
    the worker has not begun it by then, and not at all if ``here``
    raised first. If either half raised, that exception is raised
    (``here``'s when both did) once neither half is running, so no write
    of either half follows the return or the raise. The halves must not
    write what the other reads or writes.
    """
    future = _worker().submit(on_worker)
    try:
        here()
    except BaseException:
        if not future.cancel():
            _wait(future)
        raise
    if future.cancel():
        on_worker()
    else:
        error = _wait(future)
        if error is not None:
            raise error


def share(items: Sequence[T], work: Callable[[int, T], object]) -> None:
    """Call ``work(lane, item)`` once for every item.

    With a second CPU and two items or more, the items go to two lanes
    that each take the next item neither has taken: lane 0 on this thread
    and lane 1 through :func:`fork_join`. Returns, or raises, as that
    does; a lane that raises takes no more items. Otherwise lane 0 takes
    them all, in order. ``work`` must give the same result whichever lane
    runs it.
    """
    if len(items) < 2 or _cpu_count() < 2:
        for item in items:
            work(0, item)
        return
    pending = iter(items)  # a sequence's iterator hands out each item once

    def lane(k: int) -> None:
        for item in pending:
            work(k, item)

    fork_join(partial(lane, 1), partial(lane, 0))
