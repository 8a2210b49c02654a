"""Two lanes of work: lane 0 on the calling thread, lane 1 on a worker.

The wide pieces of a training step or an inference walk are
independent: the optimizer's blocks, ``backward``'s weight-gradient and
input-gradient products, the two row halves of a wide hidden layer's
``h @ w + b`` in the training ``forward``, and the row blocks of a wide
inference walk, each of which one lane carries through every hidden
layer. Each piece is a run of numpy and BLAS calls that release the GIL,
so on a host with a second CPU two can run at once. Each piece writes
only its own arrays, so the results are bitwise those of running them
one after the other. How a caller splits its work depends on the shapes
alone, never on the CPU count, so the CPU count changes no bit; a row
half or block is bitwise the whole product's rows when it holds at least
8 rows, which a test checks on the host's BLAS at the benchmark's
shapes. What no row split may change stays whole and in order: the
output layer's product, the batch-norm statistics (summed per block of
rows, then in row order) and every loss sum. Handing a piece to the
worker costs a wake-up and GIL hand-offs, so each caller tells
:func:`share` whether its pieces pay for that (``optim.LANE_BLOCKS``,
``engine.LANE_PRODUCT``).

:func:`share` submits lane 1 to the worker and runs lane 0 itself, and
each lane takes the next piece neither has taken. Lane 0 returns once
every piece is taken; lane 1 is then cancelled if the worker has not
begun it, or else waited for, and the caller's error is raised first,
or else the worker's. Pieces are not dealt out in advance because the
worker does not always wake at once: on a 2-CPU virtual machine whose
second CPU had gone idle, a wake-up took 0.05 to 0.17 ms in the median
and over 1 ms in one call of ten.

The worker is the one thread of a ``ThreadPoolExecutor``, made by the
first shared call and kept for the life of the process;
``concurrent.futures`` is imported then, not before. A process forked
after that makes its own, as the parent's thread does not exist in the
child.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# The lanes of a shared call: 0 on the calling thread, 1 on the worker.
LANES = 2


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


def share(items: Sequence[T], work: Callable[[int, T], object], wide: bool) -> None:
    """Call ``work(lane, item)`` once for every item.

    Items ``wide`` enough to pay for a second lane, two or more, go on a
    second CPU to two lanes that each take the next item neither has
    taken: lane 0 on this thread, lane 1 on the worker. A lane that
    raises takes no more items. The call returns, or raises (lane 0's
    error when both lanes raised), once neither lane is running, so no
    write of either follows it. Otherwise lane 0 takes them all, in
    order; narrow items count no CPUs. ``work`` must give the same
    result whichever lane runs it, and two items must not write what the
    other reads or writes.
    """
    if not wide or len(items) < 2 or _cpu_count() < 2:
        for item in items:
            work(0, item)
        return
    # A sequence's iterator hands out each item once. The worker's task
    # reaches the items and ``work`` only through this list, emptied once
    # lane 1 is cancelled or done: a worker that has not yet dropped the
    # task, or a cancelled task still queued, keeps none of their arrays.
    shared = [iter(items), work]

    def lane(k: int) -> None:
        pending, run = shared
        for item in pending:
            run(k, item)

    on_worker = _worker().submit(lane, 1)
    try:
        lane(0)
    except BaseException:
        if not on_worker.cancel():
            _wait(on_worker)
        shared.clear()
        raise
    error = None if on_worker.cancel() else _wait(on_worker)
    shared.clear()
    if error is not None:
        raise error
