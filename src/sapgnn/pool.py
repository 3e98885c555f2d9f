"""The holder pool: each phase's per-holder steps, run at once.

Holders compute at once. Each phase's per-holder work (a holder's setup
and NodeIndex lookup, its local layer, its placement of a global layer,
which scores the top one, its prediction gradient, its chain through a
local layer's backward, its checks and masking in the secure sum and its
optimizer step) runs as one step per holder on a process-wide pool: the calling
thread plus one worker pinned to each other usable CPU. Receivers take
their messages at once too: each sender's PartialSum round runs one step
per receiving holder, and the server's pooling (or the sealed pool's) one
step per contiguous range of rows, one range per thread. The server's maps
and accumulations and the GradShare round stay in the calling thread. A
step sends through an outbox of its own; the caller appends the outboxes
to the run's log in holder order, each record restamped with its position,
and adds what the server receives in holder order too. So the log, the
byte counts and every output read exactly as if the holders had run one
after another, on any number of CPUs. Every holder's step runs to its end;
if one is refused, the log reads as the sequential order would have left
it at that point and the lowest failing holder's error is raised.
Importing it sets numpy's bundled OpenBLAS to one thread, so outputs do
not depend on OPENBLAS_NUM_THREADS or on the number of CPUs.
This module imports nothing else from the package but `wire`.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import queue
import threading
from pathlib import Path

import numpy as np

from .wire import AuditLog, Channel

M_ARENA_MAX = -8     # glibc's mallopt parameter number


def _pin_openblas() -> int | None:
    """Set numpy's bundled OpenBLAS to one thread, as products round
    differently on another count; the count it then reports, or None."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        pin, get = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
    except (IndexError, AttributeError, OSError):   # no bundled scipy-openblas
        return None
    pin.argtypes, pin.restype, get.argtypes, get.restype = [ctypes.c_int], None, [], ctypes.c_int
    pin(1)
    return get()


OPENBLAS_THREADS = _pin_openblas()


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on (field 39 of its stat), or None."""
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as stat:
            return int(stat.read().rpartition(")")[2].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class _HolderPool:
    """The calling thread plus one worker thread per other usable CPU.

    Started once per process, at the first holder step. With one usable CPU
    it has no worker, and every step runs in the calling thread."""

    def __init__(self):
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        here = _current_cpu()
        self.usable_cpus = cpus
        self.worker_cpus = [cpu for cpu in cpus if cpu != here][:max(len(cpus) - 1, 0)]
        self.threads = len(self.worker_cpus) + 1
        self._work = queue.SimpleQueue()
        if self.worker_cpus:
            # One malloc arena for all threads. With an arena of its own per
            # worker, peak RSS rose 12.4% on p8-shares, 15.6% on uniform-sum
            # and 8.1% on skew-gated-secure (2 vCPUs); with one, -5% to +6%.
            try:
                ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
            except (AttributeError, OSError, TypeError):
                pass
        for cpu in self.worker_cpus:
            threading.Thread(target=self._serve, args=(cpu,), name=f"sapgnn-holders-{cpu}",
                             daemon=True).start()

    def _serve(self, cpu: int):
        # Pinned, because where the cpuset does not balance load the kernel
        # leaves a new thread on its parent's CPU: unpinned, two numpy threads
        # shared one of two vCPUs in 4 of 6 processes and ran at 0.67-0.89x
        # of serial; pinned, at 1.56-1.89x.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {cpu})
        while True:
            self._work.get()()


_pool: _HolderPool | None = None
_pool_lock = threading.Lock()
if hasattr(os, "register_at_fork"):   # a forked child has none of its parent's workers
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def holder_pool() -> _HolderPool:
    """The process's holder pool, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _HolderPool()
        return _pool


def each_holder(audit: AuditLog, n: int, step) -> list:
    """step(p, outbox) for every holder p < n (or every receiver of a round,
    or every range of rows), each claimed by the first free thread; the
    results in holder order. Every step runs to its end, so the
    holder state a failure leaves does not depend on the number of CPUs.

    Each step sends through its outbox, a channel on a log of its own. The
    outboxes are appended to `audit` in holder order, each record restamped
    with its position, so the log reads as if the holders had run one after
    another. If steps raise, the lowest failing holder's error is raised
    after the outboxes of the holders before it and its own."""
    pool = holder_pool()
    outboxes = [Channel(AuditLog()) for _ in range(n)]
    results, errors = [None] * n, [None] * n
    claim, finished = itertools.count(), [0]
    lock, done = threading.Lock(), threading.Event()

    def work():
        while (p := next(claim)) < n:
            try:
                results[p] = step(p, outboxes[p])
            except BaseException as exc:   # raised below, in holder order
                errors[p] = exc
            with lock:
                finished[0] += 1
                if finished[0] == n:
                    done.set()

    for _ in range(min(pool.threads, n) - 1):
        pool._work.put(work)
    work()
    if n:
        done.wait()
    for outbox, error in zip(outboxes, errors, strict=True):
        audit.extend(outbox.audit)
        if error is not None:
            raise error
    return results
