"""The holder pool's contract (`pool.each_holder`), on any number of CPUs.

The results and the log read as if the steps had run one after another in
holder order, whichever thread ran each step and whenever it finished.
"""

import threading
import time

import numpy as np
import pytest

from sapgnn.pool import each_holder, holder_pool
from sapgnn.wire import AuditLog, MessageKind, holder_party


def send_seeds(outbox, p, count):
    """Holder p sends `count` GradShares to the server through its outbox."""
    for _ in range(count):
        outbox.send(holder_party(p), "server", MessageKind.GRAD_SHARE, -1, 0,
                    {"seed": np.full(4, p, dtype=np.uint64)}, p)


def test_results_come_back_in_holder_order_when_steps_finish_out_of_order():
    n = 2 * holder_pool().threads + 2
    finished, lock = [], threading.Lock()

    def step(p, _outbox):
        time.sleep(0.01 * (n - p))         # a lower holder takes longer
        with lock:
            finished.append(p)
        return p * p

    assert each_holder(AuditLog(), n, step) == [p * p for p in range(n)]
    assert sorted(finished) == list(range(n))
    if holder_pool().threads > 1:
        assert finished != sorted(finished)


@pytest.mark.parametrize("n", [0, 1, "more-than-threads"])
def test_every_step_runs_once(n):
    if n == "more-than-threads":
        n = 3 * holder_pool().threads + 1
    ran, lock = [], threading.Lock()
    audit = AuditLog()

    def step(p, outbox):
        with lock:
            ran.append(p)
        send_seeds(outbox, p, 1)
        return p

    assert each_holder(audit, n, step) == list(range(n))
    assert sorted(ran) == list(range(n))
    assert [r.sender for r in audit.records] == [holder_party(p) for p in range(n)]


def test_every_step_runs_to_its_end_when_an_earlier_step_raises():
    n = holder_pool().threads + 2
    ended = set()

    def step(p, _outbox):
        if p == 0:
            raise ValueError("holder 0 refuses")
        time.sleep(0.005)
        ended.add(p)

    with pytest.raises(ValueError, match="holder 0 refuses"):
        each_holder(AuditLog(), n, step)
    assert ended == set(range(1, n))


def test_the_lowest_failure_is_raised_after_the_log_up_to_its_step():
    # holders 1 and 3 send and then fail: the log holds holder 0's and
    # holder 1's records, in holder order, stamped with their positions
    # after what the log held before; holder 1's error is raised
    audit = AuditLog()
    audit.append("server", "holder-0", "GradShare", "seed", -1, 0, 67)

    def step(p, outbox):
        send_seeds(outbox, p, p + 1)
        if p in (1, 3):
            raise RuntimeError(f"holder {p} refuses")
        return p

    with pytest.raises(RuntimeError, match="holder 1 refuses"):
        each_holder(audit, 5, step)
    assert [r.sender for r in audit.records] == ["server", "holder-0", "holder-1", "holder-1"]
    assert [r.ts for r in audit.records] == [0, 1, 2, 3]
