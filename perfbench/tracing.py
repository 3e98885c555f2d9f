"""Span tracing of the program's layers, installed from outside the program.

The benchmark wraps named attributes of the program's modules (for example
`sapgnn.protocol.local_embedding`, which protocol imports by name) with timing
wrappers. Each call records a span: name, start, end and parent. Spans stay in
memory until the run ends. A layer's self time is its spans' time minus the
time their child spans cover.

A hook whose module or attribute no longer exists is reported missing by
name; the run carries on and every metric that depends on it is reported
missing, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# The program marks "this holder knows nothing about this node" with rows at
# the most negative finite float64; anything below half of it is a sentinel.
SENTINEL_THRESHOLD = float(np.finfo(np.float64).min) / 2

# Time the tracer spends inspecting messages; excluded from every layer's
# self time and counted as tracing overhead.
OBSERVE_SPAN = "trace.observe"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int     # index into Tracer.spans; -1 at the root

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = Span(name, time.perf_counter_ns(), 0, parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn, observe=None):
        """`fn` traced as span `name`; `observe(args, kwargs, result)` runs
        after the span closes, inside its own OBSERVE_SPAN."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                with self.span(OBSERVE_SPAN):
                    observe(args, kwargs, result)
            return result
        return traced

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration_ns
        return out

    def by_name(self) -> dict[str, dict]:
        """Per span name: call count, inclusive and self nanoseconds."""
        totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for s, own in zip(self.spans, self.self_ns()):
            t = totals[s.name]
            t["calls"] += 1
            t["total_ns"] += s.duration_ns
            t["self_ns"] += own
        return dict(totals)


@dataclass(frozen=True)
class Hook:
    span: str       # span name the wrapper records
    module: str
    attr: str       # "function" or "Class.method"

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("graphs.generate", "sapgnn.protocol", "generate_synthetic"),
    Hook("graphs.partition", "sapgnn.protocol", "split_edges_uniform"),
    Hook("graphs.partition", "sapgnn.protocol", "split_label_skew"),
    Hook("protocol.init_parties", "sapgnn.protocol", "init_parties"),
    Hook("protocol.forward", "sapgnn.protocol", "forward_pass"),
    Hook("protocol.backward", "sapgnn.protocol", "backward_pass"),
    Hook("protocol.update", "sapgnn.protocol", "weight_update"),
    Hook("protocol.evaluate", "sapgnn.protocol", "evaluate"),
    Hook("protocol.aggregate_local_grads", "sapgnn.protocol", "aggregate_local_grads"),
    Hook("gnn.local_embedding", "sapgnn.protocol", "local_embedding"),
    Hook("gnn.pooled_messages", "sapgnn.gnn", "pooled_messages"),
    Hook("gnn.local_backward", "sapgnn.protocol", "local_backward"),
    Hook("gnn.stack_max", "sapgnn.protocol", "stack_max"),
    Hook("gnn.global_update", "sapgnn.protocol", "global_update"),
    Hook("gnn.global_backward", "sapgnn.protocol", "global_backward"),
    Hook("gnn.predict", "sapgnn.protocol", "predict_probs"),
    Hook("gnn.predict", "sapgnn.protocol", "predict_backward"),
    Hook("wire.send", "sapgnn.wire", "Channel.send"),
    Hook("wire.encode", "sapgnn.wire", "encode_message"),
    Hook("sharing.share_vector", "sapgnn.protocol", "share_vector"),
    Hook("sharing.combine", "sapgnn.protocol", "combine_vector_shares"),
    Hook("sharing.pooled_argmax", "sapgnn.protocol", "pooled_argmax"),
    Hook("numerics.adam", "sapgnn.protocol", "adam_step"),
)


def _resolve(hook: Hook):
    """(owner, attribute name, current value), or None when it no longer exists."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


@contextmanager
def installed(tracer: Tracer, hooks, observers):
    """Install wrappers for `hooks` while the block runs; yields the set of
    targets that could not be found. `observers` maps a target to a factory
    taking the original function and returning its observe callback.
    Originals are restored on exit."""
    missing: set[str] = set()
    restore = []
    try:
        for hook in hooks:
            found = _resolve(hook)
            if found is None:
                missing.add(hook.target)
                continue
            owner, name, original = found
            observe = observers.get(hook.target)
            if observe is not None:
                observe = observe(original)
            setattr(owner, name, tracer.wrap(hook.span, original, observe))
            restore.append((owner, name, original))
        yield missing
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


# Message kinds whose rows can be useless padding, with the field to inspect
# and how to tell a useful row: a real (non-sentinel) embedding, a validity
# flag, or a gradient row with any nonzero entry.
USEFUL_ROW_FIELDS = {
    "LocalEmbedding": ("t", "real"),
    "PoolInput": ("valid", "flag"),
    "LocalEmbGrad": ("r", "nonzero"),
    "InputGrad": ("g", "nonzero"),
}


def _useful_rows(arr: np.ndarray, test: str) -> int:
    if test == "flag":
        return int(np.count_nonzero(arr))
    rows = arr.reshape(arr.shape[0], -1)
    if test == "real":
        return int(np.count_nonzero((rows > SENTINEL_THRESHOLD).any(axis=1)))
    return int(np.count_nonzero((rows != 0).any(axis=1)))


@dataclass
class WireCounter:
    """Bytes, messages and useful rows per message kind, read off the
    buffers `encode_message` returns."""

    bytes_by_kind: dict = field(default_factory=lambda: defaultdict(int))
    rows_by_kind: dict = field(default_factory=lambda: defaultdict(int))
    useful_by_kind: dict = field(default_factory=lambda: defaultdict(int))
    messages: int = 0
    unreadable: set = field(default_factory=set)   # kinds whose row field was absent

    def observer(self, encode):
        signature = inspect.signature(encode)

        def observe(args, kwargs, buf):
            bound = signature.bind(*args, **kwargs).arguments
            kind = bound.get("kind")
            kind = getattr(kind, "value", kind)
            self.messages += 1
            self.bytes_by_kind[kind] += len(buf)
            if kind not in USEFUL_ROW_FIELDS:
                return
            name, test = USEFUL_ROW_FIELDS[kind]
            fields = bound.get("fields") or {}
            if name not in fields:
                self.unreadable.add(kind)
                return
            arr = np.asarray(fields[name])
            self.rows_by_kind[kind] += arr.shape[0] if arr.ndim else 0
            self.useful_by_kind[kind] += _useful_rows(arr, test) if arr.ndim else 0

        return observe
