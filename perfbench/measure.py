"""One closed-loop training job, the checks on its outputs, and the traced run.

The timed call is always the program's own `run_training(config, holders)`;
every check runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from sapgnn.harness import (compare_equivalence, train_centralized, write_audit_jsonl,
                            write_comm_csv, write_metrics_csv)
from sapgnn.graphs import union_graph
from sapgnn.protocol import build_dataset, build_partition, run_training, verify_privacy_audit
from sapgnn.wire import MessageKind

from tracing import HOOKS, OBSERVE_SPAN, USEFUL_ROW_FIELDS, Tracer, WireCounter, installed

# Equivalence tolerance of each share mode: protocol vs combined-graph reference.
TOLERANCE = {"real": 1e-9, "fixed-point": 1e-4}

MESSAGE_KINDS = ("NodeIndex", "LocalEmbedding", "GlobalEmbedding", "PredGrad",
                 "LocalEmbGrad", "InputGrad", "GradShare", "PartialSum",
                 "PoolInput", "PoolResult")

OUTPUT_FILES = ("metrics.csv", "comm.csv", "audit.jsonl")


def timed_setup(config):
    """(seconds, holder subgraphs) for building the dataset and its partition."""
    start = time.perf_counter()
    graph = build_dataset(config.dataset)
    holders = build_partition(graph, config.partition)
    return time.perf_counter() - start, holders


def output_digest(res, out_dir: Path) -> str:
    """Hash of the run's metrics.csv, comm.csv and audit.jsonl as the program
    writes them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(res.metrics_rows, out_dir / "metrics.csv")
    write_comm_csv(res.comm, out_dir / "comm.csv")
    write_audit_jsonl(res.audit, out_dir / "audit.jsonl")
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        h.update(name.encode("utf-8") + b"\0")
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


@dataclass
class JobResult:
    train_s: float
    epochs_run: int
    wire_bytes: int
    test_accuracy: float
    digest: str
    failures: list          # why the job counts as failed; empty when it passed

    @property
    def epoch_s(self) -> float:
        return self.train_s / self.epochs_run

    @property
    def wire_bytes_per_epoch(self) -> float:
        return self.wire_bytes / self.epochs_run


def checked(config, res, train_s: float, out_dir: Path) -> JobResult:
    """Summarize a finished run and check it: fixed epoch count, clean
    privacy audit, and the digest of its logs."""
    failures = []
    if res.epochs_run != config.train.max_epochs:
        failures.append(f"trained {res.epochs_run} epochs, expected {config.train.max_epochs}")
    audit = verify_privacy_audit(res.audit, config.mode)
    if not audit.ok:
        failures.append(audit.summary())
    return JobResult(train_s=train_s, epochs_run=res.epochs_run, wire_bytes=res.comm.total(),
                     test_accuracy=res.final["test_accuracy"],
                     digest=output_digest(res, out_dir), failures=failures)


def run_job(config, holders, out_dir: Path) -> JobResult:
    start = time.perf_counter()
    res = run_training(config, holders)
    train_s = time.perf_counter() - start
    return checked(config, res, train_s, out_dir)


class ReferenceKernel:
    """A fixed mix of the kinds of work the program does, each part taking a
    similar time: a row gather with a dense product and an elementwise max,
    an unbuffered `np.add.at` scatter, a streaming pass over a large array,
    many numpy calls on small arrays, and a plain Python loop.

    The benchmark times it between timing jobs. On a shared host the speed
    of the whole machine drifts by a fifth over minutes, longer than a run,
    and it moves this kernel's time as it moves an epoch's; the ratio of the
    two holds still where either time alone drifts. Over seven minutes of
    skew-gated-secure epochs on a 2-vCPU guest, per-35-second medians of the
    epoch time spread 7-13% (quartile distance over median); of its ratio to
    the gather-and-product part alone, 4%; of its ratio to an equal-time mix
    of all five parts, 2%.
    """

    CALLS = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.features = rng.standard_normal((6000, 64))
        self.weights = rng.standard_normal((64, 32))
        self.rows = rng.integers(0, 6000, size=20000)
        self.updates = rng.standard_normal((10000, 32))
        self.stream = rng.standard_normal(3_000_000)
        self.seconds()      # the first call pays for allocation the rest reuse

    def run(self) -> None:
        np.maximum(self.features[self.rows] @ self.weights, 0.0).max(axis=0)
        np.add.at(np.zeros((6000, 32)), self.rows[:10000], self.updates)
        (self.stream * 2.0).sum()
        small = self.features[:50]
        for _ in range(1000):
            small = np.maximum(small, 0.5) + 0.0
        total = 0
        for i in range(100_000):
            total += i * i

    def seconds(self) -> float:
        """Median wall time of a few calls."""
        times = []
        for _ in range(self.CALLS):
            start = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def equivalence_failures(config, holders) -> list:
    """Protocol vs combined-graph reference at the share mode's tolerance."""
    report = compare_equivalence(config, holders)
    worst = max([*report.embedding_dev, *report.grad_dev.values()])
    tolerance = TOLERANCE[config.share_mode]
    if worst < tolerance:
        return []
    return [f"equivalence deviation {worst:.3e} is not below {tolerance:g}"]


def byte_mismatches(wire: WireCounter, comm) -> list:
    """Per message kind, encoded-buffer bytes that differ from CommStats."""
    metered: dict[str, int] = defaultdict(int)
    for _epoch, kind, _direction, n_bytes in comm.rows():
        metered[kind] += n_bytes
    return [f"{kind}: encoded {wire.bytes_by_kind.get(kind, 0)} bytes, "
            f"CommStats {metered.get(kind, 0)}"
            for kind in sorted(set(metered) | set(wire.bytes_by_kind))
            if wire.bytes_by_kind.get(kind, 0) != metered.get(kind, 0)]


def centralized_epoch_s(config, holders) -> float:
    """Per-epoch time of the single-machine trainer on the union graph."""
    combined = union_graph(holders)
    train = config.train
    start = time.perf_counter()
    res = train_centralized(combined, config.model, lr=train.lr, max_epochs=train.max_epochs,
                            patience=train.patience, seed=train.seed)
    return (time.perf_counter() - start) / res.epochs_run


@dataclass
class TracedRun:
    job: JobResult
    tracer: Tracer
    wire: WireCounter
    missing: set            # hook targets that no longer exist


def run_traced(config, out_dir: Path) -> TracedRun:
    """Set up and train once with every hook installed; checks as run_job,
    plus the per-kind byte cross-check when the encoder is traced."""
    tracer, wire = Tracer(), WireCounter()
    encode = "sapgnn.wire.encode_message"
    with installed(tracer, HOOKS, {encode: wire.observer}) as missing:
        _setup_s, holders = timed_setup(config)
        with tracer.span("protocol.run_training") as span:
            res = run_training(config, holders)
    job = checked(config, res, span.duration_ns / 1e9, out_dir)
    if encode not in missing:
        job.failures += [f"byte cross-check {m}" for m in byte_mismatches(wire, res.comm)]
    return TracedRun(job=job, tracer=tracer, wire=wire, missing=missing)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

PHASES = ("protocol.init_parties", "protocol.forward", "protocol.backward",
          "protocol.update", "protocol.evaluate")
SELF_TIMES = ("gnn.local_embedding", "gnn.pooled_messages", "gnn.local_backward",
              "gnn.stack_max", "gnn.global_update", "gnn.global_backward", "gnn.predict",
              "wire.send", "wire.encode", "sharing.share_vector", "sharing.combine",
              "sharing.pooled_argmax", "numerics.adam")


def layer_metrics(run: TracedRun, untraced_epoch_s: float, centralized_s: float) -> dict:
    """Per-layer metrics of a traced run, per epoch unless the unit says
    otherwise. Protocol phases are inclusive times that partition the
    training call; the other layers are self times. A metric whose hook or
    message kind no longer exists has no value and names what is missing."""
    epochs = run.job.epochs_run
    stats = run.tracer.by_name()
    defined_kinds = {k.value for k in MessageKind}
    out: dict[str, dict] = {}

    def lost(*spans) -> list:
        return [h.target for h in HOOKS if h.span in spans and h.target in run.missing]

    def put(name, unit, value, missing=()):
        out[name] = ({"value": None, "unit": unit, "missing": ", ".join(missing)} if missing
                     else {"value": value, "unit": unit})

    def seconds(span, key="self_ns"):
        return stats.get(span, {}).get(key, 0) / 1e9

    # one traced set-up, so these are seconds per set-up
    put("graphs.generate_s", "s", seconds("graphs.generate"), lost("graphs.generate"))
    put("graphs.partition_s", "s", seconds("graphs.partition"), lost("graphs.partition"))

    spans = run.tracer.spans
    training_forward = sum(s.duration_ns for s in spans if s.name == "protocol.forward"
                           and (s.parent < 0 or spans[s.parent].name != "protocol.evaluate"))
    phase_s = {span: seconds(span, "total_ns") for span in PHASES}
    phase_s["protocol.forward"] = training_forward / 1e9
    for span, value in phase_s.items():
        # training forwards are told apart from evaluation's by their parent
        needs = (span, "protocol.evaluate") if span == "protocol.forward" else (span,)
        put(f"{span}_s", "s/epoch", value / epochs, lost(*needs))
    put("protocol.aggregate_local_grads_s", "s/epoch",
        seconds("protocol.aggregate_local_grads", "total_ns") / epochs,
        lost("protocol.aggregate_local_grads"))
    put("protocol.forward_calls", "count/epoch",
        stats.get("protocol.forward", {}).get("calls", 0) / epochs, lost("protocol.forward"))
    traced_epoch_s = seconds("protocol.run_training", "total_ns") / epochs
    put("protocol.unaccounted_s", "s/epoch",
        traced_epoch_s - sum(phase_s.values()) / epochs, lost(*PHASES))

    for span in SELF_TIMES:
        put(f"{span}_s", "s/epoch", seconds(span) / epochs, lost(span))

    wire = run.wire
    put("wire.messages", "count/epoch", wire.messages / epochs, lost("wire.encode"))
    for kind in MESSAGE_KINDS:
        missing = lost("wire.encode")
        if kind not in defined_kinds:
            missing.append(f"sapgnn.wire.MessageKind({kind!r})")
        put(f"wire.bytes.{kind}", "bytes/epoch", wire.bytes_by_kind.get(kind, 0) / epochs,
            missing)
        if kind not in USEFUL_ROW_FIELDS:
            continue
        if kind in wire.unreadable:
            missing.append(f"{kind} field {USEFUL_ROW_FIELDS[kind][0]!r}")
        rows = wire.rows_by_kind.get(kind, 0)
        # with no rows of this kind sent, the useful fraction reads 0 over a base of 0
        put(f"wire.useful_rows.{kind}", "fraction",
            wire.useful_by_kind.get(kind, 0) / rows if rows else 0.0, missing)
        put(f"wire.rows.{kind}", "count/epoch", rows / epochs, missing)

    put("trace.epoch_s", "s/epoch", traced_epoch_s)
    put("trace.observe_s", "s/epoch", seconds(OBSERVE_SPAN) / epochs)
    put("trace.overhead_s", "s/epoch", traced_epoch_s - untraced_epoch_s)
    put("harness.centralized_epoch_s", "s/epoch", centralized_s)
    return out
