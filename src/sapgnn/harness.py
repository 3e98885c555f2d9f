"""Experiment orchestration: reference trainer, separate-training baseline,
equivalence verification, and sweep execution with CSV output."""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .gnn import (ModelConfig, build_model_weights, centralized_forward,
                  centralized_forward_backward, layer_dropout_rates, loss_from_probs)
from .graphs import Graph, LocalGraph, union_graph
from .metrics import confusion_matrix, split_scores
from .numerics import AdamState, dropout_mask, make_rng
from .protocol import (TrainResult, adam_update, aggregate_local_grads, backward_pass,
                       build_dataset, build_partition, fit, forward_pass, init_parties,
                       run_training)
from .sharing import AuditLog
from .wire import CommStats, MessageKind

SWEEP_HEADER = ["method", "dataset", "P", "q", "repeat", "seed",
                "accuracy", "macro_f1", "epochs", "wall_ms"]

EMBEDDING_KINDS = (MessageKind.LOCAL_EMBEDDING, MessageKind.GLOBAL_EMBEDDING,
                   MessageKind.POOL_INPUT, MessageKind.POOL_RESULT)
GRADSHARE_KINDS = (MessageKind.GRAD_SHARE, MessageKind.PARTIAL_SUM)


# ---------------------------------------------------------------------------
# Centralized trainer (the reference the protocol is measured against)
# ---------------------------------------------------------------------------

def _reference_dropout_masks(cfg: ModelConfig, rng, n_nodes: int) -> list:
    """One epoch's dropout masks for the combined-graph reference, drawn
    layer by layer from the stream the server draws from (None where a
    layer has no dropout)."""
    return [dropout_mask(rng, rate, (n_nodes, cfg.hidden)) if rate > 0.0 else None
            for rate in layer_dropout_rates(cfg)]


def train_centralized(g: Graph, model_cfg: ModelConfig, lr: float = 0.01,
                      max_epochs: int = 300, patience: int = 30, seed: int = 11,
                      eval_sets: dict | None = None) -> TrainResult:
    """Single-machine trainer over one graph.

    Runs the protocol's epoch loop with the same weight-initialization
    streams, optimizer, dropout stream and scoring, so a one-holder protocol
    run reproduces it bit for bit.
    """
    weights = build_model_weights(model_cfg, g.feat_dim, g.n_classes,
                                  make_rng(seed, "local-init"), make_rng(seed, "server-init"))
    local_adams = [AdamState.for_param(w.shape, lr=lr) for w in weights.local.arrays()]
    global_adams = [AdamState.for_param(w.shape, lr=lr) for w in weights.w_global]
    rng_drop = make_rng(seed, "dropout")
    if eval_sets is None:
        eval_sets = {split: (ids, g.labels_for(ids))
                     for split, ids in g.split_ids().items()}
    eval_rows = {split: (g.rank_of(np.sort(ids)), classes[np.argsort(ids, kind="stable")])
                 for split, (ids, classes) in eval_sets.items()}

    def train_epoch(epoch: int):
        masks = _reference_dropout_masks(model_cfg, rng_drop, g.n_nodes)
        grads = centralized_forward_backward(g, weights, model_cfg, dropout_masks=masks).grads
        weights.w_global[:] = adam_update(global_adams, weights.w_global, grads.w_global)
        weights.local.set_arrays(adam_update(local_adams, weights.local.arrays(),
                                             grads.local.arrays()))

    def score(epoch: int) -> dict:
        _embs, probs = centralized_forward(g, weights, model_cfg)
        return {split: split_scores(confusion_matrix(probs[rows].argmax(axis=1), classes,
                                                     g.n_classes),
                                    loss_from_probs(probs, rows, classes))
                for split, (rows, classes) in eval_rows.items()}

    return fit(train_epoch, score, lambda: weights, max_epochs, patience, CommStats(), AuditLog())


# ---------------------------------------------------------------------------
# Separate training (each holder alone on its own subgraph)
# ---------------------------------------------------------------------------

@dataclass
class SPResult:
    holder_results: list            # TrainResult or None per holder
    skipped: list                   # holder ids without any train label
    test_accuracies: list
    test_macro_f1s: list

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.test_accuracies)) if self.test_accuracies else float("nan")

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.test_accuracies)) if self.test_accuracies else float("nan")

    @property
    def mean_macro_f1(self) -> float:
        return float(np.mean(self.test_macro_f1s)) if self.test_macro_f1s else float("nan")


def train_sp(holders: list[LocalGraph], shared: Graph, model_cfg: ModelConfig,
             lr: float = 0.01, max_epochs: int = 300, patience: int = 30,
             seed: int = 11) -> SPResult:
    """Train one independent model per holder on its private subgraph.

    Each holder's model is evaluated on the shared test set restricted to the
    nodes that holder can actually embed. Holders with no train labels are
    skipped and reported.
    """
    results, skipped, accs, f1s = [], [], [], []
    for lg in holders:
        if lg.graph.train_ids.size == 0:
            results.append(None)
            skipped.append(lg.holder_id)
            continue
        eval_sets = {}
        for split, ids in (("train", lg.graph.train_ids), ("val", lg.graph.val_ids),
                           ("test", shared.test_ids)):
            reachable = np.intersect1d(ids, lg.graph.node_ids)
            eval_sets[split] = (reachable, shared.labels_for(reachable))
        res = train_centralized(lg.graph, model_cfg, lr=lr, max_epochs=max_epochs,
                                patience=patience, seed=seed, eval_sets=eval_sets)
        results.append(res)
        accs.append(res.final["test_accuracy"])
        f1s.append(res.final["test_macro_f1"])
    return SPResult(holder_results=results, skipped=skipped,
                    test_accuracies=accs, test_macro_f1s=f1s)


# ---------------------------------------------------------------------------
# Equivalence verification
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    embedding_dev: list             # per layer, max abs deviation
    grad_dev: dict                  # per weight tensor, max abs deviation
    loss_dev: float
    tolerance: float
    share_mode: str

    @property
    def passed(self) -> bool:
        devs = list(self.embedding_dev) + list(self.grad_dev.values())
        return all(d < self.tolerance for d in devs)

    def summary(self) -> str:
        lines = [f"share mode {self.share_mode}, tolerance {self.tolerance:g}"]
        for l, d in enumerate(self.embedding_dev):
            lines.append(f"  layer {l + 1} embedding deviation: {d:.3e}")
        for name, d in sorted(self.grad_dev.items()):
            lines.append(f"  grad {name}: {d:.3e}")
        lines.append(f"  loss deviation: {self.loss_dev:.3e}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def compare_equivalence(config: RunConfig,
                        holders_data: list[LocalGraph] | None = None) -> EquivalenceReport:
    """Run the protocol and the centralized reference on the same combined
    graph and seeds; report per-layer embedding and per-tensor gradient
    deviations. Refuses non-monotone update kinds, for which the pooled
    representation provably differs from the centralized one.
    """
    if not config.model.update_kind.monotone:
        raise ValueError(
            f"update kind {config.model.update_kind.value} is not monotone; "
            "representation identity does not hold")
    if holders_data is None:
        g = build_dataset(config.dataset)
        holders_data = build_partition(g, config.partition)
    combined = union_graph(holders_data)

    session = init_parties(config, holders_data)
    fwd = forward_pass(session, train=True, epoch=0)
    bwd = backward_pass(session, epoch=0)
    agg = aggregate_local_grads(session, epoch=0)

    cfg = config.model
    weights = build_model_weights(cfg, combined.feat_dim, combined.n_classes,
                                  make_rng(config.train.seed, "local-init"),
                                  make_rng(config.train.seed, "server-init"))
    masks = _reference_dropout_masks(cfg, make_rng(config.train.seed, "dropout"),
                                     combined.n_nodes)
    ref = centralized_forward_backward(combined, weights, cfg, dropout_masks=masks)

    embedding_dev = [float(np.max(np.abs(a - b)))
                     for a, b in zip(fwd.embeddings, ref.embeddings)]
    oracle = ref.grads.local
    grad_dev = {name: float(np.max(np.abs(got - want)))
                for (name, want), got in zip(oracle.tensors(), oracle.unflat(agg))}
    for l, dW in enumerate(bwd.server_grads):
        grad_dev[f"w_global[{l}]"] = float(np.max(np.abs(dW - ref.grads.w_global[l])))

    tolerance = 1e-9 if config.share_mode == "real" else 1e-4
    return EquivalenceReport(embedding_dev=embedding_dev, grad_dev=grad_dev,
                             loss_dev=abs(fwd.total_loss - ref.loss),
                             tolerance=tolerance, share_mode=config.share_mode)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    base: RunConfig
    P_values: list = field(default_factory=lambda: [1, 2, 3, 4])
    q_values: list = field(default_factory=lambda: [0.0])
    methods: list = field(default_factory=lambda: ["sp", "sapgnn", "centralized"])
    repeats: int = 1
    seed_base: int = 1000

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeat count must be >= 1")
        if not self.P_values or not self.q_values or not self.methods:
            raise ValueError("sweep axes must be nonempty")


def stable_hash(*parts) -> int:
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def cell_seed(seed_base: int, method: str, P: int, q: float, repeat: int) -> int:
    return seed_base + stable_hash(method, P, q, repeat)


def _run_cell(spec: ExperimentSpec, method: str, P: int, q: float, repeat: int):
    """One sweep cell. Data, init, and training seeds depend only on
    (seed_base, repeat) so accuracies are comparable across P, q, and
    method; partition randomness gets its own cell-specific stream."""
    base = spec.base
    data_seed = spec.seed_base + stable_hash("data", repeat)
    train_seed = spec.seed_base + stable_hash("train", repeat)
    part_seed = spec.seed_base + stable_hash("part", P, q, repeat)

    train = replace(base.train, seed=train_seed)
    config = replace(base, dataset=replace(base.dataset, seed=data_seed),
                     partition=replace(base.partition, P=P, q=q, seed=part_seed), train=train)

    g = build_dataset(config.dataset)
    if method == "centralized":
        res = train_centralized(g, config.model, lr=train.lr, max_epochs=train.max_epochs,
                                patience=train.patience, seed=train.seed)
        return res.final["test_accuracy"], res.final["test_macro_f1"], res.epochs_run
    holders = build_partition(g, config.partition)
    if method == "sapgnn":
        res = run_training(config, holders_data=holders)
        return res.final["test_accuracy"], res.final["test_macro_f1"], res.epochs_run
    if method == "sp":
        sp = train_sp(holders, g, config.model, lr=train.lr, max_epochs=train.max_epochs,
                      patience=train.patience, seed=train.seed)
        epochs = max((r.epochs_run for r in sp.holder_results if r is not None), default=0)
        return sp.mean_accuracy, sp.mean_macro_f1, epochs
    raise ValueError(f"unknown method {method!r}")


def run_sweep(spec: ExperimentSpec, out_path=None) -> list[dict]:
    """Cartesian sweep over methods x P x q x repeats, one CSV row per cell.

    Resumable: cells already present in out_path are skipped. A failing cell
    is recorded with NaN metrics and the sweep continues.
    """
    done = set()
    existing_rows = []
    if out_path is not None and Path(out_path).exists():
        with open(out_path, newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                existing_rows.append(row)
                done.add((row["method"], row["dataset"], row["P"], row["q"], row["repeat"]))

    rows = []
    dataset_name = spec.base.dataset.name
    for method in spec.methods:
        for P in spec.P_values:
            for q in spec.q_values:
                for repeat in range(spec.repeats):
                    key = (method, dataset_name, str(P), str(float(q)), str(repeat))
                    if key in done:
                        continue
                    seed = cell_seed(spec.seed_base, method, P, float(q), repeat)
                    start = time.perf_counter()
                    try:
                        acc, f1, epochs = _run_cell(spec, method, P, float(q), repeat)
                    except Exception as exc:  # record the failure, keep sweeping
                        acc, f1, epochs = float("nan"), float("nan"), 0
                        print(f"sweep cell {key} failed: {exc}")
                    wall_ms = (time.perf_counter() - start) * 1000.0
                    rows.append({"method": method, "dataset": dataset_name, "P": P,
                                 "q": float(q), "repeat": repeat, "seed": seed,
                                 "accuracy": acc, "macro_f1": f1, "epochs": epochs,
                                 "wall_ms": wall_ms})
    if out_path is not None:
        write_header = not Path(out_path).exists()
        with open(out_path, "a", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=SWEEP_HEADER)
            if write_header:
                writer.writeheader()
            for row in rows:
                writer.writerow(row)
    return rows


# ---------------------------------------------------------------------------
# Communication profiling and CSV/JSONL writers
# ---------------------------------------------------------------------------

def summarize_sweep(rows: list[dict]) -> list[dict]:
    """Mean and std over repeats for each (method, dataset, P, q) cell group.

    The sweep CSV itself stays one row per repeat; this is the aggregation
    consumers apply for tables and plots. A single repeat gives std 0.
    """
    groups: dict[tuple, list] = {}
    for row in rows:
        key = (row["method"], row["dataset"], int(row["P"]), float(row["q"]))
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups):
        accs = np.array([float(r["accuracy"]) for r in groups[key]])
        f1s = np.array([float(r["macro_f1"]) for r in groups[key]])
        out.append({"method": key[0], "dataset": key[1], "P": key[2], "q": key[3],
                    "repeats": len(accs),
                    "accuracy_mean": float(np.mean(accs)), "accuracy_std": float(np.std(accs)),
                    "macro_f1_mean": float(np.mean(f1s)), "macro_f1_std": float(np.std(f1s))})
    return out


def comm_profile(config: RunConfig, epochs: int = 1) -> dict:
    """Measured bytes per epoch, split into embedding and gradient-share
    traffic (init-time node-index transfers excluded)."""
    res = run_training(replace(config, train=replace(config.train, max_epochs=epochs,
                                                     patience=epochs + 1)))
    per_epoch_emb = res.comm.bytes_for(kinds=EMBEDDING_KINDS) / max(res.epochs_run, 1)
    per_epoch_share = res.comm.bytes_for(kinds=GRADSHARE_KINDS) / max(res.epochs_run, 1)
    return {"embedding_bytes_per_epoch": per_epoch_emb,
            "gradshare_bytes_per_epoch": per_epoch_share,
            "total_bytes": res.comm.total(), "epochs": res.epochs_run}


def linear_fit_r2(x, y):
    """Least-squares line y = a*x + b; returns (a, b, r_squared)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    a, b = np.polyfit(x, y, 1)
    pred = a * x + b
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(a), float(b), r2


def write_metrics_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=["epoch", "split", "accuracy",
                                               "macro_f1", "loss"])
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in writer.fieldnames})


def write_comm_csv(comm: CommStats, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "kind", "direction", "bytes"])
        for row in comm.rows():
            writer.writerow(row)


def write_audit_jsonl(audit: AuditLog, path) -> None:
    Path(path).write_text(audit.to_jsonl(), encoding="utf-8")
