"""The benchmark's workloads: seeded closed-loop training jobs.

Each workload fixes a graph shape, a partition, a model and a protocol mode,
chosen so that the layers later changes target do most of the work in one
workload and little in another. The workload seed derives the dataset,
partition and train seeds, so one seed always yields the same inputs; the
program receives only the generated `RunConfig` and holder subgraphs.

Early stopping is off (patience > epochs), so every job trains exactly
the epochs it is given and per-epoch figures compare across commits. A
workload's `epochs` is the smallest count at which test accuracy has
settled across seeds (uniform-sum still swings by a fifth between seeds at
12 epochs), so that accuracy is a steady end-to-end metric rather than a
draw of the seed. Timing jobs train `TIMING_EPOCHS` epochs of the same
configuration instead, so that a run holds many short timings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sapgnn import DatasetConfig, ModelConfig, PartitionConfig, RunConfig, TrainConfig


@dataclass(frozen=True)
class Workload:
    name: str
    epochs: int
    dataset: dict
    partition: dict
    model: dict
    mode: str
    share_mode: str
    tiny_dataset: dict      # overrides giving a seconds-long run for the self-tests


# n=6000 matches the baseline the roadmap quotes; ~58k edges.
GRAPH_6000 = dict(n_nodes=6000, n_classes=4, feat_dim=64,
                  intra_class_edge_prob=0.01, inter_class_edge_prob=0.001)
TINY_GRAPH = dict(n_nodes=160, intra_class_edge_prob=0.08, inter_class_edge_prob=0.01)

WORKLOADS = {w.name: w for w in (
    # Dense local embedding and max pooling dominate, evaluation repeats the
    # forward pass, and almost every LocalEmbedding row is useful. The
    # message-linear backward loop, secure pooling and share traffic are
    # not exercised.
    Workload(name="uniform-sum", epochs=16, dataset=GRAPH_6000,
             partition=dict(kind="uniform", P=4),
             model=dict(layers=2, hidden=32, update_kind="sum", dropout=0.0),
             mode="naive", share_mode="real", tiny_dataset=TINY_GRAPH),
    # Each holder takes part in about a quarter of the rows, so sparse row
    # exchange shows here and not in uniform-sum. The per-column scatter in
    # local_backward and the sealed pooled argmax run only here. Dropout > 0
    # means evaluation cannot reuse the training forward pass.
    Workload(name="skew-gated-secure", epochs=12, dataset=GRAPH_6000,
             partition=dict(kind="label-skew", P=4, q=10.0),
             model=dict(layers=2, hidden=32, update_kind="gated",
                        message_linear=True, dropout=0.5),
             mode="secure-pooling", share_mode="fixed-point", tiny_dataset=TINY_GRAPH),
    # The secure sum sends O(P^2) messages of large local weights; share
    # traffic and aggregate_local_grads dominate while the small graph keeps
    # pooling and graph generation negligible.
    Workload(name="p8-shares", epochs=8,
             dataset=dict(n_nodes=600, n_classes=8, feat_dim=256,
                          intra_class_edge_prob=0.05, inter_class_edge_prob=0.005),
             partition=dict(kind="uniform", P=8),
             model=dict(layers=2, hidden=128, update_kind="gated",
                        message_linear=True, dropout=0.0),
             mode="naive", share_mode="fixed-point",
             tiny_dataset=dict(n_nodes=96, feat_dim=32, intra_class_edge_prob=0.25,
                               inter_class_edge_prob=0.03)),
)}

TINY_EPOCHS = 2
TINY_HIDDEN = 16
TIMING_EPOCHS = 1


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """Dataset, partition and train seeds derived from one workload seed."""
    data, part, train = np.random.SeedSequence(seed).generate_state(3)
    return int(data), int(part), int(train)


def make_config(workload: Workload, seed: int, tiny: bool = False,
                epochs: int | None = None) -> RunConfig:
    """The workload's run for one seed; `epochs` overrides its epoch count."""
    data_seed, part_seed, train_seed = derive_seeds(seed)
    dataset, model = workload.dataset, workload.model
    if tiny:
        dataset = dict(dataset, **workload.tiny_dataset)
        model = dict(model, hidden=TINY_HIDDEN)
    if epochs is None:
        epochs = TINY_EPOCHS if tiny else workload.epochs
    return RunConfig(dataset=DatasetConfig(seed=data_seed, **dataset),
                     partition=PartitionConfig(seed=part_seed, **workload.partition),
                     model=ModelConfig(**model),
                     train=TrainConfig(max_epochs=epochs, patience=epochs + 1,
                                       seed=train_seed),
                     mode=workload.mode, share_mode=workload.share_mode)
