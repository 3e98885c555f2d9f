"""End-to-end equivalence as a property: over tiny random graphs, partitions
and configurations, the protocol matches the combined-graph reference.

Each draw checks one sweep with `compare_equivalence` and then a 3-epoch
`run_training` against `train_centralized` on `union_graph(holders)`. The
reference recomputes every layer in every sweep, so a layer-0 pooled result
the protocol keeps across sweeps is checked against a fresh one each epoch.
A partition the drawn graph cannot support must end in a named error.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sapgnn.config import PartitionConfig, RunConfig, TrainConfig
from sapgnn.gnn import ModelConfig, UpdateKind
from sapgnn.graphs import UNLABELED, Graph, union_graph
from sapgnn.harness import compare_equivalence, train_centralized
from sapgnn.protocol import build_partition, run_training, verify_privacy_audit

EPOCHS = 3
# Measured over 4000 draws (about 1900 trained with P > 1): real shares kept
# every per-epoch loss within 1.4e-8 (relative, floor 1) and every trained
# weight within 1.7e-8 of the reference. Fixed-point shares round each
# holder's gradient to 2^-20, and Adam turns that rounding of a near-zero
# gradient into a step of up to the learning rate: weights ended up to 0.11
# apart and losses up to 0.026 (under 0.011 over 18000 more draws), so their
# weights are not compared. At P=1 no share is sent: bit for bit in both.
LOSS_TOLERANCE = {"real": 1e-6, "fixed-point": 0.1}
WEIGHT_TOLERANCE_REAL = 1e-6

# What a partitioner may refuse a drawn graph with, by message.
PARTITION_REFUSALS = ("edge-incident scope leaves", "need n_classes >= P",
                      "no labeled node to place")


@st.composite
def protocol_inputs(draw):
    n = draw(st.integers(2, 40))
    rank = st.integers(0, n - 1)
    # duplicate edges, self-loops, isolated nodes and no edges at all
    edges = draw(st.lists(st.tuples(rank, rank), max_size=2 * n))
    if draw(st.booleans()):
        # a ring through every node, so edge-incident scope can cover them
        edges += [(i, (i + 1) % n) for i in range(n)]
    n_classes = draw(st.integers(1, 4))
    labels = np.array(draw(st.lists(st.integers(UNLABELED, n_classes - 1),
                                    min_size=n, max_size=n)))
    split_of = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    split_of[labels == UNLABELED] = 3
    node_ids = 3 * np.arange(n) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = Graph(node_ids=node_ids, features=rng.normal(size=(n, 3)),
              edges=node_ids[np.array(edges, dtype=np.int64).reshape(-1, 2)],
              labels=labels, train_ids=node_ids[split_of == 0],
              val_ids=node_ids[split_of == 1], test_ids=node_ids[split_of == 2],
              n_classes=n_classes)
    partition = draw(st.sampled_from(["full", "edge-incident", "label-skew"]))
    P = draw(st.integers(1, 5))
    q = draw(st.sampled_from([0.0, 30.0]))
    kind = draw(st.sampled_from([k for k in UpdateKind if k.monotone]))
    config = RunConfig(
        partition=PartitionConfig(kind="label-skew" if partition == "label-skew" else "uniform",
                                  P=P, q=q, seed=draw(st.integers(0, 99)),
                                  duplicate_fraction=draw(st.sampled_from([0.0, 0.5])),
                                  node_scope="full" if partition == "label-skew" else partition),
        model=ModelConfig(layers=2, hidden=4, update_kind=kind, relu=True,
                          dropout=draw(st.sampled_from([0.0, 0.5])),
                          message_linear=draw(st.booleans())),
        train=TrainConfig(lr=0.05, max_epochs=EPOCHS, patience=EPOCHS + 1,
                          seed=draw(st.integers(0, 99))),
        mode=draw(st.sampled_from(["naive", "secure-pooling"])),
        share_mode=draw(st.sampled_from(["real", "fixed-point"])))
    return g, config


def weight_arrays(weights) -> list:
    return weights.local.arrays() + weights.w_global


def label_skew_case(g, P):
    return g, RunConfig(partition=PartitionConfig(kind="label-skew", P=P),
                        model=ModelConfig(layers=2, hidden=3),
                        train=TrainConfig(max_epochs=EPOCHS, patience=EPOCHS + 1))


@settings(max_examples=300, deadline=None)
@given(protocol_inputs())
# three holders over two classes of labeled nodes: the third holds no node
@example(label_skew_case(Graph(node_ids=[1, 2, 3, 4], features=np.arange(8.0).reshape(4, 2),
                               edges=[[1, 2], [3, 4], [1, 3]], labels=[0, 0, 1, 1],
                               train_ids=[1, 3], val_ids=[2], test_ids=[4], n_classes=3), 3))
# no labeled node: label-skew has nothing to place
@example(label_skew_case(Graph(node_ids=[1, 2], features=np.zeros((2, 2)), edges=[[1, 2]],
                               labels=[UNLABELED, UNLABELED], train_ids=[], val_ids=[],
                               test_ids=[], n_classes=2), 2))
def test_protocol_matches_combined_graph_reference(inputs):
    g, config = inputs
    try:
        holders = build_partition(g, config.partition)
    except ValueError as exc:
        assert str(exc).startswith(PARTITION_REFUSALS), exc
        return

    report = compare_equivalence(config, holders)
    assert report.passed, report.summary()

    res = run_training(config, holders)
    audit = verify_privacy_audit(res.audit, mode=config.mode)
    assert audit.ok, audit.summary()
    ref = train_centralized(union_graph(holders), config.model, lr=config.train.lr,
                            max_epochs=EPOCHS, patience=config.train.patience,
                            seed=config.train.seed)
    assert res.epochs_run == ref.epochs_run == EPOCHS
    got, want = weight_arrays(res.weights), weight_arrays(ref.weights)
    if config.partition.P == 1:
        # one holder is the centralized trainer, bit for bit
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        assert repr(res.metrics_rows) == repr(ref.metrics_rows)   # NaN reads "nan"
        return
    tol = LOSS_TOLERANCE[config.share_mode]
    for row, ref_row in zip(res.metrics_rows, ref.metrics_rows, strict=True):
        loss, want_loss = row["loss"], ref_row["loss"]
        assert (math.isnan(loss) and math.isnan(want_loss)) or \
            abs(loss - want_loss) < tol * max(1.0, abs(want_loss))
    if config.share_mode == "real":
        assert max(float(np.max(np.abs(a - b)))
                   for a, b in zip(got, want, strict=True)) < WEIGHT_TOLERANCE_REAL
