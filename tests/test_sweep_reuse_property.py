"""Reusing a kept sweep never changes a result.

A session keeps what a forward sweep computed until an update changes
something it read: the whole sweep without dropout, and layer 0's pool
while layer 0's holder weights stand (for the whole run when it has none).
Over random call sequences of a training forward, an evaluation, a
backward and an update, the reusing session must match, bit for bit, a twin
whose kept state is cleared before every forward, and must never send more
bytes than the twin. A call either session refuses must leave its log, its
byte total and every weight as they were.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapgnn.config import DatasetConfig, PartitionConfig, RunConfig, TrainConfig
from sapgnn.gnn import ModelConfig
from sapgnn.protocol import (ProtocolError, backward_pass, build_dataset, build_partition,
                             evaluate, forward_pass, init_parties, weight_update)
from sapgnn.wire import CommStats

CALLS = ("train", "evaluate", "backward", "update")


@st.composite
def cases(draw):
    # sum without a message map leaves layer 0 weight-free; gated or a
    # message map gives it holder weights
    config = RunConfig(
        dataset=DatasetConfig(n_nodes=20, n_classes=3, feat_dim=4, intra_class_edge_prob=0.3,
                              inter_class_edge_prob=0.06, seed=draw(st.integers(0, 99)),
                              class_sep=1.0, noise=0.8),
        partition=PartitionConfig(P=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99))),
        model=ModelConfig(layers=draw(st.integers(1, 3)), hidden=4,
                          update_kind=draw(st.sampled_from(["sum", "gated"])),
                          dropout=draw(st.sampled_from([0.0, 0.5])),
                          message_linear=draw(st.booleans())),
        train=TrainConfig(lr=0.05, seed=draw(st.integers(0, 99))),
        mode=draw(st.sampled_from(["naive", "secure-pooling"])),
        share_mode=draw(st.sampled_from(["real", "fixed-point"])))
    return config, draw(st.lists(st.sampled_from(CALLS), min_size=1, max_size=8))


def call(session, name: str, epoch: int, clear: bool):
    """Run one call; returns what it computed, or the refusal it raised."""
    if clear and name in ("train", "evaluate"):
        session.last_forward = None
        session.pool_kept = False
    before = (len(session.audit), CommStats.of(session.audit).total(), weights(session))
    try:
        if name == "train":
            res = forward_pass(session, train=True, epoch=epoch)
            return res.total_loss, res.embeddings, [h.probs for h in session.holders]
        if name == "evaluate":
            return repr(evaluate(session, epoch))    # NaN reads "nan"
        if name == "backward":
            server_grads = backward_pass(session, epoch=epoch)
            return server_grads, [h.grad_acc.flat() for h in session.holders]
        weight_update(session, epoch=epoch)
        return weights(session)
    except ProtocolError as exc:
        assert_same((len(session.audit), CommStats.of(session.audit).total(), weights(session)),
                    before)
        return str(exc)


def assert_same(a, b):
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b, strict=True):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    else:
        assert a == b


def weights(session) -> list:
    return session.server.weights + [b"".join(w.tobytes() for w in h.locals_.arrays())
                                     for h in session.holders]


@settings(max_examples=150, deadline=None)
@given(cases())
def test_reusing_a_kept_sweep_changes_no_result(case):
    config, calls = case
    holders = build_partition(build_dataset(config.dataset), config.partition)
    reusing, twin = init_parties(config, holders), init_parties(config, holders)
    for epoch, name in enumerate(calls):
        assert_same(call(reusing, name, epoch, clear=False), call(twin, name, epoch, clear=True))
        assert_same(weights(reusing), weights(twin))
        assert CommStats.of(reusing.audit).total() <= CommStats.of(twin.audit).total()


@pytest.mark.parametrize("kind, message_linear", [("sum", False), ("gated", False),
                                                   ("sum", True)])
def test_an_evaluation_then_a_training_sweep_reuses_the_pool(kind, message_linear):
    # at dropout 0.5 the training sweep after an evaluation sends less than
    # the twin's, and trains to the same weights
    config = RunConfig(
        dataset=DatasetConfig(n_nodes=20, n_classes=3, feat_dim=4, seed=1),
        partition=PartitionConfig(P=3, seed=2),
        model=ModelConfig(layers=2, hidden=4, update_kind=kind, dropout=0.5,
                          message_linear=message_linear),
        train=TrainConfig(lr=0.05, seed=3), mode="secure-pooling")
    holders = build_partition(build_dataset(config.dataset), config.partition)
    reusing, twin = init_parties(config, holders), init_parties(config, holders)
    calls = ["evaluate", "train", "backward", "update"]
    for epoch, name in enumerate(calls):
        assert_same(call(reusing, name, epoch, clear=False), call(twin, name, epoch, clear=True))
    assert_same(weights(reusing), weights(twin))
    assert CommStats.of(reusing.audit).total() < CommStats.of(twin.audit).total()
