import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sapgnn.config import (DatasetConfig, PartitionConfig, RunConfig, TrainConfig)
from sapgnn.gnn import (ModelConfig, build_model_weights, centralized_forward_backward,
                        init_global_weights, init_local_weights)
from sapgnn.graphs import (Graph, LocalGraph, generate_synthetic, node_digests,
                           split_edges_uniform, union_graph, write_dataset)
from sapgnn.numerics import make_rng
from sapgnn.sharing import GRAD_FRAC_BITS
from sapgnn.protocol import (ProtocolError, _pool_layer, aggregate_local_grads, backward_pass,
                             build_dataset, build_partition, evaluate, forward_pass,
                             init_parties, run_training, weight_update)
from sapgnn.harness import (compare_equivalence, train_centralized, write_audit_jsonl,
                            write_comm_csv)
from sapgnn.wire import (AuditLog, CommStats, MessageKind, holder_party,
                         verify_privacy_audit)


def make_config(P=2, n=24, kind="sum", mode="naive", share_mode="real", seed=9,
                layers=2, hidden=6, dropout=0.0, part_kind="uniform", q=0.0,
                dup=0.0, max_epochs=3, patience=50):
    return RunConfig(
        dataset=DatasetConfig(n_nodes=n, n_classes=3, feat_dim=5,
                              intra_class_edge_prob=0.3, inter_class_edge_prob=0.06,
                              seed=seed, class_sep=1.0, noise=0.8),
        partition=PartitionConfig(kind=part_kind, P=P, q=q, duplicate_fraction=dup,
                                  seed=seed + 1),
        model=ModelConfig(layers=layers, hidden=hidden, update_kind=kind, dropout=dropout),
        train=TrainConfig(lr=0.01, max_epochs=max_epochs, patience=patience,
                          seed=seed + 2),
        mode=mode, share_mode=share_mode)


def make_session(config):
    g = build_dataset(config.dataset)
    holders = build_partition(g, config.partition)
    return g, holders, init_parties(config, holders)


def weights_blob(holder) -> bytes:
    """A holder's replicated weights as one byte string."""
    return b"".join(w.tobytes() for w in holder.locals_.arrays())


def snapshot(session) -> tuple:
    """What a refused call must leave as it was: every party's weights and
    Adam states, every holder's share-seed stream, the log's length and its
    byte total."""
    parties = [session.server, *session.holders]
    return ([w.tobytes() for w in session.server.weights],
            [weights_blob(h) for h in session.holders],
            [(a.m.tobytes(), a.v.tobytes(), a.step) for party in parties for a in party.adams],
            [h.rng_shares.bit_generator.state for h in session.holders],
            len(session.audit.records), CommStats.of(session.audit).total())


# -- initialization ------------------------------------------------------------

def test_a_dataset_directory_trains_as_the_graph_it_holds(tmp_path):
    # the config's graph written as a dataset directory and trained from it
    # gives the in-memory run's metrics and audit log
    cfg = make_config(P=3, mode="secure-pooling", share_mode="fixed-point", max_epochs=2)
    write_dataset(build_dataset(cfg.dataset), tmp_path / "data")
    from_dir = replace(cfg, dataset=DatasetConfig(kind="edge-list-dir",
                                                  path=str(tmp_path / "data")))
    runs = {}
    for name, config in (("memory", cfg), ("directory", from_dir)):
        res = run_training(config)
        write_audit_jsonl(res.audit, tmp_path / f"{name}.jsonl")
        runs[name] = res.metrics_rows, (tmp_path / f"{name}.jsonl").read_bytes()
    assert runs["directory"] == runs["memory"]


def test_init_replicates_local_weights():
    cfg = make_config(P=3)
    _, _, session = make_session(cfg)
    blobs = {weights_blob(h) for h in session.holders}
    assert len(blobs) == 1


def test_init_seed_streams_independent():
    # the holders draw from the local-init stream of config.train.seed and
    # the server from its server-init stream
    cfg = make_config(P=2)
    g, holders, session = make_session(cfg)
    seed = cfg.train.seed
    locals_ = init_local_weights(cfg.model, g.feat_dim, g.n_classes, make_rng(seed, "local-init"))
    globals_ = init_global_weights(cfg.model, g.feat_dim, make_rng(seed, "server-init"))
    for holder in session.holders:
        assert all(np.array_equal(a, b) for a, b in
                   zip(holder.locals_.arrays(), locals_.arrays(), strict=True))
    assert all(np.array_equal(a, b) for a, b in
               zip(session.server.weights, globals_, strict=True))
    # two streams of one seed, not one stream read twice
    assert not np.array_equal(locals_.w_predict.ravel()[:4], globals_[0].ravel()[:4])


def test_init_is_deterministic():
    cfg = make_config(P=2)
    _, _, s1 = make_session(cfg)
    _, _, s2 = make_session(cfg)
    assert weights_blob(s1.holders[0]) == weights_blob(s2.holders[0])
    assert all(np.array_equal(a, b) for a, b in zip(s1.server.weights, s2.server.weights))


def test_init_rejects_dimension_mismatch():
    cfg = make_config(P=2)
    g = build_dataset(cfg.dataset)
    holders = build_partition(g, cfg.partition)
    other = generate_synthetic(10, 3, 7, 0.5, 0.1, seed=1)
    holders[1] = split_edges_uniform(other, 1)[0]
    with pytest.raises(ProtocolError, match="disagree"):
        init_parties(cfg, holders)


def test_init_refuses_an_empty_holder_list():
    with pytest.raises(ProtocolError, match="the holder list is empty"):
        init_parties(make_config(P=2), [])


def test_init_rejects_more_holders_than_an_int8_winner_names():
    # a winner index past 127 wraps negative, so that holder's gradients
    # would be dropped without an error
    cfg = make_config(P=128, n=300)
    holders = build_partition(build_dataset(cfg.dataset), cfg.partition)
    assert len(holders) == 128
    with pytest.raises(ProtocolError, match="128 holders exceed the limit of 127"):
        init_parties(cfg, holders)


def _flip_first_digest(keys):
    keys = keys.copy()
    keys[:16] ^= 0xFF
    return keys


def test_init_refuses_an_unknown_node_digest(delivered_messages, tampering):
    cfg = make_config(P=2)
    holders = build_partition(build_dataset(cfg.dataset), cfg.partition)
    tamper = tampering("NodeIndex", lambda f: {**f, "keys": _flip_first_digest(f["keys"])},
                       sender="holder-1")
    with delivered_messages(tamper), pytest.raises(
            ProtocolError, match="holder 1 sent a node digest the server does not"):
        init_parties(cfg, holders)


def _repeat_first_digest(keys):
    keys = keys.copy()
    keys[-16:] = keys[:16]
    return keys


def test_init_refuses_a_repeated_node_digest(delivered_messages, tampering):
    # a repeated digest would map two holder rows to one universe row, and
    # the server's placement of that holder's rows would drop one of them
    cfg = make_config(P=2)
    holders = build_partition(build_dataset(cfg.dataset), cfg.partition)
    tamper = tampering("NodeIndex", lambda f: {**f, "keys": _repeat_first_digest(f["keys"])},
                       sender="holder-1")
    with delivered_messages(tamper), pytest.raises(
            ProtocolError, match="holder 1 sent a node digest twice"):
        init_parties(cfg, holders)


@pytest.mark.parametrize("edit, sent", [
    pytest.param(lambda w: w[:, :-1], r"uint8 \(2, \d+\)", id="short"),
    pytest.param(lambda w: w[:1], r"uint8 \(1, \d+\)", id="one-layer"),
    pytest.param(lambda w: w.astype(np.int64), r"int64 \(2, \d+\)", id="int64"),
    pytest.param(lambda w: None, "nothing", id="missing"),
])
def test_init_refuses_a_misshapen_wants_mask(delivered_messages, tampering, edit, sent):
    cfg = make_config(P=2)
    holders = build_partition(build_dataset(cfg.dataset), cfg.partition)

    def misshape(fields):
        wants = edit(fields["wants"])
        return {"keys": fields["keys"], **({} if wants is None else {"wants": wants})}

    with delivered_messages(tampering("NodeIndex", misshape, sender="holder-1")), pytest.raises(
            ProtocolError, match=rf"holder-1: NodeIndex to server carries {sent} "
                                 r"as 'wants', expected uint8 \(2, "):
        init_parties(cfg, holders)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda k: k[:-5], id="cut"),
    pytest.param(lambda k: np.concatenate([k, k[:5]]), id="padded"),
])
def test_init_refuses_keys_that_are_not_whole_digests(delivered_messages, tampering, edit):
    cfg = make_config(P=2)
    holders = build_partition(build_dataset(cfg.dataset), cfg.partition)
    tamper = tampering("NodeIndex", lambda f: {**f, "keys": edit(f["keys"])}, sender="holder-1")
    with delivered_messages(tamper), pytest.raises(
            ProtocolError, match=r"holder 1 sent \d+ digest bytes, not a whole "
                                 "number of 16-byte digests"):
        init_parties(cfg, holders)


def test_init_refuses_holders_without_nodes():
    cfg = make_config(P=2)
    holders = build_partition(build_dataset(cfg.dataset), cfg.partition)
    for lg in holders:
        lg.graph = Graph(node_ids=[], features=np.zeros((0, 5)), edges=np.zeros((0, 2)),
                         labels=[], train_ids=[], val_ids=[], test_ids=[], n_classes=3)
        lg.isolated_owned = np.empty(0, dtype=np.int64)
    with pytest.raises(ProtocolError, match="no holder has a node"):
        init_parties(cfg, holders)


def test_negative_node_ids_train_like_the_combined_graph():
    g = Graph(node_ids=[-5, -2, 3, 9], features=[[1.0, 0.5], [-0.5, 2.0], [0.0, -1.0], [2.0, 1.0]],
              edges=[[-5, -2], [-2, 3], [3, 9], [-5, 9]], labels=[0, 1, 0, 1],
              train_ids=[-5, -2], val_ids=[3], test_ids=[9], n_classes=2)
    cfg = RunConfig(partition=PartitionConfig(P=2, seed=3),
                    model=ModelConfig(layers=2, hidden=3),
                    train=TrainConfig(lr=0.05, max_epochs=3, patience=4, seed=5))
    holders = split_edges_uniform(g, 2, seed=3)
    report = compare_equivalence(cfg, holders)
    assert report.passed, report.summary()
    res = run_training(cfg, holders)
    ref = train_centralized(union_graph(holders), cfg.model, lr=cfg.train.lr, max_epochs=3,
                            patience=cfg.train.patience, seed=cfg.train.seed)
    assert res.epochs_run == ref.epochs_run == 3
    for row, ref_row in zip(res.metrics_rows, ref.metrics_rows, strict=True):
        assert row["accuracy"] == ref_row["accuracy"]
        assert abs(row["loss"] - ref_row["loss"]) < 1e-9
    for a, b in zip(res.weights.local.arrays() + res.weights.w_global,
                    ref.weights.local.arrays() + ref.weights.w_global, strict=True):
        assert np.max(np.abs(a - b)) < 1e-9


# -- forward equivalence ----------------------------------------------------------

def oracle_pass(config, holders):
    combined = union_graph(holders)
    weights = build_model_weights(config.model, combined.feat_dim, combined.n_classes,
                                  make_rng(config.train.seed, "local-init"),
                                  make_rng(config.train.seed, "server-init"))
    return centralized_forward_backward(combined, weights, config.model)


@pytest.mark.parametrize("kind", ["sum", "concat", "gated"])
def test_forward_single_holder_matches_oracle_bitwise(kind):
    cfg = make_config(P=1, kind=kind)
    _, holders, session = make_session(cfg)
    fwd = forward_pass(session, train=True, epoch=0)
    ref = oracle_pass(cfg, holders)
    for h_prot, h_ref in zip(fwd.embeddings, ref.embeddings):
        assert np.array_equal(h_prot, h_ref)
    assert fwd.total_loss == ref.loss


@pytest.mark.parametrize("P", [2, 3, 4])
def test_forward_multi_holder_matches_oracle(P):
    cfg = make_config(P=P)
    _, holders, session = make_session(cfg)
    fwd = forward_pass(session, train=True, epoch=0)
    ref = oracle_pass(cfg, holders)
    for h_prot, h_ref in zip(fwd.embeddings, ref.embeddings):
        assert np.max(np.abs(h_prot - h_ref)) < 1e-9


def test_forward_secure_pooling_equals_naive():
    cfg = make_config(P=3)
    _, _, session = make_session(cfg)
    fwd_naive = forward_pass(session, train=True, epoch=0)
    cfg2 = make_config(P=3, mode="secure-pooling")
    _, _, session2 = make_session(cfg2)
    fwd_sec = forward_pass(session2, train=True, epoch=0)
    for a, b in zip(fwd_naive.embeddings, fwd_sec.embeddings):
        assert np.array_equal(a, b)
    assert fwd_naive.total_loss == fwd_sec.total_loss


@pytest.mark.parametrize("mode", ["naive", "secure-pooling"])
def test_pooling_builds_one_dense_stack(mode):
    # each pool places the holders' row blocks in the one (P, n, d) stack it
    # compares: floats in naive mode, int64 codes in the sealed pool
    cfg = RunConfig(
        dataset=DatasetConfig(n_nodes=2000, n_classes=4, feat_dim=32,
                              intra_class_edge_prob=0.01, inter_class_edge_prob=0.001, seed=5),
        partition=PartitionConfig(kind="label-skew", P=4, q=10.0, seed=6),
        model=ModelConfig(layers=2, hidden=16, update_kind="gated", message_linear=True),
        train=TrainConfig(seed=7), mode=mode, share_mode="fixed-point")
    _, _, session = make_session(cfg)
    for holder in session.holders:
        holder.begin_forward(keep_pool=False)
    tracemalloc.start()
    try:
        m, _ = _pool_layer(session, 0, epoch=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = len(session.holders) * m.size * 8
    assert peak < 3.25 * stack, f"peak {peak / stack:.2f} (P, n, d) float64 stacks"


def test_secure_pooling_refuses_a_nan_pool_input(monkeypatch):
    _, _, session = make_session(make_config(P=2, mode="secure-pooling"))
    holder = session.holders[1]
    forward_local = holder.forward_local

    def poisoned(l):
        t = forward_local(l)
        t[0, 0] = np.nan      # t holds the participating rows only
        return t

    monkeypatch.setattr(holder, "forward_local", poisoned)
    with pytest.raises(ProtocolError, match="NaN"):
        forward_pass(session, train=True, epoch=0)


def test_forward_label_skew_matches_union_oracle():
    cfg = make_config(P=2, part_kind="label-skew", q=25.0, n=30)
    _, holders, session = make_session(cfg)
    fwd = forward_pass(session, train=True, epoch=0)
    ref = oracle_pass(cfg, holders)
    for h_prot, h_ref in zip(fwd.embeddings, ref.embeddings):
        assert np.max(np.abs(h_prot - h_ref)) == 0.0


@pytest.mark.parametrize("share_mode", ["real", "fixed-point"])
@pytest.mark.parametrize("part_kind, pick", [
    pytest.param("uniform", lambda holders: holders[::-1], id="uniform-reversed"),
    pytest.param("label-skew", lambda holders: holders[1:], id="label-skew-sub-list"),
    pytest.param("label-skew", lambda holders: holders[::-1], id="label-skew-reversed"),
])
def test_a_holder_is_its_place_in_the_list(part_kind, pick, share_mode):
    # the protocol matches the combined graph of whatever holders it is
    # given, in whatever order
    cfg = make_config(P=3, n=30, part_kind=part_kind, q=20.0, share_mode=share_mode)
    holders = pick(build_partition(build_dataset(cfg.dataset), cfg.partition))
    report = compare_equivalence(cfg, holders)
    assert report.passed, report.summary()


def test_edge_incident_scope_matches_oracle():
    cfg = make_config(P=3, n=30)
    cfg.dataset.intra_class_edge_prob = 0.9   # dense enough that nobody is isolated
    cfg.dataset.inter_class_edge_prob = 0.5
    cfg.partition.node_scope = "edge-incident"
    g = build_dataset(cfg.dataset)
    holders = build_partition(g, cfg.partition)
    session = init_parties(cfg, holders)
    fwd = forward_pass(session, train=True, epoch=0)
    server_grads = backward_pass(session, epoch=0)
    agg = aggregate_local_grads(session, epoch=0)
    ref = oracle_pass(cfg, holders)
    for h_prot, h_ref in zip(fwd.embeddings, ref.embeddings):
        assert np.max(np.abs(h_prot - h_ref)) < 1e-9
    for l, dW in enumerate(server_grads):
        assert np.max(np.abs(dW - ref.grads.w_global[l])) < 1e-9


# -- backward equivalence -----------------------------------------------------------

def test_backward_matches_oracle_gradients():
    cfg = make_config(P=2, n=6, hidden=4)
    _, holders, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    server_grads = backward_pass(session, epoch=0)
    agg = aggregate_local_grads(session, epoch=0)
    ref = oracle_pass(cfg, holders)
    for l, dW in enumerate(server_grads):
        assert np.max(np.abs(dW - ref.grads.w_global[l])) < 1e-9
    assert np.max(np.abs(agg - ref.grads.local.flat())) < 1e-9


def test_backward_requires_forward():
    cfg = make_config(P=2)
    _, _, session = make_session(cfg)
    with pytest.raises(ProtocolError, match="forward"):
        backward_pass(session, epoch=0)


def test_backward_zero_loss_zero_grads():
    # saturate each labeled row's own class so every prob is 1 (clamped loss 0)
    cfg = make_config(P=2, n=12)
    _, _, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    for holder in session.holders:
        rows, classes = holder.label_rows["train"]
        probs = np.zeros((holder.n, holder.n_classes))
        probs[rows, classes] = 1.0
        holder.probs = probs
    server_grads = backward_pass(session, epoch=0)
    for holder in session.holders:
        for g in holder.grad_acc.arrays():
            assert np.allclose(g, 0.0)
    for dW in server_grads:
        assert np.allclose(dW, 0.0)


# -- weight update ---------------------------------------------------------------------

def test_update_equal_and_opposite_gradients_cancel():
    # ring arithmetic cancels exactly; a zero aggregate makes Adam a no-op
    cfg = make_config(P=2, share_mode="fixed-point")
    _, _, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    h0, h1 = session.holders
    h1.grad_acc.set_arrays([-g for g in h0.grad_acc.arrays()])
    session.server.grads = [np.zeros_like(dW) for dW in session.server.grads]
    before = weights_blob(h0)
    weight_update(session, epoch=0)
    assert weights_blob(h0) == before  # zero aggregate: Adam step is a no-op
    assert weights_blob(h1) == before


def test_aggregate_overflow_raises_protocol_error():
    cfg = make_config(P=3, share_mode="fixed-point")
    _, _, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    for holder in session.holders:
        # encodes below 2^62, but the three-holder sum would pass 2^63
        holder.grad_acc.w_predict[0, 0] = 1.5 * 2.0 ** (61 - GRAD_FRAC_BITS)
    with pytest.raises(ProtocolError, match="summed over 3 holders"):
        aggregate_local_grads(session, epoch=0)


def test_update_preserves_replication():
    for share_mode in ("real", "fixed-point"):
        cfg = make_config(P=3, share_mode=share_mode)
        _, _, session = make_session(cfg)
        for epoch in range(2):
            forward_pass(session, train=True, epoch=epoch)
            backward_pass(session, epoch=epoch)
            weight_update(session, epoch=epoch)
            assert len({weights_blob(h) for h in session.holders}) == 1


def _holder_nan(session):
    session.holders[1].grad_acc.w_predict[0, 0] = np.nan


def _lone_holder_nan(session):
    session.holders[0].grad_acc.w_predict[0, 0] = np.nan


def _lone_holder_inf(session):
    session.holders[0].grad_acc.w_predict[0, 0] = -np.inf


def _server_inf(session):
    session.server.grads[1] = np.full_like(session.server.grads[1], np.inf)


def _ring_overflow(session):
    for holder in session.holders:
        # encodes below 2^62, but the three-holder sum would pass 2^63
        holder.grad_acc.w_predict[0, 0] = 1.5 * 2.0 ** (61 - GRAD_FRAC_BITS)


@pytest.mark.parametrize("share_mode, fault, message, P", [
    pytest.param("real", _holder_nan, "holder 1: gradient has a NaN", 3, id="real"),
    pytest.param("fixed-point", _holder_nan, "holder 1: gradient has a NaN", 3,
                 id="fixed-point"),
    pytest.param("real", _server_inf, "server gradient has a NaN", 3, id="infinite-server-grad"),
    pytest.param("fixed-point", _ring_overflow, "holder 0: .* summed over 3 holders", 3,
                 id="fixed-point-overflow"),
    # one holder: its own sum is checked as any holder's is
    *(pytest.param(share_mode, fault, "holder 0: gradient has a NaN", 1,
                   id=f"one-holder-{name}-{share_mode}")
      for share_mode in ("real", "fixed-point")
      for name, fault in (("nan", _lone_holder_nan), ("inf", _lone_holder_inf))),
])
def test_a_refused_update_changes_nothing(share_mode, fault, message, P):
    # a non-finite server or holder gradient, or a holder gradient whose sum
    # could wrap the ring, is refused before the server or any holder steps,
    # and before any holder sends a share or draws a seed
    _, _, session = make_session(make_config(P=P, kind="gated", share_mode=share_mode))
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    fault(session)
    before = snapshot(session)
    with pytest.raises(ProtocolError, match=message):
        weight_update(session, epoch=0)
    assert snapshot(session) == before


def _refuse_a_backward_mid_sweep(session, monkeypatch):
    # after a completed backward, a second one refused at holder 1's chain
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)

    def backward_local(*_args):
        raise ProtocolError("holder 1 refuses")

    monkeypatch.setattr(session.holders[1], "backward_local", backward_local)
    with pytest.raises(ProtocolError, match="holder 1 refuses"):
        backward_pass(session, epoch=0)


def _a_full_step(session, _monkeypatch):
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    weight_update(session, epoch=0)


WITHOUT_A_COMPLETED_BACKWARD = [
    pytest.param(lambda session, _monkeypatch: forward_pass(session, train=True, epoch=0),
                 id="no-backward"),
    pytest.param(_a_full_step, id="second-update"),
    pytest.param(_refuse_a_backward_mid_sweep, id="backward-refused-mid-sweep"),
]


@pytest.mark.parametrize("before_update", WITHOUT_A_COMPLETED_BACKWARD)
def test_an_update_steps_only_a_backward_completed_since_the_last(monkeypatch, before_update):
    # the gradients of an earlier backward are not stepped again, nor are a
    # refused backward's partial ones: nothing is sent, and nothing steps
    _, _, session = make_session(make_config(P=3, kind="gated"))
    before_update(session, monkeypatch)
    before = snapshot(session)
    with pytest.raises(ProtocolError, match="no backward completed since the last update"):
        weight_update(session, epoch=0)
    assert snapshot(session) == before


@pytest.mark.parametrize("before_sum", WITHOUT_A_COMPLETED_BACKWARD)
def test_a_sum_before_any_backward_is_refused(monkeypatch, before_sum):
    # the holders sum only what a completed backward left, not an earlier
    # step's gradients nor a refused backward's partial ones, and send nothing
    _, _, session = make_session(make_config(P=3, kind="gated"))
    before_sum(session, monkeypatch)
    before = snapshot(session)
    with pytest.raises(ProtocolError, match="no backward completed since the last update"):
        aggregate_local_grads(session, epoch=0)
    assert snapshot(session) == before


def test_update_detects_divergence():
    cfg = make_config(P=2)
    _, _, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    session.holders[1].locals_.w_predict = session.holders[1].locals_.w_predict + 1.0
    with pytest.raises(ProtocolError, match="replication"):
        weight_update(session, epoch=0)


def test_one_step_matches_centralized_adam():
    cfg = make_config(P=2, max_epochs=1)
    g, holders, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    weight_update(session, epoch=0)

    combined = union_graph(holders)
    from sapgnn.numerics import AdamState, adam_step
    weights = build_model_weights(cfg.model, combined.feat_dim, combined.n_classes,
                                  make_rng(cfg.train.seed, "local-init"),
                                  make_rng(cfg.train.seed, "server-init"))
    ref = centralized_forward_backward(combined, weights, cfg.model)
    w_predict = weights.local.w_predict
    state = AdamState.for_param(w_predict.shape, lr=cfg.train.lr)
    expected, _ = adam_step(state, w_predict, ref.grads.local.w_predict)
    assert np.max(np.abs(session.holders[0].locals_.w_predict - expected)) < 1e-9
    for l, w_global in enumerate(weights.w_global):
        state = AdamState.for_param(w_global.shape, lr=cfg.train.lr)
        exp_g, _ = adam_step(state, w_global, ref.grads.w_global[l])
        assert np.max(np.abs(session.server.weights[l] - exp_g)) < 1e-9


# -- training loop -----------------------------------------------------------------------

def test_single_holder_training_equals_centralized():
    cfg = make_config(P=1, max_epochs=6)
    res = run_training(cfg)
    g = build_dataset(cfg.dataset)
    ref = train_centralized(g, cfg.model, lr=cfg.train.lr, max_epochs=6,
                            patience=cfg.train.patience, seed=cfg.train.seed)
    assert res.metrics_rows == ref.metrics_rows  # bit-identical epoch metrics


def test_training_deterministic():
    cfg = make_config(P=3, max_epochs=4)
    r1 = run_training(cfg)
    r2 = run_training(cfg)
    assert r1.metrics_rows == r2.metrics_rows
    assert r1.audit.to_jsonl() == r2.audit.to_jsonl()
    assert r1.comm.counts == r2.comm.counts


def test_training_with_dropout_consistent_across_P():
    cfg1 = make_config(P=1, dropout=0.3, max_epochs=4)
    cfg2 = make_config(P=3, dropout=0.3, max_epochs=4)
    r1 = run_training(cfg1)
    r2 = run_training(cfg2)
    a1 = [r for r in r1.metrics_rows if r["split"] == "test"]
    a2 = [r for r in r2.metrics_rows if r["split"] == "test"]
    assert [r["accuracy"] for r in a1] == [r["accuracy"] for r in a2]


def test_early_stopping_respects_patience():
    cfg = make_config(P=1, max_epochs=60, patience=5)
    res = run_training(cfg)
    assert res.epochs_run <= 60
    assert res.best_epoch <= res.epochs_run - 1
    # stopping means: no improvement for `patience` epochs after the best one
    if res.epochs_run < 60:
        assert res.epochs_run - 1 - res.best_epoch >= 5


# -- privacy audit ------------------------------------------------------------------------

def test_audit_clean_run_naive_and_secure():
    for mode in ("naive", "secure-pooling"):
        cfg = make_config(P=2, mode=mode, max_epochs=2)
        res = run_training(cfg)
        report = verify_privacy_audit(res.audit)
        assert report.ok, report.summary()
        assert report.mode == mode


def test_audit_server_inbound_kinds_naive():
    cfg = make_config(P=2, max_epochs=2)
    res = run_training(cfg)
    inbound = {r.kind for r in res.audit.records if r.receiver == "server"}
    assert inbound <= {"NodeIndex", "LocalEmbedding", "PredGrad", "InputGrad"}


def test_audit_secure_mode_server_sees_no_plaintext_embeddings():
    cfg = make_config(P=2, mode="secure-pooling", max_epochs=2)
    res = run_training(cfg)
    n_local_emb = sum(1 for r in res.audit.records
                      if r.receiver == "server" and r.kind == "LocalEmbedding")
    assert n_local_emb == 0
    assert any(r.kind == "PoolResult" for r in res.audit.records)


def test_audit_flags_injected_rogue_message():
    cfg = make_config(P=2, max_epochs=1)
    _, _, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    # rogue: a holder ships its local embedding to the other holder
    session.channel.send("holder-0", "holder-1", MessageKind.LOCAL_EMBEDDING, 0, 0,
                         {"t": np.zeros((2, 2))})
    report = verify_privacy_audit(session.audit, mode="naive")
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.party == "holder-1"
    assert finding.kind == "LocalEmbedding"


def test_audit_flags_gradshare_at_server():
    cfg = make_config(P=2, max_epochs=1)
    _, _, session = make_session(cfg)
    session.channel.send("holder-0", "server", MessageKind.GRAD_SHARE, -1, 0,
                         {"share": np.zeros(4)})
    report = verify_privacy_audit(session.audit, mode="naive")
    assert any(f.kind == "GradShare" and f.party == "server" for f in report.findings)


def test_audit_flags_unknown_kind():
    cfg = make_config(P=2, max_epochs=1)
    _, _, session = make_session(cfg)
    session.audit.append("holder-0", "server", "SideChannel", "raw", 0, 0, 16)
    report = verify_privacy_audit(session.audit, mode="naive")
    assert any("closed schema" in f.description for f in report.findings)


@pytest.fixture(scope="module", params=["naive", "secure-pooling"])
def run_log(request):
    """(mode, the audit log of a one-epoch run in that mode)."""
    return request.param, run_training(make_config(P=2, mode=request.param, max_epochs=1)).audit


# (sender, receiver, kind, schema) of records no run sends: each is off its
# kind's route, carries the node digests (`keys`) that row messages no
# longer carry, or names holders the way no run does
OFF_TABLE = {
    "pool-result-forged-by-a-holder": ("holder-0", "server", "PoolResult", "m,winner"),
    "partial-sum-from-the-server": ("server", "holder-0", "PartialSum", "partial"),
    "grad-share-from-the-server": ("server", "holder-0", "GradShare", "seed"),
    "global-embedding-between-holders": ("holder-1", "holder-0", "GlobalEmbedding", "valid,h"),
    "node-index-to-itself": ("server", "server", "NodeIndex", "keys,wants"),
    "pool-input-from-the-server": ("server", "sealed-pool", "PoolInput", "valid,values"),
    "pred-grad-with-keys": ("holder-0", "server", "PredGrad", "valid,g,keys"),
    "input-grad-with-keys": ("holder-0", "server", "InputGrad", "valid,g,keys"),
    "local-embedding-with-keys": ("holder-0", "server", "LocalEmbedding", "valid,t,keys"),
    "grad-share-to-the-higher-holder": ("holder-0", "holder-1", "GradShare", "seed"),
    "partial-sum-to-its-sender": ("holder-1", "holder-1", "PartialSum", "partial"),
    "unregistered-holder": ("holder-7", "server", "PredGrad", "valid,g"),
    "holder-registering-after-init": ("holder-7", "server", "NodeIndex", "keys,wants"),
}


@pytest.mark.parametrize("record", OFF_TABLE.values(), ids=OFF_TABLE.keys())
def test_audit_flags_a_record_off_its_route_or_fields(run_log, record):
    mode, clean = run_log
    log = AuditLog()
    log.records = list(clean.records)
    assert verify_privacy_audit(log, mode=mode).ok
    sender, receiver, kind, schema = record
    log.append(sender, receiver, kind, schema, 0, 0, 64)
    report = verify_privacy_audit(log, mode=mode)
    assert [(f.party, f.kind) for f in report.findings] == [(receiver, kind)], report.summary()


# a record on its route and schema that only the other pooling mode's runs send
OTHER_MODE = {
    "naive": ("holder-0", "sealed-pool", "PoolInput", "valid,values", "secure-pooling"),
    "secure-pooling": ("holder-0", "server", "LocalEmbedding", "valid,t", "naive"),
}


def test_audit_flags_a_record_of_the_other_pooling_mode(run_log):
    mode, clean = run_log
    log = AuditLog()
    log.records = list(clean.records)
    sender, receiver, kind, schema, other = OTHER_MODE[mode]
    log.append(sender, receiver, kind, schema, 0, 0, 64)
    report = verify_privacy_audit(log, mode=mode)
    assert [(f.party, f.kind, f.description) for f in report.findings] == [
        (receiver, kind, f"belongs to {other} runs, not to a {mode} run")], report.summary()


# edits of a clean log that leave every record on its route and schema: only
# the logical clock `ts` gives them away
OUT_OF_PLACE = {
    "two-records-swapped": lambda r, i: r[:i] + [r[i + 1], r[i]] + r[i + 2:],
    "a-record-replayed": lambda r, i: r + [r[i]],
    "a-record-dropped": lambda r, i: r[:i] + r[i + 1:],
}


@pytest.mark.parametrize("edit", OUT_OF_PLACE.values(), ids=OUT_OF_PLACE.keys())
def test_audit_flags_a_record_out_of_its_place(run_log, edit):
    mode, clean = run_log
    log = AuditLog()
    log.records = edit(list(clean.records), len(clean.records) // 2)
    # every record after the edit is off its position; the first is the one finding
    first = next(position for position, rec in enumerate(log.records) if rec.ts != position)
    rec = log.records[first]
    report = verify_privacy_audit(log, mode=mode)
    assert [(f.party, f.kind) for f in report.findings] == [(rec.receiver, rec.kind)], (
        report.summary())
    assert (f"out of its place in the log: ts {rec.ts} where ts {first} was expected"
            in report.findings[0].description)


# -- communication accounting -----------------------------------------------------------

def test_comm_totals_are_consistent():
    cfg = make_config(P=2, max_epochs=2)
    res = run_training(cfg)
    assert res.comm.total() == sum(n for *_k, n in res.comm.rows())
    assert res.comm.bytes_for(kinds=[MessageKind.LOCAL_EMBEDDING]) > 0
    assert res.comm.bytes_for(kinds=[MessageKind.GRAD_SHARE]) > 0


def test_comm_csv_is_rebuilt_from_the_exported_audit_log(tmp_path):
    # the audit log is the one ledger of the wire: comm.csv folded from the
    # log read back from audit.jsonl is the run's own, byte for byte
    res = run_training(make_config(P=3, mode="secure-pooling", share_mode="fixed-point",
                                   max_epochs=2))
    write_comm_csv(res.comm, tmp_path / "comm.csv")
    write_audit_jsonl(res.audit, tmp_path / "audit.jsonl")
    back = AuditLog.from_jsonl((tmp_path / "audit.jsonl").read_text(encoding="utf-8"))
    write_comm_csv(CommStats.of(back), tmp_path / "rebuilt.csv")
    assert (tmp_path / "rebuilt.csv").read_bytes() == (tmp_path / "comm.csv").read_bytes()
    assert {r.kind for r in back.records} >= {"PoolInput", "PoolResult", "PartialSum"}


def test_no_gradshare_traffic_with_single_holder():
    cfg = make_config(P=1, max_epochs=2)
    res = run_training(cfg)
    assert res.comm.bytes_for(kinds=[MessageKind.GRAD_SHARE, MessageKind.PARTIAL_SUM]) == 0


@pytest.fixture
def sends(delivered_messages):
    """Every message the test delivers, in order (see `delivered_messages`)."""
    with delivered_messages() as delivered:
        yield delivered


def messages_at(sends, kind, layer):
    """{("sender->receiver", epoch): message count} of one kind at one layer."""
    return Counter((f"{d.sender}->{d.receiver}", d.epoch) for d in sends
                   if d.kind == kind.value and d.layer == layer)


@pytest.mark.parametrize("mode", ["naive", "secure-pooling"])
@pytest.mark.parametrize("message_linear", [False, True])
def test_weight_free_first_layer_is_pooled_once_per_run(sends, mode, message_linear):
    P, E = 3, 3
    cfg = make_config(P=P, mode=mode, max_epochs=E)
    cfg.model.message_linear = message_linear
    res = run_training(cfg)
    assert res.epochs_run == E
    if mode == "naive":
        sent = messages_at(sends, MessageKind.LOCAL_EMBEDDING, 0)
        to = "server"
    else:
        sent = messages_at(sends, MessageKind.POOL_INPUT, 0)
        pooled = messages_at(sends, MessageKind.POOL_RESULT, 0)
        to = "sealed-pool"
    grads = messages_at(sends, MessageKind.LOCAL_EMB_GRAD, 0)
    if message_linear:
        # layer 0 trains, so every sweep pools it: epoch 0 sweeps for training
        # and evaluation, and each later epoch trains on the evaluation sweep
        # before it; one backward per epoch
        sweeps = {e: 2 if e == 0 else 1 for e in range(E)}
        assert sent == {(f"holder-{p}->{to}", e): sweeps[e] for p in range(P) for e in range(E)}
        assert grads == {(f"server->holder-{p}", e): 1 for p in range(P) for e in range(E)}
        if mode != "naive":
            assert pooled == {("sealed-pool->server", e): sweeps[e] for e in range(E)}
    else:
        assert sent == {(f"holder-{p}->{to}", 0): 1 for p in range(P)}
        assert grads == {}
        if mode != "naive":
            assert pooled == {("sealed-pool->server", 0): 1}


# -- one forward sweep per epoch ----------------------------------------------------------

@pytest.mark.parametrize("mode", ["naive", "secure-pooling"])
def test_without_dropout_each_later_epoch_makes_one_sweep(sends, mode):
    # the evaluation sweep after epoch e's update is epoch e+1's training sweep
    P, E = 3, 4
    cfg = make_config(P=P, mode=mode, kind="gated", max_epochs=E)
    res = run_training(cfg)
    assert res.epochs_run == E
    up = MessageKind.LOCAL_EMBEDDING if mode == "naive" else MessageKind.POOL_INPUT
    for kind in (up, MessageKind.GLOBAL_EMBEDDING):
        first = res.comm.bytes_for(kinds=[kind], epoch=0)
        assert first > 0
        for e in range(1, E):
            assert 2 * res.comm.bytes_for(kinds=[kind], epoch=e) == first, (kind, e)
    down = messages_at(sends, MessageKind.GLOBAL_EMBEDDING, 1)
    assert down == {(f"server->holder-{p}", e): 2 if e == 0 else 1
                    for p in range(P) for e in range(E)}


@pytest.mark.parametrize("mode", ["naive", "secure-pooling"])
def test_with_dropout_every_epoch_makes_two_sweeps(sends, mode):
    # layer 0 has gate weights, and no update runs between an evaluation and
    # the next training sweep, so that sweep reuses the evaluation's layer-0
    # pool; layer 1 reads a fresh dropout mask and is pooled in both
    P, E = 3, 3
    res = run_training(make_config(P=P, kind="gated", mode=mode, dropout=0.3, max_epochs=E))
    assert res.epochs_run == E
    if mode == "naive":
        pools = [(MessageKind.LOCAL_EMBEDDING, [f"holder-{p}->server" for p in range(P)])]
    else:
        pools = [(MessageKind.POOL_INPUT, [f"holder-{p}->sealed-pool" for p in range(P)]),
                 (MessageKind.POOL_RESULT, ["sealed-pool->server"])]
    for kind, directions in pools:
        assert messages_at(sends, kind, 0) == {
            (d, e): 2 if e == 0 else 1 for d in directions for e in range(E)}, kind
        assert messages_at(sends, kind, 1) == {(d, e): 2 for d in directions for e in range(E)}
    assert messages_at(sends, MessageKind.GLOBAL_EMBEDDING, 1) == {
        (f"server->holder-{p}", e): 2 for p in range(P) for e in range(E)}


def test_a_second_forward_before_an_update_sends_nothing(sends):
    _, _, session = make_session(make_config(P=3, kind="gated"))
    first = forward_pass(session, train=True, epoch=0)
    probs = [h.probs for h in session.holders]
    sent = len(sends)
    assert sent > 0
    again = forward_pass(session, train=False, epoch=1)
    assert len(sends) == sent
    assert again is first
    assert all(h.probs is p for h, p in zip(session.holders, probs, strict=True))


def test_a_forward_after_an_update_sweeps_again(sends):
    _, _, session = make_session(make_config(P=3, kind="gated"))
    first = forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    weight_update(session, epoch=0)
    sent = len(sends)
    again = forward_pass(session, train=False, epoch=0)
    swept = Counter(d.kind for d in sends[sent:])
    layers = session.config.model.layers
    assert swept == {MessageKind.LOCAL_EMBEDDING.value: 3 * layers,
                     MessageKind.GLOBAL_EMBEDDING.value: 3 * layers}
    assert again is not first
    assert again.total_loss != first.total_loss


def test_a_backward_after_an_update_needs_a_new_forward():
    # the tapes and predictions describe the weights before the update
    _, _, session = make_session(make_config(P=2))
    forward_pass(session, train=True, epoch=0)
    # layer 0 is weight-free, and the backward stops at the server's layer-0
    # map, so no holder keeps a layer-0 tape
    assert all(holder.tapes[0] is None for holder in session.holders)
    backward_pass(session, epoch=0)
    weight_update(session, epoch=0)
    with pytest.raises(ProtocolError, match="backward requires a completed forward pass"):
        backward_pass(session, epoch=0)
    forward_pass(session, train=True, epoch=1)
    backward_pass(session, epoch=1)


def test_a_backward_through_an_evaluation_sweep_with_dropout_is_refused():
    # evaluation draws no dropout mask, so its tapes are not the network
    # that a training step differentiates; the refusal comes before anything
    # is sent or any gradient is reset
    _, _, session = make_session(make_config(P=3, kind="gated", dropout=0.5))
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    grads = [h.grad_acc for h in session.holders]
    flats = [g.flat() for g in grads]
    evaluate(session, epoch=0)
    sent, total = len(session.audit.records), CommStats.of(session.audit).total()
    with pytest.raises(ProtocolError, match="layer 0 has dropout 0.5 but its tape comes from "
                                            "an evaluation sweep"):
        backward_pass(session, epoch=0)
    assert len(session.audit.records) == sent
    assert CommStats.of(session.audit).total() == total
    for holder, g, flat in zip(session.holders, grads, flats, strict=True):
        assert holder.grad_acc is g
        assert np.array_equal(g.flat(), flat)
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)


def test_a_backward_after_evaluate_without_dropout_is_accepted():
    # without dropout the evaluation sweep is the training sweep, so its
    # gradients are those of a training forward
    cfg = make_config(P=3, kind="gated")
    _, _, evaluated = make_session(cfg)
    evaluate(evaluated, epoch=0)
    _, _, trained = make_session(cfg)
    forward_pass(trained, train=True, epoch=0)
    for a, b in zip(backward_pass(evaluated, epoch=0), backward_pass(trained, epoch=0),
                    strict=True):
        assert np.array_equal(a, b)


# -- holder-local row space ---------------------------------------------------------------

@pytest.mark.parametrize("mode", ["naive", "secure-pooling"])
def test_a_holder_sees_only_its_own_rows(sends, mode):
    # a holder knows the salt, so any digest of a node it does not hold would
    # give that node's id away; and a row count over its own would give n away
    cfg = make_config(P=3, n=36, kind="gated", mode=mode, part_kind="label-skew", q=20.0)
    cfg.model.message_linear = True
    g = build_dataset(cfg.dataset)
    holders = build_partition(g, cfg.partition)
    session = init_parties(cfg, holders)
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    # the update drops the predictions, so the holder arrays are read before it
    held = [[*holder.h, holder.probs] for holder in session.holders]
    weight_update(session, epoch=0)

    table = node_digests(g.node_ids, make_rng(cfg.train.seed, "salt").bytes(32))
    for p, (lg, holder, arrays) in enumerate(zip(holders, session.holders, held, strict=True)):
        ids = lg.graph.node_ids
        assert 0 < len(ids) < g.n_nodes
        foreign = [d.tobytes() for d, nid in zip(table, g.node_ids) if nid not in ids]
        got = [(d.kind, d.fields) for d in sends if d.receiver == holder_party(p)]
        # a pair's seed goes from its higher holder to its lower one, so the
        # top holder receives none
        top = p == cfg.partition.P - 1
        assert {kind for kind, _ in got} == {
            MessageKind.GLOBAL_EMBEDDING.value, MessageKind.LOCAL_EMB_GRAD.value,
            MessageKind.PARTIAL_SUM.value} | (set() if top else {MessageKind.GRAD_SHARE.value})
        for kind, fields in got:
            for name, value in fields.items():
                raw = value.tobytes()
                assert not any(d in raw for d in foreign), (kind, name)
            if kind in (MessageKind.GLOBAL_EMBEDDING.value, MessageKind.LOCAL_EMB_GRAD.value):
                assert len(fields["valid"]) == len(ids), kind
        assert all(a.shape[0] == len(ids) for a in arrays)
        assert holder.tapes[0] is not None      # layer 0 trains its message map
        for tape in holder.tapes:
            assert tape.rows.max() < len(ids)
            assert all(a.shape[0] == len(tape.rows) for a in (tape.pos, tape.m, tape.pre_gate))


def labelled_ids(lg: LocalGraph) -> np.ndarray:
    return np.concatenate(list(lg.graph.split_ids().values()))


@pytest.mark.parametrize("mode", ["naive", "secure-pooling"])
def test_global_embedding_carries_only_the_rows_a_holder_reads(sends, mode):
    # a lower layer's output feeds the next local layer, which reads only the
    # participating rows; the top layer's feeds the prediction head, which
    # reads only labelled rows. With full scope every holder has every node
    # and owns about a third of the labels.
    layers = 3
    cfg = make_config(P=3, n=30, kind="gated", mode=mode, layers=layers, max_epochs=2)
    cfg.model.message_linear = True
    holders = build_partition(build_dataset(cfg.dataset), cfg.partition)
    run_training(cfg, holders)
    up_kind = MessageKind.LOCAL_EMBEDDING if mode == "naive" else MessageKind.POOL_INPUT
    up, checked = {}, Counter()
    for sender, receiver, kind, layer, _epoch, fields in sends:
        if kind == up_kind.value:
            up[sender, layer] = fields["valid"]
        if kind != MessageKind.GLOBAL_EMBEDDING.value:
            continue
        lg = holders[int(receiver.removeprefix("holder-"))]
        valid = fields["valid"].astype(bool)
        assert fields["h"].shape == (np.count_nonzero(valid), cfg.model.hidden)
        if layer < layers - 1:
            # the same sweep's participation mask, which the server already has
            assert np.array_equal(fields["valid"], up[receiver, layer])
        else:
            assert np.array_equal(valid, np.isin(lg.graph.node_ids, labelled_ids(lg)))
            others = np.concatenate([labelled_ids(o) for o in holders if o is not lg])
            assert np.isin(lg.graph.node_ids, others).any()
            assert not np.isin(lg.graph.node_ids[valid], others).any()
            assert 0 < np.count_nonzero(valid) < lg.graph.n_nodes
        checked[layer < layers - 1] += 1
    assert checked[True] > 0 and checked[False] > 0


@pytest.mark.parametrize("mode", ["naive", "secure-pooling"])
def test_only_node_index_carries_digests(mode):
    # after the NodeIndex round every row message addresses a holder's rows
    # by position, so no message but NodeIndex has a `keys` field and no
    # party keeps a digest
    cfg = make_config(P=3, mode=mode, kind="gated", max_epochs=2)
    _, holders, session = make_session(cfg)
    ids = np.unique(np.concatenate([lg.graph.node_ids for lg in holders]))
    table = [d.tobytes() for d in node_digests(ids, make_rng(cfg.train.seed, "salt").bytes(32))]
    for party in [session.server, *session.holders]:
        values = list(vars(party).values())
        values += [v for d in values if isinstance(d, dict) for v in d.values()]
        for value in values:
            if isinstance(value, np.ndarray):
                raw = value.tobytes()
                assert not any(d in raw for d in table), type(party).__name__
    res = run_training(cfg)
    keyed = {r.kind for r in res.audit.records if "keys" in r.schema.split(",")}
    assert keyed == {"NodeIndex"}
    assert {r.schema for r in res.audit.records if r.kind == "PredGrad"} == {"valid,g"}


def _spread_ids(lg: LocalGraph, extra: int = 0) -> LocalGraph:
    """`lg` with every node id doubled, plus a path over the odd ids 1, 3, ...
    of `extra` new nodes, every other one a train label."""
    g = lg.graph
    new = 2 * np.arange(extra) + 1
    ids = np.concatenate([2 * g.node_ids, new])
    order = np.argsort(ids)
    rng = np.random.default_rng(0)
    features = np.concatenate([g.features, rng.normal(size=(extra, g.feat_dim))])
    labels = np.concatenate([g.labels, np.arange(extra) % g.n_classes])
    edges = np.concatenate([2 * g.edges, np.stack([new[:-1], new[1:]], axis=1)])
    graph = Graph(node_ids=ids[order], features=features[order], edges=edges,
                  labels=labels[order], train_ids=np.sort(np.concatenate([2 * g.train_ids,
                                                                          new[::2]])),
                  val_ids=2 * g.val_ids, test_ids=2 * g.test_ids, n_classes=g.n_classes)
    return LocalGraph(graph=graph, isolated_owned=2 * lg.isolated_owned)


@pytest.mark.parametrize("mode", ["naive", "secure-pooling"])
def test_holder_traffic_ignores_another_holders_component(mode):
    # a component that only holder 1 holds, its ids interleaved with holder
    # 0's, must not change one byte holder 0 sends or receives
    cfg = make_config(P=2, n=30, kind="gated", mode=mode, part_kind="label-skew", q=20.0)
    cfg.model.message_linear = True
    holders = build_partition(build_dataset(cfg.dataset), cfg.partition)
    counts = []
    for extra in (0, 9):
        grown = [_spread_ids(holders[0]), _spread_ids(holders[1], extra)]
        session = init_parties(cfg, grown)
        forward_pass(session, train=True, epoch=0)
        backward_pass(session, epoch=0)
        counts.append({key: n for key, n in CommStats.of(session.audit).counts.items()
                       if "holder-0" in key[1]})
    assert counts[0]
    assert counts[1] == counts[0]


# How a test tampers with field `name` of the decoded fields: a row fewer, a
# column fewer, its float64 bytes read as uint64, the field left out, its
# values halved (so a uint8 mask turns float64) or widened to uint64, or a
# `keys` field, which no row kind declares, added.
ROW_EDITS = {"short": lambda f, name: {**f, name: f[name][:-1]},
             "narrow": lambda f, name: {**f, name: f[name][:, :-1]},
             "uint64-view": lambda f, name: {**f, name: f[name].view(np.uint64)},
             "no-valid": lambda f, name: {k: v for k, v in f.items() if k != name},
             "float-valid": lambda f, name: {**f, name: f[name] * 0.5},
             "uint64-valid": lambda f, name: {**f, name: f[name].astype(np.uint64)},
             "extra-field": lambda f, name: {**f, "keys": np.zeros(16, dtype=np.uint8)}}
# (mode, kind, sender, receiver, the value block's field) of every sparse row kind
ROW_BLOCKS = [
    ("naive", MessageKind.LOCAL_EMBEDDING, "holder-1", "server", "t"),
    ("secure-pooling", MessageKind.POOL_INPUT, "holder-1", "sealed-pool", "values"),
    ("naive", MessageKind.INPUT_GRAD, "holder-1", "server", "g"),
    ("naive", MessageKind.LOCAL_EMB_GRAD, "server", "holder-1", "r"),
    ("naive", MessageKind.PRED_GRAD, "holder-1", "server", "g"),
    ("naive", MessageKind.GLOBAL_EMBEDDING, "server", "holder-1", "h"),
]
# (the edited field, or None for the value block; the edit; what the
# refusal says after "<sender>: <kind> to <receiver> carries")
_BLOCK = r"\(\d+, \d+\) as '{}', expected float64 \(\d+, \d+\)"
ROW_CASES = [
    ("valid", "short", r"uint8 \(\d+,\) as 'valid', expected uint8 \(\d+,\)"),
    (None, "short", "float64 " + _BLOCK),
    (None, "narrow", "float64 " + _BLOCK),
    (None, "uint64-view", "uint64 " + _BLOCK),
    ("valid", "no-valid", "nothing as 'valid', expected uint8"),
    ("valid", "float-valid", r"float64 \(\d+,\) as 'valid', expected uint8 \(\d+,\)"),
    ("valid", "uint64-valid", r"uint64 \(\d+,\) as 'valid', expected uint8 \(\d+,\)"),
    ("valid", "extra-field", r"undeclared fields \['keys'\]"),
]


@pytest.mark.parametrize("mode, kind, sender, receiver, field, edit, message", [
    pytest.param(mode, kind, sender, receiver, field or block, edit,
                 f"{sender}: {kind.value} to {receiver} carries {refusal.format(block)}",
                 id=f"{kind.value}-{field or block}-{edit}")
    for mode, kind, sender, receiver, block in ROW_BLOCKS
    for field, edit, refusal in ROW_CASES
])
def test_a_malformed_row_payload_is_refused(delivered_messages, tampering, mode, kind, sender,
                                            receiver, field, edit, message):
    cfg = make_config(P=2, mode=mode, kind="gated")
    _, _, session = make_session(cfg)
    tamper = tampering(kind.value, lambda f: ROW_EDITS[edit](f, field), sender, receiver)
    with delivered_messages(tamper), pytest.raises(ProtocolError, match=message):
        forward_pass(session, train=True, epoch=0)
        backward_pass(session, epoch=0)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda f: {**f, "m": f["m"][:-1]},
                 r"to server carries float64 \(\d+, \d+\) as 'm', expected float64 \(",
                 id="short-m"),
    pytest.param(lambda f: {**f, "winner": f["winner"][:, :-1]},
                 r"to server carries int8 \(\d+, \d+\) as 'winner', expected int8 \(",
                 id="narrow-winner"),
    pytest.param(lambda f: {**f, "winner": f["winner"].astype(np.int64)},
                 r"to server carries int64 \(\d+, \d+\) as 'winner', expected int8 \(",
                 id="wide-winner"),
    pytest.param(lambda f: {"m": f["m"]}, "to server carries nothing as 'winner', expected int8",
                 id="no-winner"),
    pytest.param(lambda f: {**f, "winner": np.full_like(f["winner"], 2)},
                 r"names a winner outside holders 0\.\.1", id="winner-too-large"),
    pytest.param(lambda f: {**f, "winner": np.full_like(f["winner"], -1)},
                 r"names a winner outside holders 0\.\.1", id="negative-winner"),
])
def test_a_malformed_pool_result_is_refused(delivered_messages, tampering, edit, message):
    cfg = make_config(P=2, mode="secure-pooling", kind="gated")
    _, _, session = make_session(cfg)
    with delivered_messages(tampering("PoolResult", edit)), pytest.raises(
            ProtocolError, match="sealed-pool: PoolResult " + message):
        forward_pass(session, train=True, epoch=0)
        backward_pass(session, epoch=0)


def test_a_local_emb_grad_row_the_holder_never_sent_is_refused(delivered_messages, tampering):
    # the server routes gradient only to rows a holder embedded; a row outside
    # them, here with a huge value, would reach the holder's weights unseen
    cfg = make_config(P=4, n=120, kind="gated")
    cfg.model.message_linear = True
    _, _, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    embedded = session.holders[2].wants[0]      # the participating rows: 117 of 120
    extra = int(np.flatnonzero(~embedded)[0])

    def add_row(fields):
        valid = fields["valid"].astype(bool)
        at = int(np.count_nonzero(valid[:extra]))
        valid[extra] = True
        return {"valid": valid.astype(np.uint8), "r": np.insert(fields["r"], at, 1e6, axis=0)}

    with delivered_messages(tampering("LocalEmbGrad", add_row, receiver="holder-2")), \
            pytest.raises(ProtocolError, match="holder 2: LocalEmbGrad .* row the holder did not"):
        backward_pass(session, epoch=0)


@pytest.mark.parametrize("ours, theirs", [(1.0, np.nextafter(1.0, 2.0)), (0.0, -0.0)],
                         ids=["one-ulp", "signed-zero"])
def test_an_update_refuses_replicas_that_differ_in_one_bit(monkeypatch, ours, theirs):
    # the replicas are compared bit for bit, so even -0.0 against +0.0 is refused
    _, _, session = make_session(make_config(P=3))
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    for holder, value in zip(session.holders, (ours, ours, theirs)):
        def apply_update(agg, holder=holder, update=holder.apply_update, value=value):
            update(agg)
            holder.locals_.arrays()[0].flat[0] = value
        monkeypatch.setattr(holder, "apply_update", apply_update)
    with pytest.raises(ProtocolError, match="replication invariant violated"):
        weight_update(session, epoch=0)


def test_a_refused_holder_step_logs_what_the_holders_in_turn_would(monkeypatch):
    # holders run their backward chains at once, each to its end, but the log
    # and the error are those of holders run one after another: holder 0's
    # chain, holder 1's LocalEmbGrad, then holder 1's error, and nothing of
    # holder 2's
    _, _, session = make_session(make_config(P=3))
    forward_pass(session, train=True, epoch=0)
    logged = len(session.audit)
    ran = set()

    def backward_local(*args, run=session.holders[0].backward_local):
        ran.add(0)
        return run(*args)

    def refuse(p, error):
        def backward_local(*_args):
            ran.add(p)
            raise error(f"holder {p} refuses")
        monkeypatch.setattr(session.holders[p], "backward_local", backward_local)

    monkeypatch.setattr(session.holders[0], "backward_local", backward_local)
    refuse(1, ProtocolError)
    refuse(2, RuntimeError)
    with pytest.raises(ProtocolError, match="holder 1 refuses"):
        backward_pass(session, epoch=0)
    # every holder's step ran, on one CPU as on all of them
    assert ran == {0, 1, 2}
    records = session.audit.records
    assert [(r.kind, r.sender, r.receiver) for r in records[logged:]] == (
        [("PredGrad", holder_party(p), "server") for p in range(3)]
        + [("LocalEmbGrad", "server", "holder-0"), ("InputGrad", "holder-0", "server"),
           ("LocalEmbGrad", "server", "holder-1")])
    assert [r.ts for r in records] == list(range(len(records)))


def test_a_local_layer_keeps_only_the_participating_rows():
    # on a uniform P=8 split each holder has a local edge at only a third of
    # its rows; its embeddings and tapes hold those rows and no others
    cfg = RunConfig(
        dataset=DatasetConfig(n_nodes=240, n_classes=4, feat_dim=64, intra_class_edge_prob=0.04,
                              inter_class_edge_prob=0.004, seed=3),
        partition=PartitionConfig(kind="uniform", P=8, seed=4),
        model=ModelConfig(layers=2, hidden=16, update_kind="gated", message_linear=True),
        train=TrainConfig(seed=5), share_mode="fixed-point")
    _, _, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    for holder in session.holders:
        rows = np.flatnonzero(holder.participates)
        assert 0 < rows.size < holder.n
        for l in range(cfg.model.layers):
            t = holder.forward_local(l)
            tape = holder.tapes[l]
            assert t.shape[0] == rows.size
            assert np.array_equal(tape.rows, rows)
            for a in (tape.pos, tape.m, tape.pre_gate):
                assert a.shape[0] == rows.size
    # Layer 0 of the holder with the fewest participating rows (75 of 240),
    # in units of one full-height float64 matrix (n x F): 2.91 measured, the
    # bound 3.3 leaves 13%; with an int64 source row per pooled element on
    # the tape it took 3.42, with full-height tapes and outputs 5.67.
    holder = min(session.holders, key=lambda h: np.count_nonzero(h.participates))
    tracemalloc.start()
    try:
        holder.forward_local(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full = holder.n * holder.feat_dim * 8
    assert peak < 3.3 * full, f"peak {peak / full:.2f} full-height matrices"
