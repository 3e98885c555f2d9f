import numpy as np
import pytest

from sapgnn.config import (DatasetConfig, PartitionConfig, RunConfig, TrainConfig)
from sapgnn.gnn import (ModelConfig, build_model_weights, centralized_forward_backward,
                        init_global_weights, init_local_weights)
from sapgnn.graphs import Graph, generate_synthetic, split_edges_uniform, union_graph
from sapgnn.numerics import make_rng
from sapgnn.protocol import (ProtocolError, aggregate_local_grads, backward_pass,
                             build_dataset, build_partition, forward_pass, init_parties,
                             run_training, verify_privacy_audit, weight_update)
from sapgnn.harness import compare_equivalence, train_centralized
from sapgnn.wire import Channel, MessageKind, encode_message


def make_config(P=2, n=24, kind="sum", mode="naive", share_mode="real", seed=9,
                layers=2, hidden=6, dropout=0.0, part_kind="uniform", q=0.0,
                dup=0.0, max_epochs=3, patience=50):
    return RunConfig(
        dataset=DatasetConfig(n_nodes=n, n_classes=3, feat_dim=5,
                              intra_class_edge_prob=0.3, inter_class_edge_prob=0.06,
                              seed=seed, class_sep=1.0, noise=0.8),
        partition=PartitionConfig(kind=part_kind, P=P, q=q, duplicate_fraction=dup,
                                  seed=seed + 1),
        model=ModelConfig(layers=layers, hidden=hidden, update_kind=kind, relu=True,
                          dropout=dropout),
        train=TrainConfig(lr=0.01, max_epochs=max_epochs, patience=patience,
                          seed=seed + 2),
        mode=mode, share_mode=share_mode)


def make_session(config):
    g = build_dataset(config.dataset)
    holders = build_partition(g, config.partition)
    return g, holders, init_parties(config, holders)


# -- initialization ------------------------------------------------------------

def test_init_replicates_local_weights():
    cfg = make_config(P=3)
    _, _, session = make_session(cfg)
    blobs = {h.weights_blob() for h in session.holders}
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
    assert s1.holders[0].weights_blob() == s2.holders[0].weights_blob()
    assert all(np.array_equal(a, b) for a, b in zip(s1.server.weights, s2.server.weights))


def test_init_rejects_dimension_mismatch():
    cfg = make_config(P=2)
    g = build_dataset(cfg.dataset)
    holders = build_partition(g, cfg.partition)
    other = generate_synthetic(10, 3, 7, 0.5, 0.1, seed=1)
    holders[1] = split_edges_uniform(other, 1)[0]
    holders[1].holder_id = 1
    with pytest.raises(ProtocolError, match="disagree"):
        init_parties(cfg, holders)


def test_init_rejects_more_holders_than_an_int8_winner_names():
    # a winner index past 127 wraps negative, so that holder's gradients
    # would be dropped without an error
    cfg = make_config(P=128, n=300)
    holders = build_partition(build_dataset(cfg.dataset), cfg.partition)
    assert len(holders) == 128
    with pytest.raises(ProtocolError, match="128 holders exceed the limit of 127"):
        init_parties(cfg, holders)


def test_init_refuses_an_unknown_node_digest(monkeypatch):
    cfg = make_config(P=2)
    holders = build_partition(build_dataset(cfg.dataset), cfg.partition)
    send = Channel.send

    def tampered(self, sender, receiver, kind, *args, **kwargs):
        decoded = send(self, sender, receiver, kind, *args, **kwargs)
        if kind is MessageKind.NODE_INDEX and sender == "holder-1":
            decoded["keys"][:16] ^= 0xFF
        return decoded

    monkeypatch.setattr(Channel, "send", tampered)
    with pytest.raises(ProtocolError, match="holder 1 sent a node digest the server does not"):
        init_parties(cfg, holders)


def _flip_first_digest(keys):
    keys[:16] ^= 0xFF
    return keys


@pytest.mark.parametrize("tamper, message", [
    (_flip_first_digest, "holder 1 sent a node digest the server does not know"),
    (lambda keys: keys[:-1], "holder 1 sent .* digest bytes, not a whole number"),
])
def test_backward_refuses_an_unknown_pred_grad_digest(monkeypatch, tamper, message):
    cfg = make_config(P=2)
    _, holders, session = make_session(cfg)
    assert holders[1].graph.train_ids.size     # holder 1 sends a nonempty PredGrad
    forward_pass(session)
    send = Channel.send

    def tampered(self, sender, receiver, kind, *args, **kwargs):
        decoded = send(self, sender, receiver, kind, *args, **kwargs)
        if kind is MessageKind.PRED_GRAD and sender == "holder-1":
            decoded["keys"] = tamper(decoded["keys"])
        return decoded

    monkeypatch.setattr(Channel, "send", tampered)
    with pytest.raises(ProtocolError, match=message):
        backward_pass(session)


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


def test_secure_pooling_refuses_a_nan_pool_input(monkeypatch):
    _, _, session = make_session(make_config(P=2, mode="secure-pooling"))
    holder = session.holders[1]
    forward_local = holder.forward_local

    def poisoned(l):
        t = forward_local(l)
        t[np.flatnonzero(holder.tapes[l].participates)[0], 0] = np.nan
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


def test_edge_incident_scope_matches_oracle():
    cfg = make_config(P=3, n=30)
    cfg.dataset.intra_class_edge_prob = 0.9   # dense enough that nobody is isolated
    cfg.dataset.inter_class_edge_prob = 0.5
    cfg.partition.node_scope = "edge-incident"
    g = build_dataset(cfg.dataset)
    holders = build_partition(g, cfg.partition)
    session = init_parties(cfg, holders)
    fwd = forward_pass(session, train=True, epoch=0)
    bwd = backward_pass(session, epoch=0)
    agg = aggregate_local_grads(session, epoch=0)
    ref = oracle_pass(cfg, holders)
    for h_prot, h_ref in zip(fwd.embeddings, ref.embeddings):
        assert np.max(np.abs(h_prot - h_ref)) < 1e-9
    for l, dW in enumerate(bwd.server_grads):
        assert np.max(np.abs(dW - ref.grads.w_global[l])) < 1e-9


# -- backward equivalence -----------------------------------------------------------

def test_backward_matches_oracle_gradients():
    cfg = make_config(P=2, n=6, hidden=4)
    _, holders, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    bwd = backward_pass(session, epoch=0)
    agg = aggregate_local_grads(session, epoch=0)
    ref = oracle_pass(cfg, holders)
    for l, dW in enumerate(bwd.server_grads):
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
    bwd = backward_pass(session, epoch=0)
    for holder in session.holders:
        for g in holder.grad_acc.arrays():
            assert np.allclose(g, 0.0)
    for dW in bwd.server_grads:
        assert np.allclose(dW, 0.0)


# -- weight update ---------------------------------------------------------------------

def test_update_equal_and_opposite_gradients_cancel():
    # ring arithmetic cancels exactly; a zero aggregate makes Adam a no-op
    cfg = make_config(P=2, share_mode="fixed-point")
    _, _, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    bwd = backward_pass(session, epoch=0)
    h0, h1 = session.holders
    h1.grad_acc.set_arrays([-g for g in h0.grad_acc.arrays()])
    before = h0.weights_blob()
    for l in range(len(bwd.server_grads)):
        bwd.server_grads[l] = np.zeros_like(bwd.server_grads[l])
    weight_update(session, bwd, epoch=0)
    assert h0.weights_blob() == before  # zero aggregate: Adam step is a no-op
    assert h1.weights_blob() == before


def test_aggregate_overflow_raises_protocol_error():
    cfg = make_config(P=3, share_mode="fixed-point")
    _, _, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    backward_pass(session, epoch=0)
    for holder in session.holders:
        holder.grad_acc.w_predict[0, 0] = 1.5 * 2.0 ** 41
    with pytest.raises(ProtocolError, match="summed over 3 holders"):
        aggregate_local_grads(session, epoch=0)


def test_update_preserves_replication():
    for share_mode in ("real", "fixed-point"):
        cfg = make_config(P=3, share_mode=share_mode)
        _, _, session = make_session(cfg)
        for epoch in range(2):
            forward_pass(session, train=True, epoch=epoch)
            bwd = backward_pass(session, epoch=epoch)
            weight_update(session, bwd, epoch=epoch)
            assert len({h.weights_blob() for h in session.holders}) == 1


def test_update_detects_divergence():
    cfg = make_config(P=2)
    _, _, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    bwd = backward_pass(session, epoch=0)
    session.holders[1].locals_.w_predict = session.holders[1].locals_.w_predict + 1.0
    with pytest.raises(ProtocolError, match="replication"):
        weight_update(session, bwd, epoch=0)


def test_one_step_matches_centralized_adam():
    cfg = make_config(P=2, max_epochs=1)
    g, holders, session = make_session(cfg)
    forward_pass(session, train=True, epoch=0)
    bwd = backward_pass(session, epoch=0)
    weight_update(session, bwd, epoch=0)

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
    session.audit.append("holder-0", "server", "SideChannel", "raw")
    report = verify_privacy_audit(session.audit, mode="naive")
    assert any("closed schema" in f.description for f in report.findings)


# -- communication accounting -----------------------------------------------------------

def test_comm_totals_are_consistent():
    cfg = make_config(P=2, max_epochs=2)
    res = run_training(cfg)
    assert res.comm.total() == sum(n for *_k, n in res.comm.rows())
    assert res.comm.bytes_for(kinds=[MessageKind.LOCAL_EMBEDDING]) > 0
    assert res.comm.bytes_for(kinds=[MessageKind.GRAD_SHARE]) > 0


def test_no_gradshare_traffic_with_single_holder():
    cfg = make_config(P=1, max_epochs=2)
    res = run_training(cfg)
    assert res.comm.bytes_for(kinds=[MessageKind.GRAD_SHARE, MessageKind.PARTIAL_SUM]) == 0


def messages_at(comm, kind, layer, fields):
    """{(direction, epoch): message count} of one kind at one layer, where
    every message carries `fields` (shapes and dtypes fix its size)."""
    size = len(encode_message(kind, layer, 0, 0, fields))
    out = {}
    for (k, direction, lay, epoch), n_bytes in comm.counts.items():
        if k == kind.value and lay == layer:
            assert n_bytes % size == 0
            out[(direction, epoch)] = n_bytes // size
    return out


@pytest.mark.parametrize("mode", ["naive", "secure-pooling"])
@pytest.mark.parametrize("message_linear", [False, True])
def test_weight_free_first_layer_is_pooled_once_per_run(mode, message_linear):
    P, E, n, F = 3, 3, 24, 5
    cfg = make_config(P=P, n=n, mode=mode, max_epochs=E)
    cfg.model.message_linear = message_linear
    res = run_training(cfg)
    assert res.epochs_run == E
    keys = np.zeros(n * 16, dtype=np.uint8)
    rows = np.zeros((n, F))
    if mode == "naive":
        sent = messages_at(res.comm, MessageKind.LOCAL_EMBEDDING, 0, {"keys": keys, "t": rows})
        to = "server"
    else:
        sent = messages_at(res.comm, MessageKind.POOL_INPUT, 0,
                           {"keys": keys, "valid": np.zeros(n, dtype=np.uint8), "values": rows})
        pooled = messages_at(res.comm, MessageKind.POOL_RESULT, 0,
                             {"keys": keys, "m": rows, "winner": rows.astype(np.int8)})
        to = "sealed-pool"
    grads = messages_at(res.comm, MessageKind.LOCAL_EMB_GRAD, 0, {"keys": keys, "r": rows})
    if message_linear:
        # layer 0 trains: two sweeps (training and evaluation) and one backward per epoch
        assert sent == {(f"holder-{p}->{to}", e): 2 for p in range(P) for e in range(E)}
        assert grads == {(f"server->holder-{p}", e): 1 for p in range(P) for e in range(E)}
        if mode != "naive":
            assert pooled == {("sealed-pool->server", e): 2 for e in range(E)}
    else:
        assert sent == {(f"holder-{p}->{to}", 0): 1 for p in range(P)}
        assert grads == {}
        if mode != "naive":
            assert pooled == {("sealed-pool->server", 0): 1}
