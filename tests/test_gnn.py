import math

import numpy as np
import pytest

from sapgnn.gnn import (ModelConfig, NeighborIndex, UpdateKind, aggregate_max,
                        build_model_weights, centralized_forward,
                        centralized_forward_backward, check_monotone_update,
                        global_embedding, local_embedding, predict_and_loss,
                        predict_backward, stack_max)
from sapgnn.graphs import Graph, generate_synthetic
from sapgnn.numerics import NEG_INF, finite_diff_grad, make_rng


def build_graph(node_ids, features, edges, labels, train, n_classes):
    ids = np.asarray(node_ids, dtype=np.int64)
    return Graph(node_ids=ids, features=np.asarray(features, dtype=np.float64),
                 edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                 labels=np.asarray(labels, dtype=np.int64),
                 train_ids=np.asarray(train, dtype=np.int64),
                 val_ids=np.empty(0, dtype=np.int64), test_ids=np.empty(0, dtype=np.int64),
                 n_classes=n_classes)


# -- max aggregation -------------------------------------------------------------

def test_aggregate_max_examples():
    agg, idx = aggregate_max([[1.0, 4.0], [3.0, 2.0]])
    assert np.array_equal(agg, [3.0, 4.0])
    assert np.array_equal(idx, [1, 0])
    agg, idx = aggregate_max([[7.0, -1.0]])
    assert np.array_equal(agg, [7.0, -1.0]) and np.array_equal(idx, [0, 0])
    with pytest.raises(ValueError):
        aggregate_max(np.empty((0, 3)))


def test_aggregate_max_matches_scan_oracle():
    rng = make_rng(11, 0)
    msgs = rng.normal(size=(5, 8))
    agg, idx = aggregate_max(msgs)
    for k in range(8):
        best_val, best_i = -np.inf, -1
        for i in range(5):
            if msgs[i, k] > best_val:
                best_val, best_i = msgs[i, k], i
        assert agg[k] == best_val and idx[k] == best_i


def test_max_subgradient_consistency():
    # shrinking a non-winning message never changes the pooled output
    rng = make_rng(12, 0)
    msgs = rng.normal(size=(4, 6))
    agg, idx = aggregate_max(msgs)
    for k in range(6):
        loser = (idx[k] + 1) % 4
        if msgs[loser, k] == agg[k]:
            continue
        bumped = msgs.copy()
        bumped[loser, k] -= 1e-6
        agg2, _ = aggregate_max(bumped)
        assert agg2[k] == agg[k]


# -- local embedding ---------------------------------------------------------------

def _index_for(edges, n):
    return NeighborIndex.from_edges(np.asarray(edges, dtype=np.int64), n)


def test_local_embedding_sum_example():
    # v at row 0 with h_v=(2,2); neighbors u1=(1,0), u2=(0,1): t_v = (3,3)
    h = np.array([[2.0, 2.0], [1.0, 0.0], [0.0, 1.0]])
    idx = _index_for([[0, 1], [0, 2]], 3)
    t, tape = local_embedding(h, idx, np.empty(0, dtype=np.int64), UpdateKind.SUM,
                              None, None)
    assert np.array_equal(t[0], [3.0, 3.0])
    assert tape.participates.all()


def test_local_embedding_non_owned_is_sentinel():
    h = np.zeros((4, 2))
    idx = _index_for([[0, 1]], 4)  # rows 2, 3 have no local neighbors
    t, tape = local_embedding(h, idx, np.empty(0, dtype=np.int64), UpdateKind.SUM,
                              None, None)
    assert np.all(t[2] == NEG_INF) and np.all(t[3] == NEG_INF)
    assert not tape.participates[2] and not tape.participates[3]


def test_local_embedding_isolated_node_keeps_state():
    h = np.array([[5.0, -1.0]])
    t, tape = local_embedding(h, _index_for(np.empty((0, 2)), 1), np.array([0]),
                              UpdateKind.SUM, None, None)
    assert np.array_equal(t[0], [5.0, -1.0])   # zero message: state passes through
    assert tape.participates[0] and tape.winner[0, 0] == -1


def test_local_embedding_matches_bruteforce_replay():
    g = generate_synthetic(6, 2, 3, 0.9, 0.6, seed=4)
    ranks = g.rank_of(g.edges.ravel()).reshape(-1, 2)
    h = make_rng(13, 0).normal(size=(6, 3))
    t, _ = local_embedding(h, _index_for(ranks, 6), np.empty(0, dtype=np.int64),
                           UpdateKind.SUM, None, None)
    neigh = {v: [] for v in range(6)}
    for u, v in ranks.tolist():
        neigh[u].append(v)
        neigh[v].append(u)
    for v in range(6):
        if not neigh[v]:
            continue
        expected = h[v] + np.max(h[neigh[v]], axis=0)
        assert np.array_equal(t[v], expected)


def test_local_embedding_concat_and_gated_shapes():
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    idx = _index_for([[0, 1]], 2)
    t, _ = local_embedding(h, idx, np.empty(0, dtype=np.int64), UpdateKind.CONCAT,
                           None, None)
    assert t.shape == (2, 4)
    assert np.array_equal(t[0], [1.0, 2.0, 3.0, 4.0])
    w_gate = np.eye(2)
    t, _ = local_embedding(h, idx, np.empty(0, dtype=np.int64), UpdateKind.GATED,
                           None, w_gate)
    assert np.array_equal(t[0], np.maximum(h[0], 0.0) * h[1])


# -- cross-holder pooling --------------------------------------------------------

def test_stack_max_single_holder_identity():
    t = make_rng(14, 0).normal(size=(1, 5, 3))
    m, winner = stack_max(t)
    assert np.array_equal(m, t[0])
    assert np.all(winner == 0)


def test_stack_max_sentinel_never_wins():
    real = make_rng(15, 0).normal(size=(4, 3))
    sentinel = np.full((4, 3), NEG_INF)
    m, winner = stack_max(np.stack([real, sentinel]))
    assert np.array_equal(m, real)
    assert np.all(winner == 0)


def test_stack_max_matches_bruteforce():
    stacks = make_rng(16, 0).normal(size=(3, 7, 4))
    m, winner = stack_max(stacks)
    assert np.array_equal(m, stacks.max(axis=0))
    assert np.array_equal(winner, stacks.argmax(axis=0).astype(np.int8))


def test_stack_max_all_sentinel_node_raises():
    sentinel = np.full((2, 2, 2), NEG_INF)
    sentinel[:, 0, :] = 1.0
    with pytest.raises(ValueError, match="unknown to every holder"):
        stack_max(sentinel)


def test_global_embedding_single_holder():
    t = make_rng(17, 0).normal(size=(1, 4, 3))
    w = make_rng(18, 0).normal(size=(2, 3))
    h, winner = global_embedding(t, w)
    assert np.array_equal(h, t[0] @ w.T)
    assert np.all(winner == 0)


def test_global_embedding_sentinel_holder_ignored():
    t1 = make_rng(19, 0).normal(size=(4, 3))
    stack = np.stack([t1, np.full((4, 3), NEG_INF)])
    h, winner = global_embedding(stack, np.eye(3))
    assert np.array_equal(h, t1)
    assert np.all(winner == 0)


def test_global_embedding_identity_map_is_stack_max():
    stacks = make_rng(20, 0).normal(size=(3, 5, 4))
    h, _ = global_embedding(stacks, np.eye(4), use_relu=False)
    assert np.array_equal(h, stacks.max(axis=0))


# -- prediction and loss ------------------------------------------------------------

def test_loss_uniform_logits_is_ln2_per_node():
    h = np.array([[0.0, 0.0]])
    w = np.eye(2)
    probs, loss = predict_and_loss(h, np.array([0]), np.array([0]), w)
    assert abs(loss - math.log(2.0)) < 1e-12
    assert np.allclose(probs, 0.5)


def test_loss_confident_correct_is_near_zero():
    h = np.array([[60.0, -60.0]])
    probs, loss = predict_and_loss(h, np.array([0]), np.array([0]), np.eye(2))
    assert loss < 1e-12


def test_loss_three_node_hand_computed():
    h = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    rows = np.array([0, 1, 2])
    classes = np.array([0, 1, 0])
    _, loss = predict_and_loss(h, rows, classes, w)
    expected = 0.0
    for r, c in zip(rows, classes):
        logits = h[r]
        p = math.exp(logits[c]) / (math.exp(logits[0]) + math.exp(logits[1]))
        expected += -math.log(p)
    assert abs(loss - expected) < 1e-12


def test_loss_rejects_class_out_of_range():
    with pytest.raises(ValueError):
        predict_and_loss(np.zeros((1, 2)), np.array([0]), np.array([5]), np.eye(2))


def test_predict_backward_matches_softmax_grad():
    h = make_rng(17, 0).normal(size=(4, 3))
    w = make_rng(18, 0).normal(size=(2, 3))
    rows = np.array([1, 3])
    classes = np.array([0, 1])
    probs, _ = predict_and_loss(h, rows, classes, w)
    dW, dH = predict_backward(h, probs, rows, classes, w)
    fd = finite_diff_grad(
        lambda wf: predict_and_loss(h, rows, classes, wf.reshape(2, 3))[1],
        w.ravel().copy(), 1e-6).reshape(2, 3)
    assert np.max(np.abs(dW - fd)) < 1e-6
    assert np.all(dH[[0, 2]] == 0.0)


# -- centralized reference model ------------------------------------------------------

def _model_cfg(kind, **kw):
    kw.setdefault("layers", 2)
    kw.setdefault("hidden", 4)
    kw.setdefault("relu", True)
    return ModelConfig(update_kind=kind, **kw)


def test_two_node_single_edge_hand_evaluation():
    g = build_graph([0, 1], [[1.0, 2.0], [3.0, -1.0]], [[0, 1]], [0, 1], [0, 1], 2)
    cfg = ModelConfig(layers=1, hidden=2, update_kind=UpdateKind.SUM, relu=False)
    weights = build_model_weights(cfg, 2, 2, make_rng(0, 0), make_rng(1, 0))
    weights.layers[0].w_global = np.eye(2)
    out = centralized_forward_backward(g, weights, cfg)
    h1 = out.embeddings[0]
    assert np.array_equal(h1[0], g.features[0] + g.features[1])
    assert np.array_equal(h1[1], g.features[1] + g.features[0])


def fd_agrees(analytic, fd, rtol=1e-5, atol=1e-9):
    """Per-entry |a-f| <= atol + rtol*max(|a|,|f|); the absolute floor covers
    central-difference roundoff on entries near zero."""
    gap = np.abs(analytic - fd)
    return bool(np.all(gap <= atol + rtol * np.maximum(np.abs(analytic), np.abs(fd))))


@pytest.mark.parametrize("kind,linear_msg", [
    (UpdateKind.SUM, False),
    (UpdateKind.CONCAT, False),
    (UpdateKind.GATED, False),
    (UpdateKind.NEGATED_SUM, False),
    (UpdateKind.SUM, True),
])
def test_gradients_match_finite_differences(kind, linear_msg):
    cfg = ModelConfig(layers=2, hidden=4, update_kind=kind, relu=True,
                      message_linear=linear_msg)
    g = generate_synthetic(6, 2, 3, 0.9, 0.5, seed=23, class_sep=0.5, noise=0.3)
    weights = build_model_weights(cfg, g.feat_dim, g.n_classes,
                                  make_rng(31, 0), make_rng(32, 0))
    ref = centralized_forward_backward(g, weights, cfg)

    def check(analytic, get, set_):
        orig = get().copy()

        def f(flat):
            set_(flat.reshape(orig.shape).copy())
            val = centralized_forward_backward(g, weights, cfg).loss
            set_(orig.copy())
            return val

        fd = finite_diff_grad(f, orig.ravel().copy(), 1e-6).reshape(orig.shape)
        assert fd_agrees(analytic, fd)

    for l in range(cfg.layers):
        lw = weights.layers[l]
        check(ref.grads.w_global[l], lambda lw=lw: lw.w_global,
              lambda a, lw=lw: setattr(lw, "w_global", a))
        if lw.w_message is not None:
            check(ref.grads.w_message[l], lambda lw=lw: lw.w_message,
                  lambda a, lw=lw: setattr(lw, "w_message", a))
        if lw.w_gate is not None:
            check(ref.grads.w_gate[l], lambda lw=lw: lw.w_gate,
                  lambda a, lw=lw: setattr(lw, "w_gate", a))
    check(ref.grads.w_predict, lambda: weights.w_predict,
          lambda a: setattr(weights, "w_predict", a))


def test_permuted_node_ids_give_same_outputs():
    # relabel ids so the internal row order scrambles; per-node outputs and
    # the loss must not change
    g = generate_synthetic(8, 2, 3, 0.7, 0.3, seed=24)
    perm = make_rng(25, 0).permutation(8)
    remap = {int(old): int(perm[r] * 10 + 5) for r, old in enumerate(g.node_ids)}
    ids2 = np.array(sorted(remap.values()), dtype=np.int64)
    inv = {v: k for k, v in remap.items()}
    order = np.array([g.rank_of([inv[int(i)]])[0] for i in ids2])
    g2 = build_graph(ids2, g.features[order],
                     [[remap[int(u)], remap[int(v)]] for u, v in g.edges.tolist()],
                     g.labels[order],
                     sorted(remap[int(i)] for i in g.train_ids), g.n_classes)
    cfg = _model_cfg(UpdateKind.SUM)
    weights = build_model_weights(cfg, 3, 2, make_rng(41, 0), make_rng(42, 0))
    out1 = centralized_forward_backward(g, weights, cfg)
    out2 = centralized_forward_backward(g2, weights, cfg)
    rank1 = {int(i): r for r, i in enumerate(g.node_ids)}
    rank2 = {int(i): r for r, i in enumerate(g2.node_ids)}
    for old_id, new_id in remap.items():
        for h1, h2 in zip(out1.embeddings, out2.embeddings):
            assert np.array_equal(h1[rank1[old_id]], h2[rank2[new_id]])
    assert out1.loss == out2.loss


def test_loss_additivity_disjoint_label_groups():
    g = generate_synthetic(12, 3, 4, 0.5, 0.2, seed=26)
    cfg = _model_cfg(UpdateKind.SUM)
    weights = build_model_weights(cfg, 4, 3, make_rng(51, 0), make_rng(52, 0))
    _, probs = centralized_forward(g, weights, cfg)
    rows = g.rank_of(g.train_ids)
    classes = g.labels[rows]
    terms = -np.log(np.maximum(probs[rows, classes], 1e-12))
    total = float(np.sum(terms))
    grouped = float(np.sum(np.concatenate([terms[0::2], terms[1::2]])
                           [np.argsort(np.concatenate([rows[0::2], rows[1::2]]),
                                       kind="stable")]))
    assert grouped == total


# -- monotone update validation ---------------------------------------------------

def test_monotone_kinds_always_hold():
    for kind in (UpdateKind.SUM, UpdateKind.CONCAT, UpdateKind.GATED):
        report = check_monotone_update(kind, 300, make_rng(61, 0))
        assert report["holds"] == 1.0, (kind, report)


def test_negated_sum_violates():
    report = check_monotone_update(UpdateKind.NEGATED_SUM, 300, make_rng(62, 0))
    assert report["holds"] < 0.1


def test_update_kind_monotone_flags():
    assert UpdateKind.SUM.monotone and UpdateKind.CONCAT.monotone
    assert UpdateKind.GATED.monotone and not UpdateKind.NEGATED_SUM.monotone
