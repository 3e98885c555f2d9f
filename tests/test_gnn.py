import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sapgnn.gnn import (ModelConfig, NeighborIndex, UpdateKind, build_model_weights,
                        centralized_forward, centralized_forward_backward,
                        check_monotone_update, global_update, init_local_weights,
                        local_backward, local_embedding, pooled_messages, predict_and_loss,
                        predict_backward, stack_max)
from sapgnn.graphs import Graph, generate_synthetic
from sapgnn.numerics import finite_diff_grad, make_rng

LOWEST = np.finfo(np.float64).min


def build_graph(node_ids, features, edges, labels, train, n_classes):
    ids = np.asarray(node_ids, dtype=np.int64)
    return Graph(node_ids=ids, features=np.asarray(features, dtype=np.float64),
                 edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                 labels=np.asarray(labels, dtype=np.int64),
                 train_ids=np.asarray(train, dtype=np.int64),
                 val_ids=np.empty(0, dtype=np.int64), test_ids=np.empty(0, dtype=np.int64),
                 n_classes=n_classes)


# -- max pooling -------------------------------------------------------------------

@st.composite
def pooling_inputs(draw):
    """A random multigraph (duplicate edges, self-loops, isolated rows) and
    messages drawn from a few values, so that ties are common, among them
    ties between -0.0 and +0.0."""
    n = draw(st.integers(1, 9))
    d = draw(st.integers(1, 4))
    rank = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(rank, rank), max_size=24))
    values = draw(st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 1.0, 3.0]),
                           min_size=n * d, max_size=n * d))
    return (np.array(edges, dtype=np.int64).reshape(-1, 2),
            np.array(values).reshape(n, d))


def scan_pool(edges, msg):
    """Brute force: per row and column, scan the sources in ascending rank and
    keep the first strictly larger value."""
    n, d = msg.shape
    sources = [[] for _ in range(n)]
    for u, v in edges.tolist():
        sources[u].append(v)
        sources[v].append(u)
    m = np.full((n, d), LOWEST)
    winner = np.full((n, d), -1)
    for v in range(n):
        for k in range(d):
            for u in sorted(sources[v]):
                if winner[v, k] < 0 or msg[u, k] > m[v, k]:
                    m[v, k], winner[v, k] = msg[u, k], u
    return m, winner


@settings(max_examples=150, deadline=None)
@given(pooling_inputs())
@example((np.empty((0, 2), dtype=np.int64), np.array([[1.0, -2.0]])))
@example((np.array([[0, 0]]), np.array([[1.0, -2.0]])))
@example((np.array([[0, 1], [0, 2]]), np.array([[5.0], [-0.0], [0.0]])))
# a hub of in-degree 300 whose max sits past the 256 positions a uint8 names
@example((np.stack([np.zeros(300, dtype=np.int64), np.arange(1, 301)], axis=1),
          np.stack([np.arange(301.0), -np.arange(301.0)], axis=1)))
def test_pooled_messages_matches_scan(inputs):
    edges, msg = inputs
    n = msg.shape[0]
    idx = NeighborIndex.from_edges(edges, [])
    K = len(idx.offsets) - 1
    slots = np.arange(len(idx.dst))[:, None]
    m, pos = pooled_messages(msg, idx)
    # positions come in first_max's dtype: uint16 for the 300-neighbour hub
    assert pos.dtype == np.min_scalar_type(max(K - 1, 0))
    winner = idx.source_of(slots, pos)
    want_m, want_winner = scan_pool(edges, msg)
    # one row per destination in idx.dst order, compared by bit pattern:
    # array_equal takes -0.0 == +0.0 and would miss a sign flip
    dst = idx.rows[idx.dst]
    assert np.array_equal(m.view(np.int64), want_m[dst].view(np.int64))
    assert np.array_equal(winner, want_winner[dst])
    if n > 40:
        return   # the lowering sweep below is quadratic in n
    # the max subgradient goes to the winner alone: lowering any other
    # source's message moves neither the max nor the winner
    for s in range(n):
        lowered = msg.copy()
        lowered[s] -= 1.0
        m2, pos2 = pooled_messages(lowered, idx)
        winner2 = idx.source_of(slots, pos2)
        others = winner != s
        assert np.array_equal(m2[others], m[others])
        assert np.array_equal(winner2[others], winner[others])


# -- local embedding ---------------------------------------------------------------

def test_local_embedding_sum_example():
    # v at row 0 with h_v=(2,2); neighbors u1=(1,0), u2=(0,1): t_v = (3,3)
    h = np.array([[2.0, 2.0], [1.0, 0.0], [0.0, 1.0]])
    idx = NeighborIndex.from_edges([[0, 1], [0, 2]], [])
    t, tape = local_embedding(h, idx, UpdateKind.SUM, None, None)
    assert np.array_equal(t[0], [3.0, 3.0])
    assert tape.rows.tolist() == [0, 1, 2]


def test_local_embedding_leaves_out_non_participating_rows():
    h = np.arange(10.0).reshape(5, 2)
    # rows 0, 2, 4 have no local neighbors; row 4 has none in the combined graph either
    idx = NeighborIndex.from_edges([[3, 1]], [4])
    t, tape = local_embedding(h, idx, UpdateKind.GATED, np.eye(2), np.eye(2))
    assert tape.rows.tolist() == [1, 3, 4]   # row 4 is isolated in the combined graph
    assert np.array_equal(t, [[2.0 * 6.0, 3.0 * 7.0], [6.0 * 2.0, 7.0 * 3.0], [0.0, 0.0]])
    for a in (t, tape.pos, tape.m, tape.pre_gate):
        assert a.shape == (3, 2)


def test_local_embedding_isolated_node_keeps_state():
    h = np.array([[5.0, -1.0]])
    idx = NeighborIndex.from_edges(np.empty((0, 2)), [0])
    t, tape = local_embedding(h, idx, UpdateKind.SUM, None, None)
    assert np.array_equal(t[0], [5.0, -1.0])   # zero message: state passes through
    assert tape.rows.tolist() == [0] and idx.slot.tolist() == [-1]
    # its constant zero message has no source, so the gradient stays on the row
    R = np.array([[2.0, 3.0]])
    _, _, dH = local_backward(h, tape, UpdateKind.SUM, None, None, R)
    assert np.array_equal(dH, R)


@pytest.mark.parametrize("kind", [UpdateKind.SUM, UpdateKind.GATED])
@pytest.mark.parametrize("hub", [40, 300])
def test_the_tape_keeps_first_max_positions_and_no_source_rows(kind, hub):
    # a hub of in-degree `hub` among random edges: below 257 neighbour
    # positions the tape holds one byte per pooled element
    rng = make_rng(72, hub)
    n, d = 400, 6
    edges = np.concatenate([rng.integers(0, n, size=(600, 2)),
                            np.stack([np.zeros(hub, dtype=np.int64), np.arange(1, hub + 1)],
                                     axis=1)])
    idx = NeighborIndex.from_edges(edges, [])
    K = len(idx.offsets) - 1
    h = rng.normal(size=(n, d))
    w_gate = rng.normal(size=(d, d)) if kind is UpdateKind.GATED else None
    _, tape = local_embedding(h, idx, kind, None, w_gate)
    r = len(tape.rows)
    assert tape.pos.dtype == np.min_scalar_type(K - 1) and tape.pos.shape == (r, d)
    assert (tape.pos.itemsize == 1) == (K <= 256)
    # the pooled message is kept for the gated backward only
    assert (tape.m is None) == (kind is not UpdateKind.GATED)
    arrays = [getattr(tape, f.name) for f in dataclasses.fields(tape)]
    assert not any(isinstance(a, np.ndarray) and a.dtype == np.int64 and a.shape == (r, d)
                   for a in arrays)
    # the positions name the sources a brute-force scan picks, in row order
    _, want = scan_pool(edges, h)
    live = idx.slot >= 0
    got = idx.source_of(idx.slot[live][:, None], tape.pos[live])
    assert np.array_equal(got, want[tape.rows[live]])


def test_local_embedding_matches_bruteforce_replay():
    g = generate_synthetic(6, 2, 3, 0.9, 0.6, seed=4)
    ranks = g.rank_of(g.edges.ravel()).reshape(-1, 2)
    h = make_rng(13, 0).normal(size=(6, 3))
    t, tape = local_embedding(h, NeighborIndex.from_edges(ranks, []), UpdateKind.SUM,
                              None, None)
    neigh = {v: [] for v in range(6)}
    for u, v in ranks.tolist():
        neigh[u].append(v)
        neigh[v].append(u)
    assert tape.rows.tolist() == [v for v in range(6) if neigh[v]]
    for i, v in enumerate(tape.rows):
        expected = h[v] + np.max(h[neigh[v]], axis=0)
        assert np.array_equal(t[i], expected)


def test_local_embedding_concat_and_gated_shapes():
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    idx = NeighborIndex.from_edges([[0, 1]], [])
    t, _ = local_embedding(h, idx, UpdateKind.CONCAT, None, None)
    assert t.shape == (2, 4)
    assert np.array_equal(t[0], [1.0, 2.0, 3.0, 4.0])
    w_gate = np.eye(2)
    t, _ = local_embedding(h, idx, UpdateKind.GATED, None, w_gate)
    assert np.array_equal(t[0], np.maximum(h[0], 0.0) * h[1])


# -- local backward ------------------------------------------------------------------

@st.composite
def backward_inputs(draw):
    """A pooling_inputs multigraph and state h, some edgeless rows marked
    isolated, an update kind, an optional message map and a gradient R. Every
    value is a small dyadic rational, so each sum is exact in any order."""
    edges, h = draw(pooling_inputs())
    n, d = h.shape
    quarter = st.integers(-8, 8).map(lambda i: i / 4)

    def matrix(rows, cols):
        return np.array(draw(st.lists(quarter, min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)

    edgeless = sorted(set(range(n)) - set(edges.ravel().tolist()))
    iso = draw(st.lists(st.sampled_from(edgeless), unique=True)) if edgeless else []
    kind = draw(st.sampled_from(list(UpdateKind)))
    w_message = matrix(d, d) if draw(st.booleans()) else None
    w_gate = matrix(d, d) if kind is UpdateKind.GATED else None
    # one row per participating row: an edge endpoint or an isolated row
    R = matrix(len(set(edges.ravel().tolist()) | set(iso)),
               2 * d if kind is UpdateKind.CONCAT else d)
    return edges, h, np.array(iso, dtype=np.int64), kind, w_message, w_gate, R


def brute_backward(h, tape, kind, w_message, w_gate, R):
    """Row by row over the tape's rows (R and the tape arrays hold row i of
    `tape.rows[i]`): the update's own-state gradient first, then each (row,
    column) max subgradient sent to that column's winner."""
    n, d = h.shape
    dH = np.zeros((n, d))
    dw_message = None if w_message is None else np.zeros((d, d))
    dw_gate = None if w_gate is None else np.zeros((d, d))
    dM = {}
    for i, v in enumerate(tape.rows):
        if kind is UpdateKind.CONCAT:
            dH[v] += R[i, :d]
            dM[i] = R[i, d:]
        elif kind is UpdateKind.GATED:
            pre = w_gate @ h[v]
            dpre = R[i] * tape.m[i] * (pre > 0)
            dw_gate += np.outer(dpre, h[v])
            dH[v] += dpre @ w_gate
            dM[i] = R[i] * np.maximum(pre, 0.0)
        else:
            dH[v] += R[i]
            dM[i] = -R[i] if kind is UpdateKind.NEGATED_SUM else R[i]
    idx = tape.idx
    for i, grad in dM.items():
        if idx.slot[i] < 0:
            continue    # an isolated row's zero message has no source
        for k, g in enumerate(grad):
            u = idx.source_of(idx.slot[i], tape.pos[i, k])
            if w_message is None:
                dH[u, k] += g
            else:
                dw_message[k] += g * h[u]
                dH[u] += g * w_message[k]
    return dw_message, dw_gate, dH


@settings(max_examples=200, deadline=None)
@given(backward_inputs())
@example((np.empty((0, 2), dtype=np.int64), np.array([[1.0, -2.0]]), np.array([0]),
          UpdateKind.SUM, np.eye(2), None, np.ones((1, 2))))
def test_local_backward_matches_bruteforce_routing(inputs):
    edges, h, iso, kind, w_message, w_gate, R = inputs
    _, tape = local_embedding(h, NeighborIndex.from_edges(edges, iso), kind, w_message,
                              w_gate)
    got = local_backward(h, tape, kind, w_message, w_gate, R)
    want = brute_backward(h, tape, kind, w_message, w_gate, R)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a, b)


# -- cross-holder pooling --------------------------------------------------------

def row_blocks(stack, sent):
    """Holder p's `(rows, values)` block: the rows `sent[p]` marks, out of
    the dense (P, n, d) `stack`."""
    return [(np.flatnonzero(s), x[s]) for x, s in zip(stack, sent, strict=True)]


def test_stack_max_single_holder_identity():
    t = make_rng(14, 0).normal(size=(5, 3))
    m, winner = stack_max([(np.arange(5), t)], 5)
    assert np.array_equal(m, t)
    assert np.all(winner == 0)


def test_stack_max_sentinel_never_wins():
    low = np.full((4, 3), -1e300)                # far below any other value, still sent
    high = make_rng(15, 0).normal(size=(2, 3))
    m, winner = stack_max([(np.arange(4), low), (np.array([1, 3]), high)], 4)
    assert np.array_equal(m[[0, 2]], low[[0, 2]]) and np.all(winner[[0, 2]] == 0)
    assert np.array_equal(m[[1, 3]], high) and np.all(winner[[1, 3]] == 1)
    m, winner = stack_max([(np.arange(4), low), (np.empty(0, dtype=np.int64),
                                                 np.empty((0, 3)))], 4)
    assert np.array_equal(m, low) and np.all(winner == 0)


def first_strictly_greater(stack):
    """Brute force over the leading axis: the first candidate no later one
    strictly exceeds, per element."""
    winner = np.zeros(stack.shape[1:], dtype=np.int64)
    for index in np.ndindex(*stack.shape[1:]):
        for p in range(1, stack.shape[0]):
            if stack[(p, *index)] > stack[(winner[index], *index)]:
                winner[index] = p
    return winner


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 3), st.data())
def test_stack_max_matches_bruteforce(P, n, d, data):
    # few distinct values, so ties between holders are common
    values = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 2.0]),
                                min_size=P * n * d, max_size=P * n * d))
    stack = np.array(values).reshape(P, n, d)
    sent = np.array(data.draw(st.lists(st.booleans(), min_size=P * n, max_size=P * n)))
    sent = sent.reshape(P, n)
    sent[0, ~sent.any(axis=0)] = True             # every row sent by some holder
    m, winner = stack_max(row_blocks(stack, sent), n)
    dense = np.where(sent[:, :, None], stack, LOWEST)
    want = first_strictly_greater(dense)
    assert winner.dtype == np.int8 and np.array_equal(winner, want)
    assert np.all(sent[want, np.arange(n)[:, None]])     # the winner sent the row
    assert np.array_equal(m, np.take_along_axis(dense, want[None], axis=0)[0])


def test_stack_max_refuses_nan():
    t = np.zeros((3, 2))
    t[2, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        stack_max([(np.arange(3), np.zeros((3, 2))), (np.arange(3), t)], 3)


def test_pooled_messages_refuses_a_pooled_nan():
    idx = NeighborIndex.from_edges([[0, 1], [1, 2]], [])
    msg = np.zeros((4, 2))
    msg[3, 0] = np.nan                     # row 3 is no one's neighbour
    pooled_messages(msg, idx)
    msg[2, 1] = np.nan                     # row 2 feeds row 1
    with pytest.raises(ValueError, match="NaN"):
        pooled_messages(msg, idx)


def test_neighbor_index_unpadded_layout():
    idx = NeighborIndex.from_edges([[2, 0], [2, 1], [0, 1], [2, 3]], [5])
    assert idx.rows.tolist() == [0, 1, 2, 3, 5]        # row 5 is isolated
    assert idx.rows[idx.dst].tolist() == [2, 0, 1, 3]  # in-degree 3, 2, 2, 1
    # position-major: every destination's first source, then the second
    # source of the three with two or more, then row 2's third
    assert idx.src.tolist() == [0, 1, 0, 2, 1, 2, 2, 3]
    assert idx.offsets.tolist() == [0, 4, 7, 8]
    assert idx.sources.tolist() == [0, 1, 2, 3]
    empty = NeighborIndex.from_edges(np.empty((0, 2)), [])
    for a in (empty.rows, empty.dst, empty.src, empty.sources):
        assert a.size == 0
    assert empty.offsets.tolist() == [0]
    lone = NeighborIndex.from_edges(np.empty((0, 2)), [1, 0])
    assert lone.rows.tolist() == [0, 1] and lone.dst.size == 0 and lone.src.size == 0


@pytest.mark.parametrize("n", [2000, 8000])
def test_star_index_and_pool_take_memory_linear_in_edges(n):
    # A star listed both ways has 4(n-1) directed edges and a hub of in-degree
    # 2(n-1): a layout padded to the largest in-degree would hold O(n^2)
    # entries. The peak of one index build and one local embedding, in units
    # of E x d float64 entries, measured 2.01 at n=2,000 and 1.98 at n=8,000;
    # the (K, r) padded layout took 129 and 502 (980 MiB at n=8,000).
    d = 8

    def star(n):
        leaves = np.arange(1, n)
        hub = np.zeros(n - 1, dtype=np.int64)
        return np.concatenate([np.stack([hub, leaves], axis=1),
                               np.stack([leaves, hub], axis=1)])

    # a first call loads modules numpy imports lazily, a fixed 1 MiB
    local_embedding(np.ones((3, d)), NeighborIndex.from_edges(star(3), []), UpdateKind.SUM,
                    None, None)
    edges = star(n)
    h = make_rng(71, 0).normal(size=(n, d))
    tracemalloc.start()
    try:
        idx = NeighborIndex.from_edges(edges, [])
        t, _ = local_embedding(h, idx, UpdateKind.SUM, None, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.shape == (n, d) and len(idx.src) == 4 * (n - 1)
    unit = len(idx.src) * d * 8
    assert peak < 2.5 * unit, f"peak {peak / unit:.2f} E x d float64 entries"


def test_stack_max_all_sentinel_node_raises():
    rows = np.array([0, 2])
    with pytest.raises(ValueError, match="node row 1 is unknown to every holder"):
        stack_max([(rows, np.ones((2, 2))), (rows, np.zeros((2, 2)))], 3)


def test_global_update_without_relu_or_mask_is_linear_map():
    m = make_rng(17, 0).normal(size=(4, 3))
    w = make_rng(18, 0).normal(size=(2, 3))
    h, z = global_update(m, w, use_relu=False, mask=None)
    assert np.array_equal(h, m @ w.T)
    assert np.array_equal(z, m @ w.T)


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
    return ModelConfig(update_kind=kind, **kw)


def test_two_node_single_edge_hand_evaluation():
    g = build_graph([0, 1], [[1.0, 2.0], [3.0, -1.0]], [[0, 1]], [0, 1], [0, 1], 2)
    cfg = ModelConfig(layers=1, hidden=2, update_kind=UpdateKind.SUM)
    weights = build_model_weights(cfg, 2, 2, make_rng(0, 0), make_rng(1, 0))
    weights.w_global[0] = np.eye(2)
    out = centralized_forward_backward(g, weights, cfg)
    h1 = out.embeddings[0]
    assert np.array_equal(h1[0], g.features[0] + g.features[1])
    assert np.array_equal(h1[1], g.features[1] + g.features[0])


def fd_agrees(analytic, fd, rtol=1e-5, atol=1e-9):
    """Per-entry |a-f| <= atol + rtol*max(|a|,|f|); the absolute floor covers
    central-difference roundoff on entries near zero."""
    gap = np.abs(analytic - fd)
    return bool(np.all(gap <= atol + rtol * np.maximum(np.abs(analytic), np.abs(fd))))


def _isolate_first_node(g):
    """g without the edges at its first node, which is a training node."""
    keep = ~np.any(g.edges == g.node_ids[0], axis=1)
    return build_graph(g.node_ids, g.features, g.edges[keep], g.labels,
                       np.union1d(g.train_ids, g.node_ids[:1]), g.n_classes)


FD_CASES = [(UpdateKind.SUM, False), (UpdateKind.CONCAT, False), (UpdateKind.GATED, False),
            (UpdateKind.NEGATED_SUM, False), (UpdateKind.SUM, True)]


@pytest.mark.parametrize("kind,linear_msg,isolated", [
    *(pytest.param(kind, linear, False, id=f"{kind.value}-{linear}")
      for kind, linear in FD_CASES),
    *(pytest.param(kind, linear, True, id=f"{kind.value}-{linear}-isolated")
      for kind, linear in FD_CASES),
])
def test_gradients_match_finite_differences(kind, linear_msg, isolated):
    cfg = ModelConfig(layers=2, hidden=4, update_kind=kind, message_linear=linear_msg)
    g = generate_synthetic(6, 2, 3, 0.9, 0.5, seed=23, class_sep=0.5, noise=0.3)
    if isolated:
        g = _isolate_first_node(g)
        assert g.degrees()[0] == 0
    weights = build_model_weights(cfg, g.feat_dim, g.n_classes,
                                  make_rng(31, 0), make_rng(32, 0))
    ref = centralized_forward_backward(g, weights, cfg)

    def check(analytic, container, key):
        orig = container[key].copy()

        def f(flat):
            container[key] = flat.reshape(orig.shape).copy()
            val = centralized_forward_backward(g, weights, cfg).loss
            container[key] = orig.copy()
            return val

        fd = finite_diff_grad(f, orig.ravel().copy(), 1e-6).reshape(orig.shape)
        assert fd_agrees(analytic, fd)

    local, grads = weights.local, ref.grads.local
    for l in range(cfg.layers):
        check(ref.grads.w_global[l], weights.w_global, l)
        for family in ("w_message", "w_gate"):
            if getattr(local, family)[l] is not None:
                check(getattr(grads, family)[l], getattr(local, family), l)
    check(grads.w_predict, vars(local), "w_predict")


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


def test_centralized_passes_index_each_graph_once(monkeypatch):
    g = generate_synthetic(8, 2, 3, 0.7, 0.3, seed=24)
    cfg = _model_cfg(UpdateKind.SUM)
    weights = build_model_weights(cfg, 3, 2, make_rng(41, 0), make_rng(42, 0))
    built = []
    from_edges = NeighborIndex.from_edges
    monkeypatch.setattr(NeighborIndex, "from_edges",
                        lambda edges, isolated: built.append(1) or from_edges(edges, isolated))
    first = centralized_forward_backward(g, weights, cfg)
    centralized_forward(g, weights, cfg)
    again = centralized_forward_backward(g, weights, cfg)
    assert len(built) == 1
    assert again.loss == first.loss


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


def test_set_arrays_refuses_a_tensor_of_another_shape():
    # a (1, 2) message map would broadcast in the sum update instead of failing
    cfg = ModelConfig(layers=2, hidden=2, update_kind=UpdateKind.SUM, message_linear=True)
    weights = init_local_weights(cfg, 2, 3, make_rng(1, "local-init"))
    assert weights.w_message[0].shape == (2, 2)
    bad = [np.ones((1, 2)) if name == "w_message[0]" else w for name, w in weights.tensors()]
    with pytest.raises(ValueError, match=r"w_message\[0\] is \(2, 2\), got \(1, 2\)"):
        weights.set_arrays(bad)
