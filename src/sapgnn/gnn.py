"""GNN layer functions and the centralized reference model.

One layer is: build a message per directed edge, max-pool messages per node,
apply a local update combining the node's own state with the pooled message,
then apply a global linear map with optional relu and dropout. The same
primitives drive both the multi-party protocol and the single-machine model
it is compared against, so a P=1 protocol run reproduces the reference
bit for bit.

Max pooling records, per element, which source contributed the maximum
(ties to the lowest node rank); the backward pass routes the subgradient to
exactly that source.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import Graph
from .numerics import (NEG_INF, SENTINEL_THRESHOLD, first_max, glorot_init, relu, relu_grad,
                       softmax_rows)

PROB_CLAMP = 1e-12


class UpdateKind(str, Enum):
    """Local update combining own state h with the pooled message m."""

    SUM = "sum"            # h + m
    CONCAT = "concat"      # h || m
    GATED = "gated"        # relu(W_g h) * m
    NEGATED_SUM = "negated-sum"  # h - m; NOT monotone in m, test-only

    @property
    def monotone(self) -> bool:
        return self is not UpdateKind.NEGATED_SUM


@dataclass
class ModelConfig:
    layers: int = 2
    hidden: int = 16
    update_kind: UpdateKind = UpdateKind.SUM
    relu: bool = True          # applied to every layer output except the last
    dropout: float = 0.0       # likewise, server-side only
    message_linear: bool = False  # message = W_rho h_u instead of h_u

    def __post_init__(self):
        self.update_kind = UpdateKind(self.update_kind)
        if self.layers < 1:
            raise ValueError("need at least one layer")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class LayerDims:
    d_in: int       # also the message width: a message is h or a square map of h
    t_dim: int
    d_out: int


def layer_dims(cfg: ModelConfig, feat_dim: int) -> list[LayerDims]:
    dims = []
    d_in = feat_dim
    for _ in range(cfg.layers):
        t_dim = 2 * d_in if cfg.update_kind is UpdateKind.CONCAT else d_in
        dims.append(LayerDims(d_in=d_in, t_dim=t_dim, d_out=cfg.hidden))
        d_in = cfg.hidden
    return dims


def layer_relu_flags(cfg: ModelConfig) -> list[bool]:
    return [cfg.relu and l < cfg.layers - 1 for l in range(cfg.layers)]


def layer_dropout_rates(cfg: ModelConfig) -> list[float]:
    return [cfg.dropout if l < cfg.layers - 1 else 0.0 for l in range(cfg.layers)]


@dataclass
class LocalWeightSet:
    """The replicated holder-side parameters (or gradients shaped like them)."""

    w_message: list   # per layer, None unless the linear message variant is on
    w_gate: list      # per layer, None unless the gated update is on
    w_predict: np.ndarray

    def _slots(self):
        """(name, container, key) per tensor: the one place that names the
        local tensors and fixes their canonical aggregation order."""
        for family in ("w_message", "w_gate"):
            arrays = getattr(self, family)
            for l, w in enumerate(arrays):
                if w is not None:
                    yield f"{family}[{l}]", arrays, l
        yield "w_predict", vars(self), "w_predict"

    def tensors(self):
        """(name, array) pairs in the canonical aggregation order."""
        return [(name, container[key]) for name, container, key in self._slots()]

    def arrays(self) -> list:
        return [container[key] for _, container, key in self._slots()]

    def set_arrays(self, values) -> None:
        """Replace every tensor, given in the order of tensors(). This is the
        one place weights enter, so it refuses a value of another shape."""
        for (name, container, key), value in zip(self._slots(), values, strict=True):
            if np.shape(value) != container[key].shape:
                raise ValueError(f"{name} is {container[key].shape}, got {np.shape(value)}")
            container[key] = value

    def zeros_like(self) -> "LocalWeightSet":
        zeros = LocalWeightSet(list(self.w_message), list(self.w_gate), self.w_predict)
        zeros.set_arrays([np.zeros_like(w) for w in self.arrays()])
        return zeros

    def flat(self) -> np.ndarray:
        """Every tensor raveled, concatenated in the canonical order."""
        return np.concatenate([w.ravel() for w in self.arrays()])

    def unflat(self, flat: np.ndarray) -> list:
        """Split a vector laid out like flat() into arrays shaped like the tensors."""
        arrays = self.arrays()
        ends = np.cumsum([w.size for w in arrays])
        if ends[-1] != flat.size:
            raise ValueError(f"flat vector has {flat.size} entries, the tensors {ends[-1]}")
        return [part.reshape(w.shape) for part, w in zip(np.split(flat, ends[:-1]), arrays)]


@dataclass
class ModelWeights:
    """The whole model, or gradients shaped like it: the holders' replicated
    tensors plus the server's per-layer global maps."""

    local: LocalWeightSet
    w_global: list


def init_local_weights(cfg: ModelConfig, feat_dim: int, n_classes: int,
                       rng: np.random.Generator) -> LocalWeightSet:
    """Holder-side weights; every holder drawing from the same stream gets
    byte-identical copies (the replication invariant)."""
    dims = layer_dims(cfg, feat_dim)
    w_message, w_gate = [], []
    for d in dims:
        w_message.append(glorot_init(rng, d.d_in, d.d_in) if cfg.message_linear else None)
        w_gate.append(glorot_init(rng, d.d_in, d.d_in)
                      if cfg.update_kind is UpdateKind.GATED else None)
    w_predict = glorot_init(rng, n_classes, dims[-1].d_out)
    return LocalWeightSet(w_message=w_message, w_gate=w_gate, w_predict=w_predict)


def init_global_weights(cfg: ModelConfig, feat_dim: int,
                        rng: np.random.Generator) -> list:
    """Server-side per-layer linear maps."""
    return [glorot_init(rng, d.d_out, d.t_dim) for d in layer_dims(cfg, feat_dim)]


def build_model_weights(cfg: ModelConfig, feat_dim: int, n_classes: int,
                        local_rng: np.random.Generator,
                        server_rng: np.random.Generator) -> ModelWeights:
    return ModelWeights(init_local_weights(cfg, feat_dim, n_classes, local_rng),
                        init_global_weights(cfg, feat_dim, server_rng))


# ---------------------------------------------------------------------------
# Message construction and pooling
# ---------------------------------------------------------------------------

def message_matrix(h: np.ndarray, w_message: np.ndarray | None) -> np.ndarray:
    return h if w_message is None else h @ w_message.T


@dataclass
class NeighborIndex:
    """Directed edges in one padded layout, destinations by in-degree.

    `rows` lists the destination rows, highest in-degree first; column i of
    `src` holds the source rows of rows[i], ascending down the column and
    padded with -1; `counts[j]` is how many rows have an in-degree above j,
    so position j's sources are the prefix src[j, :counts[j]]. Each holder
    builds its index once, and every layer and epoch pools through it.
    """

    rows: np.ndarray    # (r,) destination rows
    src: np.ndarray     # (K, r) source rows, K the largest in-degree
    counts: np.ndarray  # (K,) rows with an in-degree above j

    @classmethod
    def from_edges(cls, edge_ranks: np.ndarray) -> "NeighborIndex":
        edge_ranks = np.asarray(edge_ranks, dtype=np.int64).reshape(-1, 2)
        directed = np.concatenate([edge_ranks, edge_ranks[:, ::-1]], axis=0)
        order = np.lexsort((directed[:, 1], directed[:, 0]))
        dst, src = directed[order, 0], directed[order, 1]
        nodes, starts, degree = np.unique(dst, return_index=True, return_counts=True)
        by_degree = np.argsort(-degree, kind="stable")
        column = np.empty_like(by_degree)
        column[by_degree] = np.arange(len(nodes))
        node_of_edge = np.repeat(np.arange(len(nodes)), degree)
        position = np.arange(len(dst)) - starts[node_of_edge]
        K = int(degree.max(initial=0))
        padded = np.full((K, len(nodes)), -1, dtype=np.int64)
        padded[position, column[node_of_edge]] = src
        return cls(rows=nodes[by_degree], src=padded,
                   counts=np.bincount(position, minlength=K))


@dataclass
class LocalTape:
    """Forward record one holder needs to run its backward pass."""

    winner: np.ndarray        # (n, d_in) source row of the pooled max, -1 if none
    participates: np.ndarray  # (n,) rows with a real (non-sentinel) embedding
    m: np.ndarray             # (n, d_in) pooled messages
    pre_gate: np.ndarray | None
    # winner == -1 on a participating row means the pooled message is the
    # constant zero vector (an owned node with no neighbors anywhere), so no
    # max subgradient is routed for it.


def pooled_messages(msg: np.ndarray, idx: NeighborIndex):
    """Per-node element-wise max over incoming messages, with provenance.

    One first-max sweep over the neighbour positions picks, per element, the
    lowest source rank among the maxima; the max is then read back from that
    source's message, so a tie between -0.0 and +0.0 keeps the winner's sign.
    Rows without incoming edges keep NEG_INF and winner -1.
    """
    n, d_msg = msg.shape
    m = np.full((n, d_msg), NEG_INF)
    winner = np.full((n, d_msg), -1, dtype=np.int64)
    K = len(idx.counts)
    if K:
        _, pos = first_max((msg[idx.src[j, :c]] for j, c in enumerate(idx.counts)), K)
        won = np.take_along_axis(idx.src.T, pos, axis=1)
        winner[idx.rows] = won
        m[idx.rows] = np.take_along_axis(msg, won, axis=0)
    return m, winner


def _apply_update(kind: UpdateKind, h: np.ndarray, m: np.ndarray, gate) -> np.ndarray:
    """The local update of own state h with pooled message m, row-wise;
    `gate` is relu(W_g h), read by the gated kind only."""
    if kind is UpdateKind.SUM:
        return h + m
    if kind is UpdateKind.CONCAT:
        return np.concatenate([h, m], axis=-1)
    if kind is UpdateKind.GATED:
        return gate * m
    if kind is UpdateKind.NEGATED_SUM:
        return h - m
    raise ValueError(kind)


def local_embedding(h: np.ndarray, idx: NeighborIndex, iso_ranks: np.ndarray,
                    kind: UpdateKind, w_message: np.ndarray | None,
                    w_gate: np.ndarray | None):
    """One holder's per-node local embeddings over the full node universe.

    Rows for nodes with local neighbors get the local update applied to the
    pooled message; an owned node with no neighbors anywhere in the combined
    graph (listed in iso_ranks) updates against a zero message, so its own
    state still flows through the local update; every other row is the
    sentinel, meaning "this holder knows nothing about this node".
    """
    msg = message_matrix(h, w_message)
    m, winner = pooled_messages(msg, idx)
    participates = winner[:, 0] >= 0
    iso_ranks = np.asarray(iso_ranks, dtype=np.int64)
    m[iso_ranks] = 0.0
    participates[iso_ranks] = True

    pre_gate = h @ w_gate.T if kind is UpdateKind.GATED else None
    rows = np.flatnonzero(participates)
    gate = relu(pre_gate[rows]) if pre_gate is not None else None
    t_rows = _apply_update(kind, h[rows], m[rows], gate)
    t = np.full((h.shape[0], t_rows.shape[1]), NEG_INF)
    t[rows] = t_rows
    tape = LocalTape(winner=winner, participates=participates, m=m, pre_gate=pre_gate)
    return t, tape


def local_backward(h: np.ndarray, tape: LocalTape, kind: UpdateKind,
                   w_message: np.ndarray | None, w_gate: np.ndarray | None,
                   R: np.ndarray):
    """Backward through the local update and pooling.

    R is the loss gradient w.r.t. this holder's local embeddings (zero on
    elements this holder did not win). Returns (dw_message, dw_gate, dH)
    where dH is this holder's accumulated contribution to the gradient with
    respect to the layer input, including the paths through neighbors'
    pooled messages.
    """
    n, d_in = h.shape
    dH = np.zeros((n, d_in))
    dw_message = None
    dw_gate = None if w_gate is None else np.zeros_like(w_gate)
    rows = np.flatnonzero(tape.participates)
    R_sub = R[rows]

    if kind is UpdateKind.SUM:
        dH[rows] += R_sub
        dM_sub = R_sub
    elif kind is UpdateKind.CONCAT:
        dH[rows] += R_sub[:, :d_in]
        dM_sub = R_sub[:, d_in:]
    elif kind is UpdateKind.GATED:
        pre = tape.pre_gate[rows]
        gate = relu(pre)
        dgate = R_sub * tape.m[rows]
        dpre = dgate * relu_grad(pre)
        dw_gate += dpre.T @ h[rows]
        dH[rows] += dpre @ w_gate
        dM_sub = R_sub * gate
    elif kind is UpdateKind.NEGATED_SUM:
        dH[rows] += R_sub
        dM_sub = -R_sub
    else:  # pragma: no cover
        raise ValueError(kind)

    # each max subgradient goes to the winning source of its column; an
    # isolated row's constant zero message (winner -1) routes nowhere. The
    # message is h itself without a map, so the scatter lands in dH directly.
    winner_sub = tape.winner[rows]
    vi, vk = np.nonzero((dM_sub != 0.0) & (winner_sub >= 0))
    grad_msg = dH if w_message is None else np.zeros((n, dM_sub.shape[1]))
    np.add.at(grad_msg, (winner_sub[vi, vk], vk), dM_sub[vi, vk])
    if w_message is not None:
        dw_message = grad_msg.T @ h
        dH += grad_msg @ w_message
    return dw_message, dw_gate, dH


# ---------------------------------------------------------------------------
# Global update (the server-side half of a layer)
# ---------------------------------------------------------------------------

def global_update(m: np.ndarray, w_global: np.ndarray, use_relu: bool,
                  mask: np.ndarray | None):
    """Linear map, then optional relu, then optional (pre-drawn) dropout mask."""
    z = m @ w_global.T
    a = relu(z) if use_relu else z
    h_next = a * mask if mask is not None else a
    return h_next, z


def global_backward(G: np.ndarray, z: np.ndarray, m: np.ndarray,
                    mask: np.ndarray | None, w_global: np.ndarray, use_relu: bool):
    dz = G * mask if mask is not None else G
    if use_relu:
        dz = dz * relu_grad(z)
    dW = dz.T @ m
    dM = dz @ w_global
    return dW, dM


def stack_max(t_stack: np.ndarray):
    """Element-wise max across holders with the winning holder per element
    (ties to the lowest holder).

    Raises if any node is sentinel at every holder (nobody can embed it).
    """
    m, first = first_max(t_stack, len(t_stack))
    if np.any(m <= SENTINEL_THRESHOLD):
        bad = int(np.flatnonzero((m <= SENTINEL_THRESHOLD).any(axis=1))[0])
        raise ValueError(f"node row {bad} is unknown to every holder")
    return m, first.astype(np.int8)


# ---------------------------------------------------------------------------
# Prediction and loss
# ---------------------------------------------------------------------------

def predict_probs(h_final: np.ndarray, w_predict: np.ndarray) -> np.ndarray:
    return softmax_rows(h_final @ w_predict.T)


def loss_terms(probs: np.ndarray, rows: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Per-label cross-entropy of the given labeled rows."""
    if rows.size == 0:
        return np.empty(0)
    return -np.log(np.maximum(probs[rows, classes], PROB_CLAMP))


def loss_from_probs(probs: np.ndarray, rows: np.ndarray, classes: np.ndarray) -> float:
    """Unnormalized cross-entropy sum over the given labeled rows (ascending).

    Kept as a sum, not a mean, so per-holder losses add up to exactly the
    loss over all labels.
    """
    return float(np.sum(loss_terms(probs, rows, classes)))


def predict_and_loss(h_final: np.ndarray, label_rows: np.ndarray,
                     label_classes: np.ndarray, w_predict: np.ndarray):
    """Class probabilities for all rows plus this label set's loss."""
    n_classes = w_predict.shape[0]
    if label_classes.size and (label_classes.min() < 0 or label_classes.max() >= n_classes):
        raise ValueError(f"label class outside [0, {n_classes})")
    probs = predict_probs(h_final, w_predict)
    return probs, loss_from_probs(probs, label_rows, label_classes)


def predict_backward(h_final: np.ndarray, probs: np.ndarray, rows: np.ndarray,
                     classes: np.ndarray, w_predict: np.ndarray):
    """Gradients of the summed cross-entropy: (dW_predict, dH over all rows)."""
    dW = np.zeros_like(w_predict)
    dH = np.zeros_like(h_final)
    if rows.size:
        dlogits = probs[rows].copy()
        dlogits[np.arange(len(rows)), classes] -= 1.0
        dW += dlogits.T @ h_final[rows]
        dH[rows] = dlogits @ w_predict
    return dW, dH


# ---------------------------------------------------------------------------
# Centralized reference model
# ---------------------------------------------------------------------------

@dataclass
class CentralPass:
    embeddings: list          # h^(2) .. h^(L+1), the per-layer outputs
    loss: float
    probs: np.ndarray
    grads: ModelWeights


def _combined_index(g: Graph):
    """The combined graph's neighbour index and isolated rows. Graphs are
    immutable by convention, so each one is indexed once and keeps the pair."""
    cached = getattr(g, "_combined_index", None)
    if cached is None:
        idx = NeighborIndex.from_edges(g.rank_of(g.edges))
        cached = g._combined_index = (idx, np.flatnonzero(g.degrees() == 0))
    return cached


def _central_forward(g: Graph, weights: ModelWeights, cfg: ModelConfig,
                     dropout_masks: list | None):
    idx, iso = _combined_index(g)
    local = weights.local

    h = g.features
    hs = [h]
    tapes = []
    server_tapes = []
    for l, use_relu in enumerate(layer_relu_flags(cfg)):
        t, tape = local_embedding(h, idx, iso, cfg.update_kind, local.w_message[l],
                                  local.w_gate[l])
        if np.any(~tape.participates):
            raise ValueError("combined graph has a node no computation covers")
        mask = dropout_masks[l] if dropout_masks is not None else None
        h_next, z = global_update(t, weights.w_global[l], use_relu, mask)
        tapes.append(tape)
        server_tapes.append((t, z, mask))
        h = h_next
        hs.append(h)
    return hs, tapes, server_tapes


def centralized_forward(g: Graph, weights: ModelWeights, cfg: ModelConfig,
                        dropout_masks: list | None = None):
    """Forward-only reference pass: (per-layer embeddings, class probabilities)."""
    hs, _tapes, _server_tapes = _central_forward(g, weights, cfg, dropout_masks)
    return hs[1:], predict_probs(hs[-1], weights.local.w_predict)


def centralized_forward_backward(g: Graph, weights: ModelWeights, cfg: ModelConfig,
                                 dropout_masks: list | None = None,
                                 train_ids: np.ndarray | None = None) -> CentralPass:
    """Reference forward/backward over the combined graph on one machine.

    Reverse-mode gradients route max subgradients to the recorded argmax
    contributor (ties to the lowest node rank). dropout_masks, when given,
    must hold one pre-drawn mask per layer (or None entries).
    """
    hs, tapes, server_tapes = _central_forward(g, weights, cfg, dropout_masks)
    h = hs[-1]
    local = weights.local

    ids = train_ids if train_ids is not None else g.train_ids
    rows = g.rank_of(np.sort(ids))
    classes = g.labels[rows]
    probs, loss = predict_and_loss(h, rows, classes, local.w_predict)

    dW_pred, G = predict_backward(h, probs, rows, classes, local.w_predict)
    relus = layer_relu_flags(cfg)
    grads = ModelWeights(LocalWeightSet([None] * cfg.layers, [None] * cfg.layers, dW_pred),
                         [None] * cfg.layers)
    for l in reversed(range(cfg.layers)):
        t, z, mask = server_tapes[l]
        grads.w_global[l], dM = global_backward(G, z, t, mask, weights.w_global[l], relus[l])
        grads.local.w_message[l], grads.local.w_gate[l], G = local_backward(
            hs[l], tapes[l], cfg.update_kind, local.w_message[l], local.w_gate[l], dM)
    return CentralPass(embeddings=hs[1:], loss=loss, probs=probs, grads=grads)


# ---------------------------------------------------------------------------
# Monotone-update validation
# ---------------------------------------------------------------------------

def check_monotone_update(kind: UpdateKind, trials: int, rng: np.random.Generator) -> dict:
    """Empirically test that pooling local maxima then updating equals
    updating the global maximum.

    Each trial samples a node state, a random message set, and a random
    assignment of messages to 2..4 holders (each holder nonempty; monotone
    kinds also get overlapping assignments, the negative control gets a
    disjoint partition). Equality is exact up to 1e-12. Returns the fraction
    of trials where the two sides agree.
    """
    kind = UpdateKind(kind)
    if trials < 1:
        raise ValueError("need at least one trial")
    holds = 0
    for _ in range(trials):
        d = int(rng.integers(2, 6))
        n_msgs = int(rng.integers(2, 7))
        P = int(rng.integers(2, min(4, n_msgs) + 1))
        h = rng.normal(size=d)
        msgs = rng.normal(size=(n_msgs, d))
        gate = relu(rng.normal(size=(d, d)) @ h)
        perm = rng.permutation(n_msgs)
        subsets = [[int(perm[p])] for p in range(P)]
        for j in perm[P:]:
            subsets[int(rng.integers(0, P))].append(int(j))
        if kind.monotone:
            # overlapping holder neighbor sets are allowed and must not matter
            for j in range(n_msgs):
                if rng.random() < 0.3:
                    subsets[int(rng.integers(0, P))].append(j)
        per_holder = np.stack([
            _apply_update(kind, h, msgs[sub].max(axis=0), gate) for sub in subsets])
        lhs = per_holder.max(axis=0)
        rhs = _apply_update(kind, h, msgs.max(axis=0), gate)
        if np.max(np.abs(lhs - rhs)) <= 1e-12:
            holds += 1
    return {"holds": holds / trials, "trials": trials, "violations": trials - holds}
