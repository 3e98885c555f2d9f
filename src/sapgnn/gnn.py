"""GNN layer functions and the centralized reference model.

One layer is: build a message per directed edge, max-pool messages per node,
apply a local update combining the node's own state with the pooled message,
then apply a global linear map, relu on every layer but the last, and
optional dropout. The same primitives drive both the multi-party protocol
and the single-machine model it is compared against, so a P=1 protocol run
reproduces the reference bit for bit.

Max pooling records, per element, the neighbour position of the source that
contributed the maximum (ties to the lowest node rank); the backward pass
resolves it to that source's row and routes the subgradient there alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import Graph, sorted_union
from .numerics import first_max, glorot_init, relu, relu_grad, softmax_rows

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
    dropout: float = 0.0       # on every layer output but the last, server-side only
    message_linear: bool = False  # message = W_rho h_u instead of h_u

    def __post_init__(self):
        self.update_kind = UpdateKind(self.update_kind)
        if self.layers < 1:
            raise ValueError("need at least one layer")
        if self.hidden < 1:
            raise ValueError("need a hidden width of at least 1")
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
    return [l < cfg.layers - 1 for l in range(cfg.layers)]


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

    def trains(self, l: int) -> bool:
        """Whether local layer l has a holder tensor to train."""
        return self.w_message[l] is not None or self.w_gate[l] is not None

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

@dataclass
class NeighborIndex:
    """A local layer's rows and its directed edges, unpadded, O(E).

    `rows` lists, ascending, every edge endpoint and every isolated row: the
    participating rows. `dst` holds the positions in `rows` of the
    destinations, highest in-degree first; position j's sources are
    src[offsets[j]:offsets[j+1]], one per destination of in-degree above j,
    in `dst` order, and each destination's sources ascend with j. `sources`
    lists, ascending, the rows that are the source of some edge: the only
    rows whose message is ever read. `slot` maps each participating row to
    its position in `dst`, -1 for an isolated row. Each holder builds its
    index once, and every layer and epoch pools through it.
    """

    rows: np.ndarray     # (r,) ascending participating rows
    dst: np.ndarray      # (k,) positions in rows of the destinations, by in-degree
    src: np.ndarray      # (E,) source rows, position-major
    offsets: np.ndarray  # (K + 1,) position j's sources start at offsets[j]
    sources: np.ndarray  # (s,) ascending rows that feed some destination
    slot: np.ndarray     # (r,) each row's position in dst, -1 if isolated

    @classmethod
    def from_edges(cls, edge_ranks: np.ndarray, isolated: np.ndarray) -> "NeighborIndex":
        edge_ranks = np.asarray(edge_ranks, dtype=np.int64).reshape(-1, 2)
        # one sort of the key dst * base + src orders the directed edges by
        # destination, then source; equal keys are equal (dst, src) pairs
        base = int(edge_ranks.max(initial=0)) + 1
        key = np.sort(np.concatenate([edge_ranks[:, 0] * base + edge_ranks[:, 1],
                                      edge_ranks[:, 1] * base + edge_ranks[:, 0]]))
        dst, src = np.divmod(key, base)
        # dst ascends, so each destination's edges are one run of it
        starts = np.flatnonzero(np.diff(dst, prepend=-1))
        nodes = dst[starts]
        degree = np.diff(starts, append=len(dst))
        by_degree = np.argsort(-degree, kind="stable")
        column = np.empty_like(by_degree)
        column[by_degree] = np.arange(len(nodes))
        node_of_edge = np.repeat(np.arange(len(nodes)), degree)
        position = np.arange(len(dst)) - starts[node_of_edge]
        offsets = np.concatenate([[0], np.cumsum(np.bincount(position))])
        flat = np.empty_like(src)
        flat[offsets[position] + column[node_of_edge]] = src
        rows = sorted_union([nodes, np.asarray(isolated, dtype=np.int64)])
        dst_rows = np.searchsorted(rows, nodes)[by_degree]
        slot = np.full(len(rows), -1, dtype=np.int64)
        slot[dst_rows] = np.arange(len(dst_rows))
        # every edge runs both ways, so the sources are the destinations
        return cls(rows=rows, dst=dst_rows, src=flat, offsets=offsets, sources=nodes,
                   slot=slot)

    def source_of(self, slot: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """The source rows at neighbour positions `pos` of the destinations
        at `slot` (positions in `dst`), element-wise."""
        return self.src[self.offsets[pos] + slot]


@dataclass
class LocalTape:
    """Forward record one holder needs to run its backward pass, one row
    per participating row: row i of every array belongs to holder row
    `rows[i]`. An isolated row (slot -1 in the index) pools the constant
    zero message, so its `pos` is 0 and routes no max subgradient."""

    idx: NeighborIndex        # the layer's index, which resolves pos to source rows
    pos: np.ndarray           # (r, d_in) neighbour position of the pooled max, first_max's dtype
    m: np.ndarray | None      # (r, d_in) pooled messages, kept for the gated update only
    pre_gate: np.ndarray | None  # (r, d_in) W_g h of the gated update

    @property
    def rows(self) -> np.ndarray:
        """(r,) ascending participating rows."""
        return self.idx.rows


def pooled_messages(msg: np.ndarray, idx: NeighborIndex):
    """Per-destination element-wise max over incoming messages, with provenance.

    `msg` has one row per holder row and is read at `idx.sources` only. One
    first-max sweep over the neighbour positions picks, per element, the
    lowest source rank among the maxima. The running max is one of the
    messages bit for bit, except that a tie between -0.0 and +0.0 may keep
    either sign; so only where it is zero is the max read back from the
    winner's message. Returns (m, pos), one row per destination in the
    order of `idx.dst`: m[i, k] came from neighbour position pos[i, k], the
    source row `idx.source_of(i, pos[i, k])`. pos is in first_max's dtype.
    """
    d_msg = msg.shape[1]
    K = len(idx.offsets) - 1
    if not K:
        return np.empty((0, d_msg)), np.empty((0, d_msg), dtype=np.uint8)
    best, pos = first_max((msg[s] for s in np.split(idx.src, idx.offsets[1:-1])), K)
    # best is first_max's own C-ordered array, so flat is a view of it
    flat = best.ravel()
    zero = np.flatnonzero(flat == 0.0)
    slot, col = np.divmod(zero, d_msg)
    flat[zero] = msg[idx.source_of(slot, pos.ravel()[zero]), col]
    return best, pos


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


def local_embedding(h: np.ndarray, idx: NeighborIndex, kind: UpdateKind,
                    w_message: np.ndarray | None, w_gate: np.ndarray | None):
    """Local embeddings of the participating rows of `h`, whose rows are a
    holder's own nodes, or every node of the combined graph in the
    centralized reference.

    The participating rows are `idx.rows`. A row with local neighbors gets
    the local update applied to its pooled message; an isolated row, an
    owned node with no neighbors anywhere in the combined graph, updates
    against a zero message, so its own state still flows through the local
    update. Every other row is left out: this holder has no neighbor of
    that node. Messages are computed at `idx.sources` only. Returns
    (t, tape): t holds one row per participating row, in the ascending
    order of `tape.rows`.
    """
    if w_message is None:
        msg = h
    else:
        msg = np.zeros((h.shape[0], w_message.shape[0]))
        msg[idx.sources] = h[idx.sources] @ w_message.T
    best, pos = pooled_messages(msg, idx)
    rows = idx.rows
    m = np.zeros((len(rows), msg.shape[1]))
    m[idx.dst] = best
    pos_rows = np.zeros(m.shape, dtype=pos.dtype)
    pos_rows[idx.dst] = pos

    h_rows = h[rows]
    gated = kind is UpdateKind.GATED
    pre_gate = h_rows @ w_gate.T if gated else None
    gate = relu(pre_gate) if gated else None
    t = _apply_update(kind, h_rows, m, gate)
    # only the gated backward reads m
    return t, LocalTape(idx=idx, pos=pos_rows, m=m if gated else None, pre_gate=pre_gate)


def local_backward(h: np.ndarray, tape: LocalTape, kind: UpdateKind,
                   w_message: np.ndarray | None, w_gate: np.ndarray | None,
                   R: np.ndarray):
    """Backward through the local update and pooling.

    R is the loss gradient w.r.t. this holder's local embeddings, one row
    per tape row (zero on elements this holder did not win). Returns
    (dw_message, dw_gate, dH) where dH is this holder's accumulated
    contribution to the gradient with respect to the layer input, one row
    per row of h, including the paths through neighbors' pooled messages.
    Row products run only on rows that can be nonzero. The weight-gradient
    reductions sum over every tape row (dw_gate) and every row of h
    (dw_message), zero or not: a sum over fewer rows rounds differently.
    """
    n, d_in = h.shape
    dH = np.zeros((n, d_in))
    dw_message = None
    dw_gate = None if w_gate is None else np.zeros_like(w_gate)
    rows = tape.rows

    if kind is UpdateKind.SUM:
        dH[rows] += R
        dM = R
    elif kind is UpdateKind.CONCAT:
        dH[rows] += R[:, :d_in]
        dM = R[:, d_in:]
    elif kind is UpdateKind.GATED:
        pre = tape.pre_gate
        dpre = R * tape.m * relu_grad(pre)
        dw_gate += dpre.T @ h[rows]
        # dH starts at +0.0, which a zero row of dpre @ w_gate leaves as it is
        live = dpre.any(axis=1)
        dH[rows[live]] += dpre[live] @ w_gate
        dM = R * relu(pre)
    elif kind is UpdateKind.NEGATED_SUM:
        dH[rows] += R
        dM = -R
    else:  # pragma: no cover
        raise ValueError(kind)

    # each max subgradient goes to the winning source of its column, whose
    # row is resolved here for the routed entries only; an isolated row's
    # constant zero message (slot -1) routes nowhere. The message is h
    # itself without a map, so the scatter lands in dH directly. One scatter
    # over flat positions takes the entries in row-major order, so each
    # element sums its terms in a fixed order; grad_msg and pos are fresh
    # C-ordered arrays, so their ravel() are views.
    idx = tape.idx
    d_msg = dM.shape[1]
    live = np.flatnonzero((dM != 0.0) & (idx.slot >= 0)[:, None])
    vi, vk = np.divmod(live, d_msg)
    src = idx.source_of(idx.slot[vi], tape.pos.ravel()[live])
    grad_msg = dH if w_message is None else np.zeros((n, d_msg))
    np.add.at(grad_msg.ravel(), src * d_msg + vk, dM.ravel()[live])
    if w_message is not None:
        dw_message = grad_msg.T @ h
        # only a source row wins a max, so the other rows of grad_msg are 0
        dH[idx.sources] += grad_msg[idx.sources] @ w_message
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


def stack_max(blocks: list, n: int, first_row: int = 0):
    """Element-wise max across holders with the winning holder per element
    (ties to the lowest holder).

    `blocks[p]` is holder p's `(rows, values)`, its values of the universe
    rows `rows`, all blocks of one dtype (floats, or the sealed pool's int64
    codes). They are placed in a (P, n, d) stack that holds the dtype's
    lowest value where a holder sent no row. Raises if the max of some row
    is that value (no holder sent it, so nobody can embed it), naming it as
    universe row `first_row + row`: the stack may cover a range of rows.
    """
    dtype = blocks[0][1].dtype
    unsent = np.finfo(dtype).min if dtype.kind == "f" else np.iinfo(dtype).min
    stack = np.full((len(blocks), n, blocks[0][1].shape[1]), unsent, dtype=dtype)
    for p, (rows, values) in enumerate(blocks):
        stack[p, rows] = values
    m, first = first_max(stack, len(stack))
    missing = (m <= unsent).any(axis=1)
    if missing.any():
        raise ValueError(f"node row {first_row + int(np.flatnonzero(missing)[0])} is unknown "
                         "to every holder")
    return m, first.astype(np.int8)


# ---------------------------------------------------------------------------
# Prediction and loss
# ---------------------------------------------------------------------------

def predict_probs(h_final: np.ndarray, w_predict: np.ndarray) -> np.ndarray:
    return softmax_rows(h_final @ w_predict.T)


def loss_terms(probs: np.ndarray, rows: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Per-label cross-entropy of the given labeled rows."""
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


def _combined_index(g: Graph) -> NeighborIndex:
    """The combined graph's neighbour index. Graphs are immutable by
    convention, so each one is indexed once and keeps it."""
    cached = getattr(g, "_combined_index", None)
    if cached is None:
        cached = g._combined_index = NeighborIndex.from_edges(
            g.rank_of(g.edges), np.flatnonzero(g.degrees() == 0))
    return cached


def _central_forward(g: Graph, weights: ModelWeights, cfg: ModelConfig,
                     dropout_masks: list | None):
    idx = _combined_index(g)
    local = weights.local

    h = g.features
    hs = [h]
    tapes = []
    server_tapes = []
    for l, use_relu in enumerate(layer_relu_flags(cfg)):
        t, tape = local_embedding(h, idx, cfg.update_kind, local.w_message[l],
                                  local.w_gate[l])
        mask = dropout_masks[l] if dropout_masks is not None else None
        h_next, z = global_update(t, weights.w_global[l], use_relu, mask)
        tapes.append(tape)
        server_tapes.append((t, z, mask))
        h = h_next
        hs.append(h)
    return hs, tapes, server_tapes


def centralized_forward(g: Graph, weights: ModelWeights, cfg: ModelConfig):
    """Forward-only reference pass: (per-layer embeddings, class probabilities)."""
    hs, _tapes, _server_tapes = _central_forward(g, weights, cfg, None)
    return hs[1:], predict_probs(hs[-1], weights.local.w_predict)


def centralized_forward_backward(g: Graph, weights: ModelWeights, cfg: ModelConfig,
                                 dropout_masks: list | None = None) -> CentralPass:
    """Reference forward/backward over the combined graph on one machine.

    Reverse-mode gradients route max subgradients to the recorded argmax
    contributor (ties to the lowest node rank). dropout_masks, when given,
    must hold one pre-drawn mask per layer (or None entries).
    """
    hs, tapes, server_tapes = _central_forward(g, weights, cfg, dropout_masks)
    h = hs[-1]
    local = weights.local

    rows = g.rank_of(np.sort(g.train_ids))
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
