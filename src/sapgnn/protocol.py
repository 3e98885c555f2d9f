"""The split-learning protocol: data-holder and server state machines.

Each training epoch runs four phases in lock step:

  1. forward: every holder computes local per-node embeddings over its own
     subgraph and ships the rows it has a value for (or, in secure-pooling
     mode, feeds them to a sealed element-wise max evaluator); the server
     pools element-wise maxima, applies the global linear map, and sends
     each holder the rows it reads: its participating rows of a lower
     layer, its labelled rows of the top layer.
  2. prediction: each holder evaluates the prediction head on its own
     labels; losses stay local, only the loss gradient w.r.t. the final
     embedding travels.
  3. backward: the server routes max subgradients to the winning holders,
     accumulates its own weight gradients, and holders return their input
     gradients for the next layer down.
  4. update: each party steps what it owns with the gradients its own
     backward left, once: the server its maps, the holders theirs after a
     pairwise-mask secure sum among themselves (the server sees none of it),
     in identical optimizer steps that preserve the replication invariant.

Each phase's per-holder work runs at once, on the holder pool (`pool.py`).

After each update, an evaluation forward sweep scores the new weights. What
a sweep computed is kept until an update changes something it read. Layer
0's pool reads only the features and layer 0's holder weights, the layers
above also the server's weights and any dropout mask. So without dropout the
evaluation sweep is the next training sweep; with dropout that sweep reuses
the evaluation's layer-0 pool (and a weight-free layer 0 is pooled once).

All cross-party values travel through the channel, whose audit log records
each message's parties, schema and bytes, so the log and the byte counts
folded from it reflect exactly what each party could observe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DatasetConfig, PartitionConfig, RunConfig
from .gnn import (LocalWeightSet, ModelConfig, ModelWeights, NeighborIndex, global_backward,
                  global_update, init_global_weights, init_local_weights, layer_dims,
                  layer_dropout_rates, layer_relu_flags, local_backward, local_embedding,
                  loss_terms, predict_backward, predict_probs, stack_max)
from .graphs import (SPLITS, DigestIndex, Graph, LocalGraph, generate_synthetic, load_dataset,
                     node_digests, sorted_union, split_edges_uniform, split_label_skew)
from .metrics import EarlyStopper, confusion_matrix, split_scores
from .numerics import AdamState, adam_step, dropout_mask, make_rng
from .pool import each_holder, holder_pool
from .sharing import SEED_WORDS, check_ring_sum, combine_vector_shares, pooled_argmax, share_vector
# verify_privacy_audit is not used here: the benchmark imports it from this module
from .wire import (HOLDER, POOL_PARTY, ROUTES, SERVER_PARTY, AuditLog, Channel, CommStats,
                   MessageKind, holder_index, holder_party, verify_privacy_audit)

# The winning holder per pooled element is an int8 (`stack_max`,
# `pooled_argmax` and the PoolResult wire field), so holder ids must fit it.
MAX_HOLDERS = int(np.iinfo(np.int8).max)


class ProtocolError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Dataset / partition builders
# ---------------------------------------------------------------------------

def build_dataset(dcfg: DatasetConfig) -> Graph:
    if dcfg.kind == "synthetic":
        return generate_synthetic(dcfg.n_nodes, dcfg.n_classes, dcfg.feat_dim,
                                  dcfg.intra_class_edge_prob, dcfg.inter_class_edge_prob,
                                  dcfg.seed, train_frac=dcfg.train_frac,
                                  val_frac=dcfg.val_frac, class_sep=dcfg.class_sep,
                                  noise=dcfg.noise)
    if dcfg.kind == "edge-list-dir":
        if not dcfg.path:
            raise ValueError(f"dataset kind {dcfg.kind} needs a path")
        return load_dataset(dcfg.path)
    raise ValueError(f"unknown dataset kind {dcfg.kind!r}")


def build_partition(g: Graph, pcfg: PartitionConfig) -> list[LocalGraph]:
    if pcfg.kind == "uniform":
        return split_edges_uniform(g, pcfg.P, seed=pcfg.seed,
                                   duplicate_fraction=pcfg.duplicate_fraction,
                                   node_scope=pcfg.node_scope)
    if pcfg.kind == "label-skew":
        return split_label_skew(g, pcfg.P, pcfg.q, seed=pcfg.seed)
    raise ValueError(f"unknown partition kind {pcfg.kind!r}")


# ---------------------------------------------------------------------------
# Parties
# ---------------------------------------------------------------------------

class DataHolder:
    """Holder p, its place in the list: private subgraph, replicated local weights, tapes.

    Every holder array covers the holder's own nodes only, one row per node
    in ascending id order (its NodeIndex order); row i is node
    `node_ids[i]`. A local layer's tape and output keep only the
    participating rows, in the same order. The holder never learns how many
    nodes the union has.
    """

    def __init__(self, p: int, local: LocalGraph, cfg: ModelConfig, n_classes: int, lr: float,
                 seed: int):
        graph = local.graph
        self.cfg = cfg
        self.kind = cfg.update_kind
        self.node_ids = graph.node_ids
        self.n = len(self.node_ids)
        self.feat_dim = graph.feat_dim
        self.n_classes = n_classes
        self.dims = layer_dims(cfg, self.feat_dim)

        self.idx = NeighborIndex.from_edges(graph.rank_of(graph.edges),
                                            graph.rank_of(local.isolated_owned))

        self.label_rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for split, ids in graph.split_ids().items():
            rows = graph.rank_of(np.sort(ids))
            self.label_rows[split] = (rows, graph.labels[rows])

        # The rows of each layer's output the holder reads, declared in its
        # NodeIndex: a lower layer's at its participating rows (the next
        # local layer reads no other), the top layer's at its labelled rows.
        self.participates = np.zeros(self.n, dtype=bool)
        self.participates[self.idx.rows] = True
        labelled = np.zeros(self.n, dtype=bool)
        for rows, _classes in self.label_rows.values():
            labelled[rows] = True
        self.wants = np.stack([self.participates] * (cfg.layers - 1) + [labelled])

        # identical stream across holders: the replication invariant starts here
        self.locals_ = init_local_weights(cfg, self.feat_dim, n_classes,
                                          make_rng(seed, "local-init"))
        self.adams = [AdamState.for_param(w.shape, lr=lr) for w in self.locals_.arrays()]
        self.rng_shares = make_rng(seed, ("shares", p))

        self.features = graph.features
        self.h: list = []
        self.tapes: list = []
        self.probs: np.ndarray | None = None
        self.grad_acc: LocalWeightSet | None = None

    # -- forward ------------------------------------------------------------

    def begin_forward(self, keep_pool: bool):
        """Drop what the sweep recomputes: all but a kept layer-0 tape."""
        kept = self.tapes[0] if keep_pool else None
        self.h = [self.features] + [None] * self.cfg.layers
        self.tapes = [kept] + [None] * (self.cfg.layers - 1)
        self.probs = None

    def forward_local(self, l: int):
        """Layer l's local embeddings at the participating rows. A weight-free
        layer 0 keeps no tape: the backward pass stops at the server's map."""
        t, tape = local_embedding(self.h[l], self.idx, self.kind, self.locals_.w_message[l],
                                  self.locals_.w_gate[l])
        self.tapes[l] = tape if l or self.locals_.trains(0) else None
        return t

    def receive_global(self, l: int, valid: np.ndarray, block: np.ndarray):
        """Layer l's output at the `valid` rows, the others 0; the top layer's is scored."""
        h = np.zeros((self.n, block.shape[1]))
        h[valid] = block
        self.h[l + 1] = h
        if l + 1 == self.cfg.layers:
            self.probs = predict_probs(h, self.locals_.w_predict)

    def split_loss_terms(self, split: str):
        """Per-label cross-entropy terms keyed by node id, so the simulator
        can total losses in global node order (exact additivity)."""
        rows, classes = self.label_rows[split]
        return self.node_ids[rows], loss_terms(self.probs, rows, classes)

    def split_confusion(self, split: str) -> np.ndarray:
        rows, classes = self.label_rows[split]
        return confusion_matrix(self.probs[rows].argmax(axis=1), classes, self.n_classes)

    # -- backward -----------------------------------------------------------

    def pred_backward(self) -> np.ndarray:
        """The loss gradient w.r.t. the final embedding, zero off train rows; starts grad_acc."""
        rows, classes = self.label_rows["train"]
        dW, dH = predict_backward(self.h[-1], self.probs, rows, classes,
                                  self.locals_.w_predict)
        self.grad_acc = self.locals_.zeros_like()
        self.grad_acc.w_predict += dW
        return dH

    def backward_local(self, l: int, valid: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Backward through local layer l from the gradient rows `r` of the
        `valid` rows, all of them participating rows; returns dH over every
        holder row."""
        tape = self.tapes[l]
        R = np.zeros((len(tape.rows), r.shape[1]))
        R[valid[tape.rows]] = r
        dwm, dwg, dH = local_backward(self.h[l], tape, self.kind,
                                      self.locals_.w_message[l], self.locals_.w_gate[l], R)
        if dwm is not None:
            self.grad_acc.w_message[l] += dwm
        if dwg is not None:
            self.grad_acc.w_gate[l] += dwg
        return dH

    # -- update -------------------------------------------------------------

    def apply_update(self, agg_flat: np.ndarray):
        self.locals_.set_arrays(adam_update(self.adams, self.locals_.arrays(),
                                            self.locals_.unflat(agg_flat)))


@dataclass
class ServerTape:
    m: np.ndarray
    z: np.ndarray
    mask: np.ndarray | None
    winner: np.ndarray


class Server:
    """Semi-honest coordinator: pools local embeddings, owns the global maps."""

    def __init__(self, n: int, cfg: ModelConfig, feat_dim: int, lr: float, seed: int):
        self.n = n
        self.weights = init_global_weights(cfg, feat_dim, make_rng(seed, "server-init"))
        self.adams = [AdamState.for_param(w.shape, lr=lr) for w in self.weights]
        self.relu_flags = layer_relu_flags(cfg)
        self.drop_rates = layer_dropout_rates(cfg)
        self.rng_dropout = make_rng(seed, "dropout")
        # holder p's row i, in its NodeIndex order, is universe row holder_rows[p][i];
        # wants[p][l] masks the rows of layer l's output that holder p reads
        self.holder_rows: list[np.ndarray] = []
        self.wants: list[np.ndarray] = []
        self.tapes: list = [None] * cfg.layers
        # the map gradients of the last completed backward, until an update steps them
        self.grads: list | None = None

    def forward_layer(self, l: int, m: np.ndarray, winner: np.ndarray,
                      train: bool) -> np.ndarray:
        rate = self.drop_rates[l]
        mask = None
        if train and rate > 0.0:
            mask = dropout_mask(self.rng_dropout, rate, (self.n, self.weights[l].shape[0]))
        h_next, z = global_update(m, self.weights[l], self.relu_flags[l], mask)
        self.tapes[l] = ServerTape(m=m, z=z, mask=mask, winner=winner)
        return h_next

    def check_tapes(self):
        """Refuse a backward through an unmasked dropout layer."""
        for l, (tape, rate) in enumerate(zip(self.tapes, self.drop_rates, strict=True)):
            if rate > 0.0 and tape.mask is None:
                raise ProtocolError(f"layer {l} has dropout {rate} but its tape comes from an "
                                    "evaluation sweep with no mask")


@dataclass
class Session:
    """All parties of one protocol run plus the shared channel and its log."""

    config: RunConfig
    holders: list
    server: Server
    channel: Channel
    audit: AuditLog
    # What the last sweep computed, until `weight_update` changes what it
    # read: the whole sweep if no layer draws a dropout mask, and whether
    # layer 0's pool (the server's and the holders' tapes[0]) is kept.
    last_forward: ForwardResult | None = None
    pool_kept: bool = False


def init_parties(config: RunConfig, holders_data: list[LocalGraph]) -> Session:
    """Set up all parties from `config.train.seed`: replicated local weights
    from its local-init stream, server weights from its server-init stream,
    hashed node lists and the rows each holder reads registered. Holder p is
    `holders_data[p]`, in any order."""
    if not holders_data:
        raise ProtocolError("no holder to set up: the holder list is empty")
    if len(holders_data) > MAX_HOLDERS:
        raise ProtocolError(f"{len(holders_data)} holders exceed the limit of {MAX_HOLDERS}: "
                            "the winning holder index is an int8")
    feats = {lg.graph.feat_dim for lg in holders_data}
    classes = {lg.graph.n_classes for lg in holders_data}
    if len(feats) != 1 or len(classes) != 1:
        raise ProtocolError(f"holders disagree on dimensions: F={feats}, C={classes}")
    n_classes = classes.pop()

    universe_ids = sorted_union([lg.graph.node_ids for lg in holders_data])
    if universe_ids.size == 0:
        raise ProtocolError("no holder has a node")
    seed = config.train.seed
    cfg = config.model

    # The run's only digests: holder p's rows of the union's table are what it
    # would hash from its own ids with the shared salt. The table is sorted
    # once; the server's search in it refuses an unknown or a repeated
    # digest, so holder_rows is 1-to-1.
    table = node_digests(universe_ids, make_rng(seed, "salt").bytes(32))
    index = DigestIndex.of(table)

    def join(p, outbox):
        """Holder p is built and sends its NodeIndex; the server looks its digests up."""
        holder = DataHolder(p, holders_data[p], cfg, n_classes, config.train.lr, seed)

        def whole_digests(fields):
            if fields["keys"].size % 16:
                raise ProtocolError(f"holder {p} sent {fields['keys'].size} digest bytes, "
                                    "not a whole number of 16-byte digests")
            return (fields["keys"].size,)

        own = table[np.searchsorted(universe_ids, holder.node_ids)]
        got = _send(outbox, MessageKind.NODE_INDEX, holder_party(p), SERVER_PARTY, -1, -1,
                    {"keys": own.ravel(), "wants": holder.wants.astype(np.uint8)},
                    {"keys": whole_digests,
                     "wants": lambda f: (cfg.layers, f["keys"].size // 16)})
        pos = index.find(got["keys"])
        if np.any(pos < 0):
            raise ProtocolError(f"holder {p} sent a node digest the server does not know")
        if np.bincount(pos).max(initial=0) > 1:
            raise ProtocolError(f"holder {p} sent a node digest twice")
        return holder, index.order[pos], got["wants"].astype(bool)

    audit = AuditLog()
    joined = each_holder(audit, len(holders_data), join)
    server = Server(universe_ids.size, cfg, feats.pop(), config.train.lr, seed)
    for _holder, rows, wants in joined:
        server.holder_rows.append(rows)
        server.wants.append(wants)
    return Session(config=config, holders=[holder for holder, _rows, _wants in joined],
                   server=server, channel=Channel(audit), audit=audit)


# ---------------------------------------------------------------------------
# Protocol phases
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    total_loss: float
    embeddings: list       # per-layer pooled-and-updated matrices at the server


def _total_loss(holders, split: str) -> float:
    """Sum per-label loss terms in ascending node-id order, which is the
    universe-row order.

    Label ownership is disjoint, so this reproduces the exact float
    summation order of a single machine iterating all labels at once."""
    ids, terms = zip(*(holder.split_loss_terms(split) for holder in holders))
    ids, terms = np.concatenate(ids), np.concatenate(terms)
    return float(np.sum(terms[np.argsort(ids, kind="stable")]))


def _send(channel: Channel, kind: MessageKind, sender: str, receiver: str, layer: int,
          epoch: int, fields: dict, shapes: dict, share_mode: str | None = None) -> dict:
    """Send `fields` and return what the receiver decoded. It is refused
    unless it carries exactly the fields ROUTES declares for `kind`, each in
    its declared dtype (a PartialSum's that of `share_mode`) and of the
    shape `shapes` names for it: a tuple, or a function of the fields."""
    got = channel.send(sender, receiver, kind, layer, epoch, fields, holder_index(sender))
    declared = ROUTES[kind].fields
    where = f"{sender}: {kind.value} to {receiver} carries"
    if got.keys() - declared.keys():
        raise ProtocolError(f"{where} undeclared fields {sorted(got.keys() - declared.keys())}")
    for name, dtype in declared.items():
        dtype = np.dtype(dtype[share_mode] if isinstance(dtype, dict) else dtype)
        shape = shapes[name](got) if callable(shapes.get(name)) else shapes.get(name)
        value = got.get(name)
        if value is None or value.dtype != dtype or shape not in (None, value.shape):
            sent = "nothing" if value is None else f"{value.dtype} {value.shape}"
            raise ProtocolError(f"{where} {sent} as {name!r}, expected {dtype}"
                                + ("" if shape is None else f" {shape}"))
    return got


def _send_rows(outbox: Channel, session: Session, kind: MessageKind, layer: int, epoch: int,
               p: int, valid: np.ndarray, block: np.ndarray, width: int):
    """Send a sparse row message of holder p's rows on its route, through
    holder p's outbox: the `valid` mask over the holder's rows and the block
    of the masked rows, `width` columns wide. Returns the (mask, block) the
    receiver decoded."""
    route = ROUTES[kind]
    sender, receiver = (holder_party(p) if role == HOLDER else role
                        for role in (route.sender, route.receiver))
    _valid, name = route.fields
    got = _send(outbox, kind, sender, receiver, layer, epoch,
                {"valid": valid.astype(np.uint8), name: block},
                {"valid": (session.holders[p].n,),
                 name: lambda f: (int(np.count_nonzero(f["valid"])), width)})
    return got["valid"].astype(bool), got[name]


def _send_input_grad(outbox: Channel, session: Session, kind: MessageKind, layer: int,
                     epoch: int, p: int, dH: np.ndarray):
    """Holder p sends the nonzero rows of dH, its gradient w.r.t. its rows
    of a layer input (the final embedding for a PredGrad). Returns the
    universe rows and the rows the server received, to add into its
    gradient in holder order."""
    valid = dH.any(axis=1)
    valid, g = _send_rows(outbox, session, kind, layer, epoch, p, valid, dH[valid], dH.shape[1])
    return session.server.holder_rows[p][valid], g


def _pool_rows(blocks: list, n: int, secure: bool, ranges: int):
    """(m, winner) of the holders' `(universe rows, values)` blocks over n
    rows, as one `stack_max` call (naive) or one `pooled_argmax` call (the
    sealed pool) returns them, bit for bit: every element is pooled on its
    own. The rows are split into `ranges` contiguous ranges, each pooled as
    one step on the holder pool. A block's rows ascend, so its share of a
    range is one slice. A range that holds a row no holder sent is refused
    naming that universe row; of several refused ranges, the lowest is."""
    bounds = [n * r // ranges for r in range(ranges + 1)]
    m = np.empty((n, blocks[0][1].shape[1]))
    winner = np.empty(m.shape, dtype=np.int8)

    def pool_range(r, _outbox):
        lo, hi = bounds[r], bounds[r + 1]
        part = []
        for rows, values in blocks:
            a, b = np.searchsorted(rows, (lo, hi))
            part.append((rows[a:b] - lo, values[a:b]))
        pool = pooled_argmax if secure else stack_max
        m[lo:hi], winner[lo:hi] = pool(part, hi - lo, first_row=lo)

    each_holder(AuditLog(), ranges, pool_range)   # a range sends nothing
    return m, winner


def _pool_layer(session: Session, l: int, epoch: int):
    """Every holder's layer-l local embeddings, pooled: (m, winner) at the server.

    Each holder computes and sends only its participating rows. The
    server's row maps turn each holder's rows into a `(universe rows,
    values)` block; in naive mode the server pools the blocks with
    `stack_max`, and in secure-pooling mode the sealed pool does with
    `pooled_argmax`, so the server gets only the winning values and the
    winning holder index per element. Either pools one range of rows per
    thread of the holder pool."""
    server = session.server
    secure = session.config.mode == "secure-pooling"
    kind = MessageKind.POOL_INPUT if secure else MessageKind.LOCAL_EMBEDDING
    shape = (server.n, server.weights[l].shape[1])

    def embed(p, outbox):
        holder = session.holders[p]
        valid, values = _send_rows(outbox, session, kind, l, epoch, p, holder.participates,
                                   holder.forward_local(l), shape[1])
        return server.holder_rows[p][valid], values

    blocks = each_holder(session.audit, len(session.holders), embed)
    try:
        m, winner = _pool_rows(blocks, server.n, secure, holder_pool().threads)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    if not secure:
        return m, winner
    got = _send(session.channel, MessageKind.POOL_RESULT, POOL_PARTY, SERVER_PARTY, l, epoch,
                {"m": m, "winner": winner}, {"m": shape, "winner": shape})
    m, winner = got["m"], got["winner"]
    if not 0 <= winner.min() <= winner.max() < len(session.holders):
        raise ProtocolError(f"{POOL_PARTY}: PoolResult names a winner outside holders "
                            f"0..{len(session.holders) - 1}")
    return m, winner


def forward_pass(session: Session, train: bool = True, epoch: int = 0) -> ForwardResult:
    """One synchronized forward sweep over all layers: local embeddings up,
    pooled global embeddings back down, then private per-holder loss
    computation. Without dropout, `train` changes nothing, so a kept sweep
    is returned whole and nothing is sent; otherwise a kept layer-0 pool is
    reused, and the server still applies its layer-0 map and mask to it."""
    if session.last_forward is not None:
        return session.last_forward
    cfg = session.config.model
    server = session.server
    for holder in session.holders:
        holder.begin_forward(session.pool_kept)

    embeddings = []
    for l in range(cfg.layers):
        if l == 0 and session.pool_kept:
            m, winner = server.tapes[0].m, server.tapes[0].winner
        else:
            m, winner = _pool_layer(session, l, epoch)
        h_next = server.forward_layer(l, m, winner, train)
        embeddings.append(h_next)

        def place(p, outbox):
            valid = server.wants[p][l]
            valid, h = _send_rows(outbox, session, MessageKind.GLOBAL_EMBEDDING, l, epoch, p,
                                  valid, h_next[server.holder_rows[p][valid]],
                                  session.holders[p].dims[l].d_out)
            session.holders[p].receive_global(l, valid, h)

        each_holder(session.audit, len(session.holders), place)

    result = ForwardResult(total_loss=_total_loss(session.holders, "train"),
                           embeddings=embeddings)
    session.pool_kept = True
    if not any(server.drop_rates):
        session.last_forward = result
    return result


def backward_pass(session: Session, epoch: int = 0) -> list:
    """Reverse sweep: prediction-head gradients to the server, per-layer
    routing through the recorded argmax winners, input gradients back up.
    Row gradients travel as sparse row messages that carry only nonzero
    rows. A weight-free layer 0 stops at the server's own gradient: it has
    no holder tensor to train and sends no input gradient. Returns the
    server's per-layer map gradients and keeps them in `server.grads`, as the
    holders keep theirs in `grad_acc`; refused at its checks it sends nothing
    and resets neither, refused later it leaves the update nothing to step."""
    cfg = session.config.model
    server = session.server
    n = server.n

    if any(holder.probs is None for holder in session.holders):
        raise ProtocolError("backward requires a completed forward pass")
    server.check_tapes()
    server.grads = None

    P = len(session.holders)
    G = np.zeros((n, server.weights[-1].shape[0]))
    for rows, g in each_holder(session.audit, P, lambda p, outbox: _send_input_grad(
            outbox, session, MessageKind.PRED_GRAD, cfg.layers, epoch, p,
            session.holders[p].pred_backward())):
        G[rows] += g

    server_grads = [None] * cfg.layers
    for l in reversed(range(cfg.layers)):
        tape = server.tapes[l]
        dW, dM = global_backward(G, tape.z, tape.m, tape.mask, server.weights[l],
                                 server.relu_flags[l])
        server_grads[l] = dW
        if l == 0 and not session.holders[0].locals_.trains(0):
            break
        live = dM != 0.0

        def route(p, outbox):
            # holder p's gradient is dM where p won the max; only its rows
            # with a nonzero entry are gathered and sent
            holder = session.holders[p]
            rows = server.holder_rows[p]
            won = tape.winner == p
            valid = (won & live).any(axis=1)[rows]
            nonzero = rows[valid]
            valid, r = _send_rows(outbox, session, MessageKind.LOCAL_EMB_GRAD, l, epoch, p,
                                  valid, np.where(won[nonzero], dM[nonzero], 0.0),
                                  holder.dims[l].t_dim)
            if np.any(valid & ~holder.participates):
                raise ProtocolError(f"holder {p}: {MessageKind.LOCAL_EMB_GRAD.value} carries a "
                                    "gradient for a row the holder did not embed")
            dH = holder.backward_local(l, valid, r)
            if l > 0:
                return _send_input_grad(outbox, session, MessageKind.INPUT_GRAD, l, epoch, p, dH)
            return None

        routed = each_holder(session.audit, P, route)
        if l > 0:
            G = np.zeros((n, session.holders[0].dims[l].d_in))
            for rows, g in routed:
                G[rows] += g
    server.grads = server_grads
    return server_grads


def secure_sum(channel: Channel, vectors: list, rngs: list, mode: str,
               epoch: int) -> np.ndarray:
    """All-holder secure sum of equal-length vectors; the server takes no part.

    A pairwise-mask sum (Bonawitz et al., CCS 2017, section 4, without
    dropout recovery: holders never drop out here). For each pair i < j,
    holder j draws one 32-byte seed from its rng and sends it to holder i as
    a GradShare (audit schema `seed`), sender outer and receiver inner, both
    ascending: P(P-1)/2 messages. Each holder masks its vector with
    `share_vector` (`mode` "fixed-point" or "real"): it adds the expansions
    of the seeds it drew and subtracts those of the seeds it received, so
    each seed is expanded by its two holders only and the masks cancel in
    the total. Each holder then sends its masked vector to every other
    holder as a PartialSum, in one round per sender, ascending. In a round
    the receivers take the sender's vector at once, one holder-pool step
    each, and add it into their running sums, so every holder adds the P
    masked vectors in ascending sender order, only O(P) vectors are alive at
    once, and the log reads sender outer and receiver inner. A masked vector
    is freed after its round and unmasked only by all P-1 other holders
    together. A seed reveals exactly what its expanded vector would; it is
    drawn from numpy's PCG64, which is simulator-grade and not a CSPRNG. An
    unknown share mode, rngs that are not one per holder, a NaN or infinite
    entry, or in mode "fixed-point" a value whose P-fold sum could wrap the
    ring, is refused before any seed is drawn or anything is sent. Each
    holder checks its own vector for the last two, all at once, and the
    lowest failing holder's refusal, which names it, is raised; on any
    holder count, one included.
    Returns the total once every holder has reconstructed the same one; with
    one holder its checked vector is the total, as in the centralized
    trainer, and nothing is sent.
    """
    # the share modes are those the wire declares a PartialSum dtype for
    if mode not in ROUTES[MessageKind.PARTIAL_SUM].fields["partial"]:
        raise ProtocolError(f"unknown share mode {mode!r}")
    P = len(vectors)
    shapes = {np.shape(v) for v in vectors}
    if len(shapes) != 1:
        raise ProtocolError(f"holders disagree on gradient vector length: {sorted(shapes)}")
    if len(rngs) != P:
        raise ProtocolError(f"{len(rngs)} seed streams for {P} holders")

    def check(j, _outbox):
        """Holder j's refusal of its own vector; it sends nothing."""
        if not np.all(np.isfinite(vectors[j])):
            raise ProtocolError(f"holder {j}: gradient has a NaN or infinite entry")
        try:
            check_ring_sum(vectors[j], P, mode)
        except ValueError as exc:
            raise ProtocolError(f"holder {j}: {exc}") from exc

    each_holder(channel.audit, P, check)
    if P == 1:
        return vectors[0]
    shape = shapes.pop()

    def send(via: Channel, kind: MessageKind, j: int, i: int, name: str, value, want: tuple):
        """Holder j sends `value` to holder i, who expects a field `name` of shape `want`."""
        return _send(via, kind, holder_party(j), holder_party(i), -1, epoch, {name: value},
                     {name: want}, mode)[name]

    drawn = []                          # drawn[j][i]: the seed of pair (i, j), i < j
    received = [[] for _ in range(P)]   # received[i]: the seeds of pairs (i, j), j > i
    for j, (_vector, rng) in enumerate(zip(vectors, rngs, strict=True)):
        seeds = rng.integers(0, 2 ** 64 - 1, size=(j, SEED_WORDS), dtype=np.uint64,
                             endpoint=True)
        for i, seed in enumerate(seeds):
            received[i].append(send(channel, MessageKind.GRAD_SHARE, j, i, "seed", seed,
                                    (SEED_WORDS,)))
        drawn.append(seeds)

    masked = each_holder(channel.audit, P, lambda j, _outbox: share_vector(
        vectors[j], P, drawn[j], received[j], mode=mode))

    sums = [None] * P      # sums[i]: holder i's running sum of the masked vectors so far
    for j in range(P):
        vector, masked[j] = masked[j], None

        def receive(i, outbox):
            got = vector if i == j else send(outbox, MessageKind.PARTIAL_SUM, j, i, "partial",
                                             vector, shape)
            if sums[i] is not None:
                np.add(sums[i], got, out=sums[i])
            else:
                # a decoded vector is already the receiver's own
                sums[i] = vector.copy() if i == j else got

        each_holder(channel.audit, P, receive)   # sender j's round
    if any(not np.array_equal(sums[0], s) for s in sums[1:]):
        raise ProtocolError("holders reconstructed different gradient aggregates")
    return combine_vector_shares(sums[:1], mode=mode)


def aggregate_local_grads(session: Session, epoch: int = 0) -> np.ndarray:
    """Secure sum of the holder gradients of the last completed backward."""
    if session.server.grads is None:
        raise ProtocolError("no backward completed since the last update")
    return secure_sum(session.channel, [h.grad_acc.flat() for h in session.holders],
                      [h.rng_shares for h in session.holders], session.config.share_mode,
                      epoch)


def weight_update(session: Session, epoch: int = 0) -> None:
    """Step the gradients of the last backward that completed since the last
    update: holders aggregate theirs, then the server steps its weights with
    its `grads` and holders step in lock step. Without such a backward or
    with a non-finite server gradient it sends nothing, and after a refused
    sum it steps nothing. Raises if the replication invariant breaks. The kept
    sweep, a kept layer-0 pool that read holder weights and the predictions
    are dropped: a forward sweeps again, and a backward before it is refused."""
    server = session.server
    if server.grads is None:
        raise ProtocolError("no backward completed since the last update")
    if not all(np.isfinite(g).all() for g in server.grads):
        raise ProtocolError("server gradient has a NaN or infinite entry")
    agg = aggregate_local_grads(session, epoch=epoch)
    grads, server.grads = server.grads, None
    session.last_forward = None
    if session.holders[0].locals_.trains(0):
        session.pool_kept = False
    server.weights[:] = adam_update(server.adams, server.weights, grads)

    def step(p, _outbox):
        session.holders[p].probs = None
        session.holders[p].apply_update(agg)

    each_holder(session.audit, len(session.holders), step)
    # bit for bit against holder 0, so -0.0 and +0.0 differ
    first = [w.view(np.uint64) for w in session.holders[0].locals_.arrays()]
    for holder in session.holders[1:]:
        if not all(np.array_equal(a, w.view(np.uint64))
                   for a, w in zip(first, holder.locals_.arrays(), strict=True)):
            raise ProtocolError("replication invariant violated: holder weights diverged")


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def adam_update(states: list, params: list, grads: list) -> list:
    """One Adam step per tensor; `states` is updated in place, the stepped
    tensors are returned."""
    out = []
    for i, (w, g) in enumerate(zip(params, grads, strict=True)):
        new_w, states[i] = adam_step(states[i], w, g)
        out.append(new_w)
    return out


@dataclass
class TrainResult:
    weights: ModelWeights
    metrics_rows: list       # dicts: epoch, split, accuracy, macro_f1, loss
    audit: AuditLog
    best_epoch: int
    epochs_run: int
    final: dict              # test metrics at the best validation epoch (NaN if none)

    @property
    def comm(self) -> CommStats:
        """The run's byte counters, folded from its audit log."""
        return CommStats.of(self.audit)


def fit(train_epoch, score, final_weights, max_epochs: int, patience: int,
        audit: AuditLog) -> TrainResult:
    """The epoch loop of every trainer: `train_epoch(epoch)` takes one
    optimizer step, `score(epoch)` returns accuracy / macro_f1 / loss per
    split, and training stops early on validation accuracy.
    `final_weights()` gives the weights once the loop ends."""
    stopper = EarlyStopper(patience)
    metrics_rows = []
    best_final = dict.fromkeys(("val_accuracy", "test_accuracy", "test_macro_f1", "test_loss"),
                               float("nan"))
    epochs_run = 0
    for epoch in range(max_epochs):
        train_epoch(epoch)
        scores = score(epoch)
        metrics_rows += [{"epoch": epoch, "split": split, **scores[split]} for split in SPLITS]
        epochs_run = epoch + 1
        if stopper.update(epoch, scores["val"]["accuracy"]):
            best_final = {"val_accuracy": scores["val"]["accuracy"],
                          "test_accuracy": scores["test"]["accuracy"],
                          "test_macro_f1": scores["test"]["macro_f1"],
                          "test_loss": scores["test"]["loss"]}
        if stopper.should_stop:
            break
    return TrainResult(weights=final_weights(), metrics_rows=metrics_rows, audit=audit,
                       best_epoch=stopper.best_epoch, epochs_run=epochs_run, final=best_final)


def evaluate(session: Session, epoch: int) -> dict:
    """Dropout-free forward pass; each label owner scores its own labels and
    the integer confusion counts are summed across holders. The next
    training forward reuses its sweep (without dropout) or its layer-0 pool."""
    forward_pass(session, train=False, epoch=epoch)
    return {split: split_scores(sum(h.split_confusion(split) for h in session.holders),
                                _total_loss(session.holders, split))
            for split in SPLITS}


def run_training(config: RunConfig, holders_data: list[LocalGraph] | None = None) -> TrainResult:
    """Full training run from a config: build data, partition, train with
    early stopping on validation accuracy. Deterministic given the seeds."""
    if holders_data is None:
        g = build_dataset(config.dataset)
        holders_data = build_partition(g, config.partition)
    session = init_parties(config, holders_data)

    def train_epoch(epoch: int):
        forward_pass(session, train=True, epoch=epoch)
        backward_pass(session, epoch=epoch)
        weight_update(session, epoch=epoch)

    return fit(train_epoch, lambda epoch: evaluate(session, epoch),
               lambda: ModelWeights(session.holders[0].locals_, session.server.weights),
               config.train.max_epochs, config.train.patience, session.audit)

