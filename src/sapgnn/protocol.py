"""The split-learning protocol: data-holder and server state machines.

Each training epoch runs four phases in lock step:

  1. forward: every holder computes local per-node embeddings over its own
     subgraph and ships them (or, in secure-pooling mode, feeds them to a
     sealed element-wise max evaluator); the server pools element-wise
     maxima, applies the global linear map, and distributes the result.
  2. prediction: each holder evaluates the prediction head on its own
     labels; losses stay local, only the loss gradient w.r.t. the final
     embedding travels.
  3. backward: the server routes max subgradients to the winning holders,
     accumulates its own weight gradients, and holders return their input
     gradients for the next layer down.
  4. update: the server steps its weights directly; holders aggregate their
     local-weight gradients through additive secret sharing among
     themselves (the server sees none of it) and apply identical optimizer
     steps, preserving the replication invariant.

All cross-party values travel through the metered channel, so byte counts
and the audit log reflect exactly what each party could observe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DatasetConfig, PartitionConfig, RunConfig
from .gnn import (LocalWeightSet, ModelConfig, ModelWeights, NeighborIndex, global_backward,
                  global_update, init_global_weights, init_local_weights, layer_dims,
                  layer_dropout_rates, layer_relu_flags, local_backward, local_embedding,
                  loss_terms, predict_backward, predict_probs, stack_max)
from .graphs import (SPLITS, Graph, LocalGraph, generate_synthetic, load_dataset, node_digests,
                     split_edges_uniform, split_label_skew)
from .metrics import EarlyStopper, confusion_matrix, split_scores
from .numerics import AdamState, adam_step, dropout_mask, make_rng
from .sharing import (AuditLog, combine_vector_shares, expand_seed, pooled_argmax,
                      share_vector)
from .wire import Channel, CommStats, MessageKind

POOL_PARTY = "sealed-pool"
SERVER_PARTY = "server"
# The winning holder per pooled element is an int8 (`stack_max`,
# `pooled_argmax` and the PoolResult wire field), so holder ids must fit it.
MAX_HOLDERS = int(np.iinfo(np.int8).max)


class ProtocolError(RuntimeError):
    pass


def holder_party(p: int) -> str:
    return f"holder-{p}"


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
    if dcfg.kind in ("edge-list-dir", "synthetic-spec"):
        if not dcfg.path:
            raise ValueError(f"dataset kind {dcfg.kind} needs a path")
        return load_dataset(dcfg.path, format=dcfg.kind)
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
    """One data holder: private subgraph, replicated local weights, tapes."""

    def __init__(self, local: LocalGraph, universe_ids: np.ndarray, cfg: ModelConfig,
                 n_classes: int, lr: float, seed: int):
        self.holder_id = local.holder_id
        self.cfg = cfg
        self.kind = cfg.update_kind
        self.n = len(universe_ids)
        self.feat_dim = local.graph.feat_dim
        self.n_classes = n_classes
        self.dims = layer_dims(cfg, self.feat_dim)

        self.node_ranks = np.searchsorted(universe_ids, local.graph.node_ids)
        self.idx = NeighborIndex.from_edges(np.searchsorted(universe_ids, local.graph.edges))
        self.iso_ranks = np.searchsorted(universe_ids, local.isolated_owned)

        self.label_rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for split, ids in local.graph.split_ids().items():
            ids = np.sort(ids)
            rows = np.searchsorted(universe_ids, ids)
            classes = local.graph.labels_for(ids)
            self.label_rows[split] = (rows, classes)

        # identical stream across holders: the replication invariant starts here
        self.locals_ = init_local_weights(cfg, self.feat_dim, n_classes,
                                          make_rng(seed, "local-init"))
        self.adams = [AdamState.for_param(w.shape, lr=lr) for w in self.locals_.arrays()]
        self.rng_shares = make_rng(seed, ("shares", self.holder_id))

        self._features_full = np.zeros((self.n, self.feat_dim))
        self._features_full[self.node_ranks] = local.graph.features
        self.h: list = []
        self.tapes: list = []
        self.probs: np.ndarray | None = None
        self.grad_acc: LocalWeightSet | None = None

    # -- forward ------------------------------------------------------------

    def begin_forward(self):
        self.h = [self._features_full] + [None] * self.cfg.layers
        self.tapes = [None] * self.cfg.layers
        self.probs = None

    def forward_local(self, l: int):
        t, tape = local_embedding(self.h[l], self.idx, self.iso_ranks, self.kind,
                                  self.locals_.w_message[l], self.locals_.w_gate[l])
        self.tapes[l] = tape
        return t

    def receive_global(self, l: int, values: np.ndarray):
        h_next = np.zeros((self.n, values.shape[1]))
        h_next[self.node_ranks] = values
        self.h[l + 1] = h_next

    def compute_predictions(self):
        self.probs = predict_probs(self.h[-1], self.locals_.w_predict)

    def split_loss_terms(self, split: str):
        """Per-label cross-entropy terms keyed by universe row, so the
        simulator can total losses in global node order (exact additivity)."""
        rows, classes = self.label_rows[split]
        return rows, loss_terms(self.probs, rows, classes)

    def split_confusion(self, split: str) -> np.ndarray:
        rows, classes = self.label_rows[split]
        preds = self.probs[rows].argmax(axis=1) if rows.size else np.empty(0, dtype=np.int64)
        return confusion_matrix(preds, classes, self.n_classes)

    # -- backward -----------------------------------------------------------

    def begin_backward(self):
        self.grad_acc = self.locals_.zeros_like()

    def pred_backward(self):
        rows, classes = self.label_rows["train"]
        dW, dH = predict_backward(self.h[-1], self.probs, rows, classes,
                                  self.locals_.w_predict)
        self.grad_acc.w_predict += dW
        return rows, dH[rows]

    def backward_local(self, l: int, R: np.ndarray) -> np.ndarray:
        dwm, dwg, dH = local_backward(self.h[l], self.tapes[l], self.kind,
                                      self.locals_.w_message[l], self.locals_.w_gate[l], R)
        if dwm is not None:
            self.grad_acc.w_message[l] += dwm
        if dwg is not None:
            self.grad_acc.w_gate[l] += dwg
        return dH

    # -- update -------------------------------------------------------------

    def apply_update(self, agg_flat: np.ndarray):
        try:
            grads = self.locals_.unflat(agg_flat)
        except ValueError as exc:
            raise ProtocolError(f"aggregated gradient: {exc}") from exc
        self.locals_.set_arrays(adam_update(self.adams, self.locals_.arrays(), grads))

    def _assign(self, name: str, value: np.ndarray):
        self.locals_.set_arrays([value if n == name else w for n, w in self.locals_.tensors()])

    def weights_blob(self) -> bytes:
        return b"".join(w.tobytes() for w in self.locals_.arrays())


@dataclass
class ServerTape:
    m: np.ndarray
    z: np.ndarray
    mask: np.ndarray | None
    winner: np.ndarray


class Server:
    """Semi-honest coordinator: pools local embeddings, owns the global maps."""

    def __init__(self, digests: np.ndarray, cfg: ModelConfig, feat_dim: int, lr: float,
                 seed: int, first_layer_fixed: bool):
        self.n = len(digests)
        row_digests = digests.view("V16").ravel()
        self.digest_order = np.argsort(row_digests)
        self.sorted_digests = row_digests[self.digest_order]
        self.weights = init_global_weights(cfg, feat_dim, make_rng(seed, "server-init"))
        self.adams = [AdamState.for_param(w.shape, lr=lr) for w in self.weights]
        self.relu_flags = layer_relu_flags(cfg)
        self.drop_rates = layer_dropout_rates(cfg)
        self.rng_dropout = make_rng(seed, "dropout")
        self.holder_rows: dict[int, np.ndarray] = {}
        self.tapes: list = [None] * cfg.layers
        # Without local tensors, layer 0 pools the fixed features: its pooled
        # (m, winner) is the same in every sweep, so the first sweep's is kept.
        self.first_layer_fixed = first_layer_fixed
        self.first_pool: tuple[np.ndarray, np.ndarray] | None = None

    def rows_of(self, keys: np.ndarray, sender_id: int) -> np.ndarray:
        """Universe rows of the 16-byte node digests that holder `sender_id`
        sent, found by a sorted search; an unknown digest is refused."""
        if keys.size % 16:
            raise ProtocolError(f"holder {sender_id} sent {keys.size} digest bytes, "
                                "not a whole number of 16-byte digests")
        keys = keys.view("V16")
        pos = np.searchsorted(self.sorted_digests, keys).clip(max=self.n - 1)
        if not np.array_equal(self.sorted_digests[pos], keys):
            raise ProtocolError(f"holder {sender_id} sent a node digest the server does not know")
        return self.digest_order[pos]

    def forward_layer(self, l: int, m: np.ndarray, winner: np.ndarray,
                      train: bool) -> np.ndarray:
        rate = self.drop_rates[l]
        mask = None
        if train and rate > 0.0:
            mask = dropout_mask(self.rng_dropout, rate, (self.n, self.weights[l].shape[0]))
        h_next, z = global_update(m, self.weights[l], self.relu_flags[l], mask)
        self.tapes[l] = ServerTape(m=m, z=z, mask=mask, winner=winner)
        return h_next

    def backward_layer(self, l: int, G: np.ndarray):
        tape = self.tapes[l]
        if tape is None:
            raise ProtocolError(f"no forward tape for layer {l}")
        return global_backward(G, tape.z, tape.m, tape.mask, self.weights[l],
                               self.relu_flags[l])


@dataclass
class Session:
    """All parties of one protocol run plus the shared channel and meters."""

    config: RunConfig
    holders: list
    server: Server
    channel: Channel
    comm: CommStats
    audit: AuditLog
    digests: np.ndarray                 # (n, 16) uint8, universe order


def init_parties(config: RunConfig, holders_data: list[LocalGraph]) -> Session:
    """Set up all parties from `config.train.seed`: replicated local weights
    from its local-init stream, server weights from its server-init stream,
    hashed node lists registered."""
    if len(holders_data) > MAX_HOLDERS:
        raise ProtocolError(f"{len(holders_data)} holders exceed the limit of {MAX_HOLDERS}: "
                            "the winning holder index is an int8")
    feats = {lg.graph.feat_dim for lg in holders_data}
    classes = {lg.graph.n_classes for lg in holders_data}
    if len(feats) != 1 or len(classes) != 1:
        raise ProtocolError(f"holders disagree on dimensions: F={feats}, C={classes}")
    n_classes = classes.pop()

    universe_ids = np.unique(np.concatenate([lg.graph.node_ids for lg in holders_data]))
    if universe_ids.size == 0:
        raise ProtocolError("no holder has a node")
    seed = config.train.seed
    digests = node_digests(universe_ids, make_rng(seed, "salt").bytes(32))

    comm = CommStats()
    audit = AuditLog()
    channel = Channel(comm, audit)

    cfg = config.model
    holders = [DataHolder(lg, universe_ids, cfg, n_classes, config.train.lr, seed)
               for lg in holders_data]
    first = holders[0].locals_
    server = Server(digests=digests, cfg=cfg, feat_dim=feats.pop(),
                    lr=config.train.lr, seed=seed,
                    first_layer_fixed=first.w_message[0] is None and first.w_gate[0] is None)

    for holder in holders:
        p = holder.holder_id
        decoded = channel.send(holder_party(p), SERVER_PARTY, MessageKind.NODE_INDEX,
                               layer=-1, epoch=-1,
                               fields={"keys": digests[holder.node_ranks].ravel()}, sender_id=p)
        server.holder_rows[p] = server.rows_of(decoded["keys"], p)
    return Session(config=config, holders=holders, server=server, channel=channel,
                   comm=comm, audit=audit, digests=digests)


# ---------------------------------------------------------------------------
# Protocol phases
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    total_loss: float
    embeddings: list       # per-layer pooled-and-updated matrices at the server


def _total_loss(holders, split: str = "train") -> float:
    """Sum per-label loss terms in ascending universe-row order.

    Label ownership is disjoint, so this reproduces the exact float
    summation order of a single machine iterating all labels at once."""
    rows = [np.empty(0, dtype=np.int64)]
    terms = [np.empty(0)]
    for holder in holders:
        r, t = holder.split_loss_terms(split)
        rows.append(r)
        terms.append(t)
    rows = np.concatenate(rows)
    terms = np.concatenate(terms)
    if rows.size == 0:
        return 0.0
    return float(np.sum(terms[np.argsort(rows, kind="stable")]))


def _secure_pool(session: Session, l: int, epoch: int, holder_payloads: list):
    """Sealed element-wise max: holders feed candidates in, the server gets
    only the winning values and the winning holder index per element."""
    stacks, valids = [], []
    for p, (t, participates) in enumerate(holder_payloads):
        decoded = session.channel.send(
            holder_party(p), POOL_PARTY, MessageKind.POOL_INPUT, layer=l, epoch=epoch,
            fields={"keys": session.digests.ravel(),
                    "valid": participates.astype(np.uint8),
                    "values": np.where(participates[:, None], t, 0.0)},
            sender_id=p)
        stacks.append(decoded["values"])
        valids.append(decoded["valid"].astype(bool))
    try:
        m, winner = pooled_argmax(np.stack(stacks), np.stack(valids))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    decoded = session.channel.send(
        POOL_PARTY, SERVER_PARTY, MessageKind.POOL_RESULT, layer=l, epoch=epoch,
        fields={"keys": session.digests.ravel(), "m": m, "winner": winner})
    return decoded["m"], decoded["winner"].astype(np.int8)


def _pool_layer(session: Session, l: int, epoch: int):
    """Every holder's layer-l local embeddings, pooled: (m, winner) at the server."""
    secure = session.config.mode == "secure-pooling"
    ts, payloads = [], []
    for p, holder in enumerate(session.holders):
        t = holder.forward_local(l)
        if secure:
            payloads.append((t, holder.tapes[l].participates))
        else:
            decoded = session.channel.send(
                holder_party(p), SERVER_PARTY, MessageKind.LOCAL_EMBEDDING,
                layer=l, epoch=epoch,
                fields={"keys": session.digests.ravel(), "t": t}, sender_id=p)
            ts.append(decoded["t"])
    if secure:
        return _secure_pool(session, l, epoch, payloads)
    try:
        return stack_max(np.stack(ts))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def forward_pass(session: Session, train: bool = True, epoch: int = 0) -> ForwardResult:
    """One synchronized forward sweep over all layers: local embeddings up,
    pooled global embeddings back down, then private per-holder loss
    computation. A weight-free layer 0 is pooled in the first sweep only;
    later sweeps reuse the server's kept (m, winner)."""
    cfg = session.config.model
    server = session.server
    for holder in session.holders:
        holder.begin_forward()

    embeddings = []
    for l in range(cfg.layers):
        if l == 0 and server.first_pool is not None:
            m, winner = server.first_pool
        else:
            m, winner = _pool_layer(session, l, epoch)
            if l == 0 and server.first_layer_fixed:
                server.first_pool = (m, winner)
        h_next = server.forward_layer(l, m, winner, train)
        embeddings.append(h_next)
        for p, holder in enumerate(session.holders):
            rows = server.holder_rows[p]
            decoded = session.channel.send(
                SERVER_PARTY, holder_party(p), MessageKind.GLOBAL_EMBEDDING,
                layer=l, epoch=epoch,
                fields={"keys": session.digests[rows].ravel(), "h": h_next[rows]})
            holder.receive_global(l, decoded["h"])

    for holder in session.holders:
        holder.compute_predictions()
    return ForwardResult(total_loss=_total_loss(session.holders, "train"),
                         embeddings=embeddings)


@dataclass
class BackwardResult:
    server_grads: list       # per layer: grad of the global map; holders keep theirs in grad_acc


def backward_pass(session: Session, epoch: int = 0) -> BackwardResult:
    """Reverse sweep: prediction-head gradients to the server, per-layer
    routing through the recorded argmax winners, input gradients back up.
    A weight-free layer 0 stops at the server's own gradient: it has no
    holder tensor to train and sends no input gradient."""
    cfg = session.config.model
    server = session.server
    n = server.n

    for holder in session.holders:
        if holder.probs is None:
            raise ProtocolError("backward requires a completed forward pass")
        holder.begin_backward()

    G = np.zeros((n, server.weights[-1].shape[0]))
    for p, holder in enumerate(session.holders):
        rows, vals = holder.pred_backward()
        decoded = session.channel.send(
            holder_party(p), SERVER_PARTY, MessageKind.PRED_GRAD, layer=cfg.layers,
            epoch=epoch, fields={"keys": session.digests[rows].ravel(), "g": vals},
            sender_id=p)
        G[server.rows_of(decoded["keys"], p)] += decoded["g"]

    server_grads = [None] * cfg.layers
    for l in reversed(range(cfg.layers)):
        tape = server.tapes[l]
        dW, dM = server.backward_layer(l, G)
        server_grads[l] = dW
        if l == 0 and server.first_layer_fixed:
            break
        G_next = np.zeros((n, session.holders[0].dims[l].d_in))
        for p, holder in enumerate(session.holders):
            R_p = np.where(tape.winner == p, dM, 0.0)
            decoded = session.channel.send(
                SERVER_PARTY, holder_party(p), MessageKind.LOCAL_EMB_GRAD,
                layer=l, epoch=epoch,
                fields={"keys": session.digests.ravel(), "r": R_p})
            dH = holder.backward_local(l, decoded["r"])
            if l > 0:
                decoded2 = session.channel.send(
                    holder_party(p), SERVER_PARTY, MessageKind.INPUT_GRAD,
                    layer=l, epoch=epoch,
                    fields={"keys": session.digests.ravel(), "g": dH}, sender_id=p)
                G_next += decoded2["g"]
        G = G_next
    return BackwardResult(server_grads=server_grads)


def secure_sum(channel: Channel, vectors: list, rngs: list, mode: str,
               epoch: int) -> np.ndarray:
    """All-holder secure sum of equal-length vectors; the server takes no part.

    Holder j shares its vector among the P holders with its own rng (`mode`
    "fixed-point" or "real", see `share_vector`): it sends every other
    holder i one 32-byte seed as a GradShare (audit schema `seed`) and
    keeps as its own share its vector minus the expansions of those seeds.
    Each holder adds the expansions of the seeds it received and its own
    share, in ascending sender order, into a partial sum and sends it to
    every other holder as a PartialSum; each holder adds every partial into
    one running sum as it arrives, again in ascending sender order, so only
    O(P) vectors are alive at once. A seed reveals exactly what its
    expanded vector would; it is drawn from numpy's PCG64, which is
    simulator-grade and not a CSPRNG. Messages go sender outer, receiver
    inner. Returns the total once every holder has reconstructed the same
    one; with one holder its vector is the total and nothing is sent.
    """
    P = len(vectors)
    shapes = {np.shape(v) for v in vectors}
    if len(shapes) != 1:
        raise ProtocolError(f"holders disagree on gradient vector length: {sorted(shapes)}")
    if P == 1:
        return vectors[0]
    shape = shapes.pop()
    try:
        outgoing = [share_vector(v, P, rng, mode=mode)
                    for v, rng in zip(vectors, rngs, strict=True)]
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc

    def send(kind: MessageKind, j: int, i: int, name: str, value):
        return channel.send(holder_party(j), holder_party(i), kind, layer=-1, epoch=epoch,
                            fields={name: value}, sender_id=j)[name]

    # seeds_at[i][j]: the seed holder i received from holder j; holder j
    # keeps its P-1 seeds in ascending receiver order
    seeds_at = [[None] * P for _ in range(P)]
    for j, (seeds, _own) in enumerate(outgoing):
        for i in range(P):
            if i != j:
                seeds_at[i][j] = send(MessageKind.GRAD_SHARE, j, i, "seed", seeds[i - (i > j)])

    def partial_sum(j: int):
        """Holder j's own share plus the expansions of the seeds it received,
        in ascending sender order; the own share is dropped once added."""
        own = outgoing[j][1]
        outgoing[j] = None
        return combine_vector_shares(
            (own if k == j else expand_seed(seeds_at[j][k], shape, mode) for k in range(P)),
            mode=mode, decode=False)

    sums = [None] * P      # sums[i]: holder i's running sum of the partials so far
    for j in range(P):
        partial = partial_sum(j)
        for i in range(P):
            got = partial if i == j else send(MessageKind.PARTIAL_SUM, j, i, "partial", partial)
            if sums[i] is None:
                sums[i] = got.copy()
            else:
                np.add(sums[i], got, out=sums[i])
    if any(not np.array_equal(sums[0], s) for s in sums[1:]):
        raise ProtocolError("holders reconstructed different gradient aggregates")
    return combine_vector_shares(sums[:1], mode=mode)


def aggregate_local_grads(session: Session, epoch: int = 0) -> np.ndarray:
    """Secure sum of the holders' flattened local-weight gradients."""
    return secure_sum(session.channel, [h.grad_acc.flat() for h in session.holders],
                      [h.rng_shares for h in session.holders], session.config.share_mode,
                      epoch)


def weight_update(session: Session, bwd: BackwardResult, epoch: int = 0) -> None:
    """Server steps its weights directly; holders aggregate and step in
    lock step. Raises if the replication invariant breaks."""
    server = session.server
    server.weights[:] = adam_update(server.adams, server.weights, bwd.server_grads)
    agg = aggregate_local_grads(session, epoch=epoch)
    for holder in session.holders:
        holder.apply_update(agg)
    blobs = {h.weights_blob() for h in session.holders}
    if len(blobs) != 1:
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
    comm: CommStats
    audit: AuditLog
    best_epoch: int
    epochs_run: int
    final: dict              # test metrics at the best validation epoch (NaN if none)


def fit(train_epoch, score, final_weights, max_epochs: int, patience: int,
        comm: CommStats, audit: AuditLog) -> TrainResult:
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
    return TrainResult(weights=final_weights(), metrics_rows=metrics_rows, comm=comm,
                       audit=audit, best_epoch=stopper.best_epoch, epochs_run=epochs_run,
                       final=best_final)


def evaluate(session: Session, epoch: int) -> dict:
    """Dropout-free forward pass; each label owner scores its own labels and
    the integer confusion counts are summed across holders."""
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
        weight_update(session, backward_pass(session, epoch=epoch), epoch=epoch)

    return fit(train_epoch, lambda epoch: evaluate(session, epoch),
               lambda: ModelWeights(session.holders[0].locals_, session.server.weights),
               config.train.max_epochs, config.train.patience, session.comm, session.audit)


# ---------------------------------------------------------------------------
# Privacy audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    party: str
    kind: str
    description: str


@dataclass
class AuditReport:
    findings: list
    mode: str
    n_records: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.ok:
            return f"audit clean over {self.n_records} records ({self.mode} mode)"
        lines = [f"{len(self.findings)} finding(s) over {self.n_records} records:"]
        lines += [f"  - {f.party}: {f.kind}: {f.description}" for f in self.findings]
        return "\n".join(lines)


_SERVER_INBOUND = {
    "naive": {MessageKind.NODE_INDEX.value, MessageKind.LOCAL_EMBEDDING.value,
              MessageKind.PRED_GRAD.value, MessageKind.INPUT_GRAD.value},
    "secure-pooling": {MessageKind.NODE_INDEX.value, MessageKind.POOL_RESULT.value,
                       MessageKind.PRED_GRAD.value, MessageKind.INPUT_GRAD.value},
}
_HOLDER_INBOUND = {MessageKind.GLOBAL_EMBEDDING.value, MessageKind.LOCAL_EMB_GRAD.value,
                   MessageKind.GRAD_SHARE.value, MessageKind.PARTIAL_SUM.value}
_POOL_INBOUND = {MessageKind.POOL_INPUT.value}


def verify_privacy_audit(log: AuditLog, mode: str | None = None) -> AuditReport:
    """Check a completed run's transmissions against the closed wire schema.

    Asserts that (a) only known message kinds occurred, (b) the server never
    received gradient shares or partial sums, (c) no holder received another
    holder's local embeddings, and (d) in secure-pooling mode the server
    received no plaintext local-embedding message at all.
    """
    if mode is None:
        secure = any(r.kind in (MessageKind.POOL_INPUT.value, MessageKind.POOL_RESULT.value)
                     for r in log.records)
        mode = "secure-pooling" if secure else "naive"
    known = {k.value for k in MessageKind}
    findings: list[Finding] = []
    seen: set[tuple] = set()

    def add(party: str, kind: str, description: str):
        key = (party, kind, description)
        if key not in seen:
            seen.add(key)
            findings.append(Finding(party=party, kind=kind, description=description))

    for rec in log.records:
        if rec.kind not in known:
            add(rec.sender, rec.kind, "message kind outside the closed schema")
            continue
        if rec.receiver == SERVER_PARTY:
            if rec.kind in (MessageKind.GRAD_SHARE.value, MessageKind.PARTIAL_SUM.value):
                add(rec.receiver, rec.kind, "server observed gradient-share traffic")
            elif mode == "secure-pooling" and rec.kind == MessageKind.LOCAL_EMBEDDING.value:
                add(rec.receiver, rec.kind,
                    "server observed a plaintext local embedding in secure-pooling mode")
            elif rec.kind not in _SERVER_INBOUND[mode]:
                add(rec.receiver, rec.kind, "unexpected message kind at the server")
        elif rec.receiver.startswith("holder-"):
            if rec.kind == MessageKind.LOCAL_EMBEDDING.value:
                add(rec.receiver, rec.kind, "holder observed another holder's local embedding")
            elif rec.kind not in _HOLDER_INBOUND:
                add(rec.receiver, rec.kind, "unexpected message kind at a holder")
        elif rec.receiver == POOL_PARTY:
            if rec.kind not in _POOL_INBOUND:
                add(rec.receiver, rec.kind, "unexpected message kind at the pool boundary")
            elif mode != "secure-pooling":
                add(rec.receiver, rec.kind, "pool traffic outside secure-pooling mode")
        else:
            add(rec.receiver, rec.kind, "unknown receiving party")
    return AuditReport(findings=findings, mode=mode, n_records=len(log.records))
