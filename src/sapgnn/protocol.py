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
from .gnn import (LocalWeightSet, ModelConfig, ModelWeights, NeighborIndex,
                  assemble_model_weights, global_backward, global_update,
                  init_global_weights, init_local_weights, layer_dims, layer_dropout_rates,
                  layer_relu_flags, local_backward, local_embedding, loss_terms, predict_backward,
                  predict_probs, stack_max)
from .graphs import (Graph, HashedIndex, LocalGraph, build_hashed_index, generate_synthetic,
                     load_dataset, split_edges_uniform, split_label_skew)
from .metrics import EarlyStopper, confusion_matrix, split_scores
from .numerics import AdamState, adam_step, dropout_mask, make_rng
from .sharing import AuditLog, combine_vector_shares, pooled_argmax, share_vector
from .wire import Channel, CommStats, MessageKind

POOL_PARTY = "sealed-pool"
SERVER_PARTY = "server"
SPLITS = ("train", "val", "test")


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
        return split_edges_uniform(g, pcfg.P, label_assignment=pcfg.label_assignment,
                                   seed=pcfg.seed,
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
                 n_classes: int, lr: float, shared_seed: int, train_seed: int):
        self.holder_id = local.holder_id
        self.local = local
        self.cfg = cfg
        self.kind = cfg.update_kind
        self.n = len(universe_ids)
        self.feat_dim = local.graph.feat_dim
        self.n_classes = n_classes
        self.dims = layer_dims(cfg, self.feat_dim)

        self.node_ranks = np.searchsorted(universe_ids, local.graph.node_ids)
        edge_ids = local.graph.edges
        edge_ranks = (np.searchsorted(universe_ids, edge_ids.ravel()).reshape(-1, 2)
                      if edge_ids.size else np.empty((0, 2), dtype=np.int64))
        self.idx = NeighborIndex.from_edges(edge_ranks, self.n)
        self.iso_ranks = np.searchsorted(universe_ids, local.isolated_owned)

        self.label_rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        graph = local.graph
        for split, ids in zip(SPLITS, (graph.train_ids, graph.val_ids, graph.test_ids)):
            ids = np.sort(ids)
            rows = np.searchsorted(universe_ids, ids)
            classes = local.graph.labels_for(ids)
            self.label_rows[split] = (rows, classes)

        # identical stream across holders: the replication invariant starts here
        self.locals_ = init_local_weights(cfg, self.feat_dim, n_classes,
                                          make_rng(shared_seed, "local-init"))
        self.adams = [AdamState.for_param(w.shape, lr=lr) for w in self.locals_.arrays()]
        self.rng_shares = make_rng(train_seed, ("shares", self.holder_id))

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
    h_next: np.ndarray


class Server:
    """Semi-honest coordinator: pools local embeddings, owns the global maps."""

    def __init__(self, n: int, cfg: ModelConfig, feat_dim: int, lr: float,
                 server_seed: int):
        self.n = n
        self.cfg = cfg
        self.weights = init_global_weights(cfg, feat_dim,
                                           make_rng(server_seed, "server-init"))
        self.adams = [AdamState.for_param(w.shape, lr=lr) for w in self.weights]
        self.relu_flags = layer_relu_flags(cfg)
        self.drop_rates = layer_dropout_rates(cfg)
        self.rng_dropout = make_rng(server_seed, "dropout")
        self.holder_rows: dict[int, np.ndarray] = {}
        self.tapes: list = [None] * cfg.layers

    def forward_layer(self, l: int, m: np.ndarray, winner: np.ndarray,
                      train: bool) -> np.ndarray:
        rate = self.drop_rates[l]
        mask = None
        if train and rate > 0.0:
            mask = dropout_mask(self.rng_dropout, rate, (self.n, self.weights[l].shape[0]))
        h_next, z = global_update(m, self.weights[l], self.relu_flags[l], mask)
        self.tapes[l] = ServerTape(m=m, z=z, mask=mask, winner=winner, h_next=h_next)
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
    universe_ids: np.ndarray
    hindex: HashedIndex
    digests: np.ndarray                 # (n, 16) uint8, universe order

    @property
    def P(self) -> int:
        return len(self.holders)


def init_parties(config: RunConfig, holders_data: list[LocalGraph],
                 shared_seed: int, server_seed: int) -> Session:
    """Set up all parties: replicated local weights from the shared seed,
    server weights from its own seed, hashed node lists registered."""
    feats = {lg.graph.feat_dim for lg in holders_data}
    classes = {lg.graph.n_classes for lg in holders_data}
    if len(feats) != 1 or len(classes) != 1:
        raise ProtocolError(f"holders disagree on dimensions: F={feats}, C={classes}")
    n_classes = classes.pop()

    universe_ids = np.unique(np.concatenate([lg.graph.node_ids for lg in holders_data]))
    salt = make_rng(shared_seed, "salt").bytes(32)
    hindex = build_hashed_index(holders_data, salt)
    digests = np.frombuffer(b"".join(hindex.digests_for(universe_ids)),
                            dtype=np.uint8).reshape(len(universe_ids), 16)

    comm = CommStats()
    audit = AuditLog()
    channel = Channel(comm, audit)

    cfg = config.model
    server = Server(n=len(universe_ids), cfg=cfg, feat_dim=feats.pop(),
                    lr=config.train.lr, server_seed=server_seed)
    holders = [DataHolder(lg, universe_ids, cfg, n_classes, config.train.lr,
                          shared_seed, config.train.seed)
               for lg in holders_data]

    digest_pos = {bytes(d): i for i, d in enumerate(digests)}
    for holder in holders:
        decoded = channel.send(holder_party(holder.holder_id), SERVER_PARTY,
                               MessageKind.NODE_INDEX, layer=-1, epoch=-1,
                               fields={"keys": digests[holder.node_ranks].ravel()},
                               sender_id=holder.holder_id)
        keys = decoded["keys"].reshape(-1, 16)
        server.holder_rows[holder.holder_id] = np.array(
            [digest_pos[bytes(k)] for k in keys], dtype=np.int64)
    return Session(config=config, holders=holders, server=server, channel=channel,
                   comm=comm, audit=audit, universe_ids=universe_ids, hindex=hindex,
                   digests=digests)


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


def forward_pass(session: Session, train: bool = True, epoch: int = 0) -> ForwardResult:
    """One synchronized forward sweep over all layers: local embeddings up,
    pooled global embeddings back down, then private per-holder loss
    computation."""
    cfg = session.config.model
    secure = session.config.mode == "secure-pooling"
    for holder in session.holders:
        holder.begin_forward()

    embeddings = []
    for l in range(cfg.layers):
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
            m, winner = _secure_pool(session, l, epoch, payloads)
        else:
            try:
                m, winner = stack_max(np.stack(ts))
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
        h_next = session.server.forward_layer(l, m, winner, train)
        embeddings.append(h_next)
        for p, holder in enumerate(session.holders):
            rows = session.server.holder_rows[p]
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
    holder_grads: list       # per holder: {tensor name: grad}, in tensors() order
    server_grads: list       # per layer: grad of the global map


def backward_pass(session: Session, epoch: int = 0) -> BackwardResult:
    """Reverse sweep: prediction-head gradients to the server, per-layer
    routing through the recorded argmax winners, input gradients back up."""
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
        G[rows] += decoded["g"]

    server_grads = [None] * cfg.layers
    for l in reversed(range(cfg.layers)):
        tape = server.tapes[l]
        dW, dM = server.backward_layer(l, G)
        server_grads[l] = dW
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

    holder_grads = [dict(holder.grad_acc.tensors()) for holder in session.holders]
    return BackwardResult(holder_grads=holder_grads, server_grads=server_grads)


def aggregate_local_grads(session: Session, epoch: int = 0) -> np.ndarray:
    """Secure all-holder sum of the flattened local-weight gradients.

    Every holder ends with the same flat vector; the server sees none of the
    share traffic. With one holder the aggregate is its own gradient.
    """
    holders = session.holders
    P = len(holders)
    flats = [h.grad_acc.flat() for h in holders]
    if P == 1:
        return flats[0]
    mode = session.config.share_mode
    share_kw = {"mode": "fixed-point" if mode == "fixed-point" else "real"}

    try:
        outgoing = [share_vector(flats[j], P, holders[j].rng_shares, **share_kw)
                    for j in range(P)]
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    received = [[None] * P for _ in range(P)]
    for j in range(P):
        for i in range(P):
            if i == j:
                received[i][j] = outgoing[j][i]
                continue
            decoded = session.channel.send(
                holder_party(j), holder_party(i), MessageKind.GRAD_SHARE,
                layer=-1, epoch=epoch, fields={"share": outgoing[j][i]}, sender_id=j)
            received[i][j] = decoded["share"]

    partials = [combine_vector_shares([received[i][j] for j in range(P)],
                                      mode=share_kw["mode"], decode=False)
                for i in range(P)]
    partials_at = [[None] * P for _ in range(P)]
    for i in range(P):
        for k in range(P):
            if k == i:
                partials_at[k][i] = partials[i]
                continue
            decoded = session.channel.send(
                holder_party(i), holder_party(k), MessageKind.PARTIAL_SUM,
                layer=-1, epoch=epoch, fields={"partial": partials[i]}, sender_id=i)
            partials_at[k][i] = decoded["partial"]

    results = [combine_vector_shares(partials_at[k], mode=share_kw["mode"], decode=True)
               for k in range(P)]
    for k in range(1, P):
        if not np.array_equal(results[0], results[k]):
            raise ProtocolError("holders reconstructed different gradient aggregates")
    return results[0]


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
    final: dict              # test metrics at the best validation epoch


def fit(train_epoch, score, final_weights, max_epochs: int, patience: int,
        comm: CommStats, audit: AuditLog) -> TrainResult:
    """The epoch loop of every trainer: `train_epoch(epoch)` takes one
    optimizer step, `score(epoch)` returns accuracy / macro_f1 / loss per
    split, and training stops early on validation accuracy.
    `final_weights()` gives the weights once the loop ends."""
    stopper = EarlyStopper(patience)
    metrics_rows = []
    best_final: dict = {}
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
    session = init_parties(config, holders_data, shared_seed=config.train.seed,
                           server_seed=config.train.seed)

    def train_epoch(epoch: int):
        forward_pass(session, train=True, epoch=epoch)
        weight_update(session, backward_pass(session, epoch=epoch), epoch=epoch)

    return fit(train_epoch, lambda epoch: evaluate(session, epoch),
               lambda: assemble_model_weights(config.model, session.holders[0].locals_,
                                              session.server.weights),
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
