"""Graph data model, dataset ingestion, and horizontal partitioning.

A Graph owns a node universe (64-bit integer ids, stored ascending), dense
float64 features, an undirected edge list, a partial label map, and three
disjoint train/val/test mask sets. Partitioners produce LocalGraph values,
one per data holder; they are pure functions of (graph, parameters, seed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import make_rng

UNLABELED = -1
SPLITS = ("train", "val", "test")

DATASET_FILES = ("nodes.tsv", "features.tsv", "edges.tsv", "manifest.json")

# Rows of the candidate-pair triangle `generate_synthetic` draws at once.
PAIR_BLOCK_ROWS = 128


@dataclass
class Graph:
    """One graph: nodes, features, undirected edges, labels, and split masks.

    Invariants (checked on construction): node ids strictly increasing, all
    feature rows share one dimension, every edge endpoint is a known node,
    masks are pairwise disjoint subsets of the labeled nodes. Values are
    immutable after construction by convention.
    """

    node_ids: np.ndarray      # (N,) int64, strictly increasing
    features: np.ndarray      # (N, F) float64
    edges: np.ndarray         # (E, 2) int64 node ids, undirected
    labels: np.ndarray        # (N,) int64, UNLABELED where missing
    train_ids: np.ndarray     # (T,) int64 node ids
    val_ids: np.ndarray
    test_ids: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.train_ids = np.asarray(self.train_ids, dtype=np.int64)
        self.val_ids = np.asarray(self.val_ids, dtype=np.int64)
        self.test_ids = np.asarray(self.test_ids, dtype=np.int64)
        self._validate()

    def _validate(self):
        n = len(self.node_ids)
        # compared, not subtracted: a difference of ids far apart wraps int64
        if not np.all(self.node_ids[1:] > self.node_ids[:-1]):
            raise ValueError("node_ids must be strictly increasing")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(
                f"feature rows ({self.features.shape}) do not match node count ({n})")
        if self.labels.shape != (n,):
            raise ValueError("labels must align with node_ids")
        found = np.isin(self.edges, self.node_ids)
        if not found.all():
            bad = self.edges[~found.all(axis=1)][0]
            raise ValueError(f"dangling edge endpoint in edge {tuple(bad)}")
        labeled = self.labels != UNLABELED
        if np.any(self.labels[labeled] >= self.n_classes) or np.any(self.labels[labeled] < 0):
            raise ValueError(f"label class out of range [0, {self.n_classes})")
        seen = np.empty(0, dtype=np.int64)
        for name, ids in self.split_ids().items():
            s = np.unique(ids)
            if len(s) != len(ids):
                raise ValueError(f"duplicate node in {name} mask")
            if np.isin(s, seen).any():
                raise ValueError("train/val/test masks must be pairwise disjoint")
            seen = np.concatenate([seen, s])
            try:
                ranks = self.rank_of(ids)
            except KeyError as exc:
                raise ValueError(f"{name} mask: {exc.args[0]}") from exc
            if np.any(self.labels[ranks] == UNLABELED):
                raise ValueError(f"{name} mask contains an unlabeled node")

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    def rank_of(self, ids) -> np.ndarray:
        """Row index for each node id, in the shape of `ids`; raises on
        unknown ids, naming the first in input order.

        The ids are searched in ascending order, each search starting near
        the last one, and their ranks scattered back to the input order."""
        ids = np.asarray(ids, dtype=np.int64)
        flat = ids.ravel()
        order = np.argsort(flat)
        keys = flat[order]
        found = np.searchsorted(self.node_ids, keys)
        known = found < self.n_nodes
        known[known] = self.node_ids[found[known]] == keys[known]
        ranks = np.empty_like(found)
        ranks[order] = found
        if not known.all():
            unknown = np.zeros(flat.size, dtype=bool)
            unknown[order[~known]] = True
            raise KeyError(f"unknown node id {flat[unknown][:1]}")
        return ranks.reshape(ids.shape)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.rank_of(self.edges.ravel()), minlength=self.n_nodes)

    def labels_for(self, ids) -> np.ndarray:
        return self.labels[self.rank_of(ids)]

    def split_ids(self) -> dict[str, np.ndarray]:
        """The train, val and test masks, keyed by split name."""
        return dict(zip(SPLITS, (self.train_ids, self.val_ids, self.test_ids)))


@dataclass
class LocalGraph:
    """One data holder's private subgraph plus its owned label shares.

    isolated_owned lists nodes this holder owns that have no neighbors in the
    combined graph; the holder still embeds them, against a zero message,
    where it leaves out every other node without a local neighbor.
    """

    graph: Graph
    isolated_owned: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.isolated_owned = np.asarray(self.isolated_owned, dtype=np.int64)
        unknown = ~np.isin(self.isolated_owned, self.graph.node_ids)
        if unknown.any():
            raise ValueError("isolated_owned contains nodes not in this holder's graph")


def sorted_union(arrays) -> np.ndarray:
    """The distinct values of int64 arrays, ascending, by one sort and a
    comparison of neighbours (np.unique hashes integers first, which took
    3-5x as long on the set-up's id lists)."""
    values = np.sort(np.concatenate(arrays))
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _sha256_rows(payloads: np.ndarray) -> np.ndarray:
    """The sha256 of each row of a uint8 matrix: an (n, 32) uint8 table."""
    buf, width = payloads.tobytes(), payloads.shape[1]
    return np.frombuffer(b"".join([hashlib.sha256(buf[i:i + width]).digest()
                                   for i in range(0, len(buf), width)]),
                         dtype=np.uint8).reshape(len(payloads), 32)


def node_digests(ids: np.ndarray, salt: bytes) -> np.ndarray:
    """Salted 128-bit digests of distinct node ids: an (n, 16) uint8 table,
    row i the first 16 bytes of sha256(salt || ids[i]).

    Each id is canonicalized as a big-endian 8-byte two's-complement integer,
    so the digests are stable across platforms (a non-negative id reads the
    same as unsigned). The salt is a 256-bit secret known to the data
    holders only; the server sees digests, never raw ids. Digests must be
    injective over the ids: `DigestIndex` refuses a collision.
    """
    if len(salt) != 32:
        raise ValueError("salt must be exactly 256 bits (32 bytes)")
    ids = np.asarray(ids, dtype=np.int64)
    payloads = np.empty((len(ids), 40), dtype=np.uint8)
    payloads[:, :32] = np.frombuffer(salt, dtype=np.uint8)
    payloads[:, 32:] = ids.astype(">i8").view(np.uint8).reshape(-1, 8)
    return np.ascontiguousarray(_sha256_rows(payloads)[:, :16])


def _digest_words(digests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two big-endian 64-bit halves of each 16-byte digest, as native
    uint64 words: ordered as (first, second), digests order as their bytes."""
    words = np.ascontiguousarray(digests, dtype=np.uint8).view(">u8").reshape(-1, 2)
    return words[:, 0].astype(np.uint64), words[:, 1].astype(np.uint64)


@dataclass
class DigestIndex:
    """A digest table sorted once, to look digests up by their bytes.

    Built from the union's table, its one sort both refuses a collision and
    orders the lookup. Sorted position i holds table row `order[i]`.
    """

    order: np.ndarray   # (n,) the table row at each sorted position
    first: np.ndarray   # (n,) ascending first words
    second: np.ndarray  # (n,) second words, ascending within a run of equal first words
    tied: bool          # whether two digests share a first word

    @classmethod
    def of(cls, table: np.ndarray) -> "DigestIndex":
        first, second = _digest_words(table)
        order = np.argsort(first)
        tied = bool(np.any(np.diff(first[order]) == 0))
        if tied:   # order by both words; two digests that share both collide
            order = np.lexsort((second, first))
        first, second = first[order], second[order]
        if tied and np.any((np.diff(first) == 0) & (np.diff(second) == 0)):
            raise RuntimeError(f"hash collision among the digests of {len(order)} node ids; "
                               "aborting")
        return cls(order=order, first=first, second=second, tied=tied)

    def find(self, digests: np.ndarray) -> np.ndarray:
        """The sorted position of each 16-byte digest (flat uint8 or (k, 16)), -1 if absent."""
        first, second = _digest_words(digests)
        if not self.order.size:
            return np.full(first.size, -1)
        pos = np.searchsorted(self.first, first)
        if self.tied:   # search a shared first word's run by the second word
            end = np.searchsorted(self.first, first, side="right")
            for k in np.flatnonzero(end - pos > 1):
                pos[k] += np.searchsorted(self.second[pos[k]:end[k]], second[k])
        pos = pos.clip(max=self.order.size - 1)
        return np.where((self.first[pos] == first) & (self.second[pos] == second), pos, -1)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def generate_synthetic(n_nodes: int, n_classes: int, feat_dim: int,
                       intra_class_edge_prob: float, inter_class_edge_prob: float,
                       seed: int, train_frac: float = 0.3, val_frac: float = 0.2,
                       class_sep: float = 2.0, noise: float = 1.0) -> Graph:
    """Planted-partition graph with class-conditional Gaussian features.

    Node i gets class i mod n_classes; each unordered pair is connected with
    the intra- or inter-class probability. Deterministic in the seed.
    """
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    if n_classes > n_nodes:
        raise ValueError("n_classes cannot exceed n_nodes")
    for p in (intra_class_edge_prob, inter_class_edge_prob):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = make_rng(seed, "synthetic")
    node_ids = np.arange(n_nodes, dtype=np.int64)
    labels = (node_ids % n_classes).astype(np.int64)

    means = rng.normal(0.0, class_sep, size=(n_classes, feat_dim))
    features = means[labels] + rng.normal(0.0, noise, size=(n_nodes, feat_dim))

    # Candidate pairs i < j, a block of rows at a time so memory stays
    # O(PAIR_BLOCK_ROWS * n). The uniform draws run over the pairs in
    # row-major order: the same stream and order as one all-pairs draw.
    blocks = []
    for start in range(0, n_nodes, PAIR_BLOCK_ROWS):
        rows = node_ids[start:start + PAIR_BLOCK_ROWS]
        upper = node_ids[None, :] > rows[:, None]
        same = labels[rows, None] == labels[None, :]
        p_edge = np.where(same[upper], intra_class_edge_prob, inter_class_edge_prob)
        hit = np.zeros_like(upper)
        hit[upper] = rng.random(p_edge.size) < p_edge
        iu, ju = np.nonzero(hit)
        blocks.append(np.stack([iu + start, ju], axis=1))
    edges = np.concatenate(blocks).astype(np.int64)

    perm = rng.permutation(n_nodes)
    n_train = int(round(train_frac * n_nodes))
    n_val = int(round(val_frac * n_nodes))
    train_ids = np.sort(node_ids[perm[:n_train]])
    val_ids = np.sort(node_ids[perm[n_train:n_train + n_val]])
    test_ids = np.sort(node_ids[perm[n_train + n_val:]])

    return Graph(node_ids=node_ids, features=features, edges=edges, labels=labels,
                 train_ids=train_ids, val_ids=val_ids, test_ids=test_ids,
                 n_classes=n_classes)


# ---------------------------------------------------------------------------
# Dataset directory format
# ---------------------------------------------------------------------------

def write_dataset(g: Graph, path) -> None:
    """Write a graph in the plain-text dataset directory format.

    Files: nodes.tsv (id, class-or-'-', mask), features.tsv (id + F decimals),
    edges.tsv (id, id), manifest.json (counts, feat dim, class count).
    All text UTF-8 with LF line endings.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    mask_of = {}
    for name, ids in g.split_ids().items():
        for i in ids.tolist():
            mask_of[i] = name
    with open(path / "nodes.tsv", "w", encoding="utf-8", newline="\n") as f:
        for rank, nid in enumerate(g.node_ids.tolist()):
            lab = g.labels[rank]
            lab_s = "-" if lab == UNLABELED else str(int(lab))
            f.write(f"{nid}\t{lab_s}\t{mask_of.get(nid, 'none')}\n")
    with open(path / "features.tsv", "w", encoding="utf-8", newline="\n") as f:
        for rank, nid in enumerate(g.node_ids.tolist()):
            row = "\t".join(repr(float(x)) for x in g.features[rank])
            f.write(f"{nid}\t{row}\n")
    with open(path / "edges.tsv", "w", encoding="utf-8", newline="\n") as f:
        for u, v in g.edges.tolist():
            f.write(f"{u}\t{v}\n")
    manifest = {"nodes": g.n_nodes, "edges": g.n_edges, "feat_dim": g.feat_dim,
                "n_classes": g.n_classes, "train": len(g.train_ids),
                "val": len(g.val_ids), "test": len(g.test_ids)}
    with open(path / "manifest.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def load_dataset(path) -> Graph:
    """Load a dataset directory in the plain-text layout written by write_dataset."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset path {path} does not exist")
    for name in DATASET_FILES:
        if not (path / name).exists():
            raise FileNotFoundError(f"missing dataset file {path / name}")
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))

    ids, labels, masks = [], [], []
    for line in (path / "nodes.tsv").read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        nid, lab, mask = line.split("\t")
        ids.append(int(nid))
        labels.append(UNLABELED if lab == "-" else int(lab))
        masks.append(mask)
    order = np.argsort(np.asarray(ids, dtype=np.int64), kind="stable")
    node_ids = np.asarray(ids, dtype=np.int64)[order]
    labels_arr = np.asarray(labels, dtype=np.int64)[order]
    masks = [masks[i] for i in order]

    feat_rows: dict[int, list[float]] = {}
    for line in (path / "features.tsv").read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        parts = line.split("\t")
        feat_rows[int(parts[0])] = [float(x) for x in parts[1:]]
    dims = {len(v) for v in feat_rows.values()}
    if len(dims) > 1:
        raise ValueError(f"inconsistent feature dimensions: {sorted(dims)}")
    if set(feat_rows) != set(node_ids.tolist()):
        raise ValueError("feature rows do not match the node list")
    feat_dim = dims.pop() if dims else 0
    features = np.array([feat_rows[int(i)] for i in node_ids], dtype=np.float64).reshape(
        len(node_ids), feat_dim)

    edges = []
    for line in (path / "edges.tsv").read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        u, v = line.split("\t")
        edges.append((int(u), int(v)))
    edges_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)

    mask_ids = {"train": [], "val": [], "test": []}
    for nid, mask in zip(node_ids.tolist(), masks):
        if mask in mask_ids:
            mask_ids[mask].append(nid)

    g = Graph(node_ids=node_ids, features=features, edges=edges_arr, labels=labels_arr,
              train_ids=np.sort(np.asarray(mask_ids["train"], dtype=np.int64)),
              val_ids=np.sort(np.asarray(mask_ids["val"], dtype=np.int64)),
              test_ids=np.sort(np.asarray(mask_ids["test"], dtype=np.int64)),
              n_classes=int(manifest["n_classes"]))

    checks = [("nodes", g.n_nodes), ("edges", g.n_edges), ("feat_dim", g.feat_dim),
              ("train", len(g.train_ids)), ("val", len(g.val_ids)), ("test", len(g.test_ids))]
    for key, actual in checks:
        expected = int(manifest[key])
        if actual != expected:
            raise ValueError(f"manifest mismatch for {key}: file says {expected}, data has {actual}")
    return g


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------

def _assemble_holders(g: Graph, node_sets: list[np.ndarray], holder_edges: list[np.ndarray],
                      shares: dict[str, list[np.ndarray]]) -> list[LocalGraph]:
    """One LocalGraph per holder p: the nodes of node_sets[p] with their
    features, the edges holder_edges[p], and the labels of the ids it owns
    in each split (shares[split][p]). A node that it has and no holder's edge
    touches is isolated_owned."""
    touched = np.unique(np.concatenate(holder_edges))
    holders = []
    for p, node_set in enumerate(node_sets):
        owned = {split: np.sort(shares[split][p]) for split in SPLITS}
        owned_ids = np.concatenate(list(owned.values()))
        labels = np.full(len(node_set), UNLABELED, dtype=np.int64)
        labels[np.searchsorted(node_set, owned_ids)] = g.labels_for(owned_ids)
        local = Graph(node_ids=node_set, features=g.features[g.rank_of(node_set)],
                      edges=holder_edges[p], labels=labels, train_ids=owned["train"],
                      val_ids=owned["val"], test_ids=owned["test"], n_classes=g.n_classes)
        isolated = np.setdiff1d(node_set, touched, assume_unique=True)
        holders.append(LocalGraph(graph=local, isolated_owned=isolated))
    return holders


def _partition_ids_scoped(ids: np.ndarray, node_sets: list[set], rng) -> list[np.ndarray]:
    """Round-robin over a seeded shuffle, skipping holders lacking the node."""
    P = len(node_sets)
    shares: list[list[int]] = [[] for _ in range(P)]
    cursor = 0
    for nid in ids[rng.permutation(len(ids))].tolist():
        for step in range(P):
            p = (cursor + step) % P
            if nid in node_sets[p]:
                shares[p].append(nid)
                cursor = p + 1
                break
        else:
            raise ValueError(f"labeled node {nid} is not held by any holder")
    return [np.sort(np.asarray(s, dtype=np.int64)) for s in shares]


def split_edges_uniform(g: Graph, P: int, seed: int = 0, duplicate_fraction: float = 0.0,
                        node_scope: str = "full") -> list[LocalGraph]:
    """Assign each edge to one holder uniformly at random.

    With node_scope "full" (default) every holder receives the full node set
    and all features; with "edge-incident" a holder keeps only its own edges'
    endpoints (isolated nodes then belong to nobody, which is an error).
    Each labeled node goes to exactly one holder that holds it, round-robin
    over a seeded shuffle, so the summed per-holder losses equal the
    centralized loss. duplicate_fraction copies that fraction of edges to a
    second random holder, exercising overlapped edges.
    """
    if P < 1:
        raise ValueError("holder count P must be >= 1")
    if node_scope not in ("full", "edge-incident"):
        raise ValueError(f"unknown node scope {node_scope!r}")
    if not 0.0 <= duplicate_fraction <= 1.0:
        raise ValueError("duplicate_fraction must be in [0, 1]")
    rng = make_rng(seed, "uniform-split")

    owner = rng.integers(0, P, size=g.n_edges)
    edge_lists: list[list[np.ndarray]] = [[] for _ in range(P)]
    for p in range(P):
        edge_lists[p].append(g.edges[owner == p])
    n_dup = int(round(duplicate_fraction * g.n_edges))
    if n_dup:
        dup_idx = rng.choice(g.n_edges, size=n_dup, replace=False)
        shift = rng.integers(1, P, size=n_dup) if P > 1 else np.zeros(n_dup, dtype=np.int64)
        second = (owner[dup_idx] + shift) % P
        for p in range(P):
            edge_lists[p].append(g.edges[dup_idx[second == p]])
    holder_edges = [np.concatenate(e, axis=0) if e else np.empty((0, 2), dtype=np.int64)
                    for e in edge_lists]

    if node_scope == "full":
        node_sets = [g.node_ids.copy() for _ in range(P)]
    else:
        uncovered = g.n_nodes - len(np.unique(g.edges))
        if uncovered:
            raise ValueError(f"edge-incident scope leaves {uncovered} node(s) with no holder")
        node_sets = [np.unique(e) for e in holder_edges]

    sets = [set(ns.tolist()) for ns in node_sets]
    shares = {split: _partition_ids_scoped(ids, sets, rng)
              for split, ids in g.split_ids().items()}
    return _assemble_holders(g, node_sets, holder_edges, shares)


def split_label_skew(g: Graph, P: int, q: float, seed: int = 0) -> list[LocalGraph]:
    """Label-skew partition: class blocks per holder, then q% of each
    holder's nodes redistributed uniformly to the others.

    Operates on labeled nodes only (class grouping needs a class). Each
    holder keeps only edges with both endpoints local, so node sets are
    disjoint and features of non-owned nodes are absent. q=0 gives fully
    non-IID class blocks; q=50 approaches an IID split.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be a percentage in [0, 100]")
    if g.n_classes < P:
        raise ValueError(f"need n_classes >= P to group classes, got C={g.n_classes} P={P}")
    rng = make_rng(seed, "label-skew")

    labeled = g.node_ids[g.labels != UNLABELED]
    if labeled.size == 0:
        raise ValueError("no labeled node to place: label-skew groups labeled nodes by class")
    labels = g.labels_for(labeled)
    class_blocks = np.array_split(np.arange(g.n_classes), P)
    holder_of_class = np.empty(g.n_classes, dtype=np.int64)
    for p, block in enumerate(class_blocks):
        holder_of_class[block] = p
    assignment = holder_of_class[labels]

    # draw every holder's moves from the initial grouping, then apply at once,
    # so each holder gives away exactly q% of its original nodes
    initial = assignment.copy()
    for p in range(P):
        mine = np.flatnonzero(initial == p)
        k = int(round(q / 100.0 * len(mine)))
        if k == 0 or P == 1:
            continue
        moved = rng.choice(mine, size=k, replace=False)
        shift = rng.integers(1, P, size=k)
        assignment[moved] = (initial[moved] + shift) % P

    node_sets = [np.sort(labeled[assignment == p]) for p in range(P)]
    holder_edges = [g.edges[np.isin(g.edges, node_set).all(axis=1)] for node_set in node_sets]
    shares = {split: [np.intersect1d(ids, node_set) for node_set in node_sets]
              for split, ids in g.split_ids().items()}
    return _assemble_holders(g, node_sets, holder_edges, shares)


def union_graph(holders: list[LocalGraph]) -> Graph:
    """The combined graph the protocol is equivalent to: union of all
    holders' nodes, features, edges, and owned labels.

    Every copy of a node after its first (in holder order) must carry the
    first copy's features, and every label a holder gives a node must agree.
    """
    graphs = [lg.graph for lg in holders]
    all_ids = np.concatenate([lg.node_ids for lg in graphs])
    all_features = np.concatenate([lg.features for lg in graphs])
    all_labels = np.concatenate([lg.labels for lg in graphs])
    node_ids, first, inverse = np.unique(all_ids, return_index=True, return_inverse=True)
    features = all_features[first]
    # a node that only one holder has is never compared
    later = np.ones(len(all_ids), dtype=bool)
    later[first] = False
    clash = np.any(all_features[later] != features[inverse[later]], axis=1)
    if clash.any():
        raise ValueError(f"holders disagree on features of node {all_ids[later][clash][0]}")

    labeled = all_labels != UNLABELED
    labels = np.full(len(node_ids), UNLABELED, dtype=np.int64)
    labels[inverse[labeled]] = all_labels[labeled]
    if np.any(labels[inverse[labeled]] != all_labels[labeled]):
        raise ValueError("holders disagree on a node label")
    masks = {split: np.unique(np.concatenate([lg.split_ids()[split] for lg in graphs]))
             for split in SPLITS}
    return Graph(node_ids=node_ids, features=features,
                 edges=np.concatenate([lg.edges for lg in graphs]), labels=labels,
                 train_ids=masks["train"], val_ids=masks["val"], test_ids=masks["test"],
                 n_classes=graphs[0].n_classes)
