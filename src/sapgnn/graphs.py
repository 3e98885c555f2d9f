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
        if n > 1 and not np.all(np.diff(self.node_ids) > 0):
            raise ValueError("node_ids must be strictly increasing")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(
                f"feature rows ({self.features.shape}) do not match node count ({n})")
        if self.labels.shape != (n,):
            raise ValueError("labels must align with node_ids")
        if self.edges.size:
            found = np.isin(self.edges, self.node_ids)
            if not found.all():
                bad = self.edges[~found.all(axis=1)][0]
                raise ValueError(f"dangling edge endpoint in edge {tuple(bad)}")
        labeled = self.labels != UNLABELED
        if np.any(self.labels[labeled] >= self.n_classes) or np.any(self.labels[labeled] < 0):
            raise ValueError(f"label class out of range [0, {self.n_classes})")
        masks = [self.train_ids, self.val_ids, self.test_ids]
        names = ["train", "val", "test"]
        seen = set()
        for name, ids in zip(names, masks):
            s = set(ids.tolist())
            if len(s) != len(ids):
                raise ValueError(f"duplicate node in {name} mask")
            if s & seen:
                raise ValueError("train/val/test masks must be pairwise disjoint")
            seen |= s
            ranks = self.rank_of(ids)
            if ids.size and np.any(self.labels[ranks] == UNLABELED):
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
        """Row index for each node id; raises on unknown ids."""
        ids = np.asarray(ids, dtype=np.int64)
        ranks = np.searchsorted(self.node_ids, ids)
        ok = (ranks < self.n_nodes) & (self.node_ids[np.minimum(ranks, self.n_nodes - 1)] == ids)
        if not np.all(ok):
            raise KeyError(f"unknown node id {ids[~ok][:1]}")
        return ranks

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        if self.edges.size:
            ranks = self.rank_of(self.edges.ravel())
            np.add.at(deg, ranks, 1)
        return deg

    def labels_for(self, ids) -> np.ndarray:
        return self.labels[self.rank_of(ids)]


def graphs_equal(a: Graph, b: Graph) -> bool:
    return (np.array_equal(a.node_ids, b.node_ids)
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.edges, b.edges)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.train_ids, b.train_ids)
            and np.array_equal(a.val_ids, b.val_ids)
            and np.array_equal(a.test_ids, b.test_ids)
            and a.n_classes == b.n_classes)


@dataclass
class LocalGraph:
    """One data holder's private subgraph plus its owned label shares.

    isolated_owned lists nodes this holder owns that have no neighbors in the
    combined graph; the holder still produces a real embedding for them (via a
    self message) instead of a sentinel row.
    """

    holder_id: int
    graph: Graph
    isolated_owned: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.isolated_owned = np.asarray(self.isolated_owned, dtype=np.int64)
        unknown = ~np.isin(self.isolated_owned, self.graph.node_ids)
        if unknown.any():
            raise ValueError("isolated_owned contains nodes not in this holder's graph")

    @property
    def train_labels(self) -> dict[int, int]:
        ids = self.graph.train_ids
        return dict(zip(ids.tolist(), self.graph.labels_for(ids).tolist()))


@dataclass
class HashedIndex:
    """Salted 128-bit digests for every node id, shared with the server.

    The salt is a 256-bit secret known to the data holders only; the server
    sees digests, never raw ids. Digests must be injective over the union of
    all holders' nodes (a collision aborts the run).
    """

    mapping: dict[int, bytes]
    salt: bytes

    def digest_of(self, node_id: int) -> bytes:
        return self.mapping[int(node_id)]

    def digests_for(self, ids) -> list[bytes]:
        return [self.mapping[int(i)] for i in ids]


def _node_digest(salt: bytes, node_id: int) -> bytes:
    # ids are canonicalized as big-endian 8-byte unsigned integers so the
    # digests are stable across platforms.
    payload = salt + int(node_id).to_bytes(8, "big", signed=False)
    return hashlib.sha256(payload).digest()[:16]


def build_hashed_index(holders: list[LocalGraph], salt: bytes) -> HashedIndex:
    """Digest every node across holders; abort on any digest collision."""
    if len(salt) != 32:
        raise ValueError("salt must be exactly 256 bits (32 bytes)")
    mapping: dict[int, bytes] = {}
    seen: dict[bytes, int] = {}
    all_ids = sorted({int(i) for lg in holders for i in lg.graph.node_ids})
    for nid in all_ids:
        d = _node_digest(salt, nid)
        if d in seen and seen[d] != nid:
            raise RuntimeError(
                f"hash collision between node ids {seen[d]} and {nid}; aborting")
        seen[d] = nid
        mapping[nid] = d
    return HashedIndex(mapping=mapping, salt=salt)


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
    for name, ids in (("train", g.train_ids), ("val", g.val_ids), ("test", g.test_ids)):
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


def _load_edge_list_dir(path: Path) -> Graph:
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


def load_dataset(path, format: str = "edge-list-dir") -> Graph:
    """Load a dataset from disk.

    Formats: "edge-list-dir" (the plain-text directory layout written by
    write_dataset) and "synthetic-spec" (a JSON file of generate_synthetic
    keyword arguments; loading is deterministic in the embedded seed).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset path {path} does not exist")
    if format == "edge-list-dir":
        return _load_edge_list_dir(path)
    if format == "synthetic-spec":
        spec = json.loads(path.read_text(encoding="utf-8"))
        spec.pop("kind", None)
        return generate_synthetic(**spec)
    raise ValueError(f"unknown dataset format {format!r}")


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------

def _restrict_masks(g: Graph, node_set: np.ndarray, assigned: dict[str, np.ndarray]) -> Graph:
    """Build a holder Graph from a node subset and its assigned label shares."""
    ranks = g.rank_of(node_set)
    labels = np.full(len(node_set), UNLABELED, dtype=np.int64)
    owned = np.concatenate([assigned["train"], assigned["val"], assigned["test"]])
    if owned.size:
        pos = np.searchsorted(node_set, owned)
        labels[pos] = g.labels_for(owned)
    return Graph(node_ids=node_set, features=g.features[ranks],
                 edges=assigned["edges"], labels=labels,
                 train_ids=np.sort(assigned["train"]), val_ids=np.sort(assigned["val"]),
                 test_ids=np.sort(assigned["test"]), n_classes=g.n_classes)


def _isolation_marks(union_edges: np.ndarray, owners: dict[int, list[int]]) -> dict[int, list[int]]:
    """For each holder, its owned nodes with no edges anywhere in the union."""
    touched = set(np.unique(union_edges).tolist()) if union_edges.size else set()
    marks: dict[int, list[int]] = {}
    for nid, holder_list in owners.items():
        if nid not in touched:
            for h in holder_list:
                marks.setdefault(h, []).append(nid)
    return marks


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


def split_edges_uniform(g: Graph, P: int, label_assignment: str = "partition",
                        seed: int = 0, duplicate_fraction: float = 0.0,
                        node_scope: str = "full") -> list[LocalGraph]:
    """Assign each edge to one holder uniformly at random.

    With node_scope "full" (default) every holder receives the full node set
    and all features; with "edge-incident" a holder keeps only its own edges'
    endpoints (isolated nodes then belong to nobody, which is an error).
    Labels are split per policy: "partition" (default) gives each labeled
    node to exactly one holder that holds it, round-robin over a seeded
    shuffle, so the summed per-holder losses equal the centralized loss;
    "replicate" copies all labels to every holder (excluded from equivalence
    runs). duplicate_fraction copies that fraction of edges to a second
    random holder, exercising overlapped edges.
    """
    if P < 1:
        raise ValueError("holder count P must be >= 1")
    if label_assignment not in ("partition", "replicate"):
        raise ValueError(f"unknown label policy {label_assignment!r}")
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
        uncovered = set(g.node_ids.tolist()) - set(np.unique(g.edges).tolist())
        if uncovered:
            raise ValueError(
                f"edge-incident scope leaves {len(uncovered)} node(s) with no holder")
        node_sets = [np.unique(e) for e in holder_edges]

    mask_ids = (("train", g.train_ids), ("val", g.val_ids), ("test", g.test_ids))
    if label_assignment == "partition":
        sets = [set(ns.tolist()) for ns in node_sets]
        shares = {name: _partition_ids_scoped(ids, sets, rng) for name, ids in mask_ids}
    else:
        shares = {name: [np.intersect1d(ids, node_sets[p]) for p in range(P)]
                  for name, ids in mask_ids}

    owners: dict[int, list[int]] = {}
    for p in range(P):
        for nid in node_sets[p].tolist():
            owners.setdefault(int(nid), []).append(p)
    marks = _isolation_marks(g.edges, owners)

    holders = []
    for p in range(P):
        assigned = {"edges": holder_edges[p], "train": shares["train"][p],
                    "val": shares["val"][p], "test": shares["test"][p]}
        local = _restrict_masks(g, node_sets[p], assigned)
        holders.append(LocalGraph(holder_id=p, graph=local,
                                  isolated_owned=np.sort(np.asarray(marks.get(p, []),
                                                                    dtype=np.int64))))
    return holders


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

    holders = []
    node_sets = []
    union_edges = []
    for p in range(P):
        node_set = np.sort(labeled[assignment == p])
        node_sets.append(node_set)
        in_set = np.isin(g.edges, node_set)
        local_edges = g.edges[in_set.all(axis=1)] if g.edges.size else g.edges
        union_edges.append(local_edges)
        assigned = {"edges": local_edges,
                    "train": np.intersect1d(g.train_ids, node_set),
                    "val": np.intersect1d(g.val_ids, node_set),
                    "test": np.intersect1d(g.test_ids, node_set)}
        holders.append((p, node_set, assigned))

    all_union = (np.concatenate(union_edges, axis=0) if union_edges
                 else np.empty((0, 2), dtype=np.int64))
    owners = {int(nid): [p] for p, node_set, _ in holders for nid in node_set}
    marks = _isolation_marks(all_union, owners)

    out = []
    for p, node_set, assigned in holders:
        local = _restrict_masks(g, node_set, assigned)
        out.append(LocalGraph(holder_id=p, graph=local,
                              isolated_owned=np.sort(np.asarray(marks.get(p, []),
                                                                dtype=np.int64))))
    return out


def union_graph(holders: list[LocalGraph]) -> Graph:
    """The combined graph the protocol is equivalent to: union of all
    holders' nodes, features, edges, and owned labels."""
    id_set: dict[int, np.ndarray] = {}
    for lg in holders:
        for rank, nid in enumerate(lg.graph.node_ids.tolist()):
            row = lg.graph.features[rank]
            if nid in id_set:
                if not np.array_equal(id_set[nid], row):
                    raise ValueError(f"holders disagree on features of node {nid}")
            else:
                id_set[nid] = row
    node_ids = np.array(sorted(id_set), dtype=np.int64)
    features = np.stack([id_set[int(i)] for i in node_ids]) if len(node_ids) else \
        np.empty((0, holders[0].graph.feat_dim))
    edges = np.concatenate([lg.graph.edges for lg in holders], axis=0) \
        if holders else np.empty((0, 2), dtype=np.int64)

    labels = np.full(len(node_ids), UNLABELED, dtype=np.int64)
    masks = {"train": [], "val": [], "test": []}
    for lg in holders:
        lab_ids = lg.graph.node_ids[lg.graph.labels != UNLABELED]
        pos = np.searchsorted(node_ids, lab_ids)
        vals = lg.graph.labels_for(lab_ids)
        clash = (labels[pos] != UNLABELED) & (labels[pos] != vals)
        if clash.any():
            raise ValueError("holders disagree on a node label")
        labels[pos] = vals
        masks["train"].append(lg.graph.train_ids)
        masks["val"].append(lg.graph.val_ids)
        masks["test"].append(lg.graph.test_ids)

    def merged(name):
        return np.unique(np.concatenate(masks[name])) if masks[name] else \
            np.empty(0, dtype=np.int64)

    return Graph(node_ids=node_ids, features=features, edges=edges, labels=labels,
                 train_ids=merged("train"), val_ids=merged("val"), test_ids=merged("test"),
                 n_classes=holders[0].graph.n_classes)
