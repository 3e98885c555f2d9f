import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapgnn import graphs as G
from sapgnn.graphs import (DigestIndex, Graph, LocalGraph, generate_synthetic, load_dataset,
                           node_digests, sorted_union, split_edges_uniform, split_label_skew,
                           union_graph, write_dataset)


def tiny_graph(n=6, seed=3, **kw):
    kw.setdefault("intra_class_edge_prob", 0.8)
    kw.setdefault("inter_class_edge_prob", 0.3)
    return generate_synthetic(n, 2, 3, seed=seed, **kw)



def graphs_equal(a: Graph, b: Graph) -> bool:
    """Every field of the two graphs is equal, array by array."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(Graph))

# -- synthetic generation ----------------------------------------------------

def test_forced_probabilities_give_two_cliques():
    g = generate_synthetic(4, 2, 2, 1.0, 0.0, seed=0)
    # classes alternate 0,1,0,1: the two cliques are {0,2} and {1,3}
    edges = {tuple(sorted(e)) for e in g.edges.tolist()}
    assert edges == {(0, 2), (1, 3)}


def test_synthetic_deterministic():
    a = generate_synthetic(20, 2, 4, 0.5, 0.1, 3)
    b = generate_synthetic(20, 2, 4, 0.5, 0.1, 3)
    assert graphs_equal(a, b)


def test_intra_class_density_near_target():
    g = generate_synthetic(50, 3, 8, 0.6, 0.05, 1)
    labels = g.labels
    intra_pairs = intra_edges = 0
    edge_set = {tuple(sorted(e)) for e in g.edges.tolist()}
    for i in range(50):
        for j in range(i + 1, 50):
            if labels[i] == labels[j]:
                intra_pairs += 1
                intra_edges += (i, j) in edge_set
    assert abs(intra_edges / intra_pairs - 0.6) < 0.15


def test_synthetic_graph_pinned_across_pair_blocks():
    # n spans several PAIR_BLOCK_ROWS blocks; hashes taken from the
    # all-pairs generator before pair drawing was split into row blocks
    assert 1500 > 4 * G.PAIR_BLOCK_ROWS
    g = generate_synthetic(1500, 4, 16, 0.01, 0.001, seed=7)

    def sha(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    assert g.edges.shape == (3701, 2)
    assert sha(g.edges) == "5fbef53a2d17c945b16aa8df07e70efb6d658b01cf7ebeedb21672557d42237e"
    assert sha(g.features) == "985e490472e7605c573ef1ff888fae9ec2941ffc7431e218dbeda1a8aa6981d3"
    assert sha(np.concatenate([g.train_ids, g.val_ids, g.test_ids])) == \
        "192dfc3f831044f75d7ea02de847b82211274c50ccb38808593d94c9f76e971e"


def test_synthetic_validation_errors():
    with pytest.raises(ValueError):
        generate_synthetic(3, 5, 2, 0.5, 0.5, 0)   # more classes than nodes
    with pytest.raises(ValueError):
        generate_synthetic(10, 2, 2, 1.5, 0.0, 0)  # probability out of range


# -- Graph invariants --------------------------------------------------------

def test_graph_rejects_dangling_edge():
    with pytest.raises(ValueError, match="dangling"):
        Graph(node_ids=np.array([0, 1]), features=np.zeros((2, 2)),
              edges=np.array([[0, 5]]), labels=np.array([0, 1]),
              train_ids=np.array([0]), val_ids=np.array([], dtype=np.int64),
              test_ids=np.array([1]), n_classes=2)


def test_graph_rejects_feature_mismatch():
    with pytest.raises(ValueError, match="feature rows"):
        Graph(node_ids=np.array([0, 1, 2]), features=np.zeros((2, 2)),
              edges=np.empty((0, 2), dtype=np.int64), labels=np.array([0, 1, 0]),
              train_ids=np.array([0]), val_ids=np.array([1]), test_ids=np.array([2]),
              n_classes=2)


def test_graph_rejects_overlapping_masks():
    with pytest.raises(ValueError, match="disjoint"):
        Graph(node_ids=np.array([0, 1]), features=np.zeros((2, 1)),
              edges=np.empty((0, 2), dtype=np.int64), labels=np.array([0, 1]),
              train_ids=np.array([0]), val_ids=np.array([0]),
              test_ids=np.array([], dtype=np.int64), n_classes=2)


@pytest.mark.parametrize("masks, message", [
    ({"train_ids": [0, 0]}, "duplicate node in train mask"),
    # each mask is checked for duplicates before it is checked against the earlier masks
    ({"train_ids": [1], "val_ids": [1, 1]}, "duplicate node in val mask"),
    ({"train_ids": [0], "test_ids": [0]}, "pairwise disjoint"),
    ({"train_ids": [0], "val_ids": [2], "test_ids": [0]}, "val mask contains an unlabeled node"),
])
def test_graph_mask_refusals_in_check_order(masks, message):
    kw = {"train_ids": [], "val_ids": [], "test_ids": [], **masks}
    with pytest.raises(ValueError, match=message):
        Graph(node_ids=[0, 1, 2], features=np.zeros((3, 1)), edges=np.empty((0, 2)),
              labels=[0, 1, -1], n_classes=2, **kw)


# -- dataset directory format -------------------------------------------------

def test_write_load_round_trip(tmp_path):
    g = tiny_graph(12, seed=9)
    write_dataset(g, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert graphs_equal(g, loaded)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope")
    (tmp_path / "partial").mkdir()
    (tmp_path / "partial" / "nodes.tsv").write_text("0\t-\tnone\n")
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "partial")


def test_load_manifest_mismatch(tmp_path):
    g = tiny_graph(8, seed=2)
    write_dataset(g, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    manifest["edges"] += 1
    (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest mismatch"):
        load_dataset(tmp_path / "ds")


def test_load_inconsistent_feature_rows(tmp_path):
    g = tiny_graph(6, seed=3)
    write_dataset(g, tmp_path / "ds")
    lines = (tmp_path / "ds" / "features.tsv").read_text().splitlines()
    lines[0] = lines[0] + "\t9.0"   # one row gains an extra dimension
    (tmp_path / "ds" / "features.tsv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="inconsistent feature dimensions"):
        load_dataset(tmp_path / "ds")


def test_empty_edge_file_gives_isolated_nodes(tmp_path):
    g = generate_synthetic(3, 2, 2, 0.0, 0.0, seed=1)
    assert g.n_edges == 0
    write_dataset(g, tmp_path / "iso")
    loaded = load_dataset(tmp_path / "iso")
    assert loaded.n_nodes == 3 and loaded.n_edges == 0


# -- uniform edge split --------------------------------------------------------

def test_uniform_split_single_holder_is_identity():
    g = tiny_graph(10, seed=4)
    (lg,) = split_edges_uniform(g, 1, seed=0)
    assert np.array_equal(lg.graph.node_ids, g.node_ids)
    assert np.array_equal(np.sort(lg.graph.edges, axis=0), np.sort(g.edges, axis=0))
    assert np.array_equal(lg.graph.train_ids, g.train_ids)


def test_uniform_split_partitions_edges():
    g = tiny_graph(10, seed=5)
    holders = split_edges_uniform(g, 2, seed=1)
    e1 = {tuple(e) for e in holders[0].graph.edges.tolist()}
    e2 = {tuple(e) for e in holders[1].graph.edges.tolist()}
    assert len(e1 & e2) == 0
    assert len(holders[0].graph.edges) + len(holders[1].graph.edges) == g.n_edges
    # multiset union equals the original edge multiset
    merged = sorted(map(tuple, holders[0].graph.edges.tolist()
                        + holders[1].graph.edges.tolist()))
    assert merged == sorted(map(tuple, g.edges.tolist()))


def test_uniform_split_edge_counts_binomial():
    g = generate_synthetic(1000, 4, 4, 0.012, 0.002, seed=6)
    holders = split_edges_uniform(g, 3, seed=2)
    n, p = g.n_edges, 1.0 / 3.0
    sigma = np.sqrt(n * p * (1 - p))
    for lg in holders:
        assert abs(lg.graph.n_edges - n * p) < 3 * sigma


def test_uniform_split_labels_partitioned():
    g = tiny_graph(20, seed=7)
    holders = split_edges_uniform(g, 3, seed=3)
    for ids_name in ("train_ids", "val_ids", "test_ids"):
        parts = [set(getattr(lg.graph, ids_name).tolist()) for lg in holders]
        whole = set(getattr(g, ids_name).tolist())
        assert set().union(*parts) == whole
        for i in range(3):
            for j in range(i + 1, 3):
                assert not parts[i] & parts[j]


def test_duplicate_fraction_copies_edges():
    g = tiny_graph(30, seed=9)
    holders = split_edges_uniform(g, 3, seed=4, duplicate_fraction=0.5)
    total = sum(lg.graph.n_edges for lg in holders)
    assert total == g.n_edges + int(round(0.5 * g.n_edges))


def test_uniform_split_rejects_zero_holders():
    with pytest.raises(ValueError):
        split_edges_uniform(tiny_graph(), 0)


def test_uniform_split_marks_globally_isolated_nodes():
    g = generate_synthetic(6, 2, 2, 0.0, 0.0, seed=3)
    holders = split_edges_uniform(g, 2, seed=0)
    for lg in holders:
        assert np.array_equal(lg.isolated_owned, g.node_ids)


def test_uniform_split_edge_incident_scope():
    g = generate_synthetic(20, 2, 3, 0.9, 0.5, seed=17)  # dense: nobody isolated
    holders = split_edges_uniform(g, 3, seed=2, node_scope="edge-incident")
    for lg in holders:
        endpoints = np.unique(lg.graph.edges)
        assert np.array_equal(lg.graph.node_ids, endpoints)
        labeled = np.concatenate([lg.graph.train_ids, lg.graph.val_ids,
                                  lg.graph.test_ids])
        assert np.isin(labeled, lg.graph.node_ids).all()
    # every labeled node is owned by exactly one holder
    for name in ("train_ids", "val_ids", "test_ids"):
        parts = [set(getattr(lg.graph, name).tolist()) for lg in holders]
        assert set().union(*parts) == set(getattr(g, name).tolist())


def test_uniform_split_edge_incident_rejects_isolated():
    g = generate_synthetic(6, 2, 2, 0.0, 0.0, seed=3)
    with pytest.raises(ValueError, match="no holder"):
        split_edges_uniform(g, 2, seed=0, node_scope="edge-incident")


def test_partitioners_are_pure_in_seed():
    g = tiny_graph(25, seed=19)
    for make in (lambda: split_edges_uniform(g, 3, seed=8, duplicate_fraction=0.3),
                 lambda: split_label_skew(g, 2, 25.0, seed=8)):
        a, b = make(), make()
        for lg_a, lg_b in zip(a, b):
            assert graphs_equal(lg_a.graph, lg_b.graph)
            assert np.array_equal(lg_a.isolated_owned, lg_b.isolated_owned)


# -- label-skew split ----------------------------------------------------------

def test_label_skew_zero_q_disjoint_classes():
    g = generate_synthetic(40, 4, 4, 0.3, 0.1, seed=10)
    holders = split_label_skew(g, 2, 0.0, seed=5)
    c1 = set(holders[0].graph.labels[holders[0].graph.labels >= 0].tolist())
    c2 = set(holders[1].graph.labels[holders[1].graph.labels >= 0].tolist())
    assert not c1 & c2
    # contiguous blocks, larger chunks first
    assert c1 == {0, 1} and c2 == {2, 3}


def test_label_skew_disjoint_nodes_and_local_edges():
    g = generate_synthetic(40, 4, 4, 0.3, 0.1, seed=11)
    holders = split_label_skew(g, 3, 25.0, seed=6)
    seen = set()
    for lg in holders:
        ids = set(lg.graph.node_ids.tolist())
        assert not ids & seen
        seen |= ids
        for u, v in lg.graph.edges.tolist():
            assert u in ids and v in ids


def test_label_skew_rejects_bad_q_and_few_classes():
    g = generate_synthetic(20, 2, 3, 0.5, 0.1, seed=12)
    with pytest.raises(ValueError):
        split_label_skew(g, 2, 101.0)
    with pytest.raises(ValueError):
        split_label_skew(g, 3, 10.0)  # C=2 < P=3


def test_label_skew_q50_moves_about_half():
    g = generate_synthetic(200, 4, 4, 0.2, 0.05, seed=13)
    h0 = split_label_skew(g, 2, 0.0, seed=7)
    h50 = split_label_skew(g, 2, 50.0, seed=7)
    n0 = h0[0].graph.n_nodes
    kept = len(set(h0[0].graph.node_ids.tolist()) & set(h50[0].graph.node_ids.tolist()))
    assert abs(kept - 0.5 * n0) < 0.15 * n0


# -- union graph ----------------------------------------------------------------

def test_union_graph_recovers_uniform_split():
    g = tiny_graph(15, seed=14)
    holders = split_edges_uniform(g, 3, seed=8)
    u = union_graph(holders)
    assert np.array_equal(u.node_ids, g.node_ids)
    assert sorted(map(tuple, u.edges.tolist())) == sorted(map(tuple, g.edges.tolist()))
    assert np.array_equal(u.train_ids, g.train_ids)
    assert np.array_equal(u.labels, g.labels)


def _holder(ids, features, labels, train_ids=()):
    return LocalGraph(graph=Graph(
        node_ids=ids, features=np.asarray(features, dtype=np.float64).reshape(len(ids), 1),
        edges=np.empty((0, 2)), labels=labels, train_ids=list(train_ids), val_ids=[],
        test_ids=[], n_classes=2))


def test_union_graph_merges_shared_nodes():
    u = union_graph([_holder([1, 4], [1.0, 4.0], [-1, 0]),
                     _holder([0, 4], [0.0, 4.0], [1, 0], train_ids=[0])])
    assert np.array_equal(u.node_ids, [0, 1, 4])
    assert np.array_equal(u.features[:, 0], [0.0, 1.0, 4.0])
    assert np.array_equal(u.labels, [1, -1, 0])
    assert np.array_equal(u.train_ids, [0])


def test_union_graph_refuses_disagreeing_features():
    with pytest.raises(ValueError, match="disagree on features of node 4$"):
        union_graph([_holder([1, 4], [1.0, 4.0], [-1, -1]),
                     _holder([0, 4], [0.0, 4.5], [-1, -1])])
    # a NaN compares unequal to itself, so a shared NaN feature is refused too ...
    with pytest.raises(ValueError, match="disagree on features of node 4$"):
        union_graph([_holder([4], [np.nan], [-1]), _holder([4], [np.nan], [-1])])
    # ... while a node that only one holder has is never compared
    u = union_graph([_holder([4], [np.nan], [-1]), _holder([5], [5.0], [-1])])
    assert np.isnan(u.features[0, 0])


def test_union_graph_refuses_disagreeing_labels():
    with pytest.raises(ValueError, match="disagree on a node label"):
        union_graph([_holder([1, 4], [1.0, 4.0], [-1, 0]),
                     _holder([4], [4.0], [1])])
    # a holder that leaves a node unlabeled does not disagree with one that labels it
    u = union_graph([_holder([4], [4.0], [-1]), _holder([4], [4.0], [1])])
    assert np.array_equal(u.labels, [1])


# -- hashed index: the node digest table ------------------------------------------

def _ids_for_index():
    return tiny_graph(10, seed=15).node_ids


def test_hashed_index_same_id_same_digest():
    ids = _ids_for_index()
    salt = bytes(range(32))
    table = node_digests(ids, salt)
    assert table.shape == (len(ids), 16) and table.dtype == np.uint8
    # a row depends on its id only: the table of a reordered subset has the same rows
    assert np.array_equal(node_digests(ids[::-2], salt), table[::-2])


def test_hashed_index_injective_over_corpus():
    table = node_digests(_ids_for_index(), bytes(32))
    assert len({row.tobytes() for row in table}) == len(table)


def test_hashed_index_salt_changes_all_digests():
    ids = _ids_for_index()
    a = node_digests(ids, bytes(32))
    b = node_digests(ids, bytes([1] * 32))
    assert np.all(np.any(a != b, axis=1))


def test_hashed_index_rejects_bad_salt():
    with pytest.raises(ValueError, match="256 bits"):
        node_digests(_ids_for_index(), b"short")


def test_hashed_index_collision_aborts(monkeypatch):
    # every id hashes alike; the one sort of the table, which orders the
    # server's lookup, refuses the collision
    monkeypatch.setattr(G, "_sha256_rows",
                        lambda payloads: np.zeros((len(payloads), 32), dtype=np.uint8))
    table = node_digests(_ids_for_index(), bytes(32))
    with pytest.raises(RuntimeError, match="collision"):
        DigestIndex.of(table)


def test_node_digest_is_salted_sha256_of_the_big_endian_id():
    salt = bytes(range(32, 64))
    ids = np.array([0, 7, 2 ** 40 + 3], dtype=np.int64)
    want = [hashlib.sha256(salt + int(i).to_bytes(8, "big")).digest()[:16] for i in ids]
    assert [row.tobytes() for row in node_digests(ids, salt)] == want


def test_node_digests_equal_the_per_id_sha256():
    rng = np.random.default_rng(33)
    info = np.iinfo(np.int64)
    ids = np.concatenate([[0, -1, 1, info.min, info.max, info.min + 1, info.max - 1],
                          rng.integers(info.min, info.max, size=300, endpoint=True),
                          rng.integers(-1000, 1000, size=50)]).astype(np.int64)
    salt = rng.bytes(32)
    want = [hashlib.sha256(salt + i.to_bytes(8, "big", signed=True)).digest()[:16]
            for i in ids.tolist()]
    table = node_digests(ids, salt)
    assert table.shape == (len(ids), 16) and table.dtype == np.uint8
    assert [row.tobytes() for row in table] == want
    assert node_digests(ids[:0], salt).shape == (0, 16)


def test_digest_index_finds_each_digest_and_no_other():
    rng = np.random.default_rng(34)
    table = rng.integers(0, 256, size=(200, 16), dtype=np.uint8)
    index = DigestIndex.of(table)
    assert not index.tied
    assert index.order.tolist() == sorted(range(200), key=lambda i: table[i].tobytes())
    probe = rng.permutation(200)
    assert np.array_equal(index.order[index.find(table[probe].ravel())], probe)
    # a digest one bit away from a known one is unknown
    strangers = table[:5].copy()
    strangers[:, 15] ^= 1
    assert np.array_equal(index.find(strangers), [-1] * 5)


def test_digest_index_is_exact_on_a_shared_first_word():
    rng = np.random.default_rng(35)
    table = rng.integers(0, 256, size=(60, 16), dtype=np.uint8)
    table[10:25, :8] = table[10, :8]    # fifteen digests share a first word
    table[40:42, :8] = table[3, :8]     # and three another
    index = DigestIndex.of(table)
    assert index.tied
    assert index.order.tolist() == sorted(range(60), key=lambda i: table[i].tobytes())
    probe = rng.permutation(60)
    assert np.array_equal(index.order[index.find(table[probe])], probe)
    strangers = table[[10, 17, 24, 3, 41]].copy()
    strangers[:, 15] ^= 1               # a known first word, an unknown second
    assert np.array_equal(index.find(strangers), [-1] * 5)
    table[20] = table[12]
    with pytest.raises(RuntimeError, match="collision among the digests of 60 node ids"):
        DigestIndex.of(table)


def _graph_of(node_ids):
    """A graph with these node ids and nothing else."""
    n = len(node_ids)
    empty = np.empty(0, dtype=np.int64)
    return Graph(node_ids=node_ids, features=np.zeros((n, 1)), edges=np.empty((0, 2)),
                 labels=np.full(n, G.UNLABELED), train_ids=empty, val_ids=empty,
                 test_ids=empty, n_classes=1)


INT64 = np.iinfo(np.int64)
NODE_ID = st.one_of(st.integers(-40, 40), st.integers(2 ** 62 - 9, 2 ** 62 + 9),
                    st.integers(-2 ** 62 - 9, -2 ** 62 + 9),
                    st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1, INT64.max]))


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(NODE_ID, unique=True, max_size=25), data=st.data())
def test_rank_of_is_searchsorted_and_names_the_first_unknown_id(ids, data):
    node_ids = np.sort(np.array(ids, dtype=np.int64))
    g = _graph_of(node_ids)
    picks = data.draw(st.lists(st.integers(0, len(ids) - 1), max_size=40) if ids
                      else st.just([]))
    keys = node_ids[np.array(picks, dtype=np.int64)]
    if len(keys) % 2 == 0 and data.draw(st.booleans()):
        keys = keys.reshape(-1, 2)      # an edge list, possibly (0, 2)
    ranks = g.rank_of(keys)
    assert ranks.shape == keys.shape and ranks.dtype == np.int64
    assert np.array_equal(ranks, np.searchsorted(node_ids, keys))

    known = set(ids)
    unknown = data.draw(st.lists(NODE_ID.filter(lambda i: i not in known), min_size=1,
                                 max_size=3))
    flat = keys.ravel().tolist()
    for u in unknown:
        flat.insert(data.draw(st.integers(0, len(flat))), u)
    bad = np.array(flat, dtype=np.int64)
    if len(flat) % 2 == 0 and data.draw(st.booleans()):
        bad = bad.reshape(-1, 2)
    first = next(i for i in flat if i not in known)
    with pytest.raises(KeyError, match=rf"unknown node id \[{first}\]"):
        g.rank_of(bad)


@given(st.lists(st.lists(NODE_ID, max_size=12), min_size=1, max_size=4))
def test_sorted_union_is_unique_of_the_concatenation(arrays):
    arrays = [np.array(a, dtype=np.int64) for a in arrays]
    assert np.array_equal(sorted_union(arrays), np.unique(np.concatenate(arrays)))


def test_local_graph_rejects_foreign_isolated_nodes():
    g = tiny_graph(8, seed=16)
    with pytest.raises(ValueError):
        LocalGraph(graph=g, isolated_owned=np.array([999]))
