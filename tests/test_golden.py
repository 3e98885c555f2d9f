"""Golden outputs: sha256 of the files the harness writers produce for tiny
seeded runs.

Any change to the numbers a run computes, the bytes it sends or the records
it logs changes one of these hashes. A refactor must leave them all alone;
a deliberate change of behaviour updates them and says so in CHANGES.md.
The hashes were taken with numpy 2.4 and OpenBLAS on x86-64; a different
BLAS may round matrix products differently and change them.
"""

import hashlib

import pytest

from sapgnn.config import DatasetConfig, PartitionConfig, RunConfig, TrainConfig
from sapgnn.gnn import ModelConfig
from sapgnn.harness import (train_centralized, train_sp, write_audit_jsonl, write_comm_csv,
                            write_metrics_csv)
from sapgnn.protocol import build_dataset, build_partition, run_training


def golden_config(name: str) -> RunConfig:
    dataset = DatasetConfig(n_nodes=48, n_classes=3, feat_dim=5, intra_class_edge_prob=0.25,
                            inter_class_edge_prob=0.05, seed=21, class_sep=1.2, noise=0.8)
    if name == "p1-sum-naive-real":
        return RunConfig(dataset=dataset, partition=PartitionConfig(kind="uniform", P=1, seed=3),
                         model=ModelConfig(layers=2, hidden=6, update_kind="sum"),
                         train=TrainConfig(lr=0.02, max_epochs=12, patience=3, seed=5),
                         mode="naive", share_mode="real")
    if name == "p3-gated-secure-fixed":
        return RunConfig(dataset=dataset, partition=PartitionConfig(kind="uniform", P=3, seed=3),
                         model=ModelConfig(layers=2, hidden=6, update_kind="gated",
                                           dropout=0.3, message_linear=True),
                         train=TrainConfig(lr=0.02, max_epochs=5, patience=50, seed=5),
                         mode="secure-pooling", share_mode="fixed-point")
    if name == "p3-skew-sum-naive-fixed":
        return RunConfig(dataset=dataset,
                         partition=PartitionConfig(kind="label-skew", P=3, q=30.0, seed=3),
                         model=ModelConfig(layers=2, hidden=6, update_kind="sum", dropout=0.5),
                         train=TrainConfig(lr=0.02, max_epochs=5, patience=50, seed=5),
                         mode="naive", share_mode="fixed-point")
    raise KeyError(name)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


PROTOCOL_GOLDEN = {
    "p1-sum-naive-real": (
        "6da3ea9b72d29b68ac8bebcb6185f0740667c107baa9d413d3c3cbaed3f06779",
        "d5d5a0d6408032d2865db7ee9c72ae129b6bb12323b9ac5f603a1c49cd6369a2",
        "583e09aa8f635ebd91096bc658e5f33c68558cb83b61c61a62c3bc7f9c009e86"),
    "p3-gated-secure-fixed": (
        "2b6da6ebb9073dd83eca617af6a921a0f4332496d8efaaae957b854669b27cbb",
        "f1c2a98babdbb4970248b42734e13eb7fb0211178ef0426bc83a00a155707159",
        "fcc649e6db508b32c31a6e618bf020b4fbe0235ed90bc4e16306d2ce5e83a044"),
    "p3-skew-sum-naive-fixed": (
        "093be1b9e56da55b9128335d72176efb41d0ba9f9eff6dde20fe64490d530f6b",
        "ec43522a874732aa0a5fd7cdfd64e45991238c24a4b00739f6597fcccd6ae414",
        "4ffd674f26b493f1fd7db9fb9cb0139e5ac083d056a8ac00fb9c2c95528a12c6"),
}

# The one-holder protocol run and the centralized trainer write the same file.
CENTRALIZED_GOLDEN = {
    "p1-sum-naive-real": "6da3ea9b72d29b68ac8bebcb6185f0740667c107baa9d413d3c3cbaed3f06779",
    "p3-gated-secure-fixed": "f0cf00df79a452dbd97ce37ee1b6adb9fb5d3c89bd4f0cc7653ebbb880d08c86",
}

SP_GOLDEN = {
    "p3-skew-sum-naive-fixed": (
        "5b9bb2343cedd23170928d423d28e3435e0b4075abe08ef9ea7b6c32c564917c",
        "e66e14ddee2c68cae0909adf9a81db08a895cdd210880d61a31205f02cae2124",
        "405808df8ce828b6ac894f4db6ee7af48317eba14a2f1f530d6f724458879d13"),
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_GOLDEN))
def test_protocol_outputs_match_golden_hashes(name, tmp_path):
    res = run_training(golden_config(name))
    write_metrics_csv(res.metrics_rows, tmp_path / "metrics.csv")
    write_comm_csv(res.comm, tmp_path / "comm.csv")
    write_audit_jsonl(res.audit, tmp_path / "audit.jsonl")
    got = tuple(sha256(tmp_path / f) for f in ("metrics.csv", "comm.csv", "audit.jsonl"))
    assert got == PROTOCOL_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CENTRALIZED_GOLDEN))
def test_centralized_metrics_match_golden_hash(name, tmp_path):
    cfg = golden_config(name)
    res = train_centralized(build_dataset(cfg.dataset), cfg.model, lr=cfg.train.lr,
                            max_epochs=cfg.train.max_epochs, patience=cfg.train.patience,
                            seed=cfg.train.seed)
    write_metrics_csv(res.metrics_rows, tmp_path / "metrics.csv")
    assert sha256(tmp_path / "metrics.csv") == CENTRALIZED_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SP_GOLDEN))
def test_separate_training_metrics_match_golden_hashes(name, tmp_path):
    cfg = golden_config(name)
    g = build_dataset(cfg.dataset)
    sp = train_sp(build_partition(g, cfg.partition), g, cfg.model, lr=cfg.train.lr,
                  max_epochs=cfg.train.max_epochs, patience=cfg.train.patience,
                  seed=cfg.train.seed)
    got = []
    for p, res in enumerate(sp.holder_results):
        write_metrics_csv(res.metrics_rows, tmp_path / f"metrics{p}.csv")
        got.append(sha256(tmp_path / f"metrics{p}.csv"))
    assert tuple(got) == SP_GOLDEN[name]
