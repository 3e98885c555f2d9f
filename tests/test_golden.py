"""Golden outputs: sha256 of the files the harness writers produce for tiny
seeded runs.

Any change to the numbers a run computes, the bytes it sends or the records
it logs changes one of these hashes. A refactor must leave them all alone;
a deliberate change of behaviour updates them and says so in CHANGES.md.
The hashes were taken with numpy 2.4 and OpenBLAS on x86-64; a different
BLAS may round matrix products differently and change them. So may another
OpenBLAS thread count: p4-gated-linear-real's metrics.csv reads one hash on
one thread and another on two. Each run therefore goes to a child process
(this file run as a script) started with OPENBLAS_NUM_THREADS=1, whatever
the suite's own setting: one thread is the count every host can run.
Each child runs twice, once on one usable CPU, where the holder pool has no
worker and every holder step runs in the calling thread, and once on every
usable CPU: the holders computing at once must not change one byte.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sapgnn
from sapgnn import pool
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
    if name == "p4-gated-linear-real":
        # wide enough (F=256, hidden 64) that a matrix product summed over a
        # different set of rows changes its last bits, and so this file
        return RunConfig(dataset=DatasetConfig(n_nodes=400, n_classes=4, feat_dim=256,
                                               intra_class_edge_prob=0.06,
                                               inter_class_edge_prob=0.006, seed=21),
                         partition=PartitionConfig(kind="uniform", P=4, seed=3),
                         model=ModelConfig(layers=2, hidden=64, update_kind="gated",
                                           message_linear=True),
                         train=TrainConfig(lr=0.02, max_epochs=2, patience=50, seed=5),
                         mode="naive", share_mode="real")
    raise KeyError(name)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


PROTOCOL_GOLDEN = {
    "p1-sum-naive-real": (
        "6da3ea9b72d29b68ac8bebcb6185f0740667c107baa9d413d3c3cbaed3f06779",
        "9da61185f080c27529185e1021a8328a1a048c8d9898e3dc6c1d0f5802730acc",
        "fd9c3bb74f4704a2cf109a46e15d2ab32d55f162a70c74ffe035dd8a54407bef"),
    "p3-gated-secure-fixed": (
        "eb15f0f5e6ed37d5094bd51c6d29fb965761659a1687f5319b6c6141846bacb3",
        "510189706a738675ba48fe7b18081e34bd0e8d9d12e38c694e44b9258db2d3b3",
        "5cb4852a88e978a2b252b0a870cda14a5458d8b5eaea93177541b76001bbaada"),
    "p3-skew-sum-naive-fixed": (
        "1138c18c0705276c02aacf59e9d5ac629bab4e5af8573113a0db086f2d21133d",
        "4ca51337127b8283d00fb0682da15516223083853a6a4694c456b62fb5f6726e",
        "cdb7830366f77baa062c30cdc7f3cb4b5fc5089657e021fcb9c8e53521ec57a5"),
    "p4-gated-linear-real": (
        "3ea3bab4c94fa765250855ff14bf67fd5a9c1c143e48e4977e6559ee78f775d4",
        "29d88284a7f400854acd345a4f04008689874819d2263b3c878d47ead5390117",
        "83ee106628ae69eb7ed076192bc12cbaaf3a1cb687c58aef064d2e9771579bd1"),
}

# The one-holder protocol run and the centralized trainer write the same file.
CENTRALIZED_GOLDEN = {
    "p1-sum-naive-real": "6da3ea9b72d29b68ac8bebcb6185f0740667c107baa9d413d3c3cbaed3f06779",
    "p3-gated-secure-fixed": "03ec665a5ab4c2e880a7ad3d1a7547c0d814634f407d154557c0f96e058842b0",
}

SP_GOLDEN = {
    "p3-skew-sum-naive-fixed": (
        "f631f9e0cc7808fd283ac177de32c75e7f651979426b82679d0630ca699b315c",
        "2d13556b29b74eac25e0d4c4bb7a598850bf6d38fa91b17a997fc3ec121cf0f1",
        "cc9d9db897aa3a6b695750e812760516a9f47ff7d2db32918c5f8e0c5247d707"),
}


BLAS_THREADS = "1"
CPUS = ("one", "every")


def protocol_hashes(name: str, out: Path) -> tuple:
    res = run_training(golden_config(name))
    write_metrics_csv(res.metrics_rows, out / "metrics.csv")
    write_comm_csv(res.comm, out / "comm.csv")
    write_audit_jsonl(res.audit, out / "audit.jsonl")
    return tuple(sha256(out / f) for f in ("metrics.csv", "comm.csv", "audit.jsonl"))


def centralized_hash(name: str, out: Path) -> str:
    cfg = golden_config(name)
    res = train_centralized(build_dataset(cfg.dataset), cfg.model, lr=cfg.train.lr,
                            max_epochs=cfg.train.max_epochs, patience=cfg.train.patience,
                            seed=cfg.train.seed)
    write_metrics_csv(res.metrics_rows, out / "metrics.csv")
    return sha256(out / "metrics.csv")


def separate_training_hashes(name: str, out: Path) -> tuple:
    cfg = golden_config(name)
    g = build_dataset(cfg.dataset)
    sp = train_sp(build_partition(g, cfg.partition), g, cfg.model, lr=cfg.train.lr,
                  max_epochs=cfg.train.max_epochs, patience=cfg.train.patience,
                  seed=cfg.train.seed)
    got = []
    for p, res in enumerate(sp.holder_results):
        write_metrics_csv(res.metrics_rows, out / f"metrics{p}.csv")
        got.append(sha256(out / f"metrics{p}.csv"))
    return tuple(got)


RUNS = {f.__name__: f for f in (protocol_hashes, centralized_hash, separate_training_hashes)}


def pinned(run, name: str, out: Path, cpus: str):
    """run(name, out) in a child process on BLAS_THREADS OpenBLAS threads and
    on `cpus` ("one" or "every") of the usable CPUs."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS,
           "PYTHONPATH": os.pathsep.join([str(Path(sapgnn.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, __file__, run.__name__, name, str(out), cpus],
                           env=env, capture_output=True, text=True, check=False)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    usable = len(os.sched_getaffinity(0))
    assert got["holder_workers"] == (0 if cpus == "one" else usable - 1)
    hashes = got["hashes"]
    return tuple(hashes) if isinstance(hashes, list) else hashes


@pytest.mark.parametrize("name", sorted(PROTOCOL_GOLDEN))
def test_protocol_outputs_match_golden_hashes(name, tmp_path):
    for cpus in CPUS:
        assert pinned(protocol_hashes, name, tmp_path, cpus) == PROTOCOL_GOLDEN[name], cpus


@pytest.mark.parametrize("name", sorted(CENTRALIZED_GOLDEN))
def test_centralized_metrics_match_golden_hash(name, tmp_path):
    for cpus in CPUS:
        assert pinned(centralized_hash, name, tmp_path, cpus) == CENTRALIZED_GOLDEN[name], cpus


@pytest.mark.parametrize("name", sorted(SP_GOLDEN))
def test_separate_training_metrics_match_golden_hashes(name, tmp_path):
    for cpus in CPUS:
        assert pinned(separate_training_hashes, name, tmp_path, cpus) == SP_GOLDEN[name], cpus


if __name__ == "__main__":
    # python tests/test_golden.py RUN NAME OUT_DIR CPUS: one golden run on "one"
    # or "every" usable CPU; its hashes and the holder workers used, as JSON
    run, name, out, cpus = sys.argv[1:]
    if cpus == "one":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    hashes = RUNS[run](name, Path(out))
    print(json.dumps({"hashes": hashes,
                      "holder_workers": len(pool.holder_pool().worker_cpus)}))
