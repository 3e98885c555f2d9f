"""Secure element-wise pooling: the server learns only the winning values
and winning holder indices, never each holder's full embedding matrix, and
training is numerically unchanged.

Run: python demos/04_secure_pooling.py
"""

from sapgnn import (DatasetConfig, FixedPoint, ModelConfig, PartitionConfig, RunConfig,
                    TrainConfig, make_rng, reconstruct_boolean, run_training,
                    secure_argmax)

rng = make_rng(99, "demo")

print("== the sealed argmax primitive ==")
values = (3.0, 7.0, 1.0)
shares = secure_argmax([FixedPoint.encode(v) for v in values], rng)
print(f"  inputs {values} -> XOR-shared one-hot, reconstructs to "
      f"{reconstruct_boolean(shares).tolist()}")
for p, row in enumerate(shares):
    print(f"  party {p}'s share: {row.tolist()}")

base = RunConfig(
    dataset=DatasetConfig(n_nodes=60, n_classes=3, feat_dim=8,
                          intra_class_edge_prob=0.2, inter_class_edge_prob=0.04,
                          seed=8, class_sep=1.2),
    partition=PartitionConfig(kind="uniform", P=3, seed=2),
    model=ModelConfig(layers=2, hidden=12, update_kind="sum"),
    train=TrainConfig(max_epochs=20, patience=30, seed=6))
secure = RunConfig(dataset=base.dataset, partition=base.partition, model=base.model,
                   train=base.train, mode="secure-pooling")

print("\n== full training, naive vs secure pooling ==")
res_naive = run_training(base)
res_secure = run_training(secure)
print(f"  naive  mode: test accuracy {res_naive.final['test_accuracy']:.4f}")
print(f"  secure mode: test accuracy {res_secure.final['test_accuracy']:.4f}")
print(f"  epoch-by-epoch metrics identical: {res_naive.metrics_rows == res_secure.metrics_rows}")

def server_inbound(audit):
    return sorted({r.kind for r in audit.records if r.receiver == "server"})

print(f"\n  server inbound kinds, naive : {server_inbound(res_naive.audit)}")
print(f"  server inbound kinds, secure: {server_inbound(res_secure.audit)}")
plain = sum(1 for r in res_secure.audit.records
            if r.receiver == "server" and r.kind == "LocalEmbedding")
print(f"  plaintext local embeddings at the server in secure mode: {plain}")
