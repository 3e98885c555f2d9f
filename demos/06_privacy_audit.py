"""Walk the transmission audit of a training run: what crossed the wire,
who saw what, and how a rogue message is flagged.

Run: python demos/06_privacy_audit.py
"""

from collections import Counter

from sapgnn import (DatasetConfig, ModelConfig, PartitionConfig, RunConfig, TrainConfig,
                    run_training, verify_privacy_audit)

cfg = RunConfig(
    dataset=DatasetConfig(n_nodes=40, n_classes=3, feat_dim=6,
                          intra_class_edge_prob=0.25, inter_class_edge_prob=0.05,
                          seed=4, class_sep=1.2),
    partition=PartitionConfig(kind="uniform", P=2, seed=3),
    model=ModelConfig(layers=2, hidden=8, update_kind="sum"),
    train=TrainConfig(max_epochs=2, patience=5, seed=7))
res = run_training(cfg)

print(f"run produced {len(res.audit)} audited transmissions, "
      f"{res.comm.total()/1024:.1f} KiB total\n")

flows = Counter((r.sender.split("-")[0], r.receiver.split("-")[0], r.kind)
                for r in res.audit.records)
print("traffic matrix (sender -> receiver, kind, count):")
for (snd, rcv, kind), count in sorted(flows.items()):
    print(f"  {snd:7s} -> {rcv:7s} {kind:16s} x{count}")

report = verify_privacy_audit(res.audit, mode="naive")
print(f"\naudit verdict: {report.summary()}")

print("\nnow inject a rogue message: holder-0 ships raw embeddings to holder-1")
res.audit.append("holder-0", "holder-1", "LocalEmbedding", "valid,t", 0, 0, 64)
report = verify_privacy_audit(res.audit, mode="naive")
print(report.summary())

print("\nexported log is machine-checkable JSON lines; first two records:")
for line in res.audit.to_jsonl().splitlines()[:2]:
    print(f"  {line}")
