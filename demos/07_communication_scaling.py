"""Measured wire traffic: embedding bytes grow linearly with the node count,
gradient-share bytes quadratically with the holder count.

Run: python demos/07_communication_scaling.py
"""

from sapgnn import (DatasetConfig, ModelConfig, PartitionConfig, RunConfig, TrainConfig,
                    comm_profile, linear_fit_r2)

model = ModelConfig(layers=2, hidden=16, update_kind="sum")

print("embedding traffic per epoch vs node count (P=2):")
sizes, emb = [], []
for n in (50, 100, 200, 400):
    cfg = RunConfig(dataset=DatasetConfig(n_nodes=n, n_classes=3, feat_dim=8,
                                          intra_class_edge_prob=min(1.0, 8.0 / n),
                                          inter_class_edge_prob=min(1.0, 2.0 / n),
                                          seed=3),
                    partition=PartitionConfig(kind="uniform", P=2, seed=4),
                    model=model, train=TrainConfig(seed=5))
    prof = comm_profile(cfg, epochs=1)
    sizes.append(n)
    emb.append(prof["embedding_bytes_per_epoch"])
    print(f"  N={n:4d}: {prof['embedding_bytes_per_epoch']/1024:8.1f} KiB")
slope, intercept, r2 = linear_fit_r2(sizes, emb)
print(f"  linear fit: {slope:.0f} bytes/node, R^2 = {r2:.6f}")

print("\ngradient-share traffic per epoch vs holder count (N=60):")
holders, share = [], []
for P in (2, 3, 4, 5, 6):
    cfg = RunConfig(dataset=DatasetConfig(n_nodes=60, n_classes=3, feat_dim=8,
                                          intra_class_edge_prob=0.15,
                                          inter_class_edge_prob=0.03, seed=3),
                    partition=PartitionConfig(kind="uniform", P=P, seed=4),
                    model=model, train=TrainConfig(seed=5))
    prof = comm_profile(cfg, epochs=1)
    holders.append(P)
    share.append(prof["gradshare_bytes_per_epoch"])
    print(f"  P={P}: {prof['gradshare_bytes_per_epoch']/1024:8.1f} KiB")
slope, intercept, r2 = linear_fit_r2([p * p for p in holders], share)
print(f"  fit against P^2: R^2 = {r2:.6f}")
print("\nEach pair of holders shares one mask seed (P*(P-1)/2 GradShares), then every "
      "holder sends its masked vector to every other (P*(P-1) PartialSums).")
