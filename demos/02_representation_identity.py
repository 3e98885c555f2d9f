"""Layer-by-layer check that pooled multi-party embeddings match the
combined-graph model exactly, for every update kind, including overlapped
edges duplicated across holders.

Run: python demos/02_representation_identity.py
"""

from sapgnn import (DatasetConfig, ModelConfig, PartitionConfig, RunConfig, TrainConfig,
                    compare_equivalence)

dataset = DatasetConfig(n_nodes=80, n_classes=3, feat_dim=8,
                        intra_class_edge_prob=0.15, inter_class_edge_prob=0.03, seed=11)
train = TrainConfig(seed=19)

print("max |protocol - combined-graph| per layer, one forward/backward pass\n")
for kind in ("sum", "concat", "gated"):
    for dup in (0.0, 0.5):
        cfg = RunConfig(dataset=dataset,
                        partition=PartitionConfig(kind="uniform", P=3, seed=4,
                                                  duplicate_fraction=dup),
                        model=ModelConfig(layers=2, hidden=12, update_kind=kind),
                        train=train)
        rep = compare_equivalence(cfg)
        devs = " ".join(f"L{l + 1}={d:.1e}" for l, d in enumerate(rep.embedding_dev))
        grad = max(rep.grad_dev.values())
        print(f"kind={kind:7s} duplicated={dup:.0%}: {devs}  "
              f"worst grad dev={grad:.1e}  -> {'PASS' if rep.passed else 'FAIL'}")

print("\nDuplicated edges cost nothing: element-wise max pooling is invariant "
      "to repeated messages.")

cfg = RunConfig(dataset=dataset,
                partition=PartitionConfig(kind="uniform", P=2, seed=4),
                model=ModelConfig(layers=2, hidden=12, update_kind="negated-sum"),
                train=train)
try:
    compare_equivalence(cfg)
except ValueError as exc:
    print(f"\nnegated-sum is refused, as it should be: {exc}")
