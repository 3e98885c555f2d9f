"""Train the split protocol at several holder counts and watch the test
accuracy stay identical to single-machine training on the combined graph.

Run: python demos/01_train_and_compare.py
"""

from sapgnn import (DatasetConfig, ModelConfig, PartitionConfig, RunConfig, TrainConfig,
                    run_training, train_centralized)
from sapgnn.protocol import build_dataset

dataset = DatasetConfig(n_nodes=120, n_classes=3, feat_dim=10,
                        intra_class_edge_prob=0.12, inter_class_edge_prob=0.01,
                        seed=42, train_frac=0.2, val_frac=0.2, class_sep=1.2)
model = ModelConfig(layers=2, hidden=16, update_kind="sum", dropout=0.0)
train = TrainConfig(lr=0.01, max_epochs=150, patience=25, seed=7)

g = build_dataset(dataset)
print(f"synthetic graph: {g.n_nodes} nodes, {g.n_edges} edges, "
      f"F={g.feat_dim}, C={g.n_classes}")

central = train_centralized(g, model, lr=train.lr, max_epochs=train.max_epochs,
                            patience=train.patience, seed=train.seed)
print(f"\ncentralized reference: test accuracy {central.final['test_accuracy']:.4f} "
      f"(best epoch {central.best_epoch})")

print("\nsplit protocol over uniformly divided edges:")
for P in (1, 2, 3, 4):
    cfg = RunConfig(dataset=dataset,
                    partition=PartitionConfig(kind="uniform", P=P, seed=5),
                    model=model, train=train)
    res = run_training(cfg)
    marker = "== centralized" if res.final["test_accuracy"] == \
        central.final["test_accuracy"] else "!= centralized"
    print(f"  P={P}: test accuracy {res.final['test_accuracy']:.4f} "
          f"(epochs {res.epochs_run}, {res.comm.total()/1e6:.2f} MB on the wire) "
          f"{marker}")

print("\nThe protocol's embeddings equal the combined-graph model's, so the "
      "number of data holders never changes the result.")
