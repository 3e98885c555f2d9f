"""Label-skew sweep: group classes onto holders, redistribute q% of each
holder's nodes, keep only same-holder edges, and sweep q and the holder
count. Writes the standard sweep CSV next to this script.

Run: python demos/05_label_skew_sweep.py
"""

from pathlib import Path

from sapgnn import (DatasetConfig, ExperimentSpec, ModelConfig, PartitionConfig,
                    RunConfig, TrainConfig, run_sweep, split_label_skew)
from sapgnn.harness import summarize_sweep
from sapgnn.protocol import build_dataset

base = RunConfig(
    dataset=DatasetConfig(n_nodes=100, n_classes=4, feat_dim=8,
                          intra_class_edge_prob=0.18, inter_class_edge_prob=0.04,
                          seed=5, class_sep=2.0),
    partition=PartitionConfig(kind="label-skew"),
    model=ModelConfig(layers=2, hidden=12, update_kind="sum"),
    train=TrainConfig(max_epochs=60, patience=20))

g = build_dataset(base.dataset)
print("class ownership at q=0 (fully skewed):")
for p, lg in enumerate(split_label_skew(g, 2, 0.0, seed=1)):
    classes = sorted(set(lg.graph.labels[lg.graph.labels >= 0].tolist()))
    print(f"  holder {p}: {lg.graph.n_nodes} nodes, classes {classes}")

out = Path(__file__).with_name("label_skew_sweep.csv")
out.unlink(missing_ok=True)
spec = ExperimentSpec(base=base, P_values=[2, 3, 4], q_values=[0.0, 25.0, 50.0],
                      methods=["sapgnn"], repeats=2, seed_base=314)
rows = run_sweep(spec, out)
print(f"\nwrote {len(rows)} rows to {out.name}")

print("\nmean test accuracy over repeats:")
print("  P \\ q |   0%    25%    50%")
summary = {(c["P"], c["q"]): c["accuracy_mean"] for c in summarize_sweep(rows)}
for P in (2, 3, 4):
    cells = "  ".join(f"{summary[(P, q)]:.3f}" for q in (0.0, 25.0, 50.0))
    print(f"    {P}   |  {cells}")
print("\nHigher q means holders' label distributions converge; edge retention "
      "and accuracy shift with it.")
