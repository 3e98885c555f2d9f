import csv

import numpy as np
import pytest

from sapgnn.config import DatasetConfig, PartitionConfig, RunConfig, TrainConfig
from sapgnn.gnn import ModelConfig
from sapgnn.graphs import generate_synthetic, split_edges_uniform
from sapgnn import harness
from sapgnn.harness import (ExperimentSpec, SWEEP_HEADER, comm_profile, compare_equivalence,
                            linear_fit_r2, run_sweep, summarize_sweep, train_centralized,
                            train_sp)
from sapgnn.metrics import (EarlyStopper, accuracy_from_confusion, confusion_matrix,
                            macro_f1_from_confusion, split_scores)
from sapgnn.protocol import build_dataset, build_partition, run_training


def base_config(**kw):
    n = kw.pop("n", 40)
    P = kw.pop("P", 2)
    return RunConfig(
        dataset=DatasetConfig(n_nodes=n, n_classes=3, feat_dim=6,
                              intra_class_edge_prob=0.25, inter_class_edge_prob=0.05,
                              seed=kw.pop("data_seed", 4), class_sep=1.2),
        partition=PartitionConfig(kind=kw.pop("part_kind", "uniform"), P=P,
                                  q=kw.pop("q", 0.0), seed=5,
                                  duplicate_fraction=kw.pop("dup", 0.0)),
        model=ModelConfig(layers=2, hidden=8, update_kind=kw.pop("kind", "sum"), dropout=0.0),
        train=TrainConfig(lr=0.01, max_epochs=kw.pop("max_epochs", 20),
                          patience=kw.pop("patience", 10), seed=7), **kw)


# -- metrics ---------------------------------------------------------------------

def scores(preds, truth, n_classes):
    """A split's accuracy and macro-F1, as every trainer scores it."""
    out = split_scores(confusion_matrix(preds, truth, n_classes), 0.0)
    return {"accuracy": out["accuracy"], "macro_f1": out["macro_f1"]}


def test_metrics_perfect_predictions():
    out = scores([0, 1, 2, 1], [0, 1, 2, 1], n_classes=3)
    assert out == {"accuracy": 1.0, "macro_f1": 1.0}


def test_metrics_hand_computed_binary():
    out = scores([1, 1, 0, 0], [1, 0, 0, 0], n_classes=2)
    assert out["accuracy"] == 0.75
    assert abs(out["macro_f1"] - (0.8 + 2.0 / 3.0) / 2.0) < 1e-12


def test_metrics_all_one_class_predictor():
    preds = [1] * 10
    truth = [0] * 5 + [1] * 5
    out = scores(preds, truth, n_classes=2)
    assert out["accuracy"] == 0.5
    assert abs(out["macro_f1"] - (0.0 + 2.0 / 3.0) / 2.0) < 1e-12


def test_metrics_absent_class_excluded():
    # class 2 has no instances and no predictions: excluded from the mean
    out = scores([0, 1], [0, 1], n_classes=3)
    assert out["macro_f1"] == 1.0


def test_metrics_rejects_empty():
    # the confusion-matrix scores refuse an empty label set; a trainer's
    # empty split scores NaN instead
    empty = confusion_matrix([], [], 2)
    with pytest.raises(ValueError, match="empty label set"):
        accuracy_from_confusion(empty)
    with pytest.raises(ValueError, match="empty label set"):
        macro_f1_from_confusion(empty)
    out = scores([], [], n_classes=2)
    assert np.isnan(out["accuracy"]) and np.isnan(out["macro_f1"])


def test_confusion_matrix_refuses_lengths_that_differ():
    with pytest.raises(ValueError, match="predictions and labels differ in length"):
        confusion_matrix([0, 1], [0], 2)


def test_metrics_bounds():
    rng = np.random.default_rng(3)
    preds = rng.integers(0, 4, 50)
    truth = rng.integers(0, 4, 50)
    out = scores(preds, truth, n_classes=4)
    assert 0.0 <= out["accuracy"] <= 1.0
    assert 0.0 <= out["macro_f1"] <= 1.0


def test_macro_f1_one_only_for_diagonal_confusion():
    rng = np.random.default_rng(4)
    for _ in range(50):
        truth = rng.integers(0, 3, 30)
        preds = truth.copy()
        if rng.random() < 0.7:
            preds[rng.integers(0, 30)] = (preds[rng.integers(0, 30)] + 1) % 3
        out = scores(preds, truth, n_classes=3)
        if np.array_equal(preds, truth):
            assert out["macro_f1"] == 1.0
        else:
            assert out["macro_f1"] < 1.0


def test_early_stopper():
    es = EarlyStopper(patience=2)
    assert es.update(0, 0.5) and not es.should_stop
    assert not es.update(1, 0.5) and not es.should_stop
    assert not es.update(2, 0.4) and es.should_stop
    assert es.best_epoch == 0


# -- separate training -------------------------------------------------------------

def test_sp_single_holder_equals_centralized():
    cfg = base_config(P=1)
    g = build_dataset(cfg.dataset)
    holders = build_partition(g, cfg.partition)
    sp = train_sp(holders, g, cfg.model, lr=0.01, max_epochs=20, patience=10, seed=7)
    ref = train_centralized(g, cfg.model, lr=0.01, max_epochs=20, patience=10, seed=7)
    assert sp.test_accuracies[0] == ref.final["test_accuracy"]


def test_sp_skips_holder_without_train_labels():
    from sapgnn.graphs import Graph
    g = generate_synthetic(12, 3, 4, 0.5, 0.1, seed=6, train_frac=0.25)
    holders = split_edges_uniform(g, 2, seed=1)
    # strip holder 1's train labels entirely
    g1 = holders[1].graph
    holders[1].graph = Graph(node_ids=g1.node_ids, features=g1.features, edges=g1.edges,
                             labels=g1.labels, train_ids=np.empty(0, dtype=np.int64),
                             val_ids=g1.val_ids, test_ids=g1.test_ids,
                             n_classes=g1.n_classes)
    sp = train_sp(holders, g, ModelConfig(layers=2, hidden=4), max_epochs=3,
                  patience=5, seed=7)
    assert sp.skipped == [1]
    assert sp.holder_results[1] is None
    assert len(sp.test_accuracies) == 1


def test_sp_declines_with_more_holders():
    ds = DatasetConfig(n_nodes=120, n_classes=3, feat_dim=10,
                       intra_class_edge_prob=0.12, inter_class_edge_prob=0.01,
                       seed=42, train_frac=0.2, val_frac=0.2, class_sep=1.2)
    model = ModelConfig(layers=2, hidden=16, update_kind="sum")
    g = build_dataset(ds)
    accs = {}
    for P in (1, 4):
        holders = build_partition(g, PartitionConfig(kind="uniform", P=P, seed=3))
        sp = train_sp(holders, g, model, max_epochs=120, patience=25, seed=9)
        accs[P] = sp.mean_accuracy
    assert accs[4] < accs[1]


# -- equivalence verification ---------------------------------------------------------

def test_compare_equivalence_passes_sum_p3():
    report = compare_equivalence(base_config(P=3))
    assert report.passed
    assert max(report.embedding_dev) < 1e-9
    assert report.loss_dev == 0.0


def test_compare_equivalence_with_duplicated_edges():
    report = compare_equivalence(base_config(P=3, dup=0.5))
    assert report.passed, report.summary()


def test_compare_equivalence_fixed_point_tolerance():
    report = compare_equivalence(base_config(P=2, share_mode="fixed-point"))
    assert report.tolerance == 5e-8
    assert report.passed, report.summary()


def test_compare_equivalence_refuses_non_monotone():
    with pytest.raises(ValueError, match="not monotone"):
        compare_equivalence(base_config(kind="negated-sum"))


def test_compare_equivalence_with_shared_dropout_masks():
    # the reference consumes the same server dropout stream, so even with
    # dropout on the comparison stays exact
    cfg = base_config(P=2)
    cfg.model.dropout = 0.4
    report = compare_equivalence(cfg)
    assert report.passed, report.summary()


# -- sweeps ------------------------------------------------------------------------------

def small_spec(tmp_base, **kw):
    base = base_config(n=30, max_epochs=6, patience=10)
    return ExperimentSpec(base=base, P_values=kw.pop("P_values", [1, 2]),
                          q_values=kw.pop("q_values", [0.0]),
                          methods=kw.pop("methods", ["sapgnn"]),
                          repeats=kw.pop("repeats", 1), seed_base=123)


@pytest.mark.parametrize("axis, message", [
    ({"P_values": []}, "sweep axes must be nonempty"),
    ({"q_values": []}, "sweep axes must be nonempty"),
    ({"methods": []}, "sweep axes must be nonempty"),
    ({"repeats": 0}, "repeat count must be >= 1"),
])
def test_sweep_spec_refuses_an_empty_axis_or_no_repeat(tmp_path, axis, message):
    with pytest.raises(ValueError, match=message):
        small_spec(tmp_path, **axis)


def test_sweep_schema_and_determinism(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = small_spec(tmp_path)
    rows = run_sweep(spec, out)
    with open(out) as f:
        reader = csv.reader(f)
        header = next(reader)
        assert header == SWEEP_HEADER
        data = list(reader)
    assert len(data) == len(rows) == 2


def test_sweep_records_the_seed_each_cell_trained_with(tmp_path, monkeypatch):
    trained = []

    def spy(config, holders_data=None):
        trained.append(config.train.seed)
        return run_training(config, holders_data)

    monkeypatch.setattr(harness, "run_training", spy)
    out = tmp_path / "sweep.csv"
    rows = run_sweep(small_spec(tmp_path, repeats=2), out)
    assert [row["seed"] for row in rows] == trained
    assert len(set(trained)) == 2           # one training seed per repeat
    with open(out) as f:
        assert [int(row["seed"]) for row in csv.DictReader(f)] == trained


def test_an_interrupted_sweep_keeps_its_finished_rows(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    spec = small_spec(tmp_path)
    ran, run_cell = [], harness._run_cell

    def interrupted(spec, method, P, q, repeat):
        ran.append(P)
        if len(ran) == 2:
            raise KeyboardInterrupt
        return run_cell(spec, method, P, q, repeat)

    monkeypatch.setattr(harness, "_run_cell", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(spec, out)
    with open(out) as f:
        assert [row["P"] for row in csv.DictReader(f)] == ["1"]
    # the rerun takes up where the sweep stopped
    monkeypatch.setattr(harness, "_run_cell", run_cell)
    assert [row["P"] for row in run_sweep(spec, out)] == [2]
    with open(out) as f:
        assert [row["P"] for row in csv.DictReader(f)] == ["1", "2"]


def test_sweep_resumable(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = small_spec(tmp_path)
    first = run_sweep(spec, out)
    again = run_sweep(spec, out)
    assert len(first) == 2 and len(again) == 0
    with open(out) as f:
        assert len(f.readlines()) == 3  # header + 2 rows, no duplicates


def test_sweep_methods_and_summary(tmp_path):
    spec = small_spec(tmp_path, methods=["sp", "sapgnn", "centralized"],
                      P_values=[2], repeats=1)
    rows = run_sweep(spec, None)
    assert {r["method"] for r in rows} == {"sp", "sapgnn", "centralized"}
    summary = summarize_sweep(rows)
    for cell in summary:
        assert cell["repeats"] == 1
        assert cell["accuracy_std"] == 0.0  # single repeat: zero std


def test_sweep_accuracy_constant_across_P(tmp_path):
    spec = small_spec(tmp_path, P_values=[1, 2, 3], repeats=2,
                      methods=["sapgnn", "centralized"])
    rows = run_sweep(spec, None)
    for rep in range(2):
        accs = {r["P"]: r["accuracy"] for r in rows
                if r["method"] == "sapgnn" and r["repeat"] == rep}
        assert len(set(accs.values())) == 1
        central = [r["accuracy"] for r in rows
                   if r["method"] == "centralized" and r["repeat"] == rep]
        assert set(central) == set(accs.values())


def test_label_skew_accuracy_nondecreasing_in_q():
    # anti-homophilous two-class data: every edge links the two classes, so a
    # q=0 split (one class per holder) severs all of them, and higher q
    # restores informative structure; mean accuracy must not decrease in q
    means = []
    for q in (0.0, 25.0, 50.0):
        accs = []
        for rep in range(5):
            cfg = RunConfig(
                dataset=DatasetConfig(n_nodes=100, n_classes=2, feat_dim=8,
                                      intra_class_edge_prob=0.0,
                                      inter_class_edge_prob=0.12, seed=100 + rep,
                                      train_frac=0.3, val_frac=0.2, class_sep=0.9),
                partition=PartitionConfig(kind="label-skew", P=2, q=q, seed=11 + rep),
                model=ModelConfig(layers=2, hidden=16, update_kind="concat"),
                train=TrainConfig(lr=0.01, max_epochs=150, patience=30, seed=200 + rep))
            accs.append(run_training(cfg).final["test_accuracy"])
        means.append(float(np.mean(accs)))
    assert means[0] <= means[1] <= means[2], means


# -- communication profile -----------------------------------------------------------

def test_comm_profile_reports_positive_traffic():
    prof = comm_profile(base_config(P=2, n=30), epochs=1)
    assert prof["embedding_bytes_per_epoch"] > 0
    assert prof["gradshare_bytes_per_epoch"] > 0
    assert prof["total_bytes"] > prof["embedding_bytes_per_epoch"]


def test_linear_fit_r2_exact_line():
    a, b, r2 = linear_fit_r2([1, 2, 3, 4], [3, 5, 7, 9])
    assert abs(a - 2.0) < 1e-12 and abs(b - 1.0) < 1e-12 and r2 == 1.0
