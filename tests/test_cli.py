import csv
import json
import os

import numpy as np
import pytest

from sapgnn.cli import EXIT_REFUSED, main
from sapgnn.config import RunConfig, apply_overrides


def write_config(tmp_path, **overrides):
    cfg = RunConfig().to_dict()
    cfg["dataset"].update({"n_nodes": 30, "n_classes": 3, "feat_dim": 5,
                           "intra_class_edge_prob": 0.3, "inter_class_edge_prob": 0.05,
                           "seed": 2, "class_sep": 1.2})
    cfg["partition"].update({"P": 2, "seed": 5})
    cfg["model"].update({"hidden": 6})
    cfg["train"].update({"max_epochs": 3, "patience": 5, "seed": 9})
    for key, value in overrides.items():
        apply_overrides(cfg, [f"{key}={json.dumps(value)}"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_gen_data_and_partition(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--out", str(data_dir), "--set", "dataset.n_nodes=20",
                 "--set", "dataset.n_classes=2", "--set", "dataset.feat_dim=4",
                 "--set", "dataset.seed=3"]) == 0
    for name in ("nodes.tsv", "features.tsv", "edges.tsv", "manifest.json"):
        assert (data_dir / name).exists()
    assert json.loads((data_dir / "manifest.json").read_text())["nodes"] == 20
    cfg = write_config(tmp_path)
    out = tmp_path / "parts"
    assert main(["partition", "--config", str(cfg), "--data", str(data_dir),
                 "--out", str(out), "--set", "partition.P=2"]) == 0
    manifest = json.loads((out / "partition.json").read_text())
    assert manifest["P"] == 2
    assert (out / "holder-0" / "manifest.json").exists()
    assert (out / "holder-1" / "edges.tsv").exists()


def test_train_sapgnn_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train-sapgnn", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "comm.csv").exists()
    assert (out / "audit.jsonl").exists()
    with open(out / "metrics.csv") as f:
        header = next(csv.reader(f))
    assert header == ["epoch", "split", "accuracy", "macro_f1", "loss"]
    with open(out / "comm.csv") as f:
        header = next(csv.reader(f))
    assert header == ["epoch", "kind", "direction", "bytes"]


def test_train_sapgnn_records_what_its_hashes_depend_on(tmp_path, monkeypatch, capsys):
    # a seeded run's outputs hold per numpy, BLAS and OpenBLAS thread count;
    # run.json names them beside the outputs, with the CPUs the run could use
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    out = tmp_path / "run"
    assert main(["train-sapgnn", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    record = json.loads((out / "run.json").read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert record == {"numpy": np.__version__, "blas": blas["name"],
                      "blas_version": blas["version"], "openblas_num_threads": "3",
                      "usable_cpus": sorted(os.sched_getaffinity(0)),
                      "holder_workers": len(os.sched_getaffinity(0)) - 1}
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert main(["train-sapgnn", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["openblas_num_threads"] is None


def test_train_centralized_and_sp(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train-centralized", "--config", str(cfg),
                 "--out", str(tmp_path / "c")]) == 0
    assert main(["train-sp", "--config", str(cfg), "--out", str(tmp_path / "sp")]) == 0
    assert (tmp_path / "c" / "metrics.csv").exists()


def test_verify_equivalence_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["verify-equivalence", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    bad = write_config(tmp_path, **{"model.update_kind": "negated-sum"})
    assert main(["verify-equivalence", "--config", str(bad)]) == 2


def test_verify_equivalence_refuses_like_every_command(tmp_path, capsys):
    # a partition the dataset cannot support is refused input, not an
    # equivalence failure
    argv = ["--set", "partition.kind=label-skew", "--set", "partition.P=5"]
    for command in (["verify-equivalence"], ["train-sapgnn", "--out", str(tmp_path / "run")]):
        assert main(command + argv) == EXIT_REFUSED
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("sapgnn: refused: need n_classes >= P"), err


def test_set_override_changes_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["verify-equivalence", "--config", str(cfg),
                 "--set", "partition.P=3", "--set", "share_mode=\"fixed-point\""]) == 0
    out = capsys.readouterr().out
    assert "fixed-point" in out


def test_audit_subcommand_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    main(["train-sapgnn", "--config", str(cfg), "--out", str(out)])
    log = out / "audit.jsonl"
    assert main(["audit", "--log", str(log)]) == 0
    # append a rogue record: server receiving a gradient share
    with open(log, "a") as f:
        f.write(json.dumps({"ts": 99999, "sender": "holder-0", "receiver": "server",
                            "kind": "GradShare", "schema": "share", "layer": -1, "epoch": 0,
                            "n_bytes": 67}) + "\n")
    assert main(["audit", "--log", str(log)]) == 3
    assert "finding" in capsys.readouterr().out


@pytest.fixture
def clean_log(tmp_path):
    """The text of a clean two-holder run's audit.jsonl."""
    out = tmp_path / "run"
    assert main(["train-sapgnn", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    text = (out / "audit.jsonl").read_text()
    assert main(["audit", "--log", str(out / "audit.jsonl")]) == 0
    return text


@pytest.mark.parametrize("sender,receiver,kind,schema", [
    pytest.param("holder-0", "holder-1", "GradShare", "seed", id="grad-share-upward"),
    pytest.param("holder-1", "holder-1", "PartialSum", "partial", id="partial-sum-to-itself"),
    pytest.param("holder-7", "server", "PredGrad", "valid,g", id="unregistered-holder"),
])
def test_audit_subcommand_flags_holder_indices(tmp_path, capsys, clean_log, sender, receiver,
                                               kind, schema):
    log = tmp_path / "audit.jsonl"
    log.write_text(clean_log + json.dumps(
        {"ts": 99999, "sender": sender, "receiver": receiver, "kind": kind, "schema": schema,
         "layer": -1, "epoch": 0, "n_bytes": 64}) + "\n")
    assert main(["audit", "--log", str(log)]) == 3
    assert f"{receiver}: {kind}:" in capsys.readouterr().out


@pytest.mark.parametrize("line,reason", [
    pytest.param(json.dumps({"ts": 99999, "sender": "server", "receiver": "holder-0",
                             "kind": "PartialSum", "layer": -1, "epoch": 0, "n_bytes": 64}),
                 "lacks the key 'schema'", id="record-without-schema"),
    pytest.param('["server", "holder-0", "PartialSum"]', "is a JSON list, not an object",
                 id="line-not-an-object"),
])
def test_audit_subcommand_refuses_a_malformed_log(tmp_path, capsys, clean_log, line, reason):
    log = tmp_path / "audit.jsonl"
    log.write_text(clean_log + line + "\n")
    assert main(["audit", "--log", str(log)]) == EXIT_REFUSED
    err = capsys.readouterr().err
    assert f"sapgnn: refused: audit log line {len(clean_log.splitlines()) + 1}" in err
    assert reason in err


def test_sweep_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--P", "1,2", "--q", "0", "--methods", "sapgnn",
                 "--repeats", "1", "--seed-base", "11"]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    accs = {r["accuracy"] for r in rows}
    assert len(accs) == 1  # identity across P


def test_config_round_trip():
    cfg = RunConfig()
    again = RunConfig.from_dict(json.loads(cfg.to_json()))
    assert again.to_dict() == cfg.to_dict()


def test_apply_overrides_parses_types():
    d = {"train": {"lr": 0.01}}
    apply_overrides(d, ["train.lr=0.5", "train.max_epochs=7", "mode=\"naive\""])
    assert d["train"]["lr"] == 0.5
    assert d["train"]["max_epochs"] == 7
    assert d["mode"] == "naive"
    with pytest.raises(ValueError):
        apply_overrides(d, ["no-equals-sign"])


@pytest.mark.parametrize("override, message", [
    ("partiton.P=3", "unknown key 'partiton' in the config"),
    ("model.hiden=8", "unknown key 'hiden' in config section 'model'"),
    # relu is applied to every layer but the last, always
    ("model.relu=false", "unknown key 'relu' in config section 'model'"),
])
def test_config_refuses_an_unknown_key_by_name(override, message):
    d = apply_overrides(RunConfig().to_dict(), [override])
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict(d)


def test_apply_overrides_refuses_a_key_below_a_value():
    with pytest.raises(ValueError, match="'mode' is a value, not a config section"):
        apply_overrides(RunConfig().to_dict(), ["mode.x=1"])


def test_cli_refuses_a_misspelled_override(tmp_path, capsys):
    assert main(["train-sapgnn", "--out", str(tmp_path / "bad"),
                 "--set", "partiton.P=3"]) == EXIT_REFUSED
    assert capsys.readouterr().err == (
        "sapgnn: refused: unknown key 'partiton' in the config\n")
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("config, message", [
    ({"model": 3}, "config section 'model' is not a JSON object"),
    ({"train": [1, 2]}, "config section 'train' is not a JSON object"),
    (3, "the config is not a JSON object"),
])
def test_config_refuses_a_non_object_by_name(config, message):
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict(config)


def test_cli_refuses_a_config_file_it_cannot_use(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": 3}))
    assert main(["train-sapgnn", "--config", str(path), "--out", str(tmp_path)]) == EXIT_REFUSED
    assert "sapgnn: refused: config section 'model'" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["train-sapgnn", "--config", str(missing), "--out", str(tmp_path)]) == EXIT_REFUSED
    assert "sapgnn: refused:" in capsys.readouterr().err
    path.write_text("{")
    assert main(["verify-equivalence", "--config", str(path)]) == EXIT_REFUSED


def test_training_without_validation_labels(tmp_path, capsys):
    # no epoch can improve validation accuracy, so the final metrics stay NaN
    cfg = write_config(tmp_path)
    for command in ("train-sapgnn", "train-centralized"):
        assert main([command, "--config", str(cfg), "--set", "dataset.val_frac=0",
                     "--out", str(tmp_path / command)]) == 0
        assert "test accuracy nan" in capsys.readouterr().out
