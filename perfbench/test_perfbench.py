"""Self-tests of the benchmark: every workload at a tiny size passes the
correctness gate and the byte cross-check in seconds.

Run from the root of the repository with `python -m pytest perfbench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import measure
import program
import run
from sapgnn.wire import CommStats, MessageKind
from tracing import Hook, Span, Tracer, WireCounter
from workloads import TIMING_EPOCHS, WORKLOADS, make_config

BENCHMARK = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(params=sorted(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]


def test_workload_passes_gate_and_byte_cross_check(workload, tmp_path):
    config = make_config(workload, seed=1, tiny=True)
    _setup_s, holders = measure.timed_setup(config)
    job = measure.run_job(config, holders, tmp_path)
    assert job.failures == []
    assert measure.equivalence_failures(config, holders) == []

    traced = measure.run_traced(config, tmp_path)
    assert traced.missing == set()
    assert traced.job.failures == []          # includes the per-kind byte cross-check
    assert traced.job.digest == job.digest    # the wrappers change no output

    metrics = measure.layer_metrics(traced, job.epoch_s, 0.0)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["protocol.forward_calls"]["value"] == 2
    assert sum(metrics[f"wire.bytes.{kind}"]["value"] for kind in measure.MESSAGE_KINDS) \
        == pytest.approx(job.wire_bytes_per_epoch)


def test_second_seed_passes_gate(workload, tmp_path):
    config = make_config(workload, seed=2, tiny=True)
    _setup_s, holders = measure.timed_setup(config)
    assert measure.run_job(config, holders, tmp_path).failures == []
    assert measure.equivalence_failures(config, holders) == []


def test_seed_fixes_inputs():
    workload = WORKLOADS["uniform-sum"]
    assert make_config(workload, 5).to_json() == make_config(workload, 5).to_json()
    assert make_config(workload, 5).to_json() != make_config(workload, 6).to_json()
    timing = make_config(workload, 5, epochs=TIMING_EPOCHS)
    assert timing.train.max_epochs == TIMING_EPOCHS < timing.train.patience
    assert timing.dataset == make_config(workload, 5).dataset


def test_digest_record_keeps_each_config(tmp_path):
    workload = WORKLOADS["p8-shares"]
    full, timing = make_config(workload, 1), make_config(workload, 1, epochs=TIMING_EPOCHS)
    path = tmp_path / "digests.json"
    first, second = run.DigestRecord(path, "source"), run.DigestRecord(path, "source")
    first.put(full, "a")
    second.put(timing, "b")
    assert run.DigestRecord(path, "source").get(full) == "a"
    assert run.DigestRecord(path, "source").get(timing) == "b"
    assert run.DigestRecord(path, "other source").get(full) is None


def test_missing_hook_reported_by_name(monkeypatch, tmp_path):
    gone = Hook("sharing.combine", "sapgnn.protocol", "no_such_function")
    monkeypatch.setattr(measure, "HOOKS", (*measure.HOOKS, gone))
    config = make_config(WORKLOADS["p8-shares"], seed=1, tiny=True)
    traced = measure.run_traced(config, tmp_path)
    assert traced.missing == {"sapgnn.protocol.no_such_function"}
    assert traced.job.failures == []
    metrics = measure.layer_metrics(traced, traced.job.epoch_s, 0.0)
    assert metrics["sharing.combine_s"] == {
        "value": None, "unit": "s/epoch", "missing": "sapgnn.protocol.no_such_function"}
    assert metrics["numerics.adam_s"]["value"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [Span("outer", 0, 100, -1), Span("inner", 10, 40, 0),
                    Span("leaf", 20, 25, 1), Span("inner", 50, 60, 0)]
    stats = tracer.by_name()
    assert stats["outer"] == {"calls": 1, "total_ns": 100, "self_ns": 60}
    assert stats["inner"] == {"calls": 2, "total_ns": 40, "self_ns": 35}
    assert stats["leaf"]["self_ns"] == 5


def test_end_to_end_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "p8-shares",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_byte_cross_check_flags_a_mismatch():
    comm = CommStats()
    comm.add(MessageKind.PRED_GRAD, "holder-0->server", 2, 0, 100)
    wire = WireCounter()
    wire.bytes_by_kind["PredGrad"] = 100
    assert measure.byte_mismatches(wire, comm) == []
    wire.bytes_by_kind["PredGrad"] += 1
    assert measure.byte_mismatches(wire, comm) == ["PredGrad: encoded 101 bytes, CommStats 100"]
