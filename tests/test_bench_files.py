"""The committed benchmark evidence (`BENCH_*.json` at the repository root)
is well formed: every file names how it was measured, covers every workload
and end-to-end metric that `BENCHMARK.json` declares, and its statistics
recompute from its own runs."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"title", "command", "host", "seeds", "order", "statistics", "outputs", "workloads"}


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_there_is_benchmark_evidence():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_complete_and_recomputes(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert KEYS <= set(bench), sorted(KEYS - set(bench))
    spec = declared()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    assert set(workloads) <= set(bench["workloads"])
    for workload in workloads:
        entries = bench["workloads"][workload]
        assert set(metrics) <= set(entries), (workload, sorted(set(metrics) - set(entries)))
        for name, better in metrics.items():
            entry = entries[name]
            where = f"{workload} {name}"
            for side in ("parent", "change"):
                stats = entry[side]
                q1, median, q3 = np.percentile(stats["runs"], [25, 50, 75])
                for key, value in (("q1", q1), ("median", median), ("q3", q3)):
                    assert math.isclose(stats[key], value, rel_tol=1e-4, abs_tol=1e-12), (
                        where, side, key, stats[key], value)
            parent, change = entry["parent"]["runs"], entry["change"]["runs"]
            assert len(parent) == len(change), where
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
            assert entry["change_wins"] == wins, (where, entry["change_wins"], wins)
