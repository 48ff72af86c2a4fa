"""Self-test of the benchmark at k=2 and a very short run length.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
traced and untraced, that tracing puts the package back as it found it,
and that run.py refuses to run without the daproofs sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "block-1mb": workloads.BlockParams(k=2, transfers=5, accounts=4, samples=4),
    "replay-full": workloads.ReplayParams(k=2, transfers=8, accounts=4),
    "sampling-k32": workloads.SamplingParams(
        k=2, share_size=64, s=3, light_clients=8, full_nodes=2, tx_count=2
    ),
    "client-table": workloads.TableParams(rows=((2, 2), (2, 4)), expected={}),
}


def test_spec_names_every_workload_and_per_layer_metric():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS) == set(TINY)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == tracing.per_layer_metric_units()
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result, report = run.run_benchmark(
        workload, seed=3, seconds=0.01, trace=trace, params=TINY[workload], out_dir=tmp_path
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["mismatches"]
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    for name, entry in report["metrics"].items():
        assert entry["unit"], name
    assert (tmp_path / f"report-{workload}-trace{int(trace)}.json").is_file()
    assert (tmp_path / f"spans-{workload}.tsv").is_file() == trace


def test_tracing_restores_the_package(tmp_path):
    from daproofs import erasure, rs2d, smt

    before = (rs2d.rs_encode, erasure.rs_encode, smt.StateTree.update)
    run.run_benchmark("block-1mb", 3, 0.01, True, TINY["block-1mb"], tmp_path)
    assert (rs2d.rs_encode, erasure.rs_encode, smt.StateTree.update) == before
    assert not hasattr(rs2d.rs_encode, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "client-table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
