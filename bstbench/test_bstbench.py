"""Smoke and negative tests of the benchmark, at a tiny namespace."""
import json
import shutil
import subprocess
import sys

import pytest

import run  # puts the checkout's src/ on sys.path
from workloads import Config

from bloomsampletree import bst

TINY = Config(namespace_size=20_000, n=100, setup_builds=3, da_calls=2,
              sample_calls=20, sample_many_r=20, quality_queries=3, quality_samples=20,
              counter_prefix=2, block=200, occupied_blocks=5, insert_blocks=1,
              loads_per_round=2)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace=False, seed=5):
    return run.run(workload, seed, 0.2, trace, TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_emitted_with_unit_and_direction(workload, trace):
    report, line, _ = _run(workload, trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert report[kind][m["name"]]["better"] == m["better"]
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_layer_self_times_sum_to_each_operation(workload):
    report, _, tracer = _run(workload, trace=True)
    assert report["trace_breakdown"]
    for op in report["trace_breakdown"].values():
        assert sum(op["self_s"].values()) == pytest.approx(op["total_s"], abs=1e-6)
    assert (tracer.self_times() >= 0).all()


def test_exact_metrics_repeat_for_a_seed():
    exact = ("sample_accuracy", "sample_spread", "recall_t05", "tree_bytes")
    first, second = (_run("ingest_blocks")[0]["end_to_end"] for _ in range(2))
    assert all(first[name]["value"] == second[name]["value"] for name in exact)
    counts = [{k: v["value"] for k, v in _run("sample_uniform", trace=True)[0]
               ["per_layer"].items() if k.startswith("bst.") and v["unit"] != "s"}
              for _ in range(2)]
    assert counts[0] == counts[1] and counts[0]["bst.sample.intersections_per_op"] > 0


def test_planted_wrong_reconstruction_raises_fail_frac(monkeypatch):
    right = bst.BloomSampleTree.reconstruct

    def drops_one(self, query, threshold=bst.DEFAULT_THRESHOLD):
        found, counters = right(self, query, threshold)
        return found[1:], counters

    monkeypatch.setattr(bst.BloomSampleTree, "reconstruct", drops_one)
    report, line, _ = _run("reconstruct_uniform")
    assert not line["correct"] and line["failed"] > 0
    assert report["fail_frac"] > 0


def test_raising_operation_counts_as_failed(monkeypatch):
    def broken(self, x):
        raise RuntimeError("planted")

    monkeypatch.setattr(bst.BloomSampleTree, "insert", broken)
    report, line, _ = _run("ingest_blocks")
    assert line["failed"] > 0 and report["fail_frac"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.ROOT / "bstbench", tmp_path / "bstbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bstbench/run.py", "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
