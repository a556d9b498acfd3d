"""Workload checks, seed sensitivity, layer predictions, CLI contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl
from layers import ALL_WORKLOADS, LAYERS, Tracer

HOSTBENCH = Path(__file__).resolve().parents[1]
REPO = HOSTBENCH.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_layer_predictions_and_second_seed(name, tmp_path):
    workload = wl.WORKLOADS[name]
    with Tracer() as tracer:
        first = wl.call(workload, "dglite", 0, tmp_path, root=tracer.root)
    assert first.problems == []
    calls = first.trace.calls
    for layer in LAYERS:
        if name in layer.zero_calls:
            assert calls[layer.name] == 0, layer.name
        if name in layer.moves:
            assert calls[layer.name] > 0, layer.name

    second = wl.call(workload, "dglite", 1, tmp_path)
    assert second.problems == []
    assert wl.digest(second.stats) != wl.digest(first.stats)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(ALL_WORKLOADS)
    assert list(wl.WORKLOADS) == list(ALL_WORKLOADS)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "hostbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    done = _run(REPO, "--workload", "train-flickr-telemetry", "--seed", "3",
                "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(HOSTBENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "serve-products", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
