"""A tiny-size run of every workload, untraced and traced."""

import io
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert PER_LAYER == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_smoke(name):
    result = run.run_workload(name, 3, 0, 0, tiny=True, out=io.StringIO())
    assert result["correct"]
    assert result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if name == "cli-filter":
        # one known-fault request per round of three
        assert result["failed"] * 3 in (0, result["attempted"])
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_counts_repeat(name):
    first, second = (
        run.run_workload(name, 5, 0, 1, tiny=True, out=io.StringIO()) for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert {m: v["unit"] for m, v in first["metrics"].items()} == PER_LAYER
    for metric in run.COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric]
    if name != "classical-path":
        assert first["metrics"]["simulator.gates_applied"]["value"] > 0
        assert first["metrics"]["simulator.run_circuit_s"]["value"] > 0
    if name in ("classical-path", "cli-filter"):
        assert first["metrics"]["transforms.sequency_perm_s"]["value"] > 0
    if name == "cli-filter":
        assert first["metrics"]["signals.csv_bytes"]["value"] > 0
        assert first["metrics"]["cli.import_s"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-filter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
