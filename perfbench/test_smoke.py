"""Smoke test of the benchmark: each workload at a tiny size, untraced and traced.

Checks the output contract of ``perfbench/run.py``: every metric that
BENCHMARK.json names is printed with its unit, outputs pass their checks,
the same seed gives the same output digests, and the traced pass reproduces
the untraced digests. Run from the repository root:

    python -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNGATED = {"oracle_gap_kw_p50": "kW", "settle_iter_p50": "iterations", "fail_share": "fraction"}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert lines[-2].startswith("detail: ")
    detail = json.loads(lines[-2][len("detail: "):])
    printed = {}
    for line in lines[:-2]:
        name, _, rest = line.partition(" = ")
        printed[name] = rest.split()[1]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result, detail, printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, detail, printed = parse(run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "compare-n100":
        expected["dominance_share"] = "fraction"
    for name, unit in {**expected, **UNGATED}.items():
        assert printed.get(name) == unit, name
    assert detail["digest"]
    _, again, _ = parse(run(workload, 0))
    assert again["digest"] == detail["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric_and_same_outputs(workload):
    result, detail, printed = parse(run(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    assert detail["digest_traced"] and detail["digest_traced"] == detail["digest_untraced"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
