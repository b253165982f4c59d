"""Smoke test of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "verify-bullen": dataclasses.replace(run.WORKLOADS["verify-bullen"], trials=20),
    "identities": dataclasses.replace(run.WORKLOADS["identities"], alphas=(0.5, 1.0, 1.5)),
    "audit-grid": dataclasses.replace(run.WORKLOADS["audit-grid"], alphas=(0.5, 1.0, 2.0)),
}


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads_run_py_runs():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END_UNITS
    assert _units("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_on_two_seeds(name):
    workload = TINY[name]
    counts = []
    for seed in (3, 4):
        result = run.measure(workload, seed, 0.0, trace=False)
        reps = result.pop("reps")
        assert result["correct"] and result["failed"] == 0, [r.failure for r in reps]
        assert result["attempted"] == run.MIN_REPS
        assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
        assert result["metrics"]["pass_ratio"]["value"] == 1.0
        counts.append(run.parse_report(workload, reps[0].payload)[0]["evaluations"])
    assert counts == [workload.expected_evaluations()] * 2


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_and_trace_leaves_report_alone(name):
    result = run.measure(TINY[name], 5, 0.0, trace=True)
    reps = result.pop("reps")
    assert result["correct"] and result["failed"] == 0, [r.failure for r in reps]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    assert {r.traced for r in reps} == {False, True}
    assert len({r.payload for r in reps}) == 1
    quad_calls = result["metrics"]["quadrature.calls"]["value"]
    if name == "audit-grid":
        assert quad_calls == 0
    else:
        assert quad_calls > 0 and result["metrics"]["quadrature.neval"]["value"] > 0


def test_gate_rejects_a_violation_and_a_foreign_ledger():
    workload = TINY["audit-grid"]
    payload = run.measure(workload, 3, 0.0, trace=False)["reps"][0].payload
    assert run.check_report(workload, payload) is None
    doc = json.loads(payload)
    doc["aggregate"]["violations"] = 1
    assert "violations" in run.check_report(workload, json.dumps(doc).encode())
    doc = json.loads(payload)
    doc["errata"] = doc["errata"][1:]
    assert "erratum ledger" in run.check_report(workload, json.dumps(doc).encode())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "audit-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
