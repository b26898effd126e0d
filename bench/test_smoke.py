"""Smoke test of the benchmark itself, at one second per workload.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload plain and traced on the default seed, and checks that
every metric BENCHMARK.json names is printed with its unit, that the stored
output digest matches, that a corrupted digest or stored optimum fails the
run, and that the benchmark refuses to run without the package sources
beside it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(BENCH / "run.py"), "--seed", "0", "--seconds", "1"]


def copy_tree(dest, *dirs):
    for name in dirs:
        ignore = shutil.ignore_patterns("results", "__pycache__")
        shutil.copytree(BENCH.parent / name, dest / name, ignore=ignore)


def copied_run(root):
    return [sys.executable, str(root / "bench" / "run.py"), "--seed", "0", "--seconds", "1"]


def run(*args, script=RUN):
    return subprocess.run([*script, *args], capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed(workload, trace):
    proc = run("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in lines[:-1] if "(samples=" in line}
    assert printed == set(expected)
    assert any(line.startswith("error_rate ") for line in lines)
    assert any("(matches)" in line for line in lines), "no stored digest for seed 0"
    assert "re-solved with opt_value: 0 ops" in proc.stdout, "no stored optima for seed 0"


def test_corrupted_digest_fails(tmp_path):
    copy_tree(tmp_path, "bench", "src")
    path = tmp_path / "bench" / "golden.json"
    golden = json.loads(path.read_text())
    golden["reduce-enum"]["0"]["plain"] = "0" * 64
    path.write_text(json.dumps(golden))
    proc = run("--workload", "reduce-enum", "--trace", "0", script=copied_run(tmp_path))
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_corrupted_optimum_fails(tmp_path):
    copy_tree(tmp_path, "bench", "src")
    path = tmp_path / "bench" / "golden.json"
    golden = json.loads(path.read_text())
    golden["solve-exact"]["0"]["optima"] = "0" + golden["solve-exact"]["0"]["optima"][1:]
    path.write_text(json.dumps(golden))
    proc = run("--workload", "solve-exact", "--trace", "0", script=copied_run(tmp_path))
    assert proc.returncode == 1
    assert "# WRONG: op 0 (vertex-cover): size" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    copy_tree(tmp_path, "bench")
    proc = run("--workload", "reduce-enum", script=copied_run(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
