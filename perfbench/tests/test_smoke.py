"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest perfbench/tests -q

``--seconds 0`` runs each workload for a single measured pass.  The tests
check that every metric BENCHMARK.json declares is printed with its unit and
that the outputs pass the correctness check, that a perturbed reference value
trips that check, that the inputs change from pass to pass, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert f"{name} = {metric['value']!r} {metric['unit']}" in lines


def test_perturbed_reference_trips_the_check(tmp_path):
    import workloads

    workload = workloads.WORKLOADS["gpd_grid"]
    outputs = workload.run_pass(*workload.prepare(0, tmp_path)(0)).outputs
    reference = workloads.load_reference("gpd_grid", 0)
    assert workloads.max_rel_dev(outputs, reference) == 0.0

    reference["table1"][5][2] *= 1 + 1e-5  # the mse of one row
    assert workloads.max_rel_dev(outputs, reference) > workloads.REL_TOL


def test_inputs_change_from_pass_to_pass(tmp_path):
    import workloads

    grid = workloads.WORKLOADS["gpd_grid"].prepare(7, tmp_path)
    assert [grid(p)[0] for p in range(3)] == [7, 0, 1]

    pass_inputs = workloads.WORKLOADS["large_sample_fit"].prepare(7, tmp_path)
    seen_paths, seen_bytes = set(), set()
    for pass_index in range(2):
        input_set, argvs = pass_inputs(pass_index)
        assert input_set == (7 + pass_index) % workloads.INPUT_SETS
        for argv in argvs:
            path = argv[argv.index("--data") + 1]
            seen_paths.add(path)
            seen_bytes.add(Path(path).read_bytes())
    calls = 2 * len(workloads.CALLS)
    assert len(seen_paths) == calls and len(seen_bytes) == calls


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
