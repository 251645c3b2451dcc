"""Tests of the benchmark itself (slow: several minutes).

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BASELINE_SEED = 42
# outside the seeds of the baseline runs (1-10 and 42)
FRESH_SEED = 2024


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


def _result(workload: str, seed: int, trace: int) -> dict:
    code, lines = _bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)
    )
    assert code == 0
    return json.loads(lines[-1])


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.METRICS)


def test_tracer_restores_what_it_wraps_and_nests_spans():
    import opdisc.cli as cli
    import opdisc.layers as layers

    originals = (layers.CoordinateNetwork.eval_array, layers.make_layer, cli.RUNNERS["invert"])
    t = tracer.Tracer()
    t.install()
    try:
        net = layers.CoordinateNetwork.seeded(4, 4, seed=1)
        net.eval_array(workloads.np.zeros((3, 4)))
    finally:
        t.uninstall()
    assert (layers.CoordinateNetwork.eval_array, layers.make_layer, cli.RUNNERS["invert"]) == originals
    table = t.span_table()
    seeded = table["layers.CoordinateNetwork.seeded"]
    evaluated = table["layers.CoordinateNetwork.eval_array"]
    assert seeded["calls"] == evaluated["calls"] == 1
    assert 0.0 <= seeded["self_s"] <= seeded["total_s"]
    metrics = t.metrics(table, traced_wall=1.0, untraced_wall=1.0, jobs=1)
    assert metrics["layers.net_rows"]["value"] == 3
    assert metrics["layers.build_calls"]["value"] == 1


def test_solve_artifacts_do_not_depend_on_jobs(tmp_path):
    solve = workloads.WORKLOADS["solve"]
    inputs = solve.generate(BASELINE_SEED)
    digests = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        results = solve.run_pass(inputs, out, jobs=jobs)
        assert not [r.error for r in results.values() if r.error]
        digests.append({name: solve.digest(name, r, out) for name, r in results.items()})
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = _result(workload, BASELINE_SEED, trace=1)
    second = _result(workload, BASELINE_SEED, trace=1)
    assert first["correct"] and second["correct"]
    counts = [name for name, _, _ in tracer.METRICS if name not in tracer.TIMED]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_a_fresh_seed_runs_without_failures(workload):
    result = _result(workload, FRESH_SEED, trace=0)
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench("--workload", "certify", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
