"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest benchmark/tests -q

Run from the root of a checkout.  They run every workload for about a
second, untraced and traced, and check the metric names and units, the
output check, the tracer's restoring of wrapped attributes, its self-time
accounting and the repeatability of its counts.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmark", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    block = {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")[:3]
            printed[name] = (float(value), unit)
        elif kind == "run":
            block = json.loads(rest)
    return {"result": json.loads(lines[-1]), "printed": printed, "run": block}


@pytest.fixture(scope="module")
def untraced():
    return {w: parse(bench(w, 0)) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: [parse(bench(w, 1)), parse(bench(w, 1))] for w in WORKLOADS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(spec, untraced, workload):
    out = untraced[workload]
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert out["printed"][m["name"]] == (result["metrics"][m["name"]]["value"], m["unit"])
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert out["printed"]["failed_frac"] == (0.0, "frac")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics_printed_with_units(spec, traced, workload):
    out = traced[workload][0]
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["printed"][m["name"]] == (result["metrics"][m["name"]]["value"], m["unit"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["simulation.run.calls"] > 0
    if workload != "equilibrium":
        assert values["solver.solve_equilibrium.calls"] == 0
    else:
        assert values["solver.solve_equilibrium.calls"] > 0
    if workload in ("sweep_grid", "montecarlo"):
        assert values["rng.normal.calls"] == 0
    if workload == "case_study":
        assert values["rng.normal.calls"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(spec, traced, workload):
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    first, second = ({k: r["result"]["metrics"][k]["value"] for k in counts}
                     for r in traced[workload])
    assert first == second


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_sum_to_traced_wall(traced, workload):
    block = traced[workload][0]["run"]
    overhead = traced[workload][0]["result"]["metrics"]["trace.overhead_frac"]["value"]
    wall, self_total = block["traced_wall_ms"], block["self_total_ms"]
    assert 0.0 <= wall - self_total <= max(abs(overhead), 0.01) * wall


def test_traced_run_restores_every_wrapped_attribute():
    cli = run.import_cli()
    modules = spans._coopsim_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    workload = WORKLOADS["equilibrium"]
    tally = run.Tally(outputs.load_references(workload.name))
    work = os.path.join(run.WORK_ROOT, f"test-restore-{os.getpid()}")
    try:
        workload.write_inputs(work)
        values, block = run.trace_run(cli, tally, workload, SEED, 1, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert block["spans"] > 0 and values["solver.solve_equilibrium.calls"] > 0
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert not [key for key, value in after.items() if hasattr(value, "__bench_span__")]


def test_corrupted_reference_row_counts_as_failed():
    cli = run.import_cli()
    workload = WORKLOADS["case_study"]
    refs = outputs.load_references(workload.name)
    for entry in refs["jobs"].values():
        rows = entry["files"]["trajectory.csv"].split("\n")
        period, actor, action = rows[5].split(",")
        rows[5] = f"{period},{actor},{float(action) + 0.01!r}"
        entry["files"]["trajectory.csv"] = "\n".join(rows)
    tally = run.Tally(refs)
    work = os.path.join(run.WORK_ROOT, f"test-corrupt-{os.getpid()}")
    try:
        workload.write_inputs(work)
        jobs = [next(workload.jobs(SEED))]
        run.run_jobs(cli, tally, jobs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert tally.attempted == 1 and tally.failed / tally.attempted > 0


def test_output_comparison_tolerances():
    assert outputs.compare_text("a,0.30000000000000004\n", "a,0.3\n") is None
    assert outputs.compare_text("a,1e-17\n", "a,0.0\n") is None  # near zero
    assert outputs.compare_text("x = 0.0754\n", "x = 0.0755\n") is not None  # rounded digits
    assert outputs.compare_text("a,0.31\n", "a,0.3\n") is not None
    assert outputs.compare_text("tau_f=6\n", "tau_f=7\n") is not None  # integers are exact
    assert outputs.compare_text("1,0\n", "1,1\n") is not None  # verdict flags are exact
    assert outputs.compare_text("pass\n", "FAIL\n") is not None
    assert outputs.compare_text("1,2\n", "1,2,3\n") is not None


def test_refuses_to_run_without_the_program_source():
    bare = os.path.join(run.WORK_ROOT, f"test-bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "benchmark"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for trace in (0, 1):
            proc = bench("case_study", trace, cwd=bare)
            assert proc.returncode != 0
            assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
