"""The reproduction scripts run end to end against the package API."""

import ast
import glob
import importlib.util
import json
import os

from coopsim import cli, simulation
from coopsim.scenario import SimConfig, reference_scenario

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
SPANS_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "spans.py")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_experiments(capsys):
    assert _load("run_experiments").main() == 0
    out = capsys.readouterr().out
    for n in range(1, 6):
        assert f"experiment {n}:" in out
    assert "np.float64(" not in out
    assert "rho0 = 1.0: actions = (10.0, 10.0), payoffs = (50.0, 50.0)" in out
    # the team solve with each member's own average at 0.5
    assert "lambda_r = 0.0: efforts" in out and "team output 60.3" in out
    assert "lambda_r = 1.0: efforts" in out and "team output 64.6" in out


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench.json"
    bench = _load("bench")
    # the child-process rows on the 36-cell grid, not the full one, and on
    # 20 Monte Carlo trials
    grid = tmp_path / "small.grid"
    grid.write_text(bench.SWEEP_GRID, encoding="utf-8")
    bench.FULL_SWEEP_GRID, bench.MONTECARLO_TRIALS, bench.CHILD_REPEATS = str(grid), 20, 2
    # --out keeps the file's other blocks as they were
    kept = {"machine": {"cores": 2}, "repeats": 15,
            "rows": {"job.sweep": {"median_us": 0.1, "q1_us": 5e-324,
                                   "q3_us": 1234.5678901234567}}}
    out.write_text(json.dumps({"a": kept}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert bench.main(["--repeats", "3", "--out", str(out), "--label", "b"]) == 0
    stored = json.loads(out.read_text())
    assert sorted(stored) == ["a", "b"]
    assert json.dumps(stored["a"], sort_keys=True) == json.dumps(kept, sort_keys=True)
    block = stored["b"]
    assert block["repeats"] == 3
    assert {"cores", "cpu_model", "simd_found", "python", "numpy"} <= set(block["machine"])
    assert {"rng.noise_block", "simulation.update_trust", "simulation.window_means",
            "simulation.run", "simulation.period", "case_study.run_pair",
            "case_study.score_rubric_auto", "case_study.seed_batch",
            "files.trajectory_csv", "files.dyads_csv",
            "files.long_format_csv", "scenario.reference_scenario", "solver.solve_equilibrium",
            "solver.cross_partial_check",
            "simulation.run_best_response", "simulation.run_best_response_long",
            "sweep.measure_batch", "job.case_study", "job.simulate_best_response",
            "job.prop_check", "job.sweep", "job.sweep_full", "job.montecarlo"} == set(
        block["rows"])
    for name, row in block["rows"].items():
        assert 0.0 < row["q1_us"] <= row["median_us"] <= row["q3_us"], name
    for name in ("job.sweep_full", "job.montecarlo"):
        assert block["rows"][name]["child_peak_rss_mib"] > 0.0
        assert block["rows"][name]["child_peak_rss_fixed_mmap_mib"] > 0.0
    assert "job.case_study" in capsys.readouterr().out


def test_benchmark_spans_name_existing_functions():
    # SPANS is read from the file, not imported, so no bytecode lands beside it
    with open(SPANS_FILE, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", "") == "SPANS")
    missing = {f"{module.removeprefix('coopsim.')}.{name}"
               for _, module, names, *_ in spans for name in names
               if not callable(getattr(importlib.import_module(module), name, None))}
    # functions the engine no longer has; their spans read 0
    assert missing == {"reciprocity.moving_average", "sweep.monte_carlo_trial"}


def test_no_two_tests_share_a_body_up_to_literals():
    # one test per property: tests that differ only in their literals are
    # one parametrized table (docstrings and report(...) lines aside)
    def is_noise(stmt):
        return isinstance(stmt, ast.Expr) and (
            isinstance(stmt.value, ast.Constant)
            or getattr(getattr(stmt.value, "func", None), "id", None) == "report")

    bodies = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                node.value = None
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
                key = "\n".join(ast.dump(s) for s in node.body if not is_noise(s))
                bodies.setdefault(key, []).append(f"{os.path.basename(path)}::{node.name}")
    assert [names for names in bodies.values() if len(names) > 1] == []


def test_benchmark_program_contract():
    # the benchmark reads each simulated run's converged flags from the
    # engine entry point the CLI binds
    assert cli.run is simulation.run
    traj = cli.run(reference_scenario(), SimConfig(horizon=4, mode="best_response"))
    assert isinstance(traj, simulation.Trajectory)
    assert traj.converged.dtype == bool and traj.converged.shape == (4,)
