"""The reproduction scripts run end to end against the package API."""

import importlib.util
import json
import os

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


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


def test_run_validation_matches_the_cli(tmp_path):
    from coopsim.cli import main

    grid = tmp_path / "grid.txt"
    grid.write_text("rho0 = 0.2,1.0\nkappa = 0.5,1.5,3.0\nmemory_k = 1,16\n", encoding="utf-8")
    out, ref = tmp_path / "validation", tmp_path / "sweep"
    code = _load("run_validation").main(
        ["--grid", str(grid), "--out", str(out), "--trials", "8", "--seed", "7",
         "--parallel", "2"])
    sweep_code = main(["sweep", "--grid", str(grid), "--out", str(ref), "--seed", "7"])
    trials_code = main(["montecarlo", "--trials", "8", "--seed", "7", "--out", str(ref)])
    assert code == max(sweep_code, trials_code)
    for name in ("targets.csv", "report.md", "montecarlo.csv", "montecarlo.md"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    assert len((out / "targets.csv").read_text().splitlines()) == 1 + 12


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench.json"
    bench = _load("bench")
    assert bench.main(["--repeats", "3", "--out", str(out), "--label", "a"]) == 0
    assert bench.main(["--repeats", "3", "--out", str(out), "--label", "b"]) == 0
    stored = json.loads(out.read_text())
    assert sorted(stored) == ["a", "b"]
    block = stored["b"]
    assert block["repeats"] == 3
    assert {"cores", "cpu_model", "simd_found", "python", "numpy"} <= set(block["machine"])
    assert {"rng.noise_block", "simulation.update_trust", "simulation.window_means",
            "simulation.run", "simulation.period", "files.trajectory_csv", "files.dyads_csv",
            "files.long_format_csv", "solver.solve_equilibrium", "job.case_study"} == set(
        block["rows"])
    for name, row in block["rows"].items():
        assert 0.0 < row["q1_us"] <= row["median_us"] <= row["q3_us"], name
    assert "job.case_study" in capsys.readouterr().out
