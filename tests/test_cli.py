import os
import subprocess
import sys

import pytest

from coopsim import case_study as cs
from coopsim.cli import main
from coopsim.files import scenario_to_text, write_file
from coopsim.scenario import SimConfig, reference_scenario

TINY_GRID = "rho0 = 0.2,1.0\nkappa = 0.5,3.0\nmemory_k = 1,4\n"


@pytest.fixture()
def scenario_file(tmp_path):
    scen = reference_scenario()
    sim = SimConfig(horizon=12, noise_sigma=0.02, seed=9)
    path = tmp_path / "scenario.conf"
    write_file(str(path), scenario_to_text(scen, sim))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_outputs_and_determinism(self, scenario_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--scenario", scenario_file, "--out", out1]) == 0
        assert main(["simulate", "--scenario", scenario_file, "--out", out2]) == 0
        for name in ("trajectory.csv", "dyads.csv"):
            assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))
        text = read(os.path.join(out1, "trajectory.csv")).decode()
        assert text.startswith("period,actor,action\n")
        assert "\r" not in text

    def test_seed_changes_output(self, scenario_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--scenario", scenario_file, "--seed", "1", "--out", out1])
        main(["simulate", "--scenario", scenario_file, "--seed", "2", "--out", out2])
        assert read(os.path.join(out1, "trajectory.csv")) != read(
            os.path.join(out2, "trajectory.csv")
        )

    def test_coop_seed_env_fallback(self, scenario_file, tmp_path, monkeypatch):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        monkeypatch.setenv("COOP_SEED", "777")
        main(["simulate", "--scenario", scenario_file, "--out", out1])
        monkeypatch.delenv("COOP_SEED")
        main(["simulate", "--scenario", scenario_file, "--seed", "777", "--out", out2])
        assert read(os.path.join(out1, "trajectory.csv")) == read(
            os.path.join(out2, "trajectory.csv")
        )

    def test_malformed_coop_seed_exits_one(self, scenario_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COOP_SEED", "seven")
        assert main(["simulate", "--scenario", scenario_file, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: COOP_SEED must be an integer")

    def test_unknown_flag_exits_one(self, scenario_file, tmp_path):
        assert main(["simulate", "--scenario", scenario_file,
                     "--out", str(tmp_path), "--bogus"]) == 1

    def test_missing_scenario_exits_one(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.conf"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_non_finite_parameter_exits_one(self, tmp_path, capsys):
        scen = tmp_path / "nan.conf"
        scen.write_text(scenario_to_text(reference_scenario(), SimConfig(horizon=5))
                        .replace("rho0 = 1.0", "rho0 = nan"))
        out = str(tmp_path / "o")
        assert main(["simulate", "--scenario", str(scen), "--out", out]) == 1
        assert "error: rho0 must be finite" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "trajectory.csv"))

    @pytest.mark.parametrize("old, new, key", [
        ("rho0 = 1.0", "rho0 = nan.0", "rho0"),
        ("memory_k = 5", "memory_k = 4.5", "memory_k"),
        ("a_max = 40.0,40.0", "a_max = 40.0,4o", "a_max"),
        ("d = A,B,0.8", "d = A,B,0,8", None),
        ("d = A,B,0.8", "d = A,B,high", "d"),
        ("seed = 42", "seed = 42\nshock = soon,A,0.1", "shock period"),
        ("seed = 42", "seed = 42\nshock = 2,A,-", "shock delta"),
        ("horizon = 5", "horizon = 5.5", "horizon"),
        ("baseline_mode = moving_average",
         "baseline_mode = moving_average\npre_history = 9.0,nine", "pre_history"),
        ("seed = 42", "seed = 42\nteam = A,B\nloyalty = 0.2,0.3\nomega_prod = ten",
         "omega_prod"),
        ("seed = 42", "seed = 42\nteam = A,B\nloyalty = 0.2,0.3o", "loyalty"),
    ])
    def test_malformed_number_exits_one(self, tmp_path, capsys, old, new, key):
        text = scenario_to_text(reference_scenario(), SimConfig(horizon=5))
        assert old in text
        scen = tmp_path / "bad.conf"
        scen.write_text(text.replace(old, new))
        out = str(tmp_path / "o")
        assert main(["simulate", "--scenario", str(scen), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if key is not None:
            assert err.startswith(f"error: {key} must be ")
        assert not os.path.exists(os.path.join(out, "trajectory.csv"))


class TestSweepCommand:
    def test_small_grid_writes_targets(self, tmp_path):
        grid = tmp_path / "tiny.grid"
        grid.write_text(TINY_GRID)
        out = str(tmp_path / "out")
        code = main(["sweep", "--grid", str(grid), "--out", out, "--parallel", "1"])
        targets = read(os.path.join(out, "targets.csv")).decode()
        assert targets.count("\n") == 9  # header + 8 cells
        assert os.path.exists(os.path.join(out, "report.md"))
        assert code in (0, 2)  # tiny unbalanced grids may miss thresholds

    def test_non_finite_level_exits_one(self, tmp_path, capsys):
        grid = tmp_path / "nan.grid"
        grid.write_text(TINY_GRID + "d = 0.5,nan\n")
        assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_level_exits_one(self, tmp_path, capsys):
        grid = tmp_path / "bad.grid"
        grid.write_text(TINY_GRID + "d = 0.5,high\n")
        assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: d must be a number")

    def test_fractional_memory_k_exits_one(self, tmp_path, capsys):
        # the window is an integer: 2.5 is refused, not truncated to 2
        grid = tmp_path / "k.grid"
        grid.write_text("rho0 = 0.2,1.0\nkappa = 0.5,3.0\nmemory_k = 2.5,4\n")
        out = str(tmp_path / "o")
        assert main(["sweep", "--grid", str(grid), "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: memory_k must be an integer")
        assert not os.path.exists(os.path.join(out, "targets.csv"))

    def test_grid_too_small_for_statistics_exits_one(self, tmp_path, capsys):
        # 4 cells give fewer than the 6 ratios the Wilcoxon test needs
        grid = tmp_path / "four.grid"
        grid.write_text("rho0 = 0.2,1.0\nkappa = 0.5,1.5\n")
        out = str(tmp_path / "o")
        assert main(["sweep", "--grid", str(grid), "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: a 4-cell grid is too small")
        assert not os.path.exists(os.path.join(out, "targets.csv"))

    def test_parallel_is_accepted_and_ignored(self, tmp_path):
        grid = tmp_path / "tiny.grid"
        grid.write_text(TINY_GRID)
        outs = [str(tmp_path / name) for name in ("plain", "p1", "p4")]
        main(["sweep", "--grid", str(grid), "--out", outs[0]])
        main(["sweep", "--grid", str(grid), "--out", outs[1], "--parallel", "1"])
        main(["sweep", "--grid", str(grid), "--out", outs[2], "--parallel", "4"])
        texts = {read(os.path.join(out, "targets.csv")) for out in outs}
        assert len(texts) == 1

    def test_rerun_byte_identical(self, tmp_path):
        grid = tmp_path / "tiny.grid"
        grid.write_text(TINY_GRID)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        main(["sweep", "--grid", str(grid), "--out", out1, "--parallel", "1"])
        main(["sweep", "--grid", str(grid), "--out", out2, "--parallel", "1"])
        assert read(os.path.join(out1, "targets.csv")) == read(os.path.join(out2, "targets.csv"))
        assert read(os.path.join(out1, "report.md")) == read(os.path.join(out2, "report.md"))


class TestMonteCarloCommand:
    def test_small_run_writes_outputs(self, tmp_path):
        out = str(tmp_path / "mc")
        code = main(["montecarlo", "--trials", "6", "--seed", "3",
                     "--out", out, "--parallel", "1"])
        assert code in (0, 2)
        assert os.path.exists(os.path.join(out, "montecarlo.csv"))
        text = read(os.path.join(out, "montecarlo.md")).decode()
        assert "Robustness under parameter perturbation" in text

    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            main(["montecarlo", "--trials", "5", "--seed", "8", "--out", out,
                  "--parallel", "1"])
            outs.append(read(os.path.join(out, "montecarlo.csv")))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("args, message", [
        (["--trials", "0"], "trials must be >= 2"),
        (["--trials", "-2"], "trials must be >= 2"),
        (["--trials", "1"], "trials must be >= 2"),
        (["--trials", "4", "--perturb", "nan"], "perturb must be finite and >= 0"),
        (["--trials", "4", "--perturb", "-0.1"], "perturb must be finite and >= 0"),
    ])
    def test_bad_trials_or_perturb_exits_one(self, tmp_path, capsys, args, message):
        out = str(tmp_path / "mc")
        assert main(["montecarlo", *args, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not os.path.exists(os.path.join(out, "montecarlo.csv"))


class TestCaseStudyCommand:
    def test_baseline_outputs(self, tmp_path):
        out = str(tmp_path / "ios")
        assert main(["case-study", "ios", "--out", out]) == 0
        for name in ("trajectory.csv", "dyads.csv", "long.csv",
                     "phase_stats.csv", "rubric.md"):
            assert os.path.exists(os.path.join(out, name))

    def test_counterfactual_adds_comparison(self, tmp_path):
        out = str(tmp_path / "cf")
        assert main(["case-study", "ios", "--counterfactual", "--out", out]) == 0
        rubric = read(os.path.join(out, "rubric.md")).decode()
        assert "Counterfactual comparison" in rubric
        assert "Minimum bilateral trust" in rubric

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["case-study", "ios", "--out", out1])
        main(["case-study", "ios", "--out", out2])
        for name in ("trajectory.csv", "dyads.csv", "phase_stats.csv", "rubric.md"):
            assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))


SEEDED_COMMANDS = {
    "simulate": lambda scenario, grid: ["simulate", "--scenario", scenario],
    "sweep": lambda scenario, grid: ["sweep", "--grid", grid],
    "montecarlo": lambda scenario, grid: ["montecarlo", "--trials", "4"],
    "case-study": lambda scenario, grid: ["case-study", "ios", "--counterfactual"],
}


class TestSeedRange:
    # the generator keys on 64-bit words: 2**64 would alias seed 0 and -1
    # would alias 2**64 - 1, so both are refused before anything is written
    @pytest.mark.parametrize("source", ["flag", "COOP_SEED"])
    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    @pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
    def test_out_of_range_seed_exits_one(self, scenario_file, tmp_path, monkeypatch, capsys,
                                         command, seed, source):
        grid = tmp_path / "tiny.grid"
        grid.write_text(TINY_GRID)
        out = tmp_path / "o"
        argv = SEEDED_COMMANDS[command](scenario_file, str(grid)) + ["--out", str(out)]
        if source == "flag":
            argv += ["--seed", seed]
        else:
            monkeypatch.setenv("COOP_SEED", seed)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists() or not any(out.iterdir())

    def test_out_of_range_scenario_seed_exits_one(self, tmp_path, capsys):
        scen = tmp_path / "scenario.conf"
        scen.write_text(scenario_to_text(reference_scenario(), SimConfig(horizon=4))
                        .replace("seed = 42", f"seed = {2**64}"))
        assert main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be in [0, 2**64)")

    def test_largest_seed_runs(self, tmp_path):
        outs = [tmp_path / "max", tmp_path / "zero"]
        for out, seed in zip(outs, (2**64 - 1, 0)):
            assert main(["case-study", "ios", "--seed", str(seed), "--out", str(out)]) == 0
        assert read(outs[0] / "trajectory.csv") != read(outs[1] / "trajectory.csv")


class TestTranslateCommand:
    def test_translate_ios_dependencies(self, tmp_path):
        out = str(tmp_path / "scenario.conf")
        code = main(["translate", "--deps", cs.ios_dependency_csv_path(), "--out", out])
        assert code == 0
        text = read(out).decode()
        assert "d = Major,Apple,0.8775" in text
        assert "actors = Apple,Major,Small" in text

    def test_translate_with_elicitation(self, tmp_path):
        elicit = tmp_path / "elicit.conf"
        elicit.write_text("rho0 = 0.85\neta = 1.3\nkappa = 1.2\n")
        out = str(tmp_path / "s.conf")
        assert main(["translate", "--deps", cs.ios_dependency_csv_path(),
                     "--elicit", str(elicit), "--out", out]) == 0
        assert "rho0 = 0.85" in read(out).decode()

    @pytest.mark.parametrize("column", ["weight", "exists", "criticality"])
    def test_malformed_dependency_number_exits_one(self, tmp_path, capsys, column):
        with open(cs.ios_dependency_csv_path(), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index(column)] = "n/a"
        deps = tmp_path / "deps.csv"
        deps.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        assert main(["translate", "--deps", str(deps), "--out", str(tmp_path / "s.conf")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {column} must be ")

    @pytest.mark.parametrize("line", ["horizon = forty", "seed = 4.2",
                                      "rho0_target = 1.2\nrho0_observed = low"])
    def test_malformed_elicited_number_exits_one(self, tmp_path, capsys, line):
        elicit = tmp_path / "elicit.conf"
        elicit.write_text(line + "\n")
        assert main(["translate", "--deps", cs.ios_dependency_csv_path(),
                     "--elicit", str(elicit), "--out", str(tmp_path / "s.conf")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_elicitation_exits_one(self, tmp_path):
        elicit = tmp_path / "elicit.conf"
        elicit.write_text("kappa = -3\n")
        out = str(tmp_path / "s.conf")
        assert main(["translate", "--deps", cs.ios_dependency_csv_path(),
                     "--elicit", str(elicit), "--out", out]) == 1


class TestPropCheckCommand:
    def test_prop2_single_cell(self, capsys):
        assert main(["prop-check", "--prop", "2", "--k", "5", "--kappa", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "tau_f=6" in out and "pass" in out

    @pytest.mark.parametrize("flag, message", [("--k", "memory_k must be an integer >= 1"),
                                               ("--kappa", "kappa must be > 0")])
    def test_zero_prop2_cell_exits_one(self, capsys, flag, message):
        # a zero is validated, not replaced by the default levels
        assert main(["prop-check", "--prop", "2", flag, "0"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_prop1(self, capsys):
        assert main(["prop-check", "--prop", "1"]) == 0
        assert "rho*" in capsys.readouterr().out


class TestReportCommand:
    def test_combines_prior_outputs(self, tmp_path):
        out = str(tmp_path / "ios")
        main(["case-study", "ios", "--out", out])
        combined = str(tmp_path / "combined.md")
        assert main(["report", "--in", out, "--out", combined]) == 0
        assert "Validation rubric" in read(combined).decode()

    def test_empty_directory_exits_one(self, tmp_path):
        assert main(["report", "--in", str(tmp_path), "--out",
                     str(tmp_path / "x.md")]) == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coopsim.cli", "prop-check", "--prop", "2",
         "--k", "1", "--kappa", "2.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "tau_f=2" in proc.stdout
