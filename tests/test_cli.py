import argparse
import ast
import functools
import glob
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from dataclasses import replace

from coopsim import case_study as cs
from coopsim import solver
from coopsim.cli import build_parser, main
from coopsim.files import dyads_csv, read_scenario, scenario_to_text, trajectory_csv, write_file
from coopsim.params import RANGES
from coopsim.scenario import SimConfig, reference_scenario
from coopsim.simulation import run
from coopsim.translate import ELICITATION_KEYS, STEP_RANGES

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

    def test_t4_fails_where_neither_dependency_responds(self, tmp_path, capsys):
        # lambda_r = 0 switches reciprocity off: both responses are zero, the
        # ratio is undefined and those 10 cells fail T4
        grid = tmp_path / "flat.grid"
        grid.write_text("lambda_r = 0.0,1.0\nkappa = 0.5,1.0,1.5,2.0,3.0\nt0 = 0.3,0.7\n")
        out = str(tmp_path / "out")
        main(["sweep", "--grid", str(grid), "--out", out])
        assert "t4 Asymmetric differentiation: 10/20 (50.0%)" in capsys.readouterr().out
        header, *rows = read(os.path.join(out, "targets.csv")).decode().splitlines()
        col = {name: k for k, name in enumerate(header.split(","))}
        for row in (line.split(",") for line in rows):
            flat = row[col["lambda_r"]] == "0.0"
            if flat:
                assert row[col["response_high"]] == row[col["response_low"]] == "0.0"
            assert (row[col["ratio"]] == "nan") == flat
            assert row[col["t4"]] == ("0" if flat else "1")

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

    def test_memory_k_beyond_the_forgiveness_run_exits_one(self, tmp_path, capsys):
        # at k = 26 the forgiveness run would read as recovered at once
        grid = tmp_path / "k.grid"
        grid.write_text("rho0 = 0.2,1.0\nkappa = 0.5,3.0\nmemory_k = 4,26\n")
        out = str(tmp_path / "o")
        assert main(["sweep", "--grid", str(grid), "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: memory_k levels above 25 ")
        assert not os.path.exists(out)

    def test_grid_too_small_for_statistics_exits_one(self, tmp_path, capsys):
        # 4 cells give fewer than the 6 ratios the Wilcoxon test needs
        grid = tmp_path / "four.grid"
        grid.write_text("rho0 = 0.2,1.0\nkappa = 0.5,1.5\n")
        out = str(tmp_path / "o")
        assert main(["sweep", "--grid", str(grid), "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: a 4-cell grid is too small")
        assert not os.path.exists(os.path.join(out, "targets.csv"))

    @pytest.mark.parametrize("channel", ["lambda_r", "rho0"])
    def test_grid_without_a_finite_ratio_reports_n_a(self, tmp_path, channel, capsys):
        # with the reciprocity channel off every response is 0, so every
        # differentiation ratio is 0/0: the ratio statistics read n/a
        grid = tmp_path / "zero.grid"
        grid.write_text(f"{channel} = 0.0\nkappa = 0.5,1,1.5,2,3\nmemory_k = 1,2,4,8,16\n")
        out = str(tmp_path / "o")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sweep", "--grid", str(grid), "--out", out]) == 2
        assert capsys.readouterr().err == ""
        assert os.path.exists(os.path.join(out, "targets.csv"))
        report = read(os.path.join(out, "report.md")).decode()
        assert "- mean ratio: n/a (sd n/a)\n- 25 of 25 ratios not finite" in report
        assert "- bootstrap 95% CI of the mean ratio: n/a\n" in report
        assert "- Wilcoxon signed-rank vs 1.5 (one-sided): n/a\n" in report

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

    @pytest.mark.parametrize("column, value", [
        ("weight", "n/a"), ("exists", "n/a"), ("criticality", "n/a"),
        ("exists", "7"), ("exists", "-1"),
    ], ids=["weight", "exists", "criticality", "exists-7", "exists-negative"])
    def test_malformed_dependency_number_exits_one(self, tmp_path, capsys, column, value):
        with open(cs.ios_dependency_csv_path(), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index(column)] = value
        deps = tmp_path / "deps.csv"
        deps.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        assert main(["translate", "--deps", str(deps), "--out", str(tmp_path / "s.conf")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {column} must be ")

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_dependency_weight_exits_one(self, tmp_path, capsys, weight):
        # named as the weight, not as the matrix it would poison, and quietly
        with open(cs.ios_dependency_csv_path(), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        row = lines[1].split(",")
        row[lines[0].split(",").index("weight")] = weight
        deps = tmp_path / "deps.csv"
        deps.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["translate", "--deps", str(deps), "--out", str(tmp_path / "s.conf")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: weight must be finite") and "RuntimeWarning" not in err

    @pytest.mark.parametrize("line", ["horizon = forty", "seed = 4.2",
                                      "rho0_target = 1.2\nrho0_observed = low"])
    def test_malformed_elicited_number_exits_one(self, tmp_path, capsys, line):
        elicit = tmp_path / "elicit.conf"
        elicit.write_text(line + "\n")
        assert main(["translate", "--deps", cs.ios_dependency_csv_path(),
                     "--elicit", str(elicit), "--out", str(tmp_path / "s.conf")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text, message", [
        ("rho0_target = inf\nrho0_observed = inf", "rho0_target must be finite, got inf"),
        ("rho0_target = 1.2\nrho0_observed = nan", "rho0_observed must be finite, got nan"),
        ("rho0_target = 1.2", "the reciprocity gap needs both rho0_target and rho0_observed, "
                              "got only rho0_target"),
    ], ids=["non-finite", "nan", "lone-key"])
    def test_bad_reciprocity_gap_exits_one(self, tmp_path, capsys, text, message):
        elicit = tmp_path / "elicit.conf"
        elicit.write_text(text + "\n")
        out = tmp_path / "s.conf"
        assert main(["translate", "--deps", cs.ios_dependency_csv_path(),
                     "--elicit", str(elicit), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_invalid_elicitation_exits_one(self, tmp_path):
        elicit = tmp_path / "elicit.conf"
        elicit.write_text("kappa = -3\n")
        out = str(tmp_path / "s.conf")
        assert main(["translate", "--deps", cs.ios_dependency_csv_path(),
                     "--elicit", str(elicit), "--out", out]) == 1

    @pytest.mark.parametrize("text, message", [
        ("rho_0 = 2.5", "unknown elicitation key 'rho_0'"),
        ("lambda_plus = 0.5", "unknown elicitation key 'lambda_plus'"),
        ("kappa = 2\nkappa = 3", "key 'kappa' given more than once"),
        ("rho0 = x", "step 5 (reciprocity sensitivity): rho0 must be a number, got 'x'"),
    ], ids=["misspelt", "not-elicited", "repeated", "malformed"])
    def test_elicitation_read_by_the_scenario_rules(self, tmp_path, capsys, text, message):
        elicit = tmp_path / "elicit.conf"
        elicit.write_text(text + "\n")
        out = tmp_path / "s.conf"
        assert main(["translate", "--deps", cs.ios_dependency_csv_path(),
                     "--elicit", str(elicit), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


NOT_UTF8 = "error: {latin1}: 'utf-8' codec can't decode"


class TestUnreadablePaths:
    @pytest.fixture()
    def paths(self, scenario_file, tmp_path):
        latin1 = tmp_path / "latin1.conf"
        latin1.write_bytes(b"# caf\xe9\n")
        inputs = tmp_path / "in"
        inputs.mkdir()
        (inputs / "report.md").write_bytes(b"# caf\xe9\n")
        return {"dir": str(tmp_path), "latin1": str(latin1), "scenario": scenario_file,
                "report": str(inputs / "report.md"), "inputs": str(inputs)}

    # Each case: the command line, the path its error must name, and how the
    # error line starts.
    @pytest.mark.parametrize("argv, culprit, start", [
        (["simulate", "--scenario", "{dir}", "--out", "{dir}/o"], "dir", "error: "),
        (["sweep", "--grid", "{dir}", "--out", "{dir}/o"], "dir", "error: "),
        (["translate", "--deps", cs.ios_dependency_csv_path(), "--elicit", "{dir}",
          "--out", "{dir}/s.conf"], "dir", "error: "),
        (["simulate", "--scenario", "{latin1}", "--out", "{dir}/o"], "latin1", NOT_UTF8),
        (["simulate", "--scenario", "{scenario}", "--out", "{scenario}"], "scenario",
         "error: {scenario}: --out is a file"),
        (["sweep", "--grid", "{latin1}", "--out", "{dir}/o"], "latin1", NOT_UTF8),
        (["translate", "--deps", "{latin1}", "--out", "{dir}/s.conf"], "latin1", NOT_UTF8),
        (["translate", "--deps", cs.ios_dependency_csv_path(), "--elicit", "{latin1}",
          "--out", "{dir}/s.conf"], "latin1", NOT_UTF8),
        (["report", "--in", "{inputs}", "--out", "{dir}/all.md"], "report",
         "error: {report}: 'utf-8' codec can't decode"),
    ], ids=["scenario-dir", "grid-dir", "elicit-dir", "scenario-not-utf8", "out-is-a-file",
            "grid-not-utf8", "deps-not-utf8", "elicit-not-utf8", "report-not-utf8"])
    def test_exits_one_with_an_error_line(self, argv, culprit, start, paths, capsys):
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(start.format(**paths)) and paths[culprit] in err
        assert len(err.splitlines()) == 1

    def test_out_that_is_a_file_fails_before_the_job_runs(self, scenario_file, monkeypatch,
                                                           capsys):
        calls = []

        def run_ios_pair(*args):
            calls.append(args)
            raise RuntimeError("the job ran")

        monkeypatch.setattr(cs, "run_ios_pair", run_ios_pair)
        assert main(["case-study", "ios", "--counterfactual", "--out", scenario_file]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {scenario_file}: --out is a file, not a directory"]
        assert calls == []

    def test_out_below_a_file_fails_before_the_job_runs(self, scenario_file, monkeypatch,
                                                        capsys):
        calls = []
        monkeypatch.setattr(cs, "run_ios_pair", lambda *args: calls.append(args))
        out = os.path.join(scenario_file, "x", "y")
        assert main(["case-study", "ios", "--counterfactual", "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {out}: {os.path.abspath(scenario_file)} is a file, "
                       "not a directory"]
        assert calls == []

    @pytest.mark.parametrize("command", ["simulate", "sweep", "montecarlo"])
    def test_every_directory_out_is_checked_first(self, command, scenario_file, capsys):
        job = {"simulate": ["--scenario", scenario_file], "sweep": ["--grid", "smoke"],
               "montecarlo": ["--trials", "2"]}[command]
        assert main([command, *job, "--out", scenario_file]) == 1
        assert capsys.readouterr().err.startswith(f"error: {scenario_file}: --out is a file")

    def test_translate_still_overwrites_its_out_file(self, scenario_file):
        assert main(["translate", "--deps", cs.ios_dependency_csv_path(),
                     "--out", scenario_file]) == 0
        assert "actors = Apple,Major,Small" in read(scenario_file).decode()


class TestOverflowingGate:
    @pytest.mark.parametrize("mode", ["adjustment", "best_response"])
    def test_exits_one_with_one_error_line_and_no_output(self, mode, tmp_path, capsys):
        # lambda_r * (1 + omega * D) * rho0 * D overflows to inf, and
        # inf * tanh(0) would make every later action NaN
        path = str(tmp_path / "big.conf")
        write_file(path, scenario_to_text(reference_scenario(rho0=1e308, lambda_r=5.0),
                                          SimConfig(horizon=12)))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--scenario", path, "--mode", mode,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the reciprocity gate ")
        assert not (out / "trajectory.csv").exists()


class TestOverflowingObjective:
    def _simulate(self, tmp_path, **econ):
        path = str(tmp_path / "big.conf")
        scen = reference_scenario()
        write_file(path, scenario_to_text(replace(scen, econ=replace(scen.econ, **econ)),
                                          SimConfig(horizon=12)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(["simulate", "--scenario", path, "--mode", "best_response",
                         "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("econ", [{"theta_v": 1e308}, {"endowments": (1e308, 1e308)}],
                             ids=["theta_v", "endowments"])
    def test_exits_one_with_one_error_line_and_no_output(self, econ, tmp_path, capsys):
        # the objective overflows to inf, whose argmax would be meaningless
        assert self._simulate(tmp_path, **econ) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the best-response objective of actor A is not finite, got inf"]
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_a_large_finite_objective_solves(self, tmp_path):
        # past 2 ** 14, best - 1e-12 rounds to best: the maximum still qualifies
        assert self._simulate(tmp_path, endowments=(20000.0, 20000.0)) == 0
        assert (tmp_path / "o" / "trajectory.csv").exists()


class TestSolveWarnings:
    def test_unconverged_periods_are_listed_on_stderr(self, scenario_file, tmp_path,
                                                       monkeypatch, capsys):
        # One iteration per solve leaves a solve whose warm start moves unconverged.
        monkeypatch.setattr(solver, "SolverConfig",
                            functools.partial(solver.SolverConfig, max_iters=1))
        scenario, sim = read_scenario(scenario_file)
        traj = run(scenario, replace(sim, mode="best_response"))
        unsolved = [t + 1 for t in np.flatnonzero(~traj.converged).tolist()]
        assert unsolved

        out = str(tmp_path / "o")
        assert main(["simulate", "--scenario", scenario_file, "--mode", "best_response",
                     "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: the best-response solve did not converge in "
                                f"periods {', '.join(map(str, unsolved))}\n")
        assert captured.out == f"simulated {traj.horizon} periods for 2 actors -> {out}\n"
        assert read(os.path.join(out, "trajectory.csv")).decode() == trajectory_csv(traj)
        assert read(os.path.join(out, "dyads.csv")).decode() == dyads_csv(traj)

    def test_converged_run_prints_no_warning(self, scenario_file, tmp_path, capsys):
        assert main(["simulate", "--scenario", scenario_file, "--mode", "best_response",
                     "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""


class TestPropCheckCommand:
    def test_prop2_single_cell(self, capsys):
        assert main(["prop-check", "--prop", "2", "--k", "5", "--kappa", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "tau_f=6" in out and "pass" in out

    def test_prop2_beyond_the_forgiveness_run_exits_one(self, capsys):
        # at k = 26 the forgiveness run would read as recovered at once, so
        # the window is rejected as a grid level above 25 is
        assert main(["prop-check", "--prop", "2", "--k", "26", "--kappa", "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: memory_k levels above 25")
        assert "tau_f" not in captured.out

    @pytest.mark.parametrize("flag, message", [("--k", "memory_k must be >= 1"),
                                               ("--kappa", "kappa must be > 0")])
    def test_zero_prop2_cell_exits_one(self, capsys, flag, message):
        # a zero is validated, not replaced by the default levels
        assert main(["prop-check", "--prop", "2", flag, "0"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_prop1(self, capsys):
        assert main(["prop-check", "--prop", "1"]) == 0
        assert "rho*" in capsys.readouterr().out

    def test_bad_prop2_option_fails_before_any_proposition_runs(self, capsys):
        # without --prop all three would run; the bad window stops the job
        # before prop 1 prints
        assert main(["prop-check", "--k", "26"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: memory_k levels above 25")
        assert captured.out == ""

    @pytest.mark.parametrize("prop", ["1", "3"])
    @pytest.mark.parametrize("options", [["--k", "3"], ["--kappa", "9"],
                                         ["--k", "3", "--kappa", "9"]])
    def test_prop2_options_with_another_prop_exit_one(self, capsys, prop, options):
        # the options reach prop 2 only, so they are refused, not ignored
        assert main(["prop-check", "--prop", prop, *options]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --k and --kappa apply to prop 2 only, not prop {prop}\n"
        assert captured.out == ""


class TestReportCommand:
    def test_combines_prior_outputs(self, tmp_path):
        out = str(tmp_path / "ios")
        main(["case-study", "ios", "--out", out])
        combined = str(tmp_path / "combined.md")
        assert main(["report", "--in", out, "--out", combined]) == 0
        assert "Validation rubric" in read(combined).decode()

    def test_empty_directory_exits_one(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path), "--out",
                     str(tmp_path / "x.md")]) == 1
        assert capsys.readouterr().err == f"error: no report inputs found under {tmp_path}\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coopsim.cli", "prop-check", "--prop", "2",
         "--k", "1", "--kappa", "2.0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "tau_f=2" in proc.stdout


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_command_block_lists_every_option():
    # README documents the ignored --parallel in prose, not in the block
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    documented: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        if line.startswith("coopsim "):
            command = documented.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z][a-z-]*", line))
    (subparsers,) = (a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {o for action in sub._actions for o in action.option_strings
               if o.startswith("--") and o not in ("--help", "--parallel")}
        for name, sub in subparsers.choices.items()
    }
    assert documented == options


def test_every_export_has_a_caller():
    # each name the package exports is used somewhere in the package or in
    # scripts/ beyond its own def or class (imports and docstrings aside)
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    package = os.path.join(root, "src", "coopsim")
    with open(os.path.join(package, "__init__.py"), encoding="utf-8") as fh:
        exported = [alias.asname or alias.name for node in ast.parse(fh.read()).body
                    if isinstance(node, ast.ImportFrom) for alias in node.names]
    trees = []
    for path in (glob.glob(os.path.join(package, "*.py"))
                 + glob.glob(os.path.join(root, "scripts", "*.py"))):
        if os.path.basename(path) != "__init__.py":
            with open(path, encoding="utf-8") as fh:
                trees.append(ast.parse(fh.read()))

    def used(node, name, own=False):
        own = own or (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
        if not own and name in (getattr(node, "id", None), getattr(node, "attr", None)):
            return True
        return any(used(child, name, own) for child in ast.iter_child_nodes(node))

    assert [name for name in exported if not any(used(t, name) for t in trees)] == []


def test_readme_elicitation_table_lists_every_key():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("**Elicitation files**", 1)[1].split("\n## ", 1)[0]
    documented = dict(re.findall(r"^\| `(\w+)` \| (\w+) \|", section, re.M))
    assert list(documented) == list(ELICITATION_KEYS)
    assert {key: documented[key] for key in STEP_RANGES} == {
        key: str(step) for key, (step, *_) in STEP_RANGES.items()}


def test_readme_range_table_lists_every_range():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Parameter ranges", 1)[1].split("\n## ", 1)[0]
    documented = dict(re.findall(r"^\| `(\w+)` \|.*\| `([^`]+)` \|$", section, re.M))
    assert documented == {name: f"{ends[0]}{lo:g}, {hi:g}{ends[1]}"
                          for name, (lo, hi, ends) in RANGES.items()}
