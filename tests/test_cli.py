import argparse
import ast
import contextlib
import functools
import glob
import io
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim import case_study as cs
from coopsim import solver
from coopsim.cli import build_parser, main
from coopsim.errors import ConfigurationError
from coopsim.files import dyads_csv, read_scenario, scenario_to_text, trajectory_csv, write_file
from coopsim.params import RANGES
from coopsim.scenario import SIM_MODES, SimConfig, reference_scenario
from coopsim.simulation import run
from coopsim.translate import ELICITATION_KEYS, STEP_RANGES

TINY_GRID = "rho0 = 0.2,1.0\nkappa = 0.5,3.0\nmemory_k = 1,4\n"
#: A count past int64, refused by name before any array is sized by it.
HUGE = str(10**20)
#: A horizon below int64 whose record numpy could not size.
LONG = 2**61
BENCHMARK_SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark",
                                  "scenarios", "equilibrium.conf")


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

    def test_periods_beyond_int64_exits_one(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", scenario_file, "--periods", HUGE,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: horizon must be < 2**63, got {HUGE}\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["scenario", "periods"])
    def test_horizon_past_numpy_sizes_exits_one(self, where, scenario_file, tmp_path, capsys):
        scenario, out = tmp_path / "long.conf", tmp_path / "o"
        with open(scenario_file, encoding="utf-8") as fh:
            scenario.write_text(fh.read().replace("horizon = 12", f"horizon = {LONG}"))
        argv = (["--scenario", str(scenario)] if where == "scenario"
                else ["--scenario", scenario_file, "--periods", str(LONG)])
        assert main(["simulate", *argv, "--out", str(out)]) == 1
        message = f"horizon {LONG} is too long: its record would pass numpy's array size limit"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        # a scripted run is refused before its script is sized by the horizon
        with pytest.raises(ConfigurationError) as refused:
            run(reference_scenario(), SimConfig(horizon=LONG), {0: {1: 0.5}})
        assert str(refused.value) == message

    @pytest.mark.parametrize("mode", ["adjustment", "best_response"])
    def test_window_past_the_run_reads_the_whole_run(self, mode, tmp_path):
        # a window longer than the run and its pre-history reads no more
        # periods, whatever its length: 10**18 sizes no array by it
        with open(BENCHMARK_SCENARIO, encoding="utf-8") as fh:
            text = fh.read()
        scenario, sim = read_scenario(BENCHMARK_SCENARIO)
        assert sim.horizon == 40 and scenario.pre_history == ()
        written = []
        for k in (40, 10**18):
            scenario, out = tmp_path / f"k{k}.conf", tmp_path / f"k{k}"
            scenario.write_text(text.replace("memory_k = 4\n", f"memory_k = {k}\n"))
            assert main(["simulate", "--scenario", str(scenario), "--mode", mode,
                         "--out", str(out)]) == 0
            written.append([read(out / name) for name in ("trajectory.csv", "dyads.csv")])
        assert written[0] == written[1]

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
        ("horizon = 5", f"horizon = {HUGE}", "horizon"),
        ("memory_k = 5", f"memory_k = {HUGE}", "memory_k"),
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

    @pytest.mark.parametrize("text, message", [
        (TINY_GRID + "d = 0.5,nan\n", "d must be finite, got nan"),
        (TINY_GRID + "d = 0.5,high\n", "d must be a number, got 'high'"),
        # the window is an integer: 2.5 is refused, not truncated to 2
        ("rho0 = 0.2,1.0\nkappa = 0.5,3.0\nmemory_k = 2.5,4\n",
         "memory_k must be an integer, got '2.5'"),
        # at k = 26 the forgiveness run would read as recovered at once
        ("rho0 = 0.2,1.0\nkappa = 0.5,3.0\nmemory_k = 4,26\n",
         "memory_k levels above 25 are beyond the forgiveness run: its signal 0.5/k would "
         "start inside the recovery tolerance 0.02"),
        # 4 cells give fewer than the 6 ratios the Wilcoxon test needs
        ("rho0 = 0.2,1.0\nkappa = 0.5,1.5\n",
         "a 4-cell grid is too small for the differentiation statistics: normal "
         "approximation needs at least 6 nonzero differences"),
    ], ids=["non-finite-level", "malformed-level", "fractional-memory-k",
            "memory-k-beyond-the-forgiveness-run", "too-small-for-statistics"])
    def test_bad_grid_exits_one(self, tmp_path, capsys, text, message):
        grid = tmp_path / "bad.grid"
        grid.write_text(text)
        out = tmp_path / "o"
        assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("channel", ["lambda_r", "rho0"])
    def test_grid_without_a_finite_ratio_reports_n_a(self, tmp_path, channel, capsys):
        # with the reciprocity channel off every response is 0, so every
        # differentiation ratio is 0/0: the ratio statistics read n/a, and
        # with no variance anywhere there is no t test or effect size either
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
        assert ("- paired t(24) = n/a (the high - low differences have zero variance)\n"
                "- Cohen's d = n/a (both response samples have zero variance)\n") in report

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

    def test_no_defined_ratio_prints_no_minimum(self, tmp_path, capsys):
        # both trials' responses are zero, so every ratio is 0/0
        out = str(tmp_path / "mc")
        assert main(["montecarlo", "--trials", "2", "--perturb", "100", "--seed", "1",
                     "--out", out]) == 2
        assert capsys.readouterr().out == (
            "trials=2 all-targets=0.0% ratio>=1.5 in 0.0% (min n/a)\n")
        assert "| Minimum ratio | n/a |" in read(os.path.join(out, "montecarlo.md")).decode()

    @pytest.mark.parametrize("args, message", [
        (["--trials", "0"], "trials must be >= 2"),
        (["--trials", "-2"], "trials must be >= 2"),
        (["--trials", "1"], "trials must be >= 2"),
        (["--trials", "4", "--perturb", "nan"], "perturb must be finite and >= 0"),
        (["--trials", "4", "--perturb", "-0.1"], "perturb must be finite and >= 0"),
        (["--trials", HUGE], f"trials must be < 2**63, got {HUGE}"),
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

    @pytest.mark.parametrize("label, written", [("Dev #1", "Dev #1"), ('"A,B"', "A,B")],
                             ids=["hash", "comma"])
    def test_actor_label_a_scenario_file_cannot_hold_exits_one(self, tmp_path, capsys, label,
                                                               written):
        # '#' would start a comment and ',' split the actors line when read back
        deps = tmp_path / "deps.csv"
        deps.write_text("depender,dependee,dependum,type,weight,exists,criticality\n"
                        f"{label},Platform,API,resource,0.5,1,0.5\n")
        out = tmp_path / "s.conf"
        assert main(["translate", "--deps", str(deps), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: actor label {written!r} must be ")
        assert err.count("\n") == 1 and "error:" not in err[1:]
        assert not out.exists()

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

    @pytest.mark.parametrize("text, message", [
        ("horizon = forty", "horizon must be an integer, got 'forty'"),
        ("seed = 4.2", "seed must be an integer, got '4.2'"),
        ("rho0_target = 1.2\nrho0_observed = low", "rho0_observed must be a number, got 'low'"),
        ("rho0_target = inf\nrho0_observed = inf", "rho0_target must be finite, got inf"),
        ("rho0_target = 1.2\nrho0_observed = nan", "rho0_observed must be finite, got nan"),
        ("rho0_target = 1.2", "the reciprocity gap needs both rho0_target and rho0_observed, "
                              "got only rho0_target"),
        ("kappa = -3", "step 6 (response sensitivity): kappa = -3.0 outside the valid range "
                       "[1e-09, 5.0]"),
        # the keys are read by the scenario file's rules
        ("rho_0 = 2.5", "unknown elicitation key 'rho_0'"),
        ("lambda_plus = 0.5", "unknown elicitation key 'lambda_plus'"),
        ("kappa = 2\nkappa = 3", "key 'kappa' given more than once"),
        ("rho0 = x", "step 5 (reciprocity sensitivity): rho0 must be a number, got 'x'"),
        (f"memory_k = {HUGE}", f"memory_k must be < 2**63, got {HUGE}"),
    ], ids=["horizon-not-integer", "seed-not-integer", "gap-not-number", "gap-non-finite",
            "gap-nan", "gap-lone-key", "out-of-range", "misspelt", "not-elicited", "repeated",
            "malformed", "memory-k-beyond-int64"])
    def test_bad_elicitation_exits_one(self, tmp_path, capsys, text, message):
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


#: Values that no option may accept: letters (never a digit, a sign or an
#: option), non-integers for the int options, and below-range or 10**20
#: numbers.  No drawn value is a valid size, which would start a long job.
LETTERS = st.text("abcdefghijklmnopqrstuvwxyz", max_size=6)
NOT_AN_INT = LETTERS | st.sampled_from(["nan", "inf", "-inf", "2.5", "1e3"])
NOT_A_FLOAT = LETTERS | st.sampled_from(["nan", "inf", "-inf"])
MISSING = LETTERS.map("{{missing}}/{}".format)


def _rejected_ints(lo):
    """The rejected values of an int option whose range starts at ``lo``."""
    return NOT_AN_INT | st.integers(max_value=lo - 1).map(str) | st.just(HUGE)


#: Per case: the command line around the option and the option's rejected
#: values.  The command lines are valid and small without the option.
SIMULATE = ["simulate", "--scenario", "{scenario}", "--out", "{out}"]
SWEEP = ["sweep", "--grid", "{grid}", "--out", "{out}"]
MONTECARLO = ["montecarlo", "--trials", "2", "--out", "{out}"]
CASE_STUDY = ["case-study", "ios", "--out", "{out}"]
PROP2 = ["prop-check", "--prop", "2"]
BAD_OPTIONS = [
    *((argv, "--seed", _rejected_ints(0)) for argv in (SIMULATE, SWEEP, MONTECARLO, CASE_STUDY)),
    (SIMULATE, "--periods", _rejected_ints(1)),
    (SIMULATE, "--mode", LETTERS.filter(lambda text: text not in SIM_MODES)),
    (MONTECARLO, "--trials", _rejected_ints(2)),
    (MONTECARLO, "--perturb", NOT_A_FLOAT | st.floats(max_value=-1e-300).map(repr)),
    (SWEEP, "--parallel", NOT_AN_INT),
    (MONTECARLO, "--parallel", NOT_AN_INT),
    (["prop-check"], "--prop", _rejected_ints(1) | st.just("4")),
    (PROP2, "--k", _rejected_ints(1)),
    (PROP2, "--kappa", NOT_A_FLOAT | st.floats(max_value=0.0, allow_nan=False).map(repr)),
    (["simulate", "--out", "{out}"], "--scenario", MISSING),
    (["sweep", "--out", "{out}"], "--grid", MISSING),
    (["translate", "--out", "{out}"], "--deps", MISSING),
    (["translate", "--deps", cs.ios_dependency_csv_path(), "--out", "{out}"], "--elicit", MISSING),
    (["report", "--out", "{out}"], "--in", MISSING),
]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_inputs")
    write_file(str(base / "scenario.conf"),
               scenario_to_text(reference_scenario(), SimConfig(horizon=4)))
    (base / "tiny.grid").write_text(TINY_GRID)
    return {"scenario": str(base / "scenario.conf"), "grid": str(base / "tiny.grid"),
            "out": str(base / "out"), "missing": str(base / "missing")}


@settings(deadline=None)
@given(data=st.data())
def test_every_option_parse_failure_exits_one_with_one_error_line(cli_inputs, data):
    argv, flag, values = data.draw(st.sampled_from(BAD_OPTIONS), label="case")
    value = data.draw(values, label="value")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([arg.format(**cli_inputs) for arg in argv]
                    + [f"{flag}={value.format(**cli_inputs)}"])
    assert code == 1
    # one line, or argparse's usage lines and then its one error line
    lines = err.getvalue().splitlines()
    assert lines[-1].startswith("error: ") or lines[0].startswith("usage: "), lines
    assert [line for line in lines if "error:" in line] == lines[-1:], lines
    assert not os.path.exists(cli_inputs["out"])


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: out of memory"),
    (MemoryError("Unable to allocate 8.00 EiB for an array"),
     "error: Unable to allocate 8.00 EiB for an array"),
], ids=["bare", "numpy"])
def test_out_of_memory_exits_one_with_an_error_line(exc, line, tmp_path, monkeypatch, capsys):
    def run_ios_pair(*args):
        raise exc

    monkeypatch.setattr(cs, "run_ios_pair", run_ios_pair)
    out = tmp_path / "o"
    assert main(["case-study", "ios", "--counterfactual", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


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
