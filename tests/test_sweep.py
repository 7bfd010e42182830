import itertools
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim import simulation, sweep
from coopsim.errors import ConfigurationError
from coopsim.files import targets_csv
from coopsim.params import RANGES, TrustParams
from coopsim.reports import render_monte_carlo, render_target_report
from coopsim.simulation import TRUST_FIELDS, RunBatch, record_batch
from coopsim.stats import bootstrap_ci
from coopsim.sweep import (
    FULL_GRID,
    GRID_KEYS,
    NO_RECOVERY,
    RECOVERY_SUSTAIN,
    RECOVERY_TOL,
    REFERENCE_CELL,
    RHO0_EXTREMES,
    SMOKE_GRID,
    TARGETS,
    WEIGHT_GRID,
    MonteCarloReport,
    ParameterGrid,
    SweepCell,
    columns,
    differentiation_stats,
    measure_cell,
    measure_cells,
    measure_targets,
    monte_carlo,
    recovery_times,
    run_sweep,
)

import oracles
from oracles import signal_recovery_time


def assert_tables_equal(got, want):
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].tobytes() == want[key].tobytes(), key


def table_rows(table, order):
    return {key: col[order] for key, col in table.items()}


class TestGrid:
    def test_builtin_grid_sizes(self):
        assert FULL_GRID.size == 5**6 == 15625
        assert WEIGHT_GRID.size == 15625
        assert SMOKE_GRID.size == 3**6 == 729

    def test_degenerate_grid(self):
        g = ParameterGrid({"rho0": (1.0,)})
        assert g.size == 1
        assert {key: col.tolist() for key, col in g.columns().items()} == {
            key: [getattr(REFERENCE_CELL, key)] for key in GRID_KEYS}

    def test_cell_enumeration_roundtrip(self):
        g = ParameterGrid({"rho0": (0.2, 1.0), "kappa": (0.5, 2.0), "memory_k": (1, 4)})
        cols = g.columns()
        rows = list(zip(*(cols[key].tolist() for key in GRID_KEYS)))
        assert len(set(rows)) == 8
        assert cols["memory_k"].dtype.kind == "i" and rows[0][GRID_KEYS.index("memory_k")] == 1

    @pytest.mark.parametrize("grid", [
        SMOKE_GRID, WEIGHT_GRID,
        ParameterGrid({"d": (1.0, 0.2), "memory_k": (16, 1, 4), "rho0": (0.6, 0.2)}),
    ], ids=["smoke", "weights", "keys-out-of-order"])
    def test_columns_follow_itertools_product(self, grid):
        # row-major in GRID_KEYS order: the last parameter varies fastest
        levels = [grid.levels.get(key, (getattr(REFERENCE_CELL, key),)) for key in GRID_KEYS]
        cols = grid.columns()
        assert list(cols) == list(GRID_KEYS)
        assert list(zip(*(cols[key].tolist() for key in GRID_KEYS))) == list(
            itertools.product(*levels))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterGrid({"bogus": (1.0,)})

    @pytest.mark.parametrize("levels, message", [
        ({"memory_k": (4, 2.5)}, "memory_k must be an integer"),
        ({"memory_k": (0,)}, "memory_k must be >= 1"),
        ({"d": (0.5, 1.5)}, "d must lie in [0, 1]"),
        ({"kappa": (0.0,)}, "kappa must be > 0"),
        ({"memory_k": (4, 26)}, "memory_k levels above 25 are beyond the forgiveness run"),
    ])
    def test_bad_level_rejected_when_the_grid_is_built(self, levels, message):
        with pytest.raises(ConfigurationError) as err:
            ParameterGrid(levels)
        assert str(err.value).startswith(message)

    def test_integral_float_memory_k_level_is_an_int(self):
        g = ParameterGrid({"memory_k": (4.0,)})
        assert g.levels["memory_k"] == (4,) and isinstance(g.levels["memory_k"][0], int)
        header, row = targets_csv(run_sweep(g)).splitlines()
        assert row.split(",")[header.split(",").index("memory_k")] == "4"

    def test_longest_measurable_window_is_accepted(self):
        # at k = 25 the signal 0.5 / k still reads as the defection: tau_f = k + 1
        assert sweep.MAX_MEMORY_K == 25
        g = ParameterGrid({"memory_k": (4, 25)})
        assert sweep.forgiveness_times(g.columns()).tolist() == [5, 26]

    def test_rho0_extremes(self):
        assert FULL_GRID.rho0_extremes() == (0.2, 1.0)


class TestForgiveness:
    def test_recovery_time_k_plus_one(self):
        ks = (1, 2, 4, 8)
        cells = [replace(REFERENCE_CELL, memory_k=k) for k in ks]
        tau_f = measure_cells(columns(cells, GRID_KEYS))["tau_f"]
        assert tau_f.tolist() == [k + 1 for k in ks]

    def test_prop2_window_holds_by_construction(self):
        # the signal about the partner is 0.5 / k (at least RECOVERY_TOL up to
        # k = 25) while the defection is in the k-period window and 0.0 once
        # it has left: tau_f = k + 1, inside [k, 2k]
        ks = range(1, 21)
        tau_f = sweep.forgiveness_times(columns([replace(REFERENCE_CELL, memory_k=k)
                                                 for k in ks], GRID_KEYS))
        assert tau_f.tolist() == [k + 1 for k in ks]
        assert all(k <= tau <= 2 * k for k, tau in zip(ks, tau_f.tolist()))

    def test_recovery_detector(self):
        settles = [0.0] * 9 + [-0.5, 0.1, 0.1, 0.01, 0.005, 0.001, 0.0]
        never = [-1.0] * 16
        # settled only in its last RECOVERY_SUSTAIN periods: recovers at the edge
        at_the_edge = [0.0] * 9 + [-0.5] * 4 + [0.0] * 3
        # settled from period 15, but its horizon ends at 16
        cut_short = [0.0] * 9 + [-0.5] * 5 + [0.0] * 2
        signals = np.array([settles, never, at_the_edge, cut_short]).T
        horizon = np.array([16, 16, 16, 16])
        assert recovery_times(signals, horizon, 10).tolist() == [3, NO_RECOVERY, 4, NO_RECOVERY]
        # the same rows, with a longer settled tail past a row's horizon
        padded = np.vstack([signals, np.zeros((4, 4))])
        assert recovery_times(padded, horizon, 10).tolist() == [3, NO_RECOVERY, 4, NO_RECOVERY]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_recovery_times_match_the_scalar_oracle(self, data):
        periods = data.draw(st.integers(0, 24), label="periods")
        rows = data.draw(st.integers(1, 5), label="rows")
        # mostly settled values, so windows often close right at a horizon
        value = st.sampled_from([0.0, -0.019, 0.0199, RECOVERY_TOL, -0.5, 1.0, math.nan])
        signals = np.array(data.draw(st.lists(st.lists(value, min_size=rows, max_size=rows),
                                              min_size=periods, max_size=periods)),
                           dtype=float).reshape(periods, rows)
        horizon = np.array(data.draw(st.lists(st.integers(0, periods), min_size=rows,
                                              max_size=rows), label="horizon"))
        t_star = data.draw(st.integers(1, periods + 2), label="t_star")
        want = [signal_recovery_time(signals[:h, c].tolist(), t_star, RECOVERY_TOL,
                                     RECOVERY_SUSTAIN)
                for c, h in enumerate(horizon.tolist())]
        assert recovery_times(signals, horizon, t_star).tolist() == want


class TestCellMeasurement:
    def test_reference_cell_passes_everything(self):
        r = measure_cell(REFERENCE_CELL)
        assert all(r[key] is True for key in TARGETS)
        assert r["t2"] and r["ratio"] > 1.5
        assert r["tau_f"] == REFERENCE_CELL.memory_k + 1 and isinstance(r["tau_f"], int)
        assert r["max_abs_response"] <= 1.0

    def test_t4_ratio_closed_form(self):
        # flat warm-up keeps trust at its initial level, so the response
        # ratio is exactly (1 + omega*0.8)/(1 + omega*0.2) * 4**eta
        cell = replace(REFERENCE_CELL, eta=1.25)
        r = measure_cell(cell)
        expected = (1.8 / 1.2) * 4.0**1.25
        assert r["ratio"] == pytest.approx(expected, rel=1e-9)

    def test_t4_over_a_zero_response(self):
        # 0.2**500 underflows to zero while 0.8**500 does not: a positive
        # response over a zero one is an infinite ratio and passes
        r = measure_cell(replace(REFERENCE_CELL, eta=500.0))
        assert r["response_low"] == 0.0 < r["response_high"]
        assert r["ratio"] == math.inf and r["t4"]
        # no response at all: the ratio is undefined and T4 fails
        r = measure_cell(replace(REFERENCE_CELL, lambda_r=0.0))
        assert r["response_low"] == r["response_high"] == 0.0
        assert math.isnan(r["ratio"]) and not r["t4"]

    def test_weak_corner_fails_emergence(self):
        weak = SweepCell(rho0=0.2, eta=1.5, kappa=0.5, memory_k=1, t0=0.3, d=0.2)
        r = measure_cell(weak)
        assert not r["t1"]  # no meaningful reciprocity, no cooperation climb
        assert r["t2"] and r["t6"]  # punishment sign and boundedness still hold

    def test_t5_strict_ordering(self):
        r = measure_cell(REFERENCE_CELL)
        assert r["coop_t5_high"] > r["coop_t5_low_trust"]
        assert r["coop_t5_high"] > r["coop_t5_low_rho"]


class TestSweepAggregation:
    def test_batch_independence(self, monkeypatch):
        # one batch == cell by cell == shuffled == split across batches; two d
        # levels, so the differentiation runs repeat across cells
        grid = ParameterGrid({"rho0": (0.2, 1.0), "kappa": (0.5, 3.0),
                              "memory_k": (1, 4, 16), "t0": (0.3, 0.95), "d": (0.2, 1.0)})
        whole = run_sweep(grid)
        extremes = grid.rho0_extremes()
        assert extremes == RHO0_EXTREMES  # measure_cell's
        cells = grid.columns()
        for i in range(grid.size):
            cell = SweepCell(**{key: cells[key][i].item() for key in GRID_KEYS})
            assert measure_cell(cell) == {key: col[i].item() for key, col in whole.items()}
        order = np.array(random.Random(5).sample(range(grid.size), grid.size))
        shuffled = measure_cells(table_rows(cells, order), rho0_extremes=extremes)
        assert_tables_equal(shuffled, table_rows(whole, order))
        # 7 rows per engine batch splits the emergence-type runs (horizon 30)
        # and each forgiveness-type horizon across batches
        monkeypatch.setattr(sweep, "ROWS_PER_BATCH", 7)
        assert_tables_equal(run_sweep(grid), whole)

    def test_each_distinct_run_goes_through_the_engine_once(self, monkeypatch):
        # 36 cells x 7 runs = 252 protocol runs, 126 of them distinct: the T5
        # runs do not read rho0 or t0 (18 each), t5_low_trust at rho0 1.0 and
        # t0 0.3 is the emergence run of those cells, the differentiation runs
        # do not read d (18 each), and diff_low is the forgiveness run at d 0.2
        grid = ParameterGrid({"rho0": (0.2, 1.0), "kappa": (0.5, 1.5, 3.0),
                              "memory_k": (1, 4, 16), "t0": (0.3,), "d": (0.2, 1.0)})
        horizons, live = [], []
        real, update = sweep.run_batch, simulation._update_trust_matrices

        def counting(batch):
            horizons.extend(batch.rows["horizon"].tolist())
            return real(batch)

        def counting_update(trust, *args):
            live.append(len(trust))
            return update(trust, *args)

        monkeypatch.setattr(sweep, "run_batch", counting)
        monkeypatch.setattr(simulation, "_update_trust_matrices", counting_update)
        table = run_sweep(grid)
        assert len(horizons) == 126 and horizons == sorted(horizons, reverse=True)
        assert horizons.count(sweep.WARMUP) == 72  # emergence-type runs
        # every run stops at its horizon: 30, and 8, 14 or 38 periods from
        # the defection on for k = 1, 4 and 16; each period but the batch's
        # last updates the trust of the runs live in it
        assert sum(horizons) == 72 * 30 + 18 * (8 + 14 + 38) == 3240
        assert live == [sum(h >= t for h in horizons) for t in range(1, max(horizons))]
        monkeypatch.undo()
        assert_tables_equal(table, run_sweep(grid))

    def test_forgiveness_times_match_the_full_protocol(self):
        grid = ParameterGrid({"kappa": (0.5, 2.0), "memory_k": (1, 5, 10), "eta": (0.5, 1.5)})
        cells = grid.columns()
        tau_f = sweep.forgiveness_times(cells)
        assert tau_f.dtype == np.int64
        assert tau_f.tolist() == measure_cells(cells)["tau_f"].tolist()

    @pytest.mark.parametrize("names", [("kappa",), ("memory_k", "lambda_plus")])
    def test_a_column_left_out_takes_its_reference_value(self, names):
        levels = {"kappa": [0.5, 3.0, 1.0], "memory_k": [1, 16, 5],
                  "lambda_plus": [0.05, 0.4, 0.1]}
        partial = {name: np.array(levels[name]) for name in names}
        reference = ({f: getattr(TrustParams(), f) for f in TRUST_FIELDS}
                     | {key: getattr(REFERENCE_CELL, key) for key in GRID_KEYS})
        full = {name: np.full(3, value) for name, value in reference.items()} | partial
        assert_tables_equal(measure_cells(partial), measure_cells(full))
        assert (sweep.forgiveness_times(partial).tolist()
                == sweep.forgiveness_times(full).tolist())

    @pytest.mark.parametrize("name", ["lambda_pls", "trust.xi", "omega_amp"])
    def test_an_unknown_column_is_rejected(self, name):
        table = {"kappa": np.ones(2), name: np.ones(2)}
        for call in (measure_cells, sweep.forgiveness_times):
            with pytest.raises(ValueError, match=f"unknown cell column '{name}'"):
                call(table)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_runs_from_the_defection_match_the_full_warm_up(self, data):
        # t0 above t_max, a deadband (above 0.5 it hides the defection) and
        # windows longer than the warm-up, so shorter than k at the defection
        rows = data.draw(st.integers(1, 4), label="cells")
        unit, open_unit = st.floats(0.0, 1.0), st.floats(0.01, 0.99)
        cell = st.fixed_dictionaries({
            "rho0": st.floats(0.0, 2.0), "eta": st.floats(0.0, 3.0),
            "kappa": st.floats(0.05, 4.0), "memory_k": st.integers(1, 40),
            "lambda_r": st.floats(0.0, 2.0), "t0": unit, "d": unit})
        block = st.fixed_dictionaries({
            "lambda_plus": open_unit, "lambda_minus": open_unit, "xi": st.floats(0.0, 2.0),
            "mu_r": open_unit, "delta_r": open_unit, "t_max": st.floats(0.05, 1.0),
            "theta_r": unit, "lambda_t": st.floats(0.0, 2.0),
            "deadband": st.one_of(st.just(0.0), st.floats(0.0, 0.7))})
        drawn = [{**data.draw(cell), **data.draw(block)} for _ in range(rows)]
        cells = {name: np.array([row[name] for row in drawn]) for name in drawn[0]}
        m, ids = sweep._measure_runs(cells, RHO0_EXTREMES)

        runs = sweep._protocol_runs(cells, RHO0_EXTREMES)
        kinds = [sweep.PROTOCOL_RUNS.index(r) for r in ("forgiveness", "diff_high", "diff_low")]
        shape = runs["horizon"].shape
        flat = {name: np.broadcast_to(col, shape)[:, kinds].reshape(-1)
                for name, col in runs.items()}
        # the engine takes its rows longest first: a run lasts 2k + const periods
        order = np.argsort(-flat["memory_k"], kind="stable")
        flat = {name: col[order] for name, col in flat.items()}
        full = record_batch(RunBatch(**oracles.full_warmup_runs(flat)), ("A", "B"))
        for i, kappa, traj in zip(ids[:, kinds].reshape(-1)[order].tolist(), flat["kappa"], full):
            signal = traj.signal[:, 0, 1]
            want_tau = signal_recovery_time(signal.tolist(), oracles.WARMUP + 1,
                                            RECOVERY_TOL, RECOVERY_SUSTAIN)
            want_bound = np.abs(np.tanh(kappa * traj.signal)).max()
            assert m["tau_f"][i] == want_tau
            assert m["response"][i].hex() == traj.recip_term[oracles.WARMUP, 0, 1].hex()
            assert m["bound"][i].hex() == want_bound.hex()

    def test_measure_targets_report(self):
        grid = ParameterGrid({"rho0": (1.0,), "kappa": (1.0,)})
        table = run_sweep(grid)
        rows = measure_targets(table)
        assert [r["target"] for r in rows] == list(TARGETS)
        by_target = {r["target"]: r for r in rows}
        assert by_target["t6"]["rate"] == 1.0 and by_target["t6"]["pass"]
        assert (by_target["t2"]["achieved"], by_target["t2"]["total"]) == (1, 1)

    def test_smoke_grid_thresholds(self, smoke_sweep):
        # the smoke grid passes every target too, though acceptance criteria
        # 3 and 4 read the full grid; Cohen's d and the Wilcoxon p are
        # criterion 4's, and its interval is drawn with seed 42, not 0
        rows = measure_targets(smoke_sweep)
        assert all(r["pass"] for r in rows), {r["target"]: r["rate"] for r in rows}
        stats = differentiation_stats(smoke_sweep)
        assert stats.ci_lo <= stats.mean <= stats.ci_hi


def test_report_counts_the_ratios_left_out(smoke_sweep):
    # lambda_r 0 gives both responses zero, so half the ratios are undefined
    grid = ParameterGrid({"lambda_r": (0.0, 1.0), "kappa": (0.5, 1.0, 1.5, 2.0, 3.0),
                          "t0": (0.3, 0.7)})
    table = run_sweep(grid)
    stats = differentiation_stats(table)
    assert (stats.left_out, stats.total, stats.df) == (10, 20, 19)
    text = render_target_report(measure_targets(table), stats)
    assert f"\nConfigurations: {grid.size}\n" in text
    assert ("- mean ratio: 6.000 (sd 0.000)\n- 10 of 20 ratios not finite, left out of the "
            "mean, sd, bootstrap CI and Wilcoxon test\n- bootstrap 95% CI") in text
    # every ratio finite: the report has no such line
    smoke = differentiation_stats(smoke_sweep)
    assert (smoke.left_out, smoke.total) == (0, SMOKE_GRID.size)
    assert "not finite" not in render_target_report(measure_targets(smoke_sweep), smoke)


def test_degenerate_statistics_report_n_a():
    # every ratio is exactly the T4 threshold: no Wilcoxon rank is possible;
    # both samples are constant, so Cohen's d has no spread either
    high, low = np.full(8, 3.0), np.full(8, 2.0)
    table = {"response_high": high, "response_low": low, "ratio": high / low}
    stats = differentiation_stats(table)
    assert (stats.t_stat, stats.p_value, stats.df) == (None, None, 7)
    assert (stats.cohens_d, stats.wilcoxon_stat, stats.wilcoxon_p) == (None, None, None)
    assert stats.mean == 1.5
    text = render_target_report(measure_targets({key: np.ones(8, bool) for key in TARGETS}),
                                stats)
    assert "- paired t(7) = n/a (the high - low differences have zero variance)\n" in text
    assert "- Cohen's d = n/a (both response samples have zero variance)\n" in text
    assert "- Wilcoxon signed-rank vs 1.5 (one-sided): n/a (every ratio equals 1.5)\n" in text


class TestStructuralTargets:
    """Closed forms that decide three targets on the fixed protocol, checked
    cell by cell on the full grid (the protocol's omega_amp is 1)."""

    def test_t4_ratio_closed_form(self, full_sweep):
        table = full_sweep[0]
        want = (0.8 / 0.2) ** table["eta"] * (1 + 0.8) / (1 + 0.2)
        np.testing.assert_allclose(table["ratio"], want, rtol=1e-12, atol=0.0)

    def test_forgiveness_is_one_period_past_the_window(self, full_sweep):
        table = full_sweep[0]
        assert (table["tau_f"] == table["memory_k"] + 1).all()

    def test_t1_follows_the_gate_margin_cut(self, full_sweep):
        # the denominator of critical_rho with rho = rho0 * d**eta, cut at an
        # effective marginal cost of 0.046; the cut is empirical and
        # misclassifies 23 of the 15,625 cells
        t = full_sweep[0]
        margin = (t["lambda_r"] * t["t0"] * (1 + t["d"]) * t["rho0"] * t["d"] ** t["eta"]
                  * t["kappa"])
        wrong = np.flatnonzero(t["t1"] != (margin > 0.046))
        cells = [{key: t[key][i].item() for key in (*GRID_KEYS, "t1")} for i in wrong]
        assert len(wrong) == 23, f"{len(wrong)} of {len(margin)} cells misclassified: {cells}"


class TestMonteCarlo:
    def test_zero_perturbation_reproduces_base(self):
        report = monte_carlo(trials=8, perturb=0.0, seed=3)
        assert len(set(report.ratios.tolist())) == 1
        base = measure_cell(REFERENCE_CELL)
        assert report.ratios[0] == pytest.approx(base["ratio"])

    def test_reproducible_derived_seeds(self):
        a = monte_carlo(trials=6, perturb=0.15, seed=11)
        b = monte_carlo(trials=6, perturb=0.15, seed=11)
        assert a.clamped == b.clamped
        assert_tables_equal(a.table, b.table)

    def test_clamping_flagged(self):
        # cranked perturbation forces range clamps (t0 and d cap at 1)
        report = monte_carlo(trials=40, perturb=0.5, seed=5)
        assert report.clamped_trials > 0

    def test_integer_window_untouched(self):
        report = monte_carlo(trials=5, perturb=0.15, seed=2)
        assert all("memory_k" not in names for names in report.clamped)
        assert (report.table["memory_k"] == REFERENCE_CELL.memory_k).all()

    @pytest.mark.parametrize("name", list(sweep._PERTURB_RANGES))
    def test_clamps_lie_inside_the_parameter_ranges(self, name):
        # perturb_trials checks a clamped value for finiteness only, so each
        # clamp must keep it legal: a closed end may equal the bound, an open
        # end must sit strictly inside; an infinite clamp is no clamp, and
        # finiteness stands in for an infinite open end
        c_lo, c_hi = sweep._PERTURB_RANGES[name]
        lo, hi, ends = RANGES[name.removeprefix("trust.")]
        assert lo <= c_lo if ends[0] == "[" else lo < c_lo
        assert c_hi <= hi if ends[1] == "]" else c_hi < hi or c_hi == hi == math.inf

    @settings(max_examples=100, deadline=None)
    @given(trials=st.integers(2, 12), perturb=st.floats(0.0, 3.0),
           seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**63, 2**64 - 1])))
    def test_trial_columns_match_the_scalar_trials(self, trials, perturb, seed):
        cells, clamped = sweep.perturb_trials(trials, perturb, seed)
        base = TrustParams()
        params = {name: (getattr(base, name.removeprefix("trust.")) if "." in name
                         else getattr(REFERENCE_CELL, name), lo, hi)
                  for name, (lo, hi) in sweep._PERTURB_RANGES.items()}
        assert len(clamped) == trials
        for t in range(trials):
            values, names = oracles.perturb_trial(t, perturb, seed, params)
            assert clamped[t] == names
            for name, value in values.items():
                assert cells[name.removeprefix("trust.")][t].hex() == value.hex(), name
        # only the drawn columns: the parameters left alone (memory_k and
        # deadband) take their reference values in measure_cells
        assert sorted(cells) == sorted(name.removeprefix("trust.")
                                       for name in sweep._PERTURB_RANGES)


def _mc_report(ratios):
    n = len(ratios)
    table = {"ratio": np.array(ratios, dtype=float),
             **{key: np.zeros(n, dtype=bool) for key in TARGETS}}
    return MonteCarloReport(table=table, clamped=((),) * n, perturb=0.15)


def test_monte_carlo_report_with_an_infinite_ratio_renders_without_warnings():
    # a zero low-dependency response gives an infinite ratio, two zero
    # responses an undefined one; the mean and sd skip them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = render_monte_carlo(_mc_report([1.5, math.inf, 5.4]))
        lone = render_monte_carlo(_mc_report([math.inf, 2.0]))
        undefined = render_monte_carlo(_mc_report([1.5, math.nan, math.inf, 5.4]))
        none = render_monte_carlo(_mc_report([math.nan, math.inf]))
        undefined_only = render_monte_carlo(_mc_report([math.nan, math.nan]))
        drawn = render_monte_carlo(monte_carlo(trials=3, perturb=1.5, seed=42))
    sd = np.std([1.5, 5.4], ddof=1)
    assert f"| Mean differentiation ratio | {np.mean([1.5, 5.4]):.3f} |" in text
    assert f"| Ratio sd | {sd:.3f} (1 of 3 ratios not finite, left out) |" in text
    assert "| Mean differentiation ratio | 2.000 |" in lone
    assert "| Ratio sd | n/a (1 of 2 ratios not finite, left out) |" in lone
    assert f"| Ratio sd | {sd:.3f} (2 of 4 ratios not finite, left out) |" in undefined
    assert "| Minimum ratio | 1.500 |" in undefined
    assert "| Mean differentiation ratio | n/a |" in none
    # the ratios of these trials are 1.5, undefined and 5.40
    assert "| Mean differentiation ratio | 3.452 |" in drawn
    assert "(1 of 3 ratios not finite, left out)" in drawn
    assert "| Minimum ratio | n/a |" in undefined_only
    assert "nan" not in text + lone + undefined + none + undefined_only + drawn
    assert "| inf |" not in text + lone + undefined + drawn


def test_monte_carlo_report_with_finite_ratios_keeps_its_sd_line():
    ratios = [1.7, 2.25, 3.0, 1.9]
    text = render_monte_carlo(_mc_report(ratios))
    assert f"| Ratio sd | {np.std(ratios, ddof=1):.3f} |\n" in text


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5], ids=["negative", "2**64", "non-integer"])
@pytest.mark.parametrize("call", ["bootstrap_ci", "perturb_trials", "differentiation_stats"])
def test_seed_outside_the_generator_range_rejected(call, seed, smoke_sweep):
    # the generator would alias -1 with 2**64 - 1 and 2**64 with 0
    calls = {
        "bootstrap_ci": lambda: bootstrap_ci([1.0, 2.0, 3.0], seed=seed),
        "perturb_trials": lambda: sweep.perturb_trials(3, 0.15, seed),
        "differentiation_stats": lambda: differentiation_stats(smoke_sweep, seed=seed),
    }
    with pytest.raises(ConfigurationError, match=r"^seed must be in \[0, 2\*\*64\), got "):
        calls[call]()
