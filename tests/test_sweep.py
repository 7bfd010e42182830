import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from coopsim import sweep
from coopsim.errors import ConfigurationError
from coopsim.params import TrustParams
from coopsim.reports import render_monte_carlo
from coopsim.stats import bootstrap_ci
from coopsim.sweep import (
    FULL_GRID,
    WEIGHT_GRID,
    MonteCarloReport,
    MonteCarloTrial,
    NO_RECOVERY,
    REFERENCE_CELL,
    RHO0_EXTREMES,
    SMOKE_GRID,
    ParameterGrid,
    SweepCell,
    differentiation_stats,
    measure_cell,
    measure_cells,
    measure_targets,
    monte_carlo,
    run_sweep,
    signal_recovery_time,
)

TRUST = TrustParams()


class TestGrid:
    def test_builtin_grid_sizes(self):
        assert FULL_GRID.size == 5**6 == 15625
        assert WEIGHT_GRID.size == 15625
        assert SMOKE_GRID.size == 3**6 == 729

    def test_degenerate_grid(self):
        g = ParameterGrid({"rho0": (1.0,)})
        assert g.size == 1
        assert g.cell(0) == replace(REFERENCE_CELL, rho0=1.0)

    def test_cell_enumeration_roundtrip(self):
        g = ParameterGrid({"rho0": (0.2, 1.0), "kappa": (0.5, 2.0), "memory_k": (1, 4)})
        cells = [g.cell(i) for i in range(g.size)]
        assert len(set(cells)) == 8
        assert cells[0].memory_k == 1 and isinstance(cells[0].memory_k, int)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterGrid({"bogus": (1.0,)})

    def test_rho0_extremes(self):
        assert FULL_GRID.rho0_extremes() == (0.2, 1.0)


class TestForgiveness:
    def test_recovery_time_k_plus_one(self):
        ks = (1, 2, 4, 8)
        cells = [replace(REFERENCE_CELL, memory_k=k) for k in ks]
        for k, r in zip(ks, measure_cells(range(len(ks)), cells, [TRUST] * len(ks))):
            assert r.tau_f == k + 1
            assert k <= r.tau_f <= 2 * k

    def test_recovery_detector(self):
        signals = [0.0] * 9 + [-0.5, 0.1, 0.1, 0.01, 0.005, 0.001, 0.0]
        assert signal_recovery_time(signals, 10, tol=0.02, sustain=3) == 3
        assert signal_recovery_time([-1.0] * 20, 5, tol=0.02, sustain=3) == NO_RECOVERY


class TestCellMeasurement:
    def test_reference_cell_passes_everything(self):
        r = measure_cell(0, REFERENCE_CELL)
        assert r.all_targets
        assert r.t2 and r.ratio > 1.5
        assert r.tau_f == REFERENCE_CELL.memory_k + 1
        assert r.max_abs_response <= 1.0

    def test_t4_ratio_closed_form(self):
        # flat warm-up keeps trust at its initial level, so the response
        # ratio is exactly (1 + omega*0.8)/(1 + omega*0.2) * 4**eta
        cell = replace(REFERENCE_CELL, eta=1.25)
        r = measure_cell(0, cell)
        expected = (1.8 / 1.2) * 4.0**1.25
        assert r.ratio == pytest.approx(expected, rel=1e-9)

    def test_weak_corner_fails_emergence(self):
        weak = SweepCell(rho0=0.2, eta=1.5, kappa=0.5, memory_k=1, t0=0.3, d=0.2)
        r = measure_cell(0, weak)
        assert not r.t1  # no meaningful reciprocity, no cooperation climb
        assert r.t2 and r.t6  # punishment sign and boundedness still hold

    def test_t5_strict_ordering(self):
        r = measure_cell(0, REFERENCE_CELL)
        assert r.coop_t5_high > r.coop_t5_low_trust
        assert r.coop_t5_high > r.coop_t5_low_rho


class TestSweepAggregation:
    def test_batch_independence(self, monkeypatch):
        # one batch == cell by cell == shuffled == split across batches
        grid = ParameterGrid({"rho0": (0.2, 1.0), "kappa": (0.5, 3.0),
                              "memory_k": (1, 4, 16), "t0": (0.3, 0.95)})
        whole = run_sweep(grid)
        assert [r.index for r in whole] == list(range(grid.size))
        extremes = grid.rho0_extremes()
        assert extremes == RHO0_EXTREMES  # measure_cell's
        cells = [grid.cell(i) for i in range(grid.size)]
        single = [measure_cell(i, c) for i, c in enumerate(cells)]
        assert single == whole
        order = random.Random(5).sample(range(grid.size), grid.size)
        shuffled = measure_cells(order, [cells[i] for i in order], [TRUST] * grid.size,
                                 extremes)
        assert sorted(shuffled, key=lambda r: r.index) == whole
        monkeypatch.setattr(sweep, "CELLS_PER_BATCH", 5)
        assert run_sweep(grid) == whole

    def test_measure_targets_report(self):
        grid = ParameterGrid({"rho0": (1.0,), "kappa": (1.0,)})
        results = run_sweep(grid)
        report = measure_targets(results)
        row = report.row("t6")
        assert row["rate"] == 1.0 and row["pass"]
        assert report.row("t2")["achieved"] == 1

    def test_smoke_grid_thresholds(self, smoke_sweep):
        results, _ = smoke_sweep
        report = measure_targets(results)
        assert report.all_pass, {r["target"]: r["rate"] for r in report.rows}
        stats = differentiation_stats(results)
        assert stats.cohens_d >= 0.8
        assert stats.wilcoxon_p < 0.01
        assert stats.ci_lo <= stats.mean <= stats.ci_hi


class TestStructuralTargets:
    """Closed forms that decide three targets on the fixed protocol, checked
    cell by cell on the smoke grid (the protocol's omega_amp is 1)."""

    def test_t4_ratio_closed_form(self, smoke_sweep):
        results, _ = smoke_sweep
        for r in results:
            want = (0.8 / 0.2) ** r.cell.eta * (1 + 0.8) / (1 + 0.2)
            assert r.ratio == pytest.approx(want, rel=1e-12, abs=0.0), r.cell

    def test_forgiveness_is_one_period_past_the_window(self, smoke_sweep):
        results, _ = smoke_sweep
        assert all(r.tau_f == r.cell.memory_k + 1 for r in results)

    def test_t1_follows_the_gate_margin_cut(self, smoke_sweep):
        # the denominator of critical_rho with rho = rho0 * d**eta, cut at an
        # effective marginal cost of 0.046
        results, _ = smoke_sweep

        def margin(c):
            return c.lambda_r * c.t0 * (1 + c.d) * c.rho0 * c.d**c.eta * c.kappa

        agree = sum(r.t1 == (margin(r.cell) > 0.046) for r in results)
        assert agree >= 0.99 * len(results), f"{agree} of {len(results)} cells agree"


class TestMonteCarlo:
    def test_zero_perturbation_reproduces_base(self):
        report = monte_carlo(trials=8, perturb=0.0, seed=3)
        assert len({t.ratio for t in report.trials}) == 1
        base = measure_cell(0, REFERENCE_CELL)
        assert report.trials[0].ratio == pytest.approx(base.ratio)

    def test_reproducible_derived_seeds(self):
        a = monte_carlo(trials=6, perturb=0.15, seed=11)
        b = monte_carlo(trials=6, perturb=0.15, seed=11)
        assert a.trials == b.trials

    def test_clamping_flagged(self):
        # cranked perturbation forces range clamps (t0 and d cap at 1)
        report = monte_carlo(trials=40, perturb=0.5, seed=5)
        assert report.clamped_trials > 0

    def test_integer_window_untouched(self):
        report = monte_carlo(trials=5, perturb=0.15, seed=2)
        assert all("memory_k" not in t.clamped for t in report.trials)


def _mc_report(ratios):
    trials = tuple(MonteCarloTrial(trial=i, all_targets=False, ratio=r, clamped=())
                   for i, r in enumerate(ratios))
    return MonteCarloReport(trials=trials, perturb=0.15, seed=1)


def test_monte_carlo_report_with_an_infinite_ratio_renders_without_warnings():
    # a zero low-dependency response gives an infinite ratio; the sd skips it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = render_monte_carlo(_mc_report([1.5, math.inf, 5.4]))
        lone = render_monte_carlo(_mc_report([math.inf, 2.0]))
    sd = np.std([1.5, 5.4], ddof=1)
    assert f"| Ratio sd | {sd:.3f} (1 of 3 ratios infinite, left out) |" in text
    assert "| Ratio sd | n/a (1 of 2 ratios infinite, left out) |" in lone
    assert "nan" not in text + lone


def test_monte_carlo_report_with_finite_ratios_keeps_its_sd_line():
    ratios = [1.7, 2.25, 3.0, 1.9]
    text = render_monte_carlo(_mc_report(ratios))
    assert f"| Ratio sd | {np.std(ratios, ddof=1):.3f} |\n" in text


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5], ids=["negative", "2**64", "non-integer"])
@pytest.mark.parametrize("call", ["bootstrap_ci", "perturb_trial", "differentiation_stats"])
def test_seed_outside_the_generator_range_rejected(call, seed, smoke_sweep):
    # the generator would alias -1 with 2**64 - 1 and 2**64 with 0
    calls = {
        "bootstrap_ci": lambda: bootstrap_ci([1.0, 2.0, 3.0], seed=seed),
        "perturb_trial": lambda: sweep.perturb_trial(3, 0.15, seed),
        "differentiation_stats": lambda: differentiation_stats(smoke_sweep[0], seed=seed),
    }
    with pytest.raises(ConfigurationError, match=r"^seed must be in \[0, 2\*\*64\), got "):
        calls[call]()
