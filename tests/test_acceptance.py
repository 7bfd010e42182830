"""Acceptance gate: one test (or test group) per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  By default criterion 3 checks the 3^6 smoke grid (same
thresholds, the session's shared smoke sweep); the full 5^6 grid, which
takes seconds, is enabled with ``COOPSIM_FULL_ACCEPTANCE=1``.

Criterion 1 carries two expected failures, marked xfail: the stated
acceptance bands for the two worked-example sensitivities (0.90 and 0.29,
both +/- 0.005) are not attainable from the defining formula
rho = rho0 * D**eta, which gives 0.9181 and 0.2830 at those inputs.  The
formula-exact values are asserted separately; see the decisions ledger.
"""

import os
import random
import statistics
import time

import numpy as np
import pytest

from coopsim import case_study as cs
from coopsim.propositions import check_prop2, check_prop3
from coopsim.reciprocity import sensitivity
from coopsim.scenario import SimConfig, reference_scenario
from coopsim.simulation import run
from coopsim.solver import SolverConfig, solve_equilibrium
from coopsim.sweep import (
    FULL_GRID,
    SMOKE_GRID,
    differentiation_stats,
    measure_targets,
    monte_carlo,
    run_sweep,
)
from oracles import exhaustive_nash
from test_reciprocity import deviation_terms, period_one, response
from test_trust import kernel_step, random_columns

FULL = os.environ.get("COOPSIM_FULL_ACCEPTANCE") == "1"


def report(criterion: str, detail: str) -> None:
    print(f"\n[acceptance {criterion}] PASS - {detail}")


# -- criterion 1: worked-example arithmetic -----------------------------------

#: The kernel's sensitivities at the worked example, rho0 = eta = 1.2 and
#: D = 0.8, 0.3.
WORKED_RHO = sensitivity(np.array([[[0.8, 0.3]]]), np.array([1.2]), np.array([1.2]))[0, 0]


class TestCriterion1WorkedExample:
    def test_1_signal_exact(self):
        assert period_one((0.0, 8.0), (0.0, 18.0)).signal[0, 0, 1] == -10.0
        report("1/signal", "8 - 18 = -10 exact")

    def test_1_saturation(self):
        assert response(-10.0, 1.0) == pytest.approx(-1.0, abs=1e-4)
        report("1/saturation", "tanh(-10) within 1e-4 of -1")

    def test_1_sensitivities_formula_exact(self):
        # the defining formula, asserted tight; regression guard for the
        # xfailed stated bands below
        assert WORKED_RHO[0] == pytest.approx(0.9180983997984355, abs=1e-12)
        assert WORKED_RHO[1] == pytest.approx(0.2829611108147842, abs=1e-12)
        report("1/sensitivities", "formula values 0.9181 and 0.2830 exact")

    @pytest.mark.xfail(strict=True,
                       reason="stated band 0.90 +/- 0.005 conflicts with the "
                              "defining formula (1.2 * 0.8**1.2 = 0.9181)")
    def test_1_stated_band_high_dependency(self):
        assert WORKED_RHO[0] == pytest.approx(0.90, abs=0.005)

    @pytest.mark.xfail(strict=True,
                       reason="stated band 0.29 +/- 0.005 conflicts with the "
                              "defining formula (1.2 * 0.3**1.2 = 0.2830)")
    def test_1_stated_band_low_dependency(self):
        assert WORKED_RHO[1] == pytest.approx(0.29, abs=0.005)


# -- criterion 2: interdependence coefficients from the shipped table ---------

def test_criterion_2_shipped_dependency_table():
    from coopsim.files import read_dependency_csv
    from coopsim.params import compute_interdependence

    labels, entries = read_dependency_csv(cs.ios_dependency_csv_path())
    d = compute_interdependence(entries, len(labels))
    i = {lab: k for k, lab in enumerate(labels)}
    assert d[i["Major"], i["Apple"]] == pytest.approx(0.8775, abs=1e-4)
    assert d[i["Small"], i["Apple"]] == pytest.approx(0.9195, abs=1e-4)
    assert d[i["Apple"], i["Major"]] == pytest.approx(0.6575, abs=1e-4)
    assert d[i["Apple"], i["Small"]] == pytest.approx(0.7075, abs=1e-4)
    report("2", "0.8775 / 0.9195 / 0.6575 / 0.7075 reproduced to 1e-4")


# -- criteria 3 & 4: behavioral targets and differentiation stats --------------

@pytest.fixture(scope="module")
def sweep_results(request):
    if not FULL:
        return (SMOKE_GRID, *request.getfixturevalue("smoke_sweep"))
    start = time.monotonic()
    results = run_sweep(FULL_GRID)
    return FULL_GRID, results, time.monotonic() - start


def test_criterion_3_behavioral_target_thresholds(sweep_results):
    grid, results, elapsed = sweep_results
    report_rows = measure_targets(results)
    rates = {r["target"]: r["rate"] for r in report_rows.rows}
    assert rates["t6"] == 1.0
    assert rates["t2"] == 1.0
    assert rates["t4"] >= 0.90
    assert (results["ratio"][results["t4"]] > 1.5).all()
    assert rates["t1"] >= 0.85
    assert rates["t3"] >= 0.80
    assert rates["t5"] >= 0.90
    if not FULL:
        assert elapsed < 120.0, "smoke grid must finish inside two minutes"
    label = "full 5^6" if FULL else "3^6 smoke"
    report("3", f"{label} grid ({grid.size} cells, {elapsed:.0f}s): "
                + ", ".join(f"{k}={100 * v:.1f}%" for k, v in rates.items()))


def test_criterion_4_differentiation_effect_size(sweep_results):
    _, results, _ = sweep_results
    stats = differentiation_stats(results, seed=42)
    assert stats.cohens_d >= 0.8
    assert stats.wilcoxon_p < 0.01
    report("4", f"Cohen's d = {stats.cohens_d:.2f} (>= 0.8), "
                f"one-sided Wilcoxon vs 1.5: p = {stats.wilcoxon_p:.2e} (< 0.01)")


# -- criterion 5: forgiveness window ------------------------------------------

def test_criterion_5_forgiveness_window():
    result = check_prop2(ks=(1, 5, 10), kappas=(0.5, 1.0, 2.0))
    assert result.passed
    taus = {(c.memory_k, c.kappa): c.tau_f for c in result.cases}
    report("5", f"tau_f in [k, 2k] for all 9 (k, kappa) combinations: {taus}")


# -- criterion 6: trust-reciprocity complementarity ----------------------------

def test_criterion_6_cross_partial():
    result = check_prop3()
    assert result.passed
    report("6", f"cross-partial {result.estimate:.3f} > 0, halved-step "
                f"{result.halved_estimate:.3f} > 0, channel-off "
                f"{result.zero_channel_estimate:.1e} ~ 0")


# -- criterion 7: robustness under perturbation --------------------------------

def test_criterion_7_monte_carlo():
    mc = monte_carlo(trials=2000, perturb=0.15, seed=42)
    assert mc.ratio_threshold_rate >= 0.90
    report("7", f"2000 trials at +/-15%: ratio >= 1.5 in "
                f"{100 * mc.ratio_threshold_rate:.1f}% (min {mc.min_ratio:.2f}); "
                f"all targets in {100 * mc.all_targets_rate:.1f}%")


# -- criterion 8: solver oracle equivalence ------------------------------------

def test_criterion_8_solver_oracle_equivalence():
    rng = random.Random(77)
    grid_points = 41
    for _ in range(50):
        scen = reference_scenario(
            rho0=rng.uniform(0, 1.5), eta=rng.uniform(0.5, 1.5),
            kappa=rng.uniform(0.3, 1.5), t0=rng.uniform(0.2, 0.9),
            d=rng.uniform(0.0, 1.0), theta_v=rng.uniform(5, 20),
            a_max=20.0, gamma=rng.uniform(0, 1.5),
        )
        trust = np.full((2, 2), scen.trust.t0)
        np.fill_diagonal(trust, 1.0)
        res = solve_equilibrium(scen, None, trust,
                                SolverConfig(grid_points=grid_points, max_iters=200),
                                warm_start=scen.a_init)
        assert res.converged
        nash = exhaustive_nash(scen, trust, grid_points)
        step = 20.0 / (grid_points - 1)
        dist = min(
            max(abs(res.actions[0] - p[0]), abs(res.actions[1] - p[1])) for p in nash
        )
        assert dist <= step + 1e-9
    report("8", "solver matched exhaustive joint-grid search on 50 random "
                "2-actor scenarios (41-point grids, within one step)")


# -- criterion 9: case-study qualitative reproduction ---------------------------

@pytest.fixture(scope="module")
def ios_runs():
    return cs.run_ios(), cs.run_ios_pair()[1]


def test_criterion_9_phase_orderings(ios_runs):
    base, _ = ios_runs
    means = np.array([p.means for p in cs.phase_statistics(base)])
    for actor in range(3):
        assert int(np.argmin(means[:, actor])) == 3  # crisis is the minimum
        assert int(np.argmax(means[:, actor])) == 1  # maturation is the maximum
    report("9/orderings", "crisis minimum and maturation maximum per actor")


def test_criterion_9_transition_timing(ios_runs):
    base, _ = ios_runs
    detected = cs.detect_transitions(base)
    expected = {"Maturation": 16, "Tension": 36, "Crisis": 48, "Adjustment": 54}
    for phase, quarter in expected.items():
        assert detected[phase] is not None
        assert abs(detected[phase] - quarter) <= 1, (phase, detected[phase])
    report("9/transitions", f"detected {detected} vs expected 16/36/48/54 (+/-1)")


def test_criterion_9_asymmetric_response(ios_runs):
    base, _ = ios_runs
    means = np.array([p.means for p in cs.phase_statistics(base)])
    for phase in (2, 3):
        d_major = abs(means[phase, 1] - means[phase - 1, 1])
        d_apple = abs(means[phase, 0] - means[phase - 1, 0])
        assert d_major > d_apple
    report("9/asymmetry", "|dCoop(Major)| > |dCoop(Apple)| in tension and crisis")


def test_criterion_9_rubric_automation(ios_runs):
    base, _ = ios_runs
    score = cs.score_rubric_auto(base)
    averages = {i: score.auto_average(i) for i in cs.AUTO_INDICATORS}
    for indicator, avg in averages.items():
        assert avg >= 0.75, (indicator, avg)
    report("9/rubric", f"auto indicators 1/4/8/10 averages: "
                       + ", ".join(f"{i}: {a:.2f}" for i, a in averages.items()))


def test_criterion_9_counterfactual(ios_runs):
    base, cf = ios_runs
    cmp = cs.counterfactual_comparison(base, cf)
    for uplift in cmp.uplift:
        assert 0.05 <= uplift <= 0.25
    assert cmp.min_bilateral_trust > 0.5
    report("9/counterfactual",
           "uplift " + ", ".join(f"{100 * u:+.1f}%" for u in cmp.uplift)
           + f" in [+5%, +25%]; min bilateral trust "
             f"{cmp.min_bilateral_trust:.2f} > 0.5")


# -- criterion 10: determinism ---------------------------------------------------

def test_criterion_10_byte_identical_outputs(tmp_path):
    from coopsim.cli import main

    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["case-study", "ios", "--seed", "123", "--out", out]) == 0
        with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]
    report("10", "case-study rerun with the same seed is byte identical")


# -- criterion 11: brute-force invariant suite -----------------------------------

def test_criterion_11_moving_average_oracle():
    # the engine's windowed baselines for a scripted actor, against the
    # direct mean of the window before each period
    rng = random.Random(1234)
    windows = 0
    for _ in range(100):
        n = rng.randint(1, 40)
        values = [rng.uniform(0, 20) for _ in range(n)]
        k = rng.randint(1, 25)
        traj = run(reference_scenario(memory_k=k), SimConfig(horizon=n + 1, noise_sigma=0.0),
                   script={0: dict(enumerate(values, start=1))})
        for t in range(2, n + 2):
            expected = statistics.fmean(values[max(0, t - 1 - k) : t - 1])
            assert traj.baselines[t - 1, 0] == pytest.approx(expected, rel=1e-12)
            windows += 1
    assert windows >= 1000
    report("11/moving-average", f"{windows} engine windows match the direct mean")


def test_criterion_11_bounded_response_fuzz():
    # the engine's recorded terms at a unit gate, one batch row per point
    rng = np.random.default_rng(99)
    term = deviation_terms(rng.uniform(-100, 100, 10000), rng.uniform(0.01, 10, 10000))
    assert ((-1.0 <= term) & (term <= 1.0)).all()
    assert (term[:, 1, 0] == -term[:, 0, 1]).all()
    report("11/bounded-response", "10000-point oddness and boundedness fuzz")


def test_criterion_11_trust_range_fuzz():
    # the engine's trust update on 10000 random parameter rows at once
    rng = np.random.default_rng(7)
    rows = 10000
    p = random_columns(rng, rows)
    trust, rep = np.minimum(p["t0"], p["t_max"]), np.zeros(rows)
    d = rng.uniform(0, 1, rows)
    for _ in range(10):
        trust, rep = kernel_step(trust, rep, rng.uniform(-2, 2, rows), d, p)
        assert ((0.0 <= rep) & (rep <= 1.0)).all()
        assert ((0.0 <= trust)
                & (trust <= np.minimum(p["t_max"], 1.0 - p["theta_r"] * rep) + 1e-12)).all()
    report("11/trust-ranges", "10000 random signal sequences stay in range")
