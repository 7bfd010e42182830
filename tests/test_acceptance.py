"""Acceptance gate: one test (or test group) per release criterion.

Each criterion is checked here, on its own data.  A unit test of the same
property checks it on other data (another seed, step size or input, or the
case-study scenarios run without noise); the one overlap is the smoke
grid's pass flags, which ``test_sweep.py`` keeps so that the smoke grid
stays checked while criteria 3 and 4 read the full grid.
Criterion 9 also pins how many of seeds 0-999 pass each of its checks.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 3 and 4 read the full 5^6 grid, measured and
bootstrapped once per session (``conftest.full_sweep``).

Criterion 1 carries two expected failures, marked xfail: the stated
acceptance bands for the two worked-example sensitivities (0.90 and 0.29,
both +/- 0.005) are not attainable from the defining formula
rho = rho0 * D**eta, which gives 0.9181 and 0.2830 at those inputs.  The
formula-exact values are asserted separately; see the decisions ledger.
"""

import functools
import os
import random
import statistics

import numpy as np
import pytest

from coopsim import case_study as cs
from coopsim.propositions import check_prop2, check_prop3
from coopsim.reciprocity import sensitivity
from coopsim.scenario import reference_scenario
from coopsim.simulation import run_batch
from coopsim.solver import SolverConfig, solve_equilibrium
from coopsim.sweep import FULL_GRID, measure_targets
from oracles import exhaustive_nash
from test_reciprocity import baselines_of, deviation_terms, period_one, response
from test_trust import kernel_step, random_columns


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

    @pytest.mark.parametrize("entry, band", [
        pytest.param(0, 0.90, id="high_dependency", marks=pytest.mark.xfail(
            strict=True, reason="stated band 0.90 +/- 0.005 conflicts with the "
                                "defining formula (1.2 * 0.8**1.2 = 0.9181)")),
        pytest.param(1, 0.29, id="low_dependency", marks=pytest.mark.xfail(
            strict=True, reason="stated band 0.29 +/- 0.005 conflicts with the "
                                "defining formula (1.2 * 0.3**1.2 = 0.2830)")),
    ])
    def test_1_stated_band(self, entry, band):
        assert WORKED_RHO[entry] == pytest.approx(band, abs=0.005)


# -- criterion 2: interdependence coefficients from the shipped table ---------

def test_criterion_2_shipped_dependency_table():
    from coopsim.files import read_dependency_csv
    from coopsim.params import compute_interdependence

    labels, entries = read_dependency_csv(cs.ios_dependency_csv_path())
    d = compute_interdependence(entries, len(labels))
    i = {lab: k for k, lab in enumerate(labels)}
    assert d[i["Major"], i["Apple"]] == pytest.approx(0.8775, abs=1e-12)
    assert d[i["Small"], i["Apple"]] == pytest.approx(0.9195, abs=1e-12)
    assert d[i["Apple"], i["Major"]] == pytest.approx(0.6575, abs=1e-12)
    assert d[i["Apple"], i["Small"]] == pytest.approx(0.7075, abs=1e-12)
    assert d[i["Major"], i["Small"]] == 0.0 and d[i["Small"], i["Major"]] == 0.0
    report("2", "0.8775 / 0.9195 / 0.6575 / 0.7075 reproduced to 1e-12, "
                "no Major-Small dependency")


# -- criteria 3 & 4: behavioral targets and differentiation stats --------------

def test_criterion_3_behavioral_target_thresholds(full_sweep):
    results, _, elapsed = full_sweep
    rates = {r["target"]: r["rate"] for r in measure_targets(results)}
    assert rates["t6"] == 1.0
    assert rates["t2"] == 1.0
    assert rates["t4"] >= 0.90
    assert (results["ratio"][results["t4"]] > 1.5).all()
    assert rates["t1"] >= 0.85
    assert rates["t3"] >= 0.80
    assert rates["t5"] >= 0.90
    assert elapsed < 120.0, "full grid must finish inside two minutes"
    report("3", f"full 5^6 grid ({FULL_GRID.size} cells, {elapsed:.1f}s): "
                + ", ".join(f"{k}={100 * v:.1f}%" for k, v in rates.items()))


def test_criterion_4_differentiation_effect_size(full_sweep):
    _, stats, _ = full_sweep
    assert stats.cohens_d >= 0.8
    assert stats.wilcoxon_p < 0.01
    assert stats.ci_lo <= stats.mean <= stats.ci_hi
    report("4", f"Cohen's d = {stats.cohens_d:.2f} (>= 0.8), "
                f"one-sided Wilcoxon vs 1.5: p = {stats.wilcoxon_p:.2e} (< 0.01)")


# -- criterion 5: forgiveness window ------------------------------------------

def test_criterion_5_forgiveness_window():
    result = check_prop2(ks=(1, 5, 10), kappas=(0.5, 1.0, 2.0))
    assert result.passed
    taus = {(c.memory_k, c.kappa): c.tau_f for c in result.cases}
    report("5", f"tau_f in [k, 2k] for all 9 (k, kappa) combinations: {taus}")


# -- criterion 6: trust-reciprocity complementarity ----------------------------

#: Prop 3's estimates, solved once for criterion 6 and the golden digest.
prop3 = functools.cache(check_prop3)


def test_criterion_6_cross_partial():
    result = prop3()
    assert result.passed
    assert abs(result.zero_channel_estimate) < 1e-6  # tighter than the 1e-3 noise bound
    report("6", f"cross-partial {result.estimate:.3f} > 0, halved-step "
                f"{result.halved_estimate:.3f} > 0, channel-off "
                f"{result.zero_channel_estimate:.1e} ~ 0")


# -- criterion 7: robustness under perturbation --------------------------------

def test_criterion_7_monte_carlo(monte_carlo_2000):
    mc = monte_carlo_2000
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
        assert nash, "exhaustive search found no equilibrium"
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
    return cs.run_ios_pair()


def test_criterion_9_phase_orderings(ios_runs):
    base, _ = ios_runs
    means, _ = cs.phase_statistics(base.actions)
    for actor in range(3):
        assert int(np.argmin(means[:, actor])) == 3  # crisis is the minimum
        assert int(np.argmax(means[:, actor])) == 1  # maturation is the maximum
    report("9/orderings", "crisis minimum and maturation maximum per actor")


def test_criterion_9_transition_timing(ios_runs):
    base, _ = ios_runs
    detected = dict(zip((p.name for p in cs.IOS_PHASES),
                        cs.detect_transitions(base.actions, base.norms).tolist()))
    assert detected["Maturation"] != 0 and abs(detected["Maturation"] - 16) <= 1
    # the shocked transitions are detected at their shock quarters exactly
    assert (detected["Tension"], detected["Crisis"], detected["Adjustment"]) == (36, 48, 54)
    report("9/transitions", f"detected {detected} vs expected 16 (+/-1), 36, 48, 54")


def test_criterion_9_asymmetric_response(ios_runs):
    base, _ = ios_runs
    means, _ = cs.phase_statistics(base.actions)
    for phase in (2, 3):
        d_major = abs(means[phase, 1] - means[phase - 1, 1])
        d_apple = abs(means[phase, 0] - means[phase - 1, 0])
        assert d_major > d_apple
    report("9/asymmetry", "|dCoop(Major)| > |dCoop(Apple)| in tension and crisis")


def test_criterion_9_rubric_automation(ios_runs):
    base, _ = ios_runs
    score = cs.score_rubric_auto(base.actions, base.norms, base.trust)
    averages = {i: sum(cells) / len(cells) for i, cells in score.items()}
    for indicator, avg in averages.items():
        assert len(score[indicator]) == len(cs.IOS_PHASES)  # one score per phase
        assert avg >= 0.75, (indicator, avg)
    report("9/rubric", f"auto indicators 1/4/8/10 averages: "
                       + ", ".join(f"{i}: {a:.2f}" for i, a in averages.items()))


def test_criterion_9_counterfactual(ios_runs):
    base, cf = ios_runs
    _, _, uplift, min_trust = cs.counterfactual_comparison(base.actions, cf.actions, cf.trust)
    for u in uplift:
        assert 0.05 <= u <= 0.25
    assert min_trust > 0.5
    report("9/counterfactual",
           "uplift " + ", ".join(f"{100 * u:+.1f}%" for u in uplift)
           + f" in [+5%, +25%]; min bilateral trust {min_trust:.2f} > 0.5")


#: Of seeds 0-999, the seeds whose runs pass each criterion-9 check above,
#: and the seeds that pass all five: DEFAULT_SEED is one of 20.
SEED_PASSES = {"orderings": 207, "transitions": 279, "asymmetry": 909, "rubric": 849,
               "counterfactual": 530}
ALL_FIVE_SEEDS = [10, 99, 186, 212, 245, 271, 418, 465, 501, 517, 527, 607, 655, 705, 712,
                  730, 738, 801, 838, 945]


def test_criterion_9_seed_distribution():
    # the five checks above on seeds 0-999, both variants of every seed as
    # one 2000-row batch, with every seed's results on the batch axis
    seeds = 1000
    rec = {f: a.reshape(a.shape[0], 2, seeds, *a.shape[2:])
           for f, a in run_batch(cs.ios_batch(range(seeds))).items()}
    actions, norms, trust = rec["actions"][:, 0], rec["norms"][:, 0], rec["trust"][:, 0]
    means, _ = cs.phase_statistics(actions)
    detected = cs.detect_transitions(actions, norms)
    score = cs.score_rubric_auto(actions, norms, trust)
    _, _, uplift, min_trust = cs.counterfactual_comparison(actions, rec["actions"][:, 1],
                                                           rec["trust"][:, 1])
    moves = np.abs(np.diff(means, axis=0))[1:3]  # into tension and into crisis
    checks = {
        "orderings": ((means.argmin(axis=0) == 3) & (means.argmax(axis=0) == 1)).all(axis=-1),
        "transitions": ((np.abs(detected[1] - 16) <= 1)
                        & (detected[2:].T == (36, 48, 54)).all(axis=-1)),
        "asymmetry": (moves[..., 1] > moves[..., 0]).all(axis=0),
        "rubric": np.all([cells.mean(axis=0) >= 0.75 for cells in score.values()], axis=0),
        "counterfactual": ((0.05 <= uplift) & (uplift <= 0.25)).all(axis=-1) & (min_trust > 0.5),
    }
    assert {name: int(ok.sum()) for name, ok in checks.items()} == SEED_PASSES
    all_five = np.flatnonzero(np.logical_and.reduce(list(checks.values()))).tolist()
    assert all_five == ALL_FIVE_SEEDS and cs.DEFAULT_SEED in all_five
    report("9/seeds", f"all five checks hold on {len(all_five)} of seeds 0-{seeds - 1}; "
                      + ", ".join(f"{name} {n}" for name, n in SEED_PASSES.items()))


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
        got = baselines_of(values, k)
        for t in range(2, n + 2):
            expected = statistics.fmean(values[max(0, t - 1 - k) : t - 1])
            assert got[t - 1] == pytest.approx(expected, rel=1e-12)
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
    # the engine's trust update on 10000 random parameter rows at once, each
    # fed 12 random signals
    rng = np.random.default_rng(7)
    rows = 10000
    p = random_columns(rng, rows)
    trust, rep = np.minimum(p["t0"], p["t_max"]), np.zeros(rows)
    d = rng.uniform(0, 1, rows)
    for _ in range(12):
        trust, rep = kernel_step(trust, rep, rng.uniform(-2, 2, rows), d, p)
        assert ((0.0 <= rep) & (rep <= 1.0)).all()
        assert ((0.0 <= trust)
                & (trust <= np.minimum(p["t_max"], 1.0 - p["theta_r"] * rep) + 1e-12)).all()
    report("11/trust-ranges", "10000 random 12-signal sequences stay in range")
