from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim import case_study as cs
from coopsim.errors import ConfigurationError
from coopsim.simulation import Trajectory, run


class TestScenarioConstants:
    def test_interdependence_coefficients(self):
        d = cs.ios_interdependence()
        assert d[1, 0] == pytest.approx(0.8775, abs=1e-12)  # major on platform
        assert d[2, 0] == pytest.approx(0.9195, abs=1e-12)  # small on platform
        assert d[0, 1] == pytest.approx(0.6575, abs=1e-12)  # platform on major
        assert d[0, 2] == pytest.approx(0.7075, abs=1e-12)  # platform on small
        assert d[1, 2] == 0.0 and d[2, 1] == 0.0

    def test_asymmetry_ratios(self):
        d = cs.ios_interdependence()
        assert d[1, 0] / d[0, 1] == pytest.approx(1.33, abs=0.01)
        assert d[2, 0] / d[0, 2] == pytest.approx(1.30, abs=0.01)

    def test_elicited_parameters(self):
        r = cs.IOS_RECIP
        assert (r.rho0, r.eta, r.memory_k, r.kappa) == (0.85, 1.3, 4, 1.2)
        assert r.omega_amp == 0.6 and r.lambda_r == 1.0
        t = cs.IOS_TRUST
        assert (t.t0, t.lambda_plus, t.lambda_minus) == (0.70, 0.10, 0.30)
        assert (t.xi, t.mu_r, t.delta_r) == (0.50, 0.60, 0.03)
        assert (t.t_max, t.theta_r, t.lambda_t) == (0.90, 0.60, 1.0)

    def test_baseline_shock_schedule(self):
        scenario, sim = cs.build_ios_scenario(False)
        periods = sorted(s.period for s in sim.shocks)
        assert periods == [36, 36, 48, 48, 54]
        by_key = {(s.period, s.actor): s.delta for s in sim.shocks}
        assert by_key[(36, 1)] == -0.15 and by_key[(36, 2)] == -0.15
        assert by_key[(48, 1)] == -0.40 and by_key[(48, 0)] == -0.25
        assert by_key[(54, 0)] == +0.20

    def test_counterfactual_shock_schedule(self):
        scenario, sim = cs.build_ios_scenario(True)
        by_key = {(s.period, s.actor): s.delta for s in sim.shocks}
        assert by_key[(44, 0)] == +0.15  # proactive early concession
        assert by_key[(36, 1)] == -0.05 and by_key[(36, 2)] == -0.05
        assert by_key[(48, 1)] == -0.10 and by_key[(48, 0)] == -0.10
        assert by_key[(54, 0)] == +0.20

    def test_phase_partition(self):
        spans = [(p.start, p.end) for p in cs.IOS_PHASES]
        assert spans == [(1, 16), (17, 36), (37, 48), (49, 54), (55, 66)]
        assert spans[-1][1] == cs.HORIZON


def flat_trajectory(level=0.7, horizon=66, n=3):
    shape = (horizon, n, n)
    return Trajectory(
        labels=("Apple", "Major", "Small"),
        actions=np.full((horizon, n), level),
        baselines=np.full((horizon, n), level),
        norms=np.full((horizon, n), level),
        trust=np.full(shape, 0.7),
        reputation=np.zeros(shape),
        signal=np.zeros(shape),
        recip_term=np.zeros(shape),
        converged=np.ones(horizon, dtype=bool),
    )


class TestPhaseStatistics:
    def test_constant_trajectory(self):
        stats = cs.phase_statistics(flat_trajectory(0.7))
        for p in stats:
            assert p.means == pytest.approx((0.7, 0.7, 0.7), abs=1e-12)
            assert p.sds == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("analysis",
                             ["phase_statistics", "score_rubric_auto", "detect_transitions"])
    @pytest.mark.parametrize("horizon", [65, 67])
    def test_other_horizons_rejected(self, analysis, horizon):
        with pytest.raises(ConfigurationError, match="66-quarter"):
            getattr(cs, analysis)(flat_trajectory(horizon=horizon))


class TestRubric:
    def test_reference_scoring_totals(self):
        total, applicable = cs.RubricScore.reference_total()
        assert applicable == 51.0
        assert total == pytest.approx(43.0)

    def test_reference_phase_totals(self):
        per_phase = [0.0] * 5
        for row in cs.HUMAN_REFERENCE_SCORES.values():
            for i, c in enumerate(row):
                if c is not None:
                    per_phase[i] += c
        assert per_phase == pytest.approx([8.5, 10.0, 8.0, 6.5, 10.0])

    def test_flat_trajectory_perfectly_stable(self):
        score = cs.score_rubric_auto(flat_trajectory())
        assert all(v == 1.0 for v in score.auto[10])

    def test_auto_indicators_on_baseline_run(self):
        traj = cs.run_ios()
        score = cs.score_rubric_auto(traj)
        for indicator in cs.AUTO_INDICATORS:
            assert score.auto_average(indicator) >= 0.75, indicator
        # all five cells of every auto indicator are populated
        for indicator in cs.AUTO_INDICATORS:
            assert all(v is not None for v in score.auto[indicator])

    def test_manual_indicators_not_auto_scored(self):
        score = cs.score_rubric_auto(cs.run_ios())
        for indicator in (2, 3, 5, 6, 7, 9, 11, 12):
            assert all(v is None for v in score.auto[indicator])
            assert score.reference[indicator] == cs.HUMAN_REFERENCE_SCORES[indicator]


class TestBaselineRun:
    def test_crisis_is_minimum_maturation_is_maximum(self):
        stats = cs.phase_statistics(cs.run_ios())
        means = np.array([p.means for p in stats])
        for actor in range(3):
            assert int(np.argmin(means[:, actor])) == 3
            assert int(np.argmax(means[:, actor])) == 1

    def test_transitions_within_one_quarter(self):
        detected = cs.detect_transitions(cs.run_ios())
        assert abs(detected["Maturation"] - 16) <= 1
        assert detected["Tension"] == 36
        assert detected["Crisis"] == 48
        assert detected["Adjustment"] == 54

    def test_major_moves_more_than_platform_in_decline(self):
        stats = cs.phase_statistics(cs.run_ios())
        means = np.array([p.means for p in stats])
        for phase in (2, 3):  # tension and crisis
            d_major = abs(means[phase, 1] - means[phase - 1, 1])
            d_apple = abs(means[phase, 0] - means[phase - 1, 0])
            assert d_major > d_apple


class TestCounterfactual:
    def test_identical_runs_have_zero_uplift(self):
        base = cs.run_ios()
        cmp = cs.counterfactual_comparison(base, base)
        assert all(u == 0.0 for u in cmp.uplift)

    def test_uplift_band_and_trust_floor(self):
        base, cf = cs.run_ios(), cs.run_ios_pair()[1]
        cmp = cs.counterfactual_comparison(base, cf)
        for u in cmp.uplift:
            assert 0.05 <= u <= 0.25
        assert cmp.min_bilateral_trust > 0.5

    def test_mismatched_horizons_rejected(self):
        base = cs.run_ios()
        short = flat_trajectory(horizon=10)
        with pytest.raises(ConfigurationError):
            cs.counterfactual_comparison(base, short)

    def test_noise_streams_are_paired(self):
        # same seed drives both runs, so pre-divergence quarters match
        base, cf = cs.run_ios(seed=7), cs.run_ios_pair(seed=7)[1]
        assert np.allclose(base.actions[:30], cf.actions[:30])

    @given(seed=st.sampled_from([0, cs.DEFAULT_SEED, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pair_equals_two_separate_runs(self, seed):
        # one two-row batch on one noise block gives each run's own bits
        pair = cs.run_ios_pair(seed)
        for got, counterfactual in zip(pair, (False, True)):
            want = run(*cs.build_ios_scenario(counterfactual, seed))
            for f in fields(Trajectory):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name == "labels":
                    assert a == b
                else:
                    assert a.dtype == b.dtype and a.shape == b.shape, f.name
                    assert a.tobytes() == b.tobytes(), f.name
