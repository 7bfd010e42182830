from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim import case_study as cs
from coopsim.errors import ConfigurationError
from coopsim.files import read_dependency_csv
from coopsim.params import compute_interdependence
from coopsim.reports import render_rubric
from coopsim.simulation import Trajectory, run


class TestScenarioConstants:
    def test_interdependence_coefficients(self):
        # the scenario's D is the shipped table's, in ACTORS order; acceptance
        # criterion 2 checks the table's coefficients themselves
        labels, entries = read_dependency_csv(cs.ios_dependency_csv_path())
        assert tuple(labels) == cs.ACTORS
        d = compute_interdependence(entries, len(labels))
        assert cs.ios_interdependence().values.tobytes() == d.values.tobytes()

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


@pytest.fixture(scope="module")
def ios_run():
    """The baseline case-study run at the default seed; the phase, rubric
    and counterfactual criteria on it are in test_acceptance.py."""
    return cs.run_ios_pair()[0]


@pytest.fixture(scope="module")
def ios_skeleton():
    """The baseline and counterfactual scenarios run without noise, so the
    phase structure is the shocks' alone: the criterion-9 claims that
    test_acceptance.py checks on the released noisy run hold here too."""
    return [run(scen, replace(sim, noise_sigma=0.0))
            for scen, sim in (cs.build_ios_scenario(cf) for cf in (False, True))]


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


def built_trajectory(levels=((1, 0.5), (66, 0.5)), steps=(), zigzag=0.0,
                     norms=((1, 0.5), (66, 0.5)), trust=((1, 0.7), (66, 0.7))):
    """A 66-quarter trajectory built from its parts.  Every actor's level runs
    through the ``(quarter, level)`` knots ``levels`` and moves by ``delta``
    from each ``(quarter, delta)`` of ``steps`` on; actors 0 and 1 add
    ``+zigzag`` and ``-zigzag`` in alternate quarters, which leaves the
    aggregate level as it is.  Every actor's norm runs through the ``norms``
    knots, and the developers' trust in the platform through the ``trust``
    knots; every other trust is 0.7."""
    q = np.arange(1, cs.HORIZON + 1)
    level = np.interp(q, *zip(*levels)) + sum(delta * (q >= at) for at, delta in steps)
    wobble = zigzag * (-1.0) ** q
    actions = level[:, None] + np.stack([wobble, -wobble, 0.0 * wobble], axis=1)
    shape = (cs.HORIZON, 3, 3)
    trust_matrices = np.full(shape, 0.7)
    trust_matrices[:, 1:, 0] = np.interp(q, *zip(*trust))[:, None]
    return Trajectory(
        labels=cs.ACTORS,
        actions=actions,
        baselines=actions.copy(),
        norms=np.repeat(np.interp(q, *zip(*norms))[:, None], 3, axis=1),
        trust=trust_matrices,
        reputation=np.zeros(shape),
        signal=np.zeros(shape),
        recip_term=np.zeros(shape),
        converged=np.ones(cs.HORIZON, dtype=bool),
    )


def body_trends(*deltas):
    """Level knots that move the aggregate level by each delta, in turn,
    between the two-quarter levels at the ends of the phase bodies that
    indicator 1 compares."""
    knots, level = [(1, 0.5), (2, 0.5)], 0.5
    for end, delta in zip((15, 35, 47, 53, 66), deltas):
        level += delta
        knots += [(end - 1, level), (end, level)]
    return tuple(knots)


def rubric(traj):
    """The machine rubric scores of one trajectory."""
    return cs.score_rubric_auto(traj.actions, traj.norms, traj.trust)


#: Built trajectories, one per discrete branch of the scorers: the parts,
#: then the transitions in phase order (None: not found), then the four
#: indicators' phase scores.
BUILT = [
    # no jump: the disruption transitions are None and score 0; norms
    # that never climb have no maturation either
    pytest.param({}, (1, None, None, None, None),
                 {1: (0.0, 1.0, 0.0, 0.0, 0.0), 4: (1.0,) * 5,
                  8: (1.0, 0.0, 0.0, 0.0, 0.0), 10: (1.0,) * 5}, id="no-jump"),
    # jumps at 34 and 38 tie for Q36, 47 and 49 for Q48: the earlier wins
    pytest.param({"steps": ((34, -0.08), (38, -0.08), (47, 0.08), (49, -0.08), (53, 0.08))},
                 (1, None, 34, 47, 53),
                 {1: (0.0, 0.5, 0.5, 0.0, 0.5), 4: (1.0,) * 5,
                  8: (1.0, 0.0, 0.5, 1.0, 1.0), 10: (1.0,) * 5}, id="tied-jumps"),
    pytest.param({"norms": ((1, 0.2), (66, 0.9))}, (1, None, None, None, None),
                 {1: (0.0, 1.0, 0.0, 0.0, 0.0), 4: (1.0,) * 5,
                  8: (1.0, 0.0, 0.0, 0.0, 0.0), 10: (1.0,) * 5}, id="norms-never-flatten"),
    pytest.param({"norms": ((1, 0.2), (20, 0.6), (66, 0.6))}, (1, 22, None, None, None),
                 {1: (0.0, 1.0, 0.0, 0.0, 0.0), 4: (1.0,) * 5,
                  8: (1.0, 0.0, 0.0, 0.0, 0.0), 10: (1.0,) * 5}, id="norms-flatten-late"),
    # trend deltas against the expected signs (+, 0, -, -, +)
    pytest.param({"levels": body_trends(0.07, 0.04, -0.07, -0.03, 0.2)},
                 (1, None, None, None, None),
                 {1: (1.0, 1.0, 1.0, 0.5, 1.0), 4: (1.0,) * 5,
                  8: (1.0, 0.0, 0.0, 0.0, 0.0), 10: (1.0,) * 5}, id="trends-inside-bands"),
    pytest.param({"levels": body_trends(0.03, -0.07, -0.03, 0.03, -0.03)},
                 (1, None, None, None, None),
                 {1: (0.5, 0.5, 0.5, 0.0, 0.0), 4: (1.0,) * 5,
                  8: (1.0, 0.0, 0.0, 0.0, 0.0), 10: (1.0,) * 5}, id="trends-between-bands"),
    pytest.param({"levels": body_trends(-0.03, 0.12, 0.2, -0.2, 0.03)},
                 (1, None, None, None, None),
                 {1: (0.0, 0.0, 0.0, 1.0, 0.5), 4: (1.0,) * 5,
                  8: (1.0, 0.0, 0.0, 0.0, 0.0), 10: (1.0,) * 5}, id="trends-outside-bands"),
    # detrended sds of 0.17-0.18, then of 0.26-0.27
    pytest.param({"zigzag": 0.27}, (1, None, None, None, None),
                 {1: (0.0, 1.0, 0.0, 0.0, 0.0), 4: (1.0,) * 5,
                  8: (1.0, 0.0, 0.0, 0.0, 0.0), 10: (0.5,) * 5}, id="unsteady"),
    pytest.param({"zigzag": 0.4}, (1, None, None, None, None),
                 {1: (0.0, 1.0, 0.0, 0.0, 0.0), 4: (1.0,) * 5,
                  8: (1.0, 0.0, 0.0, 0.0, 0.0), 10: (0.0,) * 5}, id="erratic"),
    pytest.param({"trust": ((1, 0.7), (40, 0.7), (50, 0.2), (66, 0.2))},
                 (1, None, None, None, None),
                 {1: (0.0, 1.0, 0.0, 0.0, 0.0), 4: (1.0, 1.0, 1.0, 0.0, 0.0),
                  8: (1.0, 0.0, 0.0, 0.0, 0.0), 10: (1.0,) * 5}, id="developer-distrust"),
]


@pytest.fixture(scope="module")
def built_batch():
    """The ``BUILT`` trajectories as one (66, 10, ...) batch, scored once:
    (transitions, scores)."""
    trajs = [built_trajectory(**case.values[0]) for case in BUILT]
    actions, norms, trust = (np.stack([getattr(t, f) for t in trajs], axis=1)
                             for f in ("actions", "norms", "trust"))
    return cs.detect_transitions(actions, norms), cs.score_rubric_auto(actions, norms, trust)


class TestPhaseStatistics:
    def test_constant_trajectory(self):
        means, sds = cs.phase_statistics(flat_trajectory(0.7).actions)
        assert means.shape == sds.shape == (5, 3)
        assert means == pytest.approx(np.full((5, 3), 0.7), abs=1e-12)
        assert sds == pytest.approx(np.zeros((5, 3)), abs=1e-12)

    @pytest.mark.parametrize("analysis",
                             ["phase_statistics", "score_rubric_auto", "detect_transitions"])
    @pytest.mark.parametrize("horizon", [65, 67])
    def test_other_horizons_rejected(self, analysis, horizon):
        traj = flat_trajectory(horizon=horizon)
        reads = {"phase_statistics": (traj.actions,),
                 "detect_transitions": (traj.actions, traj.norms),
                 "score_rubric_auto": (traj.actions, traj.norms, traj.trust)}
        with pytest.raises(ConfigurationError, match="66-quarter"):
            getattr(cs, analysis)(*reads[analysis])


class TestRubric:
    def test_reference_scoring_totals(self):
        text = render_rubric(rubric(flat_trajectory()))
        assert "\nReference assessment total: 43 / 51 applicable points.\n" in text

    def test_reference_phase_totals(self):
        per_phase = [0.0] * 5
        for row in cs.HUMAN_REFERENCE_SCORES.values():
            for i, c in enumerate(row):
                if c is not None:
                    per_phase[i] += c
        assert per_phase == pytest.approx([8.5, 10.0, 8.0, 6.5, 10.0])

    def test_flat_trajectory_perfectly_stable(self):
        score = rubric(flat_trajectory())
        assert all(v == 1.0 for v in score[10])

    def test_auto_indicators_on_baseline_run(self, ios_skeleton):
        score = rubric(ios_skeleton[0])
        for indicator in cs.AUTO_INDICATORS:
            # one score per phase
            assert len(score[indicator]) == len(cs.IOS_PHASES)
            assert sum(score[indicator]) / len(cs.IOS_PHASES) >= 0.75, indicator

    @pytest.mark.parametrize("row, parts, transitions, scores",
                             [pytest.param(row, *case.values, id=case.id)
                              for row, case in enumerate(BUILT)])
    def test_scorers_on_built_trajectories(self, built_batch, row, parts, transitions, scores):
        # each trajectory alone, then as its row of the batch of them all
        traj = built_trajectory(**parts)
        batch_transitions, batch_scores = built_batch
        for detected, score in [
                (cs.detect_transitions(traj.actions, traj.norms), rubric(traj)),
                (batch_transitions[:, row], {i: s[:, row] for i, s in batch_scores.items()})]:
            assert tuple(q or None for q in detected.tolist()) == transitions
            assert {i: tuple(s.tolist()) for i, s in score.items()} == scores

    def test_manual_indicators_not_auto_scored(self, ios_run):
        score = rubric(ios_run)
        assert tuple(score) == cs.AUTO_INDICATORS
        # the rubric shows the reference assessment of the other indicators
        rows = render_rubric(score).splitlines()
        for indicator in (2, 3, 5, 6, 7, 9, 11, 12):
            row = next(r for r in rows if r.startswith(f"| {indicator} | "))
            ref = cs.HUMAN_REFERENCE_SCORES[indicator]
            assert row.split(" | ")[2:-1] == [f"ref {'n/a' if v is None else f'{v:g}'}"
                                              for v in ref]
            assert row.endswith("| (manual) |")


class TestBaselineRun:
    def test_crisis_is_minimum_maturation_is_maximum(self, ios_skeleton):
        means, _ = cs.phase_statistics(ios_skeleton[0].actions)
        for actor in range(3):
            assert int(np.argmin(means[:, actor])) == 3
            assert int(np.argmax(means[:, actor])) == 1

    def test_transitions_within_one_quarter(self, ios_skeleton):
        _, maturation, tension, crisis, adjustment = cs.detect_transitions(
            ios_skeleton[0].actions, ios_skeleton[0].norms)
        assert abs(maturation - 16) <= 1
        assert tension == 36
        assert crisis == 48
        assert adjustment == 54

    def test_major_moves_more_than_platform_in_decline(self, ios_skeleton):
        means, _ = cs.phase_statistics(ios_skeleton[0].actions)
        for phase in (2, 3):  # tension and crisis
            d_major = abs(means[phase, 1] - means[phase - 1, 1])
            d_apple = abs(means[phase, 0] - means[phase - 1, 0])
            assert d_major > d_apple


class TestCounterfactual:
    def test_uplift_band_and_trust_floor(self, ios_skeleton):
        base, cf = ios_skeleton
        _, _, uplift, min_trust = cs.counterfactual_comparison(base.actions, cf.actions, cf.trust)
        for u in uplift:
            assert 0.05 <= u <= 0.25
        assert min_trust > 0.5

    def test_identical_runs_have_zero_uplift(self, ios_run):
        _, _, uplift, _ = cs.counterfactual_comparison(ios_run.actions, ios_run.actions,
                                                       ios_run.trust)
        assert all(u == 0.0 for u in uplift)

    def test_mismatched_horizons_rejected(self, ios_run):
        with pytest.raises(ConfigurationError):
            cs.counterfactual_comparison(ios_run.actions, flat_trajectory(horizon=10).actions,
                                         ios_run.trust)

    def test_noise_streams_are_paired(self):
        # same seed drives both runs, so pre-divergence quarters match
        base, cf = cs.run_ios_pair(seed=7)
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
