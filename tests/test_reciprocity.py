import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.params import EconomyParams, ReciprocityParams
from coopsim.reciprocity import (
    bounded_response,
    cooperation_signal,
    gated_reciprocity_term,
    reciprocity_response,
)
from coopsim.scenario import ScenarioConfig, SimConfig, symmetric_matrix
from coopsim.simulation import run


def baselines_of(values, k, pre=(), initial=0.0):
    """Windowed baselines the engine records for an actor scripted to play
    ``values``: entry t - 1 is the baseline in force at period t, one
    period past the script."""
    scen = ScenarioConfig(
        labels=("A", "B"),
        d=symmetric_matrix(2, 0.5),
        recip=ReciprocityParams(memory_k=k),
        econ=EconomyParams(endowments=(1.0, 1.0), alpha=(0.5, 0.5)),
        a_max=(100.0, 100.0),
        baseline_init=(initial, initial),
        pre_history=tuple((v, 0.0) for v in pre),
    )
    script = {0: dict(enumerate(values, start=1))}
    traj = run(scen, SimConfig(horizon=len(values) + 1, noise_sigma=0.0), script=script)
    return traj.baselines[:, 0]


class TestMovingAverage:
    def test_constant_history(self):
        for k in (1, 3, 5):
            assert baselines_of([18.0] * 6, k)[6] == 18.0

    def test_window_mean(self):
        assert baselines_of([18.0, 18.0, 18.0, 8.0], 4)[4] == pytest.approx(15.5)

    def test_truncated_window_is_full_history(self):
        assert baselines_of([4.0, 6.0], 5)[2] == pytest.approx(5.0)

    def test_no_history_gives_baseline_init(self):
        assert baselines_of([3.0], 4, initial=7.25)[0] == 7.25

    def test_window_never_reads_current_period(self):
        # baseline for period 3 must ignore the period-3 action
        assert baselines_of([1.0, 2.0, 100.0], 5)[2] == pytest.approx(1.5)

    def test_oracle_equivalence_on_random_windows(self):
        rng = random.Random(1234)
        for _ in range(100):
            n = rng.randint(1, 40)
            values = [rng.uniform(0, 20) for _ in range(n)]
            k = rng.randint(1, 25)
            got = baselines_of(values, k)
            for t in range(2, n + 2):
                expected = statistics.fmean(values[max(0, t - 1 - k) : t - 1])
                assert got[t - 1] == pytest.approx(expected, rel=1e-12)

    def test_isolated_deviation_footprint(self):
        # a deviation of size delta at t* adds exactly delta/k to the window
        # mean for the next k periods and nothing afterwards
        base, delta, k, t_star = 10.0, -6.0, 4, 8
        values = [base] * 20
        values[t_star - 1] += delta
        got = baselines_of(values, k)
        for t in range(t_star + 1, t_star + k + 1):
            assert got[t - 1] == pytest.approx(base + delta / k)
        assert got[t_star + k] == pytest.approx(base)

    def test_pre_history_fills_window(self):
        assert baselines_of([10.0], 4, pre=[2.0, 4.0])[0] == pytest.approx(3.0)
        assert baselines_of([10.0], 2, pre=[2.0, 4.0])[1] == pytest.approx(7.0)


class TestSignalsAndResponses:
    def test_worked_deviation(self):
        assert cooperation_signal(8.0, 18.0) == -10.0

    def test_no_deviation(self):
        assert cooperation_signal(5.0, 5.0) == 0.0

    def test_positive_deviation(self):
        assert cooperation_signal(0.95, 0.80) == pytest.approx(0.15)

    def test_saturated_response(self):
        assert bounded_response(-10.0, 1.0) == pytest.approx(-1.0, abs=1e-4)

    def test_moderate_sensitivity_response(self):
        assert bounded_response(1.0, 1.2) == pytest.approx(0.8336546070121552, abs=1e-12)

    def test_origin(self):
        assert bounded_response(0.0, 2.0) == 0.0

    @given(st.floats(-50, 50, allow_nan=False), st.floats(0.01, 5.0))
    @settings(max_examples=300, deadline=None)
    def test_odd_and_bounded(self, s, kappa):
        phi = bounded_response(s, kappa)
        assert abs(phi) <= 1.0
        assert bounded_response(-s, kappa) == pytest.approx(-phi, abs=0.0)

    @given(st.floats(-0.05, 0.05), st.floats(0.1, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_near_linear_regime(self, s, kappa):
        x = kappa * s
        if abs(x) <= 0.05:
            assert abs(bounded_response(s, kappa) - x) <= abs(x) ** 3 / 3 + 1e-15

    def test_fuzz_bounded_10k(self):
        rng = random.Random(99)
        for _ in range(10000):
            s = rng.uniform(-100, 100)
            kappa = rng.uniform(0.01, 10)
            phi = bounded_response(s, kappa)
            assert -1.0 <= phi <= 1.0
            assert bounded_response(-s, kappa) == -phi

    def test_weighted_response(self):
        assert reciprocity_response(0.8, -10.0, 1.0) == pytest.approx(-0.8, abs=1e-3)
        assert reciprocity_response(0.0, 3.0, 1.0) == 0.0
        assert reciprocity_response(1.0, -0.5, 1.0) < 0.0


class TestGatedTerm:
    def test_trust_gate_closed(self):
        assert gated_reciprocity_term(0.0, 0.9, 1.0, 1.0, 1.0, -5.0, 2.0) == 0.0

    def test_moderate_gating(self):
        # T * rho * response with the amplification factor at 1 (D = 0)
        s = math.atanh(0.5)
        term = gated_reciprocity_term(0.3, 0.0, 1.0, 1.0, 1.0, s, 1.0)
        assert term == pytest.approx(0.15, abs=1e-12)

    def test_high_trust_gating(self):
        s = math.atanh(0.8)
        term = gated_reciprocity_term(0.9, 0.0, 1.0, 1.0, 1.0, s, 1.0)
        assert term == pytest.approx(0.72, abs=1e-12)

    @given(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0),
        st.floats(0.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.1, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_trust(self, t1, t2, d, rho, s, kappa):
        lo, hi = sorted((t1, t2))
        a = gated_reciprocity_term(lo, d, 1.0, 1.0, rho, s, kappa)
        b = gated_reciprocity_term(hi, d, 1.0, 1.0, rho, s, kappa)
        if s > 0:
            assert a <= b + 1e-12
        elif s < 0:
            assert a >= b - 1e-12
