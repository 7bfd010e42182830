import math
import random
import statistics
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.errors import ConfigurationError
from coopsim.params import EconomyParams, InterdependenceMatrix, ReciprocityParams, TrustParams
from coopsim.reciprocity import gate_weights, sensitivity
from coopsim.scenario import BASELINE_MODES, ScenarioConfig, SimConfig, symmetric_matrix
from coopsim.simulation import RunBatch, run, run_batch
from oracles import gated_term, sensitivity_per_eta

ONE_PERIOD = SimConfig(horizon=1, noise_sigma=0.0)


def observed(actions, baselines, t0=1.0, d=0.0, **recip):
    """Two-actor scenario whose period 1 shows ``actions`` against
    ``baselines``.  The gate defaults to 1 (rho0 = 1, eta = 0, omega = 0,
    lambda_r = 1, full trust), so the recorded term is tanh(kappa * s)."""
    return ScenarioConfig(
        labels=("A", "B"),
        d=symmetric_matrix(2, d),
        recip=ReciprocityParams(**({"rho0": 1.0, "eta": 0.0, "omega_amp": 0.0} | recip)),
        trust=TrustParams(t0=t0),
        a_max=tuple(max(1.0, a) for a in actions),
        a_init=actions,
        baseline_init=baselines,
    )


def period_one(actions, baselines, **kwargs):
    """The trajectory of ``observed``'s one-period run."""
    return run(observed(actions, baselines, **kwargs), ONE_PERIOD)


def deviating(s, **kwargs):
    """Period 1 with B exactly s off its baseline and A exactly -s off its
    own, so ``signal[0, 0, 1]`` is s and ``signal[0, 1, 0]`` is -s."""
    pos, neg = max(s, 0.0), max(-s, 0.0)
    return period_one((neg, pos), (pos, neg), **kwargs)


def response(s, kappa, **kwargs):
    """The engine's recorded term of A about B when B deviates by s."""
    return float(deviating(s, kappa=kappa, **kwargs).recip_term[0, 0, 1])


def deviation_terms(s, kappa):
    """Period-1 recip_term of ``deviating(s, kappa=kappa)`` for every entry
    of the (B,) arrays, run as one batch."""
    batch = RunBatch.of([(observed((0.0, 0.0), (0.0, 0.0)), ONE_PERIOD)] * len(s))
    pos, neg = np.maximum(s, 0.0), np.maximum(-s, 0.0)
    batch = replace(batch, rows=batch.rows | {
        "kappa": kappa,
        "a_max": np.repeat(np.maximum(np.abs(s), 1.0)[:, None], 2, axis=1),
        "a_init": np.stack([neg, pos], axis=1),
        "baseline_init": np.stack([pos, neg], axis=1),
    })
    terms = []
    run_batch(batch, lambda idx, state: terms.append(state["recip_term"].copy()))
    return terms[0]


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
        assert period_one((0.0, 8.0), (0.0, 18.0)).signal[0, 0, 1] == -10.0

    def test_no_deviation(self):
        assert period_one((0.0, 5.0), (0.0, 5.0)).signal[0, 0, 1] == 0.0

    def test_positive_deviation(self):
        assert period_one((0.0, 0.95), (0.0, 0.80)).signal[0, 0, 1] == pytest.approx(0.15)

    def test_saturated_response(self):
        assert response(-10.0, 1.0) == pytest.approx(-1.0, abs=1e-4)

    def test_moderate_sensitivity_response(self):
        assert response(1.0, 1.2) == pytest.approx(0.8336546070121552, abs=1e-12)

    def test_origin(self):
        assert response(0.0, 2.0) == 0.0

    @given(st.floats(-50, 50, allow_nan=False), st.floats(0.01, 5.0))
    @settings(max_examples=300, deadline=None)
    def test_odd_and_bounded(self, s, kappa):
        term = deviating(s, kappa=kappa).recip_term[0]
        assert abs(term[0, 1]) <= 1.0
        assert term[1, 0] == -term[0, 1]

    @given(st.floats(-0.05, 0.05), st.floats(0.1, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_near_linear_regime(self, s, kappa):
        x = kappa * s
        if abs(x) <= 0.05:
            assert abs(response(s, kappa) - x) <= abs(x) ** 3 / 3 + 1e-15

    def test_fuzz_bounded_10k(self):
        rng = np.random.default_rng(99)
        term = deviation_terms(rng.uniform(-100, 100, 10000), rng.uniform(0.01, 10, 10000))
        assert ((-1.0 <= term) & (term <= 1.0)).all()
        assert (term[:, 1, 0] == -term[:, 0, 1]).all()

    def test_weighted_response(self):
        assert response(-10.0, 1.0, rho0=0.8) == pytest.approx(-0.8, abs=1e-3)
        assert response(3.0, 1.0, rho0=0.0) == 0.0
        assert response(-0.5, 1.0) < 0.0


class TestGatedTerm:
    def test_trust_gate_closed(self):
        # zero trust closes the gate, and so does lambda_r = 0, which
        # switches conditional cooperation off at any trust
        for closed in ({"t0": 0.0}, {"t0": 0.9, "lambda_r": 0.0}):
            assert response(-5.0, 2.0, d=0.9, omega_amp=1.0, **closed) == 0.0

    def test_moderate_gating(self):
        # T * rho * response with the amplification factor at 1 (D = 0)
        term = response(math.atanh(0.5), 1.0, t0=0.3, omega_amp=1.0)
        assert term == pytest.approx(0.15, abs=1e-12)

    def test_high_trust_gating(self):
        term = response(math.atanh(0.8), 1.0, t0=0.9, omega_amp=1.0)
        assert term == pytest.approx(0.72, abs=1e-12)

    @given(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        st.floats(0.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.1, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_trust(self, t1, t2, d, rho, s, kappa):
        lo, hi = sorted((t1, t2))
        a = response(s, kappa, t0=lo, d=d, rho0=rho, omega_amp=1.0)
        b = response(s, kappa, t0=hi, d=d, rho0=rho, omega_amp=1.0)
        if s > 0:
            assert a <= b + 1e-12
        elif s < 0:
            assert a >= b - 1e-12


class TestGateWeights:
    def test_an_overflowing_gate_is_rejected_without_a_warning(self):
        # row 1's lambda_r * (1 + omega * D) * rho0 * D overflows; row 0 is finite
        d = np.array([[[0.0, 0.8], [0.8, 0.0]]] * 2)
        recip = {"lambda_r": np.array([1.0, 5.0]), "omega_amp": np.array([1.0, 1.0]),
                 "rho0": np.array([1.0, 1e308]), "eta": np.array([1.0, 1.0])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError,
                               match=r"^the reciprocity gate .* is not finite at "
                                     r"lambda_r = 5\.0, omega_amp = 1\.0, rho0 = 1e\+308"):
                gate_weights(d, recip)
            assert np.isfinite(gate_weights(d[:1], {f: c[:1] for f, c in recip.items()})).all()


@settings(deadline=None)
@given(st.data())
def test_sensitivity_matches_the_per_eta_powers(data):
    # one elementwise power against one masked power per distinct eta, bit
    # for bit: numpy's fast scalar exponents 0.5, 2 and -1 among random
    # etas, 0 and 1, and zero-dependency pairs (0 ** -1 is inf both ways)
    rows = data.draw(st.integers(1, 40), label="rows")
    n = data.draw(st.integers(2, 4), label="n")
    eta = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0, -1.0)), st.floats(0.0, 3.0)),
        min_size=rows, max_size=rows)))
    rho0 = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=rows, max_size=rows)))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    d = np.random.default_rng(seed).random((rows, n, n))
    d[d < 0.2] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * inf with rho0 = 0
        got, want = sensitivity(d, rho0, eta), sensitivity_per_eta(d, rho0, eta)
    assert got.tobytes() == want.tobytes()


def _level(hi):
    # 0 or at least 1e-3, so that no product in the term is subnormal
    return st.one_of(st.just(0.0), st.floats(1e-3, hi))


@st.composite
def _noisy_runs(draw):
    n = draw(st.integers(2, 4))
    d = [[0.0 if i == j else draw(_level(1.0)) for j in range(n)] for i in range(n)]
    actions = st.tuples(*[_level(1.0)] * n)
    scen = ScenarioConfig(
        labels=tuple("ABCD"[:n]),
        d=InterdependenceMatrix(d),
        recip=ReciprocityParams(
            rho0=draw(_level(3.0)), eta=draw(_level(3.0)), kappa=draw(st.floats(1e-3, 5.0)),
            memory_k=draw(st.integers(1, 6)), lambda_r=draw(_level(2.0)),
            omega_amp=draw(_level(2.0)),
        ),
        trust=TrustParams(t0=draw(_level(1.0)), deadband=draw(st.sampled_from((0.0, 0.05)))),
        econ=EconomyParams(endowments=(1.0,) * n, alpha=(1.0 / n,) * n),
        a_init=draw(actions),
        baseline_init=draw(actions),
        baseline_mode=draw(st.sampled_from(BASELINE_MODES)),
        pre_history=tuple(draw(st.lists(actions, max_size=3))),
    )
    sim = SimConfig(horizon=draw(st.integers(1, 12)), baseline_rate=draw(_level(1.0)),
                    noise_sigma=draw(st.floats(1e-3, 0.1)), seed=draw(st.integers(0, 2**32)))
    return scen, sim


@given(_noisy_runs())
@settings(max_examples=200, deadline=None)
def test_engine_term_matches_scalar_oracle(case):
    # every recorded off-diagonal term against the scalar formula on the
    # recorded trust, actions and the reference level of the baseline mode
    scen, sim = case
    traj = run(scen, sim)
    ref = {"moving_average": traj.baselines, "adaptive": traj.norms,
           "fixed": np.broadcast_to(scen.baseline_init, traj.baselines.shape)}[scen.baseline_mode]
    d = scen.d.values
    for t in range(traj.horizon):
        for i in range(scen.n):
            for j in range(scen.n):
                if i == j:
                    continue
                s = float(traj.actions[t, j]) - float(ref[t, j])
                want = gated_term(float(traj.trust[t, i, j]), float(d[i, j]), s, scen.recip)
                assert traj.recip_term[t, i, j] == pytest.approx(want, rel=1e-12, abs=0.0)
