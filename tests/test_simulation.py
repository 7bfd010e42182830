import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.errors import ConfigurationError
from coopsim.params import EconomyParams, ReciprocityParams, TrustParams
from coopsim.scenario import ScenarioConfig, Shock, SimConfig, pd_scenario, symmetric_matrix
from coopsim.simulation import (
    TRUST_FIELDS,
    RunBatch,
    _trust_rows,
    _update_trust_matrices,
    run,
    record_batch,
    run_batch,
)
from oracles import update_trust


def two_actor(baseline_mode="moving_average", a_init=(0.5, 0.5),
              baseline_init=None, d=0.8, **recip_kwargs):
    recip = ReciprocityParams(**({"rho0": 1.0, "eta": 1.0, "kappa": 1.0,
                                  "memory_k": 4, "lambda_r": 1.0,
                                  "omega_amp": 1.0} | recip_kwargs))
    return ScenarioConfig(
        labels=("A", "B"),
        d=symmetric_matrix(2, d),
        recip=recip,
        trust=TrustParams(t0=0.7),
        econ=EconomyParams(endowments=(1.0, 1.0), alpha=(0.5, 0.5)),
        a_max=(1.0, 1.0),
        a_init=a_init,
        baseline_init=baseline_init or a_init,
        baseline_mode=baseline_mode,
    )


class TestAdjustmentDynamics:
    def test_flat_state_is_fixed_point(self):
        scen = two_actor()
        sim = SimConfig(horizon=20, noise_sigma=0.0, seed=1)
        traj = run(scen, sim)
        assert np.allclose(traj.actions, 0.5)
        assert np.allclose(traj.signal, 0.0)

    def test_single_step_matches_hand_evaluation(self):
        # one period from explicit state: the partner sits 0.15 above its
        # initial baseline, T = 0.85, D = 0.88, and actor 0 at its own norm;
        # the period-2 action moves by exactly the update rule
        scen = two_actor(a_init=(0.70, 0.80), baseline_init=(0.70, 0.65), d=0.88,
                         rho0=0.85, eta=1.3, kappa=1.2, omega_amp=0.6)
        scen = replace(scen, trust=TrustParams(t0=0.85))
        sim = SimConfig(horizon=2, adjust_rate=0.12, decay=0.05, noise_sigma=0.0)
        traj = run(scen, sim)
        rho = 0.85 * 0.88**1.3
        term = 1.0 * 0.85 * (1 + 0.6 * 0.88) * rho * np.tanh(1.2 * 0.15)
        expected = 0.70 + 0.12 * term - 0.05 * 0.0
        assert traj.actions[1, 0] == pytest.approx(expected, rel=1e-12)

    def test_shock_applies_at_stated_period_pre_clip(self):
        scen = two_actor()
        sim = SimConfig(horizon=50, noise_sigma=0.0,
                        shocks=(Shock(period=48, actor=1, delta=-0.40),))
        traj = run(scen, sim)
        assert traj.actions[46, 1] == pytest.approx(0.5)
        assert traj.actions[47, 1] == pytest.approx(0.10)

    def test_shock_clips_to_bounds(self):
        scen = two_actor()
        sim = SimConfig(horizon=5, noise_sigma=0.0,
                        shocks=(Shock(period=3, actor=0, delta=-2.0),))
        traj = run(scen, sim)
        assert traj.actions[2, 0] == 0.0

    def test_geometric_decay_without_reciprocity(self):
        # reciprocity off, fixed norms: the gap to the norm decays at
        # exactly (1 - decay) per period
        scen = two_actor(baseline_mode="fixed", a_init=(0.9, 0.2),
                         baseline_init=(0.5, 0.5), lambda_r=0.0)
        sim = SimConfig(horizon=12, decay=0.05, baseline_rate=0.0, noise_sigma=0.0)
        traj = run(scen, sim)
        for t in range(1, 12):
            gap_prev = traj.actions[t - 1] - 0.5
            gap = traj.actions[t] - 0.5
            assert np.allclose(gap, 0.95 * gap_prev, rtol=1e-12)

    def test_steady_state_satisfies_update_equation(self):
        # one more engine step from the period-40 state leaves it in place
        scen = two_actor()
        traj = run(scen, SimConfig(horizon=41, noise_sigma=0.0))
        assert np.allclose(traj.actions[40], traj.actions[39], atol=1e-9)

    def test_actions_stay_in_bounds(self):
        scen = two_actor(baseline_mode="adaptive", a_init=(0.9, 0.9),
                         baseline_init=(0.1, 0.1), rho0=2.0, kappa=3.0)
        sim = SimConfig(horizon=60, noise_sigma=0.05, seed=3,
                        shocks=(Shock(period=10, actor=0, delta=0.7),
                                Shock(period=20, actor=1, delta=-0.9)))
        traj = run(scen, sim)
        assert traj.actions.min() >= 0.0
        assert traj.actions.max() <= 1.0


class TestDeterminism:
    def test_bit_identical_reruns(self):
        scen = two_actor(baseline_mode="adaptive", baseline_init=(0.3, 0.3))
        sim = SimConfig(horizon=40, noise_sigma=0.02, seed=2024)
        a = run(scen, sim)
        b = run(scen, sim)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.trust, b.trust)
        assert np.array_equal(a.signal, b.signal)

    def test_seed_changes_noise(self):
        scen = two_actor(baseline_mode="adaptive", baseline_init=(0.3, 0.3))
        a = run(scen, SimConfig(horizon=30, noise_sigma=0.02, seed=1))
        b = run(scen, SimConfig(horizon=30, noise_sigma=0.02, seed=2))
        assert not np.array_equal(a.actions, b.actions)

    def test_horizon_one_records_initial_state_only(self):
        scen = two_actor(a_init=(0.4, 0.6), baseline_init=(0.5, 0.5))
        traj = run(scen, SimConfig(horizon=1, noise_sigma=0.02, seed=9))
        assert traj.horizon == 1
        assert tuple(traj.actions[0]) == (0.4, 0.6)

    def test_symmetric_scenario_symmetric_trajectories(self):
        scen = two_actor(baseline_mode="adaptive", a_init=(0.5, 0.5),
                         baseline_init=(0.2, 0.2))
        traj = run(scen, SimConfig(horizon=40, noise_sigma=0.0))
        assert np.allclose(traj.actions[:, 0], traj.actions[:, 1])


class TestBestResponseMode:
    def test_static_game_is_stationary_without_coupling(self):
        scen = pd_scenario(rho0=0.0)
        scen = replace(scen, trust=TrustParams(t0=0.7, lambda_t=0.0))
        sim = SimConfig(horizon=6, mode="best_response", noise_sigma=0.0)
        traj = run(scen, sim)
        assert np.allclose(traj.actions, traj.actions[0])
        assert traj.converged.all()

    def test_dilemma_reaches_cooperative_steady_state(self):
        scen = pd_scenario(rho0=1.0)
        sim = SimConfig(horizon=8, mode="best_response", noise_sigma=0.0)
        traj = run(scen, sim)
        assert traj.actions[-1, 0] == pytest.approx(10.0)
        assert traj.actions[-1, 1] == pytest.approx(10.0)
        assert traj.converged.all()

    def test_deterministic_given_seed(self):
        scen = pd_scenario(rho0=1.0)
        sim = SimConfig(horizon=6, mode="best_response", noise_sigma=0.0, seed=5)
        a = run(scen, sim)
        b = run(scen, sim)
        assert np.array_equal(a.actions, b.actions)


class TestValidation:
    def test_shock_beyond_horizon_rejected(self):
        scen = two_actor()
        with pytest.raises(ConfigurationError):
            run(scen, SimConfig(horizon=5, shocks=(Shock(period=9, actor=0, delta=0.1),)))

    def test_shock_unknown_actor_rejected(self):
        scen = two_actor()
        with pytest.raises(ConfigurationError):
            run(scen, SimConfig(horizon=5, shocks=(Shock(period=2, actor=7, delta=0.1),)))

    def test_script_pins_actions(self):
        scen = two_actor()
        sim = SimConfig(horizon=6, noise_sigma=0.02, seed=4)
        traj = run(scen, sim, script={1: {p: 0.25 for p in range(2, 7)}})
        assert np.allclose(traj.actions[1:, 1], 0.25)


def _stack(batches):
    """One batch holding the rows of one-row batches with equal actor counts."""
    n = batches[0].a_init.shape[1]
    horizon = max(int(b.horizon[0]) for b in batches)
    script = np.full((horizon, len(batches), n), np.nan)
    for r, b in enumerate(batches):
        if b.script is not None:
            script[: b.script.shape[0], r] = b.script[:, 0]

    def cat(name):
        return np.concatenate([getattr(b, name) for b in batches])

    def columns(name):
        return {f: np.concatenate([getattr(b, name)[f] for b in batches])
                for f in getattr(batches[0], name)}

    return RunBatch(
        d=cat("d"), recip=columns("recip"), trust=columns("trust"), sim=columns("sim"),
        a_max=cat("a_max"), a_init=cat("a_init"), baseline_init=cat("baseline_init"),
        baseline_mode=cat("baseline_mode"), horizon=cat("horizon"), script=script,
        shocks=tuple((r, s) for r, b in enumerate(batches) for _, s in b.shocks),
        pre_history=None,
    )


class TestBatchKernel:
    def test_rows_equal_separate_runs(self):
        # mixed baseline modes, windows, horizons, noise, shocks and scripts
        runs = [
            (two_actor("adaptive", baseline_init=(0.2, 0.2), memory_k=1),
             SimConfig(horizon=30, noise_sigma=0.0), None),
            (two_actor("moving_average", memory_k=16, eta=0.5, d=0.6),
             SimConfig(horizon=45, noise_sigma=0.02, seed=3), {1: {20: 0.0, 21: 0.5}}),
            (two_actor("fixed", a_init=(0.9, 0.1), baseline_init=(0.5, 0.5), eta=0.0, d=0.3),
             SimConfig(horizon=12, noise_sigma=0.05, seed=8,
                       shocks=(Shock(period=4, actor=1, delta=0.3),
                               Shock(period=4, actor=1, delta=-0.7))), None),
            (two_actor("moving_average", memory_k=4, kappa=3.0),
             SimConfig(horizon=1, noise_sigma=0.0), {0: {1: 0.25}}),
        ]
        batch = _stack([RunBatch.single(s, sim, script) for s, sim, script in runs])
        got_runs = record_batch(batch, ("A", "B"))
        for got, (scen, sim, script) in zip(got_runs, runs):
            want = run(scen, sim, script=script)
            for name in ("actions", "baselines", "norms", "trust", "reputation",
                         "signal", "recip_term", "converged"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_best_response_needs_one_row(self):
        scen = two_actor()
        batch = _stack([RunBatch.single(scen, SimConfig(horizon=3))] * 2)
        with pytest.raises(ValueError):
            run_batch(batch, lambda idx, state: None, best_response=lambda *args: None)


# The kernel bounds actions, reputation and trust with np.maximum/np.minimum
# pairs, which cost about half of np.clip's Python wrapper.  Which of two
# equal zeros a max returns depends on the loop numpy takes (SIMD max
# instructions return their second operand, the scalar loop its first), so
# these pin the kernel to np.clip's bits on +-0, NaN, +-inf and subnormals,
# at sizes that are not multiples of a SIMD width.
_EDGES = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.5, 1.0, 2.0, -1.0])


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("rows", [1, 3, 7, 300])
def test_trust_update_bounds_keep_np_clip_bits(rows, n):
    gen = np.random.default_rng(10 * rows + n)
    trust, rep = gen.choice(_EDGES, (2, rows, n, n))
    s = np.zeros((rows, n, n))  # reputation only decays, trust takes a zero step
    params = {f: np.full(rows, getattr(TrustParams(), f)) for f in TRUST_FIELDS}
    p = _trust_rows(params, np.full((rows, n, n), 0.4))
    want_rep = np.clip(rep * p["keep_r"], 0.0, 1.0)
    ceiling = np.minimum(p["t_max"], 1.0 - p["theta_r"] * want_rep)
    with np.errstate(invalid="ignore"):  # 0 * inf
        want_trust = np.clip(trust + p["lambda_minus"] * s * trust * p["erosion_amp"],
                             0.0, ceiling)
        _update_trust_matrices(trust, rep, s, p)
    want_trust.reshape(rows, n * n)[:, :: n + 1] = 1.0
    assert np.array_equal(_bits(rep), _bits(want_rep))
    assert np.array_equal(_bits(trust), _bits(want_trust))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("rows", [1, 3, 7, 300])
def test_action_bounds_keep_np_clip_bits(rows, n):
    # period 1 starts at a_init and period 2 is scripted; both pass the bounds
    gen = np.random.default_rng(10 * rows + n)
    levels = np.array([-0.0, 0.0, 5e-324, 0.5, 1.0])
    starts, pinned = gen.choice(levels, (2, rows, n))
    batches = []
    for a_init, second in zip(starts.tolist(), pinned.tolist()):
        scen = ScenarioConfig(
            labels=tuple("ABCDE"[:n]), d=symmetric_matrix(n, 0.5),
            econ=EconomyParams(endowments=(1.0,) * n, alpha=(1.0 / n,) * n),
            a_init=tuple(a_init),
        )
        script = {i: {2: v} for i, v in enumerate(second)}
        batches.append(RunBatch.single(scen, SimConfig(horizon=2), script))
    batch = _stack(batches)
    got = np.stack([traj.actions for traj in record_batch(batch, scen.labels)], axis=1)
    want = np.clip(np.stack([starts, pinned]), 0.0, batch.a_max)
    assert np.array_equal(_bits(got), _bits(want))


_unit = st.floats(0.0, 1.0)
_rate = st.floats(0.001, 0.999)


@st.composite
def _dyad(draw):
    p = TrustParams(
        t0=draw(_unit), lambda_plus=draw(_rate), lambda_minus=draw(_rate),
        xi=draw(st.floats(0.0, 3.0)), mu_r=draw(_rate), delta_r=draw(_rate),
        t_max=draw(st.floats(0.01, 1.0)), theta_r=draw(_unit),
        deadband=draw(st.sampled_from((0.0, 0.05))),
    )
    return p, draw(_unit), draw(_unit), draw(st.floats(-2.0, 2.0)), draw(_unit)


@given(st.lists(_dyad(), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_kernel_trust_update_matches_scalar_oracle(cases):
    # each row carries its own parameters; the dyad (0, 1) sees signal s and
    # the dyad (1, 0) sees -s from the same starting state
    rows = len(cases)
    trust, rep = np.ones((rows, 2, 2)), np.zeros((rows, 2, 2))
    s, d = np.zeros((rows, 2, 2)), np.zeros((rows, 2, 2))
    for b, (_, t, r, sig, dij) in enumerate(cases):
        trust[b, 0, 1] = trust[b, 1, 0] = t
        rep[b, 0, 1] = rep[b, 1, 0] = r
        s[b, 0, 1], s[b, 1, 0] = sig, -sig
        d[b, 0, 1] = d[b, 1, 0] = dij
    params = {f: np.array([getattr(c[0], f) for c in cases]) for f in TRUST_FIELDS}
    _update_trust_matrices(trust, rep, s, _trust_rows(params, d))
    for b, (p, t, r, sig, dij) in enumerate(cases):
        for (i, j), signal in (((0, 1), sig), ((1, 0), -sig)):
            want_t, want_r = update_trust(t, r, signal, dij, p)
            assert trust[b, i, j] == pytest.approx(want_t, rel=1e-12, abs=1e-15)
            assert rep[b, i, j] == pytest.approx(want_r, rel=1e-12, abs=1e-15)
        assert trust[b, 0, 0] == trust[b, 1, 1] == 1.0
        assert rep[b, 0, 0] == rep[b, 1, 1] == 0.0
