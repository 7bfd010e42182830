import contextlib
import functools
import io
import os
import tempfile

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.cli import main
from coopsim.errors import ConfigurationError
from coopsim.files import read_scenario
from coopsim.params import EconomyParams, InterdependenceMatrix, ReciprocityParams, TrustParams
from coopsim.scenario import (
    BASELINE_MODES,
    ScenarioConfig,
    Shock,
    SimConfig,
    pd_scenario,
    symmetric_matrix,
)
from coopsim import case_study, simulation, sweep
from coopsim.reciprocity import gate_weights
from coopsim.simulation import (
    RECIP_FIELDS,
    RECORDED,
    SIM_FIELDS,
    TRUST_FIELDS,
    RunBatch,
    _signals,
    _trust_rows,
    _update_trust_matrices,
    _window_means,
    _window_reach,
    run,
    record_batch,
    run_batch,
)
from coopsim.rng import normal
from coopsim.solver import EquilibriumResult, EquilibriumSolver
from oracles import reference_run, update_trust, window_mean


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
    @pytest.mark.parametrize("shock, message", [
        (Shock(period=9, actor=0, delta=0.1), "shock at period 9 is beyond the horizon 5"),
        (Shock(period=2, actor=7, delta=0.1), "shock targets unknown actor 7"),
    ], ids=["beyond-horizon", "unknown-actor"])
    @pytest.mark.parametrize("build", [
        lambda bad: run(*bad),
        lambda bad: RunBatch.of([(two_actor(), SimConfig(horizon=5)), bad]),
    ], ids=["run", "second-batch-row"])
    def test_bad_shock_rejected(self, shock, message, build):
        # run() and the batched path (RunBatch.of, then record_batch) both
        # check shocks
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            build((two_actor(), SimConfig(horizon=5, shocks=(shock,))))

    def test_script_pins_actions(self):
        scen = two_actor()
        sim = SimConfig(horizon=6, noise_sigma=0.02, seed=4)
        traj = run(scen, sim, script={1: {p: 0.25 for p in range(2, 7)}})
        assert np.allclose(traj.actions[1:, 1], 0.25)

    @pytest.mark.parametrize("period", [1, 3])
    def test_script_overrides_a_shock_in_every_period(self, period):
        # each period adds its shocks, then applies its script, then the
        # bounds; period 1's initial actions take the same step
        shocks = (Shock(period=period, actor=0, delta=-0.2),
                  Shock(period=period, actor=1, delta=-0.2))
        sim = SimConfig(horizon=4, noise_sigma=0.0, shocks=shocks)
        free = run(two_actor(), replace(sim, shocks=()), script={1: {period: 0.9}})
        traj = run(two_actor(), sim, script={1: {period: 0.9}})
        assert traj.actions[period - 1, 1] == 0.9
        assert traj.actions[period - 1, 0] == free.actions[period - 1, 0] - 0.2


class TestBatchKernel:
    def test_rows_equal_separate_runs(self):
        # mixed baseline modes, windows, horizons, noise, shocks and scripts;
        # noisy rows end before noiseless ones, so the kernel cuts the noise
        # array (-0.0 on noiseless rows) with the live rows; the longest row
        # follows its window, so its last periods take the rule's shortcut
        runs = [
            (two_actor("moving_average", memory_k=3, d=0.5),
             SimConfig(horizon=60, noise_sigma=0.0), None),
            (two_actor("adaptive", baseline_init=(0.3, 0.3), memory_k=2, kappa=2.0),
             SimConfig(horizon=50, noise_sigma=0.0), {0: {40: 0.1}}),
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
        runs.sort(key=lambda r: -r[1].horizon)  # longest first
        got_runs = record_batch(RunBatch.of(runs), ("A", "B"))
        for got, (scen, sim, script) in zip(got_runs, runs):
            want = run(scen, sim, script=script)
            for name in ("actions", "baselines", "norms", "trust", "reputation",
                         "signal", "recip_term", "converged"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        # the rows come longest first; record_batch does not reorder them
        shortest_first = RunBatch.of(sorted(runs, key=lambda r: r[1].horizon))
        with pytest.raises(ValueError, match="non-increasing horizon order"):
            record_batch(shortest_first, ("A", "B"))

    def test_rows_on_one_seed_share_one_noise_block(self, monkeypatch):
        from coopsim import simulation

        draws = []

        def counting_normal(*args):
            draws.append(args[0])
            return normal(*args)

        monkeypatch.setattr(simulation, "normal", counting_normal)
        runs = [(two_actor("adaptive", baseline_init=(0.3, 0.3)),
                 SimConfig(horizon=25, noise_sigma=0.02, seed=5)),
                (two_actor("moving_average", memory_k=2, d=0.4),
                 SimConfig(horizon=25, noise_sigma=0.05, seed=5,
                           shocks=(Shock(period=7, actor=0, delta=-0.3),))),
                (two_actor("fixed", a_init=(0.8, 0.3), baseline_init=(0.5, 0.5)),
                 SimConfig(horizon=18, noise_sigma=0.02, seed=9))]
        got_runs = record_batch(RunBatch.of(runs), ("A", "B"))
        assert sorted(draws) == [5, 9]
        for got, (scen, sim) in zip(got_runs, runs):
            want = run(scen, sim)
            for name in ("actions", "baselines", "norms", "trust", "reputation",
                         "signal", "recip_term", "converged"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_rows_keep_seeds_above_the_int64_range(self):
        # seeds span [0, 2**64): a small seed beside a large one must not
        # turn the seed column into floats
        scen = two_actor("adaptive", baseline_init=(0.3, 0.3))
        sims = [SimConfig(horizon=12, noise_sigma=0.02, seed=s) for s in (3, 2**64 - 1)]
        batch = RunBatch.of([(scen, sim) for sim in sims])
        assert batch.rows["seed"].dtype == np.uint64
        assert batch.rows["seed"].tolist() == [3, 2**64 - 1]
        for got, sim in zip(record_batch(batch, scen.labels), sims):
            assert got.actions.tobytes() == run(scen, sim).actions.tobytes()

    def test_of_keeps_pre_history_and_offsets_shocks(self):
        scen = replace(two_actor(memory_k=3), pre_history=((0.2, 0.9), (0.4, 0.7)))
        sims = [SimConfig(horizon=10, noise_sigma=0.0,
                          shocks=(Shock(period=p, actor=1, delta=-0.2),)) for p in (3, 6)]
        batch = RunBatch.of([(scen, sim) for sim in sims])
        assert batch.pre_history.shape == (2, 2, 2) and batch.script is None
        assert [(r, s.period) for r, s in batch.shocks] == [(0, 3), (1, 6)]
        for got, sim in zip(record_batch(batch, scen.labels), sims):
            assert got.actions.tobytes() == run(scen, sim).actions.tobytes()

    def test_of_front_pads_unequal_pre_history(self):
        # pre-histories of 0, 1 and 3 periods under windows shorter and
        # longer than them, across baseline modes and with noise
        runs = [
            (replace(two_actor(memory_k=2), pre_history=((0.2, 0.9),)),
             SimConfig(horizon=9, noise_sigma=0.0)),
            (two_actor("adaptive", baseline_init=(0.3, 0.3), memory_k=5),
             SimConfig(horizon=12, noise_sigma=0.02, seed=4)),
            (replace(two_actor(memory_k=6, kappa=2.0),
                     pre_history=((0.1, 0.8), (0.6, -0.0), (0.35, 0.7))),
             SimConfig(horizon=12, noise_sigma=0.0)),
            (replace(two_actor("fixed", a_init=(0.9, 0.1), baseline_init=(0.5, 0.5),
                               memory_k=1), pre_history=((0.4, 0.5),)),
             SimConfig(horizon=4, noise_sigma=0.05, seed=4)),
        ]
        runs.sort(key=lambda r: -r[1].horizon)  # stable: longest first
        batch = RunBatch.of(runs)
        assert batch.pre_history.shape == (3, 4, 2)
        lead = np.isnan(batch.pre_history).all(axis=2).sum(axis=0)
        assert lead.tolist() == [3, 0, 2, 2]
        for got, (scen, sim) in zip(record_batch(batch, ("A", "B")), runs):
            want = run(scen, sim)
            for name in ("actions", "baselines", "norms", "trust", "reputation",
                         "signal", "recip_term", "converged"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_pre_history_nan_only_in_leading_periods(self):
        batch = RunBatch.of([(replace(two_actor(), pre_history=((0.5, 0.5), (0.4, 0.6))),
                              SimConfig(horizon=3))])
        for period, actors in ((1, [0, 1]), (0, [1])):
            pre = batch.pre_history.copy()
            pre[period, 0, actors] = np.nan
            with pytest.raises(ValueError, match="NaN only in whole leading periods"):
                run_batch(replace(batch, pre_history=pre))

    def test_trust_update_sees_only_live_rows(self, monkeypatch):
        # each period but the last updates the rows live in it; nothing
        # reads the last period's update, so the kernel runs none
        live = []

        def counting(trust, *args):
            live.append(len(trust))
            return _update_trust_matrices(trust, *args)

        monkeypatch.setattr(simulation, "_update_trust_matrices", counting)
        scen = two_actor()
        sims = [SimConfig(horizon=h, noise_sigma=0.02, seed=h) for h in (5, 3, 3, 1)]
        run_batch(RunBatch.of([(scen, sim) for sim in sims]))
        assert live == [4, 3, 3, 1]

    def test_record_rows_match_their_own_runs(self):
        # a row's record is its own run's up to its horizon, zeros (and
        # converged True) after it
        scen = two_actor("adaptive", baseline_init=(0.3, 0.3))
        sims = [SimConfig(horizon=h, noise_sigma=0.02, seed=h) for h in (9, 6, 2)]
        rec = run_batch(RunBatch.of([(scen, sim) for sim in sims]))
        assert set(rec) == set(RECORDED) | {"converged"}
        for b, sim in enumerate(sims):
            want = run(scen, sim)
            for name, a in rec.items():
                assert a.shape[:2] == (9, 3), name
                assert a[: sim.horizon, b].tobytes() == getattr(want, name).tobytes(), name
                assert (a[sim.horizon :, b] == (name == "converged")).all(), name

    def test_rows_out_of_horizon_order_rejected(self):
        scen = two_actor()
        batch = RunBatch.of([(scen, SimConfig(horizon=h)) for h in (3, 5)])
        with pytest.raises(ValueError, match="non-increasing horizon order"):
            run_batch(batch)
        with pytest.raises(ValueError, match="non-increasing horizon order"):
            record_batch(batch, scen.labels)

    def test_rows_table_has_the_documented_keys_and_shapes(self):
        scalars = set(RECIP_FIELDS + TRUST_FIELDS + SIM_FIELDS) | {"baseline_mode", "horizon"}
        per_actor = {"a_max", "a_init", "baseline_init"}
        scen = two_actor()
        built = RunBatch.of([(scen, SimConfig(horizon=4), {1: {2: 0.3, 9: 0.1}}),
                             (scen, SimConfig(horizon=6))])
        # the script is padded with free periods to the longest horizon
        pinned = np.argwhere(~np.isnan(built.script)).tolist()
        assert built.script.shape == (6, 2, 2) and pinned == [[1, 0, 1]]
        runs = sweep._protocol_runs({"rho0": np.array([sweep.REFERENCE_CELL.rho0])},
                                    sweep.RHO0_EXTREMES)
        shape = runs["horizon"].shape
        protocol = sweep._protocol_batch({name: np.broadcast_to(col, shape).reshape(-1)
                                          for name, col in runs.items()})
        for batch in (built, protocol):  # both over 2 actors
            B = len(batch.rows["horizon"])
            assert set(batch.rows) == scalars | per_actor | {"d"}
            for name, col in batch.rows.items():
                want = (B,) if name in scalars else (B, 2) if name in per_actor else (B, 2, 2)
                assert col.shape == want, name

    def test_best_response_needs_one_row(self):
        scen = two_actor()
        batch = RunBatch.of([(scen, SimConfig(horizon=3))] * 2)
        with pytest.raises(ValueError):
            run_batch(batch, best_response=lambda *args: None)


BENCHMARK_SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark",
                                  "scenarios", "equilibrium.conf")


def _solve_inputs(traj):
    """The bytes of the inputs of the solve that chose each period t + 1 >= 2:
    that period's own averages and trust, and period t's actions."""
    return [(traj.baselines[t].tobytes(), traj.trust[t].tobytes(), traj.actions[t - 1].tobytes())
            for t in range(1, traj.horizon)]


def _replay_mismatches(scenario, traj):
    """The 0-based periods t >= 1 whose actions or solve flag a freshly built
    solver does not reproduce, bit for bit, from the recorded inputs."""
    mismatches = []
    for t in range(1, traj.horizon):
        result = EquilibriumSolver(scenario)(traj.baselines[t], traj.trust[t], traj.actions[t - 1])
        if not (np.array_equal(_bits(result.actions), _bits(traj.actions[t]))
                and result.converged == traj.converged[t]):
            mismatches.append(t)
    return mismatches


def _counted_run(scenario, sim):
    """A best-response run through a counting solver: its trajectory and
    the number of solver calls."""
    solve, calls = EquilibriumSolver(scenario), []

    def counting(own_avg, trust, actions):
        calls.append(None)
        return solve(own_avg, trust, actions)

    return record_batch(RunBatch.of([(scenario, sim)]), scenario.labels, counting)[0], len(calls)


def _input_runs(traj):
    """The number of runs of byte-identical consecutive solve inputs."""
    keys = _solve_inputs(traj)
    return sum(1 for t, key in enumerate(keys) if t == 0 or key != keys[t - 1])


@st.composite
def _solver_scenario(draw):
    """A 2- or 3-actor scenario; most settle within 20 best-response periods."""
    n = draw(st.integers(2, 3))
    unit = st.floats(0.0, 1.0)
    d = [[0.0 if i == j else draw(unit) for j in range(n)] for i in range(n)]
    a_max = draw(st.sampled_from((1.0, 10.0)))
    return ScenarioConfig(
        labels=("A", "B", "C")[:n],
        d=InterdependenceMatrix(d),
        recip=ReciprocityParams(rho0=draw(st.floats(0.0, 2.0)), kappa=draw(st.floats(0.5, 3.0)),
                                memory_k=draw(st.integers(1, 5))),
        trust=TrustParams(t0=draw(unit)),
        econ=EconomyParams(endowments=(100.0,) * n, alpha=(1.0 / n,) * n,
                           theta_v=draw(st.floats(1.0, 20.0)), gamma=draw(st.floats(0.0, 5.0))),
        a_max=(a_max,) * n,
        a_init=tuple(draw(st.floats(0.0, a_max)) for _ in range(n)),
    )


@functools.cache
def settled_best_response():
    """The scenario that ``coopsim translate --deps
    src/coopsim/data/ios_dependencies.csv`` writes, read back, in
    best-response mode: 40 periods, whose actions, trust and reputation
    stop moving after the first few.  Translated once; both are frozen."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "equilibrium.conf")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["translate", "--deps", case_study.ios_dependency_csv_path(),
                         "--out", path]) == 0
        scenario, sim = read_scenario(path)
    return scenario, replace(sim, mode="best_response")


@st.composite
def _best_response_run(draw):
    """A `_solver_scenario` in a drawn baseline mode, best-response for up to
    60 periods, with shocks and script pins drawn into it; a pin may hold
    an actor over several periods, so the run can settle while pinned."""
    scenario = draw(_solver_scenario())
    scenario = replace(scenario, baseline_mode=draw(st.sampled_from(BASELINE_MODES)))
    horizon = draw(st.integers(1, 60))
    periods, actors = st.integers(1, horizon), st.integers(0, scenario.n - 1)
    shocks = tuple(Shock(period=draw(periods), actor=draw(actors),
                         delta=draw(st.floats(-1.0, 1.0)))
                   for _ in range(draw(st.integers(0, 2))))
    script = {}
    for _ in range(draw(st.integers(0, 2))):  # an actor held at one level for a while
        i, start = draw(actors), draw(periods)
        level = draw(st.floats(0.0, scenario.a_max[i]))
        script.setdefault(i, {}).update(dict.fromkeys(range(start, draw(periods) + 1), level))
    sim = SimConfig(horizon=horizon, mode="best_response", shocks=shocks,
                    baseline_rate=draw(st.sampled_from((0.0, 0.08, 0.5))))
    return scenario, sim, script or None


def _assert_matches_the_reference(scenario, sim, script):
    """``run()`` against the best-response reference run, which solves every
    period: every state and ``converged`` bit for bit, the gated terms
    against those the kernel's arithmetic forms from the reference's states
    (``math.tanh`` and ``np.tanh`` differ in the last bit on about a
    quarter of inputs) and to 1e-12 against the reference's own.  Returns
    the reference's record."""
    got = run(scenario, sim, script)
    want = reference_run(scenario, sim, script, EquilibriumSolver(scenario))
    for name in (*RECORDED, "converged"):
        if name != "recip_term":
            assert getattr(got, name).tobytes() == want[name].tobytes(), name
    ref = {"moving_average": want["baselines"], "adaptive": want["norms"]}.get(
        scenario.baseline_mode, np.array([scenario.baseline_init]))
    term = (gate_weights(scenario.d.values[None], RunBatch.of([(scenario, sim)]).rows)
            * want["trust"] * np.tanh(scenario.recip.kappa * _signals(want["actions"], ref)))
    assert got.recip_term.tobytes() == term.tobytes()
    np.testing.assert_allclose(got.recip_term, want["recip_term"], rtol=1e-12, atol=1e-12)
    return want


class TestSettledPeriods:
    """Once a best-response run settles, its periods repeat the last one."""

    @pytest.mark.parametrize("baseline_mode", BASELINE_MODES)
    def test_every_period_replays_from_the_kernel_helpers(self, baseline_mode):
        # each recorded period rebuilt from the one before it, bit for bit
        scenario, sim = settled_best_response()
        scenario = replace(scenario, baseline_mode=baseline_mode)
        traj = run(scenario, sim)
        rows = RunBatch.of([(scenario, sim)]).rows
        p, gate = _trust_rows(rows, rows["d"]), gate_weights(rows["d"], rows)[0]
        k = np.array([[scenario.recip.memory_k]])
        reach, initial = _window_reach(k, scenario.n), np.array([scenario.baseline_init])
        kappa = scenario.recip.kappa
        for t in range(traj.horizon):
            signal = _signals(traj.actions[t][None], traj.baselines[t][None])
            assert signal[0].tobytes() == traj.signal[t].tobytes(), t
            ref = {"moving_average": traj.baselines[t], "adaptive": traj.norms[t]}.get(
                baseline_mode, initial[0])
            term = gate * traj.trust[t] * np.tanh(kappa * _signals(traj.actions[t][None],
                                                                   ref[None])[0])
            assert term.tobytes() == traj.recip_term[t].tobytes(), t
            if t + 1 == traj.horizon:
                break
            trust, reputation = traj.trust[t][None].copy(), traj.reputation[t][None].copy()
            _update_trust_matrices(trust, reputation, signal, p)
            assert trust[0].tobytes() == traj.trust[t + 1].tobytes(), t
            assert reputation[0].tobytes() == traj.reputation[t + 1].tobytes(), t
            b_next = _window_means(traj.actions[: t + 1, None].copy(), t + 1, k, reach, initial)
            assert b_next[0].tobytes() == traj.baselines[t + 1].tobytes(), t

    def test_settled_periods_skip_the_trust_update(self, monkeypatch):
        calls = []
        update = simulation._update_trust_matrices

        def counting(*args):
            calls.append(None)
            return update(*args)

        monkeypatch.setattr(simulation, "_update_trust_matrices", counting)
        run(*settled_best_response())
        assert len(calls) < 10  # of 40 periods

    @given(_best_response_run())
    @settings(max_examples=60, deadline=None)
    def test_drawn_runs_match_the_reference_run(self, drawn):
        scenario, sim, script = drawn
        _assert_matches_the_reference(scenario, sim, script)

    @pytest.mark.parametrize("baseline_mode", BASELINE_MODES)
    @pytest.mark.parametrize("horizon, shocks, script, settled", [
        (40, (Shock(period=25, actor=0, delta=-0.05),), {1: {31: 0.95}},
         [*range(5, 25), 29, 30, *range(35, 41)]),
        (40, (), {1: dict.fromkeys(range(10, 21), 0.95)}, [*range(5, 10), *range(13, 21),
                                                           *range(24, 41)]),
        (40, (Shock(period=6, actor=0, delta=-0.05),), None, [5, *range(10, 41)]),
        (40, (), {1: {6: 0.95}}, [5, *range(10, 41)]),
        (40, (), None, [*range(5, 41)]),
        (5, (), None, [5]),
    ], ids=["shock-25-pin-31", "pin-10-to-20", "shock-at-t+1", "pin-at-t+1", "to-the-horizon",
            "at-the-horizon"])
    def test_settled_spans_end_at_shocks_and_pins(self, baseline_mode, horizon, shocks, script,
                                                  settled):
        # A deadband keeps trust still through the events, so the run
        # settles again after each.  Its spans end at the shock at period 25
        # and at the pin at period 31; or, held at one level from period 10
        # to 20, it settles in periods 13 to 20, each of which starts no span,
        # since the period after a pinned one may leave the pin.  Period 5
        # settles; a shock or pin at period 6 leaves it a span of one period,
        # which runs as a live period, and the span from period 10 runs to
        # the horizon, as does the one from period 5 without events, or the
        # one-period span of a run whose last period is 5.
        scenario, sim = settled_best_response()
        scenario = replace(scenario, baseline_mode=baseline_mode,
                           recip=replace(scenario.recip, memory_k=2),
                           trust=replace(scenario.trust, deadband=0.1))
        sim = replace(sim, horizon=horizon, shocks=shocks)
        want = _assert_matches_the_reference(scenario, sim, script)
        # the periods whose last 3 actions, trust and reputation repeat the
        # period before
        actions, keep = want["actions"], ("actions", "trust", "reputation")
        assert settled == [t + 1 for t in range(3, sim.horizon)
                           if all(want[f][t].tobytes() == want[f][t - 1].tobytes() for f in keep)
                           and actions[t - 2 : t + 1].tobytes() == actions[t - 3 : t].tobytes()]


class TestSolveReuse:
    """A best-response run solves a period only when its inputs change."""

    def test_benchmark_scenario_replays_with_fewer_solves(self):
        scenario, sim = read_scenario(BENCHMARK_SCENARIO)
        sim = replace(sim, mode="best_response")
        assert sim.shocks == ()
        traj = run(scenario, sim)
        assert _replay_mismatches(scenario, traj) == []
        counted, calls = _counted_run(scenario, sim)
        assert np.array_equal(_bits(counted.actions), _bits(traj.actions))
        # the run settles: 5 solves for its 39 periods after the first
        assert calls == _input_runs(traj) < traj.horizon - 1

    @given(_solver_scenario(), st.integers(2, 20))
    @settings(max_examples=25, deadline=None)
    def test_drawn_scenarios_replay_and_solve_once_per_input_run(self, scenario, horizon):
        sim = SimConfig(horizon=horizon, mode="best_response")
        traj = run(scenario, sim)
        assert _replay_mismatches(scenario, traj) == []
        counted, calls = _counted_run(scenario, sim)
        assert np.array_equal(_bits(counted.actions), _bits(traj.actions))
        assert calls == _input_runs(traj)

    @pytest.mark.parametrize("which", ["own_avg", "trust", "actions"], ids=lambda w: f"{w}-ulp")
    def test_one_changed_bit_in_any_input_is_a_new_solve(self, which):
        # one solve per run of byte-identical inputs, and two consecutive
        # solves whose inputs differ in one entry of `which` by one ulp
        scenario, profile, entry = _ONE_ULP_RUNS[which]
        traj, calls = _stub_run(scenario, SimConfig(horizon=10, mode="best_response"), profile)
        assert len(calls) == _input_runs(traj) > 1
        steps = [[(_bits(b).astype(np.int64) - _bits(a).astype(np.int64)).tolist()
                  for a, b in zip(before, after)] for before, after in zip(calls, calls[1:])]
        one_ulp = [[0] * a.size for a in calls[0]]
        one_ulp[("own_avg", "trust", "actions").index(which)][entry] = 1
        assert one_ulp in steps

    def test_inputs_written_in_place_are_a_new_solve(self):
        # the solver gets views of the kernel's arrays, and the trust update
        # writes trust in place: from period 4 on it moves one ulp a period
        # while the other inputs stay, and each such period is a new solve
        scenario, profile, _ = _ONE_ULP_RUNS["trust"]
        views = []

        def respond(own_avg, trust, actions):
            views.append(trust)
            return EquilibriumResult(profile, True, 1, 0.0)

        run_batch(RunBatch.of([(scenario, SimConfig(horizon=10, mode="best_response"))]),
                  best_response=respond)
        assert all(np.shares_memory(views[0], view) for view in views)
        assert len(views) == 8  # of 9 periods after the first


def _stub_run(scenario, sim, profile):
    """A best-response run whose solver answers ``profile`` to every call:
    its trajectory and each call's inputs, trust flattened."""
    calls = []

    def respond(own_avg, trust, actions):
        calls.append((own_avg.copy(), trust.reshape(-1).copy(), actions.copy()))
        return EquilibriumResult(profile, True, 1, 0.0)

    return record_batch(RunBatch.of([(scenario, sim)]), scenario.labels, respond)[0], calls


# Best-response runs (scenario, stub answer, entry) in which two consecutive
# solves' inputs differ in one input only, at that entry, by one ulp.  In
# the first two the signals stay within a few ulps, too small to move trust
# at 0.7.
_ONE_ULP_RUNS = {
    # the answer is one ulp above A's initial 0.5, and the window means of
    # 0.5 and the answer round back to 0.5
    "actions": (two_actor(memory_k=10), (np.nextafter(0.5, 1.0), 0.5), 0),
    # A answers four ulps above 0.5: its window mean moves from two to three
    # ulps above 0.5 while its actions stay
    "own_avg": (two_actor(memory_k=10), (0.5 + 4 * (np.nextafter(0.5, 1.0) - 0.5), 0.5), 0),
    # the mean of three 0.7s is one ulp below 0.7, so from period 4 B sees A
    # one ulp above its baseline and B's trust in A, entry 2 of the
    # flattened matrix, grows one ulp a period from 0.1
    "trust": (replace(two_actor(a_init=(0.7, 0.5), memory_k=3), trust=TrustParams(t0=0.1)),
              (0.7, 0.5), 2),
}


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
    runs = []
    for a_init, second in zip(starts.tolist(), pinned.tolist()):
        scen = ScenarioConfig(
            labels=tuple("ABCDE"[:n]), d=symmetric_matrix(n, 0.5),
            econ=EconomyParams(endowments=(1.0,) * n, alpha=(1.0 / n,) * n),
            a_init=tuple(a_init),
        )
        script = {i: {2: v} for i, v in enumerate(second)}
        runs.append((scen, SimConfig(horizon=2), script))
    batch = RunBatch.of(runs)
    got = np.stack([traj.actions for traj in record_batch(batch, scen.labels)], axis=1)
    want = np.clip(np.stack([starts, pinned]), 0.0, batch.rows["a_max"])
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


class TestExactShortcuts:
    """Two rewrites the kernel and the sweep rely on to keep every bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_tanh_of_the_largest_signal_is_the_largest_bounded_response(self, data):
        # The sweep's T6 bound takes tanh(kappa * max|s|) once per run in
        # place of max |tanh(kappa s)| over every signal: tanh is odd and
        # increasing, and kappa > 0 scales without changing the order.
        rows = data.draw(st.integers(1, 24), label="rows")
        finite = st.floats(allow_nan=False, allow_infinity=False)
        s = np.array(data.draw(st.lists(finite, min_size=4 * rows, max_size=4 * rows)),
                     dtype=float).reshape(rows, 2, 2)
        kappa = np.array(data.draw(st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=rows, max_size=rows)), dtype=float)
        with np.errstate(over="ignore"):
            want = np.abs(np.tanh(kappa[:, None, None] * s)).max(axis=(1, 2))
            got = np.tanh(kappa * np.abs(s).max(axis=(1, 2)))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_window_mean_of_a_lone_value_adds_in_order(self):
        # one row of one actor: a reduction over its 8 periods would sum
        # them pairwise and differ from the oracle in the last bit
        values = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 5.595456942791246, 1.8]
        k = np.array([[8]])
        got = _window_means(np.array(values)[:, None, None], 8, k, _window_reach(k, 1),
                            np.zeros((1, 1)))
        assert got[0, 0].hex() == window_mean(values, 8, 0.0).hex()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_window_means_match_the_scalar_oracle(self, data):
        # per-row windows longer and shorter than the history, -0.0 and
        # subnormal entries; the first rows of the history may be
        # pre-history, so every window end from 0 on is checked
        rows = data.draw(st.integers(1, 6), label="rows")
        n = data.draw(st.integers(1, 3), label="n")
        periods = data.draw(st.integers(0, 22), label="periods")
        value = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0]),
                          st.floats(-10.0, 10.0))
        size = periods * rows * n
        hist = np.array(data.draw(st.lists(value, min_size=size, max_size=size)),
                        dtype=float).reshape(periods, rows, n)
        initial = np.array(data.draw(st.lists(value, min_size=rows * n, max_size=rows * n)),
                           dtype=float).reshape(rows, n)
        ks = data.draw(st.lists(st.integers(1, 20), min_size=rows, max_size=rows), label="k")
        k = np.array(ks)[:, None]
        reach = _window_reach(k, n)
        # row b's first leads[b] periods are empty slots, which hold 0.0
        leads = data.draw(st.lists(st.integers(0, periods), min_size=rows, max_size=rows),
                          label="lead")
        for b, lead in enumerate(leads):
            hist[:lead, b] = 0.0
        for avail in range(periods + 1):
            with np.errstate(invalid="ignore"):  # 0 / 0 on the rows without a period
                got = _window_means(hist, avail, k, reach, initial, np.array(leads)[:, None])
            for b, lead in enumerate(leads):
                if 0 < avail <= lead:
                    continue  # a row without a period is the caller's to handle
                want = [window_mean(hist[lead:avail, b, i].tolist(), ks[b], initial[b, i])
                        for i in range(n)]
                assert got[b].tobytes() == np.array(want, dtype=float).tobytes(), avail


def _reference_row(draw, rnd, n):
    """One adjustment-mode run over n actors: ``(scenario, sim, script)``.

    Hypothesis draws the structure (window, horizon, baseline mode,
    pre-history length, shocks, script, noise); ``rnd`` draws the levels."""
    def unit():
        return rnd.uniform(0.0, 1.0)

    def rate():
        return rnd.uniform(0.001, 0.999)

    d = [[0.0 if i == j or rnd.random() < 0.2 else unit() for j in range(n)] for i in range(n)]
    a_max = [rnd.choice((1.0, 2.5)) for _ in range(n)]

    def levels():
        return tuple(rnd.uniform(0.0, m) for m in a_max)

    k = draw(st.integers(1, 5))
    horizon = draw(st.integers(1, 16))
    scenario = ScenarioConfig(
        labels=("A", "B", "C")[:n],
        d=InterdependenceMatrix(d),
        recip=ReciprocityParams(
            rho0=rnd.uniform(0.0, 2.0), eta=rnd.choice((0.0, 0.5, 1.0, 2.0, rnd.uniform(0.0, 2.5))),
            kappa=rnd.uniform(0.1, 3.0), memory_k=k, lambda_r=rnd.uniform(0.0, 2.0),
            omega_amp=unit()),
        trust=TrustParams(t0=unit(), lambda_plus=rate(), lambda_minus=rate(),
                          xi=rnd.uniform(0.0, 3.0), mu_r=rate(), delta_r=rate(),
                          t_max=rnd.uniform(0.01, 1.0), theta_r=unit(),
                          deadband=draw(st.sampled_from((0.0, 0.05)))),
        econ=EconomyParams(endowments=(1.0,) * n, alpha=(1.0 / n,) * n),
        a_max=tuple(a_max),
        a_init=levels(),
        baseline_init=levels(),
        baseline_mode=draw(st.sampled_from(BASELINE_MODES)),
        pre_history=tuple(levels() for _ in range(draw(st.integers(0, k + 1)))),
    )
    shocks = tuple(Shock(period=rnd.randint(1, horizon), actor=rnd.randrange(n),
                         delta=rnd.uniform(-1.0, 1.0))
                   for _ in range(draw(st.integers(0, 3))))
    sim = SimConfig(horizon=horizon, adjust_rate=unit(), decay=unit(), baseline_rate=unit(),
                    noise_sigma=draw(st.sampled_from((0.0, 0.0, 0.02, 0.3))),
                    seed=draw(st.integers(0, 2)), shocks=shocks)
    script = None
    if draw(st.booleans()):
        actor = rnd.randrange(n)
        script = {actor: {rnd.randint(1, horizon): rnd.uniform(0.0, a_max[actor])
                          for _ in range(rnd.randint(1, 3))}}
    return scenario, sim, script


@st.composite
def _reference_batch(draw):
    """2 to 5 runs over a shared actor count, longest horizon first."""
    n = draw(st.integers(2, 3))
    rnd = draw(st.randoms(use_true_random=True))
    runs = [_reference_row(draw, rnd, n) for _ in range(draw(st.integers(2, 5)))]
    return sorted(runs, key=lambda run: -run[1].horizon)


class TestReferenceEngine:
    """Batched runs against the period-by-period scalar engine."""

    @settings(deadline=None)
    @given(_reference_batch())
    def test_batch_rows_match_the_reference_run(self, runs):
        batch = record_batch(RunBatch.of(runs), runs[0][0].labels)
        for got, (scenario, sim, script) in zip(batch, runs):
            want = reference_run(scenario, sim, script)
            # Exact where the kernel docstring promises the bits: a row's
            # bits do not depend on its batch; period 1 is the settled
            # initial actions against the window of the pre-history, before
            # any arithmetic of the rule; and every windowed baseline is
            # sum(w) / len(w) of the recorded actions, and every signal the
            # difference a_j - baseline_j.
            alone = run(scenario, sim, script)
            for name in (*RECORDED, "converged"):
                assert getattr(got, name).tobytes() == getattr(alone, name).tobytes(), name
            for name in ("actions", "baselines", "norms", "trust", "reputation", "signal"):
                assert getattr(got, name)[0].tobytes() == want[name][0].tobytes(), name
            history = np.concatenate([np.reshape(scenario.pre_history, (-1, scenario.n)),
                                      got.actions])
            pre = len(scenario.pre_history)
            means = [[window_mean(history[: pre + t, j].tolist(), scenario.recip.memory_k,
                                  scenario.baseline_init[j]) for j in range(scenario.n)]
                     for t in range(sim.horizon)]
            assert got.baselines.tobytes() == np.array(means).tobytes()
            diff = np.repeat((got.actions - got.baselines)[:, None], scenario.n, axis=1)
            signal = np.where(np.eye(scenario.n, dtype=bool), 0.0, diff)
            assert got.signal.tobytes() == signal.tobytes()
            # Elsewhere to rel 1e-12: the reference takes D ** eta as a
            # Python float power (numpy's array power may differ in the last
            # bit), forms the gated term in another order with math.tanh and
            # adds the rule's terms in another order, so later periods carry
            # a few ulps.  The absolute 1e-12 covers signals and terms near zero,
            # differences of nearly equal numbers whose relative error has
            # no bound.
            for name, values in want.items():
                np.testing.assert_allclose(getattr(got, name), values, rtol=1e-12, atol=1e-12,
                                           err_msg=name)

