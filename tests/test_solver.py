import ast
import math
import random
import re
from dataclasses import replace
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim import solver as solver_module
from coopsim.errors import ConfigurationError
from coopsim.params import (
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TeamParams,
    TrustParams,
)
from coopsim.scenario import ScenarioConfig, pd_scenario, reference_scenario
from coopsim.solver import (
    EquilibriumSolver,
    SolverConfig,
    critical_rho,
    cross_partial_check,
    solve_equilibrium,
)
from coopsim.utility import private_payoffs
import oracles
from oracles import argmax_on_grid, exhaustive_nash, objective


def best_responses(scenario, trust, actions, cfg):
    """Every actor's best response to ``actions``: one Jacobi iteration."""
    return solve_equilibrium(scenario, None, trust, replace(cfg, max_iters=1),
                             warm_start=actions).actions


def trust_matrix(scenario, level=None):
    t = np.full((scenario.n, scenario.n), level if level is not None else scenario.trust.t0)
    np.fill_diagonal(t, 1.0)
    return t


def _random_scenario(rng, kind):
    """A random two-actor reference scenario with either value form or with
    endowments of 1e4 to 1e5, or a three-actor scenario without a team whose
    synergy is on."""
    if kind == "three_actor":
        d = np.array([[0.0 if i == j else rng.uniform(0, 1) for j in range(3)]
                      for i in range(3)])
        return ScenarioConfig(
            labels=("A", "B", "C"),
            d=InterdependenceMatrix(d),
            recip=ReciprocityParams(rho0=rng.uniform(0, 2), eta=rng.uniform(0.5, 2),
                                    kappa=rng.uniform(0.3, 2)),
            trust=TrustParams(t0=rng.uniform(0.1, 0.9), lambda_t=rng.uniform(0, 2)),
            econ=EconomyParams(endowments=(100.0, 80.0, 60.0), alpha=(0.4, 0.35, 0.25),
                               theta_v=rng.uniform(5, 20), gamma=rng.uniform(0.1, 2)),
            a_max=(20.0,) * 3,
            a_init=tuple(rng.uniform(0, 20) for _ in range(3)),
        )
    scen = reference_scenario(
        rho0=rng.uniform(0, 2), eta=rng.uniform(0.5, 2),
        kappa=rng.uniform(0.3, 2), t0=rng.uniform(0.1, 0.9),
        d=rng.uniform(0, 1), theta_v=rng.uniform(5, 20),
        a_max=20.0, gamma=rng.uniform(0, 2),
    )
    if kind == "power":
        scen = replace(scen, econ=replace(scen.econ, value_form="power",
                                          power_beta=rng.uniform(0.3, 0.95)))
    if kind == "large_endowments":
        scen = replace(scen, econ=replace(scen.econ, endowments=(rng.uniform(1e4, 1e5),
                                                                 rng.uniform(1e4, 1e5))))
    return scen


class TestArgmax:
    def test_tie_breaks_toward_smallest(self):
        grid = np.linspace(0.0, 10.0, 21)
        assert argmax_on_grid(lambda x: 1.0, grid) == 0.0

    def test_single_peak(self):
        grid = np.arange(0.0, 10.5, 0.5)
        assert argmax_on_grid(lambda x: -((x - 7.0) ** 2), grid) == 7.0

    @pytest.mark.parametrize("refine", [False, True])
    def test_brute_force_equivalence_random_configs(self, refine):
        # two actors with each value form, three actors with a three-way
        # synergy, and two actors whose endowments put the objective past
        # 2 ** 14, where best - 1e-12 rounds to best; every actor's response
        # against the oracle's grid best: equal to it on the grid, and with
        # refinement within one grid step of it and scoring at least as well
        # (to 1e-9)
        rng = random.Random(31)
        grid = np.linspace(0, 20.0, 41)
        step = grid[1] - grid[0]
        cfg = SolverConfig(grid_points=41, refine=refine)
        for kind, draws in (("logarithmic", 200), ("power", 100), ("three_actor", 100),
                            ("large_endowments", 100)):
            for _ in range(draws):
                scen = _random_scenario(rng, kind)
                trust = trust_matrix(scen)
                others = np.array([rng.uniform(0, 20) for _ in range(scen.n)])
                responses = best_responses(scen, trust, others, cfg)
                for i in range(scen.n):
                    def value(x):
                        return objective(i, x, others, scen.baseline_init[i], trust[i], scen)

                    br = responses[i]
                    exhaustive = argmax_on_grid(value, grid)
                    if not refine:
                        assert br == pytest.approx(exhaustive, abs=1e-12), kind
                        continue
                    assert abs(br - exhaustive) <= step * (1 + 1e-12), kind
                    assert value(br) >= value(exhaustive) - 1e-9, kind

    @pytest.mark.parametrize("teammate_payoff", ["sum", "mean"])
    def test_brute_force_team_scenario(self, teammate_payoff):
        # three actors, A and B a team: A and B take the team-utility branch,
        # C the interdependent-payoff branch with a three-way synergy
        rng = random.Random(53)
        grid = np.linspace(0, 20.0, 41)
        for _ in range(40):
            d = np.array([[0.0 if i == j else rng.uniform(0, 1) for j in range(3)]
                          for i in range(3)])
            scen = ScenarioConfig(
                labels=("A", "B", "C"),
                d=InterdependenceMatrix(d),
                recip=ReciprocityParams(rho0=rng.uniform(0, 2), eta=rng.uniform(0.5, 2),
                                        kappa=rng.uniform(0.3, 2)),
                trust=TrustParams(t0=rng.uniform(0.1, 0.9)),
                econ=EconomyParams(endowments=(100.0,) * 3, alpha=(0.4, 0.35, 0.25),
                                   theta_v=rng.uniform(5, 20), gamma=rng.uniform(0, 2)),
                a_max=(20.0,) * 3,
                a_init=tuple(rng.uniform(0, 20) for _ in range(3)),
                team=TeamParams(members=(0, 1), omega_prod=rng.uniform(5, 15),
                                beta_team=rng.uniform(0.3, 0.9),
                                loyalty=(rng.uniform(0, 1), rng.uniform(0, 1)),
                                teammate_payoff=teammate_payoff),
            )
            trust = trust_matrix(scen)
            others = np.array([rng.uniform(0, 20) for _ in range(3)])
            responses = best_responses(scen, trust, others, SolverConfig(grid_points=41))
            for i in range(3):
                br = responses[i]

                def value(x):
                    return objective(i, x, others, scen.baseline_init[i], trust[i], scen)

                best = max(value(x) for x in grid)
                assert value(br) == pytest.approx(best, abs=1e-9)


class TestDilemma:
    def test_defection_without_reciprocity(self):
        scen = pd_scenario(rho0=0.0)
        res = solve_equilibrium(scen, None, trust_matrix(scen),
                                SolverConfig(grid_points=401), warm_start=(0.0, 0.0))
        assert res.converged
        assert res.actions == (0.0, 0.0)
        assert private_payoffs(res.actions, scen.econ)[0] == pytest.approx(0.0)

    def test_cooperation_with_reciprocity(self):
        scen = pd_scenario(rho0=1.0)
        res = solve_equilibrium(scen, None, trust_matrix(scen),
                                SolverConfig(grid_points=401), warm_start=(0.0, 0.0))
        assert res.converged
        assert res.actions == (10.0, 10.0)
        assert private_payoffs(res.actions, scen.econ) == pytest.approx([50.0, 50.0])

    def test_symmetry_preserved(self):
        scen = pd_scenario(rho0=1.0)
        res = solve_equilibrium(scen, None, trust_matrix(scen),
                                SolverConfig(grid_points=301), warm_start=(2.0, 2.0))
        assert abs(res.actions[0] - res.actions[1]) < 1e-9

    def test_fixed_point_property(self):
        scen = pd_scenario(rho0=1.0)
        trust = trust_matrix(scen)
        cfg = SolverConfig(grid_points=201)
        res = solve_equilibrium(scen, None, trust, cfg, warm_start=(0.0, 0.0))
        assert res.converged
        responses = best_responses(scen, trust, res.actions, cfg)
        assert responses == pytest.approx(res.actions, abs=1e-12)


class TestCriticalRho:
    def test_unit_normalization(self):
        assert critical_rho(1.0, 1.0, 1.0, 0.0, 0.5, 1.0) == pytest.approx(1.0)

    def test_inverse_in_kappa(self):
        base = critical_rho(1.0, 1.0, 0.7, 1.0, 0.5, 1.0)
        assert critical_rho(1.0, 1.0, 0.7, 1.0, 0.5, 2.0) == pytest.approx(base / 2)

    def test_worked_value(self):
        assert critical_rho(0.5, 1.0, 0.7, 0.6, 1.0, 1.2) == pytest.approx(
            0.37202380952380953, abs=1e-9
        )

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            critical_rho(1.0, 0.0, 0.7, 1.0, 0.5, 1.0)


class TestOracleEquivalence:
    def test_matches_exhaustive_nash_on_random_scenarios(self):
        rng = random.Random(77)
        grid_points = 41
        checked = 0
        for _ in range(50):
            scen = reference_scenario(
                rho0=rng.uniform(0, 1.5), eta=rng.uniform(0.5, 1.5),
                kappa=rng.uniform(0.3, 1.5), t0=rng.uniform(0.2, 0.9),
                d=rng.uniform(0.0, 1.0), theta_v=rng.uniform(5, 20),
                a_max=20.0, gamma=rng.uniform(0, 1.5),
            )
            trust = trust_matrix(scen)
            cfg = SolverConfig(grid_points=grid_points, max_iters=200)
            res = solve_equilibrium(scen, None, trust, cfg, warm_start=scen.a_init)
            assert res.converged, "random scenario did not converge"
            nash = exhaustive_nash(scen, trust, grid_points)
            assert nash, "exhaustive search found no equilibrium"
            step = 20.0 / (grid_points - 1)
            dist = min(
                max(abs(res.actions[0] - p[0]), abs(res.actions[1] - p[1]))
                for p in nash
            )
            assert dist <= step + 1e-9
            checked += 1
        assert checked == 50


class TestComparativeStatics:
    def test_equilibrium_nondecreasing_in_gamma(self):
        means = []
        for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
            scen = reference_scenario(gamma=gamma, theta_v=10.0, a_max=40.0,
                                      kappa=0.5)
            res = solve_equilibrium(scen, None, trust_matrix(scen),
                                    SolverConfig(grid_points=801),
                                    warm_start=scen.a_init)
            assert res.converged
            means.append(sum(res.actions) / 2)
        for lo, hi in zip(means, means[1:]):
            assert hi >= lo - 1e-9

    def test_cross_partial_positive_at_reference(self):
        res = cross_partial_check()
        assert res.corners_converged
        assert res.estimate > 0

    def test_cross_partial_sign_stable_under_halving(self):
        full = cross_partial_check(dt=0.05, drho=0.05)
        half = cross_partial_check(dt=0.025, drho=0.025)
        assert full.estimate > 0 and half.estimate > 0

    def test_cross_partial_zero_without_reciprocity(self):
        res = cross_partial_check(lambda_r=0.0)
        assert res.corners_converged
        assert abs(res.estimate) < 1e-6

    @pytest.mark.parametrize("t0, got", [(0.98, "1.03"), (0.02, "-0.03")])
    def test_cross_partial_corners_keep_trust_validation(self, t0, got):
        # one solver per rho0 level solves both T0 corners, each still validated
        message = re.escape(f"t0 must lie in [0, 1], got {got}")
        with pytest.raises(ConfigurationError, match=message):
            cross_partial_check(t0=t0)

    def test_cross_partial_builds_one_solver_per_rho0_level(self, monkeypatch):
        builds = []

        class Counting(EquilibriumSolver):
            def __init__(self, scenario, config):
                builds.append(scenario.recip.rho0)
                super().__init__(scenario, config)

        monkeypatch.setattr(solver_module, "EquilibriumSolver", Counting)
        assert cross_partial_check(rho0=1.0, drho=0.5).corners_converged
        assert builds == [1.5, 0.5]


class TestHistoryAwareSolve:
    def test_unconverged_is_flagged_not_raised(self):
        scen = pd_scenario(rho0=1.0)
        res = solve_equilibrium(scen, None, trust_matrix(scen),
                                SolverConfig(grid_points=201, max_iters=1),
                                warm_start=(0.0, 0.0))
        assert not res.converged
        assert res.iterations == 1
        assert res.residual >= 0

    def test_history_moves_the_reference(self):
        scen = reference_scenario(theta_v=10.0, a_max=40.0, kappa=0.5)
        trust = trust_matrix(scen)
        cfg = SolverConfig(grid_points=2001)
        anchored_low = solve_equilibrium(scen, None, trust, cfg, warm_start=scen.a_init)
        anchored_high = solve_equilibrium(scen, (20.0, 20.0), trust, cfg,
                                          warm_start=scen.a_init)
        assert anchored_high.actions[0] != anchored_low.actions[0]


@pytest.mark.parametrize("field, value, message", [
    ("max_iters", 0, "max_iters must be >= 1"),
    ("max_iters", 1.5, "max_iters must be an integer"),
    ("grid_points", 1, "grid_points must be >= 2"),
])
def test_solver_config_rejects(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}, got"):
        SolverConfig(**{field: value})


@st.composite
def _solver_calls(draw):
    """A 2- or 3-actor scenario (either value form, synergy off or on, with
    or without a team), a solver configuration with refinement off or on,
    and 3-5 (own_avg, trust, warm_start) calls."""
    n = draw(st.sampled_from([2, 3]))
    unit = st.floats(0.0, 1.0)
    actions = st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n)
    d = np.array([[0.0 if i == j else draw(unit) for j in range(n)] for i in range(n)])
    team = None
    if draw(st.booleans()):
        team = TeamParams(members=(0, 1), omega_prod=draw(st.floats(5.0, 15.0)),
                          beta_team=draw(st.floats(0.3, 0.9)), loyalty=(draw(unit), draw(unit)))
    scen = ScenarioConfig(
        labels=tuple("ABC"[:n]),
        d=InterdependenceMatrix(d),
        recip=ReciprocityParams(rho0=draw(st.floats(0.0, 2.0)), eta=draw(st.floats(0.5, 2.0)),
                                kappa=draw(st.floats(0.3, 2.0))),
        trust=TrustParams(t0=draw(unit), lambda_t=draw(st.floats(0.0, 2.0))),
        econ=EconomyParams(endowments=(100.0, 80.0, 60.0)[:n],
                           alpha=(0.5, 0.5) if n == 2 else (0.4, 0.35, 0.25),
                           theta_v=draw(st.floats(5.0, 20.0)),
                           power_beta=draw(st.floats(0.3, 0.95)),
                           gamma=draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0))),
                           value_form=draw(st.sampled_from(["logarithmic", "power"]))),
        a_max=(20.0,) * n,
        a_init=tuple(draw(actions)),
        team=team,
    )
    config = SolverConfig(grid_points=draw(st.sampled_from([21, 41])), max_iters=8,
                          refine=draw(st.booleans()))
    calls = []
    for _ in range(draw(st.integers(3, 5))):
        trust = np.array([[1.0 if i == j else draw(unit) for j in range(n)] for i in range(n)])
        calls.append((draw(st.none() | actions), trust, draw(st.none() | actions)))
    return scen, config, calls


def _bits(result):
    return (np.array(result.actions).tobytes(), result.converged, result.iterations,
            float(result.residual).hex())


@given(_solver_calls())
@settings(max_examples=60, deadline=None)
def test_reused_solver_matches_fresh_solves(case):
    # one solver answers a sequence of solves exactly as a fresh build does
    # for each, and leaves the arrays it built once per run as they were
    scen, config, calls = case
    solver = EquilibriumSolver(scen, config)
    cached = [solver.gate] + solver.grids + solver.grid_payoffs
    before = [a.copy() for a in cached]
    for own_avg, trust, warm_start in calls:
        got = solver(own_avg, trust, warm_start)
        want = solve_equilibrium(scen, own_avg, trust, config, warm_start)
        assert _bits(got) == _bits(want)
        assert all(isinstance(a, np.float64) for a in got.actions)
    for now, then in zip(cached, before):
        assert now.tobytes() == then.tobytes()


def _sharing_case(case):
    """(scenario, own_avg, distinct responses per iteration) of one
    refined-solve case of ``test_bit_identical_actors_share_one_response``."""
    ref = reference_scenario()
    if case == "symmetric pair":
        return ref, None, 1
    if case == "endowment one ulp apart":
        econ = replace(ref.econ, endowments=(100.0, math.nextafter(100.0, math.inf)))
        return replace(ref, econ=econ), None, 2
    if case == "own averages 0.0 and -0.0":
        return ref, (0.0, -0.0), 2
    if case == "identical team members":
        team = TeamParams(members=(0, 1), loyalty=(0.5, 0.5))
        return replace(ref, team=team), None, 2
    three = ScenarioConfig(
        labels=("A", "B", "C"),
        d=InterdependenceMatrix([[0.0, 0.5, 0.3], [0.5, 0.0, 0.3], [0.6, 0.6, 0.0]]),
        econ=EconomyParams(endowments=(100.0, 100.0, 60.0), alpha=(0.3, 0.3, 0.4),
                           theta_v=10.0, gamma=0.5),
        a_max=(40.0,) * 3,
        a_init=(5.0, 5.0, 8.0),
    )
    return three, None, 2


@pytest.mark.parametrize("case", [
    "symmetric pair", "endowment one ulp apart", "own averages 0.0 and -0.0",
    "identical team members", "three actors, two identical",
])
def test_bit_identical_actors_share_one_response(case, monkeypatch):
    # an actor whose response reads the same bits as an earlier actor's in
    # the same iteration takes that response instead of refining its own;
    # inputs that differ in any bit, and team members, are solved apart
    scen, own_avg, distinct = _sharing_case(case)
    refine, calls = solver_module._golden_refine, []
    monkeypatch.setattr(solver_module, "_golden_refine",
                        lambda *args: calls.append(args) or refine(*args))
    res = solve_equilibrium(scen, own_avg, trust_matrix(scen),
                            SolverConfig(grid_points=401, refine=True))
    assert len(calls) == distinct * res.iterations


@st.composite
def _gate_case(draw):
    # zero or at least 1e-3, so no product reaches the subnormal range,
    # where one ulp is the whole value
    def reals(hi):
        return st.one_of(st.just(0.0), st.floats(1e-3, hi))

    n = draw(st.sampled_from([2, 3, 4]))
    unit = reals(1.0)
    d = np.array([[0.0 if i == j else draw(unit) for j in range(n)] for i in range(n)])
    trust = np.array([[1.0 if i == j else draw(unit) for j in range(n)] for i in range(n)])
    recip = ReciprocityParams(
        rho0=draw(reals(5.0)),
        eta=draw(st.one_of(st.just(0.5), reals(3.0))),
        lambda_r=draw(reals(3.0)),
        omega_amp=draw(reals(3.0)),
    )
    scen = ScenarioConfig(labels=tuple("ABCD"[:n]), d=InterdependenceMatrix(d), recip=recip,
                          econ=EconomyParams(endowments=(1.0,) * n, alpha=(1.0 / n,) * n))
    return scen, trust


@given(_gate_case())
@settings(max_examples=300, deadline=None)
def test_gate_sums_match_scalar_formula(case):
    # the shared gate kernel, as the solver sums it, against the scalar
    # sum over partners of lambda_r * T * (1 + omega * D) * rho
    scen, trust = case
    recip, d = scen.recip, scen.d.values
    got = EquilibriumSolver(scen)._gate_sums(trust)
    for i in range(scen.n):
        want = sum(recip.lambda_r * trust[i, j] * (1.0 + recip.omega_amp * d[i, j])
                   * recip.rho0 * d[i, j]**recip.eta for j in range(scen.n) if j != i)
        assert got[i] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_oracle_shares_no_code_with_the_kernel():
    # the oracle is the reference for the payoff, gate and trust kernels, the
    # solver, the generator, the writers and the recovery detector, so it may
    # import none of their modules
    checked = ("coopsim.reciprocity", "coopsim.simulation", "coopsim.utility", "coopsim.solver",
               "coopsim.rng", "coopsim.files", "coopsim.sweep")
    tree = ast.parse(Path(oracles.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        assert not [m for m in names if m.startswith(checked)], ast.unparse(node)
    for name, value in vars(oracles).items():
        owner = value.__name__ if isinstance(value, ModuleType) else getattr(
            value, "__module__", None)
        assert owner not in checked, name
