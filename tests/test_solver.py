import ast
import random
from dataclasses import replace
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.params import (
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TeamParams,
    TrustParams,
)
from coopsim.scenario import ScenarioConfig, pd_scenario, reference_scenario
from coopsim.solver import (
    SolverConfig,
    _gate_sums,
    best_response,
    critical_rho,
    cross_partial_check,
    solve_equilibrium,
)
from coopsim.utility import private_payoffs
import oracles
from oracles import argmax_on_grid, exhaustive_nash, objective


def trust_matrix(scenario, level=None):
    t = np.full((scenario.n, scenario.n), level if level is not None else scenario.trust.t0)
    np.fill_diagonal(t, 1.0)
    return t


def _random_scenario(rng, kind):
    """A random two-actor reference scenario with either value form, or a
    three-actor scenario without a team whose synergy is on."""
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
    return scen


class TestArgmax:
    def test_tie_breaks_toward_smallest(self):
        grid = np.linspace(0.0, 10.0, 21)
        assert argmax_on_grid(lambda x: 1.0, grid) == 0.0

    def test_single_peak(self):
        grid = np.arange(0.0, 10.5, 0.5)
        assert argmax_on_grid(lambda x: -((x - 7.0) ** 2), grid) == 7.0

    def test_brute_force_equivalence_random_configs(self):
        # two actors with each value form, and three actors with a
        # three-way synergy
        rng = random.Random(31)
        grid = np.linspace(0, 20.0, 41)
        cfg = SolverConfig(grid_points=41)
        for kind, draws in (("logarithmic", 200), ("power", 100), ("three_actor", 100)):
            for _ in range(draws):
                scen = _random_scenario(rng, kind)
                trust = trust_matrix(scen)
                others = np.array([rng.uniform(0, 20) for _ in range(scen.n)])
                for i in range(scen.n if kind == "three_actor" else 1):
                    br = best_response(i, others, scen, trust, solver=cfg)
                    exhaustive = argmax_on_grid(
                        lambda x: objective(i, x, others, scen.baseline_init[i], trust[i],
                                            scen),
                        grid,
                    )
                    assert br == pytest.approx(exhaustive, abs=1e-12), kind

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
            for i in range(3):
                br = best_response(i, others, scen, trust, solver=SolverConfig(grid_points=41))

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
        for i in range(2):
            br = best_response(i, np.array(res.actions), scen, trust, solver=cfg)
            assert br == pytest.approx(res.actions[i], abs=1e-12)


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
    got = _gate_sums(scen, trust)
    for i in range(scen.n):
        want = sum(recip.lambda_r * trust[i, j] * (1.0 + recip.omega_amp * d[i, j])
                   * recip.rho0 * d[i, j]**recip.eta for j in range(scen.n) if j != i)
        assert got[i] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_oracle_shares_no_code_with_the_kernel():
    # the oracle is the reference for the payoff, gate and trust kernels, the
    # solver, the generator and the writers, so it may import none of their
    # modules
    checked = ("coopsim.reciprocity", "coopsim.simulation", "coopsim.utility", "coopsim.solver",
               "coopsim.rng", "coopsim.files")
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
