import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.params import EconomyParams, TeamParams
from coopsim.utility import (
    individual_value,
    private_payoffs,
    standalone_payoff,
    synergy,
    team_member_utility,
)
from oracles import private_payoff, value_creation

LOG2 = EconomyParams(endowments=(100.0, 100.0), alpha=(0.5, 0.5),
                     theta_v=20.0, gamma=0.65, value_form="logarithmic")


class TestIndividualValue:
    def test_zero_action(self):
        assert individual_value(0.0, LOG2) == 0.0
        power = EconomyParams(value_form="power")
        assert individual_value(0.0, power) == 0.0

    def test_logarithmic(self):
        assert individual_value(10.0, LOG2) == pytest.approx(47.95790545596741, abs=1e-9)

    def test_power(self):
        econ = EconomyParams(value_form="power", power_beta=0.75)
        assert individual_value(16.0, econ) == pytest.approx(8.0, abs=1e-12)


class TestValueCreation:
    def test_synergy_vanishes_with_idle_actor(self):
        assert synergy(5.0, (0.0,), LOG2) == 0.0
        assert synergy(0.0, (5.0,), LOG2) == 0.0

    def test_worked_example(self):
        v = individual_value(4.0, LOG2) * 2 + synergy(4.0, (4.0,), LOG2)
        assert v == pytest.approx(66.97751649736401, abs=1e-9)

    def test_gamma_zero(self):
        econ = EconomyParams(endowments=(1.0, 1.0), alpha=(0.5, 0.5), gamma=0.0)
        assert synergy(3.0, (7.0,), econ) == 0.0

    @given(st.floats(0.1, 20), st.floats(0.1, 20), st.floats(0.01, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_superadditivity(self, a1, a2, gamma):
        # against the scalar oracle's exp-mean-log geometric mean
        econ = EconomyParams(endowments=(1.0, 1.0), alpha=(0.5, 0.5), gamma=gamma)
        parts = individual_value(a1, econ) + individual_value(a2, econ)
        joint = parts + synergy(a1, (a2,), econ)
        assert joint > parts
        assert joint == pytest.approx(value_creation([a1, a2], econ), rel=1e-12)

    @pytest.mark.parametrize("n, action", [(200, 39.0), (330, 0.1), (64, 1e-5)],
                             ids=["overflow", "underflow", "subnormal"])
    def test_many_actor_synergy_matches_the_log_oracle(self, n, action):
        # the product of the actions overflows, underflows to 0 or is
        # subnormal; the geometric mean is still the action
        econ = EconomyParams(endowments=(0.0,) * n, alpha=(1.0 / n,) * n, theta_v=0.0,
                             gamma=2.0)
        want = value_creation([action] * n, econ)
        assert synergy(action, (action,) * (n - 1), econ) == pytest.approx(want, rel=1e-12)
        grid = synergy(np.array([0.0, action, 2.0 * action]), (action,) * (n - 1), econ)
        assert grid[0] == 0.0
        for got, a_i in zip(grid[1:], (action, 2.0 * action)):
            oracle = value_creation([a_i] + [action] * (n - 1), econ)
            assert got == pytest.approx(oracle, rel=1e-12)
        assert np.isfinite(private_payoffs([action] * n, econ)).all()

    def test_a_normal_partner_product_keeps_the_power_where_the_product_is_normal(self):
        # 1e-300 * 1e-10 is subnormal: that candidate alone takes the log form
        econ = EconomyParams(endowments=(0.0, 0.0), alpha=(0.5, 0.5), theta_v=0.0, gamma=2.0)
        grid = synergy(np.array([0.0, 1e-10, 1.0]), (1e-300,), econ)
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(value_creation([1e-10, 1e-300], econ), rel=1e-12)
        assert grid[2] == (2.0 * (np.array([1.0]) * 1e-300) ** 0.5)[0]


class TestPrivatePayoff:
    def test_idle_profile_keeps_endowment(self):
        assert private_payoffs([0.0, 0.0], LOG2)[0] == pytest.approx(100.0)

    def test_gamma_zero_bracket_cancels(self):
        econ = EconomyParams(endowments=(50.0, 60.0), alpha=(0.3, 0.7), gamma=0.0)
        assert private_payoffs([4.0, 9.0], econ)[0] == pytest.approx(
            50.0 - 4.0 + individual_value(4.0, econ)
        )

    def test_worked_example(self):
        assert private_payoffs([4.0, 4.0], LOG2)[0] == pytest.approx(
            129.48875824868202, abs=1e-9
        )

    def test_budget_identity(self):
        # bargaining shares exhaust the synergy surplus exactly, and every
        # payoff matches the scalar oracle
        rng = random.Random(5)
        for _ in range(200):
            a = [rng.uniform(0, 10) for _ in range(3)]
            alpha = np.array([rng.random() for _ in range(3)])
            alpha = tuple(alpha / alpha.sum())
            econ = EconomyParams(endowments=(10.0, 10.0, 10.0), alpha=alpha,
                                 gamma=rng.uniform(0, 2),
                                 value_form=rng.choice(("logarithmic", "power")))
            payoffs = private_payoffs(a, econ)
            shares = sum(payoffs[i] - standalone_payoff(10.0, a[i], econ) for i in range(3))
            assert shares == pytest.approx(synergy(a[0], a[1:], econ),
                                           rel=1e-9, abs=1e-9)
            for i in range(3):
                assert payoffs[i] == pytest.approx(private_payoff(i, a, econ), rel=1e-12)

    def test_negative_action_rejected(self):
        with pytest.raises(ValueError):
            private_payoffs([-1.0, 1.0], LOG2)


TEAM = TeamParams(members=(0, 1, 2), omega_prod=10.0, beta_team=0.6,
                  unit_cost=1.0, loyalty=(0.9, 0.5, 0.0), phi_b=0.8, phi_c=0.3)


class TestCandidateAxis:
    @pytest.mark.parametrize("value_form", ["logarithmic", "power"])
    def test_float_candidate_matches_array_candidate(self, value_form):
        # the solver's refinement scores one float, its grid an array: the
        # same candidate gets the same value either way
        econ = EconomyParams(endowments=(100.0, 80.0, 60.0), alpha=(0.5, 0.3, 0.2),
                             theta_v=12.0, gamma=0.8, value_form=value_form,
                             power_beta=0.7)
        grid = np.linspace(0.0, 20.0, 41)
        actions = [3.0, 7.5, 11.0]
        kernels = [
            lambda x: individual_value(x, econ),
            lambda x: standalone_payoff(100.0, x, econ),
            lambda x: synergy(x, (7.5, 11.0), econ),
            lambda x: team_member_utility(0, x, actions, TEAM),
        ]
        for kernel in kernels:
            values = kernel(grid)
            for k, x in enumerate(grid):
                assert kernel(float(x)) == pytest.approx(values[k], rel=1e-12, abs=0.0)


class TestTeamUtility:
    def test_effective_cost_coefficient(self):
        # theta = 0.9, phi_c = 0.3: perceived cost per unit effort = 0.73c
        base = team_member_utility(0, 0.0, [0.0, 2.0, 2.0], TEAM)
        bumped = team_member_utility(0, 1.0, [0.0, 2.0, 2.0], TEAM)
        q0 = TEAM.omega_prod * 4.0**TEAM.beta_team
        q1 = TEAM.omega_prod * 5.0**TEAM.beta_team
        dq = (q1 - q0) / 3
        # marginal = own share gain - 0.73 * c + phi_b*theta* (teammates' share gain)
        expected = dq - 0.73 + 0.8 * 0.9 * (2 * dq)
        assert bumped - base == pytest.approx(expected, rel=1e-12)

    def test_teammate_weight(self):
        assert TEAM.phi_b * TEAM.loyalty[0] == pytest.approx(0.72)

    def test_zero_loyalty_is_selfish(self):
        a = [1.0, 2.0, 3.0]
        q = TEAM.omega_prod * sum(a) ** TEAM.beta_team
        assert team_member_utility(2, 3.0, a, TEAM) == pytest.approx(q / 3 - 1.0 * 3.0)

    def test_mean_aggregation_option(self):
        team = TeamParams(members=(0, 1, 2), omega_prod=10.0, beta_team=0.6,
                          unit_cost=1.0, loyalty=(0.9, 0.5, 0.0), phi_b=0.8,
                          phi_c=0.3, teammate_payoff="mean")
        a = [1.0, 2.0, 3.0]
        q = team.omega_prod * 6.0**team.beta_team
        mates = [(q / 3 - 2.0), (q / 3 - 3.0)]
        expected = q / 3 - (1 - 0.3 * 0.9) * 1.0 + 0.72 * (sum(mates) / 2)
        assert team_member_utility(0, 1.0, a, team) == pytest.approx(expected, rel=1e-12)

    def test_non_member_rejected(self):
        team = TeamParams(members=(0, 1), loyalty=(0.5, 0.5))
        with pytest.raises(ValueError):
            team_member_utility(2, 1.0, [1.0, 1.0, 1.0], team)
