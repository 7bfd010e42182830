import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.errors import ConfigurationError
from coopsim.params import (
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TeamParams,
    TrustParams,
)
from coopsim.utility import (
    complete_utility,
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
        assert synergy(5.0, 0.0, 2, LOG2) == 0.0
        assert synergy(0.0, 5.0, 2, LOG2) == 0.0

    def test_worked_example(self):
        v = individual_value(4.0, LOG2) * 2 + synergy(4.0, 4.0, 2, LOG2)
        assert v == pytest.approx(66.97751649736401, abs=1e-9)

    def test_gamma_zero(self):
        econ = EconomyParams(endowments=(1.0, 1.0), alpha=(0.5, 0.5), gamma=0.0)
        assert synergy(3.0, 7.0, 2, econ) == 0.0

    @given(st.floats(0.1, 20), st.floats(0.1, 20), st.floats(0.01, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_superadditivity(self, a1, a2, gamma):
        # against the scalar oracle's exp-mean-log geometric mean
        econ = EconomyParams(endowments=(1.0, 1.0), alpha=(0.5, 0.5), gamma=gamma)
        parts = individual_value(a1, econ) + individual_value(a2, econ)
        joint = parts + synergy(a1, a2, 2, econ)
        assert joint > parts
        assert joint == pytest.approx(value_creation([a1, a2], econ), rel=1e-12)


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
            assert shares == pytest.approx(synergy(a[0], a[1] * a[2], 3, econ),
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
            lambda x: synergy(x, 7.5 * 11.0, 3, econ),
            lambda x: team_member_utility(0, x, actions, TEAM),
        ]
        for kernel in kernels:
            values = kernel(grid)
            for k, x in enumerate(grid):
                assert kernel(float(x)) == pytest.approx(values[k], rel=1e-12, abs=0.0)


def two_actor_setup(d=0.5, trust=1.0, lambda_r=1.0, lambda_t=1.0):
    m = InterdependenceMatrix([[0.0, d], [d, 0.0]])
    recip = ReciprocityParams(rho0=1.0, eta=1.0, kappa=1.0, lambda_r=lambda_r,
                              omega_amp=1.0)
    tr = TrustParams(lambda_t=lambda_t)
    trust_to = [trust, trust]
    return m, recip, tr, trust_to


class TestCompleteUtility:
    def test_all_modifiers_vanish(self):
        m = InterdependenceMatrix([[0.0, 0.0], [0.0, 0.0]])
        recip = ReciprocityParams(lambda_r=0.0)
        tr = TrustParams(lambda_t=0.0)
        u = complete_utility(0, [4.0, 4.0], m, [1.0, 1.0], [0.0, 0.3], LOG2, recip, tr)
        assert u.total == pytest.approx(private_payoffs([4.0, 4.0], LOG2)[0])

    def test_reciprocity_switch_off(self):
        m, recip, tr, trust_to = two_actor_setup(lambda_r=0.0)
        u = complete_utility(0, [4.0, 4.0], m, trust_to, [0.0, -2.0], LOG2, recip, tr)
        assert u.recip_mod == 0.0

    def test_recovers_trust_model_then_base_model(self):
        a = [3.0, 5.0]
        m, recip, tr, trust_to = two_actor_setup(lambda_r=0.0, lambda_t=0.0)
        u = complete_utility(0, a, m, trust_to, [0.0, 1.0], LOG2, recip, tr)
        pi = private_payoffs(a, LOG2)
        expected = pi[0] + 0.5 * pi[1]
        assert u.total == pytest.approx(expected, rel=1e-12)

    def test_breakdown_matches_monolithic_expression(self):
        # independent single-expression evaluation of the full utility
        a = [4.0, 6.0]
        s = [0.0, 0.3]
        m, recip, tr, trust_to = two_actor_setup(d=0.5, trust=1.0)
        u = complete_utility(0, a, m, trust_to, s, LOG2, recip, tr)
        pi0, pi1 = private_payoffs(a, LOG2)
        monolithic = (
            pi0
            + 0.5 * pi1
            + tr.lambda_t * 1.0 * 0.5 * pi1
            + recip.lambda_r * 1.0 * (1 + 1.0 * 0.5) * (1.0 * 0.5**1.0)
            * math.tanh(1.0 * 0.3)
        )
        assert u.total == pytest.approx(monolithic, rel=1e-12)

    def test_component_sum_identity_random_states(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.choice((2, 3))
            d = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        d[i, j] = rng.random()
            m = InterdependenceMatrix(d)
            alpha = np.array([rng.random() + 0.05 for _ in range(n)])
            econ = EconomyParams(
                endowments=tuple(rng.uniform(0, 100) for _ in range(n)),
                alpha=tuple(alpha / alpha.sum()),
                gamma=rng.uniform(0, 2),
                value_form=rng.choice(("logarithmic", "power")),
            )
            recip = ReciprocityParams(rho0=rng.uniform(0, 2), eta=rng.uniform(0, 2),
                                      kappa=rng.uniform(0.1, 3),
                                      lambda_r=rng.uniform(0, 2),
                                      omega_amp=rng.uniform(0, 2))
            tr = TrustParams(lambda_t=rng.uniform(0, 2))
            a = [rng.uniform(0, 10) for _ in range(n)]
            trust_to = [rng.random() for _ in range(n)]
            sig = [rng.uniform(-2, 2) for _ in range(n)]
            i = rng.randrange(n)
            u = complete_utility(i, a, m, trust_to, sig, econ, recip, tr)
            total = u.base + u.interdep + u.trust_mod + u.recip_mod
            assert u.total == pytest.approx(total, rel=1e-12, abs=1e-12)

    def test_recip_mod_trust_derivative_sign(self):
        # finite differences at random points: the sensitivity of the
        # reciprocity component to trust carries the response's sign
        rng = random.Random(21)
        m, recip, tr, _ = two_actor_setup(d=0.6)
        for _ in range(100):
            t = rng.uniform(0.05, 0.95)
            s = rng.uniform(-2, 2)
            if abs(s) < 1e-3:
                continue
            eps = 1e-4
            hi = complete_utility(0, [1.0, 1.0], m, [1.0, t + eps], [0.0, s], LOG2, recip, tr)
            lo = complete_utility(0, [1.0, 1.0], m, [1.0, t - eps], [0.0, s], LOG2, recip, tr)
            deriv = (hi.recip_mod - lo.recip_mod) / (2 * eps)
            assert math.copysign(1.0, deriv) == math.copysign(1.0, s)

    def test_missing_dyad_state_is_error(self):
        m, recip, tr, _ = two_actor_setup()
        for bad in (float("nan"), -0.1, 1.5):
            with pytest.raises(ConfigurationError, match=r"trust for pair \(0, 1\)"):
                complete_utility(0, [1.0, 1.0], m, [1.0, bad], [0.0, 0.0], LOG2, recip, tr)


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
