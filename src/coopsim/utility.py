"""The payoff kernel: value creation, private payoffs, the team-member
utility and the four-component modular utility.

Each formula is elementwise in one actor's action ``a_i``: a float scores
one candidate, an array a whole grid of candidates.  The equilibrium
solver scores its grids and its golden-section refinement with these
functions, and :func:`private_payoffs` builds a whole profile's payoffs
from the same pieces.  The complete per-actor utility decomposes additively:

    total = base + interdep + trust_mod + recip_mod

    base      = e_i - a_i + f(a_i) + alpha_i * gamma * (prod_j a_j) ** (1/N)
    interdep  = sum_{j != i} D_ij * base_j
    trust_mod = lambda_t * sum_{j != i} T_ij * D_ij * base_j
    recip_mod = sum_{j != i} lambda_r * T_ij * (1 + omega * D_ij) * rho_ij
                    * tanh(kappa * s_ij)

Setting lambda_r = 0 switches conditional cooperation off (trust-augmented
model); additionally setting lambda_t = 0 leaves the bare
interdependence-augmented payoff.  The optional team-production utility is
a separate mode, not a fifth component.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .params import EconomyParams, InterdependenceMatrix, ReciprocityParams, TeamParams, TrustParams
from .reciprocity import gate_matrix


@dataclass(frozen=True)
class UtilityBreakdown:
    """Per-component decomposition of a single actor's utility."""

    base: float
    interdep: float
    trust_mod: float
    recip_mod: float

    @property
    def total(self) -> float:
        return self.base + self.interdep + self.trust_mod + self.recip_mod


def individual_value(a_i: float | np.ndarray, econ: EconomyParams) -> float | np.ndarray:
    """Individual value f(a): theta_v * ln(1 + a) or a ** power_beta, for a
    non-negative action or array of actions."""
    if econ.value_form == "logarithmic":
        return econ.theta_v * np.log1p(a_i)
    return a_i**econ.power_beta


def standalone_payoff(
    e_i: float | np.ndarray, a_i: float | np.ndarray, econ: EconomyParams
) -> float | np.ndarray:
    """Payoff before the synergy share, e_i - a_i + f(a_i): the endowment
    net of investment plus the actor's own value creation."""
    return e_i - a_i + individual_value(a_i, econ)


def synergy(
    a_i: float | np.ndarray, partners_product: float, n: int, econ: EconomyParams
) -> float | np.ndarray:
    """Geometric-mean synergy gamma * (a_i * prod_{j != i} a_j) ** (1/N).

    ``partners_product`` is the product of the other N - 1 actions.  The
    term vanishes whenever any actor contributes nothing, so joint value
    above the sum of parts requires everyone's participation.
    """
    if econ.gamma > 0.0 and partners_product > 0.0:
        return econ.gamma * (a_i * partners_product) ** (1.0 / n)
    return 0.0


def private_payoffs(a: Sequence[float], econ: EconomyParams) -> np.ndarray:
    """Every actor's appropriated payoff at the action profile ``a``.

        pi_i = e_i - a_i + f(a_i) + alpha_i * gamma * (prod_j a_j) ** (1/N)

    Actors keep their endowment net of investment, appropriate their own
    value creation, and split the synergy surplus by bargaining share.
    """
    arr = np.asarray(a, dtype=float)
    if arr.min() < 0:
        raise ValueError(f"actions must be >= 0, got {tuple(arr.tolist())}")
    s = synergy(arr[0], math.prod(arr[1:]), len(arr), econ)
    return standalone_payoff(np.asarray(econ.endowments), arr, econ) + np.asarray(econ.alpha) * s


def team_member_utility(
    i: int, a_i: float | np.ndarray, actions: Sequence[float], team: TeamParams
) -> float | np.ndarray:
    """Loyalty-moderated utility of team member i at its action ``a_i``,
    the other members acting as in ``actions``.

        U_i = (1/n) * Q - c * (1 - phi_c * theta_i) * a_i
              + phi_b * theta_i * teammates_payoff

    with team production Q = omega_prod * (sum of member efforts) ** beta_team
    and teammates_payoff the aggregate (sum by default, optionally mean) of
    the other members' share-minus-own-cost payoffs.  A non-member is a
    ``ValueError``.
    """
    theta_i = team.loyalty[team.members.index(i)]
    n = len(team.members)
    mates_effort = sum(actions[m] for m in team.members if m != i)
    q = team.omega_prod * (mates_effort + a_i) ** team.beta_team
    own = q / n - team.unit_cost * (1.0 - team.phi_c * theta_i) * a_i
    if n == 1:
        return own
    mates = q / n * (n - 1) - team.unit_cost * mates_effort
    if team.teammate_payoff == "mean":
        mates = mates / (n - 1)
    return own + team.phi_b * theta_i * mates


def complete_utility(
    i: int,
    a: Sequence[float],
    d: InterdependenceMatrix,
    trust_to: Sequence[float],
    signals: Sequence[float],
    econ: EconomyParams,
    recip: ReciprocityParams,
    tr: TrustParams,
) -> UtilityBreakdown:
    """Evaluate the full modular utility of actor i.

    ``trust_to[j]`` is i's immediate trust in j and ``signals[j]`` is i's
    observed cooperation signal about j (both ignored at j = i).  A missing
    dyad state (NaN trust) or trust outside [0, 1] is a configuration error.
    """
    n = d.n
    if len(trust_to) != n or len(signals) != n:
        raise ConfigurationError("trust and signal vectors must cover every actor")
    payoffs = private_payoffs(a, econ)
    trust_to = np.asarray(trust_to, dtype=float)
    gated = gate_matrix(d.values, recip)[i] * trust_to * np.tanh(
        recip.kappa * np.asarray(signals, dtype=float))
    interdep = 0.0
    trust_mod = 0.0
    recip_mod = 0.0
    for j in range(n):
        if j == i:
            continue
        t_ij = float(trust_to[j])
        if not 0.0 <= t_ij <= 1.0:  # NaN marks a missing dyad state
            raise ConfigurationError(f"trust for pair ({i}, {j}) must lie in [0, 1], got {t_ij}")
        pi_j = float(payoffs[j])
        d_ij = d[i, j]
        interdep += d_ij * pi_j
        trust_mod += tr.lambda_t * t_ij * d_ij * pi_j
        recip_mod += float(gated[j])
    return UtilityBreakdown(base=float(payoffs[i]), interdep=interdep, trust_mod=trust_mod,
                            recip_mod=recip_mod)
