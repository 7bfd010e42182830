"""The payoff kernel: individual value f(a), the standalone payoff
e_i - a_i + f(a_i), the geometric-mean synergy, every actor's private
payoff (:func:`private_payoffs`) and the team-member utility.

Each formula is elementwise in one actor's action ``a_i``: a float scores
one candidate, an array a whole grid of candidates.  The equilibrium
solver scores its grids and its golden-section refinement with these
functions, and :func:`private_payoffs` builds a whole profile's payoffs
from the same pieces.  How they combine with the trust weights and the
gated reciprocity term into an actor's best-response objective is set
out in the :mod:`coopsim.solver` docstring.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .params import EconomyParams, TeamParams

_TINY = np.finfo(float).tiny  # the smallest normal float


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
    a_i: float | np.ndarray, partners: Sequence[float], econ: EconomyParams
) -> float | np.ndarray:
    """Geometric-mean synergy gamma * (a_i * prod_j a_j) ** (1/N) of ``a_i``
    and the other N - 1 actions ``partners``.

    The term vanishes whenever any actor contributes nothing, so joint value
    above the sum of parts requires everyone's participation.  Where the
    product is not a normal float (it overflows, is subnormal, or is 0 with
    every action positive) the mean comes from the logs instead, as
    exp((ln a_i + fsum_j ln a_j) / N).
    """
    if econ.gamma <= 0.0:
        return 0.0
    product = math.prod(partners)
    if not product > 0.0 and not all(x > 0.0 for x in partners):
        return 0.0
    n = len(partners) + 1
    if _TINY <= product < math.inf:
        full = a_i * product
        mean = full ** (1.0 / n)
        off = (a_i > 0.0) & ((full < _TINY) | (full == math.inf))
        if not np.any(off):
            return econ.gamma * mean
    else:
        mean, off = 0.0, True
    with np.errstate(divide="ignore"):  # ln 0 = -inf gives a mean of 0
        log_mean = np.exp((np.log(a_i) + math.fsum(map(math.log, partners))) / n)
    return econ.gamma * np.where(off, log_mean, mean)


def private_payoffs(a: Sequence[float], econ: EconomyParams) -> np.ndarray:
    """Every actor's appropriated payoff at the action profile ``a``.

        pi_i = e_i - a_i + f(a_i) + alpha_i * gamma * (prod_j a_j) ** (1/N)

    Actors keep their endowment net of investment, appropriate their own
    value creation, and split the synergy surplus by bargaining share.
    """
    arr = np.asarray(a, dtype=float)
    if arr.min() < 0:
        raise ValueError(f"actions must be >= 0, got {tuple(arr.tolist())}")
    s = synergy(arr[0], arr[1:].tolist(), econ)
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
