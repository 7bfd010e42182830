"""Independent scalar oracles for the engine's array kernels and the
equilibrium solver.

The engine, the solver and the utility breakdown compute the gated
reciprocity term and the two-layer trust update on whole arrays
(``coopsim.reciprocity.gate_weights``, ``coopsim.simulation
._update_trust_matrices``), and the solver scores its best-response
objective on action grids with the elementwise payoff kernel in
``coopsim.utility``.  This module rebuilds each formula one number at a
time: :func:`update_trust` (with :func:`trust_ceiling`),
:func:`gated_term` (with a scalar ``rho0 * D ** eta`` and ``math.tanh``),
:func:`private_payoff` / :func:`team_utility`, and the whole objective, so
a differential test against it does not share the kernels' code path.

Two more references stand beside them: the counter-based generator on
Python integers (:func:`splitmix64`, :func:`uniform`, :func:`normal`), for
the array draws of ``coopsim.rng``, and the trajectory writers one number
at a time through :func:`fmt` (:func:`trajectory_csv`, :func:`dyads_csv`,
:func:`long_format_csv`), for the whole-array writers of
``coopsim.files``.  The module imports nothing from
``coopsim.reciprocity``, ``coopsim.simulation``, ``coopsim.utility``,
``coopsim.solver``, ``coopsim.rng`` or ``coopsim.files``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from coopsim.params import EconomyParams, ReciprocityParams, TeamParams, TrustParams
from coopsim.scenario import ScenarioConfig


def trust_ceiling(reputation: float, p: TrustParams) -> float:
    """Maximum achievable trust min(t_max, 1 - theta_r * R)."""
    return min(p.t_max, 1.0 - p.theta_r * reputation)


def update_trust(trust: float, reputation: float, s: float, d_ij: float,
                 p: TrustParams) -> tuple[float, float]:
    """One dyad's (trust, reputation) after observing signal ``s``.

    Reputation first (decay at delta_r for s >= 0, damage mu_r |s| (1 - R)
    for s < 0), then trust against the ceiling of the new reputation
    (building lambda_plus s (ceiling - T) for s > 0, erosion lambda_minus s
    T (1 + xi D) otherwise), clipped to [0, ceiling]; |s| <= deadband
    counts as zero.
    """
    if abs(s) <= p.deadband:
        s = 0.0
    if s >= 0.0:
        rep = reputation - p.delta_r * reputation
    else:
        rep = reputation + p.mu_r * (-s) * (1.0 - reputation)
    rep = min(1.0, max(0.0, rep))
    ceiling = trust_ceiling(rep, p)
    if s > 0.0:
        dt = p.lambda_plus * s * max(0.0, ceiling - trust)
    else:
        dt = p.lambda_minus * s * trust * (1.0 + p.xi * d_ij)
    return min(ceiling, max(0.0, trust + dt)), rep


def gated_term(t_ij: float, d_ij: float, s: float, recip: ReciprocityParams) -> float:
    """lambda_r * T_ij * (1 + omega * D_ij) * rho0 * D_ij ** eta * tanh(kappa * s)."""
    rho = recip.rho0 * d_ij**recip.eta
    return (recip.lambda_r * t_ij * (1.0 + recip.omega_amp * d_ij)
            * (rho * math.tanh(recip.kappa * s)))


def individual_value(a_i: float, econ: EconomyParams) -> float:
    """Individual value f(a): theta_v * ln(1 + a) or a ** power_beta."""
    if a_i < 0:
        raise ValueError(f"action must be >= 0, got {a_i}")
    if econ.value_form == "logarithmic":
        return econ.theta_v * math.log1p(a_i)
    return a_i**econ.power_beta


def value_creation(a: Sequence[float], econ: EconomyParams) -> float:
    """Total value V(a) = sum_i f(a_i) + gamma * (prod_i a_i) ** (1/N)."""
    arr = [float(x) for x in a]
    total = sum(individual_value(x, econ) for x in arr)
    if econ.gamma > 0.0 and all(x > 0.0 for x in arr):
        log_mean = sum(math.log(x) for x in arr) / len(arr)
        total += econ.gamma * math.exp(log_mean)
    return total


def private_payoff(i: int, a: Sequence[float], econ: EconomyParams) -> float:
    """pi_i = e_i - a_i + f(a_i) + alpha_i * (V(a) - sum_j f(a_j))."""
    arr = [float(x) for x in a]
    synergy = value_creation(arr, econ) - sum(individual_value(x, econ) for x in arr)
    return (
        econ.endowments[i]
        - arr[i]
        + individual_value(arr[i], econ)
        + econ.alpha[i] * synergy
    )


def team_utility(i: int, a: Sequence[float], team: TeamParams) -> float:
    """U_i = Q/n - c (1 - phi_c theta_i) a_i + phi_b theta_i * teammates_payoff,
    the teammates' share-minus-cost payoffs summed or averaged one by one."""
    if i not in team.members:
        raise ValueError(f"actor {i} is not a member of the team")
    arr = [float(x) for x in a]
    n = len(team.members)
    q = team.omega_prod * sum(arr[m] for m in team.members) ** team.beta_team
    theta_i = team.loyalty[team.members.index(i)]
    own = q / n - team.unit_cost * (1.0 - team.phi_c * theta_i) * arr[i]
    teammates = [q / n - team.unit_cost * arr[m] for m in team.members if m != i]
    if not teammates:
        aggregate = 0.0
    elif team.teammate_payoff == "mean":
        aggregate = sum(teammates) / len(teammates)
    else:
        aggregate = sum(teammates)
    return own + team.phi_b * theta_i * aggregate


def objective(
    i: int,
    a_i: float,
    actions: Sequence[float],
    own_avg: float,
    trust_row: Sequence[float],
    scenario: ScenarioConfig,
) -> float:
    """Actor i's best-response objective at ``a_i`` against ``actions``:

        payoff + sum_j lambda_r T_ij (1 + omega D_ij) rho_ij tanh(kappa (a_i - own_avg))

    where the payoff is the team utility for a team member and otherwise
    pi_i + sum_j D_ij (1 + lambda_t T_ij) pi_j.
    """
    a = [float(x) for x in actions]
    a[i] = float(a_i)
    d = scenario.d.values
    partners = [j for j in range(scenario.n) if j != i]
    if scenario.team is not None and i in scenario.team.members:
        total = team_utility(i, a, scenario.team)
    else:
        total = private_payoff(i, a, scenario.econ)
        for j in partners:
            total += (d[i, j] * (1.0 + scenario.trust.lambda_t * float(trust_row[j]))
                      * private_payoff(j, a, scenario.econ))
    for j in partners:
        total += gated_term(float(trust_row[j]), d[i, j], a[i] - own_avg, scenario.recip)
    return total


def argmax_on_grid(fn, grid: Sequence[float]) -> float:
    """Grid point maximizing ``fn``; ties break toward the smallest action."""
    best_x = None
    best_v = -math.inf
    for x in grid:
        v = fn(x)
        if v > best_v + 1e-12:
            best_v = v
            best_x = x
    return float(best_x)


def exhaustive_nash(
    scenario: ScenarioConfig,
    trust: np.ndarray,
    grid_points: int,
    own_avg: Optional[Sequence[float]] = None,
    tol: float = 1e-9,
) -> list[tuple[float, float]]:
    """All pure Nash profiles of the discretized two-actor game.

    Brute force over the joint grid with the scalar :func:`objective`: a
    profile is Nash when neither actor gains more than ``tol`` from any
    unilateral grid deviation.
    """
    if scenario.n != 2:
        raise ValueError("exhaustive search oracle is implemented for 2 actors")
    reference = scenario.baseline_init if own_avg is None else own_avg
    g0 = np.linspace(0.0, scenario.a_max[0], grid_points)
    g1 = np.linspace(0.0, scenario.a_max[1], grid_points)
    pay0 = np.empty((grid_points, grid_points))
    pay1 = np.empty((grid_points, grid_points))
    for r, a0 in enumerate(g0):
        for c, a1 in enumerate(g1):
            prof = (a0, a1)
            pay0[r, c] = objective(0, a0, prof, reference[0], trust[0], scenario)
            pay1[r, c] = objective(1, a1, prof, reference[1], trust[1], scenario)
    best0 = pay0.max(axis=0)
    best1 = pay1.max(axis=1)
    out = []
    for r in range(grid_points):
        for c in range(grid_points):
            if pay0[r, c] >= best0[c] - tol and pay1[r, c] >= best1[r] - tol:
                out.append((float(g0[r]), float(g1[c])))
    return out


# -- counter-based generator -------------------------------------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 output for the given 64-bit input."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def uniform(seed: int, stream: int, counter: int, index: int = 0) -> float:
    """Uniform draw in (0, 1) from the word keyed by (seed, stream, counter,
    index): three SplitMix64 rounds, each on the key xor the golden multiple
    of the next coordinate, then the top 53 bits offset by half a step."""
    key = seed & _MASK
    for part in (stream, counter, index):
        key = splitmix64(key ^ ((part * _GOLDEN) & _MASK))
    return ((key >> 11) + 0.5) * 2.0**-53


def normal(seed: int, stream: int, counter: int, index: int = 0) -> float:
    """Standard normal draw via Box-Muller on uniforms 2 index and 2 index + 1."""
    u1 = uniform(seed, stream, counter, 2 * index)
    u2 = uniform(seed, stream, counter, 2 * index + 1)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


# -- trajectory writers ------------------------------------------------------

def fmt(x) -> str:
    """One recorded number as the writers emit it: the shortest repr that
    reads back to the same float."""
    return repr(float(x))


def trajectory_csv(traj) -> str:
    lines = ["period,actor,action"]
    for t in range(traj.horizon):
        for i, label in enumerate(traj.labels):
            lines.append(f"{t + 1},{label},{fmt(traj.actions[t, i])}")
    return "\n".join(lines) + "\n"


def dyads_csv(traj) -> str:
    lines = ["period,i,j,trust,reputation,signal,recip_term"]
    for t in range(traj.horizon):
        for i, li in enumerate(traj.labels):
            for j, lj in enumerate(traj.labels):
                if i == j:
                    continue
                lines.append(
                    f"{t + 1},{li},{lj},{fmt(traj.trust[t, i, j])},"
                    f"{fmt(traj.reputation[t, i, j])},{fmt(traj.signal[t, i, j])},"
                    f"{fmt(traj.recip_term[t, i, j])}"
                )
    return "\n".join(lines) + "\n"


def long_format_csv(traj) -> str:
    lines = ["period,series,actor,value"]
    for t in range(traj.horizon):
        for i, label in enumerate(traj.labels):
            lines.append(f"{t + 1},action,{label},{fmt(traj.actions[t, i])}")
        for i, li in enumerate(traj.labels):
            for j, lj in enumerate(traj.labels):
                if i != j:
                    lines.append(f"{t + 1},trust,{li}->{lj},{fmt(traj.trust[t, i, j])}")
    return "\n".join(lines) + "\n"
