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
``coopsim.files``.  :func:`signal_recovery_time` walks one run's signal
period by period, for the whole-array ``coopsim.sweep.recovery_times``,
and :func:`window_mean` averages one actor's window, for
``coopsim.simulation._window_means``.  :func:`reference_run` runs a whole
adjustment-mode run one period and one dyad at a time from those pieces,
for the batched kernel ``coopsim.simulation.run_batch``, and
:func:`sensitivity_per_eta` takes the structural sensitivity one eta at a
time, for ``coopsim.reciprocity.sensitivity``.  Two references stand for the
validation protocol as first written: :func:`full_warmup_runs` builds the
forgiveness-type runs with their warm-up run period by period, for the
runs that ``coopsim.sweep`` starts at the defection, and
:func:`perturb_trial` draws and clamps one robustness trial's parameters
one at a time (with :func:`derive_seed`), for the column draw of
``coopsim.sweep.perturb_trials``.
The module imports nothing from ``coopsim.reciprocity``,
``coopsim.simulation``, ``coopsim.utility``, ``coopsim.solver``,
``coopsim.rng``, ``coopsim.files`` or ``coopsim.sweep``.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Mapping, Optional, Sequence

import numpy as np

from coopsim.params import EconomyParams, ReciprocityParams, TeamParams, TrustParams
from coopsim.scenario import BASELINE_MODES, ScenarioConfig, SimConfig


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


def derive_seed(master_seed: int, config_index: int) -> int:
    """Child seed of a numbered run: one SplitMix64 round on the master seed
    xor the golden multiple of the index."""
    return splitmix64((master_seed & _MASK) ^ ((config_index * _GOLDEN) & _MASK))


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


# -- forgiveness time ----------------------------------------------------------

def signal_recovery_time(signals: Sequence[float], t_star: int, tol: float,
                         sustain: int) -> int:
    """Periods from the defection until the signal settles within tolerance.

    ``signals`` is one run's per-period series of the observer's
    cooperation signal about the defector (period = position + 1).
    Recovery is the first period r >= t_star with |signal| < tol sustained
    for ``sustain`` consecutive periods; returns r - t_star, or -1 if the
    series never settles within its length.
    """
    n = len(signals)
    for r in range(t_star, n - sustain + 2):
        if all(abs(signals[r - 1 + j]) < tol for j in range(sustain)):
            return r - t_star
    return -1


# -- windowed baseline ---------------------------------------------------------

def window_mean(history: Sequence[float], k: int, initial: float) -> float:
    """Mean of the last k entries of ``history``, ``initial`` while it is
    empty: ``sum(w) / len(w)`` with the terms added left to right onto 0.0,
    by an explicit loop since ``sum`` of floats compensates from Python 3.12."""
    w = list(history)[-k:]
    if not w:
        return initial
    total = 0.0
    for x in w:
        total += x
    return total / len(w)


# -- the whole engine, one period and one dyad at a time -------------------------

def reference_run(scenario: ScenarioConfig, sim: SimConfig,
                  script: Optional[Mapping[int, Mapping[int, float]]] = None
                  ) -> dict[str, np.ndarray]:
    """An adjustment-mode run in plain Python floats, written from the
    ``coopsim.simulation`` module docstring: the recorded per-period states
    keyed like the ``Trajectory`` fields (``converged`` aside).

    Each period: the windowed baseline of each actor's real history
    (:func:`window_mean`, the pre-history first, the initial level while
    there is none), the signals a_j - baseline_j, the gated terms on the
    signal against the rule's reference (:func:`gated_term`; the window, the
    adaptive norm or the fixed initial level), then one
    :func:`update_trust` per dyad.  The next actions are

        a_i + adjust_rate * sum_j term_ij - decay * (a_i - norm_i) + noise_i

    with noise_i = noise_sigma * normal(seed, i, period) on noisy runs, the
    norms move toward the period's actions at ``baseline_rate``, and every
    period's actions, period 1's included, take its shocks in order, then
    its script, then the bounds [0, a_max].
    """
    if sim.mode != "adjustment":
        raise ValueError("the reference runs adjustment mode only")
    n, recip, k = scenario.n, scenario.recip, scenario.recip.memory_k
    d = [[float(x) for x in row] for row in scenario.d.values]
    mode = scenario.baseline_mode
    history = [[row[i] for row in scenario.pre_history] for i in range(n)]
    script = script or {}

    def settle(a: list[float], period: int) -> list[float]:
        for shock in sim.shocks:
            if shock.period == period:
                a[shock.actor] += shock.delta
        for i, per in script.items():
            if period in per:
                a[i] = float(per[period])
        return [min(max(x, 0.0), m) for x, m in zip(a, scenario.a_max)]

    actions = settle([float(x) for x in scenario.a_init], 1)
    norms = [float(x) for x in scenario.baseline_init]
    trust = [[1.0 if i == j else scenario.trust.t0 for j in range(n)] for i in range(n)]
    reputation = [[0.0] * n for _ in range(n)]
    rec: dict[str, list] = {f: [] for f in ("actions", "baselines", "norms", "trust",
                                            "reputation", "signal", "recip_term")}
    for t in range(1, sim.horizon + 1):
        baselines = [window_mean(history[j], k, scenario.baseline_init[j]) for j in range(n)]
        ref = {"moving_average": baselines, "adaptive": norms,
               "fixed": scenario.baseline_init}[mode]
        signal = [[0.0 if i == j else actions[j] - baselines[j] for j in range(n)]
                  for i in range(n)]
        term = [[0.0 if i == j else gated_term(trust[i][j], d[i][j], actions[j] - ref[j], recip)
                 for j in range(n)] for i in range(n)]
        for name, value in (("actions", actions), ("baselines", baselines), ("norms", norms),
                            ("trust", trust), ("reputation", reputation), ("signal", signal),
                            ("recip_term", term)):
            rec[name].append(np.array(value, dtype=float))
        for i in range(n):
            for j in range(n):
                if i != j:
                    trust[i][j], reputation[i][j] = update_trust(
                        trust[i][j], reputation[i][j], signal[i][j], d[i][j], scenario.trust)
        if t == sim.horizon:
            break
        for j in range(n):
            history[j].append(actions[j])
        nxt = []
        for i in range(n):
            total = 0.0  # in turn: sum() of floats compensates from Python 3.12
            for x in term[i]:
                total += x
            a = actions[i] + sim.adjust_rate * total - sim.decay * (actions[i] - norms[i])
            if sim.noise_sigma > 0.0:
                a += sim.noise_sigma * normal(sim.seed, i, t + 1)
            nxt.append(a)
        norms = [m + sim.baseline_rate * (a - m) for a, m in zip(actions, norms)]
        actions = settle(nxt, t + 1)
    return {name: np.array(values) for name, values in rec.items()}


# -- the structural sensitivity one eta at a time --------------------------------

def sensitivity_per_eta(d: np.ndarray, rho0: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """rho0 * D ** eta on (B, n, n) coefficients, the power taken once per
    distinct eta through a (B,) mask with a Python float exponent, as
    ``D ** eta`` is for a single run."""
    power = np.empty_like(d)
    for e in set(eta.tolist()):
        rows = eta == e
        power[rows] = d[rows] ** e
    return rho0[:, None, None] * power


# -- the validation protocol as first written ----------------------------------

#: The protocol constants the forgiveness-type runs read.
WARMUP = 30
START_ACTION = 0.5
DEFECTION = -0.5
RECOVERY_PAD = 5
ADJUST_RATE, DECAY, BASELINE_RATE = 0.30, 0.005, 0.04


def full_warmup_runs(runs: Mapping[str, np.ndarray]) -> dict:
    """The ``RunBatch`` fields of forgiveness-type protocol runs given as
    (rows,) parameter columns, the warm-up run through period by period.

    Both actors open at START_ACTION against START_ACTION moving-average
    baselines and trust t0, with no pre-history; the partner (actor 1) is
    pinned at START_ACTION but for the defection at period WARMUP + 1, and
    a run lasts WARMUP + 1 + 2k + RECOVERY_PAD periods.
    """
    size = len(runs["memory_k"])
    horizon = WARMUP + 1 + 2 * np.asarray(runs["memory_k"]) + RECOVERY_PAD
    script = np.full((int(horizon.max()), size, 2), np.nan)
    script[:, :, 1] = START_ACTION
    script[WARMUP, :, 1] = START_ACTION + DEFECTION
    d = np.zeros((size, 2, 2))
    d[:, 0, 1] = d[:, 1, 0] = runs["d"]
    given = ("rho0", "eta", "kappa", "memory_k", "lambda_r") + tuple(
        f.name for f in fields(TrustParams))
    rows = {f: runs[f] for f in given} | {
        "omega_amp": np.ones(size),
        "adjust_rate": np.full(size, ADJUST_RATE),
        "decay": np.full(size, DECAY),
        "baseline_rate": np.full(size, BASELINE_RATE),
        "noise_sigma": np.zeros(size),
        "seed": np.zeros(size, dtype=np.uint64),
        "d": d,
        "a_max": np.ones((size, 2)),
        "a_init": np.full((size, 2), START_ACTION),
        "baseline_init": np.full((size, 2), START_ACTION),
        "baseline_mode": np.full(size, BASELINE_MODES.index("moving_average")),
        "horizon": horizon,
    }
    return {"rows": rows, "script": script}


def perturb_trial(trial: int, perturb: float, seed: int,
                  params: Mapping[str, tuple[float, float, float]]
                  ) -> tuple[dict[str, float], tuple[str, ...]]:
    """One robustness trial's parameters, drawn and clamped one at a time.

    ``params`` maps each name, in draw order, to (base, lo, hi).  The s-th
    is base * (1 + (2u - 1) * perturb) with u = uniform(derive_seed(seed,
    trial), s, trial), clamped by min(hi, max(lo, .)).  Returns the values
    by name and the names of the clamped ones, in order.
    """
    trial_seed = derive_seed(seed, trial)
    values: dict[str, float] = {}
    clamped = []
    for stream, (name, (base, lo, hi)) in enumerate(params.items()):
        raw = base * (1.0 + (2.0 * uniform(trial_seed, stream, trial) - 1.0) * perturb)
        values[name] = min(hi, max(lo, raw))
        if values[name] != raw:
            clamped.append(name)
    return values, tuple(clamped)
