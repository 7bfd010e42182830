"""Iterative best-response solver for reciprocity-augmented equilibria.

Each iteration evaluates every actor's best response on a finite action
grid against the partners' previous-iterate actions (simultaneous/Jacobi
updates, which preserve symmetry exactly), starting from the previous
period's profile, until the sup-norm action change drops below ``TOL``.
Non-convergence returns the last iterate, flagged.  One iteration
(``max_iters=1``) gives every actor's best response to the warm start.

Best-response objective.  The literal reciprocity term of the period
utility depends only on partners' signals, so it is a constant in the
optimizer's own action and cannot move equilibria.  What makes conditional
cooperation strategically relevant is that an actor's own deviation from
its recent average is the signal partners reciprocate next.  The solver
therefore evaluates the reciprocity component at the candidate action's
own signal:

    objective(a_i) = pi_i(a) + sum_j D_ij (1 + lambda_t T_ij) pi_j(a)
                     + sum_j lambda_r T_ij (1 + omega D_ij) rho_ij
                           * tanh(kappa * (a_i - own_avg_i))

(a team member's team utility takes the place of the payoff terms), whose
marginal at the neutral point is lambda_r * T * (1 + omega D) * rho
* kappa -- the anticipated-reciprocity margin that the cooperation
threshold ``critical_rho`` is built from.  ``own_avg`` is each actor's
windowed average, which the engine computes (``scenario.baseline_init``
when none is given).

The payoffs come from the elementwise kernel in :mod:`coopsim.utility`.
Each actor's response in an iteration uses one objective, ``value(a, own,
recip)``, which scores a whole grid of candidates or one float of the
golden-section refinement alike.  Each of its inputs is computed as seldom
as what it depends on allows, and once for all actors whose inputs are the
same bits.  Per run (scenario and :class:`SolverConfig`): one grid per
distinct ``a_max``, the gate matrix (the shared
:func:`~coopsim.reciprocity.gate_matrix`), one standalone payoff over the
grid per distinct (endowment, ``a_max``), and each actor's partners and
team membership.  Per solve (``own_avg`` and trust): the gate sums, the
partner weights D_ij (1 + lambda_t T_ij) and, for each actor that is
solved, its reciprocity term over its grid.  Per iteration: one response
per distinct key.

A response is a pure function of the bits of what it reads: the actor's
``a_max``, endowment, gate sum, ``own_avg`` and alpha_i, and for each
partner j in turn its action, D_ij (1 + lambda_t T_ij), alpha_j and j's
standalone payoff at the profile.  Those bits are a
non-member's key each iteration; a team member's utility reads its own
index, so its key is that index and team members never share.  One
helper, :func:`_share`, shares the grids, the grid payoffs and the
responses alike: an actor whose key matches an earlier actor's takes that
result, bit for bit the one it would have computed, so the symmetric
two-actor scenarios of the proposition checks score and refine one
response per iteration.  Keys compare bits, not values, since 0.0 == -0.0.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .params import validate
from .reciprocity import gate_matrix
from .scenario import ScenarioConfig, reference_scenario
from .utility import standalone_payoff, synergy, team_member_utility

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# A solve has converged when no action moves by this much in one iteration.
# Refinement introduces float-level jitter between Jacobi sweeps, so the
# tolerance stays comfortably above it.
TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and grid controls for one equilibrium solve.

    ``refine`` adds a golden-section pass in the +/- one-step bracket of
    the grid winner; the refined action therefore always agrees with the
    grid argmax within one step.
    """

    max_iters: int = 100
    grid_points: int = 201
    refine: bool = False

    def __post_init__(self) -> None:
        validate(self)


@dataclass(frozen=True)
class EquilibriumResult:
    actions: tuple[float, ...]
    converged: bool
    iterations: int
    residual: float


def _golden_refine(fn, lo: float, hi: float, iters: int = 60) -> float:
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    e = a + _INV_GOLDEN * (b - a)
    fc, fe = fn(c), fn(e)
    for _ in range(iters):
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, e, fe
            e = a + _INV_GOLDEN * (b - a)
            fe = fn(e)
        if b - a < 1e-12 * max(1.0, abs(b)):
            break
    return 0.5 * (a + b)


def _bits(*values: float) -> bytes:
    """The IEEE 754 bits of ``values``, as a key: unlike float equality it
    keeps 0.0 and -0.0 apart and matches a NaN only by its bits."""
    return struct.pack(f"{len(values)}d", *values)


def _share(keys: Sequence, make) -> list:
    """``[make(i) for i in range(len(keys))]``, calling ``make`` only at the
    first index of each distinct key; a later index with an equal key gets
    that first result."""
    made = {}
    return [made[key] if key in made else made.setdefault(key, make(i))
            for i, key in enumerate(keys)]


class EquilibriumSolver:
    """Best-response solves of one scenario under one :class:`SolverConfig`.

    Building one computes what every solve of a run shares; calling it,
    ``solver(own_avg, trust, warm_start)``, solves one period.  The cached
    arrays are never written after the build.
    """

    def __init__(self, scenario: ScenarioConfig, config: SolverConfig = SolverConfig()) -> None:
        econ = scenario.econ
        self.scenario = scenario
        self.config = config
        a_max, endowments = scenario.a_max, econ.endowments
        self.grids = _share([_bits(m) for m in a_max],
                            lambda i: np.linspace(0.0, a_max[i], config.grid_points))
        self.gate = gate_matrix(scenario.d.values, scenario.recip)
        with np.errstate(over="ignore"):  # the solve reports an overflow
            self.grid_payoffs = _share(
                [_bits(e, m) for e, m in zip(endowments, a_max)],
                lambda i: standalone_payoff(endowments[i], self.grids[i], econ))
        n, team = scenario.n, scenario.team
        self.partners = [[j for j in range(n) if j != i] for i in range(n)]
        self.members = [team is not None and i in team.members for i in range(n)]

    def _gate_sums(self, trust: np.ndarray) -> np.ndarray:
        """Each actor's total weight on its anticipated own-signal response:
        row sums of the gated weights times trust over its partners."""
        weights = self.gate * trust
        np.fill_diagonal(weights, 0.0)
        return weights.sum(axis=1)

    def __call__(
        self,
        own_avg: Optional[Sequence[float]],
        trust: np.ndarray,
        warm_start: Optional[Sequence[float]] = None,
    ) -> EquilibriumResult:
        """Iterate simultaneous best responses from ``warm_start`` (the
        scenario's ``a_init`` when None) until the profile settles.  An
        actor's response is the smallest grid point scoring at least its
        grid best - 1e-12, or the refined action when it scores at least as
        well as that best.  An objective that is not finite (an overflow at
        huge endowments or ``theta_v``) raises :class:`ConfigurationError`."""
        scenario, config = self.scenario, self.config
        econ, team, kappa = scenario.econ, scenario.team, scenario.recip.kappa
        actions = np.array(warm_start if warm_start is not None else scenario.a_init, dtype=float)
        endowments = np.asarray(econ.endowments)
        reference = np.array(scenario.baseline_init if own_avg is None else own_avg,
                             dtype=float).tolist()
        gates = self._gate_sums(trust).tolist()
        weights = scenario.d.values * (1.0 + scenario.trust.lambda_t * trust)
        recips = {}

        with np.errstate(over="ignore", invalid="ignore"):
            residual = math.inf
            for it in range(1, config.max_iters + 1):
                standalone = standalone_payoff(endowments, actions, econ)
                payoffs = standalone.tolist()

                def respond(i: int) -> float:
                    """Actor i's best response to the previous iterate."""
                    grid, partners, member = self.grids[i], self.partners[i], self.members[i]
                    partner_actions = [actions[j] for j in partners]

                    def value(a, own, recip):
                        """i's objective at its action ``a`` (a float or a grid),
                        given its standalone payoff and reciprocity term there."""
                        if member:
                            total = team_member_utility(i, a, actions, team)
                        else:
                            s = synergy(a, partner_actions, econ)
                            total = own + econ.alpha[i] * s
                            for j in partners:
                                total = total + weights[i, j] * (standalone[j] + econ.alpha[j] * s)
                        return total + recip

                    if i not in recips:
                        recips[i] = gates[i] * np.tanh(kappa * (grid - reference[i]))
                    values = value(grid, self.grid_payoffs[i], recips[i])
                    best = float(values.max())
                    if not math.isfinite(best):
                        raise ConfigurationError(f"the best-response objective of actor "
                                                 f"{scenario.labels[i]} is not finite, got {best}")
                    # Smallest grid point within 1e-12 of the best (tie-break toward
                    # less action); >=, since best - 1e-12 rounds to best once
                    # |best| >= 2 ** 14.
                    idx = int(np.nonzero(values >= best - 1e-12)[0][0])
                    if config.refine:
                        e_i, gate, ref = econ.endowments[i], gates[i], reference[i]

                        def refined(a: float):
                            return value(a, standalone_payoff(e_i, a, econ),
                                         gate * np.tanh(kappa * (a - ref)))

                        xr = _golden_refine(refined, float(grid[max(0, idx - 1)]),
                                            float(grid[min(len(grid) - 1, idx + 1)]))
                        if refined(xr) >= best:
                            return xr
                    return grid[idx]

                # A non-member's key holds the bits of all its response reads; a
                # team member's is its own index.
                keys = [i if self.members[i] else
                        _bits(scenario.a_max[i], econ.endowments[i], gates[i], reference[i],
                              econ.alpha[i],
                              *(x for j in partners
                                for x in (actions[j], weights[i, j], econ.alpha[j], payoffs[j])))
                        for i, partners in enumerate(self.partners)]
                nxt = np.array(_share(keys, respond), dtype=float)
                residual = float(np.max(np.abs(nxt - actions)))
                actions = nxt
                if residual < TOL:
                    return EquilibriumResult(tuple(actions), True, it, residual)
        return EquilibriumResult(tuple(actions), False, config.max_iters, residual)


def solve_equilibrium(
    scenario: ScenarioConfig,
    own_avg: Optional[Sequence[float]],
    trust: np.ndarray,
    solver: SolverConfig = SolverConfig(),
    warm_start: Optional[Sequence[float]] = None,
) -> EquilibriumResult:
    """Iterate simultaneous best responses until the profile settles: one
    solve of a freshly built :class:`EquilibriumSolver`."""
    return EquilibriumSolver(scenario, solver)(own_avg, trust, warm_start)


def critical_rho(
    c_prime: float,
    lambda_r: float,
    t_star: float,
    omega_amp: float,
    d_ij: float,
    kappa: float,
) -> float:
    """Critical base reciprocity for a cooperative equilibrium to exist.

        rho* = c' / (lambda_r * T* * (1 + omega * D) * kappa)

    where c' is the marginal cost of cooperation at the interior solution:
    above rho*, the anticipated-reciprocity margin at a neutral signal
    exceeds the marginal cost and cooperation is incentive compatible.
    """
    denom = lambda_r * t_star * (1.0 + omega_amp * d_ij) * kappa
    if denom <= 0:
        raise ZeroDivisionError("critical threshold undefined: zero marginal reciprocity")
    return c_prime / denom


@dataclass(frozen=True)
class CrossPartialResult:
    estimate: float
    corners_converged: bool


def cross_partial_check(
    t0: float = 0.7,
    rho0: float = 1.0,
    d: float = 0.5,
    dt: float = 0.05,
    drho: float = 0.05,
    lambda_r: float = 1.0,
    solver: Optional[SolverConfig] = None,
) -> CrossPartialResult:
    """Central finite-difference estimate of d2 a* / dT drho at a reference point.

    Four equilibrium solves at (T0 +/- dt, rho0 +/- drho) on the two-actor
    reference configuration; any unconverged corner flags the check
    inconclusive.  With the reciprocity channel off (lambda_r = 0) the
    estimate is numerically zero.  A solve reads the trust matrix it is
    given, not the scenario's T0, so one solver per rho0 level solves both
    of its T0 corners; every corner's T0 is still validated.  The levels
    differ only in their gate matrices, so corners whose gates and T0 hold
    the same bits (both levels' gates are 0 at lambda_r = 0) are one solve.
    """
    if solver is None:
        solver = SolverConfig(grid_points=4001, refine=True)
    levels = [reference_scenario(rho0=r, t0=t0 + dt, d=d, kappa=0.5, theta_v=10.0,
                                 a_max=40.0, lambda_r=lambda_r)
              for r in (rho0 + drho, rho0 - drho)]
    replace(levels[0].trust, t0=t0 - dt)  # validates the lower T0
    solves = [EquilibriumSolver(scen, solver) for scen in levels]
    cases = [(solve, t) for solve in solves for t in (t0 + dt, t0 - dt)]

    def corner(c: int) -> EquilibriumResult:
        solve, t = cases[c]
        trust = np.full((2, 2), t)
        np.fill_diagonal(trust, 1.0)
        return solve(None, trust)

    corners = _share([solve.gate.tobytes() + _bits(t) for solve, t in cases], corner)
    app, amp, apm, amm = (res.actions[0] for res in corners)
    estimate = (app - apm - amp + amm) / (4.0 * dt * drho)
    return CrossPartialResult(estimate=estimate,
                              corners_converged=all(res.converged for res in corners))
