"""Numerical verification of the three analytical properties.

1. Cooperation threshold: in the built-in social-dilemma scenario the
   solver stays at mutual defection when the base reciprocity sits below
   the critical value rho* = c' / (lambda_r T (1 + omega D) kappa) and
   escapes to the cooperative profile above it (the dilemma's marginal
   cost of cooperation is exactly 1).

2. Forgiveness window: the measured signal-recovery time after an isolated
   defection lies in [k, 2k] across memory windows and response
   sensitivities.

3. Trust-reciprocity complementarity: the finite-difference cross-partial
   of the equilibrium action in (T, rho) is positive at the reference
   configuration, sign-stable under step halving, and numerically zero
   with the reciprocity channel off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .scenario import pd_scenario
from .solver import SolverConfig, critical_rho, cross_partial_check, solve_equilibrium
from .sweep import (GRID_KEYS, NO_RECOVERY, REFERENCE_CELL, ParameterGrid, columns,
                    forgiveness_times)


@dataclass(frozen=True)
class Prop1Result:
    rho_star: float
    below_actions: tuple[float, ...]
    above_actions: tuple[float, ...]
    passed: bool


def check_prop1(margin: float = 0.1) -> Prop1Result:
    """Solve the dilemma just below and just above the critical reciprocity."""
    base = pd_scenario()
    d = base.d[0, 1]
    rho_star = critical_rho(
        c_prime=1.0,
        lambda_r=base.recip.lambda_r,
        t_star=base.trust.t0,
        omega_amp=base.recip.omega_amp,
        d_ij=d,
        kappa=base.recip.kappa,
    )
    solver = SolverConfig(grid_points=401)

    def solve_at(rho0: float):
        scen = pd_scenario(rho0=rho0)
        trust = np.full((2, 2), scen.trust.t0)
        np.fill_diagonal(trust, 1.0)
        return solve_equilibrium(scen, None, trust, solver)

    below = solve_at((1.0 - margin) * rho_star)
    above = solve_at((1.0 + margin) * rho_star)
    passed = (
        below.converged
        and above.converged
        and max(below.actions) < 1.0
        and min(above.actions) > 5.0
    )
    return Prop1Result(
        rho_star=rho_star,
        below_actions=below.actions,
        above_actions=above.actions,
        passed=passed,
    )


@dataclass(frozen=True)
class Prop2Case:
    memory_k: int
    kappa: float
    tau_f: int
    within_bounds: bool


@dataclass(frozen=True)
class Prop2Result:
    cases: tuple[Prop2Case, ...]
    passed: bool


def check_prop2(
    ks: Sequence[int] = (1, 5, 10),
    kappas: Sequence[float] = (0.5, 1.0, 2.0),
) -> Prop2Result:
    """Forgiveness times across (k, kappa) must land inside [k, 2k]: the
    validation protocol's forgiveness time of the reference cell at each
    pair, the pairs' forgiveness runs measured as one batch.  The levels
    pass the sweep grid's checks, so a window beyond the forgiveness run's
    reach (``MAX_MEMORY_K``) is a ``ConfigurationError``."""
    ParameterGrid({"memory_k": tuple(ks), "kappa": tuple(kappas)})
    cells = columns([replace(REFERENCE_CELL, memory_k=int(k), kappa=kappa)
                     for k in ks for kappa in kappas], GRID_KEYS)
    tau_f = forgiveness_times(cells)
    cases = []
    for k, kappa, tau in zip(cells["memory_k"].tolist(), cells["kappa"].tolist(),
                             tau_f.tolist()):
        ok = tau != NO_RECOVERY and k <= tau <= 2 * k
        cases.append(Prop2Case(memory_k=k, kappa=kappa, tau_f=tau, within_bounds=ok))
    return Prop2Result(cases=tuple(cases), passed=all(c.within_bounds for c in cases))


@dataclass(frozen=True)
class Prop3Result:
    estimate: float
    halved_estimate: float
    zero_channel_estimate: float
    corners_converged: bool
    passed: bool


def check_prop3(noise_bound: float = 1e-3) -> Prop3Result:
    """Positive cross-partial, sign-stable under halving, zero when switched off."""
    full = cross_partial_check(dt=0.05, drho=0.05)
    halved = cross_partial_check(dt=0.025, drho=0.025)
    off = cross_partial_check(lambda_r=0.0)
    converged = full.corners_converged and halved.corners_converged and off.corners_converged
    passed = (
        converged
        and full.estimate > 0.0
        and halved.estimate > 0.0
        and abs(off.estimate) < noise_bound
    )
    return Prop3Result(
        estimate=full.estimate,
        halved_estimate=halved.estimate,
        zero_channel_estimate=off.estimate,
        corners_converged=converged,
        passed=passed,
    )
