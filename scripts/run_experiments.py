#!/usr/bin/env python3
"""Five functional experiments demonstrating the framework's mechanisms.

1. Reciprocity turns mutual defection into sustained cooperation in a
   two-actor social dilemma.
2. Asymmetric dependencies produce differentiated punishment responses.
3. Longer memory windows slow forgiveness after an isolated defection.
4. Initial trust gates how much cooperation reciprocity can deliver.
5. Reciprocity among team members partially overcomes free-riding.
"""

import sys
from dataclasses import replace

import numpy as np

from coopsim.params import EconomyParams, ReciprocityParams, TeamParams, TrustParams
from coopsim.scenario import ScenarioConfig, pd_scenario, symmetric_matrix
from coopsim.solver import SolverConfig, solve_equilibrium
from coopsim.sweep import REFERENCE_CELL, ParameterGrid, forgiveness_times, measure_cell
from coopsim.utility import private_payoffs


def trust_matrix(n, level):
    t = np.full((n, n), level)
    np.fill_diagonal(t, 1.0)
    return t


def experiment_1():
    print("experiment 1: cooperation in the social dilemma")
    for rho0 in (0.0, 1.0):
        scen = pd_scenario(rho0=rho0)
        res = solve_equilibrium(scen, None, trust_matrix(2, scen.trust.t0),
                                SolverConfig(grid_points=401), warm_start=(0.0, 0.0))
        payoffs = private_payoffs(res.actions, scen.econ)
        print(f"  rho0 = {rho0}: actions = {tuple(round(float(a), 2) for a in res.actions)}, "
              f"payoffs = {tuple(round(float(p), 2) for p in payoffs)}")


def experiment_2():
    print("experiment 2: dependency differentiation")
    result = measure_cell(REFERENCE_CELL)
    print(f"  response at D = 0.8: {result['response_high']:.3f}; "
          f"at D = 0.2: {result['response_low']:.3f}; ratio {result['ratio']:.2f}")


def experiment_3():
    print("experiment 3: memory window and forgiveness")
    ks = (1, 3, 5, 10)
    cells = ParameterGrid({"memory_k": ks}).columns()
    for k, tau_f in zip(ks, forgiveness_times(cells).tolist()):
        print(f"  k = {k}: signal recovery after {tau_f} periods "
              f"(bound [{k}, {2 * k}])")


def experiment_4():
    print("experiment 4: trust gates cooperation")
    for t0 in (0.3, 0.6, 0.9):
        result = measure_cell(replace(REFERENCE_CELL, t0=t0))
        print(f"  T0 = {t0}: steady cooperation {result['steady_level']:.3f}, "
              f"whole-run mean {result['coop_mean']:.3f}")


def experiment_5():
    print("experiment 5: reciprocity inside a team")
    team = TeamParams(members=(0, 1, 2), omega_prod=10.0, beta_team=0.6,
                      unit_cost=1.0, loyalty=(0.2, 0.5, 0.8), phi_b=0.8, phi_c=0.3)
    own_avg = (0.5, 0.5, 0.5)  # every member's average over the last 3 periods
    for lambda_r in (0.0, 1.0):
        scen = ScenarioConfig(
            labels=("low", "mid", "high"),
            d=symmetric_matrix(3, 0.8),
            recip=ReciprocityParams(rho0=1.0, kappa=1.0, memory_k=3,
                                    lambda_r=lambda_r, omega_amp=1.0),
            trust=TrustParams(t0=0.7),
            econ=EconomyParams(endowments=(10.0,) * 3, alpha=(1 / 3,) * 3),
            a_max=(10.0,) * 3,
            a_init=(0.5,) * 3,
            team=team,
        )
        res = solve_equilibrium(scen, own_avg, trust_matrix(3, 0.7),
                                SolverConfig(grid_points=201), warm_start=scen.a_init)
        total = sum(res.actions)
        output = team.omega_prod * total**team.beta_team
        print(f"  lambda_r = {lambda_r}: efforts "
              f"{tuple(round(float(a), 2) for a in res.actions)}, team output {output:.1f}")


def main() -> int:
    for exp in (experiment_1, experiment_2, experiment_3, experiment_4, experiment_5):
        exp()
    return 0


if __name__ == "__main__":
    sys.exit(main())
