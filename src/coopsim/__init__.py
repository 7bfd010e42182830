"""Deterministic simulation, equilibrium solving, and validation harness for
reciprocity-augmented strategic coopetition among interdependent actors."""

from .errors import ConfigurationError, DependencyTableError
from .params import (
    DependencyEntry,
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TeamParams,
    TrustParams,
    compute_interdependence,
)
from .scenario import ScenarioConfig, Shock, SimConfig, pd_scenario, reference_scenario
from .simulation import Trajectory, run
from .solver import (
    EquilibriumResult,
    EquilibriumSolver,
    SolverConfig,
    critical_rho,
    cross_partial_check,
    solve_equilibrium,
)
from .utility import (
    individual_value,
    private_payoffs,
    standalone_payoff,
    synergy,
    team_member_utility,
)

__version__ = "0.1.0"
