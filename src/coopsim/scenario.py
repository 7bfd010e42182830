"""Scenario and simulation configuration, plus built-in named scenarios.

A :class:`ScenarioConfig` is the complete static parameterization of a
strategic situation: actors, bounds, initial conditions, the
interdependence matrix, and the reciprocity / trust / economy parameter
blocks.  A :class:`SimConfig` holds the dynamic knobs of one run: horizon,
update mode, adjustment rates, noise, seed, and exogenous shocks.

Built-ins:

- ``pd``         two-actor social dilemma for the equilibrium solver; with
                 the reciprocity channel off the only equilibrium reachable
                 from mutual defection is (0, 0), with it the solver climbs
                 to the cooperative profile (10, 10) with payoffs 50 each.
- ``reference``  two-actor reference configuration used by proposition
                 checks and robustness trials.
- the iOS platform case study lives in :mod:`coopsim.case_study`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .params import (
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TeamParams,
    TrustParams,
    check_seed,
    validate,
)

BASELINE_MODES = ("moving_average", "adaptive", "fixed")
SIM_MODES = ("adjustment", "best_response")


@dataclass(frozen=True)
class Shock:
    """Additive action perturbation applied once, post-dynamics, pre-clip."""

    period: int
    actor: int
    delta: float

    def __post_init__(self) -> None:
        validate(self)


@dataclass(frozen=True)
class ScenarioConfig:
    """Static description of actors, coupling, and parameter blocks."""

    labels: tuple[str, ...]
    d: InterdependenceMatrix
    recip: ReciprocityParams = ReciprocityParams()
    trust: TrustParams = TrustParams()
    econ: EconomyParams = EconomyParams()
    a_max: tuple[float, ...] = ()
    a_init: tuple[float, ...] = ()
    baseline_init: tuple[float, ...] = ()
    baseline_mode: str = "moving_average"
    pre_history: tuple[tuple[float, ...], ...] = ()
    team: Optional[TeamParams] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if n < 1:
            raise ConfigurationError("scenario needs at least one actor")
        if len(set(self.labels)) != n:
            raise ConfigurationError("actor labels must be unique")
        for label in self.labels:
            # What the scenario file and the CSV headers can hold: a line of
            # its own, read back stripped, split at ',' and cut at '#'.
            if label.splitlines() != [label] or label != label.strip() or {",", "#"} & set(label):
                raise ConfigurationError(f"actor label {label!r} must be one non-empty line "
                                         f"without ',', '#' or surrounding whitespace")
        if self.d.n != n:
            raise ConfigurationError(
                f"interdependence matrix is {self.d.n}x{self.d.n} but there are {n} actors"
            )
        if self.econ.n != n:
            raise ConfigurationError("economy parameter vectors must cover every actor")
        object.__setattr__(self, "a_max", self.a_max or (1.0,) * n)
        object.__setattr__(self, "a_init", self.a_init or (0.0,) * n)
        object.__setattr__(self, "baseline_init", self.baseline_init or self.a_init)
        validate(self)
        for name in ("a_max", "a_init", "baseline_init"):
            if len(getattr(self, name)) != n:
                raise ConfigurationError(f"{name} must have one entry per actor")
        if any(not 0 <= x <= m for x, m in zip(self.a_init, self.a_max)):
            raise ConfigurationError("initial actions must lie within [0, a_max]")
        if self.baseline_mode not in BASELINE_MODES:
            raise ConfigurationError(
                f"baseline_mode must be one of {BASELINE_MODES}, got {self.baseline_mode!r}"
            )
        pre = tuple(tuple(float(x) for x in row) for row in self.pre_history)
        if any(len(row) != n for row in pre):
            raise ConfigurationError("pre_history rows must have one action per actor")
        if not all(math.isfinite(x) for row in pre for x in row):
            raise ConfigurationError("pre_history actions must be finite")
        object.__setattr__(self, "pre_history", pre)
        if self.team is not None and not all(0 <= m < n for m in self.team.members):
            raise ConfigurationError(f"team members must be actor indices below {n}")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SimConfig:
    """Dynamic knobs of one simulation run."""

    horizon: int = 66
    mode: str = "adjustment"
    adjust_rate: float = 0.12
    decay: float = 0.05
    baseline_rate: float = 0.08
    noise_sigma: float = 0.02
    seed: int = 42
    shocks: tuple[Shock, ...] = ()

    def __post_init__(self) -> None:
        validate(self)
        check_seed(self.seed)
        if self.mode not in SIM_MODES:
            raise ConfigurationError(f"mode must be one of {SIM_MODES}, got {self.mode!r}")
        object.__setattr__(self, "shocks", tuple(self.shocks))


def symmetric_matrix(n: int, d: float) -> InterdependenceMatrix:
    """All off-diagonal coefficients equal to ``d``."""
    m = np.full((n, n), float(d))
    np.fill_diagonal(m, 0.0)
    return InterdependenceMatrix(m)


def pd_scenario(rho0: float = 1.0, d: float = 1.0, t0: float = 0.7) -> ScenarioConfig:
    """Two-actor social dilemma for the equilibrium solver.

    Zero endowments and a pure-synergy economy (no individual value
    component) make unilateral investment a dead loss, so with the
    reciprocity weight at zero the solver stays at mutual defection (0, 0)
    when started there.  The synergy coefficient is chosen so the
    cooperative profile (10, 10) pays exactly 50 per actor.  Full mutual
    dependency (d = 1) makes the cooperation threshold of ``critical_rho``
    exact: the marginal cost of cooperation is exactly 1.
    """
    econ = EconomyParams(
        endowments=(0.0, 0.0),
        alpha=(0.5, 0.5),
        theta_v=0.0,
        gamma=12.0,
        value_form="logarithmic",
    )
    return ScenarioConfig(
        labels=("A", "B"),
        d=symmetric_matrix(2, d),
        recip=ReciprocityParams(rho0=rho0, eta=1.0, kappa=1.0, memory_k=5,
                                lambda_r=1.0, omega_amp=1.0),
        trust=TrustParams(t0=t0),
        econ=econ,
        a_max=(10.0, 10.0),
        a_init=(0.0, 0.0),
        baseline_init=(0.0, 0.0),
        baseline_mode="moving_average",
    )


def reference_scenario(
    rho0: float = 1.0,
    eta: float = 1.0,
    kappa: float = 1.0,
    memory_k: int = 5,
    lambda_r: float = 1.0,
    t0: float = 0.7,
    d: float = 0.8,
    theta_v: float = 10.0,
    a_max: float = 40.0,
    gamma: float = 0.0,
) -> ScenarioConfig:
    """Two-actor reference configuration with an interior base optimum.

    The logarithmic value function gives each actor a concave private
    optimum at theta_v - 1, comfortably inside the action bounds, which is
    what the proposition checks need to observe smooth comparative statics.
    """
    econ = EconomyParams(
        endowments=(100.0, 100.0),
        alpha=(0.5, 0.5),
        theta_v=theta_v,
        gamma=gamma,
        value_form="logarithmic",
    )
    base = theta_v - 1.0
    return ScenarioConfig(
        labels=("A", "B"),
        d=symmetric_matrix(2, d),
        recip=ReciprocityParams(rho0=rho0, eta=eta, kappa=kappa, memory_k=memory_k,
                                lambda_r=lambda_r, omega_amp=1.0),
        trust=TrustParams(t0=t0),
        econ=econ,
        a_max=(a_max, a_max),
        a_init=(base, base),
        baseline_init=(base, base),
        baseline_mode="moving_average",
    )
