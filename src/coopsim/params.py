"""Domain parameter blocks and the structural interdependence matrix.

Every simulation, solve, or sweep is parameterized by four frozen blocks:

- :class:`ReciprocityParams` -- conditional-cooperation machinery (base
  tendency, dependency elasticity, response sensitivity, memory window,
  weight, dependency amplification).
- :class:`TrustParams` -- two-layer trust state dynamics (asymmetric build
  and erosion rates, reputation damage/decay, ceiling parameters).
- :class:`EconomyParams` -- value creation and appropriation (individual
  value form, complementarity, endowments, bargaining shares).
- :class:`TeamParams` -- optional team-production extension.

The interdependence matrix ``D`` holds directional structural-dependency
coefficients ``D[i][j] in [0, 1]``: how much actor i's outcomes hinge on
actor j.  It is aggregated from a dependency table (depender, dependee,
dependum, weight, exists, criticality) as a weighted mean of criticalities.

Symbol collisions are resolved by field naming: ``omega_amp`` (dependency
amplification in the reciprocity term) is distinct from ``TeamParams
.omega_prod`` (team productivity), and ``power_beta`` (value-function
exponent) is distinct from ``TeamParams.beta_team`` (team effort
elasticity).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DependencyTableError


def check_finite(obj, names: Sequence[str]) -> None:
    """Reject NaN and infinite values among ``obj``'s named numeric fields
    (tuple fields entrywise) with a ConfigurationError naming the field."""
    for name in names:
        value = getattr(obj, name)
        entries = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in entries):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")


def check_integer(obj, names: Sequence[str]) -> None:
    """Reject non-integral values among ``obj``'s named fields (tuple fields
    entrywise) with a ConfigurationError naming the field, and store
    integral floats as int."""
    for name in names:
        value = getattr(obj, name)
        entries = value if isinstance(value, tuple) else (value,)
        if not all(isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()
                   for v in entries):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        ints = tuple(int(v) for v in entries)
        object.__setattr__(obj, name, ints if isinstance(value, tuple) else ints[0])


@dataclass(frozen=True)
class DependencyEntry:
    """One row of a dependency table.

    ``weight`` is the importance weight of the dependum to the depender,
    ``exists`` flags whether the dependency is present (0/1), and
    ``criticality`` in [0, 1] captures how replaceable the dependee is.
    """

    depender: int
    dependee: int
    dependum: str
    weight: float
    exists: bool
    criticality: float

    def __post_init__(self) -> None:
        check_integer(self, ("depender", "dependee"))
        if self.depender == self.dependee:
            raise ConfigurationError(
                f"self-dependency not allowed (actor {self.depender}, {self.dependum!r})"
            )
        if self.weight < 0:
            raise ConfigurationError(f"dependency weight must be >= 0, got {self.weight}")
        if not 0.0 <= self.criticality <= 1.0:
            raise ConfigurationError(
                f"criticality must lie in [0, 1], got {self.criticality}"
            )


class InterdependenceMatrix:
    """N x N matrix of structural dependency coefficients.

    Invariants: all entries in [0, 1], zero diagonal.  The matrix is in
    general asymmetric: ``d[i, j]`` is i's dependence on j, not the reverse.
    Instances are immutable after construction and safe to share across
    workers.
    """

    def __init__(self, d: Sequence[Sequence[float]] | np.ndarray):
        arr = np.asarray(d, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigurationError(f"interdependence matrix must be square, got {arr.shape}")
        if not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):
            raise ConfigurationError("interdependence coefficients must lie in [0, 1]")
        if np.any(np.diag(arr) != 0.0):
            raise ConfigurationError("self-dependency D[i][i] must be zero")
        arr.setflags(write=False)
        self._d = arr

    @property
    def n(self) -> int:
        return self._d.shape[0]

    @property
    def values(self) -> np.ndarray:
        return self._d

    def __getitem__(self, ij) -> float:
        return float(self._d[ij])

    def __eq__(self, other) -> bool:
        return isinstance(other, InterdependenceMatrix) and np.array_equal(
            self._d, other._d
        )

    def __repr__(self) -> str:
        return f"InterdependenceMatrix({self._d.tolist()!r})"


def compute_interdependence(
    entries: Sequence[DependencyEntry], n: int
) -> InterdependenceMatrix:
    """Aggregate a dependency table into the interdependence matrix.

    For each ordered pair (i, j):

        D[i][j] = sum_d w_d * exists_d * crit_d / sum_d w_d

    over the dependums d through which i depends on j.  Pairs with no table
    entries get D = 0 (absence means no structural coupling).  A pair that
    has entries but zero total weight is an ill-formed table and raises
    :class:`DependencyTableError`.
    """
    weight_sums = np.zeros((n, n))
    weighted = np.zeros((n, n))
    for e in entries:
        if e.depender >= n or e.dependee >= n:
            raise ConfigurationError(
                f"dependency entry references actor {max(e.depender, e.dependee)} "
                f"but only {n} actors are declared"
            )
        weight_sums[e.depender, e.dependee] += e.weight
        weighted[e.depender, e.dependee] += e.weight * float(e.exists) * e.criticality

    d = np.zeros((n, n))
    has_entries = np.zeros((n, n), dtype=bool)
    for e in entries:
        has_entries[e.depender, e.dependee] = True
    for i in range(n):
        for j in range(n):
            if not has_entries[i, j]:
                continue
            if weight_sums[i, j] <= 0.0:
                raise DependencyTableError(
                    f"dependency pair ({i}, {j}) has entries but zero total weight"
                )
            d[i, j] = weighted[i, j] / weight_sums[i, j]
    return InterdependenceMatrix(d)


@dataclass(frozen=True)
class ReciprocityParams:
    """Conditional-cooperation parameters.

    ``rho0`` base reciprocity tendency (> 0), ``eta`` dependency elasticity
    (>= 0), ``kappa`` response sensitivity of the bounded response function
    (> 0), ``memory_k`` moving-average window length (>= 1), ``lambda_r``
    weight of the reciprocity term (>= 0; 0 switches reciprocity off), and
    ``omega_amp`` dependency amplification in the gated term (>= 0).
    """

    rho0: float = 1.0
    eta: float = 1.0
    kappa: float = 1.0
    memory_k: int = 5
    lambda_r: float = 1.0
    omega_amp: float = 1.0

    def __post_init__(self) -> None:
        check_finite(self, _RECIP_NAMES)
        check_integer(self, ("memory_k",))
        if self.rho0 < 0:
            raise ConfigurationError(f"rho0 must be >= 0, got {self.rho0}")
        if self.eta < 0:
            raise ConfigurationError(f"eta must be >= 0, got {self.eta}")
        if self.kappa <= 0:
            raise ConfigurationError(f"kappa must be > 0, got {self.kappa}")
        if self.memory_k < 1:
            raise ConfigurationError(f"memory_k must be an integer >= 1, got {self.memory_k}")
        if self.lambda_r < 0:
            raise ConfigurationError(f"lambda_r must be >= 0, got {self.lambda_r}")
        if self.omega_amp < 0:
            raise ConfigurationError(f"omega_amp must be >= 0, got {self.omega_amp}")


_RECIP_NAMES = tuple(f.name for f in fields(ReciprocityParams))


@dataclass(frozen=True)
class TrustParams:
    """Two-layer trust dynamics parameters.

    Defaults reproduce the calibrated case-study values: 3:1 negativity
    bias (0.30 / 0.10), interdependence erosion amplification 0.50,
    reputation damage 0.60 with slow decay 0.03, and the two-parameter
    ceiling min(t_max, 1 - theta_r * R).

    ``deadband`` is an observation noise floor: signals with magnitude at
    or below it register as neutral (reputation decays, trust holds).
    Without it, zero-mean action noise ratchets trust down indefinitely
    because erosion outweighs ceiling-limited building roughly 15:1 near
    high trust.  Zero (off) by default; noisy scenarios set it to a
    multiple of their noise scale.
    """

    t0: float = 0.70
    lambda_plus: float = 0.10
    lambda_minus: float = 0.30
    xi: float = 0.50
    mu_r: float = 0.60
    delta_r: float = 0.03
    t_max: float = 0.90
    theta_r: float = 0.60
    lambda_t: float = 1.0
    deadband: float = 0.0

    def __post_init__(self) -> None:
        check_finite(self, _TRUST_NAMES)
        if not 0.0 <= self.t0 <= 1.0:
            raise ConfigurationError(f"t0 must lie in [0, 1], got {self.t0}")
        for name in ("lambda_plus", "lambda_minus", "mu_r", "delta_r"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1), got {v}")
        if self.xi < 0:
            raise ConfigurationError(f"xi must be >= 0, got {self.xi}")
        if not 0.0 < self.t_max <= 1.0:
            raise ConfigurationError(f"t_max must lie in (0, 1], got {self.t_max}")
        if not 0.0 <= self.theta_r <= 1.0:
            raise ConfigurationError(f"theta_r must lie in [0, 1], got {self.theta_r}")
        if self.lambda_t < 0:
            raise ConfigurationError(f"lambda_t must be >= 0, got {self.lambda_t}")
        if self.deadband < 0:
            raise ConfigurationError(f"deadband must be >= 0, got {self.deadband}")


_TRUST_NAMES = tuple(f.name for f in fields(TrustParams))

VALUE_FORMS = ("logarithmic", "power")


@dataclass(frozen=True)
class EconomyParams:
    """Value creation and appropriation parameters.

    ``value_form`` selects the individual value function: ``logarithmic``
    gives f(a) = theta_v * ln(1 + a) (theta_v defaults to 20.0), ``power``
    gives f(a) = a ** power_beta.  ``gamma`` scales the geometric-mean
    synergy term; bargaining shares ``alpha`` must sum to 1 so synergy is
    exhausted exactly.
    """

    endowments: tuple[float, ...] = (100.0, 100.0)
    alpha: tuple[float, ...] = (0.5, 0.5)
    theta_v: float = 20.0
    power_beta: float = 0.75
    gamma: float = 0.0
    value_form: str = "logarithmic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "endowments", tuple(float(e) for e in self.endowments))
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        check_finite(self, ("endowments", "alpha", "theta_v", "power_beta", "gamma"))
        if len(self.endowments) != len(self.alpha):
            raise ConfigurationError("endowments and alpha must have the same length")
        if any(e < 0 for e in self.endowments):
            raise ConfigurationError("endowments must be >= 0")
        if any(a < 0 for a in self.alpha):
            raise ConfigurationError("bargaining shares must be >= 0")
        if abs(sum(self.alpha) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"bargaining shares must sum to 1 (got {sum(self.alpha)!r})"
            )
        if self.theta_v < 0:
            raise ConfigurationError(f"theta_v must be >= 0, got {self.theta_v}")
        if not 0.0 < self.power_beta < 1.0:
            raise ConfigurationError(f"power_beta must lie in (0, 1), got {self.power_beta}")
        if self.gamma < 0:
            raise ConfigurationError(f"gamma must be >= 0, got {self.gamma}")
        if self.value_form not in VALUE_FORMS:
            raise ConfigurationError(
                f"value_form must be one of {VALUE_FORMS}, got {self.value_form!r}"
            )

    @property
    def n(self) -> int:
        return len(self.endowments)


@dataclass(frozen=True)
class TeamParams:
    """Optional team-production extension.

    ``omega_prod`` and ``beta_team`` are deliberately named apart from the
    reciprocity amplification ``omega_amp`` and the value exponent
    ``power_beta``.  ``loyalty`` is the per-member loyalty theta in [0, 1];
    ``phi_b`` weights teammates' aggregate payoff and ``phi_c`` discounts
    perceived effort cost.  ``teammate_payoff`` selects whether the
    teammates' aggregate payoff is their sum (default) or mean.
    """

    members: tuple[int, ...]
    loyalty: tuple[float, ...] = ()
    omega_prod: float = 10.0
    beta_team: float = 0.75
    unit_cost: float = 1.0
    phi_b: float = 0.8
    phi_c: float = 0.3
    teammate_payoff: str = "sum"

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        check_integer(self, ("members",))
        object.__setattr__(self, "loyalty", tuple(float(x) for x in self.loyalty))
        check_finite(self, ("omega_prod", "beta_team", "unit_cost", "loyalty", "phi_b", "phi_c"))
        if len(self.members) == 0:
            raise ConfigurationError("team must have at least one member")
        if len(self.loyalty) != len(self.members):
            raise ConfigurationError("one loyalty value per team member is required")
        if self.omega_prod <= 0:
            raise ConfigurationError(f"omega_prod must be > 0, got {self.omega_prod}")
        if not 0.0 < self.beta_team < 1.0:
            raise ConfigurationError(f"beta_team must lie in (0, 1), got {self.beta_team}")
        if self.unit_cost <= 0:
            raise ConfigurationError(f"unit_cost must be > 0, got {self.unit_cost}")
        if any(not 0.0 <= th <= 1.0 for th in self.loyalty):
            raise ConfigurationError("loyalty values must lie in [0, 1]")
        for name in ("phi_b", "phi_c"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {v}")
        if self.teammate_payoff not in ("sum", "mean"):
            raise ConfigurationError("teammate_payoff must be 'sum' or 'mean'")
