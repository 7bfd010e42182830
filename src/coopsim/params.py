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

One range policy serves every block here and in the other modules
(``Shock``, ``ScenarioConfig``, ``SimConfig``, ``SolverConfig``,
``SweepCell``): ``RANGES`` maps each bounded numeric field name to its
legal interval, and ``validate``, called from each block's
``__post_init__``, checks every numeric field against its declared type
and that interval.  A ``__post_init__`` keeps only the checks that relate
fields (the alpha sum, vector lengths, string choices).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DependencyTableError


_UNBOUNDED = (-math.inf, math.inf, "()")

#: The legal interval ``(lo, hi, ends)`` of every bounded numeric field, by
#: field name; ``ends`` holds the interval's brackets, ``[`` or ``]`` for a
#: closed end.  Names are unique across the blocks, and a name that recurs
#: (``SweepCell``'s ``rho0`` .. ``t0``) is the same parameter.
RANGES = {
    "weight": (0.0, math.inf, "[)"),  # DependencyEntry
    "criticality": (0.0, 1.0, "[]"),
    "rho0": (0.0, math.inf, "[)"),  # ReciprocityParams and SweepCell
    "eta": (0.0, math.inf, "[)"),
    "kappa": (0.0, math.inf, "()"),
    "memory_k": (1, math.inf, "[)"),
    "lambda_r": (0.0, math.inf, "[)"),
    "omega_amp": (0.0, math.inf, "[)"),
    "t0": (0.0, 1.0, "[]"),  # TrustParams and SweepCell
    "lambda_plus": (0.0, 1.0, "()"),
    "lambda_minus": (0.0, 1.0, "()"),
    "xi": (0.0, math.inf, "[)"),
    "mu_r": (0.0, 1.0, "()"),
    "delta_r": (0.0, 1.0, "()"),
    "t_max": (0.0, 1.0, "(]"),
    "theta_r": (0.0, 1.0, "[]"),
    "lambda_t": (0.0, math.inf, "[)"),
    "deadband": (0.0, math.inf, "[)"),
    "endowments": (0.0, math.inf, "[)"),  # EconomyParams
    "alpha": (0.0, math.inf, "[)"),
    "theta_v": (0.0, math.inf, "[)"),
    "power_beta": (0.0, 1.0, "()"),
    "gamma": (0.0, math.inf, "[)"),
    "loyalty": (0.0, 1.0, "[]"),  # TeamParams
    "omega_prod": (0.0, math.inf, "()"),
    "beta_team": (0.0, 1.0, "()"),
    "unit_cost": (0.0, math.inf, "()"),
    "phi_b": (0.0, 1.0, "[]"),
    "phi_c": (0.0, 1.0, "[]"),
    "period": (1, math.inf, "[)"),  # Shock
    "a_max": (0.0, math.inf, "()"),  # ScenarioConfig
    "horizon": (1, math.inf, "[)"),  # SimConfig
    "adjust_rate": (0.0, 1.0, "[]"),
    "decay": (0.0, 1.0, "[]"),
    "baseline_rate": (0.0, 1.0, "[]"),
    "noise_sigma": (0.0, math.inf, "[)"),
    "max_iters": (1, math.inf, "[)"),  # SolverConfig
    "grid_points": (2, math.inf, "[)"),
    "d": (0.0, 1.0, "[]"),  # SweepCell
}

#: The field types that ``validate`` checks.
_NUMERIC = ("float", "int", "tuple[float, ...]", "tuple[int, ...]")


@functools.cache
def _field_checks(cls) -> tuple:
    checks = []
    for f in fields(cls):
        if f.type in _NUMERIC:
            lo, hi, ends = RANGES.get(f.name, _UNBOUNDED)
            bound = (f"lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}" if hi < math.inf
                     else f"be >= {lo:g}" if ends[0] == "[" else f"be > {lo:g}")
            checks.append((f.name, f.type, lo, ends[0] == "(", hi, ends[1] == ")", bound))
    return tuple(checks)


def _as_int(name: str, x, value) -> int:
    if isinstance(x, numbers.Integral) or isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, float) and not math.isfinite(x):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def validate(block) -> None:
    """Check every numeric field of the dataclass ``block`` by its declared
    type, in field order: ``int``, ``float`` and their ``tuple[..., ...]``
    forms must be finite, ints integral (stored as int, so 3.0 is 3), tuple
    entries of floats are stored as floats, and a field named in ``RANGES``
    must lie in its interval.  A ConfigurationError names the field."""
    for name, kind, lo, lo_open, hi, hi_open, bound in _field_checks(type(block)):
        value = getattr(block, name)
        if kind == "float":
            entries = (value,)
        else:
            if kind == "int":
                if type(value) is not int:
                    value = _as_int(name, value, value)
                entries = (value,)
            elif kind == "tuple[float, ...]":
                value = entries = tuple(float(x) for x in value)
            else:
                value = entries = tuple(x if type(x) is int else _as_int(name, x, value)
                                        for x in value)
            object.__setattr__(block, name, value)
        for x in entries:
            if not ((lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)):
                if not (isinstance(x, int) or math.isfinite(x)):
                    raise ConfigurationError(f"{name} must be finite, got {value!r}")
                raise ConfigurationError(f"{name} must {bound}, got {value}")


def check_seed(seed) -> int:
    """``seed`` as an int; a ConfigurationError unless it is an integer in
    [0, 2**64), which the generator would otherwise alias modulo 2**64."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 1 << 64:
        raise ConfigurationError(f"seed must be in [0, 2**64), got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class DependencyEntry:
    """One row of a dependency table.

    ``weight`` is the importance weight of the dependum to the depender,
    ``exists`` flags whether the dependency is present (0 or 1, stored as a
    bool), and ``criticality`` in [0, 1] captures how replaceable the
    dependee is.
    """

    depender: int
    dependee: int
    dependum: str
    weight: float
    exists: bool
    criticality: float

    def __post_init__(self) -> None:
        validate(self)
        if self.exists not in (0, 1):
            raise ConfigurationError(f"exists must be 0 or 1, got {self.exists!r}")
        object.__setattr__(self, "exists", bool(self.exists))
        if self.depender == self.dependee:
            raise ConfigurationError(
                f"self-dependency not allowed (actor {self.depender}, {self.dependum!r})"
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
    has_entries = np.zeros((n, n), dtype=bool)
    for e in entries:
        for actor in (e.depender, e.dependee):
            if not 0 <= actor < n:
                raise ConfigurationError(
                    f"dependency entry references actor {actor} "
                    f"but only actors 0 to {n - 1} are declared"
                )
        weight_sums[e.depender, e.dependee] += e.weight
        weighted[e.depender, e.dependee] += e.weight * float(e.exists) * e.criticality
        has_entries[e.depender, e.dependee] = True

    empty = np.argwhere(has_entries & (weight_sums <= 0.0))
    if len(empty):
        i, j = empty[0]
        raise DependencyTableError(
            f"dependency pair ({i}, {j}) has entries but zero total weight"
        )
    d = np.divide(weighted, weight_sums, out=np.zeros((n, n)), where=has_entries)
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
        validate(self)


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
        validate(self)

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
        validate(self)
        if len(self.endowments) != len(self.alpha):
            raise ConfigurationError("endowments and alpha must have the same length")
        if abs(sum(self.alpha) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"bargaining shares must sum to 1 (got {sum(self.alpha)!r})"
            )
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
        validate(self)
        if len(self.members) == 0:
            raise ConfigurationError("team must have at least one member")
        if len(self.loyalty) != len(self.members):
            raise ConfigurationError("one loyalty value per team member is required")
        if self.teammate_payoff not in ("sum", "mean"):
            raise ConfigurationError("teammate_payoff must be 'sum' or 'mean'")
