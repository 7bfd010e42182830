"""Dependency-model-to-parameters translation pipeline and calibration advice.

The tool mechanizes the computable steps of the eight-step elicitation
workflow that turns a strategic dependency model into a runnable scenario:

1. identify sequential dependencies          (human, rows of the table)
2. establish temporal granularity            (human, ``granularity`` key)
3. define cooperation baselines              (human, ``baseline_mode`` key)
4. determine the memory window               (human or granularity heuristic)
5. derive interdependence coefficients       (computed from the table)
6. configure response sensitivity            (human, ``kappa`` key)
7. integrate trust parameters                (human, trust keys)
8. simulate and calibrate                    (computed: scenario emission
                                              plus calibration diagnostics)

Steps 1-4 and 6-7 are elicitation inputs supplied through the plain-text
configuration file; the tool validates ranges (naming the offending step),
fills documented defaults, computes step 5, and emits a complete scenario
file.  ``calibration_advice`` maps observed behavioral symptoms to the
standard parameter adjustments, reporting contradictory advice as a
conflict instead of merging it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .files import parse_keyvalues, parse_number
from .params import (
    DependencyEntry,
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TrustParams,
    compute_interdependence,
)
from .reciprocity import sensitivity
from .scenario import ScenarioConfig, SimConfig

#: Memory-window heuristic per interaction granularity.
GRANULARITY_WINDOWS = {"quarterly": 4, "monthly": 6, "weekly": 12}

DEFAULTS = {"rho0": 1.0, "eta": 1.0, "kappa": 1.0}


class Symptom(Enum):
    COOP_TOO_HIGH = "coop_too_high"
    COOP_TOO_LOW = "coop_too_low"
    FORGIVE_TOO_SLOW = "forgive_too_slow"
    FORGIVE_TOO_FAST = "forgive_too_fast"
    RESPONSES_TOO_SHARP = "responses_too_sharp"
    RESPONSES_TOO_GRADUAL = "responses_too_gradual"
    DIFFERENTIATION_WEAK = "differentiation_weak"
    DIFFERENTIATION_EXTREME = "differentiation_extreme"


@dataclass(frozen=True)
class CalibrationObservation:
    symptom: Symptom
    magnitude: Optional[float] = None


@dataclass(frozen=True)
class Adjustment:
    parameter: str
    direction: str  # "increase" | "decrease"
    because: str


#: Symptom -> ordered adjustments (primary first).
ADVICE_TABLE: dict[Symptom, tuple[Adjustment, ...]] = {
    Symptom.COOP_TOO_HIGH: (
        Adjustment("rho0", "decrease", "reciprocity too strong"),
        Adjustment("lambda_r", "decrease", "reciprocity too strong"),
    ),
    Symptom.COOP_TOO_LOW: (
        Adjustment("rho0", "increase", "reciprocity too weak"),
        Adjustment("lambda_r", "increase", "reciprocity too weak"),
    ),
    Symptom.FORGIVE_TOO_SLOW: (
        Adjustment("memory_k", "decrease", "memory too long"),
    ),
    Symptom.FORGIVE_TOO_FAST: (
        Adjustment("memory_k", "increase", "memory too short"),
    ),
    Symptom.RESPONSES_TOO_SHARP: (
        Adjustment("kappa", "decrease", "sensitivity too high"),
    ),
    Symptom.RESPONSES_TOO_GRADUAL: (
        Adjustment("kappa", "increase", "sensitivity too low"),
    ),
    Symptom.DIFFERENTIATION_WEAK: (
        Adjustment("eta", "increase", "elasticity too low"),
    ),
    Symptom.DIFFERENTIATION_EXTREME: (
        Adjustment("eta", "decrease", "elasticity too high"),
    ),
}

#: Reciprocity-gap interventions keyed by gap pattern (advisory text).
GAP_INTERVENTIONS = {
    "low_sensitivity": (
        "increase interaction visibility; add behavioral tracking; "
        "establish explicit cooperation metrics"
    ),
    "short_memory": (
        "extend review cycles; aggregate multi-period behavior in a "
        "reputation record; document behavioral history"
    ),
    "weak_trust_gating": (
        "invest in trust building; establish credible commitment mechanisms"
    ),
    "asymmetric_reciprocity": (
        "address structural power imbalances; equalize information access; "
        "introduce mutual dependency mechanisms"
    ),
}

#: Gaps above this are flagged for intervention.
GAP_THRESHOLD = 0.4


def _step_error(step: int, what: str, detail: str) -> ConfigurationError:
    return ConfigurationError(f"step {step} ({what}): {detail}")


@dataclass(frozen=True)
class ConflictingAdvice:
    parameter: str
    directions: tuple[str, ...]
    symptoms: tuple[Symptom, ...]


def calibration_advice(
    observations: Sequence[CalibrationObservation],
) -> tuple[list[Adjustment], list[ConflictingAdvice]]:
    """Ordered parameter adjustments for the observed symptoms.

    Contradictory directions for the same parameter are reported as
    conflicts, never merged or averaged away.
    """
    adjustments: list[Adjustment] = []
    by_param: dict[str, list[tuple[str, Symptom]]] = {}
    for obs in observations:
        for adj in ADVICE_TABLE[obs.symptom]:
            adjustments.append(adj)
            by_param.setdefault(adj.parameter, []).append((adj.direction, obs.symptom))
    conflicts = []
    for param, pairs in by_param.items():
        directions = {d for d, _ in pairs}
        if len(directions) > 1:
            conflicts.append(
                ConflictingAdvice(
                    parameter=param,
                    directions=tuple(sorted(directions)),
                    symptoms=tuple(s for _, s in pairs),
                )
            )
    return adjustments, conflicts


@dataclass(frozen=True)
class TranslationResult:
    scenario: ScenarioConfig
    sim: SimConfig
    rho: tuple[tuple[float, ...], ...]  # emitted reciprocity sensitivities
    reciprocity_gap: Optional[float]
    gap_advice: tuple[str, ...]


def translate(
    labels: Sequence[str],
    entries: Sequence[DependencyEntry],
    elicitation_text: str = "",
    symmetric_rho: bool = False,
) -> TranslationResult:
    """Turn a dependency table plus elicited values into a full scenario.

    Unelicited reciprocity parameters fall back to the documented defaults
    (``rho0 = 1.0``, ``eta = 1.0``, ``kappa = 1.0``) and the memory window
    to the granularity heuristic (quarterly 4, monthly 6, weekly 12).
    Out-of-range elicited values raise a validation error naming the
    pipeline step they belong to.  ``symmetric_rho`` switches the emitted
    sensitivities to the mutual-dependency form
    rho0 * sqrt(D_ij * D_ji) ** eta; the directional form is the default.
    """
    labels = tuple(labels)
    n = len(labels)
    d = compute_interdependence(entries, n)  # step 5
    kv = parse_keyvalues(elicitation_text)

    def elicited(key: str, step: int, what: str, lo: float, hi: float,
                 default: float) -> float:
        vals = kv.get(key)
        if not vals:
            return default
        try:
            value = float(vals[-1])
        except ValueError:
            raise _step_error(step, what, f"{key} is not a number: {vals[-1]!r}")
        if not lo <= value <= hi:
            raise _step_error(
                step, what, f"{key} = {value} outside the valid range [{lo}, {hi}]"
            )
        return value

    granularity = (kv.get("granularity") or ["quarterly"])[-1].strip().lower()
    if granularity not in GRANULARITY_WINDOWS:
        raise _step_error(
            2, "temporal granularity",
            f"granularity must be one of {sorted(GRANULARITY_WINDOWS)}, got {granularity!r}",
        )
    if "memory_k" in kv:
        try:
            memory_k = int(kv["memory_k"][-1])
        except ValueError:
            raise _step_error(4, "memory window", "memory_k must be an integer")
        if memory_k < 1:
            raise _step_error(4, "memory window", f"memory_k must be >= 1, got {memory_k}")
    else:
        memory_k = GRANULARITY_WINDOWS[granularity]

    rho0 = elicited("rho0", 5, "reciprocity sensitivity", 0.0, 5.0, DEFAULTS["rho0"])
    eta = elicited("eta", 5, "reciprocity sensitivity", 0.0, 3.0, DEFAULTS["eta"])
    kappa = elicited("kappa", 6, "response sensitivity", 1e-9, 5.0, DEFAULTS["kappa"])
    lambda_r = elicited("lambda_r", 7, "trust integration", 0.0, 5.0, 1.0)
    omega_amp = elicited("omega_amp", 7, "trust integration", 0.0, 5.0, 1.0)
    t0 = elicited("t0", 7, "trust integration", 0.0, 1.0, TrustParams().t0)
    lambda_t = elicited("lambda_t", 7, "trust integration", 0.0, 5.0, 1.0)

    baseline_mode = (kv.get("baseline_mode") or ["moving_average"])[-1].strip()
    horizon = parse_number((kv.get("horizon") or ["40"])[-1], "horizon", int)
    seed = parse_number((kv.get("seed") or ["42"])[-1], "seed", int)

    recip = ReciprocityParams(
        rho0=rho0, eta=eta, kappa=kappa, memory_k=memory_k,
        lambda_r=lambda_r, omega_amp=omega_amp,
    )
    trust = TrustParams(t0=t0, lambda_t=lambda_t)
    scenario = ScenarioConfig(
        labels=labels,
        d=d,
        recip=recip,
        trust=trust,
        econ=EconomyParams(endowments=(100.0,) * n, alpha=(1.0 / n,) * n),
        a_max=(1.0,) * n,
        a_init=(0.5,) * n,
        baseline_init=(0.5,) * n,
        baseline_mode=baseline_mode,
    )
    sim = SimConfig(horizon=horizon, seed=seed)

    coupled = np.sqrt(d.values * d.values.T) if symmetric_rho else d.values
    rho = sensitivity(coupled[None], np.array([rho0]), np.array([eta]))[0]
    np.fill_diagonal(rho, 0.0)

    gap = None
    gap_advice: tuple[str, ...] = ()
    if "rho0_target" in kv and "rho0_observed" in kv:
        gap = (parse_number(kv["rho0_target"][-1], "rho0_target")
               - parse_number(kv["rho0_observed"][-1], "rho0_observed"))
        if gap > GAP_THRESHOLD:
            gap_advice = (
                GAP_INTERVENTIONS["low_sensitivity"],
                GAP_INTERVENTIONS["short_memory"],
                GAP_INTERVENTIONS["weak_trust_gating"],
                GAP_INTERVENTIONS["asymmetric_reciprocity"],
            )

    return TranslationResult(
        scenario=scenario, sim=sim, rho=tuple(map(tuple, rho.tolist())),
        reciprocity_gap=gap, gap_advice=gap_advice,
    )
