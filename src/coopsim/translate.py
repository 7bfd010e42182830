"""Dependency-model-to-parameters translation pipeline.

The tool mechanizes the computable steps of the eight-step elicitation
workflow that turns a strategic dependency model into a runnable scenario:

1. identify sequential dependencies          (human, rows of the table)
2. establish temporal granularity            (human, ``granularity`` key)
3. define cooperation baselines              (human, ``baseline_mode`` key)
4. determine the memory window               (human or granularity heuristic)
5. derive interdependence coefficients       (computed from the table)
6. configure response sensitivity            (human, ``kappa`` key)
7. integrate trust parameters                (human, trust keys)
8. simulate and calibrate                    (computed: scenario emission)

Steps 1-4 and 6-7 are elicitation inputs supplied through the plain-text
configuration file; the tool validates ranges (naming the offending step),
fills documented defaults, computes step 5, and emits a complete scenario
file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .files import parse_keyvalues, parse_number
from .params import (
    DependencyEntry,
    EconomyParams,
    ReciprocityParams,
    TrustParams,
    compute_interdependence,
)
from .reciprocity import sensitivity
from .scenario import ScenarioConfig, SimConfig

#: Memory-window heuristic per interaction granularity.
GRANULARITY_WINDOWS = {"quarterly": 4, "monthly": 6, "weekly": 12}

DEFAULTS = {"rho0": 1.0, "eta": 1.0, "kappa": 1.0}

#: Reciprocity-gap interventions, all printed for a large gap: low
#: sensitivity, short memory, weak trust gating, asymmetric reciprocity.
GAP_INTERVENTIONS = (
    "increase interaction visibility; add behavioral tracking; "
    "establish explicit cooperation metrics",
    "extend review cycles; aggregate multi-period behavior in a "
    "reputation record; document behavioral history",
    "invest in trust building; establish credible commitment mechanisms",
    "address structural power imbalances; equalize information access; "
    "introduce mutual dependency mechanisms",
)

#: Gaps above this are flagged for intervention.
GAP_THRESHOLD = 0.4


def _step_error(step: int, what: str, detail: str) -> ConfigurationError:
    return ConfigurationError(f"step {step} ({what}): {detail}")


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
) -> TranslationResult:
    """Turn a dependency table plus elicited values into a full scenario.

    Unelicited reciprocity parameters fall back to the documented defaults
    (``rho0 = 1.0``, ``eta = 1.0``, ``kappa = 1.0``) and the memory window
    to the granularity heuristic (quarterly 4, monthly 6, weekly 12).
    Out-of-range elicited values raise a validation error naming the
    pipeline step they belong to.  The emitted sensitivities are the
    engine's directional rho0 * D_ij ** eta.
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

    rho = sensitivity(d.values[None], np.array([rho0]), np.array([eta]))[0]
    np.fill_diagonal(rho, 0.0)

    gap = None
    gap_advice: tuple[str, ...] = ()
    if "rho0_target" in kv and "rho0_observed" in kv:
        gap = (parse_number(kv["rho0_target"][-1], "rho0_target")
               - parse_number(kv["rho0_observed"][-1], "rho0_observed"))
        if gap > GAP_THRESHOLD:
            gap_advice = GAP_INTERVENTIONS

    return TranslationResult(
        scenario=scenario, sim=sim, rho=tuple(map(tuple, rho.tolist())),
        reciprocity_gap=gap, gap_advice=gap_advice,
    )
