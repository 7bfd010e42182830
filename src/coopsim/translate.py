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

Steps 1-4 and 6-7 are elicitation inputs supplied through a plain-text
``key = value`` file, read by :mod:`coopsim.files`, the one reader of that
format: each key at most once, every value by the declared type of the
parameter-block field it sets, and a key outside ``ELICITATION_KEYS`` is an
error.  The tool checks the stricter elicitation ranges of ``STEP_RANGES``
(naming the offending step), lets the parameter blocks' defaults fill what
is not elicited, computes step 5, and emits a complete scenario file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .files import parse_keyvalues, parse_number, read_block, read_field, single
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

#: The elicited values with a stricter range than the parameter blocks':
#: key -> (step, step name, lo, hi), checked in this order.
STEP_RANGES = {
    "memory_k": (4, "memory window", 1, math.inf),
    "rho0": (5, "reciprocity sensitivity", 0.0, 5.0),
    "eta": (5, "reciprocity sensitivity", 0.0, 3.0),
    "kappa": (6, "response sensitivity", 1e-9, 5.0),
    "lambda_r": (7, "trust integration", 0.0, 5.0),
    "omega_amp": (7, "trust integration", 0.0, 5.0),
    "t0": (7, "trust integration", 0.0, 1.0),
    "lambda_t": (7, "trust integration", 0.0, 5.0),
}

#: The reciprocity gap's target and observed base tendency: both finite,
#: given together or not at all.
GAP_KEYS = ("rho0_target", "rho0_observed")
#: Every key an elicitation file may set.
ELICITATION_KEYS = ("granularity", "baseline_mode", *STEP_RANGES, "horizon", "seed", *GAP_KEYS)

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

    Unelicited values take the parameter blocks' defaults (``rho0``,
    ``eta`` and ``kappa`` 1.0) but for three: the memory window follows the
    granularity heuristic (quarterly 4, monthly 6, weekly 12), ``horizon``
    is 40 and the initial actions and baselines are 0.5.  Out-of-range
    elicited values raise a validation error naming the pipeline step they
    belong to.  The emitted sensitivities are the engine's directional
    rho0 * D_ij ** eta.
    """
    labels = tuple(labels)
    n = len(labels)
    d = compute_interdependence(entries, n)  # step 5
    kv = parse_keyvalues(elicitation_text)
    for key in kv:
        if key not in ELICITATION_KEYS:
            raise ConfigurationError(f"unknown elicitation key {key!r}")

    granularity = single(kv, "granularity", "quarterly").lower()
    if granularity not in GRANULARITY_WINDOWS:
        raise _step_error(
            2, "temporal granularity",
            f"granularity must be one of {sorted(GRANULARITY_WINDOWS)}, got {granularity!r}",
        )
    for key, (step, what, lo, hi) in STEP_RANGES.items():
        if (raw := single(kv, key)) is None:
            continue
        try:
            value = read_field(key, raw)
        except ConfigurationError as exc:
            raise _step_error(step, what, str(exc)) from None
        if not lo <= value <= hi:
            raise _step_error(step, what, f"{key} must be >= {lo}, got {value}" if hi == math.inf
                              else f"{key} = {value} outside the valid range [{lo}, {hi}]")

    sim = read_block(SimConfig, kv, horizon=40)
    scenario = read_block(
        ScenarioConfig, kv,
        labels=labels,
        d=d,
        recip=read_block(ReciprocityParams, kv, memory_k=GRANULARITY_WINDOWS[granularity]),
        trust=read_block(TrustParams, kv),
        econ=EconomyParams(endowments=(100.0,) * n, alpha=(1.0 / n,) * n),
        a_init=(0.5,) * n,
    )
    recip = scenario.recip
    rho = sensitivity(d.values[None], np.array([recip.rho0]), np.array([recip.eta]))[0]
    np.fill_diagonal(rho, 0.0)

    given = {key: parse_number(raw, key) for key in GAP_KEYS
             if (raw := single(kv, key)) is not None}
    if len(given) == 1:
        raise ConfigurationError(f"the reciprocity gap needs both {' and '.join(GAP_KEYS)}, "
                                 f"got only {next(iter(given))}")
    for key, value in given.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{key} must be finite, got {value}")
    gap = given["rho0_target"] - given["rho0_observed"] if given else None

    return TranslationResult(
        scenario=scenario, sim=sim, rho=tuple(map(tuple, rho.tolist())),
        reciprocity_gap=gap,
        gap_advice=GAP_INTERVENTIONS if gap is not None and gap > GAP_THRESHOLD else (),
    )
