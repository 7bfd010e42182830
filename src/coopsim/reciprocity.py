"""Cooperation signals, the bounded reciprocity response, and the trust gate.

The conditional-cooperation chain is:

    signal   s_ij = a_j - baseline_j            (deviation from expectations)
    response phi(s) = tanh(kappa * s)           (bounded in (-1, 1))
    weighted R_ij = rho_ij * phi(s)             (sensitivity-scaled response)
    gated    lambda_r * T_ij * (1 + omega * D_ij) * rho_ij * phi(s)

The scalar functions are the reference formulas.  :func:`gate_weights` is
the one array implementation of the gate, ``lambda_r * (1 + omega * D) *
rho`` without ``T * phi``, shared by the engine, the solver and the case
study.  The baseline is the engine's: a k-window moving average of the
partner's own recent actions (self-referential norms), a slowly adapting
per-actor baseline, or a fixed reference level, selected per scenario.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .params import ReciprocityParams


def _sensitivity(d: np.ndarray, rho0: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Per-row sensitivity rho = rho0 * D ** eta on (B, n, n) coefficients.

    Zero-dependency pairs get 0, and rho0 when eta = 0 (0 ** 0 is 1).
    Powers are taken one eta value at a time with a Python float exponent,
    as ``D ** eta`` is for a single run: numpy special-cases some scalar
    exponents (0.5 takes a square root), whose bits differ from an
    elementwise power.
    """
    power = np.empty_like(d)
    for e in set(eta.tolist()):
        rows = eta == e
        power[rows] = d[rows] ** e
    return rho0[:, None, None] * power


def gate_weights(d: np.ndarray, recip: Mapping[str, np.ndarray]) -> np.ndarray:
    """lambda_r * (1 + omega * D) * rho per row: the gated term without T * phi.

    ``d`` is (B, n, n); ``recip`` holds (B,) columns keyed by the
    :class:`ReciprocityParams` field names.  The diagonal is not zeroed:
    with eta = 0 it carries rho0.
    """
    return (recip["lambda_r"][:, None, None]
            * (1.0 + recip["omega_amp"][:, None, None] * d)
            * _sensitivity(d, recip["rho0"], recip["eta"]))


def gate_matrix(d: np.ndarray, recip: ReciprocityParams) -> np.ndarray:
    """The (n, n) gate weights of one parameter block."""
    rows = {f: np.array([getattr(recip, f)]) for f in ("rho0", "eta", "lambda_r", "omega_amp")}
    return gate_weights(d[None], rows)[0]


def cooperation_signal(a_j_t: float, baseline: float) -> float:
    """Signed deviation from the baseline: positive is cooperation, negative defection."""
    return a_j_t - baseline


def bounded_response(s: float, kappa: float) -> float:
    """Bounded response tanh(kappa * s): odd, strictly monotone, range (-1, 1).

    Saturation is asymptotic, never clamped, so the strict bound |phi| < 1
    holds for every finite signal.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    return math.tanh(kappa * s)


def reciprocity_response(rho_ij: float, s: float, kappa: float) -> float:
    """Sensitivity-weighted bounded response rho_ij * tanh(kappa * s).

    This is the behavioral response function, not the reputation state
    variable; the two are tracked separately.
    """
    if rho_ij < 0:
        raise ValueError(f"rho_ij must be >= 0, got {rho_ij}")
    return rho_ij * bounded_response(s, kappa)


def gated_reciprocity_term(
    t_ij: float,
    d_ij: float,
    omega_amp: float,
    lambda_r: float,
    rho_ij: float,
    s: float,
    kappa: float,
) -> float:
    """Trust-gated, dependency-amplified reciprocity term.

        lambda_r * T_ij * (1 + omega * D_ij) * rho_ij * tanh(kappa * s)

    Zero trust closes the gate entirely regardless of the signal.
    """
    if not 0.0 <= t_ij <= 1.0:
        raise ValueError(f"T_ij must lie in [0, 1], got {t_ij}")
    return lambda_r * t_ij * (1.0 + omega_amp * d_ij) * reciprocity_response(rho_ij, s, kappa)
