"""The trust gate of the reciprocity term, as arrays.

The conditional-cooperation chain is:

    signal   s_ij = a_j - baseline_j            (deviation from expectations)
    response phi(s) = tanh(kappa * s)           (bounded in (-1, 1))
    weighted R_ij = rho_ij * phi(s)             (sensitivity-scaled response)
    gated    lambda_r * T_ij * (1 + omega * D_ij) * rho_ij * phi(s)

with the structural sensitivity rho_ij = rho0 * D_ij ** eta.  This module
holds the one implementation of rho (:func:`sensitivity`) and of the gate
``lambda_r * (1 + omega * D) * rho`` without ``T * phi``
(:func:`gate_weights`), shared by the engine, the solver, the case study
and the translation pipeline.  The engine forms the
signals and multiplies in ``T * tanh(kappa * s)``
(``coopsim.simulation.run_batch``); its baseline is a k-window moving
average of the partner's own recent actions (self-referential norms), a
slowly adapting per-actor baseline, or a fixed reference level, selected
per scenario.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import ConfigurationError
from .params import ReciprocityParams


#: The scalar exponents of ``array ** e`` that numpy computes by another
#: route than its elementwise power.
_FAST_EXPONENTS = frozenset((0.5, 2.0, -1.0))


def sensitivity(d: np.ndarray, rho0: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Per-row sensitivity rho = rho0 * D ** eta on (B, n, n) coefficients.

    Zero-dependency pairs get 0, and rho0 when eta = 0 (0 ** 0 is 1).
    The powers have the bits of ``D ** eta`` with a Python float exponent,
    as for a single run: one elementwise power gives them, but for the
    scalar exponents numpy special-cases (0.5 takes a square root, 2 a
    square, -1 a reciprocal), whose rows are taken again with that
    exponent.
    """
    power = np.power(d, eta[:, None, None])
    for e in _FAST_EXPONENTS.intersection(eta.tolist()):
        rows = eta == e
        power[rows] = d[rows] ** e
    return rho0[:, None, None] * power


def gate_weights(d: np.ndarray, recip: Mapping[str, np.ndarray]) -> np.ndarray:
    """lambda_r * (1 + omega * D) * rho per row: the gated term without T * phi.

    ``d`` is (B, n, n); ``recip`` holds (B,) columns keyed by the
    :class:`ReciprocityParams` field names.  The diagonal is not zeroed:
    with eta = 0 it carries rho0.  A gate that overflows (huge rho0 or
    lambda_r) raises :class:`ConfigurationError`: inf * tanh(0) would
    turn every action after it into NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gate = (recip["lambda_r"][:, None, None]
                * (1.0 + recip["omega_amp"][:, None, None] * d)
                * sensitivity(d, recip["rho0"], recip["eta"]))
    bad = ~np.isfinite(gate)
    if bad.any():
        b = int(np.argwhere(bad)[0, 0])
        levels = ", ".join(f"{f} = {float(recip[f][b])!r}"
                           for f in ("lambda_r", "omega_amp", "rho0", "eta"))
        raise ConfigurationError("the reciprocity gate lambda_r * (1 + omega_amp * D) * rho0 "
                                 f"* D ** eta is not finite at {levels}")
    return gate


def gate_matrix(d: np.ndarray, recip: ReciprocityParams) -> np.ndarray:
    """The (n, n) gate weights of one parameter block."""
    rows = {f: np.array([getattr(recip, f)]) for f in ("rho0", "eta", "lambda_r", "omega_amp")}
    return gate_weights(d[None], rows)[0]
