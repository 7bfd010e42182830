"""Two-layer trust state: immediate trust with a reputation-mediated ceiling.

Immediate trust T in [0, 1] reacts to each period's cooperation signal with
asymmetric rates (erosion is faster than building, 3:1 by default) and
interdependence-amplified erosion.  Reputation damage R in [0, 1]
accumulates on violations proportionally to the remaining capacity (1 - R)
and decays slowly during non-violation periods.  The achievable trust is
capped by

    ceiling = min(t_max, 1 - theta_r * R)

Update order within a period: the signal first updates reputation, the
ceiling is recomputed, then trust is updated and clipped against the fresh
ceiling -- accumulated damage binds immediately, which is what makes
recovery path dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .params import TrustParams


@dataclass(frozen=True)
class DyadState:
    """Per ordered pair (observer i, observed j): trust and reputation."""

    trust: float
    reputation: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trust <= 1.0:
            raise ValueError(f"trust must lie in [0, 1], got {self.trust}")
        if not 0.0 <= self.reputation <= 1.0:
            raise ValueError(f"reputation must lie in [0, 1], got {self.reputation}")


def trust_ceiling(r_ij: float, t_max: float, theta_r: float) -> float:
    """Maximum achievable trust given accumulated reputation damage.

    With t_max = 1 and theta_r = 1 this degenerates to the plain 1 - R cap.
    """
    if not 0.0 <= r_ij <= 1.0:
        raise ValueError(f"reputation must lie in [0, 1], got {r_ij}")
    return min(t_max, 1.0 - theta_r * r_ij)


def update_trust(state: DyadState, s: float, d_ij: float, p: TrustParams) -> DyadState:
    """Advance one dyad's trust and reputation by one observed signal.

    Reputation moves first:

        s >= 0:  dR = -delta_r * R          (slow forgetting)
        s <  0:  dR = mu_r * |s| * (1 - R)  (damage, capacity-limited)

    then trust, clipped to the post-update ceiling:

        s >  0:  dT = lambda_plus * s * max(0, ceiling - T)
        s <= 0:  dT = lambda_minus * s * T * (1 + xi * D_ij)

    A zero signal erodes nothing (the erosion branch is proportional to s)
    but still lets reputation decay.  Signals inside the configured
    deadband are treated as zero.
    """
    if abs(s) <= p.deadband:
        s = 0.0
    if s >= 0.0:
        rep = state.reputation + (-p.delta_r * state.reputation)
    else:
        rep = state.reputation + p.mu_r * (-s) * (1.0 - state.reputation)
    rep = min(1.0, max(0.0, rep))

    ceiling = trust_ceiling(rep, p.t_max, p.theta_r)
    if s > 0.0:
        dt = p.lambda_plus * s * max(0.0, ceiling - state.trust)
    else:
        dt = p.lambda_minus * s * state.trust * (1.0 + p.xi * d_ij)
    trust = min(ceiling, max(0.0, state.trust + dt))
    return replace(state, trust=trust, reputation=rep)


def negativity_ratio(p: TrustParams) -> float:
    """Erosion-to-building rate ratio lambda_minus / lambda_plus."""
    if p.lambda_plus == 0:
        raise ZeroDivisionError("negativity ratio undefined for lambda_plus = 0")
    return p.lambda_minus / p.lambda_plus
