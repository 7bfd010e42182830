"""Sequential repeated-interaction engine.

Each period: observe partners' actions against per-actor baselines, form
cooperation signals, record the trust-gated reciprocity terms, update the
two-layer trust state, then advance actions by the selected rule:

- ``adjustment`` mode moves each action by the sum of its gated
  reciprocity terms at the adjustment rate, minus mean reversion toward
  the actor's prevailing norm, plus optional Gaussian noise and scheduled
  shocks, clipped to bounds:

      a_i' = clip(a_i + adjust_rate * sum_j term_ij
                  - decay * (a_i - norm_i) + noise + shock)

- ``best_response`` mode replaces the action update with a fresh
  equilibrium solve given each actor's own windowed average and the
  current trust.

Reference levels.  The *cooperation signal* recorded per dyad and driving
the trust/reputation updates is always the canonical bounded-memory
observation: deviation from the k-window moving average of the observed
actor's own history (the configured initial baseline until history
exists).  The *action rule's* driving signal follows the scenario's
``baseline_mode``: the same windowed signal, the deviation from the slowly
adapting per-actor norm, or the deviation from a fixed reference.  The
norm -- also the anchor of the mean-reversion term -- moves toward the
latest actions at ``baseline_rate`` each period (rate 0 pins it).  Noise
comes from the counter-based generator, one stream per actor, counter =
period, so runs are bit-reproducible and order-independent; the
adjustment rule draws each noisy row's ``(H, n)`` block in one array call
before the first period (best-response mode ignores noise and draws none).

Batching.  One kernel, :func:`run_batch`, advances B independent runs at
once as ``(B, n)`` actions and ``(B, n, n)`` trust and reputation, with
every parameter given per row, and shows each period's state to an
observer; :func:`record_batch` keeps all of it, and :func:`run` is its
B = 1 call.  Rows never interact, and every row computes exactly the
arithmetic of a run on its own, so a row's bits do not depend on the
batch it is in: the window means add left to right as Python's ``sum``
does, and powers take one Python float exponent at a time as
``array ** eta`` does for one run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigurationError
from .params import ReciprocityParams, TrustParams
from .reciprocity import gate_weights
from .rng import normal
from .scenario import BASELINE_MODES, ScenarioConfig, Shock, SimConfig

RECIP_FIELDS = tuple(f.name for f in fields(ReciprocityParams))
TRUST_FIELDS = tuple(f.name for f in fields(TrustParams))
SIM_FIELDS = ("adjust_rate", "decay", "baseline_rate", "noise_sigma", "seed")


@dataclass
class Trajectory:
    """Recorded per-period state of one run.

    Arrays are indexed by period-1 on the first axis.  ``trust`` and
    ``reputation`` hold the start-of-period states (the values in force
    when that period's signals were observed); ``signal[t, i, j]`` is i's
    view of j, and ``recip_term`` the corresponding gated reciprocity term
    that drives the next action update.
    """

    labels: tuple[str, ...]
    actions: np.ndarray
    baselines: np.ndarray  # windowed signal baselines in force each period
    norms: np.ndarray  # adaptive per-actor norms (mean-reversion anchors)
    trust: np.ndarray
    reputation: np.ndarray
    signal: np.ndarray  # canonical windowed cooperation signals
    recip_term: np.ndarray  # gated terms on the action rule's driving signal
    converged: np.ndarray  # best-response mode solve status per period

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    @property
    def n(self) -> int:
        return self.actions.shape[1]


#: Per-period states of a run, with their axes per row (actors or dyads).
RECORDED = {"actions": 1, "baselines": 1, "norms": 1, "trust": 2, "reputation": 2,
            "signal": 2, "recip_term": 2}


@dataclass(frozen=True)
class RunBatch:
    """Inputs of B independent runs over n actors; row b is one run.

    Scalar parameters are ``(B,)`` columns keyed by their field names in
    :class:`ReciprocityParams`, :class:`TrustParams` and :class:`SimConfig`
    (``SIM_FIELDS``).  The batch runs to its longest horizon; a row's
    states past its own horizon are not part of its run.
    """

    d: np.ndarray  # (B, n, n) interdependence
    recip: Mapping[str, np.ndarray]
    trust: Mapping[str, np.ndarray]
    sim: Mapping[str, np.ndarray]
    a_max: np.ndarray  # (B, n)
    a_init: np.ndarray  # (B, n)
    baseline_init: np.ndarray  # (B, n)
    baseline_mode: np.ndarray  # (B,) index into BASELINE_MODES
    horizon: np.ndarray  # (B,)
    script: Optional[np.ndarray] = None  # (H, B, n) pinned actions, NaN where free
    shocks: tuple[tuple[int, Shock], ...] = ()  # (row, shock), applied in order
    pre_history: Optional[np.ndarray] = None  # (P, B, n) rows before period 1

    @classmethod
    def single(cls, scenario: ScenarioConfig, sim: SimConfig,
               script: Optional[Mapping[int, Mapping[int, float]]] = None) -> "RunBatch":
        """The one-row batch of a scenario and run configuration."""
        n = scenario.n
        pinned = None
        if script:
            pinned = np.full((sim.horizon, 1, n), np.nan)
            for i, per in script.items():
                for period, value in per.items():
                    if 1 <= period <= sim.horizon:
                        pinned[period - 1, 0, i] = value
        pre = np.array(scenario.pre_history, dtype=float).reshape(-1, 1, n)
        return cls(
            d=scenario.d.values[None],
            recip={f: np.array([getattr(scenario.recip, f)]) for f in RECIP_FIELDS},
            trust={f: np.array([getattr(scenario.trust, f)]) for f in TRUST_FIELDS},
            sim={f: np.array([getattr(sim, f)]) for f in SIM_FIELDS},
            a_max=np.array([scenario.a_max]),
            a_init=np.array([scenario.a_init]),
            baseline_init=np.array([scenario.baseline_init]),
            baseline_mode=np.array([BASELINE_MODES.index(scenario.baseline_mode)]),
            horizon=np.array([sim.horizon]),
            script=pinned,
            shocks=tuple((0, s) for s in sim.shocks),
            pre_history=pre,
        )


# Best-response rule: (own averages for the next period, trust, actions) -> solve result.
BestResponse = Callable[[np.ndarray, np.ndarray, np.ndarray], object]
# Per-period observer: (period index, state arrays keyed like Trajectory fields).
Observer = Callable[[int, Mapping[str, np.ndarray]], None]


def _per_row(values, shape: tuple[int, ...]) -> np.ndarray:
    """A (B,) parameter column spread over each row's actors or dyads, so
    the kernel's arithmetic runs on whole contiguous arrays."""
    col = np.asarray(values, dtype=float)
    out = np.empty(col.shape + shape)
    out[...] = col.reshape(col.shape + (1,) * len(shape))
    return out


def _signals(actions: np.ndarray, baselines: np.ndarray) -> np.ndarray:
    """s[b, i, j] = a_j - baseline_j off the diagonal, 0 on it."""
    n = actions.shape[1]
    s = np.repeat((actions - baselines)[:, None, :], n, axis=1)
    s.reshape(len(s), n * n)[:, :: n + 1] = 0.0
    return s


def _window_means(hist: np.ndarray, avail: int, k: np.ndarray, reach: list,
                  initial: np.ndarray) -> np.ndarray:
    """Mean of each actor's last k recorded actions (k per row), the
    configured initial level before any history exists.

    ``hist[:avail]`` holds the recorded periods in order; ``reach[o]`` is
    1.0 on the rows whose window reaches o periods back and 0.0 elsewhere
    (None: every row).  Terms are added oldest first onto 0.0, and a
    period outside a row's window adds a zero, so every mean has the bits
    of ``sum(w) / len(w)``.
    """
    if avail == 0:
        return initial.copy()
    acc = np.zeros_like(initial)
    for o in range(min(len(reach) - 1, avail), 0, -1):
        acc += hist[avail - o] if reach[o] is None else hist[avail - o] * reach[o]
    return acc / np.minimum(k, avail)


def _trust_rows(trust: Mapping[str, np.ndarray], d: np.ndarray) -> dict[str, np.ndarray]:
    """Per-row trust parameters spread over the (B, n, n) dyads, plus
    ``keep_r`` = 1 - delta_r and ``erosion_amp`` = 1 + xi * D; no
    ``deadband`` entry when every row's deadband is off."""
    dyads = d.shape[1:]
    p = {f: _per_row(trust[f], dyads)
         for f in ("lambda_plus", "lambda_minus", "mu_r", "t_max", "theta_r", "deadband")}
    p["keep_r"] = 1.0 - _per_row(trust["delta_r"], dyads)
    p["erosion_amp"] = 1.0 + _per_row(trust["xi"], dyads) * d
    if not (p["deadband"] > 0.0).any():
        del p["deadband"]
    return p


def _update_trust_matrices(trust: np.ndarray, reputation: np.ndarray, s: np.ndarray,
                           p: Mapping[str, np.ndarray]) -> None:
    """Advance every dyad's trust T and reputation damage R by one observed
    signal s, in place; ``p`` comes from ``_trust_rows``.

    Reputation moves first:

        s >= 0:  dR = -delta_r * R          (slow forgetting)
        s <  0:  dR = mu_r * |s| * (1 - R)  (damage, capacity-limited)

    then the ceiling min(t_max, 1 - theta_r * R) is taken from the updated
    R, so accumulated damage binds in the same period (recovery is path
    dependent), and trust moves and is clipped to [0, ceiling]:

        s >  0:  dT = lambda_plus * s * max(0, ceiling - T)
        s <= 0:  dT = lambda_minus * s * T * (1 + xi * D)

    Erosion is faster than building (3:1 by default) and amplified by
    dependency.  A zero signal erodes nothing but lets reputation decay;
    signals with |s| <= deadband count as zero.  Self-trust stays 1 and
    self-reputation 0: a zero diagonal signal keeps reputation at 0, and
    the trust diagonal is reset after the update.
    """
    if "deadband" in p:
        s = np.where(np.abs(s) <= p["deadband"], 0.0, s)
    rep_next = np.where(
        s < 0.0,
        reputation + p["mu_r"] * (-s) * (1.0 - reputation),
        reputation * p["keep_r"],
    )
    # np.clip's bits on -0.0 (pinned by tests/test_simulation.py): the lower
    # bound goes first against a scalar upper bound, last against an array.
    np.minimum(np.maximum(0.0, rep_next), 1.0, out=reputation)

    ceiling = np.minimum(p["t_max"], 1.0 - p["theta_r"] * reputation)
    dt = np.where(
        s > 0.0,
        p["lambda_plus"] * s * np.maximum(0.0, ceiling - trust),
        p["lambda_minus"] * s * trust * p["erosion_amp"],
    )
    np.minimum(np.maximum(trust + dt, 0.0), ceiling, out=trust)
    n = trust.shape[-1]
    trust.reshape(len(trust), n * n)[:, :: n + 1] = 1.0


def run_batch(batch: RunBatch, observe: Observer,
              best_response: Optional[BestResponse] = None) -> None:
    """Advance every row of the batch to the longest horizon.

    Each period, before its trust update, ``observe(idx, state)`` sees the
    period's state: (B, ...) arrays keyed like the :class:`Trajectory`
    fields, which the kernel reuses, so the observer copies what it keeps.
    Without ``best_response`` every row follows the adjustment rule; with
    it the batch must have one row, whose actions after period 1 come from
    ``best_response(own_avg, trust, actions)``, where ``own_avg`` is each
    actor's windowed average for the period being chosen.
    """
    B, n = batch.a_init.shape
    H = int(batch.horizon.max())
    if best_response is not None and B != 1:
        raise ValueError("best-response mode runs one row at a time")
    d = batch.d

    gate = gate_weights(d, batch.recip)
    kappa = _per_row(batch.recip["kappa"], (n, n))
    k = np.asarray(batch.recip["memory_k"], dtype=np.int64)[:, None]
    reach = [None if o <= k.min() else _per_row(k[:, 0] >= o, (n,))
             for o in range(int(k.max()) + 1)]
    tp = _trust_rows(batch.trust, d)
    rate, decay, norm_rate = (_per_row(batch.sim[f], (n,))
                              for f in ("adjust_rate", "decay", "baseline_rate"))
    # (row, sigma, noise block whose row t - 1 is period t's noise)
    noisy = [(b, float(batch.sim["noise_sigma"][b]),
              normal(int(batch.sim["seed"][b]), np.arange(n, dtype=np.uint64)[None],
                     np.arange(1, H + 1, dtype=np.uint64)[:, None]))
             for b in np.flatnonzero(batch.sim["noise_sigma"] > 0.0)
             if best_response is None]
    shocks_at: dict[int, list[tuple[int, int, float]]] = {}
    for b, shock in batch.shocks:
        shocks_at.setdefault(shock.period, []).append((b, shock.actor, shock.delta))

    mode = np.asarray(batch.baseline_mode)
    windowed_rule = bool((mode == BASELINE_MODES.index("moving_average")).all())
    adaptive = _per_row(mode == BASELINE_MODES.index("adaptive"), (n,)) > 0.0
    fixed = _per_row(mode == BASELINE_MODES.index("fixed"), (n,)) > 0.0
    initial = np.asarray(batch.baseline_init, dtype=float)
    a_max = np.asarray(batch.a_max, dtype=float)
    script = batch.script
    free = None if script is None else np.isnan(script)

    pre = np.empty((0, B, n)) if batch.pre_history is None else batch.pre_history
    P = pre.shape[0]
    hist = np.empty((P + H, B, n))  # pre-history, then every period's actions
    hist[:P] = pre

    actions = np.array(batch.a_init, dtype=float)
    norms = initial.copy()
    trust = _per_row(batch.trust["t0"], (n, n))
    trust.reshape(B, n * n)[:, :: n + 1] = 1.0
    reputation = np.zeros((B, n, n))
    converged = np.ones(B, dtype=bool)

    # Period-1 actions may themselves be scripted or shocked.
    if script is not None:
        actions = np.where(free[0], actions, script[0])
    for b, i, delta in shocks_at.get(1, ()):
        actions[b, i] += delta
    np.minimum(np.maximum(actions, 0.0), a_max, out=actions)

    b_win = _window_means(hist, P, k, reach, initial)
    for t in range(1, H + 1):
        idx = t - 1
        s_win = _signals(actions, b_win)
        if windowed_rule:
            s_rule = s_win
        else:
            s_rule = _signals(actions, np.where(adaptive, norms,
                                                np.where(fixed, initial, b_win)))
        term = gate * trust * np.tanh(kappa * s_rule)

        hist[P + idx] = actions
        observe(idx, {"actions": actions, "baselines": b_win, "norms": norms,
                      "trust": trust, "reputation": reputation, "signal": s_win,
                      "recip_term": term, "converged": converged})

        _update_trust_matrices(trust, reputation, s_win, tp)

        if t == H:
            break

        # Actions through period t are known when choosing t+1 actions.
        b_next = _window_means(hist, P + t, k, reach, initial)
        if best_response is None:
            nxt = actions + rate * term.sum(axis=2) - decay * (actions - norms)
            for b, sigma, block in noisy:
                nxt[b] = nxt[b] + sigma * block[t]
        else:
            result = best_response(b_next[0], trust[0], actions[0])
            converged = np.array([result.converged])
            nxt = np.array([result.actions], dtype=float)

        for b, i, delta in shocks_at.get(t + 1, ()):
            nxt[b, i] += delta
        if script is not None:
            nxt = np.where(free[t], nxt, script[t])
        np.minimum(np.maximum(nxt, 0.0), a_max, out=nxt)

        norms += norm_rate * (actions - norms)
        actions, b_win = nxt, b_next


def record_batch(batch: RunBatch, labels: tuple[str, ...],
                 best_response: Optional[BestResponse] = None) -> list[Trajectory]:
    """Run the batch and return every row's trajectory, cut at its horizon."""
    H, (B, n) = int(batch.horizon.max()), batch.a_init.shape
    rec = {f: np.zeros((H, B) + (n,) * axes) for f, axes in RECORDED.items()}
    rec["converged"] = np.ones((H, B), dtype=bool)

    def keep(idx, state):
        for f, sink in rec.items():
            sink[idx] = state[f]

    run_batch(batch, keep, best_response)
    return [Trajectory(labels=labels, **{f: a[:h, b].copy() for f, a in rec.items()})
            for b, h in enumerate(batch.horizon)]


def run(
    scenario: ScenarioConfig,
    sim: SimConfig,
    solver=None,
    script: Optional[Mapping[int, Mapping[int, float]]] = None,
) -> Trajectory:
    """Simulate one full trajectory: the one-row call of :func:`run_batch`.

    ``script`` optionally pins actors to fixed actions: ``{actor: {period:
    value}}`` overrides the dynamics (and suppresses that actor's noise for
    the scripted period); the validation protocol uses this to inject
    controlled defection stimuli.
    """
    n = scenario.n
    for shock in sim.shocks:
        if not 0 <= shock.actor < n:
            raise ConfigurationError(f"shock targets unknown actor {shock.actor}")
        if shock.period > sim.horizon:
            raise ConfigurationError(
                f"shock at period {shock.period} is beyond the horizon {sim.horizon}"
            )

    respond = None
    if sim.mode == "best_response":
        from .solver import SolverConfig, solve_equilibrium

        config = SolverConfig() if solver is None else solver

        def respond(own_avg, trust, actions):
            return solve_equilibrium(scenario, own_avg, trust, config, warm_start=actions)

    return record_batch(RunBatch.single(scenario, sim, script), scenario.labels, respond)[0]

