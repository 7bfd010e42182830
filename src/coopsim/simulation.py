"""Sequential repeated-interaction engine.

Each period: observe partners' actions against per-actor baselines, form
cooperation signals and the trust-gated reciprocity terms, record the
period's state, then (but for the last period) update the two-layer trust
state and advance actions by the selected rule:

- ``adjustment`` mode moves each action by the sum of its gated
  reciprocity terms at the adjustment rate, minus mean reversion toward
  the actor's prevailing norm, plus optional Gaussian noise:

      a_i' = a_i + adjust_rate * sum_j term_ij - decay * (a_i - norm_i) + noise

- ``best_response`` mode replaces the action update with an equilibrium
  solve given each actor's own windowed average, the current trust and
  the previous actions.  The kernel keeps two keys, as bytes.  A solve is
  a pure function of its three inputs, so a period whose inputs are
  byte-identical to the last solve's (as they are once a run settles)
  reuses that solve's result instead of solving again.  A period whose
  last k + 1 actions, trust and reputation are byte-identical to the last
  period's (all k + 1 real periods, no empty pre-history slot) is that
  period again: its k + 2 equal actions give both periods the same window
  means, so the same signals, trust update, next window and solve.  So is
  every later period up to the next one with a shock or a script pin, as
  long as the settled period has none itself (the period after a pinned
  one may leave the pin).  Such a span of m settled periods is recorded
  in one step: the norms, the only state that still moves, follow their
  recurrence as one (m, 1, n) block, and the live period's signals, gated
  terms and record write run once on it, with no trust update and no
  solve.  A span that would last one period runs as a live period, whose
  trust update then changes no bit and whose solve is the last one.  The
  run then resumes at the event's period, or returns.

Every period's actions, period 1's initial actions included, then go
through one step: the period's scheduled shocks are added, its scripted
actions replace the result, and the bounds clip it.

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
period, so runs are bit-reproducible and order-independent.  The
adjustment rule's noise is one ``(H, B, n)`` array built before the first
period: one ``(H, n)`` draw per distinct seed of the noisy rows, shared by
the rows on that seed and scaled by each row's sigma, and -0.0 on the
noiseless rows (best-response mode ignores noise and draws none).

Batching.  One kernel, :func:`run_batch`, advances B independent runs at
once as ``(B, n)`` actions and ``(B, n, n)`` trust and reputation, and
returns their record: every period's state, period first, as
``(H, B, ...)`` arrays, whose actions are the rows of the history the
windows read.  Its inputs are a :class:`RunBatch`: one table
``rows`` of per-row columns, with the row on the first axis of every
entry (each parameter field as ``(B,)``, ``d`` as ``(B, n, n)``,
``a_max``, ``a_init`` and ``baseline_init`` as ``(B, n)``,
``baseline_mode`` and ``horizon`` as ``(B,)``), beside the scripts,
shocks and pre-histories.  :func:`record_batch` cuts the record into
each row's :class:`Trajectory`, and :func:`run` is its B = 1 call.  Both
take the rows longest horizon first, and each row stops at its own
horizon: from then on the kernel advances, and records, only the rows
still live, a prefix of the batch, and the row's later periods in the
record hold zeros.  The kernel keeps every per-row input in one table
(and the period-first ones in a second), so a horizon cut is one slice of
each.  The action rule's reference is picked per row by its
``baseline_mode``.  Each row may have its own number of pre-history
periods: leading NaN rows of its ``pre_history`` are periods it does not
have.  Rows never interact, and
every row computes exactly the arithmetic of a run on its own, so a row's
bits do not depend on the batch it is in: the window means add oldest
first onto 0.0 (an empty pre-history slot adds 0.0 before them), as
``sum(w) / len(w)`` does, and powers take one Python float exponent at a
time as ``array ** eta`` does for one run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional, Sequence

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

    ``rows`` is one table with the row on the first axis of every entry:
    each :class:`ReciprocityParams`, :class:`TrustParams` and ``SIM_FIELDS``
    field as a (B,) column under its field name (the seeds as uint64), and

    - ``d``: (B, n, n) interdependence,
    - ``a_max``, ``a_init``, ``baseline_init``: (B, n),
    - ``baseline_mode``: (B,) index into ``BASELINE_MODES``,
    - ``horizon``: (B,); each row runs to its own.
    """

    rows: Mapping[str, np.ndarray]
    script: Optional[np.ndarray] = None  # (H, B, n) pinned actions, NaN where free; beats shocks
    shocks: tuple[tuple[int, Shock], ...] = ()  # (row, shock), applied in order
    pre_history: Optional[np.ndarray] = None  # (P, B, n) rows before period 1, NaN where none

    @classmethod
    def of(cls, runs: Sequence[tuple]) -> "RunBatch":
        """The batch of ``(scenario, sim[, script])`` runs, one row each, in
        order; the scenarios must share the actor count.

        A script ``{actor: {period: value}}`` pins actions; scripts are
        padded with free (NaN) periods to the longest horizon, and
        pre-histories in front with empty (NaN) periods to the longest one.
        """
        scenarios, sims, scripts = zip(*((*run, None)[:3] for run in runs))
        B, n = len(sims), scenarios[0].n
        for scenario, sim in zip(scenarios, sims):
            for shock in sim.shocks:
                if not 0 <= shock.actor < scenario.n:
                    raise ConfigurationError(f"shock targets unknown actor {shock.actor}")
                if shock.period > sim.horizon:
                    raise ConfigurationError(
                        f"shock at period {shock.period} is beyond the horizon {sim.horizon}"
                    )
        rows = {f: np.array([getattr(s.recip, f) for s in scenarios]) for f in RECIP_FIELDS}
        rows |= {f: np.array([getattr(s.trust, f) for s in scenarios]) for f in TRUST_FIELDS}
        # uint64 seeds keep every seed in [0, 2**64) exact
        rows |= {f: np.array([getattr(sim, f) for sim in sims],
                             dtype=np.uint64 if f == "seed" else float) for f in SIM_FIELDS}
        rows |= {f: np.array([getattr(s, f) for s in scenarios], dtype=float)
                 for f in ("a_max", "a_init", "baseline_init")}
        rows["d"] = np.array([s.d.values for s in scenarios])
        rows["baseline_mode"] = np.array([BASELINE_MODES.index(s.baseline_mode)
                                          for s in scenarios])
        rows["horizon"] = np.array([sim.horizon for sim in sims])
        H, P = int(rows["horizon"].max()), max(len(s.pre_history) for s in scenarios)
        _check_horizon(H, P, B, n)
        script = None
        if any(scripts):
            script = np.full((H, B, n), np.nan)
            for b, (sim, pins) in enumerate(zip(sims, scripts)):
                for i, per in (pins or {}).items():
                    for period, value in per.items():
                        if 1 <= period <= sim.horizon:
                            script[period - 1, b, i] = value
        pre = np.full((P, B, n), np.nan)
        for b, s in enumerate(scenarios):
            if s.pre_history:
                pre[P - len(s.pre_history):, b] = s.pre_history
        return cls(rows=rows, script=script, pre_history=pre,
                   shocks=tuple((b, shock) for b, sim in enumerate(sims) for shock in sim.shocks))


# Best-response rule: (own averages for the next period, trust, actions) -> solve result.
BestResponse = Callable[[np.ndarray, np.ndarray, np.ndarray], object]


def _check_horizon(H: int, P: int, B: int, n: int) -> None:
    """Reject a horizon whose largest arrays, each (H, B, n, n) record and
    the (P + H, B, n) history, would pass numpy's array size limit."""
    if (P + H) * B * n * n * 8 > np.iinfo(np.intp).max:
        raise ConfigurationError(
            f"horizon {H} is too long: its record would pass numpy's array size limit")


def _per_row(values, shape: tuple[int, ...]) -> np.ndarray:
    """A (B,) parameter column spread over each row's actors or dyads, so
    the kernel's arithmetic runs on whole contiguous arrays."""
    col = np.asarray(values, dtype=float)
    out = np.empty(col.shape + shape)
    out[...] = col.reshape(col.shape + (1,) * len(shape))
    return out


def _signals(actions: np.ndarray, baselines: np.ndarray) -> np.ndarray:
    """s[..., i, j] = a_j - baseline_j off the diagonal, 0 on it, for
    actions and baselines broadcast over any leading axes."""
    n = actions.shape[-1]
    s = np.repeat((actions - baselines)[..., None, :], n, axis=-2)
    s.reshape(-1, n * n)[:, :: n + 1] = 0.0
    return s


def _window_reach(k: np.ndarray, n: int) -> np.ndarray:
    """The (max k, B, n) weights of the window means for (B, 1) windows k:
    entry [-o] is 1.0 on the rows whose window reaches o periods back and
    0.0 elsewhere."""
    offsets = np.arange(int(k.max()), 0, -1)[:, None, None]
    return np.repeat((k[None] >= offsets).astype(float), n, axis=2)


def _window_means(hist: np.ndarray, avail: int, k: np.ndarray, reach: np.ndarray,
                  initial: np.ndarray, lead=0) -> np.ndarray:
    """Mean of each actor's last k recorded actions (k per row), the
    configured initial level before any history exists.

    ``hist[:avail]`` holds the recorded periods in order, and ``reach``
    comes from :func:`_window_reach`.  The first ``lead`` periods of a row
    ((B, 1), or 0 for none) are periods it does not have: they hold 0.0,
    and every row has a period after them unless ``avail`` is 0.  The
    terms are added oldest first onto 0.0, and a period outside a row's
    window or history adds a zero, so every mean has the bits of
    ``sum(w) / len(w)``.
    """
    if avail == 0:
        return initial.copy()
    m = min(len(reach), avail)
    terms = hist[avail - m : avail] * reach[len(reach) - m :]
    if terms[0].size > 1:
        # With more than one value per period, one reduction along the
        # period axis adds each value's terms in order.
        total = np.add.reduce(terms, axis=0, initial=0.0)
    else:
        # A lone value's terms would be summed pairwise: add them in turn.
        total = np.zeros_like(initial)
        for term in terms:
            total += term
    return total / np.minimum(k, avail - lead)


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
    signal s, in place; ``p`` holds the entries of ``_trust_rows`` (the
    kernel passes its whole row table).

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


def run_batch(batch: RunBatch,
              best_response: Optional[BestResponse] = None) -> dict[str, np.ndarray]:
    """Advance every row of the batch to its own horizon and return its
    record: each ``RECORDED`` state and ``converged``, as (H, B, ...)
    arrays, period first, keyed like the :class:`Trajectory` fields, where
    H is the longest horizon.  A row's periods past its horizon hold zeros
    (``converged`` True), and the actions are a view of the kernel's
    history of actions.

    A row's pre-history may be NaN only in whole leading periods, the
    periods it does not have (``ValueError`` otherwise).  Rows come in
    non-increasing horizon order (``ValueError`` otherwise), so the rows
    still running in a period are a prefix of the batch: once a row's
    horizon has passed, the kernel advances only that live prefix, through
    views of its arrays.  Each period's states are recorded before its
    trust update, and the kernel returns once period H is recorded, so
    the last period runs no trust update.  Without ``best_response``
    every row follows the adjustment rule; with it the batch must have
    one row, whose actions after period 1 come from
    ``best_response(own_avg, trust, actions)``, where ``own_avg`` is each
    actor's windowed average for the period being chosen.  It is called
    only when those three arrays differ, in at least one byte, from its
    last call's, which the kernel keeps as bytes (copies, since it updates
    trust in place); a period with the same inputs reuses the last result.
    A settled period and those after it up to the next shock or pin are
    recorded in one step, as the module docstring says.  A horizon whose
    record numpy could not size is a :class:`ConfigurationError` that
    names it.
    """
    rows = batch.rows
    B, n = rows["a_init"].shape
    horizon = np.asarray(rows["horizon"])
    if horizon.min() < 1 or (horizon[1:] > horizon[:-1]).any():
        raise ValueError("rows must come in non-increasing horizon order, each at least 1")
    H = int(horizon[0])
    if best_response is not None:
        if B != 1:
            raise ValueError("best-response mode runs one row at a time")
    d = rows["d"]

    pre = np.empty((0, B, n)) if batch.pre_history is None else batch.pre_history
    P = pre.shape[0]
    _check_horizon(H, P, B, n)
    # live[t]: the rows whose horizon reaches period t + 1
    live = np.searchsorted(-horizon, -np.arange(1, H + 1), side="right").tolist()
    empty = np.isnan(pre)
    lead = np.logical_and.accumulate(empty.all(axis=2), axis=0).sum(axis=0)[:, None]
    if (empty != (np.arange(P)[:, None, None] < lead)).any():
        raise ValueError("pre-history may be NaN only in whole leading periods")
    hist = np.zeros((P + H, B, n))  # pre-history (0.0 where none), then every period's actions
    hist[:P] = np.where(empty, 0.0, pre)
    # The record, zeros until a step writes its live rows: the actions are
    # the history's rows, and each step writes the other states once.
    written = tuple(RECORDED)[1:]
    rec = {"actions": hist[P:]} | {f: np.zeros((H, B) + (n,) * RECORDED[f]) for f in written}
    rec["converged"] = np.ones((H, B), dtype=bool)

    # Every per-row input, row first, and every period-first one: a horizon
    # cut keeps the live rows of each.
    k = np.asarray(rows["memory_k"], dtype=np.int64)[:, None]
    mode = np.asarray(rows["baseline_mode"])[:, None]  # index into BASELINE_MODES
    p = {"gate": gate_weights(d, rows), "kappa": _per_row(rows["kappa"], (n, n)), "k": k,
         "lead": lead, "rate": _per_row(rows["adjust_rate"], (n,)),
         "decay": _per_row(rows["decay"], (n,)),
         "norm_rate": _per_row(rows["baseline_rate"], (n,)),
         # (B, 1) masks of the rows whose rule follows the window, the norm
         "by_window": mode == BASELINE_MODES.index("moving_average"),
         "by_norm": mode == BASELINE_MODES.index("adaptive"),
         "initial": np.asarray(rows["baseline_init"], dtype=float),
         "a_max": np.asarray(rows["a_max"], dtype=float)} | _trust_rows(rows, d)
    # A window longer than the run and its pre-history reaches no further.
    per = {"hist": hist, "reach": _window_reach(np.minimum(k, P + H), n)}
    if batch.script is not None:
        per |= {"script": batch.script, "free": np.isnan(batch.script)}
    # Period t's noise is noise[t - 1]: each noisy row's scaled (H, n) block,
    # one draw per distinct seed, and -0.0 on the other rows, since adding
    # -0.0 leaves every value's bits as they are.
    sigma, seeds = rows["noise_sigma"], rows["seed"]
    if best_response is None and (sigma > 0.0).any():
        per["noise"] = np.full((H, B, n), -0.0)
        blocks: dict[int, np.ndarray] = {}
        for b in np.flatnonzero(sigma > 0.0).tolist():
            seed = int(seeds[b])
            if seed not in blocks:
                blocks[seed] = normal(seed, np.arange(n, dtype=np.uint64)[None],
                                      np.arange(1, H + 1, dtype=np.uint64)[:, None])
            per["noise"][:, b] = float(sigma[b]) * blocks[seed]
    shocks_at: dict[int, list[tuple[int, int, float]]] = {}
    for b, shock in batch.shocks:
        if shock.period <= horizon[b]:
            shocks_at.setdefault(shock.period, []).append((b, shock.actor, shock.delta))

    # The leading rows whose rule's reference is the windowed mean: the live
    # rows are a prefix, so while no others are live the rule's signal is s_win.
    windowed_rows = next((b for b, w in enumerate(p["by_window"][:, 0].tolist()) if not w), B)
    norms = p["initial"].copy()
    trust = _per_row(rows["t0"], (n, n))
    trust.reshape(B, n * n)[:, :: n + 1] = 1.0
    reputation = np.zeros((B, n, n))

    def settle(a: np.ndarray, idx: int) -> np.ndarray:
        """Period idx + 1's actions from the rule's ``a``: the period's
        shocks, then its script, then the bounds."""
        for b, i, delta in shocks_at.get(idx + 1, ()):
            a[b, i] += delta
        if "script" in per:
            a = np.where(per["free"][idx], a, per["script"][idx])
        return np.minimum(np.maximum(a, 0.0), p["a_max"], out=a)

    actions = settle(np.array(rows["a_init"], dtype=float), 0)
    # A row without pre-history starts at its initial level (0 / 0 elsewhere).
    with np.errstate(invalid="ignore"):
        b_win = np.where(lead < P, _window_means(hist, P, k, per["reach"], p["initial"], lead),
                         p["initial"])
    # Best-response mode: the bytes of the last period's actions, trust and
    # reputation, and of the last solve's inputs; and the periods with a
    # shock or a script pin, each of which ends a settled span.
    key = solved = None
    if best_response is not None:
        events = set(shocks_at)
        if "script" in per:
            events.update((np.flatnonzero(~per["free"].all(axis=(1, 2))) + 1).tolist())
        events = sorted(events)
    t = 1
    while True:
        idx, end = t - 1, t + 1  # this step records periods t to end - 1
        per["hist"][P + idx] = actions
        # A best-response period whose last k + 1 actions (none of them an
        # empty pre-history slot), trust and reputation repeat the last
        # period's bytes is that period again but for its norms, and so is
        # every period after it up to the next one with a shock or pin.  One
        # with a shock or pin of its own runs in full: the period after it
        # may leave the pin.
        if best_response is not None and (oldest := P + idx - p["k"][0, 0]) >= p["lead"][0, 0]:
            last, key = key, (per["hist"][oldest : P + idx + 1].tobytes(), trust.tobytes(),
                              reputation.tobytes())
            if key == last:
                end = max(end, next((e for e in events if e >= t), H + 1))
        at = idx
        if end > t + 1:
            # Periods t to end - 1 in one step: the last period's actions,
            # window, trust, reputation and response, and the norms by their
            # recurrence, as an (end - t, 1, n) block.
            per["hist"][P + idx : P + end - 1] = actions
            x, a, rate = norms[0].tolist(), actions[0].tolist(), p["norm_rate"][0].tolist()
            steps = []
            for _ in range(end - t):
                steps.append(x)
                x = [xi + ri * (ai - xi) for xi, ai, ri in zip(x, a, rate)]
            norms, at = np.array(steps)[:, None], slice(idx, end - 1)
            rec["converged"][t:end] = result.converged

        s_win = s_rule = _signals(actions, b_win)
        if len(actions) > windowed_rows:  # a live row's rule follows its norm or fixed level
            s_rule = _signals(actions, np.where(p["by_window"], b_win,
                                                np.where(p["by_norm"], norms, p["initial"])))
        term = p["gate"] * trust * np.tanh(p["kappa"] * s_rule)

        for f, state in zip(written, (b_win, norms, trust, reputation, s_win, term)):
            rec[f][at, : len(actions)] = state
        if end > H:
            return rec
        if end > t + 1:  # resume at the event's period
            norms = np.array([x])
            actions, t = settle(np.array([result.actions], dtype=float), end - 1), end
            continue

        _update_trust_matrices(trust, reputation, s_win, p)

        L = live[t]
        if L < len(actions):  # the rows whose horizon is period t end here
            p = {f: a[:L] for f, a in p.items()}
            per = {f: a[:, :L] for f, a in per.items()}
            actions, norms, trust, reputation, term = (
                a[:L] for a in (actions, norms, trust, reputation, term))

        # Actions through period t are known when choosing t+1 actions.
        b_next = _window_means(per["hist"], P + t, p["k"], per["reach"], p["initial"], p["lead"])
        if best_response is None:
            nxt = actions + p["rate"] * term.sum(axis=2) - p["decay"] * (actions - norms)
            if "noise" in per:
                nxt += per["noise"][t]
        else:
            inputs = (b_next.tobytes(), trust.tobytes(), actions.tobytes())
            if inputs != solved:
                solved, result = inputs, best_response(b_next[0], trust[0], actions[0])
            nxt = np.array([result.actions], dtype=float)
            rec["converged"][t] = result.converged

        norms += p["norm_rate"] * (actions - norms)
        actions, b_win, t = settle(nxt, t), b_next, t + 1


def record_batch(batch: RunBatch, labels: tuple[str, ...],
                 best_response: Optional[BestResponse] = None) -> list[Trajectory]:
    """Run the batch, its rows longest first as :func:`run_batch` takes
    them, and return every row's trajectory, cut at its horizon, in row
    order."""
    rec = run_batch(batch, best_response)
    return [Trajectory(labels=labels, **{f: a[:h, b].copy() for f, a in rec.items()})
            for b, h in enumerate(batch.rows["horizon"].tolist())]


def run(
    scenario: ScenarioConfig,
    sim: SimConfig,
    script: Optional[Mapping[int, Mapping[int, float]]] = None,
) -> Trajectory:
    """Simulate one full trajectory: the one-row call of :func:`run_batch`,
    best-response mode with the default ``SolverConfig``.

    ``script`` optionally pins actors to fixed actions: ``{actor: {period:
    value}}`` overrides the dynamics, the noise and any shock of that actor
    in the scripted period; in every period the shocks apply first, then
    the script, then the bounds.
    """
    respond = None
    if sim.mode == "best_response":
        from .solver import EquilibriumSolver, SolverConfig

        respond = EquilibriumSolver(scenario, SolverConfig())

    return record_batch(RunBatch.of([(scenario, sim, script)]), scenario.labels, respond)[0]

