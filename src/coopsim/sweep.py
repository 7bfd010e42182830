"""Full factorial sweep, behavioral-target measurement, and robustness trials.

Standard two-actor measurement protocol (noise off, adjustment dynamics,
deterministic).  The protocol is fixed: every number below is one of the
module constants ``WARMUP`` .. ``T5_LOW_TRUST``, and a cell's only inputs
are its configuration, its trust block and the grid's rho0 extremes.

1. *Emergence run* -- both actors open at cooperation 0.5 against a lower
   starting norm of 0.2 (a cooperative opening: current behavior sits above
   the historical reference).  Baselines adapt slowly; reciprocity either
   amplifies the opening into a sustained climb or the system relaxes back
   toward the norm.  Target 1 passes when the mean action over the last
   five warm-up periods exceeds the 0.5 starting level by at least 0.05.
   Target 5 compares whole-run mean cooperation across trust/reciprocity
   variants of the same run.

2. *Forgiveness run* -- flat warm-up at 0.5 with k-window moving-average
   baselines; at the defection period the partner is scripted one period to
   0.0 (-0.5 stimulus) and pinned back at 0.5 afterwards.  Target 2 checks
   the gated response to the defection is negative; target 3 checks the
   observer's cooperation signal about the defector returns within
   tolerance inside 2k periods (the forgiveness time ``CellResult.tau_f``,
   which Proposition 2 reads too); target 6 checks every recorded bounded
   response against the +/-1 envelope.

3. *Differentiation pair* -- the forgiveness run at dependency 0.8 versus
   0.2; target 4 passes when the high-dependency response magnitude exceeds
   the low-dependency one by more than 1.5x.

A cell's result is a pure function of those inputs.  The engine runs the
protocol runs of many cells as one batch, and a cell's result does not
depend on the batch size or on the order of the cells.  Robustness trials
perturb the reference cell and the default trust block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .params import ReciprocityParams, TrustParams, check_integer, check_seed
from .rng import derive_seed, uniform
from .scenario import BASELINE_MODES
from .simulation import TRUST_FIELDS, RunBatch, run_batch
from .stats import StatsSummary, bootstrap_ci, cohens_d, paired_ttest, wilcoxon_signed_rank

GRID_KEYS = ("rho0", "eta", "kappa", "memory_k", "lambda_r", "t0", "d")

NO_RECOVERY = -1

# The validation protocol's constants.  The dynamics rates are protocol-level
# calibrations, not scenario defaults: the emergence run uses a faster
# adjustment rate, a token reversion cost, and slow norm adaptation so that a
# cooperative opening either compounds or dies out within the warm-up.
WARMUP = 30  # emergence-run length; the defection falls on period WARMUP + 1
START_ACTION = 0.5
START_NORM = 0.2
ADJUST_RATE = 0.30
DECAY = 0.005
BASELINE_RATE = 0.04
EMERGENCE_MARGIN = 0.05  # T1: steady level above START_ACTION by this much
STEADY_WINDOW = 5  # T1 averages the warm-up's last periods
DEFECTION = -0.5  # the partner's one-period drop below START_ACTION
RECOVERY_PAD = 5  # forgiveness runs last WARMUP + 1 + 2k + RECOVERY_PAD periods
RECOVERY_TOL = 0.02
RECOVERY_SUSTAIN = 3
DIFF_HIGH = 0.8  # T4's dependency pair
DIFF_LOW = 0.2
T4_RATIO = 1.5
T5_HIGH_TRUST = 0.9
T5_LOW_TRUST = 0.3
#: rho0 of the T5 variants when no grid gives its extremes.
RHO0_EXTREMES = (0.2, 1.0)

#: Acceptance thresholds per behavioral target (rate of configurations).
TARGET_THRESHOLDS = {
    "t1": 0.85,
    "t2": 1.00,
    "t3": 0.80,
    "t4": 0.90,
    "t5": 0.90,
    "t6": 1.00,
}

TARGET_NAMES = {
    "t1": "Cooperation emergence",
    "t2": "Defection punishment",
    "t3": "Forgiveness dynamics",
    "t4": "Asymmetric differentiation",
    "t5": "Trust-reciprocity interaction",
    "t6": "Bounded responses",
}


@dataclass(frozen=True)
class SweepCell:
    """One parameter configuration of the two-actor protocol."""

    rho0: float = 1.0
    eta: float = 1.0
    kappa: float = 1.0
    memory_k: int = 5
    lambda_r: float = 1.0
    t0: float = 0.7
    d: float = 0.8

    def __post_init__(self) -> None:
        # The shared parameter validators: a bad grid level or trial value
        # fails as the same field of a scenario would.
        ReciprocityParams(rho0=self.rho0, eta=self.eta, kappa=self.kappa,
                          memory_k=self.memory_k, lambda_r=self.lambda_r)
        check_integer(self, ("memory_k",))
        TrustParams(t0=self.t0)
        if not 0.0 <= self.d <= 1.0:
            raise ConfigurationError(f"d must lie in [0, 1], got {self.d}")


REFERENCE_CELL = SweepCell()


@dataclass(frozen=True)
class ParameterGrid:
    """Cartesian product of per-parameter levels, row-major in GRID_KEYS order."""

    levels: dict[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        clean: dict[str, tuple[float, ...]] = {}
        for key in self.levels:
            if key not in GRID_KEYS:
                raise ConfigurationError(
                    f"unknown grid parameter {key!r}; expected one of {GRID_KEYS}"
                )
        for key in GRID_KEYS:
            if key in self.levels:
                vals = tuple(self.levels[key])
                if not vals:
                    raise ConfigurationError(f"grid parameter {key!r} has no levels")
                clean[key] = vals
        if not clean:
            raise ConfigurationError("grid defines no parameters")
        object.__setattr__(self, "levels", clean)

    @property
    def size(self) -> int:
        size = 1
        for vals in self.levels.values():
            size *= len(vals)
        return size

    def cell(self, index: int) -> SweepCell:
        if not 0 <= index < self.size:
            raise IndexError(index)
        chosen = {}
        rem = index
        for key in reversed(list(self.levels)):
            vals = self.levels[key]
            rem, pos = divmod(rem, len(vals))
            chosen[key] = vals[pos]
        return replace(REFERENCE_CELL, **chosen)

    def rho0_extremes(self) -> tuple[float, float]:
        vals = self.levels.get("rho0", (REFERENCE_CELL.rho0,))
        return min(vals), max(vals)


FULL_GRID = ParameterGrid(
    {
        "rho0": (0.2, 0.4, 0.6, 0.8, 1.0),
        "eta": (0.5, 0.75, 1.0, 1.25, 1.5),
        "kappa": (0.5, 1.0, 1.5, 2.0, 3.0),
        "memory_k": (1, 2, 4, 8, 16),
        "t0": (0.3, 0.5, 0.7, 0.85, 0.95),
        "d": (0.2, 0.4, 0.6, 0.8, 1.0),
    }
)

WEIGHT_GRID = ParameterGrid(
    {
        "rho0": (0.5, 0.875, 1.25, 1.625, 2.0),
        "eta": (0.8, 1.1, 1.4, 1.7, 2.0),
        "kappa": (0.5, 0.875, 1.25, 1.625, 2.0),
        "memory_k": (1, 5, 10, 15, 20),
        "lambda_r": (0.5, 0.875, 1.25, 1.625, 2.0),
        "t0": (0.3, 0.45, 0.6, 0.75, 0.9),
    }
)

SMOKE_GRID = ParameterGrid(
    {
        "rho0": (0.2, 0.6, 1.0),
        "eta": (0.5, 1.0, 1.5),
        "kappa": (0.5, 1.5, 3.0),
        "memory_k": (1, 4, 16),
        "t0": (0.3, 0.7, 0.95),
        "d": (0.2, 0.6, 1.0),
    }
)

BUILTIN_GRIDS = {"full": FULL_GRID, "weights": WEIGHT_GRID, "smoke": SMOKE_GRID}


@dataclass(frozen=True)
class CellResult:
    """Per-configuration measurements and target verdicts."""

    index: int
    cell: SweepCell
    t1: bool
    t2: bool
    t3: bool
    t4: bool
    t5: bool
    t6: bool
    steady_level: float
    coop_mean: float
    coop_t5_high: float
    coop_t5_low_trust: float
    coop_t5_low_rho: float
    tau_f: int
    response_high: float
    response_low: float
    ratio: float
    max_abs_response: float

    @property
    def all_targets(self) -> bool:
        return self.t1 and self.t2 and self.t3 and self.t4 and self.t5 and self.t6


#: The protocol's runs per cell, in engine row order.
PROTOCOL_RUNS = ("emergence", "t5_high", "t5_low_trust", "t5_low_rho",
                 "forgiveness", "diff_high", "diff_low")
_EMERGENCE_RUNS = PROTOCOL_RUNS[:4]
_FORGIVENESS_RUNS = PROTOCOL_RUNS[4:]

#: Cells per engine batch: bounds the memory of large grids (about 30 kB
#: of engine state per cell; much larger batches also run slower).
CELLS_PER_BATCH = 256


def _protocol_batch(
    cells: Sequence[SweepCell],
    trusts: Sequence[TrustParams],
    rho0_extremes: tuple[float, float],
) -> RunBatch:
    """Engine rows of the protocol runs, cell-major: row ``c * len(PROTOCOL_RUNS) + r``
    is run ``PROTOCOL_RUNS[r]`` of ``cells[c]`` under ``trusts[c]`` (with the
    run's t0).

    Emergence-type runs open at the start action against the lower start
    norm, with adaptive baselines, for the warm-up.  Forgiveness-type runs
    start flat with moving-average baselines; the partner (actor 1) is
    scripted at the start action with one defection period at t* = warm-up
    + 1, and the run lasts t* + 2k + pad periods.
    """
    n_cells, n_runs = len(cells), len(PROTOCOL_RUNS)
    rows = n_cells * n_runs

    def cell_col(name: str) -> np.ndarray:
        return np.array([getattr(c, name) for c in cells], dtype=float)

    def per_cell(values) -> np.ndarray:
        return np.repeat(np.asarray(values), n_runs)

    rho0, t0, d = cell_col("rho0"), cell_col("t0"), cell_col("d")
    lo, hi = rho0_extremes
    varied = {  # run -> its (rho0, t0, d)
        "emergence": (rho0, t0, d),
        "t5_high": (hi, T5_HIGH_TRUST, d),
        "t5_low_trust": (hi, T5_LOW_TRUST, d),
        "t5_low_rho": (lo, T5_HIGH_TRUST, d),
        "forgiveness": (rho0, t0, d),
        "diff_high": (rho0, t0, DIFF_HIGH),
        "diff_low": (rho0, t0, DIFF_LOW),
    }

    def per_run(pos: int) -> np.ndarray:
        out = np.empty((n_cells, n_runs))
        for r, name in enumerate(PROTOCOL_RUNS):
            out[:, r] = varied[name][pos]
        return out.ravel()

    k = per_cell([c.memory_k for c in cells])
    forgive = np.tile([name in _FORGIVENESS_RUNS for name in PROTOCOL_RUNS], n_cells)
    t_star = WARMUP + 1
    horizon = np.where(forgive, t_star + 2 * k + RECOVERY_PAD, WARMUP)
    script = np.full((int(horizon.max()), rows, 2), np.nan)
    script[:, forgive, 1] = START_ACTION
    script[t_star - 1, forgive, 1] = START_ACTION + DEFECTION

    trust = {f: per_cell([getattr(tp, f) for tp in trusts]) for f in TRUST_FIELDS}
    trust["t0"] = per_run(1)
    recip = {
        "rho0": per_run(0), "eta": per_cell(cell_col("eta")),
        "kappa": per_cell(cell_col("kappa")), "memory_k": k,
        "lambda_r": per_cell(cell_col("lambda_r")), "omega_amp": np.ones(rows),
    }
    sim = {
        "adjust_rate": np.full(rows, ADJUST_RATE),
        "decay": np.full(rows, DECAY),
        "baseline_rate": np.full(rows, BASELINE_RATE),
        "noise_sigma": np.zeros(rows),
        "seed": np.zeros(rows, dtype=np.int64),
    }
    baseline = np.where(forgive, START_ACTION, START_NORM)
    mode = np.where(forgive, BASELINE_MODES.index("moving_average"),
                    BASELINE_MODES.index("adaptive"))
    return RunBatch(
        d=np.where(np.eye(2, dtype=bool), 0.0, per_run(2)[:, None, None]),
        recip=recip, trust=trust, sim=sim,
        a_max=np.ones((rows, 2)),
        a_init=np.full((rows, 2), START_ACTION),
        baseline_init=np.repeat(baseline[:, None], 2, axis=1),
        baseline_mode=mode,
        horizon=horizon,
        script=script,
    )


def signal_recovery_time(
    signals: Sequence[float],
    t_star: int,
    tol: float,
    sustain: int,
) -> int:
    """Periods from the defection until the signal settles within tolerance.

    ``signals`` is the per-period series of the observer's cooperation
    signal about the defector (1-indexed by position + 1).  Recovery is the
    first period r >= t_star with |signal| < tol sustained for ``sustain``
    consecutive periods; returns r - t_star, or NO_RECOVERY if the series
    never settles within the horizon.
    """
    n = len(signals)
    for r in range(t_star, n - sustain + 2):
        if all(abs(signals[r - 1 + j]) < tol for j in range(sustain)):
            return r - t_star
    return NO_RECOVERY


def _measure_batch(indices: Sequence[int], cells: Sequence[SweepCell],
                   trusts: Sequence[TrustParams],
                   rho0_extremes: tuple[float, float]) -> list[CellResult]:
    batch = _protocol_batch(cells, trusts, rho0_extremes)
    horizon = batch.horizon
    kappa = batch.recip["kappa"][:, None, None]
    # What the targets read, kept period by period rather than whole runs.
    actions = np.empty((WARMUP, len(horizon), 2))  # warm-up actions
    partner = np.empty((int(horizon.max()), len(horizon)))  # 0's signal about 1
    response = np.empty(len(horizon))  # gated response at the defection t*
    bounded = np.zeros(len(horizon))  # largest |tanh(kappa s)| within the horizon

    def observe(idx: int, state) -> None:
        if idx < WARMUP:
            actions[idx] = state["actions"]
        elif idx == WARMUP:  # period t* = warm-up + 1
            response[:] = state["recip_term"][:, 0, 1]
        partner[idx] = state["signal"][:, 0, 1]
        phi = np.abs(np.tanh(kappa * state["signal"])).max(axis=(1, 2))
        np.maximum(bounded, phi, out=bounded, where=idx < horizon)

    run_batch(batch, observe)
    n_cells, n_runs = len(cells), len(PROTOCOL_RUNS)
    row = {name: np.arange(n_cells) * n_runs + r for r, name in enumerate(PROTOCOL_RUNS)}

    def mean_actions(rows: np.ndarray, first: int) -> np.ndarray:
        # Each row's mean over periods first+1..warm-up and both actors, in
        # the order (and so with the bits) of np.mean on its own record.
        block = actions[first:, rows].transpose(1, 0, 2)
        return np.ascontiguousarray(block).reshape(len(rows), -1).mean(axis=1)

    steady = mean_actions(row["emergence"], WARMUP - STEADY_WINDOW)
    coop = {name: mean_actions(row[name], 0) for name in _EMERGENCE_RUNS}
    max_abs = bounded.reshape(n_cells, n_runs).max(axis=1)

    results = []
    for c, (index, cell) in enumerate(zip(indices, cells)):
        # Target 1 + coop level: emergence run.
        steady_c = float(steady[c])
        t1 = steady_c >= START_ACTION + EMERGENCE_MARGIN

        # Target 5: trust/reciprocity variants of the emergence run.
        coop_hh = float(coop["t5_high"][c])
        coop_lh = float(coop["t5_low_trust"][c])
        coop_hl = float(coop["t5_low_rho"][c])
        t5 = coop_hh > coop_lh and coop_hh > coop_hl

        # Targets 2, 3: forgiveness stimulus run.
        f = row["forgiveness"][c]
        t2 = float(response[f]) < 0.0
        tau_f = signal_recovery_time(partner[: horizon[f], f].tolist(), WARMUP + 1,
                                     RECOVERY_TOL, RECOVERY_SUSTAIN)
        t3 = tau_f != NO_RECOVERY and tau_f <= 2 * cell.memory_k

        # Target 4: dependency differentiation pair.
        response_high = abs(float(response[row["diff_high"][c]]))
        response_low = abs(float(response[row["diff_low"][c]]))
        ratio = response_high / response_low if response_low > 0 else math.inf
        t4 = ratio > T4_RATIO

        max_abs_c = float(max_abs[c])
        results.append(CellResult(
            index=index, cell=cell,
            t1=t1, t2=t2, t3=t3, t4=t4, t5=t5, t6=max_abs_c <= 1.0,
            steady_level=steady_c, coop_mean=float(coop["emergence"][c]),
            coop_t5_high=coop_hh, coop_t5_low_trust=coop_lh, coop_t5_low_rho=coop_hl,
            tau_f=tau_f,
            response_high=response_high, response_low=response_low, ratio=ratio,
            max_abs_response=max_abs_c,
        ))
    return results


def measure_cells(
    indices: Sequence[int],
    cells: Sequence[SweepCell],
    trusts: Sequence[TrustParams],
    rho0_extremes: tuple[float, float] = RHO0_EXTREMES,
) -> list[CellResult]:
    """Run the full protocol for every configuration and score all six targets.

    ``cells[c]`` runs under ``trusts[c]`` and is reported as ``indices[c]``.
    The engine advances ``CELLS_PER_BATCH`` cells' protocol runs at once;
    a cell's result does not depend on the batch it lands in.
    """
    results: list[CellResult] = []
    for lo in range(0, len(cells), CELLS_PER_BATCH):
        part = slice(lo, lo + CELLS_PER_BATCH)
        results += _measure_batch(indices[part], cells[part], trusts[part], rho0_extremes)
    return results


def measure_cell(index: int, cell: SweepCell) -> CellResult:
    """Run the full protocol for one configuration and score all six targets."""
    return measure_cells([index], [cell], [TrustParams()])[0]


def run_sweep(grid: ParameterGrid) -> list[CellResult]:
    """Measure every configuration of the grid; results ordered by index."""
    cells = [grid.cell(i) for i in range(grid.size)]
    return measure_cells(range(grid.size), cells, [TrustParams()] * grid.size,
                         grid.rho0_extremes())


@dataclass(frozen=True)
class TargetReport:
    """Achievement rates per behavioral target against their thresholds."""

    rows: tuple[dict, ...]

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.rows)

    def row(self, target: str) -> dict:
        for r in self.rows:
            if r["target"] == target:
                return r
        raise KeyError(target)


def measure_targets(results: Sequence[CellResult]) -> TargetReport:
    total = len(results)
    rows = []
    for key in ("t1", "t2", "t3", "t4", "t5", "t6"):
        achieved = sum(1 for r in results if getattr(r, key))
        rate = achieved / total if total else 0.0
        rows.append(
            {
                "target": key,
                "name": TARGET_NAMES[key],
                "achieved": achieved,
                "total": total,
                "rate": rate,
                "threshold": TARGET_THRESHOLDS[key],
                "pass": rate >= TARGET_THRESHOLDS[key],
            }
        )
    return TargetReport(rows=tuple(rows))


def differentiation_stats(results: Sequence[CellResult], seed: int = 0) -> StatsSummary:
    """Paired high-vs-low dependency analysis across the grid.

    The t test and effect size compare the per-cell response magnitudes;
    the Wilcoxon test checks the ratio distribution against the T4
    differentiation threshold ``T4_RATIO`` (one sided); the bootstrap interval covers
    the mean ratio.  A grid too small for these tests is a configuration
    error.
    """
    high = [r.response_high for r in results]
    low = [r.response_low for r in results]
    ratios = [r.ratio for r in results if math.isfinite(r.ratio)]
    try:
        t, df, p, _ = paired_ttest(high, low)
        d, _ = cohens_d(high, low)
        lo, hi = bootstrap_ci(ratios, seed=seed)
        w_stat, w_p, _ = wilcoxon_signed_rank(ratios, T4_RATIO)
    except ValueError as exc:
        raise ConfigurationError(
            f"a {len(results)}-cell grid is too small for the differentiation "
            f"statistics: {exc}"
        ) from None
    arr = np.asarray(ratios)
    return StatsSummary(
        mean=float(arr.mean()), sd=float(arr.std(ddof=1)),
        t_stat=t, df=df, p_value=p, cohens_d=d,
        ci_lo=lo, ci_hi=hi, wilcoxon_stat=w_stat, wilcoxon_p=w_p,
    )


# Real-valued trust-block fields perturbed in robustness trials (t0 is
# the cell's, perturbed with it).
_TRUST_PERTURB_FIELDS = (
    "lambda_plus", "lambda_minus", "xi", "mu_r", "delta_r",
    "t_max", "theta_r", "lambda_t",
)
# Legal ranges used for clamping perturbed values.
_TRUST_RANGES = {
    "lambda_plus": (1e-6, 0.999999),
    "lambda_minus": (1e-6, 0.999999),
    "xi": (0.0, math.inf),
    "mu_r": (1e-6, 0.999999),
    "delta_r": (1e-6, 0.999999),
    "t_max": (1e-6, 1.0),
    "theta_r": (0.0, 1.0),
    "lambda_t": (0.0, math.inf),
}
_CELL_PERTURB_FIELDS = ("rho0", "eta", "kappa", "lambda_r", "t0", "d")
_CELL_RANGES = {
    "rho0": (0.0, math.inf),
    "eta": (0.0, math.inf),
    "kappa": (1e-9, math.inf),
    "lambda_r": (0.0, math.inf),
    "t0": (0.0, 1.0),
    "d": (0.0, 1.0),
}


@dataclass(frozen=True)
class MonteCarloTrial:
    trial: int
    all_targets: bool
    ratio: float
    clamped: tuple[str, ...]


@dataclass(frozen=True)
class MonteCarloReport:
    trials: tuple[MonteCarloTrial, ...]
    perturb: float
    seed: int

    @property
    def n(self) -> int:
        return len(self.trials)

    @property
    def all_targets_rate(self) -> float:
        return sum(1 for t in self.trials if t.all_targets) / self.n

    @property
    def ratios(self) -> np.ndarray:
        return np.array([t.ratio for t in self.trials])

    @property
    def ratio_threshold_rate(self) -> float:
        return float((self.ratios >= T4_RATIO).mean())

    @property
    def min_ratio(self) -> float:
        return float(self.ratios.min())

    @property
    def clamped_trials(self) -> int:
        return sum(1 for t in self.trials if t.clamped)


def _perturb_value(value, lo, hi, eps):
    raw = value * (1.0 + eps)
    clamped = min(hi, max(lo, raw))
    return clamped, clamped != raw


def perturb_trial(
    trial: int,
    perturb: float,
    seed: int,
) -> tuple[SweepCell, TrustParams, tuple[str, ...]]:
    """One robustness trial's configuration: every real-valued parameter of
    the reference cell and the default trust block scaled by U(1-p, 1+p).

    The memory window is an integer and is left untouched.  Perturbed
    values that leave their legal range are clamped and flagged; returns
    (cell, trust, clamped field names).
    """
    trial_seed = derive_seed(seed, trial)
    clamped: list[str] = []
    stream = 0

    def eps() -> float:
        nonlocal stream
        u = uniform(trial_seed, stream, trial)
        stream += 1
        return (2.0 * u - 1.0) * perturb

    base_cell, base_trust = REFERENCE_CELL, TrustParams()
    cell_kwargs = {}
    for name in _CELL_PERTURB_FIELDS:
        lo, hi = _CELL_RANGES[name]
        val, was_clamped = _perturb_value(getattr(base_cell, name), lo, hi, eps())
        cell_kwargs[name] = val
        if was_clamped:
            clamped.append(name)

    trust_kwargs = {}
    for name in _TRUST_PERTURB_FIELDS:
        lo, hi = _TRUST_RANGES[name]
        val, was_clamped = _perturb_value(getattr(base_trust, name), lo, hi, eps())
        trust_kwargs[name] = val
        if was_clamped:
            clamped.append(f"trust.{name}")
    return (replace(base_cell, **cell_kwargs), replace(base_trust, **trust_kwargs),
            tuple(clamped))


def monte_carlo(trials: int = 2000, perturb: float = 0.15, seed: int = 42) -> MonteCarloReport:
    """Robustness analysis around the reference configuration."""
    if trials < 2:
        raise ConfigurationError(f"trials must be >= 2, got {trials}")
    if not 0.0 <= perturb < math.inf:
        raise ConfigurationError(f"perturb must be finite and >= 0, got {perturb}")
    check_seed(seed)
    drawn = [perturb_trial(t, perturb, seed) for t in range(trials)]
    results = measure_cells(range(trials), [cell for cell, _, _ in drawn],
                            [trust for _, trust, _ in drawn])
    out = tuple(
        MonteCarloTrial(trial=r.index, all_targets=r.all_targets, ratio=r.ratio,
                        clamped=clamped)
        for r, (_, _, clamped) in zip(results, drawn)
    )
    return MonteCarloReport(trials=out, perturb=perturb, seed=seed)
