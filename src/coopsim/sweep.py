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
   tolerance inside 2k periods (the forgiveness time ``tau_f``, which
   Proposition 2 reads too); target 6 checks every recorded bounded
   response against the +/-1 envelope.  While the defection is in the
   window the signal is 0.5/k, so windows above ``MAX_MEMORY_K`` = 25 would
   read as recovered at once; grids reject them.

   The warm-up is a fixed point: both actors hold 0.5 against 0.5 baselines
   and norms, so every signal is 0.0 and trust moves once, to min(t0,
   t_max), then holds.  So the engine does not run it: a forgiveness-type
   run starts at the defection, as period 1, with ``WARMUP`` periods of
   0.5 as its pre-history and trust at the warm-up's end state (one
   zero-signal trust update), and lasts 1 + 2k + ``RECOVERY_PAD`` periods.
   Its windows, trust and actions from the defection on are those of the
   full run, bit for bit.

3. *Differentiation pair* -- the forgiveness run at dependency 0.8 versus
   0.2; target 4 passes when the high-dependency response magnitude exceeds
   the low-dependency one by more than 1.5x.  With both responses zero the
   ratio is undefined (NaN) and target 4 fails.

Cells and results are held as columns: a dict of equal-length arrays in
which row c is cell c.  A cell's result is a pure function of its
configuration, its trust block and the grid's rho0 extremes.  Many cells
share a protocol run (the T5 runs read neither a cell's rho0 nor its t0,
the differentiation runs not its d), so the engine runs each distinct run
once, each only to its own horizon, in batches of many runs; a cell's
result does not depend on the batch size or on the order of the cells.
Robustness trials perturb the reference cell and the default trust block,
every trial's parameters drawn as one array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .params import TrustParams, check_seed, validate
from .rng import derive_seed, uniform
from .scenario import BASELINE_MODES
from .simulation import TRUST_FIELDS, RunBatch, _trust_rows, _update_trust_matrices, run_batch
from .stats import StatsSummary, bootstrap_ci, cohens_d, paired_ttest, wilcoxon_signed_rank

GRID_KEYS = ("rho0", "eta", "kappa", "memory_k", "lambda_r", "t0", "d")

NO_RECOVERY = -1

# The validation protocol's constants.  The dynamics rates are protocol-level
# calibrations, not scenario defaults: the emergence run uses a faster
# adjustment rate, a token reversion cost, and slow norm adaptation so that a
# cooperative opening either compounds or dies out within the warm-up.
WARMUP = 30  # emergence-run length, and the flat warm-up before a defection
START_ACTION = 0.5
START_NORM = 0.2
ADJUST_RATE = 0.30
DECAY = 0.005
BASELINE_RATE = 0.04
EMERGENCE_MARGIN = 0.05  # T1: steady level above START_ACTION by this much
STEADY_WINDOW = 5  # T1 averages the warm-up's last periods
DEFECTION = -0.5  # the partner's one-period drop below START_ACTION
RECOVERY_PAD = 5  # forgiveness runs last 1 + 2k + RECOVERY_PAD periods after the warm-up
RECOVERY_TOL = 0.02
RECOVERY_SUSTAIN = 3
#: The longest memory window the forgiveness run can measure: while the
#: defection is in the window the signal about the defector is -DEFECTION / k,
#: and below RECOVERY_TOL it would read as recovered at once.
MAX_MEMORY_K = math.floor(-DEFECTION / RECOVERY_TOL)
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
        # The shared ranges: a bad grid level fails as the same field of a
        # scenario would.
        validate(self)


REFERENCE_CELL = SweepCell()


@dataclass(frozen=True)
class ParameterGrid:
    """Cartesian product of per-parameter levels, row-major in GRID_KEYS order.

    Each level passes ``SweepCell``'s validators when the grid is built, and
    is stored as the cell stores it (``memory_k`` as an int); ``memory_k``
    levels may not exceed ``MAX_MEMORY_K``.
    """

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
                vals = tuple(getattr(replace(REFERENCE_CELL, **{key: v}), key)
                             for v in self.levels[key])
                if not vals:
                    raise ConfigurationError(f"grid parameter {key!r} has no levels")
                clean[key] = vals
        if max(clean.get("memory_k", (0,))) > MAX_MEMORY_K:
            raise ConfigurationError(
                f"memory_k levels above {MAX_MEMORY_K} are beyond the forgiveness "
                f"run: its signal {-DEFECTION}/k would start inside the recovery "
                f"tolerance {RECOVERY_TOL}")
        if not clean:
            raise ConfigurationError("grid defines no parameters")
        object.__setattr__(self, "levels", clean)

    @property
    def size(self) -> int:
        size = 1
        for vals in self.levels.values():
            size *= len(vals)
        return size

    def columns(self) -> dict[str, np.ndarray]:
        """Every cell's ``GRID_KEYS`` columns, row-major (the last parameter
        varies fastest); a parameter without levels keeps the reference
        cell's value."""
        levels = [np.array(self.levels.get(key, (getattr(REFERENCE_CELL, key),)))
                  for key in GRID_KEYS]
        mesh = np.meshgrid(*levels, indexing="ij")
        return {key: m.ravel() for key, m in zip(GRID_KEYS, mesh)}

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


#: The targets' verdict columns of a result table.
TARGETS = tuple(TARGET_NAMES)


def columns(records: Sequence, names: Sequence[str]) -> dict[str, np.ndarray]:
    """Column ``name`` holds each record's ``name`` attribute, in order."""
    return {name: np.array([getattr(r, name) for r in records]) for name in names}


#: The protocol's runs per cell, in column order.
PROTOCOL_RUNS = ("emergence", "t5_high", "t5_low_trust", "t5_low_rho",
                 "forgiveness", "diff_high", "diff_low")
_EMERGENCE_RUNS = PROTOCOL_RUNS[:4]
_FORGIVENESS_RUNS = PROTOCOL_RUNS[4:]

#: Distinct protocol runs per engine batch: bounds the engine state of
#: large grids (about 4 kB per row); much larger batches also run slower.
ROWS_PER_BATCH = 1024


def _bits(col: np.ndarray) -> np.ndarray:
    """A column compared bit for bit: floats as their int64 patterns."""
    return col.view(np.int64) if col.dtype == np.float64 else col


def _runs_column(values: Sequence, n_cells: int, dtype) -> np.ndarray:
    """The (cells, runs) column whose run r holds ``values[r]``, one value
    or a cell column; the one value as a 0-d array when every entry holds
    its bits."""
    out = np.empty((n_cells, len(values)), dtype=dtype)
    for r, value in enumerate(values):
        out[:, r] = value
    bits = _bits(out).reshape(-1)
    return out if (bits != bits[0]).any() else out[0, 0, ...].copy()


def _protocol_runs(
    cells: dict[str, np.ndarray],
    trust: dict[str, np.ndarray],
    rho0_extremes: tuple[float, float],
    kinds: Sequence[str] = PROTOCOL_RUNS,
) -> dict[str, np.ndarray]:
    """The engine parameters of the given protocol runs of every cell:
    entry [c, r] of a column belongs to run ``kinds[r]`` of cell row c under
    trust row c, and a column other than ``horizon`` with one value
    throughout is that value.

    Each run takes the cell's configuration and trust block, except for the
    values it sets itself (``varied``).  ``forgive`` marks the
    forgiveness-type runs and ``horizon`` is each run's length.
    """
    n_cells = len(cells["rho0"])
    lo, hi = rho0_extremes
    varied = {  # run -> the values it sets in place of the cell's
        "emergence": {},
        "t5_high": {"rho0": hi, "t0": T5_HIGH_TRUST},
        "t5_low_trust": {"rho0": hi, "t0": T5_LOW_TRUST},
        "t5_low_rho": {"rho0": lo, "t0": T5_HIGH_TRUST},
        "forgiveness": {},
        "diff_high": {"d": DIFF_HIGH},
        "diff_low": {"d": DIFF_LOW},
    }
    given = {**{f: trust[f] for f in TRUST_FIELDS},
             **{key: cells[key] for key in GRID_KEYS}}  # the cell's t0 over the trust block's
    out = {
        name: _runs_column([varied[run].get(name, col) for run in kinds], n_cells,
                           np.int64 if name == "memory_k" else float)
        for name, col in given.items()
    }
    out["forgive"] = _runs_column([run in _FORGIVENESS_RUNS for run in kinds], n_cells, bool)
    horizon = np.where(out["forgive"], 1 + 2 * out["memory_k"] + RECOVERY_PAD, WARMUP)
    out["horizon"] = np.broadcast_to(horizon, (n_cells, len(kinds)))
    return out


def _distinct_runs(runs: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One run of each distinct parameter set, longest horizon first, as
    flat indices into the (cells, runs) columns, and each entry's index
    among those runs.

    Two runs are one when every parameter holds the same bits.  A lexsort
    groups equal runs, since the horizon follows from the parameters.
    """
    shape = runs["horizon"].shape
    keys = [_bits(col).reshape(-1) for name, col in runs.items()
            if col.ndim and name != "horizon"]
    horizon = runs["horizon"].reshape(-1)
    order = np.lexsort(keys + [-horizon])  # the last key sorts first
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return order[new], ids.reshape(shape)


def _protocol_batch(runs: dict[str, np.ndarray]) -> RunBatch:
    """Engine rows of protocol runs given as (rows,) parameter columns.

    Emergence-type runs open at the start action against the lower start
    norm, with adaptive baselines, for the warm-up.  Forgiveness-type runs
    start after the flat warm-up, given as pre-history, with moving-average
    baselines and trust as the warm-up leaves it; the partner (actor 1) is
    scripted at the start action with one defection period at t* = 1, and
    the run lasts t* + 2k + pad periods.
    """
    size = len(runs["horizon"])
    forgive, horizon = runs["forgive"], runs["horizon"]
    d = np.where(np.eye(2, dtype=bool), 0.0, runs["d"][:, None, None])
    rows = {f: runs[f] for f in ("rho0", "eta", "kappa", "memory_k", "lambda_r") + TRUST_FIELDS}
    script = pre = None
    if forgive.any():
        script = np.full((int(horizon.max()), size, 2), np.nan)
        script[:, forgive, 1] = START_ACTION
        script[0, forgive, 1] = START_ACTION + DEFECTION  # period t*
        pre = np.full((WARMUP, size, 2), np.nan)
        pre[:, forgive] = START_ACTION
        # The warm-up's signals are all 0.0: its first trust update sets
        # trust to min(t0, t_max) and keeps reputation at 0, and the later
        # ones leave both as they are.
        warm = np.broadcast_to(rows["t0"][:, None, None], d.shape).copy()
        _update_trust_matrices(warm, np.zeros(d.shape), np.zeros(d.shape), _trust_rows(rows, d))
        rows["t0"] = np.where(forgive, warm[:, 0, 1], rows["t0"])
    baseline = np.where(forgive, START_ACTION, START_NORM)
    rows |= {
        "omega_amp": np.ones(size),
        "adjust_rate": np.full(size, ADJUST_RATE),
        "decay": np.full(size, DECAY),
        "baseline_rate": np.full(size, BASELINE_RATE),
        "noise_sigma": np.zeros(size),
        "seed": np.zeros(size, dtype=np.uint64),
        "d": d,
        "a_max": np.ones((size, 2)),
        "a_init": np.full((size, 2), START_ACTION),
        "baseline_init": np.repeat(baseline[:, None], 2, axis=1),
        "baseline_mode": np.where(forgive, BASELINE_MODES.index("moving_average"),
                                  BASELINE_MODES.index("adaptive")),
        "horizon": horizon,
    }
    return RunBatch(rows, script=script, pre_history=pre)


def recovery_times(signals: np.ndarray, horizon: np.ndarray, t_star: int) -> np.ndarray:
    """Per row, periods from the defection until the signal settles.

    ``signals[p, c]`` is row c's cooperation signal of the observer about
    the defector in period p + 1; periods past ``horizon[c]`` are not read.
    Recovery is the first period r >= t_star with |signal| < RECOVERY_TOL
    for RECOVERY_SUSTAIN consecutive periods; a row gets r - t_star, or
    NO_RECOVERY if its signal never settles within its horizon.
    """
    starts = signals.shape[0] - RECOVERY_SUSTAIN + 2 - t_star  # r = t_star, ...
    if starts < 1:
        return np.full(signals.shape[1], NO_RECOVERY)
    period = np.arange(1, signals.shape[0] + 1)[:, None]
    settled = (np.abs(signals) < RECOVERY_TOL) & (period <= horizon)
    held = np.logical_and.reduce(
        [settled[t_star - 1 + j : t_star - 1 + j + starts] for j in range(RECOVERY_SUSTAIN)]
    )
    return np.where(held.any(axis=0), held.argmax(axis=0), NO_RECOVERY)


def _measure_batch(runs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Run protocol runs given as (rows,) parameter columns (longest first)
    as one engine batch and keep, per run, what the targets read."""
    horizon = runs["horizon"]
    rows = len(horizon)
    actions = np.zeros((WARMUP, rows, 2))  # emergence-type runs' actions
    partner = np.zeros((int(horizon.max()), rows))  # 0's signal about 1
    response = np.empty(rows)  # gated response at the defection t* = 1
    peak = np.zeros(rows)  # largest |s| within the horizon

    def observe(idx: int, state) -> None:
        live = len(state["actions"])
        if idx < WARMUP:
            actions[idx, :live] = state["actions"]
        if idx == 0:
            response[:] = state["recip_term"][:, 0, 1]
        partner[idx, :live] = state["signal"][:, 0, 1]
        np.maximum(peak[:live], np.abs(state["signal"]).max(axis=(1, 2)), out=peak[:live])

    run_batch(_protocol_batch(runs), observe)

    def mean_actions(first: int) -> np.ndarray:
        # Each row's mean over periods first+1..warm-up and both actors, in
        # the order (and so with the bits) of np.mean on its own record.
        block = np.ascontiguousarray(actions[first:].transpose(1, 0, 2))
        return block.reshape(rows, -1).mean(axis=1)

    return {
        "steady": mean_actions(WARMUP - STEADY_WINDOW),
        "coop": mean_actions(0),
        "tau_f": recovery_times(partner, horizon, 1),
        "response": response,
        # tanh is odd and increasing, so this is the largest |tanh(kappa s)|.
        "bound": np.tanh(runs["kappa"] * peak),
    }


def _measure_runs(
    cells: dict[str, np.ndarray],
    trust: dict[str, np.ndarray],
    rho0_extremes: tuple[float, float],
    kinds: Sequence[str] = PROTOCOL_RUNS,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """What the targets read of each distinct one of the cells' protocol
    runs, and each (cell, run) entry's index among those runs.  Each
    distinct run goes through the engine once, in batches of
    ``ROWS_PER_BATCH`` runs taken longest first."""
    runs = _protocol_runs(cells, trust, rho0_extremes, kinds)
    first, ids = _distinct_runs(runs)
    # The distinct runs' columns, in place of the larger (cells, runs) ones.
    runs = {name: col.reshape(-1)[first] if col.ndim else col for name, col in runs.items()}
    parts = []
    for lo in range(0, len(first), ROWS_PER_BATCH):
        size = min(ROWS_PER_BATCH, len(first) - lo)
        parts.append(_measure_batch({name: col[lo : lo + size] if col.ndim else np.full(size, col)
                                     for name, col in runs.items()}))
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}, ids


def _default_trust(n: int) -> dict[str, np.ndarray]:
    default = TrustParams()
    return {f: np.full(n, getattr(default, f)) for f in TRUST_FIELDS}


def measure_cells(
    cells: dict[str, np.ndarray],
    trust: Optional[dict[str, np.ndarray]] = None,
    rho0_extremes: tuple[float, float] = RHO0_EXTREMES,
) -> dict[str, np.ndarray]:
    """Run the full protocol for every cell and score all six targets.

    ``cells`` holds the ``GRID_KEYS`` columns and ``trust`` the
    ``TrustParams`` columns of the same rows (None: the default block).
    Row c of the result table is cell c: its ``GRID_KEYS`` columns, the
    verdicts ``t1`` .. ``t6`` and the measurements behind them.  The engine
    runs each distinct protocol run once, however many cells share it (the
    T5 runs do not read a cell's rho0 or t0, the differentiation runs not
    its d), and only to that run's horizon; a cell's result does not depend
    on the other cells.
    """
    if trust is None:
        trust = _default_trust(len(cells["rho0"]))
    m, ids = _measure_runs(cells, trust, rho0_extremes)

    def of(run: str, key: str) -> np.ndarray:
        return m[key][ids[:, PROTOCOL_RUNS.index(run)]]

    steady = of("emergence", "steady")
    coop = {name: of(name, "coop") for name in _EMERGENCE_RUNS}
    tau_f = of("forgiveness", "tau_f")
    response_high = np.abs(of("diff_high", "response"))
    response_low = np.abs(of("diff_low", "response"))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = response_high / response_low  # inf over a zero response, NaN for 0 / 0
    max_abs = m["bound"][ids].max(axis=1)
    return {
        **{key: np.array(cells[key]) for key in GRID_KEYS},
        "t1": steady >= START_ACTION + EMERGENCE_MARGIN,
        "t2": of("forgiveness", "response") < 0.0,
        "t3": (tau_f != NO_RECOVERY) & (tau_f <= 2 * cells["memory_k"]),
        "t4": ratio > T4_RATIO,
        "t5": (coop["t5_high"] > coop["t5_low_trust"]) & (coop["t5_high"] > coop["t5_low_rho"]),
        "t6": max_abs <= 1.0,
        "steady_level": steady,
        "coop_mean": coop["emergence"],
        "coop_t5_high": coop["t5_high"],
        "coop_t5_low_trust": coop["t5_low_trust"],
        "coop_t5_low_rho": coop["t5_low_rho"],
        "tau_f": tau_f,
        "response_high": response_high,
        "response_low": response_low,
        "ratio": ratio,
        "max_abs_response": max_abs,
    }


def forgiveness_times(cells: dict[str, np.ndarray]) -> np.ndarray:
    """Each cell's forgiveness time ``tau_f`` under the default trust block:
    the protocol's forgiveness run alone, the same value ``measure_cells``
    reports."""
    m, ids = _measure_runs(cells, _default_trust(len(cells["rho0"])), RHO0_EXTREMES,
                           ("forgiveness",))
    return m["tau_f"][ids[:, 0]]


def measure_cell(cell: SweepCell) -> dict:
    """Run the full protocol for one configuration: its result row as
    Python scalars."""
    return {key: col.item() for key, col in measure_cells(columns([cell], GRID_KEYS)).items()}


def run_sweep(grid: ParameterGrid) -> dict[str, np.ndarray]:
    """Measure every configuration of the grid; row i is cell i."""
    return measure_cells(grid.columns(), rho0_extremes=grid.rho0_extremes())


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


def measure_targets(table: dict[str, np.ndarray]) -> TargetReport:
    total = len(table["t1"])
    rows = []
    for key in TARGETS:
        achieved = int(table[key].sum())
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


def differentiation_stats(table: dict[str, np.ndarray], seed: int = 0) -> StatsSummary:
    """Paired high-vs-low dependency analysis across the grid.

    The t test and effect size compare the per-cell response magnitudes;
    the Wilcoxon test checks the ratio distribution against the T4
    differentiation threshold ``T4_RATIO`` (one sided); the bootstrap interval covers
    the mean ratio.  The ratio mean, sd, interval and Wilcoxon test leave
    out the non-finite ratios and count them, and are None when no ratio is
    finite.  A grid too small for these tests is a configuration error.
    """
    # Checked here: the except below would report a bad seed (a
    # ConfigurationError, so a ValueError) as a grid too small.
    check_seed(seed)
    high, low, all_ratios = table["response_high"], table["response_low"], table["ratio"]
    ratios = all_ratios[np.isfinite(all_ratios)]
    mean = sd = lo = hi = w_stat = w_p = None
    try:
        t, df, p, _ = paired_ttest(high, low)
        d, _ = cohens_d(high, low)
        if len(ratios):
            lo, hi = bootstrap_ci(ratios, seed=seed)
            w_stat, w_p, _ = wilcoxon_signed_rank(ratios, T4_RATIO)
            mean, sd = float(ratios.mean()), float(ratios.std(ddof=1))
    except ValueError as exc:
        raise ConfigurationError(
            f"a {len(high)}-cell grid is too small for the differentiation "
            f"statistics: {exc}"
        ) from None
    return StatsSummary(
        mean=mean, sd=sd,
        t_stat=t, df=df, p_value=p, cohens_d=d,
        ci_lo=lo, ci_hi=hi, wilcoxon_stat=w_stat, wilcoxon_p=w_p,
        left_out=len(all_ratios) - len(ratios), total=len(all_ratios),
    )


#: The real-valued parameters robustness trials perturb, in draw order, by
#: the names a clamp reports: the reference cell's (t0 is the cell's), then
#: the default trust block's.  Each maps to the range its perturbed values
#: are clamped to, which lies inside the parameter's ``params.RANGES``
#: interval.  The memory window is an integer and stays.
_PERTURB_RANGES = {
    "rho0": (0.0, math.inf),
    "eta": (0.0, math.inf),
    "kappa": (1e-9, math.inf),
    "lambda_r": (0.0, math.inf),
    "t0": (0.0, 1.0),
    "d": (0.0, 1.0),
    "trust.lambda_plus": (1e-6, 0.999999),
    "trust.lambda_minus": (1e-6, 0.999999),
    "trust.xi": (0.0, math.inf),
    "trust.mu_r": (1e-6, 0.999999),
    "trust.delta_r": (1e-6, 0.999999),
    "trust.t_max": (1e-6, 1.0),
    "trust.theta_r": (0.0, 1.0),
    "trust.lambda_t": (0.0, math.inf),
}


@dataclass(frozen=True)
class MonteCarloReport:
    """The trials' result table (row t is trial t) and each trial's clamped
    parameter names."""

    table: dict[str, np.ndarray]
    clamped: tuple[tuple[str, ...], ...]
    perturb: float
    seed: int

    @property
    def n(self) -> int:
        return len(self.clamped)

    @property
    def all_targets(self) -> np.ndarray:
        """Per trial: whether all six targets pass."""
        return np.logical_and.reduce([self.table[key] for key in TARGETS])

    @property
    def all_targets_rate(self) -> float:
        return int(self.all_targets.sum()) / self.n

    @property
    def ratios(self) -> np.ndarray:
        return self.table["ratio"]

    @property
    def ratio_threshold_rate(self) -> float:
        return float((self.ratios >= T4_RATIO).mean())

    @property
    def min_ratio(self) -> float:
        """The smallest ratio; an undefined (NaN) ratio is skipped."""
        return float(np.fmin.reduce(self.ratios))

    @property
    def clamped_trials(self) -> int:
        return sum(1 for names in self.clamped if names)


def perturb_trials(
    trials: int, perturb: float, seed: int
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], tuple[tuple[str, ...], ...]]:
    """The robustness trials' configurations as columns (row t is trial t):
    every ``_PERTURB_RANGES`` parameter of the reference cell and the
    default trust block scaled by U(1-p, 1+p).

    Trial t's uniform for parameter s is ``uniform(derive_seed(seed, t), s,
    t)``; all of them come from one array call.  Perturbed values that
    leave their legal range are clamped and flagged.  Returns the
    ``GRID_KEYS`` and ``TrustParams`` columns and each trial's clamped
    parameter names.
    """
    check_seed(seed)
    names = tuple(_PERTURB_RANGES)
    base_trust = TrustParams()
    base = np.array([getattr(base_trust, name.removeprefix("trust.")) if "." in name
                     else getattr(REFERENCE_CELL, name) for name in names])
    lo, hi = np.array(list(_PERTURB_RANGES.values())).T
    t = np.arange(trials, dtype=np.uint64)
    u = uniform(derive_seed(seed, t)[:, None], np.arange(len(names), dtype=np.uint64)[None],
                t[:, None])
    raw = base * (1.0 + (2.0 * u - 1.0) * perturb)
    # min(hi, max(lo, raw)) as the built-ins break ties: the bound, then the value.
    value = np.where(raw > lo, raw, lo)
    value = np.where(value < hi, value, hi)
    # Every clamp interval lies inside the parameter's ``RANGES`` interval,
    # so a finite value is a legal one.
    if not np.isfinite(value).all():
        trial, s = np.argwhere(~np.isfinite(value))[0].tolist()
        raise ConfigurationError(f"{names[s].removeprefix('trust.')} must be finite, "
                                 f"got {value[trial, s].item()!r}")
    drawn = dict(zip(names, value.T))

    def column(name: str, default) -> np.ndarray:
        return drawn[name] if name in drawn else np.full(trials, default)

    cells = {key: column(key, getattr(REFERENCE_CELL, key)) for key in GRID_KEYS}
    trust = {f: column(f"trust.{f}", getattr(base_trust, f)) for f in TRUST_FIELDS}
    clamped = tuple(tuple(itertools.compress(names, row)) for row in (value != raw).tolist())
    return cells, trust, clamped


def monte_carlo(trials: int = 2000, perturb: float = 0.15, seed: int = 42) -> MonteCarloReport:
    """Robustness analysis around the reference configuration."""
    if trials < 2:
        raise ConfigurationError(f"trials must be >= 2, got {trials}")
    if not 0.0 <= perturb < math.inf:
        raise ConfigurationError(f"perturb must be finite and >= 0, got {perturb}")
    cells, trust, clamped = perturb_trials(trials, perturb, seed)
    table = measure_cells(cells, trust)
    return MonteCarloReport(table=table, clamped=clamped, perturb=perturb, seed=seed)
