"""Built-in platform-ecosystem case study (Apple iOS App Store, 2008-2024).

Three aggregated actors -- the platform provider (Apple), major developers,
and small developers -- interact over 66 quarters spanning five documented
phases: symbiosis, maturation, tension, crisis, and adjustment.  The
dependency criticalities come from the shipped table
``data/ios_dependencies.csv``; the other scenario constants (elicited
parameters, shock schedule) are fixed here.  Phase analytics, the
auto-scorable subset of the 12-indicator validation rubric, and the
early-concession counterfactual build on the shared simulation engine.

Phase boundaries and shocks: the phases are the fixed partition
``IOS_PHASES`` of the 66 quarters, each at least six quarters long, and the
phase analytics take only a trajectory of that length.  The triggering
event of each transition lands on the closing quarter of the preceding
phase (commission criticism at Q36, the lawsuit escalation at Q48, the
policy concession at Q54); the maturation transition at Q16 is endogenous,
with no shock.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .files import read_dependency_csv
from .params import (
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TrustParams,
    compute_interdependence,
)
from .reciprocity import gate_matrix
from .scenario import ScenarioConfig, Shock, SimConfig
from .simulation import RunBatch, Trajectory, record_batch, run

ACTORS = ("Apple", "Major", "Small")

#: Elicited parameter constants.  The trust deadband is 2.5x the action
#: noise scale so quarter-to-quarter jitter does not register as trust
#: events; documented policy moves (0.15-0.40) all clear it.
IOS_RECIP = ReciprocityParams(
    rho0=0.85, eta=1.3, kappa=1.2, memory_k=4, lambda_r=1.0, omega_amp=0.6
)
IOS_TRUST = TrustParams(
    t0=0.70, lambda_plus=0.10, lambda_minus=0.30, xi=0.50,
    mu_r=0.60, delta_r=0.03, t_max=0.90, theta_r=0.60, lambda_t=1.0,
    deadband=0.05,
)

HORIZON = 66
INITIAL_ACTIONS = (0.70, 0.65, 0.68)
#: The pre-launch cooperative norm: launch-era cooperation (0.65-0.70)
#: reads as strongly above expectations until the norm catches up, which
#: drives the symbiosis climb; the norm's catch-up is the endogenous
#: maturation transition.
INITIAL_BASELINES = (0.40, 0.40, 0.40)
#: Pre-launch ramp seeding the k = 4 observation window, so launch-era
#: windowed signals read the rising momentum.
PRE_HISTORY = (
    (0.55, 0.50, 0.53),
    (0.59, 0.54, 0.57),
    (0.63, 0.58, 0.61),
    (0.67, 0.62, 0.65),
)
NOISE_SIGMA = 0.02
#: Norm re-anchoring rate: expectations re-anchor over roughly a year,
#: which lets the documented adjustment-phase recovery register as
#: above-norm cooperation.
NORM_RATE = 0.22
#: Fixed seed of the released scenario, so the shipped baseline run is
#: reproducible and representative of the noise-free structure.
DEFAULT_SEED = 186

BASELINE_SHOCKS = (
    Shock(period=36, actor=1, delta=-0.15),  # commission criticism: major devs
    Shock(period=36, actor=2, delta=-0.15),  # commission criticism: small devs
    Shock(period=48, actor=1, delta=-0.40),  # lawsuit escalation: major devs
    Shock(period=48, actor=0, delta=-0.25),  # enforcement response: platform
    Shock(period=54, actor=0, delta=+0.20),  # policy concession: platform
)

COUNTERFACTUAL_SHOCKS = (
    Shock(period=36, actor=1, delta=-0.05),
    Shock(period=36, actor=2, delta=-0.05),
    Shock(period=44, actor=0, delta=+0.15),  # proactive early concession
    Shock(period=48, actor=1, delta=-0.10),
    Shock(period=48, actor=0, delta=-0.10),
    Shock(period=54, actor=0, delta=+0.20),
)


@dataclass(frozen=True)
class PhaseSpec:
    name: str
    start: int
    end: int  # inclusive


#: The five documented phases: a fixed partition of quarters 1..HORIZON.
IOS_PHASES = (
    PhaseSpec("Symbiosis", 1, 16),
    PhaseSpec("Maturation", 17, 36),
    PhaseSpec("Tension", 37, 48),
    PhaseSpec("Crisis", 49, 54),
    PhaseSpec("Adjustment", 55, 66),
)


def _phase_blocks(series: np.ndarray) -> list[np.ndarray]:
    """Each phase's quarters of a per-quarter series, which must span the
    case study's ``HORIZON`` quarters."""
    if len(series) != HORIZON:
        raise ConfigurationError(
            f"the case-study phases need a {HORIZON}-quarter trajectory, got {len(series)}")
    return [series[p.start - 1 : p.end] for p in IOS_PHASES]


def ios_dependency_csv_path() -> str:
    """Filesystem path of the shipped dependency table."""
    from importlib.resources import files as resource_files

    return str(resource_files("coopsim").joinpath("data/ios_dependencies.csv"))


@functools.cache
def ios_interdependence() -> InterdependenceMatrix:
    """D of the shipped dependency table, whose actors appear in ``ACTORS`` order."""
    labels, entries = read_dependency_csv(ios_dependency_csv_path())
    return compute_interdependence(entries, len(labels))


def build_ios_scenario(counterfactual: bool = False,
                       seed: int = DEFAULT_SEED) -> tuple[ScenarioConfig, SimConfig]:
    """Assemble the case-study scenario and run configuration.

    The counterfactual variant attenuates the tension and crisis shocks and
    adds a proactive platform concession at Q44; it reuses the baseline
    noise seed, so the two runs share one noise block (see
    :func:`run_ios_pair`).
    """
    scenario = ScenarioConfig(
        labels=ACTORS,
        d=ios_interdependence(),
        recip=IOS_RECIP,
        trust=IOS_TRUST,
        econ=EconomyParams(
            endowments=(100.0, 100.0, 100.0),
            alpha=(0.4, 0.3, 0.3),
            theta_v=20.0,
            gamma=0.65,
            value_form="logarithmic",
        ),
        a_max=(1.0, 1.0, 1.0),
        a_init=INITIAL_ACTIONS,
        baseline_init=INITIAL_BASELINES,
        baseline_mode="adaptive",
        pre_history=PRE_HISTORY,
    )
    sim = SimConfig(
        horizon=HORIZON, mode="adjustment",
        adjust_rate=0.12, decay=0.05, baseline_rate=NORM_RATE,
        noise_sigma=NOISE_SIGMA, seed=seed,
        shocks=COUNTERFACTUAL_SHOCKS if counterfactual else BASELINE_SHOCKS,
    )
    return scenario, sim


def run_ios(seed: int = DEFAULT_SEED) -> Trajectory:
    """The baseline run alone; :func:`run_ios_pair` gives the counterfactual."""
    return run(*build_ios_scenario(False, seed))


def run_ios_pair(seed: int = DEFAULT_SEED) -> tuple[Trajectory, Trajectory]:
    """``(baseline, counterfactual)``: the runs of both ``build_ios_scenario``
    variants, advanced together as one two-row batch that draws one noise
    block."""
    batch = RunBatch.of([build_ios_scenario(counterfactual, seed)
                         for counterfactual in (False, True)])
    base, cf = record_batch(batch, ACTORS)
    return base, cf


@dataclass(frozen=True)
class PhaseStats:
    """Per-phase, per-actor mean and standard deviation of cooperation."""

    phase: str
    start: int
    end: int
    means: tuple[float, ...]
    sds: tuple[float, ...]


def phase_statistics(traj: Trajectory) -> list[PhaseStats]:
    return [
        PhaseStats(
            phase=p.name, start=p.start, end=p.end,
            means=tuple(float(x) for x in block.mean(axis=0)),
            sds=tuple(float(x) for x in block.std(axis=0, ddof=0)),
        )
        for p, block in zip(IOS_PHASES, _phase_blocks(traj.actions))
    ]


#: Transition detection: a disruption moves aggregate cooperation by more
#: than JUMP_THRESHOLD in one quarter; the norm is institutionalized once
#: the remaining gap to cooperation is below NORM_GAP.
JUMP_THRESHOLD = 0.05
NORM_GAP = 0.03


def detect_transitions(traj: Trajectory) -> dict[str, Optional[int]]:
    """Detected transition quarter opening each phase (None if not found).

    Disruption-driven transitions are quarters where the aggregate
    cooperation level moves by more than ``JUMP_THRESHOLD`` in one quarter.
    The endogenous maturation transition is when the cooperative norm has
    been institutionalized: norms grow at ``NORM_RATE * gap`` while the
    climb lasts, so the transition is the first quarter at which the
    three-quarter norm growth implies a remaining gap below ``NORM_GAP``.
    The first phase has no transition and maps to quarter 1.
    """
    _phase_blocks(traj.actions)  # only a HORIZON-quarter trajectory has the phases
    m = traj.actions.mean(axis=1)
    norms = traj.norms.mean(axis=1)
    detected_shocks = sorted(
        q + 1 for q in range(1, HORIZON) if abs(m[q] - m[q - 1]) > JUMP_THRESHOLD
    )

    plateau = None
    slope_threshold = NORM_RATE * NORM_GAP
    for q in range(6, HORIZON + 1):
        if (norms[q - 1] - norms[q - 4]) / 3.0 < slope_threshold:
            plateau = q - 1
            break

    out: dict[str, Optional[int]] = {IOS_PHASES[0].name: 1, IOS_PHASES[1].name: plateau}
    for p in IOS_PHASES[2:]:
        best = None
        for q in detected_shocks:
            if best is None or abs(q - (p.start - 1)) < abs(best - (p.start - 1)):
                best = q
        out[p.name] = best
    return out


RUBRIC_INDICATORS = (
    "Cooperation trend direction",
    "Response magnitude",
    "Memory effects visible",
    "Asymmetry reflects power",
    "Trust-reciprocity alignment",
    "Punishment following violation",
    "Forgiveness dynamics",
    "Phase transition timing",
    "Recovery trajectory shape",
    "Equilibrium stability",
    "Parameter sensitivity",
    "Overall qualitative fit",
)

#: Indicators the scorer can compute from a trajectory alone.
AUTO_INDICATORS = (1, 4, 8, 10)

#: Reference scores from the documented human assessment (None = not
#: applicable for that phase).  Applicable total: 51; reference total: 43.0.
HUMAN_REFERENCE_SCORES: dict[int, tuple[Optional[float], ...]] = {
    1: (1.0, 1.0, 1.0, 0.5, 1.0),
    2: (1.0, 1.0, 0.0, 0.0, 0.5),
    3: (0.5, 1.0, 0.5, 0.5, 1.0),
    4: (1.0, 1.0, 1.0, 1.0, 1.0),
    5: (1.0, 1.0, 1.0, 1.0, 0.5),
    6: (None, 1.0, 1.0, 0.5, 1.0),
    7: (None, None, None, None, 0.5),
    8: (1.0, 1.0, 1.0, 1.0, 1.0),
    9: (None, None, None, None, 1.0),
    10: (1.0, 1.0, 1.0, 1.0, 1.0),
    11: (1.0, 1.0, 1.0, 0.5, 1.0),
    12: (1.0, 1.0, 0.5, 0.5, 0.5),
}

#: Expected per-phase trend signs: +1 rising, 0 stable, -1 falling.
EXPECTED_TRENDS = (+1, 0, -1, -1, +1)


@dataclass(frozen=True)
class RubricScore:
    """Auto-scored rubric cells plus the attached human reference.

    ``auto[i]`` holds the machine scores for indicator i (1-based) across
    the five phases, None where not applicable.  Indicators outside the
    automated subset carry None in ``auto`` and are reported through
    ``reference`` only.
    """

    auto: dict[int, tuple[Optional[float], ...]]
    reference: dict[int, tuple[Optional[float], ...]]

    def auto_average(self, indicator: int) -> float:
        cells = [c for c in self.auto[indicator] if c is not None]
        return sum(cells) / len(cells) if cells else math.nan

    @staticmethod
    def reference_total() -> tuple[float, float]:
        total = sum(
            c for row in HUMAN_REFERENCE_SCORES.values() for c in row if c is not None
        )
        applicable = sum(
            1 for row in HUMAN_REFERENCE_SCORES.values() for c in row if c is not None
        )
        return total, float(applicable)


def _gate_matrix(traj: Trajectory) -> list[tuple[float, float]]:
    """Per phase: (developer-side, platform-side) mean trust-gated response weights."""
    gate = gate_matrix(ios_interdependence().values, IOS_RECIP)
    out = []
    for block in _phase_blocks(traj.trust):
        weighted = block.mean(axis=0) * gate
        out.append((float(weighted[1, 0] + weighted[2, 0]),
                    float(weighted[0, 1] + weighted[0, 2])))
    return out


def _band_score(value: float, good: float, partial: float) -> float:
    if value <= good:
        return 1.0
    if value <= partial:
        return 0.5
    return 0.0


def _trend_score(delta: float, expected: int, band: float) -> float:
    if expected == 0:
        return _band_score(abs(delta), band, 2 * band)
    signed = delta * expected
    if signed > band:
        return 1.0
    if signed > 0:
        return 0.5
    return 0.0


def _body_end(p: PhaseSpec, is_last: bool) -> int:
    # Transition shocks land on closing quarters; the phase body excludes
    # them so the triggering event does not mask the phase character.
    return p.end if is_last else p.end - 1


def score_rubric_auto(traj: Trajectory) -> RubricScore:
    """Score the automatable indicators, ``AUTO_INDICATORS``, phase by phase."""
    blocks = _phase_blocks(traj.actions)
    m = traj.actions.mean(axis=1)
    n_phases = len(IOS_PHASES)

    # Indicator 1: trend direction, measured between phase-body endpoints
    # (two-quarter means for noise robustness).
    def ref_level(q: int) -> float:
        return float(m[q - 2 : q].mean())

    trend_scores = []
    prev_ref = ref_level(2)
    for idx, p in enumerate(IOS_PHASES):
        ref = ref_level(_body_end(p, idx == n_phases - 1))
        trend_scores.append(_trend_score(ref - prev_ref, EXPECTED_TRENDS[idx], band=0.05))
        prev_ref = ref

    # Indicator 4: structural power asymmetry shows up in the response
    # weights: the developers' trust-gated reciprocity capacity toward the
    # platform exceeds the platform's toward them in every phase.
    asym_scores = [
        1.0 if dev > apple else 0.0 for dev, apple in _gate_matrix(traj)
    ]

    # Indicator 8: transition timing within one quarter of the phase's
    # opening transition (the closing quarter of the preceding phase).
    transitions = detect_transitions(traj)
    timing_scores = []
    for idx, p in enumerate(IOS_PHASES):
        if idx == 0:
            timing_scores.append(1.0)
            continue
        q = transitions.get(p.name)
        if q is None:
            timing_scores.append(0.0)
        else:
            err = abs(q - (p.start - 1))
            timing_scores.append(1.0 if err <= 1 else (0.5 if err <= 2 else 0.0))

    # Indicator 10: within-phase stability after removing the phase trend.
    stab_scores = []
    for block in blocks:
        q = np.arange(block.shape[0], dtype=float)
        resid_sd = []
        for col in range(block.shape[1]):
            series = block[:, col]
            resid = series - np.polyval(np.polyfit(q, series, 1), q)
            resid_sd.append(float(resid.std(ddof=0)))
        stab_scores.append(_band_score(float(np.mean(resid_sd)), 0.15, 0.22))

    auto: dict[int, tuple[Optional[float], ...]] = {
        i: tuple([None] * n_phases) for i in range(1, 13)
    }
    scores = (trend_scores, asym_scores, timing_scores, stab_scores)  # AUTO_INDICATORS order
    auto.update(zip(AUTO_INDICATORS, map(tuple, scores)))
    return RubricScore(auto=auto, reference=dict(HUMAN_REFERENCE_SCORES))


@dataclass(frozen=True)
class CounterfactualComparison:
    uplift: tuple[float, ...]  # relative whole-horizon mean-cooperation gain
    base_means: tuple[float, ...]
    cf_means: tuple[float, ...]
    min_bilateral_trust: float  # over the counterfactual horizon


def counterfactual_comparison(base: Trajectory, cf: Trajectory) -> CounterfactualComparison:
    """Per-actor relative uplift of the counterfactual over the baseline."""
    if base.horizon != cf.horizon or base.n != cf.n:
        raise ConfigurationError("trajectories must share horizon and actor count")
    base_means = base.actions.mean(axis=0)
    cf_means = cf.actions.mean(axis=0)
    uplift = (cf_means - base_means) / base_means
    mask = ~np.eye(cf.n, dtype=bool)
    min_trust = float(cf.trust[:, mask].min())
    return CounterfactualComparison(
        uplift=tuple(float(u) for u in uplift),
        base_means=tuple(float(x) for x in base_means),
        cf_means=tuple(float(x) for x in cf_means),
        min_bilateral_trust=min_trust,
    )
