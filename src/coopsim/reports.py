"""Markdown rendering of sweep, robustness, and case-study results.

Reports contain no timestamps or host details so identical runs produce
byte-identical files.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .case_study import (
    AUTO_INDICATORS,
    HUMAN_REFERENCE_SCORES,
    IOS_PHASES,
    RUBRIC_INDICATORS,
)
from .stats import BOOTSTRAP_LEVEL, StatsSummary, effect_size_label
from .sweep import T4_RATIO, MonteCarloReport


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def render_target_report(rows: Sequence[dict], stats: StatsSummary) -> str:
    """The target rows of ``sweep.measure_targets`` and the differentiation
    statistics; a statistic that is None is shown as n/a."""
    lines = [
        "# Behavioral target achievement",
        "",
        f"Configurations: {rows[0]['total']}",
        "",
        "| # | Target | Achieved | Rate | Threshold | Status |",
        "|---|--------|----------|------|-----------|--------|",
    ]
    for i, row in enumerate(rows, start=1):
        status = "pass" if row["pass"] else "FAIL"
        lines.append(
            f"| {i} | {row['name']} | {row['achieved']} / {row['total']} "
            f"| {_pct(row['rate'])} | >= {_pct(row['threshold'])} | {status} |"
        )
    lines.append("")
    # With no finite ratio there is no ratio statistic to show; a
    # degenerate test is shown with its reason.
    mean, ci, wilcoxon = "n/a (sd n/a)", "n/a", "n/a"
    if stats.mean is not None:
        mean = f"{stats.mean:.3f} (sd {stats.sd:.3f})"
        ci = f"[{stats.ci_lo:.3f}, {stats.ci_hi:.3f}]"
        wilcoxon = (f"n/a (every ratio equals {T4_RATIO})" if stats.wilcoxon_stat is None
                    else f"W+ = {stats.wilcoxon_stat:.1f}, p = {stats.wilcoxon_p:.3g}")
    t_test = ("n/a (the high - low differences have zero variance)" if stats.t_stat is None
              else f"{stats.t_stat:.2f}, p = {stats.p_value:.3g}")
    effect = ("n/a (both response samples have zero variance)" if stats.cohens_d is None
              else f"{stats.cohens_d:.3f} ({effect_size_label(stats.cohens_d)})")
    lines += [
        "## Differentiation analysis (high vs low dependency)",
        "",
        f"- mean ratio: {mean}",
    ]
    if stats.left_out:
        lines.append(f"- {stats.left_out} of {stats.total} ratios not finite, left out of "
                     "the mean, sd, bootstrap CI and Wilcoxon test")
    lines += [
        f"- bootstrap {BOOTSTRAP_LEVEL:.0%} CI of the mean ratio: {ci}",
        f"- paired t({stats.df}) = {t_test}",
        f"- Cohen's d = {effect}",
        f"- Wilcoxon signed-rank vs {T4_RATIO} (one-sided): {wilcoxon}",
        "",
    ]
    return "\n".join(lines)


def render_monte_carlo(report: MonteCarloReport) -> str:
    ratios = report.ratios
    # A trial whose low-dependency response is zero has an infinite ratio,
    # or an undefined (NaN) one when both responses are zero; the mean and
    # sd are taken over the finite ratios and the others are counted.
    finite = ratios[np.isfinite(ratios)]
    mean = f"{finite.mean():.3f}" if len(finite) else "n/a"
    sd = f"{finite.std(ddof=1):.3f}" if len(finite) > 1 else "n/a"
    if len(finite) < len(ratios):
        sd += f" ({len(ratios) - len(finite)} of {len(ratios)} ratios not finite, left out)"
    low = "n/a" if report.min_ratio is None else f"{report.min_ratio:.3f}"
    lines = [
        "# Robustness under parameter perturbation",
        "",
        "| Metric | Value |",
        "|--------|-------|",
        f"| Trials | {report.n} |",
        f"| Perturbation | +/-{_pct(report.perturb)} |",
        f"| All targets met | {int(report.all_targets.sum())} / "
        f"{report.n} ({_pct(report.all_targets_rate)}) |",
        f"| Mean differentiation ratio | {mean} |",
        f"| Ratio sd | {sd} |",
        f"| Minimum ratio | {low} |",
        f"| Ratio >= {T4_RATIO} | {_pct(report.ratio_threshold_rate)} |",
        f"| Trials with clamped parameters | {report.clamped_trials} |",
        "",
    ]
    return "\n".join(lines)


def phase_stats_csv(means: np.ndarray, sds: np.ndarray, labels: Sequence[str]) -> str:
    """The ``(5, n)`` phase means and sds of ``case_study.phase_statistics``."""
    lines = ["phase,start,end,actor,mean,sd"]
    for p, phase_means, phase_sds in zip(IOS_PHASES, means, sds):
        for lab, m, s in zip(labels, phase_means, phase_sds):
            lines.append(f"{p.name},{p.start},{p.end},{lab},{m:.12g},{s:.12g}")
    return "\n".join(lines) + "\n"


def render_rubric(auto: dict[int, tuple[float, ...]]) -> str:
    """The machine scores of ``case_study.score_rubric_auto`` beside the
    human reference assessment of the other indicators."""
    reference = [c for row in HUMAN_REFERENCE_SCORES.values() for c in row if c is not None]
    lines = [
        "# Validation rubric",
        "",
        f"Automated scoring covers indicators {', '.join(map(str, AUTO_INDICATORS[:-1]))}, "
        f"and {AUTO_INDICATORS[-1]}; the remaining",
        "indicators require documentary judgment and are reported with the",
        "reference assessment attached (`ref` columns).  `n/a` marks cells",
        "not applicable to a phase.",
        "",
        "| # | Indicator | " + " | ".join(p.name for p in IOS_PHASES) + " | Auto avg |",
        "|---|-----------|" + "---|" * (len(IOS_PHASES) + 1),
    ]
    for idx, name in enumerate(RUBRIC_INDICATORS, start=1):
        if idx in AUTO_INDICATORS:
            scores = auto[idx]
            cells = " | ".join(f"{v:g}" for v in scores)
            lines.append(f"| {idx} | {name} | {cells} | {sum(scores) / len(scores):.2f} |")
        else:
            cells = " | ".join("ref n/a" if v is None else f"ref {v:g}"
                               for v in HUMAN_REFERENCE_SCORES[idx])
            lines.append(f"| {idx} | {name} | {cells} | (manual) |")
    lines += [
        "",
        f"Reference assessment total: {sum(reference):g} / {len(reference)} applicable points.",
        "",
    ]
    return "\n".join(lines)


def render_counterfactual(base_means: np.ndarray, cf_means: np.ndarray, uplift: np.ndarray,
                          min_trust: float, labels: Sequence[str]) -> str:
    """One run pair's ``case_study.counterfactual_comparison``."""
    lines = [
        "# Counterfactual comparison",
        "",
        "| Actor | Baseline mean | Counterfactual mean | Uplift |",
        "|-------|---------------|---------------------|--------|",
    ]
    for lab, b, c, u in zip(labels, base_means, cf_means, uplift):
        lines.append(f"| {lab} | {b:.3f} | {c:.3f} | {100 * u:+.1f}% |")
    lines += [
        "",
        f"Minimum bilateral trust over the horizon: {min_trust:.3f}",
        "",
    ]
    return "\n".join(lines)
