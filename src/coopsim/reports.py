"""Markdown rendering of sweep, robustness, and case-study results.

Reports contain no timestamps or host details so identical runs produce
byte-identical files.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .case_study import (
    AUTO_INDICATORS,
    IOS_PHASES,
    RUBRIC_INDICATORS,
    CounterfactualComparison,
    PhaseStats,
    RubricScore,
)
from .stats import BOOTSTRAP_LEVEL, StatsSummary, effect_size_label
from .sweep import T4_RATIO, MonteCarloReport, TargetReport


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def render_target_report(report: TargetReport, grid_size: int,
                         stats: Optional[StatsSummary] = None) -> str:
    lines = [
        "# Behavioral target achievement",
        "",
        f"Configurations: {grid_size}",
        "",
        "| # | Target | Achieved | Rate | Threshold | Status |",
        "|---|--------|----------|------|-----------|--------|",
    ]
    for i, row in enumerate(report.rows, start=1):
        status = "pass" if row["pass"] else "FAIL"
        lines.append(
            f"| {i} | {row['name']} | {row['achieved']} / {row['total']} "
            f"| {_pct(row['rate'])} | >= {_pct(row['threshold'])} | {status} |"
        )
    lines.append("")
    if stats is not None:
        # With no finite ratio there is no ratio statistic to show.
        mean, ci, wilcoxon = "n/a (sd n/a)", "n/a", "n/a"
        if stats.mean is not None:
            mean = f"{stats.mean:.3f} (sd {stats.sd:.3f})"
            ci = f"[{stats.ci_lo:.3f}, {stats.ci_hi:.3f}]"
            wilcoxon = f"W+ = {stats.wilcoxon_stat:.1f}, p = {stats.wilcoxon_p:.3g}"
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
            f"- paired t({stats.df}) = {stats.t_stat:.2f}, p = {stats.p_value:.3g}",
            f"- Cohen's d = {stats.cohens_d:.3f} ({effect_size_label(stats.cohens_d)})",
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
        f"| Minimum ratio | {report.min_ratio:.3f} |",
        f"| Ratio >= {T4_RATIO} | {_pct(report.ratio_threshold_rate)} |",
        f"| Trials with clamped parameters | {report.clamped_trials} |",
        "",
    ]
    return "\n".join(lines)


def phase_stats_csv(stats: Sequence[PhaseStats], labels: Sequence[str]) -> str:
    lines = ["phase,start,end,actor,mean,sd"]
    for p in stats:
        for lab, m, s in zip(labels, p.means, p.sds):
            lines.append(f"{p.phase},{p.start},{p.end},{lab},{m:.12g},{s:.12g}")
    return "\n".join(lines) + "\n"


def render_rubric(score: RubricScore) -> str:
    ref_total, applicable = RubricScore.reference_total()
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

    def cell(value) -> str:
        return "n/a" if value is None else f"{value:g}"

    for idx, name in enumerate(RUBRIC_INDICATORS, start=1):
        if idx in AUTO_INDICATORS:
            cells = " | ".join(cell(v) for v in score.auto[idx])
            avg = score.auto_average(idx)
            lines.append(f"| {idx} | {name} | {cells} | {avg:.2f} |")
        else:
            cells = " | ".join(f"ref {cell(v)}" for v in score.reference[idx])
            lines.append(f"| {idx} | {name} | {cells} | (manual) |")
    lines += [
        "",
        f"Reference assessment total: {ref_total:g} / {applicable:g} applicable points.",
        "",
    ]
    return "\n".join(lines)


def render_counterfactual(cmp: CounterfactualComparison, labels: Sequence[str]) -> str:
    lines = [
        "# Counterfactual comparison",
        "",
        "| Actor | Baseline mean | Counterfactual mean | Uplift |",
        "|-------|---------------|---------------------|--------|",
    ]
    for lab, b, c, u in zip(labels, cmp.base_means, cmp.cf_means, cmp.uplift):
        lines.append(f"| {lab} | {b:.3f} | {c:.3f} | {100 * u:+.1f}% |")
    lines += [
        "",
        f"Minimum bilateral trust over the horizon: {cmp.min_bilateral_trust:.3f}",
        "",
    ]
    return "\n".join(lines)
