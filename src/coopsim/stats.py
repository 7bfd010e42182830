"""Self-contained statistical routines used by the validation harness.

Implemented directly from the textbook formulas (paired t on differences,
the symmetric two-sample pooled effect size, percentile bootstrap, and the
one-sided Wilcoxon signed-rank normal approximation with mid-ranks and
continuity correction) so the test suite can verify them against an
independent reference implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .params import check_seed
from .rng import derive_seed


@dataclass(frozen=True)
class StatsSummary:
    mean: Optional[float]
    sd: Optional[float]
    t_stat: Optional[float]
    df: Optional[int]
    p_value: Optional[float]
    cohens_d: Optional[float]
    ci_lo: Optional[float]
    ci_hi: Optional[float]
    wilcoxon_stat: Optional[float]
    wilcoxon_p: Optional[float]
    # Values the mean, sd, interval and Wilcoxon test left out as not
    # finite, and the number of values; those four are None when every
    # value is left out.
    left_out: int = 0
    total: int = 0


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _t_sf(t: float, df: int) -> float:
    """Upper tail of Student's t via the regularized incomplete beta function."""
    if df <= 0:
        raise ValueError("df must be positive")
    x = df / (df + t * t)
    p = 0.5 * _betainc_reg(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) by continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _off_zero(v: float) -> float:
    """``v``, or 1e-300 when it is that close to zero, so Lentz's method
    never divides by zero."""
    return 1e-300 if abs(v) < 1e-300 else v


def _beta_cf(a: float, b: float, x: float, max_iters: int = 300, eps: float = 1e-14) -> float:
    """The incomplete beta function's continued fraction by the modified
    Lentz method: each m takes an even and an odd coefficient, and the
    fraction has converged once an odd step moves it by less than ``eps``."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, max_iters + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _off_zero(1.0 + aa * d)
            c = _off_zero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def paired_ttest(x: Sequence[float], y: Sequence[float]):
    """Two-sided paired t-test on the differences x - y.

    Returns (t, df, p); t and p are None when the differences have zero
    variance, where no test is possible.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.size < 2:
        raise ValueError("paired samples must have equal length >= 2")
    diff = xa - ya
    n = diff.size
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        return None, n - 1, None
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * _t_sf(abs(t), n - 1)
    return t, n - 1, min(1.0, p)


def cohens_d(x: Sequence[float], y: Sequence[float]):
    """Effect size (mean x - mean y) / sqrt((s_x^2 + s_y^2) / 2).

    The symmetric pooled form is used regardless of sample sizes.  None
    when both samples have zero variance.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size < 2 or ya.size < 2:
        raise ValueError("each sample needs size >= 2")
    pooled = math.sqrt((xa.var(ddof=1) + ya.var(ddof=1)) / 2.0)
    if pooled == 0.0:
        return None
    return float((xa.mean() - ya.mean()) / pooled)


def effect_size_label(d: float) -> str:
    ad = abs(d)
    if ad < 0.2:
        return "negligible"
    if ad < 0.5:
        return "small"
    if ad < 0.8:
        return "medium"
    return "large"


#: Resample indices drawn per chunk: bounds the index matrix's memory.
_BOOTSTRAP_CHUNK = 20_000
#: Resamples of one bootstrap interval, and its coverage.
BOOTSTRAP_REPLICATES = 10_000
BOOTSTRAP_LEVEL = 0.95


def _resample_means(sample: np.ndarray, replicates: int, seed: int) -> np.ndarray:
    """Means of the seeded bootstrap resamples, in replicate order.

    Replicate r is row r of one ``integers(0, n, size=(m, n))`` stream,
    drawn in chunks of about ``_BOOTSTRAP_CHUNK`` indices; the generator
    yields the same indices whatever the chunking, and each row mean has
    the bits of ``np.mean`` on that resample.
    """
    rng = np.random.default_rng(derive_seed(seed, 0x626F6F74))
    n = sample.size
    rows = max(1, _BOOTSTRAP_CHUNK // n)
    means = np.empty(replicates)
    for lo in range(0, replicates, rows):
        hi = min(lo + rows, replicates)
        means[lo:hi] = sample[rng.integers(0, n, size=(hi - lo, n))].mean(axis=1)
    return means


def bootstrap_ci(sample: Sequence[float], seed: int = 0) -> tuple[float, float]:
    """Seeded ``BOOTSTRAP_LEVEL`` percentile bootstrap interval for the mean,
    over ``BOOTSTRAP_REPLICATES`` resamples.

    Resampling indices come from a generator seeded deterministically from
    ``seed``, so intervals are reproducible.
    """
    check_seed(seed)
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise ValueError("sample must be nonempty")
    alpha = (1.0 - BOOTSTRAP_LEVEL) / 2.0
    lo, hi = np.quantile(_resample_means(arr, BOOTSTRAP_REPLICATES, seed), [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def wilcoxon_signed_rank(sample: Sequence[float], mu0: float = 0.0):
    """One-sided Wilcoxon signed-rank test of median > mu0.

    Zero differences are excluded, ties get mid-ranks, and the normal
    approximation is applied with a 0.5 continuity correction and the
    standard tie adjustment of the variance.  Returns (W+, p), both None
    when every difference is zero.
    """
    arr = np.asarray(sample, dtype=float) - mu0
    arr = arr[arr != 0.0]
    n = arr.size
    if n == 0:
        return None, None
    if n < 6:
        raise ValueError("normal approximation needs at least 6 nonzero differences")
    # each distinct |difference| once, in order: its tied run ends at rank
    # cumsum(counts), so its mid-rank is that end less (count - 1) / 2
    _, inverse, counts = np.unique(np.abs(arr), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    w_plus = float(ranks[arr > 0].sum())
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction; at least n(n + 1)(3n + 3) / 48 > 0, when every
    # difference is tied
    var -= float(((counts**3 - counts).sum())) / 48.0
    z = (w_plus - mean - 0.5) / math.sqrt(var)
    return w_plus, 1.0 - _normal_cdf(z)
