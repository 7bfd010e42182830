import math
import random

import numpy as np
import pytest
import scipy.stats as sps

from coopsim import stats
from coopsim.rng import derive_seed
from coopsim.stats import (
    _resample_means,
    bootstrap_ci,
    cohens_d,
    effect_size_label,
    paired_ttest,
    wilcoxon_signed_rank,
)


class TestPairedTTest:
    def test_identical_samples(self):
        # zero-variance differences, zero or not, admit no test
        for y in ([1.0, 2.0, 3.0], [0.5, 1.5, 2.5]):
            assert paired_ttest([1.0, 2.0, 3.0], y) == (None, 2, None)

    def test_hand_formula(self):
        x = [2.0, 3.0, 4.0, 5.0]
        y = [1.0, 1.5, 2.5, 4.0]
        diff = np.array(x) - np.array(y)
        expected_t = diff.mean() / (diff.std(ddof=1) / math.sqrt(len(diff)))
        t, df, p = paired_ttest(x, y)
        assert t == pytest.approx(expected_t, rel=1e-12)
        assert df == 3

    def test_matches_reference_implementation(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(5, 60)
            x = [rng.gauss(1.0, 2.0) for _ in range(n)]
            y = [rng.gauss(0.5, 1.5) for _ in range(n)]
            t, df, p = paired_ttest(x, y)
            ref = sps.ttest_rel(x, y)
            assert t == pytest.approx(ref.statistic, rel=1e-9)
            assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)


class TestCohensD:
    def test_identical(self):
        assert cohens_d([1.0, 1.0, 2.0], [1.0, 1.0, 2.0]) == 0.0
        # both samples constant: no spread to scale by
        assert cohens_d([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) is None

    def test_unit_effect(self):
        rng = random.Random(3)
        x = [rng.gauss(2.0, 1.0) for _ in range(4000)]
        y = [rng.gauss(1.0, 1.0) for _ in range(4000)]
        d = cohens_d(x, y)
        assert d == pytest.approx(1.0, abs=0.08)

    def test_symmetric_pooled_form(self):
        x = [0.0, 2.0, 4.0]
        y = [1.0, 1.0, 1.0, 7.0]
        sx, sy = np.var(x, ddof=1), np.var(y, ddof=1)
        expected = (np.mean(x) - np.mean(y)) / math.sqrt((sx + sy) / 2)
        d = cohens_d(x, y)
        assert d == pytest.approx(expected, rel=1e-12)

    def test_interpretation_bands(self):
        assert effect_size_label(0.1) == "negligible"
        assert effect_size_label(0.3) == "small"
        assert effect_size_label(0.6) == "medium"
        assert effect_size_label(0.8) == "large"
        assert effect_size_label(1.57) == "large"


class TestBootstrap:
    def test_constant_sample(self):
        lo, hi = bootstrap_ci([3.5] * 10, seed=1)
        assert lo == hi == 3.5

    def test_mean_contained(self):
        rng = random.Random(9)
        sample = [rng.gauss(5, 2) for _ in range(40)]
        lo, hi = bootstrap_ci(sample, seed=2)
        assert lo <= np.mean(sample) <= hi

    def test_deterministic_given_seed(self):
        sample = [1.0, 4.0, 2.0, 8.0, 5.0]
        assert bootstrap_ci(sample, seed=7) == bootstrap_ci(sample, seed=7)

    def test_coverage_on_synthetic_normals(self, monkeypatch):
        # percentile interval of the mean covers the true mean about 95% of
        # the time; 500 trials of 400 resamples, tolerance band [92%, 98%]
        monkeypatch.setattr(stats, "BOOTSTRAP_REPLICATES", 400)
        hits = 0
        trials = 500
        gen = np.random.default_rng(123)
        for trial in range(trials):
            sample = gen.normal(0.0, 1.0, size=35)
            lo, hi = bootstrap_ci(sample, seed=derive_seed(11, trial))
            if lo <= 0.0 <= hi:
                hits += 1
        assert 0.92 * trials <= hits <= 0.98 * trials


class TestWilcoxon:
    def test_all_equal_is_degenerate(self):
        assert wilcoxon_signed_rank([2.0] * 10, 2.0) == (None, None)

    def test_every_difference_tied_still_has_variance(self):
        # the tie-corrected variance is smallest with every |difference|
        # tied, n(n + 1)(3n + 3) / 48, and still positive
        for n in (6, 10, 61):
            stat, p = wilcoxon_signed_rank([-1.0] * n, 0.0)
            z = (0.0 - n * (n + 1) / 4.0 - 0.5) / math.sqrt(n * (n + 1) * (3 * n + 3) / 48.0)
            assert stat == 0.0 and p == pytest.approx(1.0 - stats._normal_cdf(z), rel=1e-12)

    def test_extreme_ordering(self):
        stat, p = wilcoxon_signed_rank([2.0, 2.1, 2.5, 3.0, 2.2, 2.9], 1.5)
        assert stat == 21.0  # every rank, 1 to 6, is positive
        assert p < 0.05

    def test_matches_reference_implementation(self):
        # each sample also rounded to tenths and to integers, which ties
        # |differences| (and makes zeros, which both implementations drop)
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(8, 60)
            raw = [rng.gauss(0.3, 1.0) for _ in range(n)]
            for sample in (raw, [round(v, 1) for v in raw], [round(v) for v in raw]):
                if all(abs(v) < 1e-12 for v in sample):
                    continue
                stat, p = wilcoxon_signed_rank(sample, 0.0)
                ref = sps.wilcoxon(np.array(sample, dtype=float), alternative="greater",
                                   correction=True, method="approx")
                assert stat == pytest.approx(ref.statistic, abs=1e-9)
                assert p == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-9)

    def test_needs_six_nonzero(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0], 0.0)


def _reference_bootstrap(sample, replicates, seed, level=0.95):
    """Per-replicate scalar bootstrap: one resample and one np.mean at a time."""
    arr = np.asarray(sample, dtype=float)
    rng = np.random.default_rng(derive_seed(seed, 0x626F6F74))
    means = np.array([np.mean(arr[rng.integers(0, arr.size, size=arr.size)])
                      for _ in range(replicates)])
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return means, (float(lo), float(hi))


# odd n, even n, a partial last chunk (729 -> 27 rows a chunk), and n above
# one chunk (one replicate a chunk)
@pytest.mark.parametrize("n, replicates", [(7, 3001), (8, 3000), (729, 1000),
                                           (20_001, 30), (45_000, 7)])
def test_bootstrap_matches_per_replicate_reference(n, replicates, monkeypatch):
    sample = np.random.default_rng(n).normal(size=n)
    means, interval = _reference_bootstrap(sample, replicates, seed=13)
    assert np.array_equal(_resample_means(sample, replicates, 13), means)
    monkeypatch.setattr(stats, "BOOTSTRAP_REPLICATES", replicates)
    assert bootstrap_ci(sample, seed=13) == interval
