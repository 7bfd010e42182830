import numpy as np
import pytest

from coopsim.params import TrustParams
from coopsim.simulation import TRUST_FIELDS, _trust_rows, _update_trust_matrices

DEFAULTS = TrustParams()


def columns(params):
    """(B,) trust-parameter columns, one row per TrustParams."""
    return {f: np.array([getattr(p, f) for p in params]) for f in TRUST_FIELDS}


def random_columns(rng, rows):
    """(B,) trust-parameter columns drawn across their valid ranges, deadband off."""
    p = {f: rng.uniform(lo, hi, rows) for f, (lo, hi) in {
        "t0": (0, 1), "lambda_plus": (0.01, 0.5), "lambda_minus": (0.01, 0.9),
        "xi": (0, 2), "mu_r": (0.01, 0.99), "delta_r": (0.001, 0.2),
        "t_max": (0.2, 1.0), "theta_r": (0, 1)}.items()}
    p["deadband"] = np.zeros(rows)
    return p


def kernel_step(trust, reputation, s, d, params):
    """One engine trust update of the dyad (0, 1) in each row of a batch of
    two-actor states: (B,) starting trust and reputation, signals,
    dependencies and parameter columns in, the updated (B,) trust and
    reputation out."""
    rows = len(s)
    t, r = np.ones((rows, 2, 2)), np.zeros((rows, 2, 2))
    sig, dd = np.zeros((rows, 2, 2)), np.zeros((rows, 2, 2))
    t[:, 0, 1], r[:, 0, 1], sig[:, 0, 1], dd[:, 0, 1] = trust, reputation, s, d
    _update_trust_matrices(t, r, sig, _trust_rows(params, dd))
    return t[:, 0, 1], r[:, 0, 1]


def step(trust, reputation, s, d_ij, p=DEFAULTS):
    """``kernel_step`` on a one-dyad batch: the dyad's new (trust, reputation)."""
    t, r = kernel_step([trust], [reputation], [s], [d_ij], columns([p]))
    return float(t[0]), float(r[0])


class TestCeiling:
    def test_pristine_reputation_hits_cap(self):
        # a large gain clips at t_max while reputation is clean
        assert step(0.5, 0.0, 20.0, 0.0) == (0.9, 0.0)

    def test_reputation_binds(self):
        # damage 0.6 * 5/6 = 0.5 caps trust at 1 - 0.6 * 0.5 the same period
        trust, rep = step(1.0, 0.0, -5.0 / 6.0, 0.0)
        assert rep == pytest.approx(0.5)
        assert trust == pytest.approx(0.7)

    def test_base_form_recovered(self):
        # t_max = 1 and theta_r = 1 leave the plain 1 - R cap
        p = TrustParams(t_max=1.0, theta_r=1.0, mu_r=0.5, lambda_minus=0.01)
        r = np.array([0.0, 0.3, 0.8, 1.0])
        trust, rep = kernel_step(np.ones(4), np.zeros(4), -2.0 * r, np.zeros(4),
                                 columns([p] * 4))
        assert rep == pytest.approx(r)
        assert trust == pytest.approx(1.0 - r)


class TestUpdate:
    def test_zero_signal(self):
        trust, rep = step(0.6, 0.4, 0.0, 0.5)
        assert trust == pytest.approx(0.6)
        assert rep == pytest.approx(0.4 * (1 - DEFAULTS.delta_r))

    def test_building_formula(self):
        p = TrustParams(lambda_plus=0.1, t_max=0.9, theta_r=0.0)
        trust, _ = step(0.5, 0.0, 0.5, 0.0, p)
        assert trust - 0.5 == pytest.approx(0.02, abs=1e-12)

    def test_erosion_formula(self):
        p = TrustParams(lambda_minus=0.3, xi=0.5)
        trust, _ = step(0.8, 0.0, -0.5, 0.8, p)
        assert trust - 0.8 == pytest.approx(-0.168, abs=1e-9)

    def test_reputation_updates_before_ceiling_clips(self):
        # a large violation must lower the ceiling within the same period
        p = TrustParams(mu_r=0.6, theta_r=1.0, t_max=1.0, lambda_minus=0.01)
        trust, rep = step(0.95, 0.0, -1.0, 0.0, p)
        assert rep == pytest.approx(0.6)
        assert trust <= 1.0 - 1.0 * 0.6 + 1e-12

    def test_saturated_reputation_cannot_grow(self):
        _, rep = step(0.1, 1.0, -5.0, 1.0)
        assert rep == pytest.approx(1.0)

    def test_deadband_neutralizes_small_signals(self):
        p = TrustParams(deadband=0.05)
        trust, rep = step(0.7, 0.2, -0.04, 0.9, p)
        assert trust == pytest.approx(0.7)
        assert rep == pytest.approx(0.2 * (1 - p.delta_r))
        hit, _ = step(0.7, 0.2, -0.06, 0.9, p)
        assert hit < 0.7

    def test_erosion_monotone_in_dependency(self):
        d = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        trust, _ = kernel_step(np.full(5, 0.8), np.zeros(5), np.full(5, -0.4), d,
                               columns([DEFAULTS] * 5))
        drops = list(0.8 - trust)
        assert drops == sorted(drops)

    def test_fuzz_invariants_10k_sequences(self):
        # 10,000 random parameter rows, each fed 12 random signals
        rng = np.random.default_rng(7)
        rows = 10000
        p = random_columns(rng, rows)
        trust, rep = np.minimum(p["t0"], p["t_max"]), np.zeros(rows)
        d = rng.uniform(0, 1, rows)
        for _ in range(12):
            trust, rep = kernel_step(trust, rep, rng.uniform(-2, 2, rows), d, p)
            ceiling = np.minimum(p["t_max"], 1.0 - p["theta_r"] * rep)
            assert ((0.0 <= rep) & (rep <= 1.0)).all()
            assert ((0.0 <= trust) & (trust <= ceiling + 1e-12)).all()

    def test_hysteresis(self):
        # violate-then-rebuild ends strictly below cooperate-only whenever
        # the damaged ceiling still binds at the end
        p = TrustParams(t_max=0.9, theta_r=0.6)
        clean = (0.7, 0.0)
        scarred = step(0.7, 0.0, -0.8, 0.5, p)
        for _ in range(20):
            clean = step(*clean, 0.5, 0.5, p)
            scarred = step(*scarred, 0.5, 0.5, p)
        assert p.theta_r * scarred[1] > 1.0 - p.t_max  # ceiling binds
        assert scarred[0] < clean[0]


def erosion_to_building(p, s=0.2):
    """Trust lost to a signal -s over trust gained from +s, at D = 0 with
    trust halfway to the clean ceiling t_max, so both rates act on the same
    base."""
    t = p.t_max / 2
    (gain, loss), _ = kernel_step([t, t], [0.0, 0.0], [s, -s], [0.0, 0.0], columns([p, p]))
    return (t - loss) / (gain - t)


class TestNegativityRatio:
    def test_default_three_to_one(self):
        assert erosion_to_building(TrustParams(lambda_plus=0.10, lambda_minus=0.30)) == pytest.approx(3.0)

    def test_symmetric(self):
        assert erosion_to_building(TrustParams(lambda_plus=0.2, lambda_minus=0.2)) == pytest.approx(1.0)

    def test_four_to_one(self):
        assert erosion_to_building(TrustParams(lambda_plus=0.05, lambda_minus=0.20)) == pytest.approx(4.0)
