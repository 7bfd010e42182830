import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim.errors import ConfigurationError, DependencyTableError
from coopsim.params import (
    DependencyEntry,
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TeamParams,
    TrustParams,
    compute_interdependence,
)
from coopsim.reciprocity import sensitivity
from coopsim.files import scenario_from_text, scenario_to_text
from coopsim.scenario import ScenarioConfig, Shock, SimConfig, reference_scenario, symmetric_matrix
from coopsim.simulation import run
from coopsim.solver import SolverConfig
from coopsim.sweep import SweepCell


def entry(i, j, w, crit, dependum="d", exists=True):
    return DependencyEntry(depender=i, dependee=j, dependum=dependum,
                           weight=w, exists=exists, criticality=crit)


class TestComputeInterdependence:
    def test_weighted_mean_major_platform(self):
        # weights (0.40, 0.35, 0.25), criticalities (0.95, 0.85, 0.80)
        entries = [
            entry(0, 1, 0.40, 0.95, "distribution"),
            entry(0, 1, 0.35, 0.85, "payment"),
            entry(0, 1, 0.25, 0.80, "api"),
        ]
        d = compute_interdependence(entries, 2)
        assert d[0, 1] == pytest.approx(0.8775, abs=1e-12)

    def test_weighted_mean_small_platform(self):
        entries = [
            entry(0, 1, 0.40, 0.98),
            entry(0, 1, 0.35, 0.90, "p"),
            entry(0, 1, 0.25, 0.85, "a"),
        ]
        d = compute_interdependence(entries, 2)
        assert d[0, 1] == pytest.approx(0.9195, abs=1e-12)

    def test_no_entries_yield_zero(self):
        d = compute_interdependence([entry(0, 1, 1.0, 0.5)], 3)
        assert d[1, 0] == 0.0
        assert d[0, 2] == 0.0
        assert d[2, 1] == 0.0

    def test_zero_weight_sum_is_error(self):
        with pytest.raises(DependencyTableError):
            compute_interdependence([entry(0, 1, 0.0, 0.5)], 2)

    def test_nonexistent_dependency_contributes_zero(self):
        entries = [entry(0, 1, 1.0, 0.9, exists=False)]
        d = compute_interdependence(entries, 2)
        assert d[0, 1] == 0.0

    def test_unknown_actor_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_interdependence([entry(0, 5, 1.0, 0.5)], 2)

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (-2, 1)])
    def test_negative_actor_rejected(self, i, j):
        # numpy would wrap a negative index onto the last actors' row or column
        with pytest.raises(ConfigurationError, match=f"references actor {min(i, j)} "
                                                     "but only actors 0 to 1 are declared"):
            compute_interdependence([entry(i, j, 1.0, 0.5)], 2)

    @pytest.mark.parametrize("exists", [7, -1, 0.5, "1"])
    def test_exists_is_zero_or_one(self, exists):
        with pytest.raises(ConfigurationError, match="^exists must be 0 or 1, got "):
            entry(0, 1, 1.0, 0.5, exists=exists)
        assert entry(0, 1, 1.0, 0.5, exists=1).exists is True

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2), st.floats(0.0, 10.0),
                              st.booleans(), st.floats(0.0, 1.0)), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_each_pair_sums_its_entries_in_table_order(self, rows):
        # bit for bit the per-pair weighted mean, summed in entry order
        entries = [entry(i, (i + j) % 3, w, c, exists=x) for i, j, w, x, c in rows]
        sums: dict = {}
        for e in entries:
            w, v = sums.get((e.depender, e.dependee), (0.0, 0.0))
            sums[e.depender, e.dependee] = (w + e.weight,
                                            v + e.weight * float(e.exists) * e.criticality)
        if any(w <= 0.0 for w, _ in sums.values()):
            with pytest.raises(DependencyTableError):
                compute_interdependence(entries, 3)
            return
        d = compute_interdependence(entries, 3).values
        expected = np.zeros((3, 3))
        for (i, j), (w, v) in sums.items():
            expected[i, j] = v / w
        assert d.tobytes() == expected.tobytes()

    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 10.0, allow_nan=False),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_coefficients_stay_in_unit_interval(self, rows):
        entries = [entry(0, 1, w, c, dependum=f"d{k}") for k, (w, c) in enumerate(rows)]
        d = compute_interdependence(entries, 2)
        assert 0.0 <= d[0, 1] <= 1.0
        assert d[0, 0] == 0.0 and d[1, 1] == 0.0


def rho(rho0, d, eta):
    """The kernel's rho0 * D ** eta for one coefficient."""
    return float(sensitivity(np.array([[[d]]]), np.array([rho0]), np.array([eta]))[0, 0, 0])


class TestReciprocitySensitivity:
    def test_formula_values(self):
        # rho0 * D**eta, exact
        assert rho(1.2, 0.8, 1.2) == pytest.approx(0.9180983997984355, abs=1e-12)
        assert rho(1.2, 0.3, 1.2) == pytest.approx(0.2829611108147842, abs=1e-12)

    def test_zero_dependency(self):
        assert rho(1.5, 0.0, 1.2) == 0.0

    def test_linear_case(self):
        assert rho(1.0, 0.8, 1.0) == pytest.approx(0.8)
        assert rho(1.0, 0.2, 1.0) == pytest.approx(0.2)

    def test_sensitivity_ratio_identity(self):
        # the rho component of the T4 response ratio is (0.8 / 0.2) ** eta
        for eta in (0.5, 1.0, 1.5):
            ratio = rho(1.0, 0.8, eta) / rho(1.0, 0.2, eta)
            assert ratio == pytest.approx((0.8 / 0.2) ** eta, rel=0, abs=1e-12)

    @given(
        st.floats(0.0, 3.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        st.floats(0.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_dependency_and_base(self, rho0, d1, d2, eta):
        lo, hi = sorted((d1, d2))
        assert rho(rho0, lo, eta) <= rho(rho0, hi, eta) + 1e-12
        assert rho(rho0, d1, eta) <= rho(rho0 + 0.5, d1, eta) + 1e-12


class TestParameterBlocks:
    def test_matrix_validation(self):
        with pytest.raises(ConfigurationError):
            InterdependenceMatrix([[0.0, 1.2], [0.5, 0.0]])
        with pytest.raises(ConfigurationError):
            InterdependenceMatrix([[0.1, 0.5], [0.5, 0.0]])
        m = InterdependenceMatrix([[0.0, 0.5], [0.25, 0.0]])
        assert m[1, 0] == 0.25
        assert not m.values.flags.writeable

    def test_reciprocity_ranges(self):
        with pytest.raises(ConfigurationError):
            ReciprocityParams(kappa=0.0)
        with pytest.raises(ConfigurationError):
            ReciprocityParams(memory_k=0)
        p = ReciprocityParams(rho0=0.85, eta=1.3)
        assert rho(p.rho0, 0.88, p.eta) == pytest.approx(0.85 * 0.88**1.3)

    def test_trust_ranges(self):
        with pytest.raises(ConfigurationError):
            TrustParams(lambda_minus=1.0)
        with pytest.raises(ConfigurationError):
            TrustParams(t_max=0.0)
        assert TrustParams().deadband == 0.0

    def test_alpha_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            EconomyParams(endowments=(1.0, 1.0), alpha=(0.6, 0.6))
        EconomyParams(endowments=(1.0, 1.0), alpha=(0.5, 0.5))

    def test_symbol_collisions_are_distinct_fields(self):
        # amplification omega vs team productivity omega; value exponent
        # beta vs team elasticity beta
        recip = ReciprocityParams(omega_amp=0.6)
        team = TeamParams(members=(0, 1), omega_prod=10.0, beta_team=0.6,
                          loyalty=(0.5, 0.5))
        econ = EconomyParams(power_beta=0.75)
        assert recip.omega_amp != team.omega_prod
        assert econ.power_beta != team.beta_team

    def test_team_validation(self):
        with pytest.raises(ConfigurationError):
            TeamParams(members=(0, 1), loyalty=(0.5,))
        with pytest.raises(ConfigurationError):
            TeamParams(members=(0,), loyalty=(1.5,))


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _field_names(cls):
    return [f.name for f in fields(cls)]


INF = math.inf
#: Every numeric field of every block: (block, field, kind, lo, hi, ends),
#: the legal interval as each block's own checks bounded it before the
#: blocks shared one table; written out here, not read from
#: ``params.RANGES``, so the test is an independent reference.  An
#: unbounded field is (-INF, INF): only finiteness applies.  ``seed``'s
#: upper end is ``check_seed``'s.
BOUNDS = [
    (DependencyEntry, "depender", int, -INF, INF, "()"),
    (DependencyEntry, "dependee", int, -INF, INF, "()"),
    (DependencyEntry, "weight", float, 0.0, INF, "[)"),
    (DependencyEntry, "criticality", float, 0.0, 1.0, "[]"),
    (ReciprocityParams, "rho0", float, 0.0, INF, "[)"),
    (ReciprocityParams, "eta", float, 0.0, INF, "[)"),
    (ReciprocityParams, "kappa", float, 0.0, INF, "()"),
    (ReciprocityParams, "memory_k", int, 1, INF, "[)"),
    (ReciprocityParams, "lambda_r", float, 0.0, INF, "[)"),
    (ReciprocityParams, "omega_amp", float, 0.0, INF, "[)"),
    (TrustParams, "t0", float, 0.0, 1.0, "[]"),
    (TrustParams, "lambda_plus", float, 0.0, 1.0, "()"),
    (TrustParams, "lambda_minus", float, 0.0, 1.0, "()"),
    (TrustParams, "xi", float, 0.0, INF, "[)"),
    (TrustParams, "mu_r", float, 0.0, 1.0, "()"),
    (TrustParams, "delta_r", float, 0.0, 1.0, "()"),
    (TrustParams, "t_max", float, 0.0, 1.0, "(]"),
    (TrustParams, "theta_r", float, 0.0, 1.0, "[]"),
    (TrustParams, "lambda_t", float, 0.0, INF, "[)"),
    (TrustParams, "deadband", float, 0.0, INF, "[)"),
    (EconomyParams, "endowments", float, 0.0, INF, "[)"),
    (EconomyParams, "alpha", float, 0.0, INF, "[)"),
    (EconomyParams, "theta_v", float, 0.0, INF, "[)"),
    (EconomyParams, "power_beta", float, 0.0, 1.0, "()"),
    (EconomyParams, "gamma", float, 0.0, INF, "[)"),
    (TeamParams, "members", int, -INF, INF, "()"),
    (TeamParams, "loyalty", float, 0.0, 1.0, "[]"),
    (TeamParams, "omega_prod", float, 0.0, INF, "()"),
    (TeamParams, "beta_team", float, 0.0, 1.0, "()"),
    (TeamParams, "unit_cost", float, 0.0, INF, "()"),
    (TeamParams, "phi_b", float, 0.0, 1.0, "[]"),
    (TeamParams, "phi_c", float, 0.0, 1.0, "[]"),
    (Shock, "period", int, 1, INF, "[)"),
    (Shock, "actor", int, -INF, INF, "()"),
    (Shock, "delta", float, -INF, INF, "()"),
    (ScenarioConfig, "a_max", float, 0.0, INF, "()"),
    (ScenarioConfig, "a_init", float, -INF, INF, "()"),
    (ScenarioConfig, "baseline_init", float, -INF, INF, "()"),
    (SimConfig, "horizon", int, 1, INF, "[)"),
    (SimConfig, "adjust_rate", float, 0.0, 1.0, "[]"),
    (SimConfig, "decay", float, 0.0, 1.0, "[]"),
    (SimConfig, "baseline_rate", float, 0.0, 1.0, "[]"),
    (SimConfig, "noise_sigma", float, 0.0, INF, "[)"),
    (SimConfig, "seed", int, 0, 2**64, "[)"),
    (SolverConfig, "max_iters", int, 1, INF, "[)"),
    (SolverConfig, "grid_points", int, 2, INF, "[)"),
    (SweepCell, "rho0", float, 0.0, INF, "[)"),
    (SweepCell, "eta", float, 0.0, INF, "[)"),
    (SweepCell, "kappa", float, 0.0, INF, "()"),
    (SweepCell, "memory_k", int, 1, INF, "[)"),
    (SweepCell, "lambda_r", float, 0.0, INF, "[)"),
    (SweepCell, "t0", float, 0.0, 1.0, "[]"),
    (SweepCell, "d", float, 0.0, 1.0, "[]"),
]

#: The other fields a block needs, and how a vector field carries the value
#: under test (as its first entry).
BASE = {
    DependencyEntry: dict(depender=0, dependee=1, dependum="d", weight=1.0, exists=True,
                          criticality=0.5),
    TeamParams: dict(members=(0,), loyalty=(0.5,)),
    Shock: dict(period=2, actor=0, delta=0.1),
    ScenarioConfig: dict(labels=("A", "B"), d=symmetric_matrix(2, 0.5)),
}
VECTOR = {
    "endowments": lambda x: (x, 100.0), "alpha": lambda x: (x, 1.0 - x),
    "members": lambda x: (x,), "loyalty": lambda x: (x,),
    "a_max": lambda x: (x, 1.0), "a_init": lambda x: (x, 0.0),
    "baseline_init": lambda x: (x, 0.5),
}


def _build(block, name, x):
    value = VECTOR[name](x) if name in VECTOR else x
    return block(**{**BASE.get(block, {}), name: value})


def _stored(obj, name):
    value = getattr(obj, name)
    return value[0] if name in VECTOR else value


class TestNonFiniteRejected:
    @pytest.mark.parametrize("block, name, kind, lo, hi, ends", BOUNDS,
                             ids=[f"{b.__name__}.{n}" for b, n, *_ in BOUNDS])
    def test_every_field_at_its_bounds(self, block, name, kind, lo, hi, ends):
        def rejected(x):
            with pytest.raises(ConfigurationError, match=rf"^{name} "):
                _build(block, name, x)

        def accepted(x):
            assert _stored(_build(block, name, x), name) == x

        def step(x, direction):
            # one ulp for a float field, 1 for an int field
            return x + direction if kind is int else math.nextafter(x, direction * INF)

        for bad in NON_FINITE:
            rejected(bad)
        for bound, closed, outward in ((lo, ends[0] == "[", -1), (hi, ends[1] == "]", 1)):
            if math.isinf(bound):
                continue
            if closed:
                accepted(bound)
            else:
                rejected(bound)
            rejected(step(bound, outward))
            accepted(step(bound, -outward))
        if kind is int:
            with pytest.raises(ConfigurationError, match=rf"^{name} must be an integer"):
                _build(block, name, 2.5)
            stored = _stored(_build(block, name, 3.0), name)
            assert stored == 3 and type(stored) is int

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", _field_names(ReciprocityParams))
    def test_reciprocity(self, name, bad):
        with pytest.raises(ConfigurationError, match=name):
            ReciprocityParams(**{name: bad})

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", _field_names(TrustParams))
    def test_trust(self, name, bad):
        with pytest.raises(ConfigurationError, match=name):
            TrustParams(**{name: bad})

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name, value", [
        ("endowments", lambda x: (x, 100.0)), ("alpha", lambda x: (x, 0.5)),
        ("theta_v", lambda x: x), ("power_beta", lambda x: x), ("gamma", lambda x: x),
    ])
    def test_economy(self, name, value, bad):
        with pytest.raises(ConfigurationError, match=name):
            EconomyParams(**{name: value(bad)})

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize(
        "name", ["horizon", "adjust_rate", "decay", "baseline_rate", "noise_sigma"])
    def test_sim_config(self, name, bad):
        with pytest.raises(ConfigurationError, match=name):
            SimConfig(**{name: bad})

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_shock_delta(self, bad):
        with pytest.raises(ConfigurationError, match="delta"):
            Shock(period=2, actor=0, delta=bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", ["a_max", "a_init", "baseline_init", "pre_history"])
    def test_scenario_vectors(self, name, bad):
        value = ((bad, 0.5),) if name == "pre_history" else (bad, 0.5)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(labels=("A", "B"), d=symmetric_matrix(2, 0.5), **{name: value})

    def test_interdependence_nan(self):
        with pytest.raises(ConfigurationError):
            InterdependenceMatrix([[0.0, float("nan")], [0.5, 0.0]])


#: Builders of a (scenario, run) pair around one integer field; the
#: argument turns the integer into the type under test.
INTEGRAL = {
    "horizon": lambda num: (reference_scenario(), SimConfig(horizon=num(12))),
    "seed": lambda num: (reference_scenario(), SimConfig(horizon=8, seed=num(3))),
    "shock": lambda num: (reference_scenario(), SimConfig(
        horizon=8, shocks=(Shock(period=num(2), actor=num(0), delta=-3.0),))),
    "memory_k": lambda num: (replace(reference_scenario(), recip=ReciprocityParams(
        memory_k=num(4))), SimConfig(horizon=8)),
}


class TestIntegerFields:
    @pytest.mark.parametrize("make, name", [
        (lambda: SimConfig(horizon=12.5), "horizon"),
        (lambda: SimConfig(seed=1.5, noise_sigma=0.02), "seed"),
        (lambda: Shock(period=2.5, actor=0, delta=0.1), "period"),
        (lambda: Shock(period=2, actor=0.5, delta=0.1), "actor"),
        (lambda: ReciprocityParams(memory_k=4.5), "memory_k"),
        (lambda: SweepCell(memory_k=2.5), "memory_k"),
        (lambda: TeamParams(members=(0, 1.5), loyalty=(0.5, 0.5)), "members"),
        (lambda: entry(0, 1.5, 1.0, 0.5), "dependee"),
        (lambda: SolverConfig(grid_points=50.5), "grid_points"),
    ], ids=["horizon", "seed", "shock-period", "shock-actor", "memory_k", "cell-memory_k",
            "team-members", "dependee", "grid_points"])
    def test_non_integer_rejected(self, make, name):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got"):
            make()

    def test_int_beyond_float_range_is_out_of_range(self):
        # a ConfigurationError naming the field, not an OverflowError
        with pytest.raises(ConfigurationError, match="^horizon must be >= 1, got -1000"):
            SimConfig(horizon=-10**400)

    @pytest.mark.parametrize("build", INTEGRAL.values(), ids=INTEGRAL.keys())
    def test_integral_float_acts_as_int(self, build):
        # stored as int: the same file bytes, a byte-identical round trip
        # and the same run as the integer itself
        scenario, sim = build(float)
        text = scenario_to_text(scenario, sim)
        assert text == scenario_to_text(*build(int))
        assert scenario_to_text(*scenario_from_text(text)) == text
        assert np.array_equal(run(scenario, sim).actions, run(*build(int)).actions)
