from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopsim import case_study as cs
from coopsim.errors import ConfigurationError
from coopsim.files import (
    parse_dependency_csv,
    read_dependency_csv,
    scenario_from_text,
    scenario_to_text,
)
from coopsim.params import (
    DependencyEntry,
    EconomyParams,
    InterdependenceMatrix,
    ReciprocityParams,
    TeamParams,
    TrustParams,
)
from coopsim.scenario import (
    ScenarioConfig,
    Shock,
    SimConfig,
    reference_scenario,
    symmetric_matrix,
)
from coopsim.simulation import run
from coopsim.translate import translate


def ios_inputs():
    return read_dependency_csv(cs.ios_dependency_csv_path())


def team_scenario() -> ScenarioConfig:
    """The 3-actor team scenario of scripts/run_experiments.py, experiment 5."""
    team = TeamParams(members=(0, 1, 2), omega_prod=10.0, beta_team=0.6,
                      unit_cost=1.0, loyalty=(0.2, 0.5, 0.8), phi_b=0.8, phi_c=0.3)
    return ScenarioConfig(
        labels=("low", "mid", "high"),
        d=symmetric_matrix(3, 0.8),
        recip=ReciprocityParams(rho0=1.0, kappa=1.0, memory_k=3, lambda_r=1.0,
                                omega_amp=1.0),
        trust=TrustParams(t0=0.7),
        econ=EconomyParams(endowments=(10.0,) * 3, alpha=(1 / 3,) * 3),
        a_max=(10.0,) * 3,
        a_init=(0.5,) * 3,
        team=team,
    )


#: A valid non-default value for every field of the scenario and its
#: parameter blocks, keyed by field name.  The scenario's ``recip``,
#: ``trust``, ``econ`` and ``team`` are the blocks built from these.
NON_DEFAULT = {
    # ScenarioConfig
    "labels": ("x", "y", "z"),
    "d": InterdependenceMatrix([[0.0, 0.25, 0.5], [0.75, 0.0, 0.125], [1.0, 0.375, 0.0]]),
    "a_max": (2.0, 3.5, 4.0),
    "a_init": (1.5, 0.25, 3.0),
    "baseline_init": (0.75, 0.5, 2.5),
    "baseline_mode": "adaptive",
    "pre_history": ((0.5, 1.0, 1.5), (0.25, 3.25, 0.75)),
    # ReciprocityParams
    "rho0": 0.35, "eta": 1.7, "kappa": 2.5, "memory_k": 7, "lambda_r": 0.4, "omega_amp": 0.3,
    # TrustParams
    "t0": 0.55, "lambda_plus": 0.2, "lambda_minus": 0.45, "xi": 0.25, "mu_r": 0.4,
    "delta_r": 0.07, "t_max": 0.8, "theta_r": 0.3, "lambda_t": 1.5, "deadband": 0.01,
    # EconomyParams
    "endowments": (50.0, 75.5, 20.0), "alpha": (0.25, 0.25, 0.5), "theta_v": 12.0,
    "power_beta": 0.6, "gamma": 0.8, "value_form": "power",
    # TeamParams
    "members": (2, 0), "loyalty": (0.9, 0.1), "omega_prod": 4.0, "beta_team": 0.5,
    "unit_cost": 2.0, "phi_b": 0.4, "phi_c": 0.6, "teammate_payoff": "mean",
    # SimConfig
    "horizon": 17, "mode": "best_response", "adjust_rate": 0.3, "decay": 0.1,
    "baseline_rate": 0.2, "noise_sigma": 0.05, "seed": 123,
    "shocks": (Shock(period=3, actor=1, delta=-0.25), Shock(period=9, actor=2, delta=0.5)),
}
BLOCKS = {"recip": ReciprocityParams, "trust": TrustParams, "econ": EconomyParams,
          "team": TeamParams}


def non_default(cls, **given):
    """``cls`` with every field from ``NON_DEFAULT`` (a missing entry is a KeyError)."""
    obj = cls(**{f.name: given[f.name] if f.name in given else NON_DEFAULT[f.name]
                 for f in fields(cls)})
    for f in fields(cls):
        assert f.default is MISSING or getattr(obj, f.name) != f.default, f.name
    return obj


class TestTranslate:
    def test_ios_dependency_table_reproduces_coefficients(self):
        labels, entries = ios_inputs()
        result = translate(labels, entries)
        d = result.scenario.d
        i = {lab: k for k, lab in enumerate(labels)}
        assert d[i["Major"], i["Apple"]] == pytest.approx(0.8775, abs=1e-4)
        assert d[i["Small"], i["Apple"]] == pytest.approx(0.9195, abs=1e-4)
        assert d[i["Apple"], i["Major"]] == pytest.approx(0.6575, abs=1e-4)
        assert d[i["Apple"], i["Small"]] == pytest.approx(0.7075, abs=1e-4)

    def test_documented_defaults(self):
        labels, entries = ios_inputs()
        result = translate(labels, entries, "")
        r = result.scenario.recip
        assert (r.rho0, r.eta, r.kappa) == (1.0, 1.0, 1.0)
        assert r.memory_k == 4  # quarterly granularity heuristic

    def test_granularity_heuristic(self):
        labels, entries = ios_inputs()
        assert translate(labels, entries, "granularity = monthly").scenario.recip.memory_k == 6
        assert translate(labels, entries, "granularity = weekly").scenario.recip.memory_k == 12

    def test_single_dependum(self):
        entries = [DependencyEntry(0, 1, "thing", weight=1.0, exists=True, criticality=0.5)]
        result = translate(("a", "b"), entries)
        assert result.scenario.d[0, 1] == pytest.approx(0.5)

    def test_emitted_sensitivities_follow_formula(self):
        labels, entries = ios_inputs()
        result = translate(labels, entries, "rho0 = 0.85\neta = 1.3")
        i = {lab: k for k, lab in enumerate(labels)}
        assert result.rho[i["Major"]][i["Apple"]] == pytest.approx(0.85 * 0.8775**1.3)

    def test_out_of_range_names_the_step(self):
        labels, entries = ios_inputs()
        for text, message in [
            ("kappa = -1", "step 6 (response sensitivity): kappa = -1.0 outside the valid "
                           "range [1e-09, 5.0]"),
            ("rho0 = 99", "step 5 (reciprocity sensitivity): rho0 = 99.0 outside the valid "
                          "range [0.0, 5.0]"),
            ("t0 = 1.5", "step 7 (trust integration): t0 = 1.5 outside the valid "
                         "range [0.0, 1.0]"),
            ("memory_k = 0", "step 4 (memory window): memory_k must be >= 1, got 0"),
            ("granularity = hourly", "step 2 (temporal granularity): granularity must be one "
                                     "of ['monthly', 'quarterly', 'weekly'], got 'hourly'"),
            ("eta = nan", "step 5 (reciprocity sensitivity): eta = nan outside the valid "
                          "range [0.0, 3.0]"),
            ("lambda_t = 1e309", "step 7 (trust integration): lambda_t = inf outside the "
                                 "valid range [0.0, 5.0]"),
        ]:
            with pytest.raises(ConfigurationError) as err:
                translate(labels, entries, text)
            assert str(err.value) == message

    def test_idempotent_roundtrip(self):
        labels, entries = ios_inputs()
        first = translate(labels, entries, "rho0 = 0.85\neta = 1.3")
        text = scenario_to_text(first.scenario, first.sim)
        scenario, sim = scenario_from_text(text)
        assert np.array_equal(scenario.d.values, first.scenario.d.values)
        assert scenario.recip == first.scenario.recip
        # and the re-emitted file is byte-identical
        assert scenario_to_text(scenario, sim) == text

    def test_case_study_parameter_blocks_roundtrip(self):
        # every parameter block of the iOS scenario, its nonzero trust
        # deadband included, survives writing and reading back
        scenario, sim = cs.build_ios_scenario()
        text = scenario_to_text(scenario, sim)
        assert "deadband = 0.05\n" in text
        back, back_sim = scenario_from_text(text)
        assert back.trust == scenario.trust == cs.IOS_TRUST
        assert back.recip == scenario.recip
        assert back.econ == scenario.econ
        assert back_sim == sim

    def test_case_study_scenario_roundtrip_runs_identically(self):
        # pre-history rows and all: the file read back is the same scenario
        scenario, sim = cs.build_ios_scenario()
        text = scenario_to_text(scenario, sim)
        assert text.count("pre_history = ") == len(scenario.pre_history) == 4
        back, back_sim = scenario_from_text(text)
        assert (back, back_sim) == (scenario, sim)
        assert scenario_to_text(back, back_sim) == text
        first, again = run(scenario, sim), run(back, back_sim)
        for name in ("actions", "trust", "reputation", "signal", "recip_term"):
            assert np.array_equal(getattr(first, name), getattr(again, name)), name

    def test_team_scenario_roundtrip(self):
        scenario = team_scenario()
        team = scenario.team
        text = scenario_to_text(scenario, SimConfig())
        assert "team = low,mid,high\nloyalty = 0.2,0.5,0.8\n" in text
        back, _ = scenario_from_text(text)
        assert back == scenario and back.team == team
        # a partial team in another member order keeps its labels and defaults
        mates = replace(team, members=(2, 0), loyalty=(0.9, 0.1), teammate_payoff="mean")
        back, _ = scenario_from_text(scenario_to_text(replace(scenario, team=mates), SimConfig()))
        assert back.team == mates

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_scenario_roundtrip(self, data):
        # from_text(to_text(s)) == s with pre-history rows and a team
        n = data.draw(st.integers(1, 4))
        unit = st.floats(0.0, 1.0)
        scenario = ScenarioConfig(
            labels=tuple(f"a{i}" for i in range(n)),
            d=symmetric_matrix(n, data.draw(unit)),
            econ=EconomyParams(endowments=(100.0,) * n, alpha=(1.0 / n,) * n),
            a_init=tuple(data.draw(unit) for _ in range(n)),
            pre_history=tuple(
                tuple(data.draw(st.floats(-1e6, 1e6)) for _ in range(n))
                for _ in range(data.draw(st.integers(0, 5)))
            ),
            team=data.draw(st.none() | st.builds(
                lambda members, loyalty, omega, payoff: TeamParams(
                    members=members, loyalty=loyalty[: len(members)], omega_prod=omega,
                    teammate_payoff=payoff),
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
                .map(tuple),
                st.lists(unit, min_size=n, max_size=n),
                st.floats(1e-9, 1e9),
                st.sampled_from(("sum", "mean")),
            )),
        )
        text = scenario_to_text(scenario, SimConfig())
        back, _ = scenario_from_text(text)
        assert back == scenario
        assert scenario_to_text(back, SimConfig()) == text

    def test_every_field_roundtrips(self):
        # lossless by construction: each field of every block is written
        # and read back, so a new field cannot be dropped silently
        scenario = non_default(ScenarioConfig,
                               **{name: non_default(cls) for name, cls in BLOCKS.items()})
        sim = non_default(SimConfig)
        text = scenario_to_text(scenario, sim)
        assert scenario_from_text(text) == (scenario, sim)
        assert scenario_to_text(*scenario_from_text(text)) == text

    @pytest.mark.parametrize("extra, message", [
        ("loyalty = 0.5,0.5", "loyalty needs a 'team' line"),
        ("team = A,C\nloyalty = 0.5,0.5", "team names unknown actor 'C'"),
        ("team = A,B", "one loyalty value per team member"),
        ("team = A,B\nloyalty = 0.5,0.5\nunit_cost = inf", "unit_cost must be finite"),
        ("pre_history = 0.5", "pre_history rows must have one action per actor"),
        ("shock = 36,0,-0.1", "shock names unknown actor: '36,0,-0.1'"),
        *((f"{name} = 0", f"unknown scenario key '{name}'")
          for name in ("members", "shocks", "labels", "recip", "econ")),
    ])
    def test_bad_team_or_pre_history_rejected(self, extra, message):
        text = scenario_to_text(reference_scenario(), SimConfig()) + extra + "\n"
        with pytest.raises(ConfigurationError, match=message):
            scenario_from_text(text)

    def test_reciprocity_gap(self):
        labels, entries = ios_inputs()
        result = translate(labels, entries, "rho0_target = 1.2\nrho0_observed = 0.5")
        assert result.reciprocity_gap == pytest.approx(0.7)
        assert len(result.gap_advice) == 4
        small = translate(labels, entries, "rho0_target = 1.0\nrho0_observed = 0.9")
        assert small.reciprocity_gap == pytest.approx(0.1)
        assert small.gap_advice == ()


class TestDependencyCsv:
    def test_header_validated(self):
        with pytest.raises(ConfigurationError):
            parse_dependency_csv("a,b,c\n1,2,3\n")

    def test_actor_order_is_first_appearance(self):
        labels, entries = ios_inputs()
        assert labels == ("Apple", "Major", "Small")
        assert len(entries) == 12
