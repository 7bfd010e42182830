"""The whole-array writers against the per-number oracle, the result
table writer across its row blocks, the scenario writer's round trip, and
the three ``key = value`` readers (scenario, grid and elicitation) under
malformed input."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from coopsim import files
from coopsim.errors import ConfigurationError
from coopsim.files import dyads_csv, long_format_csv, parse_grid, scenario_from_text, trajectory_csv
from coopsim.params import DependencyEntry, InterdependenceMatrix
from coopsim.scenario import SimConfig, reference_scenario
from coopsim.simulation import RECORDED, Trajectory
from coopsim.sweep import GRID_KEYS
from coopsim.translate import ELICITATION_KEYS, translate

SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
           3.0, -7.0, 1e16, float("nan"), float("inf"), float("-inf"))
VALUES = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 5))
    states = {f: draw(arrays(float, (horizon,) + (n,) * axes, elements=VALUES))
              for f, axes in RECORDED.items()}
    return Trajectory(labels=tuple(f"a{i}" for i in range(n)), **states,
                      converged=np.ones(horizon, dtype=bool))


@given(trajectories())
@settings(max_examples=120, deadline=None)
def test_writers_match_the_per_number_oracle(traj):
    for writer, oracle in ((trajectory_csv, oracles.trajectory_csv),
                           (dyads_csv, oracles.dyads_csv),
                           (long_format_csv, oracles.long_format_csv)):
        assert writer(traj) == oracle(traj), writer.__name__


def test_targets_csv_does_not_depend_on_its_block_size(monkeypatch, smoke_sweep):
    # the smoke grid's 729 rows fit one block; 7-row blocks split them
    table, _ = smoke_sweep
    whole = files.targets_csv(table)
    assert len(whole.splitlines()) == 1 + len(table["t1"])
    monkeypatch.setattr(files, "CSV_BLOCK_ROWS", 7)
    assert files.targets_csv(table) == whole


#: The three readers of ``key = value`` text, each given the same lines: a
#: scenario (on a valid two-actor base), a sweep grid and an elicitation.
READERS = {
    "scenario": lambda text: scenario_from_text("actors = A,B\nd = A,B,0.5\n" + text),
    "grid": parse_grid,
    "elicitation": lambda text: translate(
        ("A", "B"), [DependencyEntry(0, 1, "x", 1.0, True, 0.5)], text),
}
KEYS = sorted({*files._KNOWN_KEYS, *GRID_KEYS, *ELICITATION_KEYS})
#: Malformed values, and a few well-formed ones so that some lines parse.
RAW_VALUES = ("nan", "inf", "1e309", "", "x", "1,2,3,4", "12345678901234567890",
          "1,x,2", "0.5", "2", "A,B,0.5")


def test_scenario_text_keeps_a_negative_zero_coefficient():
    # -0.0 == 0.0, so compare bits: read back as +0.0 it flips recip_term's sign
    scenario = replace(reference_scenario(), d=InterdependenceMatrix([[0.0, -0.0], [0.5, 0.0]]))
    back, _ = scenario_from_text(files.scenario_to_text(scenario, SimConfig(horizon=5)))
    assert back.d.values.view(np.uint64).tolist() == scenario.d.values.view(np.uint64).tolist()


@st.composite
def near_misses(draw):
    """A known key with one character dropped, doubled, upper-cased or
    followed by an underscore."""
    key = draw(st.sampled_from(KEYS))
    at = draw(st.integers(0, len(key) - 1))
    edit = draw(st.sampled_from(("", key[at] * 2, key[at].upper(), key[at] + "_")))
    return key[:at] + edit + key[at + 1:]


LINES = st.lists(st.builds("{} = {}".format, st.sampled_from(KEYS) | near_misses(),
                           st.sampled_from(RAW_VALUES)), min_size=1, max_size=3)


def parse_or_reject(text):
    """Each reader parses ``text`` or raises a ConfigurationError, quietly."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in READERS.values():
            try:
                read(text)
            except ConfigurationError:
                pass


@given(LINES)
@settings(deadline=None)
def test_readers_parse_or_raise_a_configuration_error(lines):
    parse_or_reject("\n".join(lines) + "\n")


def test_every_key_with_every_value_parses_or_raises_a_configuration_error():
    for key in KEYS:
        for value in RAW_VALUES:
            parse_or_reject(f"{key} = {value}\n")


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_repeated_key_is_rejected(reader):
    with pytest.raises(ConfigurationError, match="^key 'kappa' given more than once$"):
        READERS[reader]("kappa = 1.0\nkappa = 2.0\n")
