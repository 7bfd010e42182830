"""The whole-array writers against the per-number oracle, and the result
table writer across its row blocks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from coopsim import files
from coopsim.files import dyads_csv, long_format_csv, trajectory_csv
from coopsim.simulation import RECORDED, Trajectory

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
