import time

import pytest

from coopsim.sweep import FULL_GRID, SMOKE_GRID, differentiation_stats, monte_carlo, run_sweep


@pytest.fixture(scope="session")
def smoke_sweep():
    """The 3^6 smoke grid's table, measured once per test session."""
    return run_sweep(SMOKE_GRID)


@pytest.fixture(scope="session")
def full_sweep():
    """The full 5^6 grid measured and bootstrapped once per test session, as
    ``coopsim sweep --grid full --seed 42`` does: (table, stats, seconds the
    sweep took)."""
    start = time.monotonic()
    table = run_sweep(FULL_GRID)
    elapsed = time.monotonic() - start
    return table, differentiation_stats(table, seed=42), elapsed


@pytest.fixture(scope="session")
def monte_carlo_2000():
    """The 2000 perturbed trials of ``coopsim montecarlo --trials 2000 --seed
    42``, run once per test session."""
    return monte_carlo(trials=2000, perturb=0.15, seed=42)
