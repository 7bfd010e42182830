import time

import pytest

from coopsim.sweep import SMOKE_GRID, run_sweep


@pytest.fixture(scope="session")
def smoke_sweep():
    """The 3^6 smoke grid measured once per test session: (table, seconds)."""
    start = time.monotonic()
    table = run_sweep(SMOKE_GRID)
    return table, time.monotonic() - start
