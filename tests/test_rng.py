import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coopsim.case_study import DEFAULT_SEED
from coopsim.rng import derive_seed, normal, splitmix64, uniform

WORDS = st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)


def test_deterministic_and_stateless():
    a = [normal(42, 1, t) for t in range(1, 50)]
    b = [normal(42, 1, t) for t in range(1, 50)]
    assert a == b
    # order independence: evaluating out of order gives identical values
    c = [normal(42, 1, t) for t in reversed(range(1, 50))]
    assert list(reversed(c)) == a


def test_portability_freeze():
    # frozen outputs pin the generator definition; any reimplementation of
    # the documented convention must reproduce these exactly
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    u = uniform(42, 0, 1, 0)
    assert u == ((splitmix64(splitmix64(splitmix64(42) ^ ((1 * 0x9E3779B97F4A7C15) & (2**64 - 1)))) >> 11) + 0.5) * 2.0**-53


def test_uniform_range_and_moments():
    draws = np.array([uniform(7, s, t) for s in range(4) for t in range(1, 400)])
    assert draws.min() > 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.02


def test_normal_moments():
    draws = np.array([normal(123, s, t) for s in range(3) for t in range(1, 2001)])
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03


def test_streams_are_decorrelated():
    a = np.array([normal(5, 0, t) for t in range(1, 2000)])
    b = np.array([normal(5, 1, t) for t in range(1, 2000)])
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.06
    assert abs(np.corrcoef(a[:-1], a[1:])[0, 1]) < 0.06


def test_derived_seeds_differ():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no uint64 overflow or cast warnings
@given(seed=WORDS, index=st.integers(0, 3),
       streams=st.lists(WORDS, min_size=1, max_size=4),
       first=st.integers(0, 10**6 - 64), periods=st.integers(1, 64))
@settings(max_examples=80, deadline=None)
def test_array_draws_match_the_scalar_oracle(seed, index, streams, first, periods):
    # an (H, 1) counter column against a (1, n) stream row gives the (H, n)
    # block of scalar draws, bit for bit; whole blocks of periods make a
    # log or cos rounded unlike math's show up (a few draws in a thousand)
    counters = list(range(first, first + periods))
    stream = np.array(streams, dtype=np.uint64)[None]
    counter = np.array(counters, dtype=np.uint64)[:, None]
    for draw, scalar in ((uniform, oracles.uniform), (normal, oracles.normal)):
        block = draw(seed, stream, counter, index)
        assert block.shape == (len(counters), len(streams))
        expected = [[scalar(seed, s, c, index) for s in streams] for c in counters]
        assert np.array_equal(_bits(block), _bits(expected)), draw.__name__
        assert draw(seed, streams[0], counters[0], index) == expected[0][0]


def test_case_study_noise_block_freeze():
    # the iOS scenario's whole noise block: 66 periods of 3 actors
    block = normal(DEFAULT_SEED, np.arange(3, dtype=np.uint64)[None],
                   np.arange(1, 67, dtype=np.uint64)[:, None])
    assert block.shape == (66, 3)
    assert hashlib.sha256(block.astype("<f8").tobytes()).hexdigest() == (
        "be40c8f5848d91c8fa1a14d11808557a88aba63e8b5f974b7669171a91b98930")
