"""The seeded streams of ``spinqrc.rng`` against NumPy's ``default_rng``,
which stays their reference here, bit for bit."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqrc.esn import EsnConfig, esn_weights
from spinqrc.reservoir import Topology, sample_couplings, topology_bonds
from spinqrc.rng import Stream

# Seeds of one 32-bit word, of two words and of three words.
SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 5]

# Derandomized and without an example database, so that every run checks
# the same seeds and writes nothing.
SEED_RANGE = settings(max_examples=200, deadline=None, derandomize=True,
                      database=None)


def bits_of(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def check_uniform(seed: int, n: int = 6) -> None:
    """Two draws from one stream in ``esn_weights``' order: an (n, n)
    matrix, then a vector of n."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 0.4, (n, n))
    w_in = rng.uniform(0.0, 0.3, n)
    stream = Stream(seed)
    assert bits_of(stream.uniform(0.4, n * n)) == w.tobytes()
    assert bits_of(stream.uniform(0.3, n)) == w_in.tobytes()


def check_bits(seed: int, length: int = 441) -> None:
    expected = np.random.default_rng(seed).integers(0, 2, length)
    assert Stream(seed).bits(length) == expected.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_matches_numpy(seed):
    check_uniform(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_bits_match_numpy(seed):
    check_bits(seed)


@SEED_RANGE
@given(st.integers(0, 2**160))
def test_streams_match_numpy_over_seed_range(seed):
    check_uniform(seed, n=3)
    check_bits(seed, length=9)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_bits_of_short_draws_match_numpy(length):
    # next32 hands out both halves of a 64-bit output; an odd length
    # leaves the second half unused.
    check_bits(7, length)


@pytest.mark.parametrize("seed", [3, 2**32 + 1])
def test_package_draws_match_numpy(seed):
    config = EsnConfig(n_nodes=5, w_scale=0.7, w_in_scale=0.2,
                       weight_seed=seed)
    rng = np.random.default_rng(seed)
    w, w_in = esn_weights(config)
    assert w.tobytes() == rng.uniform(0.0, 0.7, (5, 5)).tobytes()
    assert w_in.tobytes() == rng.uniform(0.0, 0.2, 5).tobytes()

    raw = np.random.default_rng(seed).uniform(0.0, 1.0, 6)
    raw /= raw.max()
    bonds = sample_couplings(Topology.RING, 6, seed)
    assert [b.strength for b in bonds] == raw.tolist()
    assert ([(b.i, b.j) for b in bonds]
            == topology_bonds(Topology.RING, 6))


def test_rejects_negative_or_fractional_seed():
    with pytest.raises(ValueError):
        Stream(-1)
    with pytest.raises(TypeError):
        Stream(1.0)
