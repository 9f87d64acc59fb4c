"""Random streams: block Philox against numpy's Philox generators."""

import numpy as np
import pytest

from unravel import rng
from unravel.rng import (
    RekeyedPhilox,
    philox_uniforms,
    replica_generator,
    trajectory_generator,
    trajectory_uniforms,
)

SEED = 42
# trajectory keys at both ends of the uint64 range and replica keys 2^63 + r
KEYS = [0, 1, 7, 2**64 - 1, 2**63, 2**63 + 5]


def _reference(seed, key, block, count):
    bits = np.random.Philox(key=np.array([seed, key], dtype=np.uint64))
    return np.random.Generator(bits).random(4 * block + count)[4 * block :]


@pytest.mark.parametrize("count", [1, 3, 4, 6, 13])
@pytest.mark.parametrize("block", [0, 1, 128])
@pytest.mark.parametrize("path", ["vector", "rekeyed"])
def test_block_draws_match_numpy_philox(monkeypatch, path, block, count):
    # every count here fits the vectorized path; a limit of 0 forces re-keying
    if path == "rekeyed":
        monkeypatch.setattr(rng, "_VECTOR_DRAWS", 0)
    for seed in (SEED, 2**64 - 1):
        u = philox_uniforms(seed, KEYS, block, count)
        assert u.shape == (len(KEYS), count)
        for i, key in enumerate(KEYS):
            assert np.array_equal(u[i], _reference(seed, key, block, count)), (seed, key)


def test_long_runs_and_split_draws_match_one_stream():
    # 200 draws take the re-keyed path; a stream split at a block boundary
    # gives the same doubles as one draw
    keys = np.arange(3, 9)
    whole = philox_uniforms(SEED, keys, 0, 200)
    parts = np.hstack([philox_uniforms(SEED, keys, b, 4) for b in range(50)])
    assert np.array_equal(whole, parts)
    assert np.array_equal(whole, trajectory_uniforms(SEED, 3, 6, 200))
    for i, k in enumerate(keys):
        assert np.array_equal(whole[i], trajectory_generator(SEED, int(k)).random(200))


def test_replica_keys_are_offset_trajectory_keys():
    r = 3
    assert np.array_equal(
        philox_uniforms(SEED, [2**63 + r], 0, 10)[0], replica_generator(SEED, r).random(10)
    )


def test_rekeyed_draws_start_anywhere_in_any_stream():
    """One re-keyed Philox serves draws at any position, in any order of
    streams, with the doubles of each stream's own generator."""
    streams = RekeyedPhilox(SEED)
    for key in (KEYS + [3, 0])[::-1]:
        for start in (0, 1, 3, 4, 7, 130):
            for count in (1, 2, 5):
                want = _reference(SEED, key, 0, start + count)[start:]
                assert np.array_equal(streams.uniforms(key, start, count), want), (key, start, count)
