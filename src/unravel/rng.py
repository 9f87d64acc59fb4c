"""Counter-based random streams with reproducible substream keys.

Trajectory k always draws from Philox(key=[seed, k]) no matter which tile
of rows holds it, and ensemble-level methods (NMQJ, cloning) give replica r
the stream Philox(key=[seed, 2^63 + r]); the offset keeps replica keys
disjoint from trajectory keys. A seed fixes every draw; ``--threads`` has no
effect.

Philox4x64-10 is counter based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): block b of a stream, its draws 4b .. 4b + 3, is a
pure function of the key and the counter b + 1. ``philox_uniforms`` returns
such blocks for a whole vector of keys, the same doubles as numpy's
``Generator(Philox(key)).random``, without building a generator per stream:
a few blocks per key are computed for all keys at once with numpy integer
arithmetic; longer runs of one stream re-key a single numpy Philox, whose C
loop draws faster than that arithmetic once a stream takes more than
``_VECTOR_DRAWS`` draws. ``RekeyedPhilox`` is that re-keyed Philox, for
draws at any position of any stream (``wtd``'s jumps).
``trajectory_generator`` and ``replica_generator`` hand out the same streams
as stateful generators.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trajectory_generator", "trajectory_uniforms", "philox_uniforms", "RekeyedPhilox", "replica_generator"]

_REPLICA_OFFSET = 2**63

# Philox4x64 round multipliers and Weyl key increments (Random123, numpy),
# shaped to act on the (2, n, blocks) stacks of ``_philox_blocks``
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_PHILOX_ROUNDS = 10
# draws per stream up to which the vectorized arithmetic beats re-keying
# numpy's Philox (about 80 ns a draw against 5 ns plus 7 us a stream)
_VECTOR_DRAWS = 64
# Philox blocks computed by one pass of the vectorized arithmetic; its
# temporaries are about a dozen uint64 arrays of this many entries
_VECTOR_BLOCKS = 2048
_MASK64 = 2**64 - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32


def trajectory_generator(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products of the round
    multipliers and a (2, n, blocks) stack x, from 32-bit halves (uint64
    array arithmetic wraps modulo 2^64)."""
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lo_lo, hi_lo = _M_LO * x_lo, _M_HI * x_lo
    # the middle column sums three 32 x 32-bit terms and cannot overflow
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LO32) + _M_LO * x_hi
    return _M_HI * x_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32), _PHILOX_M * x


def philox_uniforms(seed: int, keys, block: int, count: int) -> np.ndarray:
    """(len(keys), count) uniforms in [0, 1): row i holds draws
    4 block .. 4 block + count - 1 of the stream Philox(key=[seed, keys[i]]),
    bit for bit what ``Generator(Philox(key=[seed, keys[i]])).random`` gives
    there."""
    seed, block = int(seed), int(block)
    keys = np.asarray(keys, dtype=np.uint64)
    if count > _VECTOR_DRAWS:
        return _rekeyed_uniforms(seed, keys, block, count)
    return _vector_uniforms(seed, keys, block, count)


def _vector_uniforms(seed: int, keys: np.ndarray, block: int, count: int) -> np.ndarray:
    """``philox_uniforms`` by numpy arithmetic over all keys and blocks, at
    most ``_VECTOR_BLOCKS`` blocks at a time, which bounds the temporaries."""
    blocks = -(-count // 4)
    rows = max(1, _VECTOR_BLOCKS // max(blocks, 1))
    out = np.empty((len(keys), count))
    for i in range(0, len(keys), rows):
        out[i : i + rows] = _philox_blocks(seed, keys[i : i + rows], block, blocks)[:, :count]
    return out


def _philox_blocks(seed: int, keys: np.ndarray, block: int, blocks: int) -> np.ndarray:
    """Draws 4 block .. 4 (block + blocks) - 1 of each key's stream. As in
    numpy, block b is the Philox4x64-10 output at counter (b + 1, 0, 0, 0),
    and a draw is its 64-bit word x as (x >> 11) * 2^-53. A round's two
    multiplies run on one stack: counter words (0, 2) form one (2, n, blocks)
    array, words (1, 3) another, and the key words (0, 1) a (2, n, 1) one."""
    k1 = keys[:, None]
    c0 = np.uint64(block + 1) + np.arange(blocks, dtype=np.uint64) + np.zeros_like(k1)
    # counter words 1 to 3 start at 0
    even, odd = np.stack([c0, np.zeros_like(c0)]), np.uint64(0)
    key = np.stack([np.full_like(k1, seed & _MASK64), k1])
    for _ in range(_PHILOX_ROUNDS):
        hi, lo = _mulhilo(even)
        # words (0, 2) become hi1 ^ c1 ^ key0 and hi0 ^ c3 ^ key1, words (1, 3) lo1 and lo0
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
        key = key + _PHILOX_W  # the round keys: key += W after every round
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(len(k1), 4 * blocks)
    return (words >> np.uint64(11)).astype(float) * 2.0**-53


class RekeyedPhilox:
    """Draws from any position of the streams Philox(key=[seed, k]), by one
    numpy Philox set to the stream's key at the block holding that position,
    with an empty buffer, so that its next block is that one. A request of
    two draws costs about 6 us, building a generator about 20 us."""

    def __init__(self, seed: int):
        self._bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)
        # a copy of the state, whose counter word 0, key word 1 and buffer
        # position are set for each request
        self._state = self._bits.state

    def uniforms(self, key: int, start: int, count: int) -> np.ndarray:
        """Draws start .. start + count - 1 of the stream Philox(key=[seed, key])."""
        block, skip = divmod(int(start), 4)
        self._state["state"]["counter"][0] = block
        self._state["state"]["key"][1] = key
        self._state["buffer_pos"] = 4
        self._bits.state = self._state
        return self._gen.random(skip + count)[skip:]


def _rekeyed_uniforms(seed: int, keys: np.ndarray, block: int, count: int) -> np.ndarray:
    """``philox_uniforms`` by one ``RekeyedPhilox`` set to each key in turn."""
    streams = RekeyedPhilox(seed)
    out = np.empty((len(keys), count))
    for i, k in enumerate(keys):
        out[i] = streams.uniforms(k, 4 * block, count)
    return out


def trajectory_uniforms(seed: int, idx0: int, n: int, steps: int) -> np.ndarray:
    """(n, steps) uniforms; row k belongs to trajectory idx0+k, one draw per step."""
    return philox_uniforms(seed, np.arange(idx0, idx0 + n), 0, steps)


def replica_generator(seed: int, replica: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, _REPLICA_OFFSET + replica], dtype=np.uint64))
    )
