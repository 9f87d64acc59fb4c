"""Counter-based random streams with reproducible substream keys.

Trajectory k always draws from Philox(key=[seed, k]) no matter which chunk
holds it, and ensemble-level methods (NMQJ, cloning) give replica r the
stream Philox(key=[seed, 2^63 + r]); the offset keeps replica keys disjoint
from trajectory keys. A seed fixes every draw; ``--threads`` has no effect.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trajectory_generator", "trajectory_uniforms", "replica_generator"]

_REPLICA_OFFSET = 2**63


def trajectory_generator(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def trajectory_uniforms(seed: int, idx0: int, n: int, steps: int) -> np.ndarray:
    """(n, steps) uniforms; row k belongs to trajectory idx0+k, one draw per step."""
    u = np.empty((n, steps))
    for k in range(n):
        u[k] = trajectory_generator(seed, idx0 + k).random(steps)
    return u


def replica_generator(seed: int, replica: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, _REPLICA_OFFSET + replica], dtype=np.uint64))
    )
