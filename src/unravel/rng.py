"""Random streams: one numpy Philox generator per batch.

Batch b of every ensemble draws from ``replica_generator(seed, b)``, the
stream Philox(key=[seed, 2^63 + b]), in an order fixed within the batch
(see ``outcomes.run_menus``, which ``cloning`` runs on too, ``wtd.run_chunk``
and ``nmqj``).
An ensemble has a fixed number of batches and a tile always holds whole
batches, so a seed fixes every draw whatever the tiles; ``--threads`` has
no effect. Trajectory k of a batch therefore draws from its batch's stream,
and its path depends on the batch sizes, that is on N.

``trajectory_generator`` and ``trajectory_uniforms`` are the per-trajectory
streams Philox(key=[seed, k]) that the runners drew from before. No runner
calls them; they stay only as the names the benchmark's tracer wraps, and
go with the benchmark's repair (ROADMAP item 1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["trajectory_generator", "trajectory_uniforms", "replica_generator"]

# keeps batch keys disjoint from the trajectory keys of ``trajectory_generator``
_REPLICA_OFFSET = 2**63


def replica_generator(seed: int, replica: int) -> np.random.Generator:
    """The stream of batch (or replica) ``replica``."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, _REPLICA_OFFSET + replica], dtype=np.uint64))
    )


def trajectory_generator(seed: int, index: int) -> np.random.Generator:
    """The stream Philox(key=[seed, index]); called by no runner (ROADMAP item 1)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def trajectory_uniforms(seed: int, idx0: int, n: int, steps: int) -> np.ndarray:
    """(n, steps) uniforms, row k the first draws of
    ``trajectory_generator(seed, idx0 + k)``; called by no runner (ROADMAP
    item 1)."""
    return np.array([trajectory_generator(seed, idx0 + k).random(steps) for k in range(n)]).reshape(n, steps)
