"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the speed of one core drifts by up to a factor of two over
minutes, while other tenants come and go; this swamps any change to the
program. The benchmark therefore times this loop before every case or
command of a pass and after the last one, and scales the pass's timings by
``NOMINAL_S`` over the mean time of those blocks. A timing reported this way
reads as seconds on a machine running this loop in ``NOMINAL_S``.

The loop never touches ``unravel``, so a change to the program cannot move it.
Its mix resembles the program's step loops: a Python loop over time steps
doing small batched complex algebra on (n, 2) state arrays, uniform draws,
jump masks and a memo of scalar rates.
"""

from __future__ import annotations

import math
import time

STEPS = 4000
BATCH = 512
# Time of one block on a quiet 2-core Intel Xeon VM (Python 3.11, NumPy 2.4);
# only a constant of scale, the same on every commit.
NOMINAL_S = 0.22


def block() -> float:
    """Run the reference loop once; return its wall time in seconds."""
    import numpy as np  # not at module level: set-up is timed with numpy's import in it

    h = np.array([[0, 1], [1, 0]], dtype=complex)
    lop = np.array([[0, 1], [0, 0]], dtype=complex)
    ldl = lop.conj().T @ lop
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    psi = np.full((BATCH, 2), 1 / math.sqrt(2), dtype=complex)
    memo: dict[float, float] = {}
    for k in range(STEPS):
        t = round(k * 0.01, 10)
        g = memo.get(t)
        if g is None:
            g = 0.5 * math.exp(-t) * math.cos(t)
            if len(memo) >= 8:
                memo.clear()
            memo[t] = g
        phi = psi - 0.01j * (psi @ h.T) - 0.005 * g * (psi @ ldl.T)
        jump = rng.random(BATCH) < 0.01 * abs(g)
        phi[jump] = psi[jump] @ lop.T + 1e-3
        psi = phi / np.sqrt(np.einsum("ni,ni->n", phi.conj(), phi).real)[:, None]
    return time.perf_counter() - t0
