"""Waiting-time-distribution unraveling.

Instead of testing for a jump every dt, each trajectory draws a survival
threshold x and integrates the unnormalized state d psi~/dt = -i K(t) psi~
until ||psi~||^2 = x pins the jump time, then picks the channel with
probability gamma_a <L_a^dag L_a> / <G>. Requires a CP-divisible flow, which
also makes the survival norm monotone nonincreasing.

One sampler steps all rows of a tile together, one RK4 step matrix per
grid step, from the package's one RK4 builder (``propagate.rk4_matrices``)
on A = -iK with K read from a half-grid track (t_k, t_k + dt/2, t_k+1);
the matrices of all grid steps are built as one stack. Rows that cross
their threshold in a step are bisected together on the step's cubic Hermite
dense output (psi~ and -i K psi~ at both ends), which evaluates nothing. Only
jumps evaluate off the grid: one track at the jump time (rate check, channel,
jump, RK4 of the rest of the step) and the rest's midpoint. ``run_chunk``
and ``first_jump_times`` (rows retire at their first jump, evaluating
nothing) run this sampler; ``wtd_next_jump`` is its one-row view. Batch b
of an ensemble draws from its own stream ``rng.replica_generator(seed, b)``:
the thresholds of all its rows first, in row order, then, step by step, a
channel draw and a new threshold at each jump of its rows, in row order
(a row's later jumps within the same step before the next row's).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoJumpPossible, UnravelError
from .linalg import EPS, normalize, weighted_outer_sum
from .master_equation import GeneratorSnapshot, GeneratorTrack, MasterEquation
from .mcwf import require_nonnegative_rates
from .outcomes import batch_runs, event_counts
from .propagate import TimeGrid, rk4_matrices
from .rng import replica_generator

__all__ = ["wtd_next_jump", "wtd_select_channel", "run_chunk", "first_jump_times"]

_BISECT_TOL = 1e-10
_POWERS = np.arange(4)


def _crossings(y0, f0, y1, f1, h: float, x: np.ndarray):
    """Offsets into a step of length h where each row's norm falls to x on the
    cubic Hermite interpolant of its ends (y0, f0 = -i K y0) and (y1, f1),
    bisected to _BISECT_TOL on the side below x, and the states there."""
    # psi(s) = sum_p a_p (s/h)^p, so ||psi(s)||^2 = sum_pq gram_pq (s/h)^(p+q)
    a = np.stack([y0, h * f0, 3.0 * (y1 - y0) - h * (2.0 * f0 + f1), 2.0 * (y0 - y1) + h * (f0 + f1)], 1)
    gram = np.einsum("mpi,mqi->mpq", np.conj(a), a).real
    lo, w = np.zeros(len(x)), h
    for _ in range(max(0, math.ceil(math.log2(h / _BISECT_TOL)))):
        w *= 0.5
        powers = ((lo + w) / h)[:, None] ** _POWERS
        lo = lo + w * (np.einsum("mpq,mp,mq->m", gram, powers, powers) >= x)
    hi = lo + w
    return hi, np.einsum("mpi,mp->mi", a, (hi / h)[:, None] ** _POWERS)


def _step_rows(y0, ids, t, t_end, m, k0, k_end, x, jump):
    """Carry rows y0 (indices ids) from t to t_end by the RK4 matrix m;
    a row that crosses its threshold jumps and runs the rest of the step the
    same way, on the K of the jump's track. Returns the rows at t_end and
    which of them are still live."""
    y1 = y0 @ m.T
    live = np.ones(len(ids), dtype=bool)
    crossed = np.nonzero(np.linalg.norm(y1, axis=1) ** 2 < x[ids])[0]
    if not len(crossed):
        return y1, live
    yc, h = y1[crossed], t_end - t
    hits = _crossings(y0[crossed], -1j * (y0[crossed] @ k0.T), yc, -1j * (yc @ k_end.T), h, x[ids[crossed]])
    for r, s_r, psi in zip(crossed, *hits):
        t1 = max(t + s_r, t + 1e-12)
        landed = jump(ids[r], t1, t_end, normalize(psi)[0])
        live[r] = landed is not None
        if live[r]:
            row, at_jump = landed
            k1 = at_jump[0].k
            m1 = rk4_matrices(-1j * k1, -1j * at_jump[1].k, -1j * k_end, t_end - t1)
            y, still = _step_rows(row[None, :], ids[r : r + 1], t1, t_end, m1, k1, k_end, x, jump)
            y1[r], live[r] = y[0], still[0]
    return y1, live


def _sweep(track: GeneratorTrack, psi0: np.ndarray, x: np.ndarray, jump):
    """Step len(x) rows from psi0 over the grid of a ``half_track``, yielding
    the live unnormalized rows at each grid point after the first, until none
    is live. ``x`` holds the rows' thresholds; a row that falls to its
    threshold at t1 in a step ending at t_end calls
    ``jump(i, t1, t_end, pre-jump state)``, which returns None to retire the
    row, or the post-jump state and the track at t1 and at the midpoint of
    (t1, t_end), whose K run the rest of the step."""
    times, a = track.times[::2], -1j * track.k
    s = max(0, (len(a) - 1) // 2)  # steps with all three K on the track; a cut track raises below
    steps = rk4_matrices(a[0 : 2 * s : 2], a[1 : 2 * s : 2], a[2 : 2 * s + 1 : 2], np.diff(times)[:s, None, None])
    lowest = track.gammas.min(axis=1, initial=np.inf)
    ids, tilde = np.arange(len(x)), np.tile(np.asarray(psi0, dtype=complex), (len(x), 1))
    for k in range(len(times) - 1):
        if 2 * k + 2 >= len(lowest) or lowest[2 * k] < -EPS:
            require_nonnegative_rates(track[2 * k], "WTD")  # raises NegativeRate or the evaluation error
            raise track.error
        k_end = track.k[2 * k + 2]
        y1, live = _step_rows(tilde, ids, times[k], times[k + 1], steps[k], track.k[2 * k], k_end, x, jump)
        ids, tilde = ids[live], y1[live]
        yield tilde
        if not len(ids):
            return


def wtd_next_jump(
    me: MasterEquation, psi0: np.ndarray, t0: float, x: float, t_cap: float, dt: float = 1e-2
) -> tuple[float, np.ndarray, bool]:
    """Propagate until the survival norm crosses x or t_cap is reached, in
    steps of dt with the last one cut at t_cap. Returns (t1, normalized state
    at t1, jumped): at a jump, t1 is bisected to 1e-10 and the state is the
    deterministic (pre-jump) one."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"threshold x must lie in (0,1), got {x}")
    times = np.append(np.arange(t0, t_cap - 1e-12, dt), t_cap)
    hit = []  # the one jump; its callback returns None, retiring the row
    rows = np.asarray(psi0, dtype=complex)[None, :]
    for rows in _sweep(me.half_track(times), psi0, np.array([x]), lambda _i, *jump: hit.append(jump)):
        pass
    t1, _t_end, psi = hit[0] if hit else (t_cap, t_cap, normalize(rows[0])[0])
    return float(t1), psi, bool(hit)


def wtd_select_channel(me: MasterEquation, psi_det: np.ndarray, t1: float, u: float) -> int:
    """Channel alpha with probability gamma_a ||L_a psi||^2 / <psi|G psi>."""
    return _select_channel(me.at(t1), psi_det, u)


def _select_channel(snap: GeneratorSnapshot, psi_det: np.ndarray, u: float) -> int:
    """``wtd_select_channel`` at the jump time ``snap.t``."""
    w = snap.gammas * np.linalg.norm(snap.ls @ np.asarray(psi_det, dtype=complex), axis=1) ** 2
    total = float(w.sum())
    if total <= EPS:
        raise NoJumpPossible(f"total jump flux {total:.3e} <= eps at t={snap.t:.6g}", time=snap.t)
    return min(int(np.searchsorted(np.cumsum(w / total), u, side="right")), len(w) - 1)


def run_chunk(me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, batch0: int, sizes, seed: int, track):
    """Batches batch0, batch0 + 1, ... of ``sizes`` rows each, stepped
    together on ``track`` (``half_track`` of the grid, shared by the tiles
    of an ensemble): (rho_sum series per batch, event counts, diagnostics,
    abort), abort being None or (err, k) for a failure in step k, with every
    earlier point kept. As in ``outcomes.run_menus``, ``batch_runs`` stack
    the batches of one size for one reduction."""
    gens = [replica_generator(seed, batch0 + b) for b in range(len(sizes))]
    # each batch's thresholds first, then its rows' jumps as they come
    x = np.concatenate([gen.random(int(size)) for gen, size in zip(gens, sizes)])
    batch_of = np.repeat(np.arange(len(sizes)), sizes)
    jumps = np.zeros(len(me.channels), dtype=np.int64)

    def jump(i, t1, t_end, psi1):
        at_jump = me.track((t1, t1 + 0.5 * (t_end - t1)))
        snap = at_jump[0]
        require_nonnegative_rates(snap, "WTD")
        u, x_next = gens[batch_of[i]].random(2)
        a = _select_channel(snap, psi1, u)
        jumps[a] += 1
        x[i] = x_next
        return normalize(snap.ls[a] @ psi1)[0], at_jump

    psi = np.asarray(psi0, dtype=complex)
    rho_sum = np.zeros((len(sizes), grid.n_steps + 1, me.dim, me.dim), dtype=complex)
    for i, size in enumerate(sizes):
        rho_sum[i, 0] = int(size) * np.outer(psi, np.conj(psi))
    k, abort = 0, None
    runs = batch_runs(sizes)
    try:
        # no row retires, so the rows of each batch keep their places
        for k, tilde in enumerate(_sweep(track, psi, x, jump), start=1):
            inv = np.linalg.norm(tilde, axis=1) ** -2.0
            for run in runs:
                rho_sum[run.batches, k] = weighted_outer_sum(run.view(tilde.T), run.view(inv))
    except UnravelError as err:
        abort = (err, k)
    return rho_sum, event_counts(np.append(jumps, 0)), {}, abort


def first_jump_times(me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, n: int, seed: int) -> np.ndarray:
    """First-jump time per trajectory (inf where the norm never crosses), by
    ``run_chunk``'s sampler with each row retiring at its first jump; the
    thresholds are ``replica_generator(seed, 0)``'s first n draws."""
    x = replica_generator(seed, 0).random(n)
    out = np.full(n, np.inf)

    def retire(i, t1, _t_end, _psi1):
        out[i] = t1

    for _ in _sweep(me.half_track(grid.times()), psi0, x, retire):
        pass
    return out
