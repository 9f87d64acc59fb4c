"""Waiting-time-distribution unraveling.

Instead of testing for a jump every dt, draw a survival threshold x and
integrate the unnormalized state d psi~/dt = -i K(t) psi~ until
||psi~||^2 = x pins the jump time (bisection), then pick the channel with
probability gamma_a <L_a^dag L_a> / <G>. Requires a CP-divisible flow, which
also makes the survival norm monotone nonincreasing.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeRate, NoJumpPossible
from .linalg import EPS, normalize
from .master_equation import MasterEquation
from .mcwf import require_nonnegative_rates
from .outcomes import event_counts
from .propagate import TimeGrid
from .rng import trajectory_generator

__all__ = ["wtd_next_jump", "wtd_select_channel", "run_chunk", "first_jump_times"]

_BISECT_TOL = 1e-10


def _rk4_psi(me: MasterEquation, t: float, psi: np.ndarray, h: float) -> np.ndarray:
    # dpsi/dt = -i K(t) psi on the unnormalized state
    k1 = -1j * (me.at(t).k @ psi)
    k2 = -1j * (me.at(t + 0.5 * h).k @ (psi + 0.5 * h * k1))
    k3 = -1j * (me.at(t + 0.5 * h).k @ (psi + 0.5 * h * k2))
    k4 = -1j * (me.at(t + h).k @ (psi + h * k3))
    return psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(me: MasterEquation, t: float, psi: np.ndarray, tau: float) -> np.ndarray:
    # two half steps keep the local error ~(tau/2)^5, enough for the
    # bisection's 1e-10 time resolution at tau <= dt
    half = 0.5 * tau
    return _rk4_psi(me, t + half, _rk4_psi(me, t, psi, half), half)


def wtd_next_jump(
    me: MasterEquation,
    psi0: np.ndarray,
    t0: float,
    x: float,
    t_cap: float,
    dt: float = 1e-2,
) -> tuple[float, np.ndarray, bool]:
    """Propagate until the survival norm crosses x or t_cap is reached.

    Returns (t1, normalized state at t1, jumped). The crossing time is
    bisected to 1e-10; the returned state at a jump is the deterministic
    (pre-jump) state, normalized.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"threshold x must lie in (0,1), got {x}")
    tilde = np.asarray(psi0, dtype=complex).copy()
    t = float(t0)
    while t < t_cap - 1e-12:
        require_nonnegative_rates(me.at(t), "WTD")
        h = min(dt, t_cap - t)
        nxt = _rk4_psi(me, t, tilde, h)
        n2 = float(np.vdot(nxt, nxt).real)
        if n2 >= x:
            tilde, t = nxt, t + h
            continue
        lo, hi = 0.0, h
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if float(np.vdot(s := _advance(me, t, tilde, mid), s).real) >= x:
                lo = mid
            else:
                hi = mid
        t1 = t + hi
        psi1 = normalize(_advance(me, t, tilde, hi))[0]
        return t1, psi1, True
    return float(t_cap), normalize(tilde)[0], False


def wtd_select_channel(me: MasterEquation, psi_det: np.ndarray, t1: float, u: float) -> int:
    """Channel alpha with probability gamma_a ||L_a psi||^2 / <psi|G psi>."""
    snap = me.at(t1)
    y = np.einsum("aij,j->ai", snap.ls, np.asarray(psi_det, dtype=complex))
    w = snap.gammas * np.einsum("ai,ai->a", y, np.conj(y)).real
    total = float(w.sum())
    if total <= EPS:
        raise NoJumpPossible(f"total jump flux {total:.3e} <= eps at t={t1:.6g}", time=t1)
    c = 0.0
    for a in range(len(w) - 1):
        c += w[a] / total
        if u < c:
            return a
    return len(w) - 1


def run_chunk(me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, idx0: int, n: int, seed: int):
    """Sequential-draw trajectories (threshold, then channel, repeated)."""
    times = grid.times()
    steps = grid.n_steps
    d = me.dim
    psi_init = np.asarray(psi0, dtype=complex)
    rho_sum = np.zeros((steps + 1, d, d), dtype=complex)
    rho_sum[0] = n * np.outer(psi_init, np.conj(psi_init))  # an abort keeps the true t = 0 point
    jumps = np.zeros(len(me.channels), dtype=np.int64)
    abort = None
    for k in range(n):
        gen = trajectory_generator(seed, idx0 + k)
        try:
            path, traj_jumps = _one_trajectory(me, psi_init, times, gen)
        except (NegativeRate, NoJumpPossible) as err:
            abort = (err, 0)
            break
        rho_sum[1:] += np.einsum("ti,tj->tij", path[1:], np.conj(path[1:]))
        jumps += traj_jumps
    return rho_sum, event_counts(np.append(jumps, 0)), {}, abort


def _one_trajectory(me, psi0, times, gen):
    steps = len(times) - 1
    d = psi0.shape[0]
    path = np.empty((steps + 1, d), dtype=complex)
    path[0] = psi0
    jumps = np.zeros(len(me.channels), dtype=np.int64)
    t = times[0]
    tilde = psi0.copy()  # unnormalized within the current no-jump segment
    x = gen.random()
    for g in range(1, steps + 1):
        t_next = times[g]
        while True:
            require_nonnegative_rates(me.at(t), "WTD")
            h = t_next - t
            nxt = _rk4_psi(me, t, tilde, h)
            if float(np.vdot(nxt, nxt).real) >= x:
                tilde, t = nxt, t_next
                break
            lo, hi = 0.0, h
            while hi - lo > _BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if float(np.vdot(s := _advance(me, t, tilde, mid), s).real) >= x:
                    lo = mid
                else:
                    hi = mid
            t1 = max(t + hi, t + 1e-12)
            psi1 = normalize(_advance(me, t, tilde, hi))[0]
            a = wtd_select_channel(me, psi1, t1, gen.random())
            jumps[a] += 1
            tilde = normalize(me.at(t1).ls[a] @ psi1)[0]
            t = t1
            x = gen.random()
        path[g] = normalize(tilde)[0]
    return path, jumps


def first_jump_times(
    me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, n: int, seed: int, refine: int = 32
) -> np.ndarray:
    """First-jump time per trajectory (inf where the norm never crosses).

    All trajectories share the same deterministic survival curve, so it is
    integrated once; each trajectory's threshold (the first draw of its
    stream, matching run_chunk) is located on a ``refine``-times finer
    sub-curve and log-interpolated inside the sub-interval. Time accuracy is
    far below dt; use wtd_next_jump for bisection-grade single jumps.
    """
    times = grid.times()
    steps = grid.n_steps
    psi = np.asarray(psi0, dtype=complex)
    coarse = np.empty((steps + 1, psi.shape[0]), dtype=complex)
    coarse[0] = psi
    for k in range(steps):
        require_nonnegative_rates(me.at(times[k]), "WTD")
        coarse[k + 1] = _rk4_psi(me, times[k], coarse[k], grid.dt)
    n2 = np.einsum("ti,ti->t", coarse, np.conj(coarse)).real
    xs = np.array([trajectory_generator(seed, k).random() for k in range(n)])
    out = np.full(n, np.inf)
    # first grid index where the norm dips below x
    bracket = np.searchsorted(-n2, -xs, side="right")
    alive = bracket <= steps
    sub_dt = grid.dt / refine
    for kb in np.unique(bracket[alive]):
        k = int(kb) - 1  # crossing happens inside [times[k], times[k+1]]
        sub = np.empty((refine + 1, psi.shape[0]), dtype=complex)
        sub[0] = coarse[k]
        for j in range(refine):
            sub[j + 1] = _rk4_psi(me, times[k] + j * sub_dt, sub[j], sub_dt)
        sn2 = np.einsum("ti,ti->t", sub, np.conj(sub)).real
        rows = np.nonzero(alive & (bracket == kb))[0]
        pos = np.searchsorted(-sn2, -xs[rows], side="right") - 1
        pos = np.clip(pos, 0, refine - 1)
        a, b = sn2[pos], sn2[pos + 1]
        frac = np.log(a / xs[rows]) / np.log(a / b)
        out[rows] = times[k] + (pos + frac) * sub_dt
    return out
