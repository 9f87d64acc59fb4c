"""Monte Carlo wave function stepper (first order in dt).

Jump alpha fires with p_a = gamma_a ||L_a psi||^2 dt and lands at
normalize(L_a psi); otherwise the state drifts under the effective
Hamiltonian K and is renormalized. Rates must be nonnegative: a negative
rate means the dynamics needs one of the non-Markovian methods.

``channel_menu`` is this law as a batched kernel on state columns (w, n)
(see ``outcomes``); the weighted methods run it at their sampling rates,
cloning adds its population branches to it. ``run_chunk`` draws as ``run_menus`` does, batch
b from ``rng.replica_generator(seed, b)``; ``first_jump_times`` draws from
``replica_generator(seed, 0)`` alone.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeRate
from .linalg import EPS, apply_columns, normalize_columns, squared_norms
from .master_equation import GeneratorSnapshot, MasterEquation
from .outcomes import Branch, Menu, StepOutcome, row_branches, row_step, run_menus
from .propagate import TimeGrid
from .rng import replica_generator
# trajectory_uniforms stays importable from here, unused, because
# bench/test_bench.py checks that the tracer re-binds it in this module; it
# goes with the benchmark's repair (ROADMAP item 1)
from .rng import trajectory_uniforms  # noqa: F401

__all__ = ["channel_menu", "mcwf_menu", "mcwf_branches", "mcwf_step", "run_chunk", "first_jump_times"]

_BLOCK_STEPS = 512  # steps whose uniforms ``first_jump_times`` draws in one call


def require_nonnegative_rates(snap: GeneratorSnapshot, method: str = "MCWF") -> None:
    lo = float(np.min(snap.gammas)) if len(snap.gammas) else 0.0
    if lo < -EPS:
        raise NegativeRate(
            f"rate {lo:.6g} < 0 at t={snap.t:.6g}; {method} needs a CP-divisible flow "
            "(use NMQJ, a rate-operator method, or a weighted unraveling)",
            time=snap.t,
        )


def channel_menu(
    snap: GeneratorSnapshot, cols: np.ndarray, dt: float, rates: np.ndarray | None = None
) -> Menu:
    """Channel jumps sampled at ``rates`` (default gamma) and the K drift.

    Jump a fires with p_a = r_a ||L_a psi||^2 dt and lands at
    normalize(L_a psi); the menu carries L_a psi and its norm, and only the
    states that jump are normalized. Sampling at r != gamma makes the menu
    weighted: a jump multiplies the weight by gamma_a / r_a (1 where
    r_a = 0) and the no-jump step by 1 + sum_a (r_a - gamma_a)
    ||L_a psi||^2 dt, which keeps E[w |psi><psi|] on the master equation.
    """
    ys = apply_columns(snap.ls, cols)  # (m, w, n)
    n2 = squared_norms(ys)  # (m, n)
    # a zero image (sigma_- on the ground state) stays zero: its p is 0
    norms = np.where(n2 > 0.0, np.sqrt(n2), 1.0)
    drift = normalize_columns(cols - 1j * dt * apply_columns(snap.k, cols), snap.t)
    if rates is None:
        return Menu(snap.gammas[:, None] * n2 * dt, ys, drift, norms=norms)
    live = rates > 0.0
    return Menu(
        rates[:, None] * n2 * dt,
        ys,
        drift,
        jump_factors=np.where(live, snap.gammas / np.where(live, rates, 1.0), 1.0),
        det_factors=1.0 + ((rates - snap.gammas)[:, None] * n2 * dt).sum(axis=0),
        norms=norms,
    )


def mcwf_menu(snap: GeneratorSnapshot, cols: np.ndarray, dt: float) -> Menu:
    """The MCWF kernel: channel jumps at the physical rates, which must be >= 0."""
    require_nonnegative_rates(snap)
    return channel_menu(snap, cols, dt)


def mcwf_branches(me: MasterEquation, psi: np.ndarray, t: float, dt: float) -> list[Branch]:
    """All one-step branches with exact probabilities; deterministic last."""
    return row_branches(mcwf_menu(me.at(t), np.asarray(psi, dtype=complex)[:, None], dt), t)


def mcwf_step(me: MasterEquation, psi: np.ndarray, t: float, dt: float, u: float) -> StepOutcome:
    b = row_step(mcwf_menu(me.at(t), np.asarray(psi, dtype=complex)[:, None], dt), u, t)
    return StepOutcome(b.state, b.event)


def run_chunk(me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, batch0: int, sizes, seed: int, track):
    """Run batches batch0, batch0 + 1, ... of ``sizes`` trajectories each on
    ``track`` (see ``run_menus``); returns (rho_sum series per batch, event
    counts, diagnostics, abort)."""
    return run_menus(mcwf_menu, me, psi0, grid, batch0, sizes, seed, track)


def first_jump_times(
    me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, n: int, seed: int
) -> np.ndarray:
    """First-jump time per trajectory (inf where none fired before t_max).

    All trajectories share the deterministic no-jump path, so the survival
    scan is vectorized: trajectory k jumps at the first step whose uniform
    falls below that step's jump probability; the recorded time is the end
    of that step. The path and its jump probabilities are ``mcwf_menu``'s
    drift and summed probabilities on one column, read from one track. The
    uniforms come from ``replica_generator(seed, 0)``,
    ``_BLOCK_STEPS`` steps at a time for the trajectories still waiting, in
    (steps, waiting) C order, which bounds the memory at n blocks instead
    of n grids.
    """
    times = grid.times()
    steps = grid.n_steps
    track = me.track(times[:-1])
    col = np.asarray(psi0, dtype=complex)[:, None]
    p_step = np.empty(steps)
    for k in range(steps):
        menu = mcwf_menu(track[k], col, grid.dt)  # raises the evaluation error or NegativeRate
        p_step[k], col = menu.probs.sum(), menu.drift
    gen = replica_generator(seed, 0)
    out = np.full(n, np.inf)
    waiting = np.arange(n)
    for start in range(0, steps, _BLOCK_STEPS):
        p = p_step[start : start + _BLOCK_STEPS]
        hit = gen.random((len(p), len(waiting))) < p[:, None]
        fired = hit.any(axis=0)
        out[waiting[fired]] = times[start + 1 + np.argmax(hit[:, fired], axis=0)]
        waiting = waiting[~fired]
        if not len(waiting):
            break
    return out
