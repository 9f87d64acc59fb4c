"""Monte Carlo wave function stepper (first order in dt).

Jump alpha fires with p_a = gamma_a ||L_a psi||^2 dt and lands at
normalize(L_a psi); otherwise the state drifts under the effective
Hamiltonian K and is renormalized. Rates must be nonnegative: a negative
rate means the dynamics needs one of the non-Markovian methods.

``channel_menu`` is this law as a batched kernel (see ``outcomes``); the
weighted methods run it at their sampling rates and cloning adds its
population branches to it.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeRate
from .linalg import EPS
from .master_equation import GeneratorSnapshot, MasterEquation
from .outcomes import Branch, Menu, StepOutcome, row_branches, row_step, run_menus
from .propagate import TimeGrid
from .rng import trajectory_uniforms

__all__ = [
    "channel_menu",
    "mcwf_menu",
    "mcwf_branches",
    "mcwf_step",
    "run_chunk",
    "first_jump_times",
]


def require_nonnegative_rates(snap: GeneratorSnapshot, method: str = "MCWF") -> None:
    lo = float(np.min(snap.gammas)) if len(snap.gammas) else 0.0
    if lo < -EPS:
        raise NegativeRate(
            f"rate {lo:.6g} < 0 at t={snap.t:.6g}; {method} needs a CP-divisible flow "
            "(use NMQJ, a rate-operator method, or a weighted unraveling)",
            time=snap.t,
        )


def channel_menu(
    snap: GeneratorSnapshot, rows: np.ndarray, dt: float, rates: np.ndarray | None = None
) -> Menu:
    """Channel jumps sampled at ``rates`` (default gamma) and the K drift.

    Jump a fires with p_a = r_a ||L_a psi||^2 dt and lands at
    normalize(L_a psi). Sampling at r != gamma makes the menu weighted: a
    jump multiplies the weight by gamma_a / r_a (1 where r_a = 0) and the
    no-jump step by 1 + sum_a (r_a - gamma_a) ||L_a psi||^2 dt, which keeps
    E[w |psi><psi|] on the master equation.
    """
    ys = rows @ np.swapaxes(snap.ls, 1, 2)  # (m, n, w); matmul beats einsum here
    n2 = np.einsum("ani,ani->an", ys, np.conj(ys)).real  # (m, n)
    norms = np.sqrt(n2)
    # a zero image (sigma_- on the ground state) stays zero: its p is 0
    targets = np.swapaxes(ys / np.where(norms > 0.0, norms, 1.0)[..., None], 0, 1)
    drift = rows - 1j * dt * (rows @ snap.k.T)
    drift /= np.linalg.norm(drift, axis=1)[:, None]
    if rates is None:
        return Menu((snap.gammas[:, None] * n2 * dt).T, targets, drift)
    live = rates > 0.0
    return Menu(
        (rates[:, None] * n2 * dt).T,
        targets,
        drift,
        jump_factors=np.where(live, snap.gammas / np.where(live, rates, 1.0), 1.0),
        det_factors=1.0 + ((rates - snap.gammas)[:, None] * n2 * dt).sum(axis=0),
    )


def mcwf_menu(snap: GeneratorSnapshot, rows: np.ndarray, dt: float) -> Menu:
    """The MCWF kernel: channel jumps at the physical rates, which must be >= 0."""
    require_nonnegative_rates(snap)
    return channel_menu(snap, rows, dt)


def mcwf_branches(me: MasterEquation, psi: np.ndarray, t: float, dt: float) -> list[Branch]:
    """All one-step branches with exact probabilities; deterministic last."""
    return row_branches(mcwf_menu(me.at(t), np.asarray(psi, dtype=complex)[None, :], dt), t)


def mcwf_step(me: MasterEquation, psi: np.ndarray, t: float, dt: float, u: float) -> StepOutcome:
    b = row_step(mcwf_menu(me.at(t), np.asarray(psi, dtype=complex)[None, :], dt), u, t)
    return StepOutcome(b.state, b.event)


def run_chunk(
    me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, idx0: int, n: int, seed: int
):
    """Run n trajectories; returns (rho_sum series, event counts, diagnostics, abort)."""
    return run_menus(mcwf_menu, me, psi0, grid, idx0, n, seed)


def first_jump_times(
    me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, n: int, seed: int
) -> np.ndarray:
    """First-jump time per trajectory (inf where none fired before t_max).

    All trajectories share the deterministic no-jump path, so the survival
    scan is vectorized: trajectory k jumps at the first step whose uniform
    falls below that step's jump probability; the recorded time is the end
    of that step.
    """
    times = grid.times()
    steps = grid.n_steps
    row = np.asarray(psi0, dtype=complex)[None, :]
    p_step = np.empty(steps)
    for k in range(steps):
        menu = mcwf_menu(me.at(times[k]), row, grid.dt)
        p_step[k] = menu.probs.sum()
        row = menu.drift
    u = trajectory_uniforms(seed, 0, n, steps)
    hit = u < p_step[None, :]
    first = np.argmax(hit, axis=1)
    out = times[first + 1].astype(float)
    out[~hit.any(axis=1)] = np.inf
    return out
