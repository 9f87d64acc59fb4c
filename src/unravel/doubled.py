"""Pair-of-vectors unraveling for generators with negative rates.

A trajectory carries theta = (phi, psi), two unnormalized vectors whose
norms carry the statistical weight. The density matrix is recovered as the
hermitized ensemble mean of |phi><psi| with no per-trajectory
renormalization. Negative rates are absorbed into the jump factorization by
flipping the sign of one factor, so every jump has a nonnegative firing
probability while C rho D^dag still reproduces gamma L rho L^dag. The
batched kernel ``doubled_menu`` works on rows (phi, psi) of width 2d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ZeroVector
from .linalg import EPS
from .master_equation import MasterEquation
from .outcomes import Branch, Menu, row_branches, row_step, run_menus
from .propagate import TimeGrid

__all__ = [
    "DoubledState",
    "DoubledModel",
    "gksl_to_doubled",
    "doubled_menu",
    "doubled_branches",
    "doubled_step",
    "run_chunk",
]

Matrix = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class DoubledState:
    phi: np.ndarray
    psi: np.ndarray

    @property
    def norm2(self) -> float:
        return float(np.vdot(self.phi, self.phi).real + np.vdot(self.psi, self.psi).real)


@dataclass(frozen=True)
class DoubledModel:
    """Drift blocks A, B and jump factor pairs (C_i, D_i), all time-dependent."""

    a: Matrix
    b: Matrix
    cs: tuple[Matrix, ...]
    ds: tuple[Matrix, ...]


def gksl_to_doubled(me: MasterEquation) -> DoubledModel:
    """Factor the generator so that drift = A rho + rho B^dag and the jump
    sandwich C_i rho D_i^dag carries the signed rate (sign goes on D)."""

    def drift_block(t: float) -> np.ndarray:
        snap = me.at(t)
        return -1j * snap.h - 0.5 * snap.gamma_l

    def c_factor(i: int) -> Matrix:
        def c(t: float) -> np.ndarray:
            snap = me.at(t)
            return np.sqrt(abs(snap.gammas[i])) * snap.ls[i]

        return c

    def d_factor(i: int) -> Matrix:
        def d(t: float) -> np.ndarray:
            snap = me.at(t)
            g = snap.gammas[i]
            return np.copysign(1.0, g) * np.sqrt(abs(g)) * snap.ls[i]

        return d

    m = len(me.channels)
    return DoubledModel(
        a=drift_block,
        b=drift_block,
        cs=tuple(c_factor(i) for i in range(m)),
        ds=tuple(d_factor(i) for i in range(m)),
    )


def _norm2(rows: np.ndarray) -> np.ndarray:
    """Joint squared norm ||phi||^2 + ||psi||^2 of each row."""
    return np.einsum("ni,ni->n", rows, np.conj(rows)).real


def doubled_menu(model: DoubledModel, t: float, rows: np.ndarray, dt: float) -> Menu:
    """Kernel on rows theta = (phi, psi) of width 2d.

    Jump i fires with q_i dt, q_i = (||C_i phi||^2 + ||D_i psi||^2) / ||theta||^2,
    and lands at (C_i phi, D_i psi) rescaled to the pre-jump joint norm; the
    no-jump step is the Euler step of (A + sigma) phi, (B + sigma) psi with
    sigma = sum_i q_i / 2, left unnormalized.
    """
    d = rows.shape[1] // 2
    phis, psis = rows[:, :d], rows[:, d:]
    cs = np.array([c(t) for c in model.cs]).reshape(-1, d, d)
    ds = np.array([dd(t) for dd in model.ds]).reshape(-1, d, d)
    images = np.concatenate([phis @ np.swapaxes(cs, 1, 2), psis @ np.swapaxes(ds, 1, 2)], axis=2)
    jn2 = np.einsum("ani,ani->an", images, np.conj(images)).real
    n2 = _norm2(rows)
    if np.any(n2 <= EPS):
        raise ZeroVector(f"doubled state collapsed to zero at t={t:.6g}", time=t)
    qs = jn2 / n2[None, :]
    # a zero image stays zero: its branch has probability 0
    targets = np.sqrt(n2[None, :] / np.where(jn2 > 0.0, jn2, 1.0))[..., None] * images
    sigma = 0.5 * qs.sum(axis=0)
    blocks = np.zeros((2 * d, 2 * d), dtype=complex)
    blocks[:d, :d], blocks[d:, d:] = model.a(t), model.b(t)
    drift = rows + dt * (rows @ blocks.T + sigma[:, None] * rows)
    return Menu((qs * dt).T, np.swapaxes(targets, 0, 1), drift)


def _paired(b: Branch) -> Branch:
    d = b.state.shape[0] // 2
    return b._replace(state=DoubledState(b.state[:d], b.state[d:]))


def _theta_row(theta: DoubledState) -> np.ndarray:
    return np.concatenate([theta.phi, theta.psi]).astype(complex)[None, :]


def doubled_branches(
    model: DoubledModel, theta: DoubledState, t: float, dt: float
) -> Sequence[Branch]:
    return [_paired(b) for b in row_branches(doubled_menu(model, t, _theta_row(theta), dt), t)]


def doubled_step(
    model: DoubledModel, theta: DoubledState, t: float, dt: float, u: float
) -> tuple[DoubledState, object]:
    branch = _paired(row_step(doubled_menu(model, t, _theta_row(theta), dt), u, t))
    return branch.state, branch.event


def _pair_outer(rows: np.ndarray, weights=None) -> np.ndarray:
    d = rows.shape[1] // 2
    return np.einsum("ni,nj->ij", rows[:, :d], np.conj(rows[:, d:]))


def run_chunk(
    me: MasterEquation,
    psi0: np.ndarray,
    grid: TimeGrid,
    idx0: int,
    n: int,
    seed: int,
):
    """Evolve n doubled trajectories; rho_sum accumulates sum_k |phi_k><psi_k|
    raw (not hermitized), norms and all, which is the estimator's convention."""
    model = gksl_to_doubled(me)
    psi0 = np.asarray(psi0, dtype=complex)
    return run_menus(
        lambda snap, rows, dt: doubled_menu(model, snap.t, rows, dt),
        me,
        np.concatenate([psi0, psi0]),
        grid,
        idx0,
        n,
        seed,
        outer=_pair_outer,
        tally=("theta_norm2_sum", lambda rows: _norm2(rows).sum()),
    )
