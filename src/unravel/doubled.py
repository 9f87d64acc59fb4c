"""Pair-of-vectors unraveling for generators with negative rates.

A trajectory carries theta = (phi, psi), two unnormalized vectors whose
norms carry the statistical weight. The density matrix is recovered as the
hermitized ensemble mean of |phi><psi| with no per-trajectory
renormalization. Negative rates are absorbed into the jump factorization by
flipping the sign of one factor, so every jump has a nonnegative firing
probability while C rho D^dag still reproduces gamma L rho L^dag. The
batched kernel ``factors_menu`` works on rows (phi, psi) of width 2d; the
runner feeds it ``doubled_factors`` of each step's snapshot, and the one-row
views ``doubled_branches`` and ``doubled_step`` that of ``me.at(t)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ZeroVector
from .linalg import EPS, outer_sum, squared_norms
from .master_equation import GeneratorSnapshot, MasterEquation
from .outcomes import Branch, Menu, row_branches, row_step, run_menus
from .propagate import TimeGrid

__all__ = [
    "DoubledState",
    "DoubledFactors",
    "doubled_factors",
    "factors_menu",
    "doubled_branches",
    "doubled_step",
    "run_chunk",
]


@dataclass(frozen=True)
class DoubledState:
    phi: np.ndarray
    psi: np.ndarray

    @property
    def norm2(self) -> float:
        return float(np.vdot(self.phi, self.phi).real + np.vdot(self.psi, self.psi).real)


class DoubledFactors(NamedTuple):
    """The doubled generator at one time; the jump factors stacked per channel."""

    a: np.ndarray   # (d, d)
    b: np.ndarray   # (d, d)
    cs: np.ndarray  # (m, d, d)
    ds: np.ndarray  # (m, d, d)


def doubled_factors(snap: GeneratorSnapshot) -> DoubledFactors:
    """Factor the generator so that drift = A rho + rho B^dag and the jump
    sandwich C_i rho D_i^dag carries the signed rate (sign goes on D):
    A = B = -iH - G_L/2, C_i = sqrt|gamma_i| L_i, D_i = sign(gamma_i) C_i."""
    drift = -1j * snap.h - 0.5 * snap.gamma_l
    root = np.sqrt(np.abs(snap.gammas))
    signed = np.copysign(1.0, snap.gammas) * root
    return DoubledFactors(drift, drift, root[:, None, None] * snap.ls, signed[:, None, None] * snap.ls)


def factors_menu(f: DoubledFactors, t: float, rows: np.ndarray, dt: float) -> Menu:
    """Kernel on rows theta = (phi, psi) of width 2d.

    Jump i fires with q_i dt, q_i = (||C_i phi||^2 + ||D_i psi||^2) / ||theta||^2,
    and lands at (C_i phi, D_i psi) rescaled to the pre-jump joint norm (the
    menu carries the image and the factor; only rows that jump are rescaled); the
    no-jump step is the Euler step of (A + sigma) phi, (B + sigma) psi with
    sigma = sum_i q_i / 2, left unnormalized.
    """
    m, d = f.cs.shape[0], rows.shape[1] // 2
    # the two halves are written into one stack (m, n, 2d), with no
    # concatenated copy; a matmul against block-diagonal (C_i, D_i) factors
    # would flip the sign of exact zeros in the images
    images = np.empty((m, rows.shape[0], 2 * d), dtype=complex)
    np.matmul(rows[:, :d], np.swapaxes(f.cs, 1, 2), out=images[:, :, :d])
    np.matmul(rows[:, d:], np.swapaxes(f.ds, 1, 2), out=images[:, :, d:])
    jn2 = squared_norms(images)
    n2 = squared_norms(rows)
    if np.any(n2 <= EPS):
        raise ZeroVector(f"doubled state collapsed to zero at t={t:.6g}", time=t)
    qs = jn2 / n2[None, :]
    # a zero image stays zero: its branch has probability 0
    scales = np.sqrt(n2[None, :] / np.where(jn2 > 0.0, jn2, 1.0))
    sigma = 0.5 * qs.sum(axis=0)
    blocks = np.zeros((2 * d, 2 * d), dtype=complex)
    blocks[:d, :d], blocks[d:, d:] = f.a, f.b
    # rows + dt * (rows @ blocks.T + sigma rows), built in place, a column at
    # a time: a broadcast sigma[:, None] * rows allocates a ufunc buffer as
    # large as its result
    drift = rows @ blocks.T
    for j in range(2 * d):
        drift[:, j] += sigma * rows[:, j]
    drift *= dt
    drift += rows
    return Menu((qs * dt).T, np.swapaxes(images, 0, 1), drift, scales=scales.T)


def _paired(b: Branch) -> Branch:
    d = b.state.shape[0] // 2
    return b._replace(state=DoubledState(b.state[:d], b.state[d:]))


def _theta_row(theta: DoubledState) -> np.ndarray:
    return np.concatenate([theta.phi, theta.psi]).astype(complex)[None, :]


def doubled_branches(me: MasterEquation, theta: DoubledState, t: float, dt: float) -> Sequence[Branch]:
    menu = factors_menu(doubled_factors(me.at(t)), t, _theta_row(theta), dt)
    return [_paired(b) for b in row_branches(menu, t)]


def doubled_step(
    me: MasterEquation, theta: DoubledState, t: float, dt: float, u: float
) -> tuple[DoubledState, object]:
    branch = _paired(row_step(factors_menu(doubled_factors(me.at(t)), t, _theta_row(theta), dt), u, t))
    return branch.state, branch.event


def _pair_outer(rows: np.ndarray, weights=None) -> np.ndarray:
    """sum_k |phi_k><psi_k| over the rows (phi, psi) of each slice of a
    stack (B, m, 2d): (B, d, d)."""
    d = rows.shape[-1] // 2
    return outer_sum(rows[..., :d], rows[..., d:])


def _norm2_sums(rows: np.ndarray) -> np.ndarray:
    """sum_k ||theta_k||^2 over the rows of each slice of a stack (B, m, 2d)."""
    return squared_norms(rows.reshape(-1, rows.shape[-1])).reshape(rows.shape[:-1]).sum(axis=-1)


def run_chunk(
    me: MasterEquation,
    psi0: np.ndarray,
    grid: TimeGrid,
    batch0: int,
    n,
    seed: int,
    track=None,
):
    """Evolve n doubled trajectories (or batches of the sizes n, as in
    ``run_menus``); rho_sum accumulates sum_k |phi_k><psi_k| raw (not
    hermitized), norms and all, which is the estimator's convention."""
    psi0 = np.asarray(psi0, dtype=complex)
    return run_menus(
        lambda snap, rows, dt: factors_menu(doubled_factors(snap), snap.t, rows, dt),
        me,
        np.concatenate([psi0, psi0]),
        grid,
        batch0,
        n,
        seed,
        outer=_pair_outer,
        tally=("theta_norm2_sum", _norm2_sums),
        track=track,
    )
