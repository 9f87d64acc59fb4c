"""Pair-of-vectors unraveling for generators with negative rates.

A trajectory carries theta = (phi, psi), two unnormalized vectors whose
norms carry the statistical weight. The density matrix is recovered as the
hermitized ensemble mean of |phi><psi| with no per-trajectory
renormalization. Negative rates are absorbed into the jump factorization by
flipping the sign of one factor, so every jump has a nonnegative firing
probability while C rho D^dag still reproduces gamma L rho L^dag. The
batched kernel ``factors_menu`` works on columns theta = (phi, psi) of
height 2d, a (2d, n) array with the trajectory axis last; the runner feeds
it ``doubled_factors`` of each step's snapshot, and the one-trajectory views
``doubled_branches`` and ``doubled_step`` that of ``me.at(t)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ZeroVector
from .linalg import EPS, apply_columns, outer_sum, row_sum, squared_norms
from .master_equation import GeneratorSnapshot, MasterEquation
from .outcomes import Branch, Menu, row_branches, row_step, run_menus
from .propagate import TimeGrid

__all__ = [
    "DoubledState", "DoubledFactors", "doubled_factors", "factors_menu", "doubled_branches",
    "doubled_step", "run_chunk"
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


def factors_menu(f: DoubledFactors, t: float, cols: np.ndarray, dt: float) -> Menu:
    """Kernel on columns theta = (phi, psi), (2d, n).

    Jump i fires with q_i dt, q_i = (||C_i phi||^2 + ||D_i psi||^2) / ||theta||^2,
    and lands at (C_i phi, D_i psi) rescaled to the pre-jump joint norm (the
    menu carries the image and the factor; only the states that jump are
    rescaled); the no-jump step is the Euler step of (A + sigma) phi,
    (B + sigma) psi with sigma = sum_i q_i / 2, left unnormalized.
    """
    m, d = f.cs.shape[0], len(cols) // 2
    # block-diagonal (C_i, D_i) per channel and (A, B) for the drift:
    # ``apply_columns`` skips the zero blocks, so each half of a product
    # is its own factor's
    blocks = np.zeros((m + 1, 2 * d, 2 * d), dtype=complex)
    blocks[:m, :d, :d], blocks[:m, d:, d:] = f.cs, f.ds
    blocks[m, :d, :d], blocks[m, d:, d:] = f.a, f.b
    images = apply_columns(blocks[:m], cols)
    jn2 = squared_norms(images)
    n2 = squared_norms(cols)
    if np.any(n2 <= EPS):
        raise ZeroVector(f"doubled state collapsed to zero at t={t:.6g}", time=t)
    qs = jn2 / n2[None, :]
    # a zero image stays zero: its branch has probability 0
    scales = np.sqrt(n2[None, :] / np.where(jn2 > 0.0, jn2, 1.0))
    sigma = 0.5 * row_sum(qs)
    # cols + dt * ((A, B) cols + sigma cols), built in place, a width row at
    # a time: a broadcast sigma * cols allocates a temporary as large as its
    # result
    drift = apply_columns(blocks[m], cols)
    for j in range(2 * d):
        drift[j] += sigma * cols[j]
    drift *= dt
    drift += cols
    return Menu(qs * dt, images, drift, scales=scales)


def _paired(b: Branch) -> Branch:
    d = b.state.shape[0] // 2
    return b._replace(state=DoubledState(b.state[:d], b.state[d:]))


def _theta_col(theta: DoubledState) -> np.ndarray:
    return np.concatenate([theta.phi, theta.psi]).astype(complex)[:, None]


def doubled_branches(me: MasterEquation, theta: DoubledState, t: float, dt: float) -> Sequence[Branch]:
    menu = factors_menu(doubled_factors(me.at(t)), t, _theta_col(theta), dt)
    return [_paired(b) for b in row_branches(menu, t)]


def doubled_step(
    me: MasterEquation, theta: DoubledState, t: float, dt: float, u: float
) -> tuple[DoubledState, object]:
    branch = _paired(row_step(factors_menu(doubled_factors(me.at(t)), t, _theta_col(theta), dt), u, t))
    return branch.state, branch.event


def _pair_outer(cols: np.ndarray, weights=None) -> np.ndarray:
    """sum_k |phi_k><psi_k| over the columns (phi, psi) of each slice of a
    stack (B, 2d, m): (B, d, d)."""
    d = cols.shape[-2] // 2
    return outer_sum(cols[..., :d, :], cols[..., d:, :])


def _norm2_sums(cols: np.ndarray) -> np.ndarray:
    """sum_k ||theta_k||^2 over the columns of each slice of a stack (B, 2d, m)."""
    return squared_norms(cols).sum(axis=-1)


STATE_BLOCKS = 2  # a row theta = (phi, psi) holds 2d entries (the engine's tile budget counts them)


def run_chunk(me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, batch0: int, sizes, seed: int, track):
    """Evolve batches of ``sizes`` doubled trajectories (as in
    ``run_menus``); rho_sum accumulates sum_k |phi_k><psi_k| raw (not
    hermitized), norms and all, which is the estimator's convention."""
    psi0 = np.asarray(psi0, dtype=complex)
    return run_menus(
        lambda snap, cols, dt: factors_menu(doubled_factors(snap), snap.t, cols, dt),
        me,
        np.concatenate([psi0, psi0]),
        grid,
        batch0,
        sizes,
        seed,
        track,
        outer=_pair_outer,
        tally=("theta_norm2_sum", _norm2_sums),
    )
