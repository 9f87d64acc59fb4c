"""Rate-operator quantum jump steppers.

Jump branches are the eigenpairs of the rate operator (W, R or Psi-R):
eigenstate nu is entered with probability lambda_nu dt. Eigendirections that
coincide with the current state are no-ops, so they are folded into the
deterministic branch and exempted from the positivity guard; the guard
rejects genuinely negative jump rates only (NegativeWEigenvalue for W,
NegativeROEigenvalue for gauged operators), which is how a loss of
P divisibility, or a badly chosen gauge, surfaces at runtime. W's
eigenvectors lie in psi^perp by construction, so only ``ro_menu`` checks for
self-directed eigenpairs.

``w_menu`` and ``ro_menu`` are the batched kernels on state columns (d, n)
(see ``outcomes``); the scalar ``*_branches`` and ``*_step`` functions are
their one-column views. At d = 2, W's one eigenvector is the complement
column itself; the gauged spectra and d > 2 decompose one (d, d) block per
state and hand the eigenvectors to the menu as a (d, d, n) view.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import NegativeROEigenvalue, NegativeWEigenvalue
from .linalg import EPS, apply_columns, normalize_columns
from .master_equation import GeneratorSnapshot, MasterEquation
from .outcomes import Branch, Jump, Menu, StepOutcome, row_branches, row_step, run_menus
from .propagate import TimeGrid
from .rate_operators import (
    GaugeTransform,
    gauge_vectors_batch,
    jump_images,
    psi_drift_step,
    r_drift_matrix,
    ro_spectrum_batch,
    w_drift_step,
    w_spectrum_batch,
)

__all__ = [
    "w_menu",
    "ro_menu",
    "wroqj_step",
    "roqj_step",
    "wroqj_branches",
    "roqj_branches",
    "run_chunk",
]

_SELF_OVERLAP = 1.0 - 1e-8


def _spectral_menu(snap, dt, vals, vecs, drift, err_cls, label) -> Menu:
    """Eigenpair nu of each state's rate operator fires with lambda_nu dt:
    values (B, n), eigenvectors (B, d, n)."""
    bad = vals < -EPS
    if np.any(bad):
        raise err_cls(f"{label} eigenvalue {vals[bad].min():.6g} < 0 at t={snap.t:.6g}", time=snap.t)
    return Menu(np.clip(vals, 0.0, None) * dt, vecs, normalize_columns(drift, snap.t))


def w_menu(snap: GeneratorSnapshot, cols: np.ndarray, dt: float) -> Menu:
    """W-ROQJ kernel: the W spectrum on psi-perp and the K^W drift."""
    images = jump_images(snap, cols)
    vals, phis = w_spectrum_batch(snap, cols, images)
    drift = w_drift_step(snap, cols, dt, images)
    return _spectral_menu(snap, dt, vals, phis, drift, NegativeWEigenvalue, "W")


def ro_menu(snap: GeneratorSnapshot, cols: np.ndarray, dt: float, g: GaugeTransform) -> Menu:
    """Gauged kernel: the R (time-dependent gauge) or Psi-R spectrum and drift."""
    phi_g = gauge_vectors_batch(g, snap, cols)
    vals, vecs = ro_spectrum_batch(snap, cols, phi_g)
    ov = np.abs(np.einsum("in,nij->nj", np.conj(cols), vecs)) ** 2
    vals = np.where(ov >= _SELF_OVERLAP, 0.0, vals)  # jumping to psi is a no-op; see module docstring
    if g.kind == "time_dependent":
        drift = apply_columns(r_drift_matrix(snap, g.c(snap.t), dt), cols)
    else:
        drift = psi_drift_step(snap, cols, phi_g, dt)
    return _spectral_menu(snap, dt, vals.T, vecs.transpose(2, 1, 0), drift, NegativeROEigenvalue, "rate-operator")


def _branches(menu: Menu, psi: np.ndarray, t: float) -> list[Branch]:
    # self-directed eigenpairs have probability 0 and are not listed
    return [
        b
        for b in row_branches(menu, t)
        if not (isinstance(b.event, Jump) and abs(np.vdot(psi, b.state)) ** 2 >= _SELF_OVERLAP)
    ]


def wroqj_branches(me: MasterEquation, psi: np.ndarray, t: float, dt: float) -> list[Branch]:
    psi = np.asarray(psi, dtype=complex)
    return _branches(w_menu(me.at(t), psi[:, None], dt), psi, t)


def wroqj_step(me: MasterEquation, psi: np.ndarray, t: float, dt: float, u: float) -> StepOutcome:
    b = row_step(w_menu(me.at(t), np.asarray(psi, dtype=complex)[:, None], dt), u, t)
    return StepOutcome(b.state, b.event)


def roqj_branches(
    me: MasterEquation, psi: np.ndarray, t: float, dt: float, g: GaugeTransform
) -> list[Branch]:
    psi = np.asarray(psi, dtype=complex)
    return _branches(ro_menu(me.at(t), psi[:, None], dt, g), psi, t)


def roqj_step(
    me: MasterEquation, psi: np.ndarray, t: float, dt: float, g: GaugeTransform, u: float
) -> StepOutcome:
    b = row_step(ro_menu(me.at(t), np.asarray(psi, dtype=complex)[:, None], dt, g), u, t)
    return StepOutcome(b.state, b.event)


def run_chunk(
    me: MasterEquation,
    psi0: np.ndarray,
    grid: TimeGrid,
    batch0: int,
    sizes,
    seed: int,
    track,
    gauge: GaugeTransform | None = None,
):
    """Tile runner for all three flavors: W-ROQJ without a gauge, the gauged
    rate operator with one; the rest as in ``run_menus``."""
    if gauge is None:
        return run_menus(w_menu, me, psi0, grid, batch0, sizes, seed, track)
    return run_menus(partial(ro_menu, g=gauge), me, psi0, grid, batch0, sizes, seed, track)
