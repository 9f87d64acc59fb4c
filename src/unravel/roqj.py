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

``w_menu`` and ``ro_menu`` are the batched kernels (see ``outcomes``); the
scalar ``*_branches`` and ``*_step`` functions are their one-row views.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeROEigenvalue, NegativeWEigenvalue
from .linalg import EPS
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


def _spectral_menu(snap, rows, dt, vals, vecs, drift, err_cls, label) -> Menu:
    """Eigenpair nu of each row's rate operator fires with lambda_nu dt."""
    bad = vals < -EPS
    if np.any(bad):
        raise err_cls(f"{label} eigenvalue {vals[bad].min():.6g} < 0 at t={snap.t:.6g}", time=snap.t)
    probs = np.clip(vals, 0.0, None) * dt
    return Menu(probs, np.swapaxes(vecs, 1, 2), drift / np.linalg.norm(drift, axis=1)[:, None])


def w_menu(snap: GeneratorSnapshot, rows: np.ndarray, dt: float) -> Menu:
    """W-ROQJ kernel: the W spectrum on psi-perp and the K^W drift."""
    images = jump_images(snap, rows)
    vals, phis = w_spectrum_batch(snap, rows, images)
    drift = w_drift_step(snap, rows, dt, images)
    return _spectral_menu(snap, rows, dt, vals, phis, drift, NegativeWEigenvalue, "W")


def ro_menu(snap: GeneratorSnapshot, rows: np.ndarray, dt: float, g: GaugeTransform) -> Menu:
    """Gauged kernel: the R (time-dependent gauge) or Psi-R spectrum and drift."""
    phi_g = gauge_vectors_batch(g, snap, rows)
    vals, vecs = ro_spectrum_batch(snap, rows, phi_g)
    ov = np.abs(np.einsum("ni,nij->nj", np.conj(rows), vecs)) ** 2
    vals = np.where(ov >= _SELF_OVERLAP, 0.0, vals)  # jumping to psi is a no-op; see module docstring
    if g.kind == "time_dependent":
        drift = rows @ r_drift_matrix(snap, g.c(snap.t), dt).T
    else:
        drift = psi_drift_step(snap, rows, phi_g, dt)
    return _spectral_menu(snap, rows, dt, vals, vecs, drift, NegativeROEigenvalue, "rate-operator")


def _branches(menu: Menu, psi: np.ndarray, t: float) -> list[Branch]:
    # self-directed eigenpairs have probability 0 and are not listed
    return [
        b
        for b in row_branches(menu, t)
        if not (isinstance(b.event, Jump) and abs(np.vdot(psi, b.state)) ** 2 >= _SELF_OVERLAP)
    ]


def wroqj_branches(me: MasterEquation, psi: np.ndarray, t: float, dt: float) -> list[Branch]:
    psi = np.asarray(psi, dtype=complex)
    return _branches(w_menu(me.at(t), psi[None, :], dt), psi, t)


def wroqj_step(me: MasterEquation, psi: np.ndarray, t: float, dt: float, u: float) -> StepOutcome:
    b = row_step(w_menu(me.at(t), np.asarray(psi, dtype=complex)[None, :], dt), u, t)
    return StepOutcome(b.state, b.event)


def roqj_branches(
    me: MasterEquation, psi: np.ndarray, t: float, dt: float, g: GaugeTransform
) -> list[Branch]:
    psi = np.asarray(psi, dtype=complex)
    return _branches(ro_menu(me.at(t), psi[None, :], dt, g), psi, t)


def roqj_step(
    me: MasterEquation, psi: np.ndarray, t: float, dt: float, g: GaugeTransform, u: float
) -> StepOutcome:
    b = row_step(ro_menu(me.at(t), np.asarray(psi, dtype=complex)[None, :], dt, g), u, t)
    return StepOutcome(b.state, b.event)


def run_chunk(
    me: MasterEquation,
    psi0: np.ndarray,
    grid: TimeGrid,
    batch0: int,
    n: int,
    seed: int,
    flavor: str = "w",
    gauge: GaugeTransform | None = None,
    track=None,
):
    """Tile runner for all three flavors ('w', or 'ro' with a gauge); n as
    in ``run_menus``."""
    if flavor == "w":
        return run_menus(w_menu, me, psi0, grid, batch0, n, seed, track=track)
    return run_menus(
        lambda snap, rows, dt: ro_menu(snap, rows, dt, gauge), me, psi0, grid, batch0, n, seed, track=track
    )
