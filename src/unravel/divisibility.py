"""Divisibility diagnostics for time-local master equations.

CP divisibility of the flow is read off the instantaneous rates (all
nonnegative). P divisibility is probed through the positivity of the
projected jump-rate operator W restricted to span{psi}^perp: the flow is
P divisible iff W is PSD for every pure state. The generic test samples
Haar-random states plus the computational basis and is therefore one-sided:
a negative eigenvalue certifies violation, an all-positive sample is
evidence only. For the phase-covariant family the exact closed form
g_plus, g_minus >= 0 and g_z >= -(1/2) sqrt(g_plus g_minus) is available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EPS, complement_batch, haar_state
from .master_equation import GeneratorSnapshot, MasterEquation
from .propagate import TimeGrid
from .rate_operators import jump_images, w_perp_spectrum

__all__ = [
    "is_cp_divisible_at",
    "min_rate_at",
    "is_p_divisible_at",
    "p_divisibility_min_eigenvalue",
    "phase_covariant_p_divisible_at",
    "DivisibilityReport",
    "divisibility_scan",
]


def min_rate_at(me: MasterEquation, t: float) -> float:
    return float(np.min(me.at(t).gammas))


def is_cp_divisible_at(me: MasterEquation, t: float) -> bool:
    """True iff every rate gamma_a(t) >= -eps."""
    return min_rate_at(me, t) >= -EPS


def _sample_states(dim: int, sample_count: int, seed: int) -> np.ndarray:
    """The sampled states as columns (dim, sample_count + dim)."""
    gen = np.random.Generator(np.random.Philox(key=[seed, 0x9e3779b9]))
    psis = np.empty((dim, sample_count + dim), dtype=complex)
    for k in range(sample_count):
        psis[:, k] = haar_state(dim, gen)
    psis[:, sample_count:] = np.eye(dim)  # basis states catch sigma_+/- rate signs
    return psis


def _w_perp_min(snap: GeneratorSnapshot, psis: np.ndarray, qs: np.ndarray) -> float:
    """min over samples of the smallest eigenvalue of W on psi^perp, whose
    basis Q is ``qs``."""
    vals, _ = w_perp_spectrum(snap, qs, jump_images(snap, psis))
    return float(np.min(vals))


def p_divisibility_min_eigenvalue(
    me: MasterEquation, t: float, sample_count: int = 200, seed: int = 7
) -> float:
    psis = _sample_states(me.dim, sample_count, seed)
    return _w_perp_min(me.at(t), psis, complement_batch(psis))


def is_p_divisible_at(me: MasterEquation, t: float, sample_count: int = 200, seed: int = 7) -> bool:
    """Sampled P-divisibility test; one-sided (False is a certificate)."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    return p_divisibility_min_eigenvalue(me, t, sample_count, seed) >= -EPS


def phase_covariant_p_divisible_at(gamma_plus: float, gamma_minus: float, gamma_z: float) -> bool:
    """Exact closed form for the phase-covariant family."""
    if gamma_plus < -EPS or gamma_minus < -EPS:
        return False
    prod = max(gamma_plus, 0.0) * max(gamma_minus, 0.0)
    return gamma_z >= -0.5 * np.sqrt(prod) - EPS


@dataclass(frozen=True)
class DivisibilityReport:
    time: float
    cp: bool
    p: bool
    min_rate: float
    min_w_eigenvalue: float


def divisibility_scan(
    me: MasterEquation, grid: TimeGrid, sample_count: int = 200, seed: int = 7
) -> list[DivisibilityReport]:
    """Classify every grid point, reading the generator from one track over
    the grid. The same state sample is reused across times."""
    psis = _sample_states(me.dim, sample_count, seed)
    qs = complement_batch(psis)
    track = me.track(grid.times())
    reports = []
    for k, t in enumerate(track.times):
        mr = float(np.min(track[k].gammas))
        mw = _w_perp_min(track[k], psis, qs)
        cp = mr >= -EPS
        p = mw >= -EPS
        assert not (cp and not p), f"CP without P at t={t}: numerical inconsistency"
        reports.append(DivisibilityReport(float(t), cp, p, mr, mw))
    return reports
