"""Deterministic reference propagation of the master equation.

Classic fixed-step RK4 on d rho/dt = L_t[rho]. This is the oracle every
stochastic method is measured against, so it deliberately has no adaptive
machinery: a TimeGrid pins the step sequence exactly and a ``substeps``
argument refines between grid points when higher accuracy is wanted.
``propagate`` (one density matrix) and ``propagator_maps`` (the stack of all
d^2 matrix units) run one RK4 loop that reads the generator from
``MasterEquation.half_track`` of the substep grid, evaluated before the
first step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, SingularMap
from .linalg import require_density
from .master_equation import MasterEquation, lindblad_apply_snapshot

__all__ = [
    "TimeGrid",
    "OracleSolution",
    "rk4_step",
    "propagate",
    "propagator_map",
    "propagator_maps",
    "intermediate_propagator",
    "choi_matrix",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0, t0+dt, ..., t_max with t_max hit exactly."""

    t0: float
    t_max: float
    dt: float

    def __post_init__(self):
        if self.dt <= 0 or self.t_max <= self.t0:
            raise ValueError(f"bad grid: t0={self.t0}, t_max={self.t_max}, dt={self.dt}")
        steps = (self.t_max - self.t0) / self.dt
        if not np.isfinite(steps):
            raise ValueError(f"dt={self.dt} is too small for [{self.t0}, {self.t_max}]")
        n = round(steps)
        if n > np.iinfo(np.intp).max - 1:  # its n + 1 points cannot be indexed
            raise ValueError(f"dt={self.dt} gives {n:.3g} steps on [{self.t0}, {self.t_max}], too many to index")
        if n < 1 or abs(self.t0 + n * self.dt - self.t_max) > 1e-9 * max(1.0, abs(self.t_max)):
            raise ValueError(f"dt={self.dt} does not divide [{self.t0}, {self.t_max}]")

    @property
    def n_steps(self) -> int:
        return round((self.t_max - self.t0) / self.dt)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class OracleSolution:
    """Deterministic solution: one density matrix per grid point."""

    grid: TimeGrid
    states: np.ndarray  # (n_steps+1, d, d)

    def __post_init__(self):
        if self.states.shape[0] != self.grid.n_steps + 1:
            raise GridMismatch(
                f"{self.states.shape[0]} states on a grid with {self.grid.n_steps + 1} points"
            )


def _rk4(start, mid, end, rho: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of a matrix or a stack of matrices, with the generator
    snapshots at the start, midpoint and end of the step."""
    k1 = lindblad_apply_snapshot(start, rho)
    k2 = lindblad_apply_snapshot(mid, rho + 0.5 * dt * k1)
    k3 = lindblad_apply_snapshot(mid, rho + 0.5 * dt * k2)
    k4 = lindblad_apply_snapshot(end, rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(me: MasterEquation, t: float, rho: np.ndarray, dt: float) -> np.ndarray:
    track = me.track((t, t + 0.5 * dt, t + dt))
    return _rk4(track[0], track[1], track[2], rho, dt)


def _evolve(me: MasterEquation, rho: np.ndarray, grid: TimeGrid, substeps: int, points: int):
    """Yield rho (a matrix or a stack) at grid points 1..points, stepped by
    ``substeps`` RK4 steps between neighbouring points. The generator is read
    from the half track of the substep grid, so every start, midpoint and end
    of a substep is evaluated once."""
    h = grid.dt / substeps
    times = grid.times()
    sub = np.append((times[:points, None] + h * np.arange(substeps)).ravel(), times[points])
    track = me.half_track(sub)
    for s in range(points * substeps):
        rho = _rk4(track[2 * s], track[2 * s + 1], track[2 * s + 2], rho, h)
        if (s + 1) % substeps == 0:
            yield rho


def propagate(
    me: MasterEquation,
    rho0: np.ndarray,
    grid: TimeGrid,
    substeps: int = 1,
    check_trace: bool | None = None,
) -> OracleSolution:
    """Solve the master equation on the grid.

    ``substeps`` RK4 steps are taken between neighboring grid points.
    Trace conservation is monitored (drift above 1e-8 raises) unless the
    equation has a trace sink, which legitimately changes the trace.
    """
    rho = require_density(rho0).astype(complex)
    if check_trace is None:
        check_trace = me.trace_sink is None
    out = np.empty((grid.n_steps + 1, me.dim, me.dim), dtype=complex)
    out[0] = rho
    times = grid.times()
    for i, rho in enumerate(_evolve(me, rho, grid, substeps, grid.n_steps), start=1):
        if check_trace:
            drift = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
            if drift > 1e-8:
                raise ArithmeticError(f"trace drifted by {drift:.2e} at t={times[i]:.6g}; reduce dt")
        out[i] = rho
    return OracleSolution(grid, out)


def _matrix_units(d: int) -> np.ndarray:
    """The matrix units E_ij, stacked at their vec index i + j*d."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d).transpose(0, 2, 1).copy()


def _columns(images: np.ndarray) -> np.ndarray:
    """The superoperator matrix whose column p is vec(images[p])."""
    return np.swapaxes(images, 1, 2).reshape(len(images), len(images)).T


def propagator_map(me: MasterEquation, grid: TimeGrid, t_index: int, substeps: int = 1) -> np.ndarray:
    """Superoperator matrix of the map from t0 to grid point ``t_index``,
    stepping only that far."""
    if not 0 <= t_index <= grid.n_steps:
        raise IndexError(f"t_index {t_index} outside grid with {grid.n_steps + 1} points")
    images = _matrix_units(me.dim)
    for images in _evolve(me, images, grid, substeps, t_index):
        pass
    return _columns(images)


def propagator_maps(me: MasterEquation, grid: TimeGrid, substeps: int = 1) -> np.ndarray:
    """Column-stacked superoperator matrices S(t): vec(rho_t) = S(t) vec(rho_0).

    Returns (n_steps+1, d^2, d^2); S(t0) is the identity. Built by evolving
    all d^2 matrix units at once (the generator is linear, hermiticity of the
    intermediate matrices is irrelevant).
    """
    d = me.dim
    out = np.empty((grid.n_steps + 1, d * d, d * d), dtype=complex)
    out[0] = np.eye(d * d)
    for n, images in enumerate(_evolve(me, _matrix_units(d), grid, substeps, grid.n_steps), start=1):
        out[n] = _columns(images)
    return out


def intermediate_propagator(s_t: np.ndarray, s_s: np.ndarray, cond_limit: float = 1e12) -> np.ndarray:
    """V(t, s) = S(t) S(s)^{-1}; raises SingularMap when S(s) is too ill-conditioned."""
    c = np.linalg.cond(s_s)
    if not np.isfinite(c) or c > cond_limit:
        raise SingularMap(f"propagator at s has condition number {c:.3e} > {cond_limit:.1e}")
    return np.linalg.solve(s_s.T, s_t.T).T


def choi_matrix(s: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix C = sum_ij E_ij (x) S[E_ij] of a column-stacked superoperator.

    C is PSD iff the map is completely positive.
    """
    c = np.empty((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            block = s[:, i + j * d].reshape(d, d, order="F")
            c[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
    return c


def grids_equal(a: TimeGrid, b: TimeGrid) -> None:
    if (a.t0, a.t_max, a.dt) != (b.t0, b.t_max, b.dt):
        raise GridMismatch(f"grids differ: {a} vs {b}")
