"""Deterministic reference propagation of the master equation.

Classic fixed-step RK4 on d rho/dt = L_t[rho], the oracle every stochastic
method is measured against, so it deliberately has no adaptive machinery:
a TimeGrid pins the step sequence exactly and ``substeps`` refines between
grid points. ``rk4_matrices`` is the package's one RK4 formula, the step
matrices of dx/dt = A x from A at each step's start, midpoint and end
(``wtd`` passes A = -iK). The oracle reads the half track of its substep
grid once and turns it into ``liouvillian`` stacks and step matrices a block
of substeps at a time, so each holds about ``_BLOCK_ENTRIES`` complex
entries however long the grid. ``propagate``, ``propagator_map`` and
``propagator_maps`` run one loop that multiplies a column block, vec rho0 or
the identity, by each step matrix. A step reads the generator at its end, so at a rate that jumps on a
grid time the oracle's point there reads the end-of-step generator, the new
rate, where the jump methods hold each step's start (``tools/equivalence.py``'s
``abort/mcwf_step_too_large``: rate 5 -> 300 at t = 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch, SingularMap
from .linalg import require_density, unvec, vec
from .master_equation import GeneratorTrack, MasterEquation

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

# about the complex entries of one block of Liouvillians or step matrices:
# the oracle builds them max(1, _BLOCK_ENTRIES // d^4) substeps at a time
_BLOCK_ENTRIES = 1 << 16


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
            raise GridMismatch(f"{self.states.shape[0]} states on a grid with {self.grid.n_steps + 1} points")


def liouvillian(track: GeneratorTrack, rows: slice = slice(None)) -> np.ndarray:
    """The generator at each time of ``track`` (or of its ``rows``) as a
    column-stacked matrix (n, d^2, d^2), vec L_t[rho] = L(t) vec rho: by
    vec(A X B) = (B^T (x) A) vec X, L = -i (1 (x) K - conj(K) (x) 1)
    + sum_a gamma_a conj(L_a) (x) L_a with K = H - (i/2) gamma_drift, a trace
    sink included."""
    k, ls, eye = track.k[rows], track.ls[rows], np.eye(track.k.shape[-1])
    out = np.einsum("na,naik,najl->nijkl", track.gammas[rows], np.conj(ls), ls)
    out += 1j * (np.einsum("nik,jl->nijkl", np.conj(k), eye) - np.einsum("ik,njl->nijkl", eye, k))
    return out.reshape(len(k), eye.size, eye.size)


def rk4_matrices(a0: np.ndarray, a_mid: np.ndarray, a_end: np.ndarray, h) -> np.ndarray:
    """The RK4 step x(t + h) ~ M x(t) of dx/dt = A x from A at t, t + h/2
    and t + h; stacked A with h scalar or shaped (s, 1, 1) give s matrices."""
    eye = np.eye(a0.shape[-1])
    a2 = a_mid @ (eye + 0.5 * h * a0)
    a3 = a_mid @ (eye + 0.5 * h * a2)
    a4 = a_end @ (eye + h * a3)
    return eye + (h / 6.0) * (a0 + 2.0 * a2 + 2.0 * a3 + a4)


def rk4_step(me: MasterEquation, t: float, rho: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step from t of a matrix or of each matrix of a stack: the first
    step of ``propagate``'s loop on the grid (t, t + dt)."""
    cols = next(_evolve(me, vec(np.asarray(rho, dtype=complex))[..., None], TimeGrid(t, t + dt, dt), 1, 1))
    return unvec(cols[..., 0], me.dim)


def _evolve(me: MasterEquation, cols: np.ndarray, grid: TimeGrid, substeps: int, points: int):
    """Yield the column block ``cols`` at grid points 1..points, carried by
    ``substeps`` RK4 step matrices between neighbouring points. The generator
    is read from the half track of the substep grid, so every start,
    midpoint and end of a substep is evaluated once; its Liouvillians and
    step matrices are built a block of substeps at a time (``_BLOCK_ENTRIES``).
    A track cut by an error raises it at the first substep that needs a
    missing time."""
    h, times = grid.dt / substeps, grid.times()
    sub = np.append((times[:points, None] + h * np.arange(substeps)).ravel(), times[points])
    track = me.half_track(sub)
    s = max(0, (len(track.h) - 1) // 2)  # substeps with all three generators on the track
    block, total = max(1, _BLOCK_ENTRIES // me.dim**4), points * substeps
    for start in range(0, total, block):
        stop = min(start + block, s)
        if stop > start:
            a = liouvillian(track, slice(2 * start, 2 * stop + 1))
            steps = rk4_matrices(a[0:-1:2], a[1::2], a[2::2], h)
        for k in range(start, min(start + block, total)):
            if k == s:
                raise track.error
            cols = steps[k - start] @ cols
            if (k + 1) % substeps == 0:
                yield cols


def propagate(
    me: MasterEquation, rho0: np.ndarray, grid: TimeGrid, substeps: int = 1, check_trace: bool | None = None
) -> OracleSolution:
    """Solve the master equation on the grid.

    ``substeps`` RK4 steps are taken between neighboring grid points.
    Trace conservation is monitored (drift above 1e-8 raises) unless the
    equation has a trace sink, which legitimately changes the trace. The
    check stops the run at the first drifting point, before a later
    evaluation error and before a blown-up state can overflow; the points
    are unvectorized together at the end.
    """
    if np.shape(rho0) != (me.dim, me.dim):
        raise DimensionMismatch(f"rho0 has shape {np.shape(rho0)}, model dimension is {me.dim}")
    rho = require_density(rho0).astype(complex)
    if check_trace is None:
        check_trace = me.trace_sink is None
    diagonal, times, points = slice(None, None, me.dim + 1), grid.times(), []
    for i, cols in enumerate(_evolve(me, vec(rho)[:, None], grid, substeps, grid.n_steps), start=1):
        if check_trace:
            tr = cols[diagonal, 0].sum()  # the trace of unvec(cols[:, 0])
            drift = abs(tr.real - 1.0) + abs(tr.imag)
            if drift > 1e-8:
                raise ArithmeticError(f"trace drifted by {drift:.2e} at t={times[i]:.6g}; reduce dt")
        points.append(cols[:, 0])
    out = np.empty((grid.n_steps + 1, me.dim, me.dim), dtype=complex)
    out[0] = rho
    out[1:] = unvec(np.array(points), me.dim)
    return OracleSolution(grid, out)


def propagator_map(me: MasterEquation, grid: TimeGrid, t_index: int, substeps: int = 1) -> np.ndarray:
    """Superoperator matrix of the map from t0 to grid point ``t_index``,
    stepping only that far."""
    if not 0 <= t_index <= grid.n_steps:
        raise IndexError(f"t_index {t_index} outside grid with {grid.n_steps + 1} points")
    eye = np.eye(me.dim**2, dtype=complex)
    return [eye, *_evolve(me, eye, grid, substeps, t_index)][-1]


def propagator_maps(me: MasterEquation, grid: TimeGrid, substeps: int = 1) -> np.ndarray:
    """Column-stacked superoperator matrices S(t): vec(rho_t) = S(t) vec(rho_0).

    Returns (n_steps+1, d^2, d^2); S(t0) is the identity, and each later
    S(t) is the product of the step matrices up to t applied to it.
    """
    eye = np.eye(me.dim**2, dtype=complex)
    return np.array([eye, *_evolve(me, eye, grid, substeps, grid.n_steps)])


def intermediate_propagator(s_t: np.ndarray, s_s: np.ndarray) -> np.ndarray:
    """V(t, s) = S(t) S(s)^{-1}; raises SingularMap when S(s) has a condition
    number above 1e12."""
    c = np.linalg.cond(s_s)
    if not np.isfinite(c) or c > 1e12:
        raise SingularMap(f"propagator at s has condition number {c:.3e} > 1.0e+12")
    return np.linalg.solve(s_s.T, s_t.T).T


def choi_matrix(s: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix C = sum_ij E_ij (x) S[E_ij] of a column-stacked superoperator.

    C is PSD iff the map is completely positive.
    """
    # C[(i, k), (j, l)] = S[E_ij]_kl = s[k + l d, i + j d]
    return np.asarray(s, dtype=complex).reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def grids_equal(a: TimeGrid, b: TimeGrid) -> None:
    if (a.t0, a.t_max, a.dt) != (b.t0, b.t_max, b.dt):
        raise GridMismatch(f"grids differ: {a} vs {b}")
