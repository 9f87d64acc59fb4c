"""Embedding of a signed-rate master equation into a Markovian one.

Each dissipator is supplied as a factor pair (C, D) acting in the sandwich
C rho D^dag + D rho C^dag - {D^dag C + C^dag D, rho}/2. Adjoining a
three-level auxiliary degree of freedom turns the pair into four ordinary
rate-one jump operators on dimension 3d, at the cost of a completion
operator Omega whose square fills a * identity - (C-D)^dag (C-D). The
physical state sits in an off-diagonal auxiliary block that shrinks like
exp(-int a dt), so the extraction divides by an exponentially small trace.
That division is the method's known instability: it surfaces here as
DegenerateBlock or as a blown-up ensemble error, never silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateBlock
from .linalg import hermitize, psd_sqrt, psd_sqrt_batched
from .master_equation import GeneratorTrack, MasterEquation, master_equation, once_per_time
from .propagate import TimeGrid
from . import mcwf

__all__ = [
    "JumpPair",
    "TripledEmbedding",
    "pairs_from_master_equation",
    "tripled_embed",
    "tripled_extract",
    "embedded_master_equation",
    "embedded_system",
    "embedded_track",
    "run_chunk",
]

Matrix = Callable[[float], np.ndarray]

_BLOCK_TRACE_FLOOR = 1e-12


@dataclass(frozen=True)
class JumpPair:
    c: Matrix
    d: Matrix
    label: str = ""


def pairs_from_master_equation(me: MasterEquation) -> tuple[JumpPair, ...]:
    """Split each channel gamma L . L^dag into the symmetric pair
    C = sqrt(|gamma|/2) L, D = sign(gamma) sqrt(|gamma|/2) L, so that
    C rho D^dag + D rho C^dag = gamma L rho L^dag for either sign. The
    pairs share one evaluation of ``me`` per time."""
    return _pairs(me, once_per_time(me.at))


def _pairs(me: MasterEquation, at: Callable) -> tuple[JumpPair, ...]:
    """``pairs_from_master_equation`` reading the model through ``at``."""

    def make(i: int) -> JumpPair:
        def c(t: float) -> np.ndarray:
            snap = at(t)
            return np.sqrt(0.5 * abs(snap.gammas[i])) * snap.ls[i]

        def d(t: float) -> np.ndarray:
            snap = at(t)
            g = snap.gammas[i]
            return np.copysign(1.0, g) * np.sqrt(0.5 * abs(g)) * snap.ls[i]

        return JumpPair(c, d, me.channels[i].label)

    return tuple(make(i) for i in range(len(me.channels)))


@dataclass(frozen=True)
class TripledEmbedding:
    base_dim: int
    hamiltonian3: Matrix
    jumps3: tuple[Matrix, ...]  # four per factor pair, all rate 1
    a: Callable[[float], float]  # total completion level, sets the block decay


def _aux_proj(i: int, j: int) -> np.ndarray:
    p = np.zeros((3, 3))
    p[i, j] = 1.0
    return p


def default_completion_level(pair: JumpPair) -> Callable[[float], float]:
    """Smallest level keeping a*1 - (C-D)^dag (C-D) positive semidefinite:
    the squared spectral norm of C - D."""

    def a(t: float) -> float:
        return float(np.linalg.norm(pair.c(t) - pair.d(t), ord=2) ** 2)

    return a


def _pair_jumps(pair: JumpPair, a_fn: Callable[[float], float]) -> list[Matrix]:
    def omega(t: float) -> np.ndarray:
        diff = pair.c(t) - pair.d(t)
        return psd_sqrt(a_fn(t) * np.eye(diff.shape[0]) - hermitize(diff.conj().T @ diff))

    def j1(t: float) -> np.ndarray:
        return np.kron(pair.c(t), _aux_proj(0, 0)) + np.kron(pair.d(t), _aux_proj(1, 1))

    def j2(t: float) -> np.ndarray:
        return np.kron(pair.d(t), _aux_proj(0, 0)) + np.kron(pair.c(t), _aux_proj(1, 1))

    def j3(t: float) -> np.ndarray:
        return np.kron(omega(t), _aux_proj(2, 0))

    def j4(t: float) -> np.ndarray:
        return np.kron(omega(t), _aux_proj(2, 1))

    return [j1, j2, j3, j4]


def tripled_embed(
    hamiltonian: Matrix,
    pairs: tuple[JumpPair, ...],
    dim: int,
    rho0: np.ndarray,
    a: Callable[[float], float] | tuple | None = None,
) -> tuple[TripledEmbedding, np.ndarray]:
    """Build the 3d-dimensional rate-one embedding and its initial state
    W0 = rho0 (x) |chi><chi| with chi = (aux0 + aux1)/sqrt(2).

    ``a`` overrides the completion level, one callable per pair (a single
    callable is broadcast). Raises NotPSD at evaluation time if it is too
    small for Omega to exist.
    """
    if a is None:
        a_fns = tuple(default_completion_level(p) for p in pairs)
    elif callable(a):
        a_fns = tuple(a for _ in pairs)
    else:
        a_fns = tuple(a)
        if len(a_fns) != len(pairs):
            raise ValueError(f"{len(a_fns)} completion levels for {len(pairs)} pairs")

    def h3(t: float) -> np.ndarray:
        return np.kron(hamiltonian(t), np.eye(3))

    jumps: list[Matrix] = []
    for pair, a_fn in zip(pairs, a_fns):
        jumps.extend(_pair_jumps(pair, a_fn))

    def a_total(t: float) -> float:
        return float(sum(f(t) for f in a_fns))

    chi = np.zeros(3)
    chi[0] = chi[1] = 1.0 / np.sqrt(2.0)
    w0 = np.kron(np.asarray(rho0, dtype=complex), np.outer(chi, chi))
    return TripledEmbedding(dim, h3, tuple(jumps), a_total), w0


def _normalized_blocks(blocks: np.ndarray, block_floor: float):
    """Each block of a stack (..., d, d) over its trace, NaN where |trace| <=
    block_floor, and (index, DegenerateBlock) for the first such block in C
    order (None if there is none)."""
    tr = np.trace(blocks, axis1=-2, axis2=-1)
    low = np.abs(tr) <= block_floor
    out = blocks / np.where(low, 1.0, tr)[..., None, None]
    out[low] = np.nan
    bad = None
    if low.any():
        idx = np.unravel_index(int(low.argmax()), low.shape)
        bad = idx, DegenerateBlock(
            f"auxiliary block trace {abs(tr[idx]):.3e} is numerically zero; "
            "the embedding has decayed past the point of extraction"
        )
    return out, bad


def tripled_extract(w: np.ndarray, block_floor: float = _BLOCK_TRACE_FLOOR) -> np.ndarray:
    """Read the physical state out of the (aux0, aux1) block of W."""
    d = w.shape[0] // 3
    out, bad = _normalized_blocks(w.reshape(d, 3, d, 3)[:, 0, :, 1], block_floor)
    if bad is not None:
        raise bad[1]
    return out


def _extract_hermitized(ws: np.ndarray):
    """``tripled_extract(hermitize(w))`` for every W of a stack (..., 3d, 3d),
    NaN where the block cannot be extracted, and (index, DegenerateBlock) of
    the first such W in C order (None if there is none). Only the block is
    hermitized, entry by entry as ``hermitize`` computes it."""
    *lead, d3, _ = ws.shape
    d = d3 // 3
    blocks = ws.reshape(*lead, d, 3, d, 3)
    upper, lower = blocks[..., :, 0, :, 1], blocks[..., :, 1, :, 0]
    return _normalized_blocks(0.5 * (upper + np.conj(np.swapaxes(lower, -1, -2))), _BLOCK_TRACE_FLOOR)


def embedded_master_equation(emb: TripledEmbedding) -> MasterEquation:
    """The embedding as an ordinary trace-preserving rate-one GKSL system."""
    channels = [(j, 1.0, f"embedded_{i}") for i, j in enumerate(emb.jumps3)]
    return master_equation(3 * emb.base_dim, emb.hamiltonian3, channels)


def embedded_system(me: MasterEquation) -> MasterEquation:
    """The embedding of ``me`` with symmetric factor pairs and the default
    completion levels, as the system the tripled runner steps. All its
    pieces share one evaluation of ``me`` per time."""
    at = once_per_time(me.at)
    # the initial state W0 is built from psi0 by the runner, not from this rho0
    emb, _w0 = tripled_embed(lambda t: at(t).h, _pairs(me, at), me.dim, np.eye(me.dim))
    return embedded_master_equation(emb)


def _kron3(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """np.kron(x, p) of every matrix of a stack x (..., d, d) with a 3 x 3 p,
    as the same broadcast products, so the entries match np.kron bit for bit
    (signed zeros included)."""
    *lead, d, _ = x.shape
    return (x[..., :, None, :, None] * p[:, None, :]).reshape(*lead, 3 * d, 3 * d)


def embedded_track(me: MasterEquation, times) -> GeneratorTrack:
    """``embedded_system(me).track(times)``, built from one ``me.track(times)``.

    Every piece is computed for all (time, pair) at once with the arithmetic
    of the per-time closures, so the track is the same byte for byte; Omega
    is computed once per pair and shared by j3 and j4. Errors keep the track
    contract: a base-model error at time k (hamiltonian hermiticity
    included) or a NotPSD completion at an earlier time ends the track there.
    """
    base = me.track(times)
    gammas, ls = base.gammas, base.ls
    root = np.sqrt(0.5 * np.abs(gammas))[..., None, None]
    c = root * ls
    d = np.copysign(1.0, gammas)[..., None, None] * root * ls
    diff = c - d
    a = np.float_power(np.linalg.norm(diff, ord=2, axis=(-2, -1)), 2)  # as float ** 2
    fill = a[..., None, None] * np.eye(me.dim) - hermitize(np.conj(np.swapaxes(diff, -1, -2)) @ diff)
    omega, bad = psd_sqrt_batched(fill)
    n, error = len(base.h), base.error
    if bad is not None:
        n, error = bad[0][0], bad[1]
    p00, p11 = _aux_proj(0, 0), _aux_proj(1, 1)
    jumps = np.stack(
        [
            _kron3(c[:n], p00) + _kron3(d[:n], p11),
            _kron3(d[:n], p00) + _kron3(c[:n], p11),
            _kron3(omega[:n], _aux_proj(2, 0)),
            _kron3(omega[:n], _aux_proj(2, 1)),
        ],
        axis=2,
    )
    d3 = 3 * me.dim
    h3, jumps = _kron3(base.h[:n], np.eye(3)), jumps.reshape(n, 4 * ls.shape[1], d3, d3)
    ones = np.ones(jumps.shape[:2])
    gamma_l = np.einsum("na,naki,nakj->nij", ones, np.conj(jumps), jumps)
    return GeneratorTrack(base.times, h3, jumps, ones, gamma_l, gamma_l, h3 - 0.5j * gamma_l, error)


def run_chunk(
    me: MasterEquation,
    psi0: np.ndarray,
    grid: TimeGrid,
    idx0: int,
    n,
    seed: int,
    track=None,
):
    """Plain jump trajectories of the embedded equation from psi0 (x) chi;
    n trajectories or batches of the sizes n, as in ``mcwf.run_chunk``.

    rho_sum holds 3d x 3d projector sums over W-space; extraction happens
    at reconstruction time so batch statistics see the same division noise
    a user would. ``track`` is ``embedded_track(me, ...)`` over the grid's
    step starts (built here if None).
    """
    chi = np.zeros(3)
    chi[0] = chi[1] = 1.0 / np.sqrt(2.0)
    theta0 = np.kron(np.asarray(psi0, dtype=complex), chi)
    if track is None:
        track = embedded_track(me, grid.times()[:-1])
    return mcwf.run_chunk(embedded_system(me), theta0, grid, idx0, n, seed, track=track)
