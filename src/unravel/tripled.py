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

One stacked function, ``_embedding``, builds every embedding's generator
track: ``embedded_track`` feeds it a model's track split into symmetric
pairs, and ``tripled_embed`` the stacks of a user's callables.
``embedded_system`` and ``embedded_master_equation`` are the models with
those tracks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateBlock
from .linalg import hermitize, psd_sqrt_batched
from .master_equation import GeneratorTrack, MasterEquation, _first_non_hermitian, _matrix, _track_model
from .propagate import TimeGrid
from . import mcwf

__all__ = [
    "JumpPair",
    "TripledEmbedding",
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


@dataclass(frozen=True)
class TripledEmbedding:
    """The rate-one embedding of ``n_pairs`` factor pairs on dimension
    3 * base_dim. ``build(times)`` gives its track and the completion level
    of each pair at those times; ``jumps3`` (four per pair) and ``a`` read
    it at one time."""

    base_dim: int
    n_pairs: int
    build: Callable[[np.ndarray], tuple[GeneratorTrack, np.ndarray]]

    @property
    def jumps3(self) -> tuple[Matrix, ...]:
        return tuple(
            lambda t, i=i: self.build(np.array([t], dtype=float))[0][0].ls[i] for i in range(4 * self.n_pairs)
        )

    def a(self, t: float) -> float:
        """The total completion level at t, which sets the block decay."""
        track, levels = self.build(np.array([t], dtype=float))
        if not len(levels):
            raise track.error
        return float(sum(levels[0]))


def _aux_proj(i: int, j: int) -> np.ndarray:
    p = np.zeros((3, 3))
    p[i, j] = 1.0
    return p


def _kron3(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """np.kron(x, p) of every matrix of a stack x (..., d, d) with a 3 x 3 p,
    as the same broadcast products, so the entries match np.kron bit for bit
    (signed zeros included)."""
    *lead, d, _ = x.shape
    return (x[..., :, None, :, None] * p[:, None, :]).reshape(*lead, 3 * d, 3 * d)


def _embedding(times, h, pairs, error) -> tuple[GeneratorTrack, np.ndarray]:
    """The embedding's track over ``times`` and its completion levels (k, m),
    from h (k, d, d) at the first k times, one (C, D, level) per pair (C, D
    (k, d, d) in the pair's own dtype, level (k,) or None for the least one,
    ||C - D||^2) and the error that ends the inputs at times[k]. Omega is
    the root of a*1 - (C-D)^dag (C-D); a level too small for it (NotPSD)
    ends the track at its first such time (first such pair on a tie)."""
    k, dim = h.shape[0], h.shape[-1]
    n, levels = k, np.empty((k, len(pairs)))
    jumps = np.empty((k, len(pairs), 4, 3 * dim, 3 * dim), dtype=complex)
    p00, p11 = _aux_proj(0, 0), _aux_proj(1, 1)
    for j, (c, d, level) in enumerate(pairs):
        diff = c - d
        if level is None:
            level = np.float_power(np.linalg.norm(diff, ord=2, axis=(-2, -1)), 2)  # as float ** 2
        levels[:, j] = level
        fill = level[:, None, None] * np.eye(dim) - hermitize(np.conj(np.swapaxes(diff, -1, -2)) @ diff)
        omega, bad = psd_sqrt_batched(fill)
        if bad is not None and bad[0][0] < n:
            n, error = bad[0][0], bad[1]
        jumps[:, j, 0] = _kron3(c, p00) + _kron3(d, p11)
        jumps[:, j, 1] = _kron3(d, p00) + _kron3(c, p11)
        jumps[:, j, 2] = _kron3(omega, _aux_proj(2, 0))
        jumps[:, j, 3] = _kron3(omega, _aux_proj(2, 1))
    h3, jumps = _kron3(h[:n], np.eye(3)), jumps[:n].reshape(n, 4 * len(pairs), 3 * dim, 3 * dim)
    ones = np.ones(jumps.shape[:2])
    gamma_l = np.einsum("na,naki,nakj->nij", ones, np.conj(jumps), jumps)
    return GeneratorTrack(times, h3, jumps, ones, gamma_l, gamma_l, h3 - 0.5j * gamma_l, error), levels


def _evaluated(hamiltonian: Matrix, pairs: tuple[JumpPair, ...], levels, dim: int, times: np.ndarray):
    """``_embedding``'s inputs from the user's callables, each called once
    per time in ``times``; a pair's factors keep the dtype of their values.
    The first error ends them: at one time, a callable's error or a wrong
    shape (the hamiltonian's, then each pair's c and d, then the levels)
    comes before a hamiltonian that is not hermitian."""
    h = np.empty((len(times), dim, dim), dtype=complex)
    a = np.empty((len(times), len(pairs)))
    rows, error = [], None  # rows[i][j]: pair j's (c, d) at times[i]
    for i, t in enumerate(times):
        try:
            h[i] = _matrix(hamiltonian(t), dim, f"hamiltonian(t={t})")
            row = [
                (_matrix(p.c(t), dim, f"pair {j} c(t={t})", None), _matrix(p.d(t), dim, f"pair {j} d(t={t})", None))
                for j, p in enumerate(pairs)
            ]
            if levels is not None:
                a[i] = [level(t) for level in levels]
        except Exception as err:  # re-raised by GeneratorTrack.__getitem__
            error = err
            break
        rows.append(row)
    n = len(rows)
    found = _first_non_hermitian(h[:n], times, "hamiltonian")
    if found is not None:
        n, error = found
    def stack(j: int, s: int) -> np.ndarray:
        return np.array([row[j][s] for row in rows[:n]]).reshape(n, dim, dim)

    inputs = [(stack(j, 0), stack(j, 1), None if levels is None else a[:n, j]) for j in range(len(pairs))]
    return times, h[:n], inputs, error


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
    callable is broadcast). The callables are evaluated once per time of a
    track, and an error at a time ends the track there, as in
    ``MasterEquation.track``. At one time a callable's error or a wrong
    shape comes first, then a hamiltonian that is not hermitian, then a
    level too small for Omega to exist (NotPSD).
    """
    pairs = tuple(pairs)
    if a is None:
        levels = None
    elif callable(a):
        levels = (a,) * len(pairs)
    else:
        levels = tuple(a)
        if len(levels) != len(pairs):
            raise ValueError(f"{len(levels)} completion levels for {len(pairs)} pairs")

    def build(times: np.ndarray) -> tuple[GeneratorTrack, np.ndarray]:
        return _embedding(*_evaluated(hamiltonian, pairs, levels, dim, times))

    chi = np.zeros(3)
    chi[0] = chi[1] = 1.0 / np.sqrt(2.0)
    w0 = np.kron(np.asarray(rho0, dtype=complex), np.outer(chi, chi))
    return TripledEmbedding(dim, len(pairs), build), w0


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
    """The embedding as an ordinary trace-preserving rate-one GKSL system,
    whose track is the embedding's."""
    labels = [f"embedded_{i}" for i in range(4 * emb.n_pairs)]
    return _track_model(3 * emb.base_dim, labels, lambda times: emb.build(times)[0])


def embedded_system(me: MasterEquation) -> MasterEquation:
    """The embedding of ``me`` with symmetric factor pairs and the default
    completion levels, as the system the tripled runner steps: its track is
    ``embedded_track(me, times)``."""
    labels = [f"embedded_{i}" for i in range(4 * len(me.channels))]
    return _track_model(3 * me.dim, labels, lambda times: embedded_track(me, times))


def embedded_track(me: MasterEquation, times) -> GeneratorTrack:
    """The embedding of ``me`` over ``times``, built from one
    ``me.track(times)``. Each channel gamma L . L^dag splits into the
    symmetric pair C = sqrt(|gamma|/2) L, D = sign(gamma) sqrt(|gamma|/2) L,
    so that C rho D^dag + D rho C^dag = gamma L rho L^dag for either sign.
    A base-model error at time k (hamiltonian hermiticity included) or a
    NotPSD completion at an earlier time ends the track there.
    """
    base = me.track(times)
    root = np.sqrt(0.5 * np.abs(base.gammas))[..., None, None]
    c = root * base.ls
    d = np.copysign(1.0, base.gammas)[..., None, None] * root * base.ls
    pairs = [(c[:, j], d[:, j], None) for j in range(c.shape[1])]
    return _embedding(base.times, base.h, pairs, base.error)[0]


def run_chunk(
    me: MasterEquation,
    psi0: np.ndarray,
    grid: TimeGrid,
    batch0: int,
    n,
    seed: int,
    track=None,
):
    """Plain jump trajectories of the embedded equation from psi0 (x) chi;
    n trajectories or batches of the sizes n, as in ``mcwf.run_chunk``.

    rho_sum holds 3d x 3d projector sums over W-space; extraction happens
    at reconstruction time so batch statistics see the same division noise
    a user would. ``track`` is ``embedded_track(me, ...)`` over the grid's
    step starts (built from the embedded system if None).
    """
    chi = np.zeros(3)
    chi[0] = chi[1] = 1.0 / np.sqrt(2.0)
    theta0 = np.kron(np.asarray(psi0, dtype=complex), chi)
    return mcwf.run_chunk(embedded_system(me), theta0, grid, batch0, n, seed, track=track)
