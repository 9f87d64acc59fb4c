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
those tracks. ``run_chunk`` steps ``embedded_track`` with the MCWF kernel and
sums only what the extraction reads, psi0 psi1^dag of aux0 and aux1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DegenerateBlock
from .linalg import hermitize, outer_sum, psd_sqrt_batched
from .master_equation import GeneratorTrack, MasterEquation, _first_non_hermitian, _matrix, _track_model
from .mcwf import mcwf_menu
from .outcomes import run_menus
from .propagate import TimeGrid

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

_CHI = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)  # the auxiliary start (aux0 + aux1)/sqrt(2)
STATE_BLOCKS = len(_CHI)  # a row psi (x) chi holds 3d entries (the engine's tile budget counts them)


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
        if not len(levels) or not np.isfinite(levels[0]).all():
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


@np.errstate(invalid="ignore", over="ignore")  # a non-finite piece is GeneratorTrack's to report
def _embedding(times, h, c, d, levels, error) -> tuple[GeneratorTrack, np.ndarray]:
    """The embedding's track over ``times`` and its completion levels (k, m),
    from h (k, d, d) at the first k times, the factors C and D of the m pairs
    (k, m, d, d), their levels (k, m) or None for the least ones,
    ||C - D||^2, and the error that ends the inputs at times[k]. Omega is
    the root of a*1 - (C-D)^dag (C-D); a level too small for it (NotPSD)
    ends the track at its first such time (first such pair on a tie), and
    a factor or level that is not finite at its first such time."""
    k, m, dim, _ = c.shape
    # a non-finite factor or level takes no norm and no root: its Omega is
    # NaN, so GeneratorTrack ends the track there, as at any non-finite piece
    diff = c - d
    finite = np.isfinite(diff).all(axis=(-2, -1))
    if levels is None:
        norms = np.linalg.norm(np.where(finite[..., None, None], diff, 0.0), ord=2, axis=(-2, -1))
        levels = np.float_power(np.where(finite, norms, np.nan), 2)  # as float ** 2
    fill = levels[..., None, None] * np.eye(dim) - hermitize(np.conj(np.swapaxes(diff, -1, -2)) @ diff)
    finite = np.isfinite(fill).all(axis=(-2, -1))
    omega, bad = psd_sqrt_batched(np.where(finite[..., None, None], fill, 0.0))
    omega[~finite] = np.nan
    del diff, fill  # free these stacks before the jumps are built: the track's peak stays the same
    n = k
    if bad is not None:
        n, error = bad[0][0], bad[1]
    jumps = np.empty((k, m, 4, 3 * dim, 3 * dim), dtype=complex)
    p00, p11 = _aux_proj(0, 0), _aux_proj(1, 1)
    jumps[:, :, 0] = _kron3(c, p00) + _kron3(d, p11)
    jumps[:, :, 1] = _kron3(d, p00) + _kron3(c, p11)
    jumps[:, :, 2] = _kron3(omega, _aux_proj(2, 0))
    jumps[:, :, 3] = _kron3(omega, _aux_proj(2, 1))
    h3, jumps = _kron3(h[:n], np.eye(3)), jumps[:n].reshape(n, 4 * m, 3 * dim, 3 * dim)
    # every embedded jump has rate one
    gamma_l = np.einsum("naki,nakj->nij", np.conj(jumps), jumps)
    return GeneratorTrack(times, h3, jumps, np.ones(jumps.shape[:2]), gamma_l, gamma_l, h3 - 0.5j * gamma_l, error), levels


def _evaluated(hamiltonian: Matrix, pairs: tuple[JumpPair, ...], levels, dim: int, times: np.ndarray):
    """``_embedding``'s inputs from the user's callables, each called once
    per time in ``times``; the factors are evaluated into complex stacks
    (len(times), m, d, d), as every generator piece is. The first error
    ends them: at one time, a callable's error or a wrong shape (the
    hamiltonian's, then each pair's c and d, then the levels) comes before
    a hamiltonian that is not hermitian."""
    h = np.empty((len(times), dim, dim), dtype=complex)
    c, d = (np.empty((len(times), len(pairs), dim, dim), dtype=complex) for _ in range(2))
    a = None if levels is None else np.empty((len(times), len(pairs)))
    n, error = len(times), None
    for i, t in enumerate(times):
        try:
            h[i] = _matrix(hamiltonian(t), dim, f"hamiltonian(t={t})")
            for j, p in enumerate(pairs):
                c[i, j] = _matrix(p.c(t), dim, f"pair {j} c(t={t})")
                d[i, j] = _matrix(p.d(t), dim, f"pair {j} d(t={t})")
            if a is not None:
                a[i] = [level(t) for level in levels]
        except Exception as err:  # GeneratorTrack keeps it as a ModelError
            n, error = i, err
            break
    found = _first_non_hermitian(h[:n], times, "hamiltonian")
    if found is not None:
        n, error = found
    return times, h[:n], c[:n], d[:n], None if a is None else a[:n], error


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

    w0 = np.kron(np.asarray(rho0, dtype=complex), np.outer(_CHI, _CHI))
    return TripledEmbedding(dim, len(pairs), build), w0


def _normalized_blocks(blocks: np.ndarray):
    """Each block of a stack (..., d, d) over its trace, NaN where |trace| <=
    _BLOCK_TRACE_FLOOR, and (index, DegenerateBlock) for the first such
    block in C order (None if there is none)."""
    tr = np.trace(blocks, axis1=-2, axis2=-1)
    low = np.abs(tr) <= _BLOCK_TRACE_FLOOR
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


def tripled_extract(w: np.ndarray) -> np.ndarray:
    """Read the physical state out of the (aux0, aux1) block of W;
    DegenerateBlock if its trace is at most _BLOCK_TRACE_FLOOR."""
    d = w.shape[0] // 3
    out, bad = _normalized_blocks(w.reshape(d, 3, d, 3)[:, 0, :, 1])
    if bad is not None:
        raise bad[1]
    return out


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
    return _embedding(base.times, base.h, c, d, None, base.error)[0]


def _block_outer(cols: np.ndarray, weights=None) -> np.ndarray:
    """sum_k psi0_k psi1_k^dag over the columns of each slice of a stack
    (B, 3d, m), whose aux0 and aux1 components are rows 0::3 and 1::3: the
    (aux0, aux1) block of their projector sum, (B, d, d)."""
    return outer_sum(cols[..., 0::3, :], cols[..., 1::3, :])


def run_chunk(me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, batch0: int, sizes, seed: int, track):
    """Plain jump trajectories of the embedded equation from psi0 (x) chi,
    batches of ``sizes`` rows as in ``mcwf.run_chunk``.

    rho_sum holds the d x d sums of psi0 psi1^dag, the (aux0, aux1) block of
    the W-space projector sums and all the estimator reads; extraction
    happens at reconstruction time so batch statistics see the same
    division noise a user would. ``track`` is ``embedded_track(me, ...)``
    over the grid's step starts. Only the channels nonzero somewhere on
    ``track`` step (a zero one, like Omega where C = D, has probability
    exactly 0, so the bits are the full track's); once a step has run,
    their counts are scattered back to all 4 * n_pairs channels.
    """
    live = np.any(track.ls != 0.0, axis=(0, 2, 3))
    theta0 = np.kron(np.asarray(psi0, dtype=complex), _CHI)
    reduced = replace(track, ls=track.ls[:, live], gammas=track.gammas[:, live])
    out = run_menus(mcwf_menu, me, theta0, grid, batch0, sizes, seed, reduced, outer=_block_outer)
    if out[3] is None or out[3][1] > 0:
        by_channel = np.zeros(len(live), dtype=int)
        by_channel[live] = out[1]["jump_by_channel"]
        out[1]["jump_by_channel"] = by_channel.tolist()
    return out
