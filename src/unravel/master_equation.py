"""Time-local master equations in GKSL form with possibly negative rates.

d rho / dt = -i [H(t), rho] + sum_a gamma_a(t) L_a rho L_a^dag
             - (1/2) {G(t), rho}

where G(t) defaults to sum_a gamma_a(t) L_a^dag L_a. A ``trace_sink``
override replaces G(t) in the anticommutator (and in the effective
Hamiltonian) with an arbitrary hermitian operator, in which case the
evolution no longer preserves the trace:  d tr(rho)/dt = tr((G_L - G) rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NotHermitian
from .linalg import HERM_ATOL, require_hermitian

__all__ = [
    "Channel",
    "MasterEquation",
    "GeneratorSnapshot",
    "GeneratorTrack",
    "channel",
    "master_equation",
    "decay_operator",
    "drift_decay_operator",
    "effective_hamiltonian",
    "lindblad_apply",
    "jump_superoperator_apply",
]

MatrixFn = Callable[[float], np.ndarray]
RateFn = Callable[[float], float]


def _const_matrix(m: np.ndarray) -> MatrixFn:
    m = np.asarray(m, dtype=complex)
    return lambda t: m


def _const_rate(g: float) -> RateFn:
    g = float(g)
    return lambda t: g


@dataclass(frozen=True)
class Channel:
    """One decay channel: jump operator L(t) and a real rate gamma(t)."""

    jump_operator: MatrixFn
    rate: RateFn
    label: str = ""


def channel(jump_operator, rate, label: str = "") -> Channel:
    """Build a Channel from callables or constants."""
    op = jump_operator if callable(jump_operator) else _const_matrix(jump_operator)
    r = rate if callable(rate) else _const_rate(rate)
    return Channel(op, r, label)


@dataclass(frozen=True)
class MasterEquation:
    dim: int
    hamiltonian: MatrixFn
    channels: tuple[Channel, ...]
    trace_sink: MatrixFn | None = None

    def at(self, t: float) -> "GeneratorSnapshot":
        """The generator at one time: ``track((t,))[0]``."""
        return self.track((t,))[0]

    def track(self, times) -> "GeneratorTrack":
        """Evaluate every time-dependent piece once per time in ``times``
        into stacked arrays; ``track[k]`` is the snapshot at ``times[k]``.
        This is the only place the generator is evaluated: the ensemble
        runners, the oracle, the divisibility scan and ``at`` all read a
        track. The callables run time by time, the hermiticity checks and
        G_L once over the stack.

        An evaluation error ends the track and is kept: ``track[k]`` raises
        it from the failing time on, so a runner meets it at the step where
        it would first have evaluated that time, and not before a method
        abort. At one time a callable's error or a wrong shape comes before
        a hamiltonian that is not hermitian, and that before such a trace
        sink.
        """
        times = np.asarray(times, dtype=float)
        n, d, m = len(times), self.dim, len(self.channels)
        h = np.empty((n, d, d), dtype=complex)
        ls = np.empty((n, m, d, d), dtype=complex)
        gammas = np.empty((n, m))
        sinks = None if self.trace_sink is None else np.empty((n, d, d), dtype=complex)
        error = None
        for i, t in enumerate(times):
            try:
                h[i], ls[i], gammas[i], sink = self._evaluate(t)
            except Exception as err:  # re-raised by GeneratorTrack.__getitem__
                n, error = i, err
                break
            if sinks is not None:
                sinks[i] = sink
        # a piece that is not hermitian fails before a later read error; at
        # one time the hamiltonian fails first (min keeps the first of ties)
        found = [_first_non_hermitian(h[:n], times, "hamiltonian")]
        if sinks is not None:
            found.append(_first_non_hermitian(sinks[:n], times, "trace_sink"))
        found = [f for f in found if f is not None]
        if found:
            n, error = min(found, key=lambda f: f[0])
        h, ls, gammas = h[:n], ls[:n], gammas[:n]
        gamma_l = np.einsum("na,naki,nakj->nij", gammas, np.conj(ls), ls)
        drift = gamma_l if sinks is None else sinks[:n]
        return GeneratorTrack(times, h, ls, gammas, gamma_l, drift, h - 0.5j * drift, error)

    def half_track(self, times) -> "GeneratorTrack":
        """The track at the start, midpoint and end of every step of
        ``times``: ``track[2k]``, ``track[2k + 1]``, ``track[2k + 2]``."""
        times = np.asarray(times, dtype=float)
        half = np.empty(2 * len(times) - 1)
        half[::2] = times
        half[1::2] = times[:-1] + 0.5 * np.diff(times)
        return self.track(half)

    def _evaluate(self, t: float):
        """Call every time-dependent piece once at t and check its shape:
        (h, ls, gammas, trace sink or None)."""
        h = _matrix(self.hamiltonian(t), self.dim, f"hamiltonian(t={t})")
        ls = np.empty((len(self.channels), self.dim, self.dim), dtype=complex)
        gammas = np.empty(len(self.channels))
        for i, ch in enumerate(self.channels):
            ls[i] = _matrix(ch.jump_operator(t), self.dim, f"jump operator {i}(t={t})")
            gammas[i] = float(ch.rate(t))
        if self.trace_sink is None:
            return h, ls, gammas, None
        return h, ls, gammas, _matrix(self.trace_sink(t), self.dim, f"trace_sink(t={t})")


def _matrix(value, dim: int, what: str, dtype=complex) -> np.ndarray:
    """``value`` as a (dim, dim) array of ``dtype`` (None keeps its own);
    DimensionMismatch naming ``what`` if it has another shape."""
    m = np.asarray(value, dtype=dtype)
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"{what} has shape {m.shape}, expected {(dim, dim)}")
    return m


def _first_non_hermitian(ms: np.ndarray, times: np.ndarray, what: str):
    """(index, NotHermitian) for the first matrix of the stack that
    ``require_hermitian`` rejects, or None."""
    bad = np.abs(ms - np.conj(np.swapaxes(ms, -1, -2))).max(axis=(-2, -1)) > HERM_ATOL
    if not bad.any():
        return None
    i = int(bad.argmax())
    try:
        require_hermitian(ms[i], what=f"{what}(t={times[i]})")
    except NotHermitian as err:
        return i, err


@dataclass
class GeneratorSnapshot:
    """All generator pieces evaluated at one time."""

    t: float
    h: np.ndarray            # hamiltonian
    ls: np.ndarray           # (n_channels, d, d) jump operators
    gammas: np.ndarray       # (n_channels,) real rates
    gamma_l: np.ndarray      # sum_a gamma_a L_a^dag L_a
    gamma_drift: np.ndarray  # trace_sink override if present, else gamma_l
    k: np.ndarray            # effective hamiltonian K = H - (i/2) gamma_drift


@dataclass(frozen=True)
class GeneratorTrack:
    """Generator pieces at a sequence of times, stacked along axis 0."""

    times: np.ndarray
    h: np.ndarray            # (n, d, d)
    ls: np.ndarray           # (n, n_channels, d, d)
    gammas: np.ndarray       # (n, n_channels)
    gamma_l: np.ndarray      # (n, d, d)
    gamma_drift: np.ndarray  # (n, d, d)
    k: np.ndarray            # (n, d, d)
    error: Exception | None = None  # raised at times[len(h)] and later

    def __getitem__(self, k: int) -> GeneratorSnapshot:
        if self.error is not None and k >= len(self.h):
            raise self.error
        return GeneratorSnapshot(
            self.times[k], self.h[k], self.ls[k], self.gammas[k], self.gamma_l[k], self.gamma_drift[k], self.k[k]
        )

    def head(self, n: int) -> "GeneratorTrack":
        """The track at its first n times, with the error only if it ends
        the track before them."""
        return GeneratorTrack(
            self.times[:n], self.h[:n], self.ls[:n], self.gammas[:n], self.gamma_l[:n], self.gamma_drift[:n],
            self.k[:n], self.error if len(self.h) < n else None,
        )


def master_equation(dim, hamiltonian, channels, trace_sink=None) -> MasterEquation:
    """Build a MasterEquation from constants or callables.

    ``channels`` may mix Channel instances with (operator, rate) or
    (operator, rate, label) tuples.
    """
    h = hamiltonian if callable(hamiltonian) else _const_matrix(hamiltonian)
    chans = []
    for c in channels:
        if isinstance(c, Channel):
            chans.append(c)
        else:
            chans.append(channel(*c))
    sink = None
    if trace_sink is not None:
        sink = trace_sink if callable(trace_sink) else _const_matrix(trace_sink)
    return MasterEquation(int(dim), h, tuple(chans), sink)


@dataclass(frozen=True)
class _TrackModel(MasterEquation):
    """A model given by a stacked track builder, times -> GeneratorTrack,
    in place of callables evaluated time by time. Its hamiltonian and
    channels are one-time views of the builder."""

    build: Callable[[np.ndarray], GeneratorTrack] | None = None

    def track(self, times) -> GeneratorTrack:
        return self.build(np.asarray(times, dtype=float))


def _track_model(dim: int, labels, build: Callable[[np.ndarray], GeneratorTrack]) -> MasterEquation:
    """The model whose track is ``build(times)``, with channels ``labels``."""

    def at(t: float) -> GeneratorSnapshot:
        return build(np.array([t], dtype=float))[0]

    channels = tuple(
        Channel(lambda t, i=i: at(t).ls[i], lambda t, i=i: float(at(t).gammas[i]), label)
        for i, label in enumerate(labels)
    )
    return _TrackModel(int(dim), lambda t: at(t).h, channels, None, build)


def decay_operator(me: MasterEquation, t: float) -> np.ndarray:
    """G_L(t) = sum_a gamma_a(t) L_a(t)^dag L_a(t)."""
    return me.at(t).gamma_l


def drift_decay_operator(me: MasterEquation, t: float) -> np.ndarray:
    """The G(t) entering the anticommutator and K; trace_sink override if set."""
    return me.at(t).gamma_drift


def effective_hamiltonian(me: MasterEquation, t: float) -> np.ndarray:
    """K(t) = H(t) - (i/2) G(t)."""
    return me.at(t).k


def lindblad_apply(me: MasterEquation, t: float, rho: np.ndarray) -> np.ndarray:
    """Generator action L_t[rho]; rho may be any matrix or a stack of them
    (the propagator-map builder steps the d^2 matrix units)."""
    return lindblad_apply_snapshot(me.at(t), rho)


def lindblad_apply_snapshot(snap: GeneratorSnapshot, rho: np.ndarray) -> np.ndarray:
    """L_t[rho] of a matrix or of each matrix of a stack (..., d, d)."""
    rho = np.asarray(rho, dtype=complex)
    out = -1j * (snap.h @ rho - rho @ snap.h)
    out += np.einsum("a,aik,...kl,ajl->...ij", snap.gammas, snap.ls, rho, np.conj(snap.ls))
    g = snap.gamma_drift
    out -= 0.5 * (g @ rho + rho @ g)
    return out


def jump_superoperator_apply(me: MasterEquation, t: float, rho: np.ndarray) -> np.ndarray:
    """J_t[rho] = sum_a gamma_a(t) L_a rho L_a^dag."""
    snap = me.at(t)
    return np.einsum("a,aik,kl,ajl->ij", snap.gammas, snap.ls, np.asarray(rho, dtype=complex), np.conj(snap.ls))
