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

from .errors import DimensionMismatch, ModelError, NotHermitian, UnravelError
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


class _Constant:
    """A piece given as a constant: called at any time it returns ``value``,
    and ``MasterEquation.track`` reads it once per track."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __call__(self, t):
        return self.value


def _const_matrix(m: np.ndarray) -> MatrixFn:
    return _Constant(np.asarray(m, dtype=complex))


def _const_rate(g: float) -> RateFn:
    return _Constant(float(g))


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
        track. The first time runs ``_evaluate`` in full; later times call
        only the callables, once per time even if what one returns never
        changes, while a piece given as a constant (an array or a number
        passed to ``master_equation`` or ``channel``) is read once per track
        and broadcast. The hermiticity checks and G_L run once over the
        stack.

        An evaluation error ends the track and is kept (a callable's own
        exception as the cause of a ModelError): ``track[k]`` raises it from
        the failing time on, so a runner meets it as an abort at the step
        where it would first have evaluated that time, and not before a
        method abort. At one time a callable's error or a wrong shape comes
        before a hamiltonian that is not hermitian, and that before such a
        trace sink.
        """
        times = np.asarray(times, dtype=float)
        n, d, m = len(times), self.dim, len(self.channels)
        h = np.empty((n, d, d), dtype=complex)
        ls = np.empty((n, m, d, d), dtype=complex)
        gammas = np.empty((n, m))
        sinks = None if self.trace_sink is None else np.empty((n, d, d), dtype=complex)
        error = None
        if n:
            try:
                h[0], ls[0], gammas[0], sink = self._evaluate(times[0])
            except Exception as err:  # GeneratorTrack keeps it as a ModelError
                n, error = 0, err
            else:
                if sinks is not None:
                    sinks[0] = sink
        # (piece, its stack, its name) in _evaluate's order; a name is None
        # for a rate
        pieces = [(self.hamiltonian, h, "hamiltonian")]
        for i, ch in enumerate(self.channels):
            pieces += [(ch.jump_operator, ls[:, i], f"jump operator {i}"), (ch.rate, gammas[:, i], None)]
        if sinks is not None:
            pieces.append((self.trace_sink, sinks, "trace_sink"))
        varying = []
        for piece, out, what in pieces:
            if not isinstance(piece, _Constant):
                varying.append((piece, out, what))
            elif n > 1:
                out[1:n] = out[0]
        for i in range(1, n):
            t = times[i]
            try:
                for piece, out, what in varying:
                    out[i] = float(piece(t)) if what is None else _matrix(piece(t), d, f"{what}(t={t})")
            except Exception as err:  # GeneratorTrack keeps it as a ModelError
                n, error = i, err
                break
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
        with np.errstate(invalid="ignore", over="ignore"):  # GeneratorTrack ends at a non-finite K
            k = h - 0.5j * drift
        return GeneratorTrack(times, h, ls, gammas, gamma_l, drift, k, error)

    def half_track(self, times) -> "GeneratorTrack":
        """The track at the start, midpoint and end of every step of
        ``times``: ``track[2k]``, ``track[2k + 1]``, ``track[2k + 2]``."""
        times = np.asarray(times, dtype=float)
        half = np.empty(2 * len(times) - 1)
        half[::2] = times
        half[1::2] = times[:-1] + 0.5 * np.diff(times)
        return self.track(half)

    def _evaluate(self, t: float):
        """Call every piece, constants included, once at t and check its
        shape: (h, ls, gammas, trace sink or None). ``track`` runs it at its
        first time only."""
        h = _matrix(self.hamiltonian(t), self.dim, f"hamiltonian(t={t})")
        ls = np.empty((len(self.channels), self.dim, self.dim), dtype=complex)
        gammas = np.empty(len(self.channels))
        for i, ch in enumerate(self.channels):
            ls[i] = _matrix(ch.jump_operator(t), self.dim, f"jump operator {i}(t={t})")
            gammas[i] = float(ch.rate(t))
        if self.trace_sink is None:
            return h, ls, gammas, None
        return h, ls, gammas, _matrix(self.trace_sink(t), self.dim, f"trace_sink(t={t})")


def _matrix(value, dim: int, what: str) -> np.ndarray:
    """``value`` as a complex (dim, dim) array; DimensionMismatch naming
    ``what`` if it has another shape."""
    m = np.asarray(value, dtype=complex)
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"{what} has shape {m.shape}, expected {(dim, dim)}")
    return m


def _first_non_hermitian(ms: np.ndarray, times: np.ndarray, what: str):
    """(index, NotHermitian) for the first matrix of the stack that
    ``require_hermitian`` rejects, or None."""
    with np.errstate(invalid="ignore"):  # a non-finite entry is GeneratorTrack's to report
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

    def __post_init__(self):
        # a non-finite piece ends the track at its first time; that, or a
        # model's own exception, is kept as the cause of a ModelError, which a
        # runner ends as an abort; an error without a time gets the time that failed
        found = _first_non_finite(self)
        if found is not None:
            k, what = found
            for name in ("h", "ls", "gammas", "gamma_l", "gamma_drift", "k"):
                object.__setattr__(self, name, getattr(self, name)[:k])
            object.__setattr__(self, "error", FloatingPointError(f"{what} is not finite at t={self.times[k]}"))
        if self.error is None:
            return
        t = float(self.times[len(self.h)])
        if not isinstance(self.error, UnravelError):
            object.__setattr__(self, "error", ModelError(self.error, t))
        elif self.error.time is None:
            self.error.time = t

    def __getitem__(self, k: int) -> GeneratorSnapshot:
        if self.error is not None and k >= len(self.h):
            raise self.error
        return GeneratorSnapshot(
            self.times[k], self.h[k], self.ls[k], self.gammas[k], self.gamma_l[k], self.gamma_drift[k], self.k[k]
        )


def _first_non_finite(track: GeneratorTrack):
    """(index, name) of the first time at which a piece holds a non-finite
    entry (the hamiltonian first, then each jump operator and rate, G_L, G)."""
    channels = ~(np.isfinite(track.ls).all(axis=(2, 3)) & np.isfinite(track.gammas))
    h, gamma_l, drift = (~np.isfinite(m).all(axis=(1, 2)) for m in (track.h, track.gamma_l, track.gamma_drift))
    bad = h | channels.any(axis=1) | gamma_l | drift
    if not bad.any():
        return None
    k = int(bad.argmax())
    if h[k]:
        return k, "hamiltonian"
    if channels[k].any():
        i = int(channels[k].argmax())
        return k, f"rate {i}" if np.isfinite(track.ls[k, i]).all() else f"jump operator {i}"
    return k, "G_L = sum_a gamma_a L_a^dag L_a" if gamma_l[k] else "decay operator G"


def master_equation(dim, hamiltonian, channels, trace_sink=None) -> MasterEquation:
    """Build a MasterEquation from constants or callables.

    ``channels`` may mix Channel instances with (operator, rate) or
    (operator, rate, label) tuples.
    """
    h = hamiltonian if callable(hamiltonian) else _const_matrix(hamiltonian)
    chans = tuple(c if isinstance(c, Channel) else channel(*c) for c in channels)
    sink = trace_sink if trace_sink is None or callable(trace_sink) else _const_matrix(trace_sink)
    return MasterEquation(int(dim), h, chans, sink)


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
