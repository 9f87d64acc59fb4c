"""Rate operators for orthogonal-jump unravelings and their gauges.

Three flavors share the jump part J_t[|psi><psi|] = sum_a gamma_a L_a
|psi><psi| L_a^dag:

* W     = P J P with P = 1 - |psi><psi|; PSD for every psi iff the flow is
          P divisible. Jumps land orthogonal to psi.
* R     = J + (1/2)(C_t |psi><psi| + |psi><psi| C_t^dag), a time-dependent
          gauge C_t; the master equation is unchanged, the unraveling is not.
* Psi-R = J + (1/2)(|phi><psi| + |psi><phi|) with a state-dependent raw
          vector phi = phi(t, psi); phi is used exactly as supplied (no
          normalization, no phase convention).

The accompanying deterministic drifts:
  K^W   = K + (i/2) sum_a gamma_a (2 conj(l_a) L_a - |l_a|^2),  l_a = <psi|L_a|psi>
  K'    = K - (i/2) C_t
  K^Psi = K - (i/2) |phi><psi|

The batched helpers take state columns (d, n) and give images (m, d, n),
W's spectrum as (d-1, n) values and (d-1, d, n) vectors, and drifts (d, n);
J and R stay one (d, d) block per state, (n, d, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import apply_columns, complement_batch, eigh_batched, hermitize, phase_fix_columns, row_sum
from .master_equation import GeneratorSnapshot, MasterEquation

__all__ = [
    "GaugeTransform", "gauge_none", "time_dependent_gauge", "state_dependent_gauge",
    "RateOperatorSpectrum", "w_rate_operator", "rate_operator", "w_drift_step", "r_drift_matrix",
    "psi_drift_step", "w_matching_gauge", "w_spectrum_batch", "w_perp_spectrum", "ro_spectrum_batch",
    "gauge_vectors_batch", "jump_images"
]


@dataclass(frozen=True)
class GaugeTransform:
    """kind is 'none', 'time_dependent' (c: t -> matrix) or 'state_dependent'
    (phi: (t, psi) -> raw vector). phi_batch, if given, evaluates phi on
    state columns at once from the step's generator snapshot
    (phi_batch: (snap, states (d, n)) -> (d, n)); the batched kernels use it."""

    kind: str
    c: Callable[[float], np.ndarray] | None = None
    phi: Callable[[float, np.ndarray], np.ndarray] | None = None
    phi_batch: Callable[[GeneratorSnapshot, np.ndarray], np.ndarray] | None = None


def gauge_none() -> GaugeTransform:
    return GaugeTransform("none")


def time_dependent_gauge(c) -> GaugeTransform:
    cfn = c if callable(c) else (lambda t, _m=np.asarray(c, dtype=complex): _m)
    return GaugeTransform("time_dependent", c=cfn)


def state_dependent_gauge(phi, phi_batch=None) -> GaugeTransform:
    return GaugeTransform("state_dependent", phi=phi, phi_batch=phi_batch)


@dataclass(frozen=True)
class RateOperatorSpectrum:
    """Eigenvalues descending; eigenvectors in matching columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def eigenpairs(self) -> list[tuple[float, np.ndarray]]:
        return [(float(self.values[k]), self.vectors[:, k]) for k in range(len(self.values))]


def gauge_vectors_batch(gauge: GaugeTransform, snap: GeneratorSnapshot, states: np.ndarray) -> np.ndarray:
    """phi at ``snap.t`` for every column of ``states``; zeros for the trivial gauge."""
    if gauge.kind == "none":
        return np.zeros_like(states)
    if gauge.kind == "time_dependent":
        return apply_columns(np.asarray(gauge.c(snap.t), dtype=complex), states)
    if gauge.phi_batch is not None:
        return np.asarray(gauge.phi_batch(snap, states), dtype=complex)
    return np.stack([np.asarray(gauge.phi(snap.t, s), dtype=complex) for s in states.T], axis=1)


def jump_images(snap: GeneratorSnapshot, states: np.ndarray) -> np.ndarray:
    """L_a psi for every channel a and column psi of ``states``: (m, d, n)."""
    return apply_columns(snap.ls, states)


def _jump_operators(snap: GeneratorSnapshot, y: np.ndarray) -> np.ndarray:
    """J = sum_a gamma_a |L_a psi><L_a psi| per state, (n, d, d), from the
    images y (m, d, n). Summed a channel at a time, bit for bit
    einsum("a,ain,ajn->nij", gammas, y, conj(y)), without that call's
    conjugate copy and buffers of the whole stack (half its peak memory)."""
    d, n = y.shape[1:]
    j = np.zeros((n, d, d), dtype=complex)
    for gamma, ya in zip(snap.gammas, y):
        j += np.einsum("in,jn->nij", gamma * ya, np.conj(ya))
    return j


def w_perp_spectrum(
    snap: GeneratorSnapshot, qs: np.ndarray, images: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """W on span{psi}^perp in the orthonormal basis ``qs`` (d-1, d, n) of
    that space, from the states' ``jump_images``: values (d-1, n) descending
    and eigenvectors in the basis ``qs`` (n, d-1, d-1).

    The projector P acts as the identity on Q, so the block is Q^dag J Q. At
    d = 2 it is 1 x 1, sum_a gamma_a |<q|L_a psi>|^2, computed without J, and
    its eigenvector is [[1]] (returned as None); above, ``eigh_batched`` of
    the hermitized block.
    """
    if qs.shape[1] == 2:
        q = np.conj(qs[0])
        ov = np.empty((len(images), images.shape[-1]), dtype=complex)  # <q|L_a psi>
        for a, y in enumerate(images):  # a channel at a time: no ufunc buffers
            ov[a] = q[0] * y[0] + q[1] * y[1]
        return row_sum(snap.gammas[:, None] * (ov.real**2 + ov.imag**2))[None, :], None
    q = np.ascontiguousarray(qs.transpose(2, 1, 0))  # one (d, d-1) basis per state
    vals, vecs = eigh_batched(hermitize(np.einsum("nki,nkl,nlj->nij", np.conj(q), _jump_operators(snap, images), q)))
    return vals.T, vecs


def w_spectrum_batch(
    snap: GeneratorSnapshot, states: np.ndarray, images: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """W spectrum on span{psi}^perp for each column psi of ``states``:
    values (d-1, n) and eigenvectors (d-1, d, n) under the column phase
    convention. ``images`` are the states' ``jump_images`` if the caller has them.
    """
    qs = complement_batch(states)
    y = jump_images(snap, states) if images is None else images
    vals, small = w_perp_spectrum(snap, qs, y)
    if small is None:  # d = 2: the one complement vector, already phase-fixed
        return vals, qs
    q = np.ascontiguousarray(qs.transpose(2, 1, 0))
    return vals, phase_fix_columns(np.einsum("nkp,npj->nkj", q, small)).transpose(2, 1, 0)


def w_rate_operator(me: MasterEquation, t: float, psi: np.ndarray) -> RateOperatorSpectrum:
    """Spectrum of (1 - |psi><psi|) J_t[|psi><psi|] (1 - |psi><psi|) on psi^perp.

    Only the d-1 jump-relevant eigenpairs are returned; every eigenvector is
    orthogonal to psi by construction (psi itself spans the trivial kernel).
    """
    vals, phis = w_spectrum_batch(me.at(t), np.asarray(psi, dtype=complex)[:, None])
    return RateOperatorSpectrum(vals[:, 0], phis[:, :, 0].T)


def ro_spectrum_batch(
    snap: GeneratorSnapshot, states: np.ndarray, phis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gauged rate-operator spectrum per column of ``states`` and ``phis``: ((n, d), (n, d, d))."""
    r = _jump_operators(snap, jump_images(snap, states))
    cross = 0.5 * np.einsum("in,jn->nij", phis, np.conj(states))
    r += cross + np.conj(np.swapaxes(cross, 1, 2))
    return eigh_batched(hermitize(r))


def rate_operator(me: MasterEquation, t: float, psi: np.ndarray, g: GaugeTransform) -> RateOperatorSpectrum:
    """Full spectrum of the gauged rate operator (R or Psi-R by gauge kind)."""
    psi = np.asarray(psi, dtype=complex)
    snap = me.at(t)
    vals, vecs = ro_spectrum_batch(snap, psi[:, None], gauge_vectors_batch(g, snap, psi[:, None]))
    return RateOperatorSpectrum(vals[0], vecs[0])


def w_drift_step(
    snap: GeneratorSnapshot, states: np.ndarray, dt: float, images: np.ndarray | None = None
) -> np.ndarray:
    """Euler step of the W-ROQJ nonlinear drift, unnormalized columns (d, n).

    K^W = K + (i/2) sum_a gamma_a (2 conj(l_a) L_a - |l_a|^2), so the Euler
    update is psi - i dt K psi + (dt/2) sum_a gamma_a (2 conj(l_a) L_a psi
    - |l_a|^2 psi). ``images`` as in ``w_spectrum_batch``.
    """
    y = jump_images(snap, states) if images is None else images
    # over a contiguous trajectory axis this costs what a written-out
    # product over the width does, and keeps the bits of the row layout
    ell = np.einsum("in,ain->an", np.conj(states), y)
    # bit for bit einsum("a,an,ain->in", gammas, 2 conj(ell), y) and
    # einsum("a,an,in->in", gammas, |ell|^2, states): with gamma folded in,
    # two-operand einsums (complex, so nothing is cast in buffers) take half
    # the time and temporaries of those three-operand loops
    corr = np.einsum("an,ain->in", snap.gammas[:, None] * (2.0 * np.conj(ell)), y)
    corr -= np.einsum("an,in->in", (snap.gammas[:, None] * np.abs(ell) ** 2).astype(complex), states)
    return states - 1j * dt * apply_columns(snap.k, states) + 0.5 * dt * corr


def r_drift_matrix(snap: GeneratorSnapshot, c_t: np.ndarray, dt: float) -> np.ndarray:
    """One-step Euler matrix for the linear R-ROQJ drift K' = K - (i/2) C_t."""
    kp = snap.k - 0.5j * c_t
    return np.eye(snap.k.shape[0], dtype=complex) - 1j * dt * kp


def psi_drift_step(snap: GeneratorSnapshot, states: np.ndarray, phis: np.ndarray, dt: float) -> np.ndarray:
    """Euler step of the Psi-ROQJ drift K^Psi = K - (i/2)|phi><psi|, unnormalized.

    With <psi|psi> = 1 the gauge term contributes -(dt/2) phi.
    """
    return states - 1j * dt * apply_columns(snap.k, states) - 0.5 * dt * phis


def w_matching_gauge(me: MasterEquation, offset: float = 1.0) -> GaugeTransform:
    """State-dependent gauge whose Psi-R reproduces W on span{psi}^perp.

    phi = -2 J psi + (<psi|J psi> + offset) psi makes psi an eigenvector of
    Psi-R with eigenvalue ``offset`` > 0 and leaves the perp block equal to W.
    The batched form reads J from the step's snapshot and evaluates nothing;
    ``phi(t, psi)`` evaluates ``me`` at t for its one state.
    """
    if offset <= 0:
        raise ValueError("offset must be positive so psi's eigenvalue stays positive")

    def phi_batch(snap: GeneratorSnapshot, states: np.ndarray) -> np.ndarray:
        y = jump_images(snap, states)
        overlaps = np.einsum("ain,in->an", np.conj(y), states)  # <L_a psi|psi>
        jpsi = np.einsum("an,ain->in", snap.gammas[:, None] * overlaps, y)
        a = np.einsum("in,in->n", np.conj(states), jpsi).real
        return -2.0 * jpsi + (a + offset) * states

    def phi(t: float, psi: np.ndarray) -> np.ndarray:
        return phi_batch(me.at(t), np.asarray(psi, dtype=complex)[:, None])[:, 0]

    return state_dependent_gauge(phi, phi_batch)
