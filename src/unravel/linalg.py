"""Small dense linear algebra helpers with pinned conventions.

All eigendecompositions in the package go through :func:`eigh` or its batched
variant so that ordering, phases and degeneracy handling are identical
everywhere: eigenvalues descending, each eigenvector's largest-magnitude
component made real and nonnegative, and the columns of each run of exactly
equal eigenvalues in ascending lexicographic order of their phase-fixed
entries, read as interleaved (real, imag) pairs. One vectorized pass
(``_order_ties``) applies that tie rule at every d. Vectorized matrix stacks
use the last two axes; ``vec``/``unvec`` are column-stacking (Fortran order).

At d = 2 two closed forms replace the general algorithms, selected by the
shape alone. ``eigh_batched`` decomposes a 2 x 2 stack by the half-angle
formula (``_eigh_2x2``) instead of LAPACK, after the same hermiticity check
and hermitization, and builds its columns already under the phase
convention; the tie rule then runs on its output as on LAPACK's. For
d > 2 LAPACK (``_eigh_lapack``) is the only path, and the tests use it as the
reference for the closed form. ``complement_batch`` returns the complement
of a qubit state (a, b) as (-conj(b), conj(a)) under the column phase
convention; for d > 2 it returns a Householder basis without it. Both closed
forms change the last bits of their results against the general ones.
A stack of n states is held as the columns of a (d, n) array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotHermitian, NotPSD, ZeroVector

__all__ = [
    "EPS", "HERM_ATOL", "require_hermitian", "hermitize", "eigh", "eigh_batched", "eigvalsh_min",
    "normalize", "normalize_rows", "normalize_columns", "trace_distance", "psd_sqrt", "psd_sqrt_batched",
    "haar_state", "require_density", "orthonormal_complement", "complement_batch", "phase_fix_columns",
    "weighted_outer_sum", "outer_sum", "row_sum", "squared_norms", "apply_columns", "vec", "unvec"
]

EPS = 1e-12          # sign / clipping threshold for probabilities and rates
HERM_ATOL = 1e-9     # hermiticity and PSD tolerance for d x d operators
_ZERO_NORM = 1e-14   # largest norm ``normalize`` rejects as a zero vector
# Rows numpy's einsum reduces in one pass when the reduced axis is contiguous
# (its iterator's default buffer); a longer reduction is summed buffer by
# buffer, which changes the last bits.
_EINSUM_PASS = 8192


def hermitize(m: np.ndarray) -> np.ndarray:
    """(m + m^dag)/2, batched over leading axes."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``m``, if every entry of m - m^dag is within HERM_ATOL; else
    NotHermitian naming ``what``."""
    dev = np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2))), initial=0.0)
    if dev > HERM_ATOL:
        raise NotHermitian(f"{what} deviates from hermiticity by {dev:.3e} (atol {HERM_ATOL:.1e})")
    return m


def phase_fix_columns(vecs: np.ndarray) -> np.ndarray:
    """The column phase convention on a stack (..., d, k): the largest-|.|
    component of each column is rotated to the positive real axis."""
    mags = np.abs(vecs)
    idx = np.argmax(mags, axis=-2)  # (..., k) row index per column
    lead = np.take_along_axis(vecs, idx[..., None, :], axis=-2)[..., 0, :]
    absl = np.abs(lead)
    phase = np.where(absl > 0.0, lead / np.where(absl > 0.0, absl, 1.0), 1.0)
    return vecs * np.conj(phase)[..., None, :]


def _lex_greater(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    # Row-wise lexicographic k0 > k1 on (n, c) real key arrays.
    gt = np.zeros(k0.shape[0], dtype=bool)
    undecided = np.ones(k0.shape[0], dtype=bool)
    for c in range(k0.shape[1]):
        gt |= undecided & (k0[:, c] > k1[:, c])
        undecided &= k0[:, c] == k1[:, c]
        if not undecided.any():
            break
    return gt


def eigh_batched(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a stack of hermitian matrices, pinned ordering.

    Returns ``(vals, vecs)`` with eigenvalues descending along the last axis
    and eigenvectors in the columns of ``vecs``; NotHermitian if the stack
    is not hermitian within HERM_ATOL. 2 x 2 stacks take the
    closed form of ``_eigh_2x2``, larger ones LAPACK (``_eigh_lapack``).
    """
    ms = np.asarray(ms)
    require_hermitian(ms)
    vals, vecs = _eigh_2x2(ms) if ms.shape[-1] == 2 else _eigh_lapack(ms)
    _order_ties(vals, vecs)
    return vals, vecs


def _eigh_lapack(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the hermitized stack from LAPACK, values descending and
    columns phase-fixed, ties not yet ordered."""
    vals, vecs = np.linalg.eigh(hermitize(ms))
    return vals[..., ::-1].copy(), phase_fix_columns(vecs[..., ::-1].copy())


def _order_ties(vals: np.ndarray, vecs: np.ndarray) -> None:
    """Sort in place, stably, the columns of each run of exactly equal
    eigenvalues by their interleaved (real, imag) keys: d rounds of odd-even
    transposition over the rows with a tie swap neighbouring columns j, j + 1
    where vals[j] == vals[j + 1] and column j's key is strictly greater."""
    d = vals.shape[-1]
    flat_vals, flat_vecs = vals.reshape(-1, d), vecs.reshape(-1, d, d)
    rows = np.flatnonzero(np.any(flat_vals[:, 1:] == flat_vals[:, :-1], axis=-1))
    if rows.size == 0:
        return
    tied, sub = np.take(flat_vals, rows, axis=0), np.take(flat_vecs, rows, axis=0)
    for k in range(d):
        for j in range(k % 2, d - 1, 2):
            a, b = np.ascontiguousarray(sub[..., j]), np.ascontiguousarray(sub[..., j + 1])
            swap = ((tied[:, j] == tied[:, j + 1]) & _lex_greater(a.view(float), b.view(float)))[:, None]
            sub[..., j], sub[..., j + 1] = np.where(swap, b, a), np.where(swap, a, b)
    flat_vecs[rows] = sub


def _eigh_2x2(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs of the hermitized stack (..., 2, 2), values
    descending and columns phase-fixed, ties not yet ordered.

    With the hermitized entries [[a, b], [conj(b), d]], b = |b| e^{i phi},
    h = (a - d)/2 and r = sqrt(h^2 + |b|^2), the values are (a + d)/2 +- r, and
    theta = atan2(|b|, h)/2 gives the columns (cos theta, e^{-i phi} sin
    theta) and (-e^{i phi} sin theta, cos theta). Both cosines and sines are
    nonnegative, so the phase convention rotates by e^{+-i phi} exactly the
    columns whose larger entry (the first on a tie) is the e^{+-i phi} one.
    """
    a, d = ms[..., 0, 0].real, ms[..., 1, 1].real
    b = 0.5 * (ms[..., 0, 1] + np.conj(ms[..., 1, 0]))
    absb = np.abs(b)
    h = 0.5 * (a - d) + 0.0  # + 0.0: a -0.0 would turn theta by pi/2
    mean, r = 0.5 * (a + d), np.hypot(h, absb)  # no overflow or underflow in h^2
    theta = 0.5 * np.arctan2(absb, h)
    c, s = np.cos(theta), np.sin(theta)
    # e^{i phi}, or 0 where b = 0, which leaves a diagonal input's
    # eigenvectors exactly the basis vectors
    u = b / np.where(absb > 0.0, absb, 1.0)
    us, uc = u * s, u * c
    first = c >= s
    vecs = np.empty(ms.shape, dtype=complex)
    vecs[..., 0, 0] = np.where(first, c, uc)
    vecs[..., 1, 0] = np.where(first, np.conj(us), s)
    vecs[..., 0, 1] = np.where(s >= c, s, -us)
    vecs[..., 1, 1] = np.where(s >= c, -np.conj(uc), c)
    return np.stack([mean + r, mean - r], axis=-1), vecs


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-matrix version of :func:`eigh_batched`."""
    vals, vecs = eigh_batched(np.asarray(m)[None, ...])
    return vals[0], vecs[0]


def eigvalsh_min(ms: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a hermitian stack."""
    return np.linalg.eigvalsh(hermitize(ms))[..., 0]


def normalize(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit vector and the pre-normalization norm. Raises on numerical zero.

    A contiguous complex vector takes ``np.linalg.norm``'s own formula,
    sqrt(re . re + im . im), without its argument handling: the same bits
    in a fraction of the time.
    """
    if isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype == np.complex128 and v.flags.c_contiguous:
        re, im = v.real, v.imag
        n = math.sqrt(re.dot(re) + im.dot(im))
    else:
        n = float(np.linalg.norm(v))
    if n <= _ZERO_NORM:
        raise _zero_vector(n)
    return v / n, n


def normalize_rows(rows: np.ndarray):
    """:func:`normalize` of each row of a complex stack (n, d), with its bits
    row by row: the unit rows, and (index, ZeroVector) for the first row it
    rejects (None if there is none); a rejected row is not meaningful."""
    norms = np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))
    zero = norms <= _ZERO_NORM
    bad = None
    if zero.any():
        q = int(zero.argmax())
        bad = q, _zero_vector(norms[q])
    return rows / np.where(zero, 1.0, norms)[:, None], bad


def normalize_columns(cols: np.ndarray, t: float) -> np.ndarray:
    """The columns of ``cols`` (w, n) divided in place by their norms;
    ZeroVector at time t where a norm is at most ``_ZERO_NORM``.

    A norm is ``np.linalg.norm``'s, the square root of the terms
    (conj(x) * x).real, but added by ``row_sum``: ``np.linalg.norm`` sums a
    lone column of 8 or more rows pairwise.
    """
    norms = np.sqrt(row_sum((np.conj(cols) * cols).real))
    zero = norms <= _ZERO_NORM
    if zero.any():
        raise ZeroVector(f"cannot normalize state with norm {norms[zero].min():.3e} at t={t:.6g}", time=t)
    cols /= norms
    return cols


def _zero_vector(n) -> ZeroVector:
    return ZeroVector(f"cannot normalize vector with norm {n:.3e}")


def trace_distance(a: np.ndarray, b: np.ndarray):
    """T(a, b) = (1/2) ||a - b||_1 for hermitian a, b: a float for one pair
    of d x d matrices, an array over the leading axes for stacks
    (..., d, d), which broadcast against each other."""
    dists = _half_trace_norms(np.asarray(a) - np.asarray(b))
    return float(dists) if dists.ndim == 0 else dists


def _half_trace_norms(diff: np.ndarray) -> np.ndarray:
    """(1/2) ||m||_1 of each difference m of a stack (..., d, d)."""
    require_hermitian(diff, what="difference of operators")
    return 0.5 * np.abs(np.linalg.eigvalsh(hermitize(diff))).sum(axis=-1)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix; NotPSD below -HERM_ATOL."""
    roots, bad = psd_sqrt_batched(np.asarray(m)[None, ...])
    if bad is not None:
        raise bad[1]
    return roots[0]


def psd_sqrt_batched(ms: np.ndarray):
    """:func:`psd_sqrt` of each matrix of a stack (..., d, d), and
    (index, NotPSD) for the first matrix in C order with an eigenvalue
    below -HERM_ATOL (None if there is none); its root is not meaningful."""
    vals, vecs = eigh_batched(ms)
    low = vals[..., -1] < -HERM_ATOL
    bad = None
    if low.any():
        idx = np.unravel_index(int(low.argmax()), low.shape)
        bad = idx, NotPSD(f"matrix has eigenvalue {vals[idx][-1]:.3e} < -{HERM_ATOL:.1e}")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return (vecs * root[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2)), bad


def haar_state(d: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-random pure state of dimension d."""
    z = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    return normalize(z)[0]


def require_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: hermitian, unit trace, PSD within
    HERM_ATOL."""
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho, "density matrix")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > HERM_ATOL:
        raise NotPSD(f"density matrix trace {tr} deviates from 1")
    lo = float(np.linalg.eigvalsh(hermitize(rho))[0])
    if lo < -HERM_ATOL:
        raise NotPSD(f"density matrix eigenvalue {lo:.3e} < -{HERM_ATOL:.1e}")
    return rho


def orthonormal_complement(psi: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of span{psi}^perp (shape (d, d-1)):
    the one-state view of :func:`complement_batch`."""
    return complement_batch(np.asarray(psi, dtype=complex)[:, None])[:, :, 0].T


def complement_batch(states: np.ndarray) -> np.ndarray:
    """Orthonormal bases of span{psi}^perp for the columns psi of ``states``:
    (d, n) -> (d-1, d, n), basis vector j of column k at [j, :, k].

    Deterministic in psi, so batched callers can rely on reproducible bases.
    At d = 2 the basis is (-conj(b), conj(a)) for psi = (a, b), under the
    column phase convention; above, columns 1..d-1 of a Householder
    reflector, without it.
    """
    states = np.asarray(states, dtype=complex)
    d, n = states.shape
    a = states[0]
    absa = np.abs(a)
    if d == 2:
        b = states[1]
        absb = np.abs(b)
        # q = (-conj(b), conj(a)) times u, the conjugate phase of its larger
        # entry (the first on a tie): -b/|b| or a/|a|
        first = absb >= absa
        lead = np.maximum(absa, absb)
        u = np.where(first, -b, a) / np.where(lead > 0.0, lead, 1.0)
        qs = np.empty((1, 2, n), dtype=complex)
        qs[0, 0] = np.where(first, absb, -np.conj(b) * u)
        qs[0, 1] = np.where(first, np.conj(a) * u, absa)
        return qs
    phase = np.where(absa > 1e-14, a / np.where(absa > 1e-14, absa, 1.0), 1.0)
    w = states.copy()
    w[0] += phase
    # columns 1..d-1 of the reflector 1 - 2 w w^dag / ||w||^2
    return np.eye(d, dtype=complex)[1:, :, None] - 2.0 * (w[None] * np.conj(w[1:, None])) / squared_norms(w)


def weighted_outer_sum(states: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k |psi_k><psi_k| over the columns of ``states`` (d, n), or
    over the columns of each slice of a stack (..., d, n) with weights
    (..., n): ``outer_sum(states, states, weights)``."""
    return outer_sum(states, states, weights)


def outer_sum(kets: np.ndarray, bras: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k |ket_k><bra_k| over the columns k of ``kets`` and ``bras``
    (d, n), unweighted without ``weights``; for stacks (..., d, n) with
    weights (..., n), one such sum per slice, (..., d, d).

    With the trajectory axis contiguous (views of a tile's columns too),
    einsum reduces a whole stack in one call, in its contiguous loop with a
    stride-0 output, which accumulates each entry over the columns in order,
    as one row-major 2-D call per slice does, bit for bit. Slices of more
    than ``_EINSUM_PASS`` columns take those 2-D calls on rows.
    """
    n = kets.shape[-1]
    if n > _EINSUM_PASS:
        ks, bs = (np.ascontiguousarray(np.swapaxes(x, -1, -2)).reshape(-1, n, x.shape[-2]) for x in (kets, bras))
        ws = [None] * len(ks) if weights is None else np.reshape(weights, (-1, n))
        sums = np.array([
            np.einsum("ni,nj->ij", k, np.conj(b)) if w is None else np.einsum("n,ni,nj->ij", w, k, np.conj(b))
            for k, b, w in zip(ks, bs, ws)
        ])
        return sums.reshape(kets.shape[:-2] + sums.shape[1:])
    conj = np.conj(bras)
    if weights is None:
        return np.einsum("...in,...jn->...ij", kets, conj)
    return np.einsum("...n,...in,...jn->...ij", weights, kets, conj)


def row_sum(rows: np.ndarray) -> np.ndarray:
    """The rows of ``rows`` (k, ...) added one at a time in order, so that a
    column gets the same bits whatever columns share the array.
    ``rows.sum(axis=0)`` adds in that order over several columns but sums a
    lone column of 8 or more rows pairwise, and a BLAS product's order
    depends on the column count and position."""
    out = rows[0].copy() if len(rows) else np.zeros(rows.shape[1:], dtype=rows.dtype)
    for row in rows[1:]:
        out += row
    return out


def squared_norms(cols: np.ndarray) -> np.ndarray:
    """Squared norms of the columns of (w, n) or of a stack (..., w, n):
    re^2 + im^2 summed over the width in order, one width row at a time."""
    re, im = cols.real, cols.imag
    out = re[..., 0, :] ** 2 + im[..., 0, :] ** 2
    for i in range(1, cols.shape[-2]):
        out += re[..., i, :] ** 2 + im[..., i, :] ** 2
    return out


def apply_columns(mats: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each matrix of ``mats`` (..., w, w) applied to the columns (w, n):
    (..., w, n). A result row is its first nonzero entry times that row of
    ``cols`` plus each later nonzero entry's multiple, in order (0 if none),
    so each column takes one fixed sequence of roundings wherever it sits
    and a tile gives each batch its own run's bits (a BLAS product rounds
    its last n mod 4 columns differently); sparse operators cost little."""
    n = cols.shape[-1]
    out = np.empty(mats.shape[:-1] + (n,), dtype=complex)
    flat_out, flat = out.reshape(-1, n), mats.reshape(-1, mats.shape[-1])
    rows, idx = np.nonzero(flat)
    started = np.zeros(len(flat), dtype=bool)
    for r, j, c in zip(rows.tolist(), idx.tolist(), flat[rows, idx].tolist()):
        if started[r]:
            flat_out[r] += c * cols[j]
        else:
            np.multiply(c, cols[j], out=flat_out[r])
            started[r] = True
    flat_out[~started] = 0.0
    return out


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix or of each matrix of a stack."""
    m = np.asarray(m)
    return np.swapaxes(m, -1, -2).reshape(*m.shape[:-2], -1)


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    v = np.asarray(v)
    return np.swapaxes(v.reshape(*v.shape[:-1], d, d), -1, -2)
